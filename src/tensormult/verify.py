"""Cross-validation suites: every computation route the package offers is
checked against an independent one over parameter grids.  Each runner returns
a list of violation records; an empty list means the suite passed.

The frozen tables at the bottom are published decompositions of the smallest
hook algebras at six tensor factors; they double as regression anchors for
the conjectural routes.
"""

import random

from . import diffformula, occupancy, oracle
from .partitions import hook_partitions_of, m_from_lambda, partitions_of
from .weyl import SuperRootSubset


def store_oracle_violations(
    rank_max: int = 3,
    two_s_max: int = 4,
    nsites_max: int = 6,
    samples: int = 200,
    seed: int = 20240811,
) -> list[dict]:
    """The count store must agree with the independent matrix count, on whole
    tables over the grid and at random points with mixed degrees."""
    violations = []
    for rank in range(1, rank_max + 1):
        for two_s in range(1, two_s_max + 1):
            for nsites in range(1, nsites_max + 1):
                spins = (two_s,) * nsites
                store = occupancy.occupancy_table(spins, rank)
                counted = {}
                for m_vec in occupancy.standard_m_vectors(rank, two_s * nsites):
                    count = oracle.matrix_count(m_vec, spins, (rank + 1, 0))
                    if count:
                        counted[m_vec] = count
                if store != counted:
                    diff = set(store.items()) ^ set(counted.items())
                    violations.append(
                        {"rank": rank, "twoS": two_s, "L": nsites,
                         "kind": "table", "diff": sorted(diff)[:3]}
                    )
    rng = random.Random(seed)
    for _ in range(samples):
        rank = rng.randint(1, 4)
        nsites = rng.randint(1, 7)
        spins = tuple(rng.randint(0, 5) for _ in range(nsites))
        total = sum(spins)
        m_vec = tuple(
            sorted((rng.randint(-2, total + 2) for _ in range(rank)), reverse=True)
        )
        stored = occupancy.occupancy_coefficient(m_vec, spins)
        counted = oracle.matrix_count(m_vec, spins, (rank + 1, 0))
        if stored != counted:
            violations.append(
                {"rank": rank, "spins": spins, "M": m_vec, "kind": "point",
                 "store": str(stored), "oracle": str(counted)}
            )
    return violations


def symmetry_violations(
    rank_max: int = 3, two_s_max: int = 3, nsites_max: int = 5
) -> list[dict]:
    """Adjacent-swap identity suite over the full default grid."""
    violations = []
    for rank in range(1, rank_max + 1):
        for two_s in range(1, two_s_max + 1):
            for nsites in range(1, nsites_max + 1):
                for record in occupancy.symmetry_violations(
                    (two_s,) * nsites, rank
                ):
                    record.update({"rank": rank, "twoS": two_s, "L": nsites})
                    violations.append(record)
    return violations


def rank_one_violations(two_s_max: int = 6, nsites_max: int = 12) -> list[dict]:
    """Rank-one closed form and palindrome.

    The shift route over the count store must equal the two-term difference of
    the independent matrix counts, and the counts must be palindromic.
    """
    violations = []
    for two_s in range(1, two_s_max + 1):
        for nsites in range(1, nsites_max + 1):
            total = two_s * nsites
            spins = (two_s,) * nsites
            counts = {
                m: oracle.matrix_count((m,), spins, (2, 0)) for m in range(-1, total + 1)
            }
            for m in range(total + 1):
                c_here, c_prev, c_mirror = counts[m], counts[m - 1], counts[total - m]
                if c_here != c_mirror:
                    violations.append(
                        {"twoS": two_s, "L": nsites, "M": m, "kind": "palindrome"}
                    )
                if m <= total // 2:
                    mu = diffformula.multiplicity_from_m((m,), spins)
                    if mu != c_here - c_prev:
                        violations.append(
                            {"twoS": two_s, "L": nsites, "M": m, "kind": "difference",
                             "mu": str(mu), "expected": str(c_here - c_prev)}
                        )
    return violations


def tensor_sweep_violations(
    ranks=(1, 2, 3), two_s_values=(1, 2, 3, 4), nsites_values=(1, 2, 3, 4, 5, 6)
) -> list[dict]:
    """Shift route vs alternant oracle vs insertion oracle, exhaustively."""
    violations = []
    for rank in ranks:
        for two_s in two_s_values:
            for nsites in nsites_values:
                spins = (two_s,) * nsites
                van = oracle.schur_expansion(spins, rank)
                pieri = oracle.schur_expansion_pieri(spins, rank)
                if van != pieri:
                    violations.append(
                        {"rank": rank, "twoS": two_s, "L": nsites, "kind": "oracles"}
                    )
                for lam in partitions_of(two_s * nsites, max_rows=rank + 1):
                    mu = diffformula.multiplicity(lam, spins, rank)
                    expected = van.get(lam, 0)
                    if mu != expected or mu < 0:
                        violations.append(
                            {"rank": rank, "twoS": two_s, "L": nsites,
                             "lambda": lam, "mu": str(mu), "oracle": str(expected)}
                        )
    return violations


def pieri_pair_violations(two_s_prime_max: int = 6, rank_max: int = 3) -> list[dict]:
    """Two-factor products: multiplicity one exactly on the strip family.

    For degrees (2s', 2s) with 2s <= 2s', the nonzero diagrams are
    (2s'+2s-k, k) for k = 0..2s, each with multiplicity one.
    """
    violations = []
    for rank in range(1, rank_max + 1):
        for two_sp in range(1, two_s_prime_max + 1):
            for two_s in range(1, two_sp + 1):
                spins = (two_sp, two_s)
                allowed = {
                    (two_sp + two_s - k, k) if k else (two_sp + two_s,)
                    for k in range(two_s + 1)
                }
                for lam in partitions_of(two_sp + two_s, max_rows=rank + 1):
                    mu = diffformula.multiplicity(lam, spins, rank)
                    expected = 1 if lam in allowed else 0
                    if mu != expected:
                        violations.append(
                            {"rank": rank, "degrees": spins, "lambda": lam,
                             "mu": str(mu), "expected": expected}
                        )
    return violations


def hook_length_violations(rank_max: int = 4, nsites_max: int = 8) -> list[dict]:
    """Degree-one factors: multiplicity equals the standard tableau count."""
    violations = []
    for rank in range(1, rank_max + 1):
        for nsites in range(1, nsites_max + 1):
            spins = (1,) * nsites
            for lam in partitions_of(nsites, max_rows=rank + 1):
                mu = diffformula.multiplicity(lam, spins, rank)
                dim = oracle.hook_length_dimension(lam, nsites)
                if mu != dim:
                    violations.append(
                        {"rank": rank, "L": nsites, "lambda": lam,
                         "mu": str(mu), "dim": str(dim)}
                    )
    return violations


def super_conjecture_violations(
    shapes=((1, 1), (2, 1), (1, 2), (2, 2)),
    two_s_values=(1, 2),
    nsites_max: int = 6,
) -> list[dict]:
    """Conjectured hook shift route against the greedy character decomposition."""
    violations = []
    for shape in shapes:
        for two_s in two_s_values:
            for nsites in range(1, nsites_max + 1):
                expected = oracle.hook_schur_expansion(two_s, nsites, shape)
                for lam in hook_partitions_of(two_s * nsites, shape):
                    mu = diffformula.super_multiplicity(lam, two_s, nsites, shape)
                    want = expected.get(lam, 0)
                    if mu != want or mu < 0:
                        violations.append(
                            {"shape": shape, "twoS": two_s, "L": nsites,
                             "lambda": lam, "mu": str(mu), "oracle": str(want)}
                        )
    return violations


def kostka_violations(rank_max: int = 2, two_s_max: int = 2, nsites_max: int = 4) -> list[dict]:
    """Monomial coefficients recovered from multiplicities through tableau counts."""
    violations = []
    for rank in range(1, rank_max + 1):
        for two_s in range(1, two_s_max + 1):
            for nsites in range(1, nsites_max + 1):
                spins = (two_s,) * nsites
                total = two_s * nsites
                mus = oracle.schur_expansion(spins, rank)
                for lam in partitions_of(total, max_rows=rank + 1):
                    direct = occupancy.occupancy_coefficient(
                        m_from_lambda(lam, rank, total), spins
                    )
                    via_kostka = sum(
                        oracle.kostka(nu, lam) * mu for nu, mu in mus.items()
                    )
                    if direct != via_kostka:
                        violations.append(
                            {"rank": rank, "twoS": two_s, "L": nsites,
                             "lambda": lam, "direct": str(direct),
                             "viaKostka": str(via_kostka)}
                        )
    return violations


def run_suite(name: str, **overrides) -> list[dict]:
    try:
        runner = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return runner(**overrides)


SUITES = {
    "backends": store_oracle_violations,
    "symmetry": symmetry_violations,
    "rank-one": rank_one_violations,
    "tensor": tensor_sweep_violations,
    "pieri": pieri_pair_violations,
    "hooklength": hook_length_violations,
    "super": super_conjecture_violations,
    "kostka": kostka_violations,
}


# Decomposition of the sixth power of the degree-one module for the smallest
# hook shapes: weight vector -> (diagram, multiplicity).
HOOK_21_TABLE = {
    (0, 0): ((6,), 1),
    (1, 0): ((5, 1), 5),
    (2, 0): ((4, 2), 9),
    (2, 1): ((4, 1, 1), 10),
    (3, 0): ((3, 3), 5),
    (3, 1): ((3, 2, 1), 16),
    (3, 2): ((3, 1, 1, 1), 10),
    (4, 2): ((2, 2, 1, 1), 9),
    (4, 3): ((2, 1, 1, 1, 1), 5),
    (5, 4): ((1, 1, 1, 1, 1, 1), 1),
}

HOOK_12_TABLE = {
    (0, 0): ((6,), 1),
    (1, 0): ((5, 1), 5),
    (2, 0): ((4, 1, 1), 10),
    (2, 1): ((4, 2), 9),
    (3, 0): ((3, 1, 1, 1), 10),
    (3, 1): ((3, 2, 1), 16),
    (4, 0): ((2, 1, 1, 1, 1), 5),
    (4, 1): ((2, 2, 1, 1), 9),
    (4, 2): ((2, 2, 2), 5),
    (6, 6): ((1, 1, 1, 1, 1, 1), 1),
}

# Restrictions of the same sixth power to the three proper subalgebras of the
# (2, 1) hook algebra: weight vector -> (sub-diagram, multiplicity).
EVEN_PAIR_TABLE = {
    (0, 0): ((6,), 1),
    (1, 0): ((5, 1), 5),
    (1, 1): ((5,), 6),
    (2, 0): ((4, 2), 9),
    (2, 1): ((4, 1), 24),
    (2, 2): ((4,), 15),
    (3, 0): ((3, 3), 5),
    (3, 1): ((3, 2), 30),
    (3, 2): ((3, 1), 45),
    (3, 3): ((3,), 20),
    (4, 2): ((2, 2), 30),
    (4, 3): ((2, 1), 40),
    (4, 4): ((2,), 15),
    (5, 4): ((1, 1), 15),
    (5, 5): ((1,), 6),
    (6, 6): ((), 1),
}

ODD_TAIL_TABLE = {
    (0, 0): ((), 1),
    (1, 0): ((1,), 6),
    (2, 0): ((2,), 15),
    (2, 1): ((1, 1), 15),
    (3, 0): ((3,), 20),
    (3, 1): ((2, 1), 40),
    (3, 2): ((1, 1, 1), 20),
    (4, 0): ((4,), 15),
    (4, 1): ((3, 1), 45),
    (4, 2): ((2, 1, 1), 45),
    (4, 3): ((1, 1, 1, 1), 15),
    (5, 0): ((5,), 6),
    (5, 1): ((4, 1), 24),
    (5, 2): ((3, 1, 1), 36),
    (5, 3): ((2, 1, 1, 1), 24),
    (5, 4): ((1, 1, 1, 1, 1), 6),
    (6, 0): ((6,), 1),
    (6, 1): ((5, 1), 5),
    (6, 2): ((4, 1, 1), 10),
    (6, 3): ((3, 1, 1, 1), 10),
    (6, 4): ((2, 1, 1, 1, 1), 5),
    (6, 5): ((1, 1, 1, 1, 1, 1), 1),
}

ODD_SPAN_TABLE = {
    (0, 0): ((6,), 1),
    (1, 0): ((5,), 6),
    (1, 1): ((5, 1), 5),
    (2, 0): ((4,), 15),
    (2, 1): ((4, 1), 24),
    (2, 2): ((4, 1, 1), 10),
    (3, 0): ((3,), 20),
    (3, 1): ((3, 1), 45),
    (3, 2): ((3, 1, 1), 36),
    (3, 3): ((3, 1, 1, 1), 10),
    (4, 0): ((2,), 15),
    (4, 1): ((2, 1), 40),
    (4, 2): ((2, 1, 1), 45),
    (4, 3): ((2, 1, 1, 1), 24),
    (4, 4): ((2, 1, 1, 1, 1), 5),
    (5, 0): ((1,), 6),
    (5, 1): ((1, 1), 15),
    (5, 2): ((1, 1, 1), 20),
    (5, 3): ((1, 1, 1, 1), 15),
    (5, 4): ((1, 1, 1, 1, 1), 6),
    (5, 5): ((1, 1, 1, 1, 1, 1), 1),
    (6, 0): ((), 1),
}

# The three proper subalgebras of the (2, 1) hook algebra, by positive root.
SUB_EVEN = SuperRootSubset((2, 1), ((1, 2),))
SUB_ODD_TAIL = SuperRootSubset((2, 1), ((2, 3),))
SUB_ODD_SPAN = SuperRootSubset((2, 1), ((1, 3),))
