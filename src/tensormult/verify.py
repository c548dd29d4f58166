"""Cross-validation suites: every computation route the package offers is
checked against an independent one over parameter grids.  Each runner returns
a list of violation records; an empty list means the suite passed.  The route
sweeps read one `diffformula.table` per grid cell, as the CLI does; a diagram
they enumerate, or an oracle key, without a row is a "no row" violation.
A suite's grid caps are those of `rank_max`, `two_s_max` and `nsites_max` its
runner takes (`caps_of`).
The suites of (rank, 2s, L) cells are one check per cell (`CELL_CHECKS`),
and `run_suites` sweeps them together, so a cell's product, fold and count
store are built once; each suite's violations are those of its solo run.
"""

import random
from itertools import accumulate, product
from operator import le, sub

from . import diffformula, occupancy, oracle
from .partitions import hook_partitions_of, m_from_lambda, partitions_of
from .sympoly import SparsePoly, hook_schur
from .weyl import SuperRootSubset, full_subalgebra, hook_algebra, weyl_order


def _grid(*caps):
    """Every point with coordinates 1..cap, one per cap, the last fastest."""
    return product(*(range(1, cap + 1) for cap in caps))


def _store_cell(rank: int, two_s: int, nsites: int) -> list[dict]:
    """The uncapped pull (`occupancy_table`) against the product of one-row
    characters (`oracle.monomial_counts`), each monomial a standard weight."""
    spins = (two_s,) * nsites
    store = occupancy.occupancy_table(spins, rank)
    counted = {
        # M_a is the sum of the exponents from position a on
        tuple(accumulate(expv[:0:-1]))[::-1]: count
        for expv, count in oracle.monomial_counts(spins, (rank + 1, 0)).items()
    }
    if store == counted:
        return []
    diff = set(store.items()) ^ set(counted.items())
    return [{"rank": rank, "twoS": two_s, "L": nsites, "kind": "table", "diff": sorted(diff)[:3]}]


def store_oracle_violations(rank_max: int = 3, two_s_max: int = 4, nsites_max: int = 6,
                            samples: int = 200, seed: int = 20240811) -> list[dict]:
    """The counts must agree with independent ones: the table half
    (`_store_cell`) over the grid, then the point half, the pull capped at
    each read (`occupancy_coefficient`) against the matrix count
    (`oracle.matrix_counts`) at random points of mixed degrees, one call each."""
    violations = sweep({"backends": (rank_max, two_s_max, nsites_max)})["backends"]
    rng = random.Random(seed)
    for _ in range(samples):
        rank = rng.randint(1, 4)
        nsites = rng.randint(1, 7)
        spins = tuple(rng.randint(0, 5) for _ in range(nsites))
        total = sum(spins)
        m_vec = tuple(sorted((rng.randint(-2, total + 2) for _ in range(rank)), reverse=True))
        stored = occupancy.occupancy_coefficient(m_vec, spins)
        [counted] = oracle.matrix_counts([m_vec], spins, (rank + 1, 0))
        if stored != counted:
            violations.append({"rank": rank, "spins": spins, "M": m_vec, "kind": "point",
                               "store": str(stored), "oracle": str(counted)})
    return violations


def swap_violations(spins, rank: int) -> list[dict]:
    """Check invariance of the counts under every adjacent variable swap.

    Swapping variables i and i+1 maps M_i to M_{i-1} + M_{i+1} - M_i (with the
    boundary conventions M_0 = total degree, M_{r+1} = 0), which swaps the
    exponents i and i+1 of the weight's monomial; the count must not change.
    The count store reads by sorted exponents, so it satisfies these
    identities by construction; they are checked on the product of one-row
    characters (`oracle.monomial_counts`), which shares no code with it and
    keys its counts by exponents in their given order, so it has no
    symmetry built in.  Returns one record per violated identity, empty when
    all hold.
    """
    counts = oracle.monomial_counts(spins, (rank + 1, 0))
    total = sum(spins)
    violations = []
    for m_vec in occupancy.standard_m_vectors(rank, total):
        chain = (total,) + m_vec + (0,)
        exponents = tuple(map(sub, chain, chain[1:]))
        base = counts.get(exponents, 0)
        for i in range(1, rank + 1):
            swapped = list(exponents)
            swapped[i - 1], swapped[i] = exponents[i], exponents[i - 1]
            image = counts.get(tuple(swapped), 0)
            if image != base:
                moved = list(m_vec)
                moved[i - 1] = chain[i - 1] + chain[i + 1] - chain[i]
                violations.append({"M": list(m_vec), "swap": i, "image": moved,
                                   "count": str(base), "image_count": str(image)})
    return violations


def _swap_cell(rank: int, two_s: int, nsites: int) -> list[dict]:
    """`swap_violations` at one cell, each record naming the cell."""
    cell = {"rank": rank, "twoS": two_s, "L": nsites}
    return [{**record, **cell} for record in swap_violations((two_s,) * nsites, rank)]


def symmetry_violations(rank_max: int = 3, two_s_max: int = 3,
                        nsites_max: int = 5) -> list[dict]:
    """Adjacent-swap identity suite over the full default grid."""
    return sweep({"symmetry": (rank_max, two_s_max, nsites_max)})["symmetry"]


def _route_rows(sub: SuperRootSubset, spins, labels, cell: dict, violations: list):
    """(diagram, multiplicity) of each row of one `diffformula.table` call;
    each of `labels` without a row adds a "no row" violation."""
    rows = [(diffformula.diagram_of(label), mu) for _, label, mu in diffformula.table(sub, spins)]
    rowed = {lam for lam, _ in rows}
    violations += [{**cell, "lambda": lam, "kind": "no row"} for lam in sorted(set(labels) - rowed)]
    return rows


def rank_one_violations(two_s_max: int = 6, nsites_max: int = 12) -> list[dict]:
    """Rank-one closed form and palindrome.

    The shift route over the count store must equal the two-term difference of
    the independent counts, and the counts must be palindromic.  The counts
    are the coefficients of the product of one-row characters in two
    variables (`oracle.monomial_counts`): the count at M is that of
    x_1^(total - M) x_2^M, and the diagram (total - M, M) has M <= total / 2.
    """
    violations = []
    for two_s, nsites in _grid(two_s_max, nsites_max):
        total = two_s * nsites
        spins = (two_s,) * nsites
        monomials = oracle.monomial_counts(spins, (2, 0))
        counts = {m: monomials.get((total - m, m), 0) for m in range(-1, total + 1)}
        cell = {"twoS": two_s, "L": nsites}
        violations += [{**cell, "M": m, "kind": "palindrome"}
                       for m in range(total + 1) if counts[m] != counts[total - m]]
        labels = partitions_of(total, max_rows=2)
        for lam, mu in _route_rows(full_subalgebra(1), spins, labels, cell, violations):
            m = total - lam[0]
            expected = counts[m] - counts[m - 1]
            if mu != expected:
                violations.append({**cell, "M": m, "kind": "difference",
                                   "mu": str(mu), "expected": str(expected)})
    return violations


def _tensor_cell(rank: int, two_s: int, nsites: int) -> list[dict]:
    """The route's table against the alternant, and the alternant against the fold."""
    spins = (two_s,) * nsites
    van = oracle.schur_expansion(spins, rank)
    pieri = oracle.schur_expansion_pieri(spins, rank)
    cell = {"rank": rank, "twoS": two_s, "L": nsites}
    violations = [] if van == pieri else [{**cell, "kind": "oracles"}]
    labels = [*partitions_of(two_s * nsites, max_rows=rank + 1), *van]
    for lam, mu in _route_rows(full_subalgebra(rank), spins, labels, cell, violations):
        expected = van.get(lam, 0)
        if mu != expected or mu < 0:
            violations.append({**cell, "lambda": lam, "mu": str(mu), "oracle": str(expected)})
    return violations


def tensor_sweep_violations(rank_max: int = 3, two_s_max: int = 4,
                            nsites_max: int = 6) -> list[dict]:
    """Shift route vs alternant oracle vs insertion oracle, exhaustively."""
    return sweep({"tensor": (rank_max, two_s_max, nsites_max)})["tensor"]


def pieri_pair_violations(two_s_max: int = 6, rank_max: int = 3) -> list[dict]:
    """Two-factor products: multiplicity one exactly on the strip family.

    For degrees (2s', 2s) with 2s <= 2s', the nonzero diagrams are
    (2s'+2s-k, k) for k = 0..2s, each with multiplicity one.
    """
    violations = []
    for rank, two_sp in _grid(rank_max, two_s_max):
        for two_s in range(1, two_sp + 1):
            spins = (two_sp, two_s)
            allowed = {(two_sp + two_s - k, k) if k else (two_sp + two_s,)
                       for k in range(two_s + 1)}
            cell = {"rank": rank, "degrees": spins}
            labels = [*partitions_of(two_sp + two_s, max_rows=rank + 1), *allowed]
            for lam, mu in _route_rows(full_subalgebra(rank), spins, labels, cell, violations):
                expected = 1 if lam in allowed else 0
                if mu != expected:
                    violations.append({**cell, "lambda": lam, "mu": str(mu), "expected": expected})
    return violations


def hook_length_violations(rank_max: int = 4, nsites_max: int = 8) -> list[dict]:
    """Degree-one factors: multiplicity equals the standard tableau count."""
    violations = []
    for rank, nsites in _grid(rank_max, nsites_max):
        spins = (1,) * nsites
        cell = {"rank": rank, "L": nsites}
        labels = partitions_of(nsites, max_rows=rank + 1)
        for lam, mu in _route_rows(full_subalgebra(rank), spins, labels, cell, violations):
            dim = oracle.hook_length_dimension(lam, nsites)
            if mu != dim:
                violations.append({**cell, "lambda": lam, "mu": str(mu), "dim": str(dim)})
    return violations


def super_conjecture_violations(
    shapes=((1, 1), (2, 1), (1, 2), (2, 2)), two_s_max: int = 2, nsites_max: int = 6
) -> list[dict]:
    """Conjectured hook shift route against the Pieri fold (the `super --check`
    oracle), and the fold against its witness: every fold diagram must lie
    inside the hook, and sum fold(lam) * hs_lam must be the product of one-row
    characters, which only the true expansion gives, as the hs_lam inside the
    hook are linearly independent (Berele-Regev 1987; Macdonald I.5)."""
    violations = []
    for shape in shapes:
        for two_s, nsites in _grid(two_s_max, nsites_max):
            spins = (two_s,) * nsites
            expected = oracle.pieri_expansion(spins, shape)
            cell = {"shape": shape, "twoS": two_s, "L": nsites}
            inside = set(hook_partitions_of(two_s * nsites, shape))
            hooks = (hook_schur(lam, shape) * mult for lam, mult in expected.items())
            recomposed = sum(hooks, SparsePoly.zero(sum(shape))).terms
            # hs_lam is zero outside the hook, so the recomposition cannot see such an entry
            if recomposed != oracle.monomial_counts(spins, shape) or not expected.keys() <= inside:
                violations.append({**cell, "kind": "oracles"})
            labels = [*inside, *expected]
            for lam, mu in _route_rows(hook_algebra(shape), spins, labels, cell, violations):
                want = expected.get(lam, 0)
                if mu != want or mu < 0:
                    violations.append({**cell, "lambda": lam, "mu": str(mu), "oracle": str(want)})
    return violations


def _kostka_cell(rank: int, two_s: int, nsites: int) -> list[dict]:
    """Point counts against the alternant's multiplicities through tableau counts."""
    spins = (two_s,) * nsites
    total = two_s * nsites
    mus = oracle.schur_expansion(spins, rank)
    violations = []
    for lam in partitions_of(total, max_rows=rank + 1):
        direct = occupancy.occupancy_coefficient(m_from_lambda(lam, rank, total), spins)
        via_kostka = sum(oracle.kostka(nu, lam) * mu for nu, mu in mus.items())
        if direct != via_kostka:
            violations.append({"rank": rank, "twoS": two_s, "L": nsites, "lambda": lam,
                               "direct": str(direct), "viaKostka": str(via_kostka)})
    return violations


def kostka_violations(rank_max: int = 2, two_s_max: int = 2, nsites_max: int = 4) -> list[dict]:
    """Monomial coefficients recovered from multiplicities through tableau counts."""
    return sweep({"kostka": (rank_max, two_s_max, nsites_max)})["kostka"]


# The check at one cell of each suite whose grid is (rank, 2s, L) cells, the degree
# list (2s,) * L in rank + 1 variables; its runner takes all three _CAPS.
CELL_CHECKS = {"backends": _store_cell, "symmetry": _swap_cell, "tensor": _tensor_cell,
               "kostka": _kostka_cell}
_CAPS = ("rank_max", "two_s_max", "nsites_max")

# suites whose rank_max reaches an alternant or the route: a rank-r grid
# expands a Vandermonde or walks a Weyl group of order (r + 1)!
_WEYL_RANK_SUITES = {"tensor", "kostka", "pieri", "hooklength"}


def sweep(grids: dict[str, tuple[int, int, int]]) -> dict[str, list[dict]]:
    """The violations of each named cell check over its (rank, 2s, L) caps, in
    one `_grid` walk over the union of the grids: each list keeps its suite's
    order, and each cell's product, fold and count store are built once."""
    violations = {name: [] for name in grids}
    for cell in _grid(*map(max, zip(*grids.values()))):
        for name, caps in grids.items():
            if all(map(le, cell, caps)):
                violations[name] += CELL_CHECKS[name](*cell)
    return violations


def caps_of(name: str) -> dict[str, int]:
    """The grid caps (of _CAPS) that suite `name` takes, each with its
    default, read from its runner's signature."""
    try:
        runner = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    code, defaults = runner.__code__, runner.__defaults__
    params = code.co_varnames[code.co_argcount - len(defaults):code.co_argcount]
    return {key: value for key, value in zip(params, defaults) if key in _CAPS}


def run_suite(name: str, **overrides) -> list[dict]:
    caps_of(name)  # refuses an unknown name
    return SUITES[name](**overrides)


def run_suites(overrides: dict[str, dict]) -> dict[str, list[dict]]:
    """The violations of each named suite, equal to
    `run_suite(name, **overrides[name])`: the cell suites in one `sweep`,
    each then run over no cells for what it checks beyond them (the
    `backends` point half), then the others one by one.  A rank cap whose
    group is above the limit is refused before any suite runs."""
    caps = {name: {**caps_of(name), **kwargs} for name, kwargs in overrides.items()}
    for name in _WEYL_RANK_SUITES & caps.keys():
        weyl_order((range(caps[name]["rank_max"] + 1),))
    swept = sweep({name: tuple(map(caps[name].get, _CAPS)) for name in caps if name in CELL_CHECKS})
    for name in swept:
        swept[name] += SUITES[name](**{**overrides[name], "rank_max": 0})
    return {name: swept[name] if name in swept else run_suite(name, **kwargs)
            for name, kwargs in overrides.items()}


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
