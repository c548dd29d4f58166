"""Restricted occupancy counts: coefficients of monomials in products of
one-row characters, for ordinary and hook variables.

There is one implementation, in hook variables of shape (m, n): the ordinary
rank-r count is the shape (r + 1, 0), because at n = 0 the one-row hook
character is the complete homogeneous polynomial in m variables
(Berele-Regev 1987).

Two interchangeable backends are provided.  The lattice backend recurses over
sites, assigning each site a weakly decreasing column profile bounded by its
degree (hook variables additionally cap the trailing gaps at one box), with
memoization on (remaining sites, residual weight).  The polynomial backend
powers the character and reads the coefficient off directly.  Every public
entry point zero-extends: weight vectors whose implied exponents go negative
count zero, so signed shift sums are total functions.
"""

from collections import Counter
from functools import cache

from .sympoly import SparsePoly, hook_schur

BACKENDS = ("dp", "poly")


def spin_tuple(spins) -> tuple[int, ...]:
    """Validated per-site degree list (the 2s value of each tensor factor)."""
    out = tuple(int(x) for x in spins)
    if any(x < 0 for x in out):
        raise ValueError(f"negative site degree in {out}")
    return out


def exponent_vector(m_vec, total: int) -> tuple[int, ...] | None:
    """Monomial exponents (total - M_1, M_1 - M_2, ..., M_r); None when any is negative."""
    chain = (total,) + tuple(m_vec) + (0,)
    exps = tuple(chain[i] - chain[i + 1] for i in range(len(chain) - 1))
    return None if any(e < 0 for e in exps) else exps


def standard_m_vectors(rank: int, two_sl: int):
    """All weight vectors with two_sl >= M_1 >= ... >= M_r >= 0, lexicographic."""

    def rec(prefix, cap, slots):
        if slots == 0:
            yield prefix
            return
        for value in range(cap + 1):
            yield from rec(prefix + (value,), value, slots - 1)

    yield from rec((), two_sl, rank)


@cache
def _site_profiles(two_s: int, shape: tuple[int, int]) -> tuple[tuple[int, ...], ...]:
    """Weakly decreasing column profiles of one site, entries bounded by its degree.

    Hook variables of shape (m, n) also cap the gaps in the last n positions
    at one box, so the ordinary shape (rank + 1, 0) has no cap.
    """
    m, n = shape

    def rec(prefix, cap, slots):
        if slots == 0:
            yield prefix
            return
        for value in range(cap, -1, -1):
            yield from rec(prefix + (value,), value, slots - 1)

    def capped(p):
        chain = p + (0,)
        return all(chain[j] - chain[j + 1] <= 1 for j in range(m - 1, m + n - 1))

    return tuple(p for p in rec((), two_s, m + n - 1) if capped(p))


@cache
def _power_poly(spins: tuple[int, ...], shape: tuple[int, int]) -> SparsePoly:
    """Product of the one-row hook characters of the sites, one power per distinct degree."""
    result = SparsePoly.one(sum(shape))
    for two_s, count in sorted(Counter(spins).items()):
        result = result * hook_schur((two_s,), shape) ** count
    return result


@cache
def _lattice_count(
    spins: tuple[int, ...], shape: tuple[int, int], residual: tuple[int, ...]
) -> int:
    if any(x < 0 for x in residual):
        return 0
    if not spins:
        return 1 if not any(residual) else 0
    if residual and max(residual) > sum(spins):
        return 0
    return sum(
        _lattice_count(spins[1:], shape, tuple(a - b for a, b in zip(residual, p)))
        for p in _site_profiles(spins[0], shape)
    )


def hook_coefficient(m_vec, spins, shape: tuple[int, int], backend: str = "poly") -> int:
    """Count at a weight vector in hook variables of shape (m, n), unvalidated.

    The ordinary rank-r count is the shape (r + 1, 0).  Total function:
    out-of-range weights give 0.
    """
    exps = exponent_vector(m_vec, sum(spins))
    if exps is None:
        return 0
    if backend == "poly":
        return _power_poly(spins, shape).coefficient(exps)
    if backend == "dp":
        return _lattice_count(spins, shape, tuple(m_vec))
    raise ValueError(f"unknown backend {backend!r}")


def hook_table(
    spins, shape: tuple[int, int], backend: str = "poly"
) -> dict[tuple[int, ...], int]:
    """Every weight vector with a nonzero count in hook variables of shape (m, n).

    The lattice backend builds the whole table in one forward pass over sites;
    the polynomial backend reads the table off the expanded product.
    """
    rank = sum(shape) - 1
    if backend == "poly":
        poly = _power_poly(spins, shape)
        return {
            tuple(sum(e[j:]) for j in range(1, rank + 1)): c
            for e, c in poly.terms.items()
        }
    if backend == "dp":
        acc = {(0,) * rank: 1}
        for two_s in spins:
            nxt = {}
            for partial, count in acc.items():
                for p in _site_profiles(two_s, shape):
                    key = tuple(a + b for a, b in zip(partial, p))
                    nxt[key] = nxt.get(key, 0) + count
            acc = nxt
        return acc
    raise ValueError(f"unknown backend {backend!r}")


def hook_spins(two_s: int, nsites: int) -> tuple[int, ...]:
    """Site degrees of the nsites-th power of the degree-two_s one-row module."""
    if two_s < 0:
        raise ValueError(f"two_s must be nonnegative, got {two_s}")
    if nsites < 0:
        raise ValueError(f"nsites must be nonnegative, got {nsites}")
    return (int(two_s),) * int(nsites)


def occupancy_coefficient(m_vec, spins, backend: str = "poly") -> int:
    """Number of nested box assignments with column totals m_vec.

    Equivalently the coefficient of the monomial with exponents
    (total - M_1, M_1 - M_2, ..., M_r) in the product of one-row characters
    in rank + 1 variables.  Total function: out-of-range weights give 0.
    """
    m_vec = tuple(m_vec)
    return hook_coefficient(m_vec, spin_tuple(spins), (len(m_vec) + 1, 0), backend)


def super_occupancy_coefficient(
    m_vec, two_s: int, nsites: int, shape: tuple[int, int], backend: str = "poly"
) -> int:
    """Coefficient of the weight monomial in the power of the one-row hook character."""
    m, n = shape
    m_vec = tuple(m_vec)
    if len(m_vec) != m + n - 1:
        raise ValueError(f"expected {m + n - 1} entries for shape {shape}")
    return hook_coefficient(m_vec, hook_spins(two_s, nsites), shape, backend)


def occupancy_table(spins, rank: int, backend: str = "poly") -> dict[tuple[int, ...], int]:
    """Every standard weight vector with a nonzero count."""
    return hook_table(spin_tuple(spins), (rank + 1, 0), backend)


def super_occupancy_table(
    two_s: int, nsites: int, shape: tuple[int, int], backend: str = "poly"
) -> dict[tuple[int, ...], int]:
    """Every weight vector of the hook power with a nonzero count."""
    return hook_table(hook_spins(two_s, nsites), shape, backend)


def symmetry_violations(spins, rank: int, backend: str = "poly") -> list[dict]:
    """Check invariance of the count under every adjacent variable swap.

    Swapping variables i and i+1 maps M_i to M_{i-1} + M_{i+1} - M_i (with the
    boundary conventions M_0 = total degree, M_{r+1} = 0); the count must not
    change.  Returns one record per violated identity, empty when all hold.
    """
    spins = spin_tuple(spins)
    total = sum(spins)
    violations = []
    for m_vec in standard_m_vectors(rank, total):
        base = occupancy_coefficient(m_vec, spins, backend)
        chain = (total,) + m_vec + (0,)
        for i in range(1, rank + 1):
            moved = list(m_vec)
            moved[i - 1] = chain[i - 1] + chain[i + 1] - chain[i]
            image = occupancy_coefficient(tuple(moved), spins, backend)
            if image != base:
                violations.append(
                    {
                        "M": list(m_vec),
                        "swap": i,
                        "image": list(moved),
                        "count": str(base),
                        "image_count": str(image),
                    }
                )
    return violations
