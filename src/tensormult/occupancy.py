"""Restricted occupancy counts: coefficients of monomials in products of
one-row characters, for ordinary and hook variables.

There is one implementation, in hook variables of shape (m, n): the ordinary
rank-r count is the shape (r + 1, 0), because at n = 0 the one-row hook
character is the complete homogeneous polynomial in m variables
(Berele-Regev 1987).

There is one count store.  It is built by a forward pass over sites: each
site adds a weakly decreasing column profile bounded by its degree (hook
variables also cap the gaps in the last n positions at one box), and the
store maps every reachable weight vector to its count.  A point query reads
the store.  Every public entry point zero-extends: weight vectors whose
implied exponents go negative, or that the store never reaches, count zero,
so signed shift sums are total functions.  The independent check of these
counts is `oracle.matrix_count`, which shares no code or cache with this
module.
"""

from collections.abc import Mapping
from functools import cache, lru_cache
from operator import add
from types import MappingProxyType


def spin_tuple(spins) -> tuple[int, ...]:
    """Validated per-site degree list (the 2s value of each tensor factor)."""
    out = tuple(int(x) for x in spins)
    if any(x < 0 for x in out):
        raise ValueError(f"negative site degree in {out}")
    return out


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


@lru_cache(maxsize=1)
def hook_table(spins, shape: tuple[int, int]) -> Mapping[tuple[int, ...], int]:
    """The count store: every weight vector with a nonzero count in hook
    variables of shape (m, n), built in one forward pass over sites.

    Only the most recent (spins, shape) is kept, because every caller reads
    one store at a time.  Every caller gets the same store, so it comes back
    read-only.
    """
    acc = {(0,) * (sum(shape) - 1): 1}
    # largest degrees first: the widest passes then meet the fewest profiles
    for two_s in sorted(spins, reverse=True):
        profiles = _site_profiles(two_s, shape)
        nxt = {}
        for partial, count in acc.items():
            for p in profiles:
                key = tuple(map(add, partial, p))
                nxt[key] = nxt.get(key, 0) + count
        acc = nxt
    return MappingProxyType(acc)


def hook_coefficient(m_vec, spins, shape: tuple[int, int]) -> int:
    """Count at a weight vector in hook variables of shape (m, n), unvalidated.

    The ordinary rank-r count is the shape (r + 1, 0).  Total function:
    out-of-range weights give 0.
    """
    return hook_table(spins, shape).get(tuple(m_vec), 0)


def hook_spins(two_s: int, nsites: int) -> tuple[int, ...]:
    """Site degrees of the nsites-th power of the degree-two_s one-row module."""
    if two_s < 0:
        raise ValueError(f"two_s must be nonnegative, got {two_s}")
    if nsites < 0:
        raise ValueError(f"nsites must be nonnegative, got {nsites}")
    return (int(two_s),) * int(nsites)


def occupancy_coefficient(m_vec, spins) -> int:
    """Number of nested box assignments with column totals m_vec.

    Equivalently the coefficient of the monomial with exponents
    (total - M_1, M_1 - M_2, ..., M_r) in the product of one-row characters
    in rank + 1 variables.  Total function: out-of-range weights give 0.
    """
    m_vec = tuple(m_vec)
    return hook_coefficient(m_vec, spin_tuple(spins), (len(m_vec) + 1, 0))


def super_occupancy_coefficient(
    m_vec, two_s: int, nsites: int, shape: tuple[int, int]
) -> int:
    """Coefficient of the weight monomial in the power of the one-row hook character."""
    m, n = shape
    m_vec = tuple(m_vec)
    if len(m_vec) != m + n - 1:
        raise ValueError(f"expected {m + n - 1} entries for shape {shape}")
    return hook_coefficient(m_vec, hook_spins(two_s, nsites), shape)


def occupancy_table(spins, rank: int) -> Mapping[tuple[int, ...], int]:
    """Every standard weight vector with a nonzero count (the read-only store)."""
    return hook_table(spin_tuple(spins), (rank + 1, 0))


def super_occupancy_table(
    two_s: int, nsites: int, shape: tuple[int, int]
) -> Mapping[tuple[int, ...], int]:
    """Every weight vector of the hook power with a nonzero count (the read-only store)."""
    return hook_table(hook_spins(two_s, nsites), shape)


def symmetry_violations(spins, rank: int) -> list[dict]:
    """Check invariance of the count under every adjacent variable swap.

    Swapping variables i and i+1 maps M_i to M_{i-1} + M_{i+1} - M_i (with the
    boundary conventions M_0 = total degree, M_{r+1} = 0); the count must not
    change.  Returns one record per violated identity, empty when all hold.
    """
    spins = spin_tuple(spins)
    total = sum(spins)
    violations = []
    for m_vec in standard_m_vectors(rank, total):
        base = occupancy_coefficient(m_vec, spins)
        chain = (total,) + m_vec + (0,)
        for i in range(1, rank + 1):
            moved = list(m_vec)
            moved[i - 1] = chain[i - 1] + chain[i + 1] - chain[i]
            image = occupancy_coefficient(tuple(moved), spins)
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
