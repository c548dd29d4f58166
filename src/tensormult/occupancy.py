"""Restricted occupancy counts: coefficients of monomials in products of
one-row characters, for ordinary and hook variables.

There is one implementation, in hook variables of shape (m, n): the ordinary
rank-r count is the shape (r + 1, 0), because at n = 0 the one-row hook
character is the complete homogeneous polynomial in m variables
(Berele-Regev 1987).

There is one count store, and it keeps one count per chamber.  The weight
vector M of degree T has the monomial exponents (T - M_1, M_1 - M_2, ...,
M_r); the product of one-row hook characters is symmetric in the m even and,
separately, in the n odd variables, so the count depends only on the
exponents sorted within each block.  The store is keyed by these
block-sorted exponent vectors, built by a pull over sites in which a chamber
reads only the site monomials under it, and read by exponent vector
(`ChamberStore.count`).  The module keeps one record, the latest uncapped
pull, which a degree list that equals or extends it in the same shape
resumes (`hook_table`).  Weight vectors stay at the public entry points.
One function lists a whole store, `exponent_table`, spreading each chamber
over its orbit and keying each count by exponent vector; verify compares it
with the product of one-row characters as it is, and the two table
functions key it by weight vector.  A point read (`hook_coefficient`) runs
the same pull capped at the chamber it reads, keeping at every level only the
chambers at or below that one, and returns the one count; the capped counts
never leave this module.  Every read zero-extends: exponents that are
negative, or that the store never reaches, count zero, so signed shift sums
are total functions.  The independent checks of these counts are
`oracle.monomial_counts` (a whole store) and `oracle.matrix_counts` (listed
weight vectors of one degree list), which share no code or cache with this
module.
"""

from collections.abc import Mapping
from functools import cache
from itertools import accumulate, combinations, combinations_with_replacement
from operator import le, sub
from types import MappingProxyType

from .partitions import partitions_of


def spin_tuple(spins) -> tuple[int, ...]:
    """Validated per-site degree list (the 2s value of each tensor factor)."""
    out = tuple(map(int, spins))
    if out and min(out) < 0:
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


def _chamber(exponents: list, m: int) -> tuple[int, ...]:
    """The exponents sorted within the even block (the first m) and the odd block.

    Sorts the list in place.  A vector with a negative exponent, or of the
    wrong length, gets a chamber that no store holds, so it reads zero.
    """
    if m <= 1 and len(exponents) <= 2:
        # both blocks have at most one entry: already sorted
        return tuple(exponents)
    if len(exponents) == m:
        exponents.sort(reverse=True)
        return tuple(exponents)
    evens, odds = exponents[:m], exponents[m:]
    if m > 1:
        evens.sort(reverse=True)
    if len(odds) > 1:
        odds.sort(reverse=True)
    return tuple(evens + odds)


def _orbit(block):
    """Every distinct rearrangement of a tuple, as a list: the distinct values,
    smallest first, each take their positions among the arrangements so far,
    one loop per value and no recursion."""
    orbit = [()]
    for value in sorted(set(block)):
        count = block.count(value)
        merged = []
        for rest in orbit:
            for chosen in combinations(range(len(rest) + count), count):
                out, taken = (), 0
                for k, at in enumerate(chosen):
                    # at - k entries of rest come before the k-th new position
                    out += rest[taken : at - k] + (value,)
                    taken = at - k
                merged.append(out + rest[taken:])
        orbit = merged
    return orbit


class ChamberStore:
    """Read-only counts of one degree list and shape, read by exponent vector.

    `chambers` maps each block-sorted exponent vector with a nonzero count to
    that count.  `count` looks up the chamber of an exponent vector; one with
    a negative entry has a chamber that no store holds, so it counts zero.
    """

    __slots__ = ("_counts", "_m")

    def __init__(self, counts: dict, shape: tuple[int, int]):
        self._counts = counts
        self._m = shape[0]

    @property
    def chambers(self) -> Mapping[tuple[int, ...], int]:
        return MappingProxyType(self._counts)

    def count(self, exponents) -> int:
        return self._counts.get(_chamber(list(exponents), self._m), 0)


@cache
def _site_monomials(two_s: int, shape: tuple[int, int]) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of the one-row hook character of degree two_s: an even
    composition of two_s - k and an odd 0/1 vector of weight k."""
    m, n = shape
    return tuple(
        tuple(map(boxes.count, range(m))) + tuple(int(j in odd) for j in range(n))
        for k in range(min(two_s, n) + 1)
        for boxes in combinations_with_replacement(range(m), two_s - k)
        for odd in combinations(range(n), k)
    )


@cache
def _monomials_under(two_s: int, shape: tuple[int, int], clipped) -> tuple[tuple[int, ...], ...]:
    """The site monomials of degree two_s at or below a chamber clipped at two_s."""
    return tuple(p for p in _site_monomials(two_s, shape) if all(map(le, p, clipped)))


def _pull(spins, shape: tuple[int, int], cap=None, done=(), counts=None) -> dict:
    """Counts of the degree list by chamber, pulled site by site.

    Given the uncapped `counts` of the sites `done`, the pull resumes after
    them; by default there are none.

    Each site of degree d pulls the counts of the sites before it:
    c(nu) = sum over the site's monomials p <= nu of c_before(chamber(nu - p)),
    for every chamber nu the sites so far reach.  No entry of p exceeds d, so
    p <= nu exactly when p lies under nu clipped at d, and the chamber reads
    the monomials under its clipped chamber (`_monomials_under`), never one
    that would read at a negative exponent.  With a `cap` (a chamber), every
    level keeps only the chambers at or below it, each block compared sorted
    descending: the pull only subtracts nonnegative monomials, so the count
    at the cap reads nothing else, and the result is exact at the cap and
    zero above it.
    """
    m, n = shape

    @cache
    def even_blocks(size, two_s, odds):
        """The even blocks of a size, each with the site monomials under its
        chamber: the block clipped at two_s beside the odd block clipped at 1."""
        blocks = (lam + (0,) * (m - len(lam)) for lam in partitions_of(size, max_rows=m))
        return [
            (evens, _monomials_under(two_s, shape, tuple([min(x, two_s) for x in evens]) + odds))
            for evens in blocks if cap is None or all(map(le, evens, cap))
        ]

    if counts is None:
        counts = {(0,) * (m + n): 1}
    total, nsites = sum(done), len(done) - done.count(0)
    for two_s in spins:
        if not two_s:
            continue
        total += two_s
        nsites += 1
        before, counts = counts, {}
        # A site adds at most one to each odd exponent, so the odd parts are
        # at most nsites; for sites of one degree every such chamber is reached.
        odd_blocks = combinations_with_replacement(range(nsites, -1, -1), n)
        if cap is not None:
            odd_blocks = [odds for odds in odd_blocks if all(map(le, odds, cap[m:]))]
        for odds in odd_blocks:
            clipped = tuple([min(x, 1) for x in odds])  # an odd entry of p is at most 1
            for evens, under in even_blocks(total - sum(odds), two_s, clipped):
                key = evens + odds
                count = 0
                for p in under:
                    count += before.get(_chamber(list(map(sub, key, p)), m), 0)
                if count:
                    counts[key] = count
    return counts


# The latest uncapped pull: (shape, degree list, counts by chamber).
_latest_pull = (None, (), None)


def hook_table(spins, shape: tuple[int, int]) -> ChamberStore:
    """The count store of the degree list in hook variables of shape (m, n):
    the uncapped pull, every chamber the sites reach.  A degree list that
    equals or extends the record's in its shape resumes it after its sites
    (L + 1 equal sites are one level on top of L, a repeated list none);
    any other starts from no sites."""
    global _latest_pull
    latest_shape, done, counts = _latest_pull
    if latest_shape != shape or spins[: len(done)] != done:
        done, counts = (), None
    counts = _pull(spins[len(done):], shape, done=done, counts=counts)
    _latest_pull = (shape, spins, counts)
    return ChamberStore(counts, shape)


def hook_coefficient(m_vec, spins, shape: tuple[int, int]) -> int:
    """Count at a weight vector in hook variables of shape (m, n), unvalidated.

    The ordinary rank-r count is the shape (r + 1, 0).  Total function:
    out-of-range weights give 0.  A point read runs the pull capped at the
    weight's chamber, so it builds no whole store and leaves the latest
    uncapped pull as it is.
    """
    exponents = list(map(sub, (sum(spins), *m_vec), (*m_vec, 0)))
    if len(exponents) != sum(shape) or min(exponents) < 0:
        return 0
    cap = _chamber(exponents, shape[0])
    return _pull(spins, shape, cap).get(cap, 0)


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


def exponent_table(spins, shape: tuple[int, int]) -> dict[tuple[int, ...], int]:
    """Every exponent vector with a nonzero count, with that count: each
    chamber of the store spread over its orbit, every arrangement of its even
    block beside every arrangement of its odd block.  No query lists a store."""
    m = shape[0]
    table = {}
    for key, count in hook_table(spins, shape).chambers.items():
        odd_orbit = _orbit(key[m:])
        table.update(dict.fromkeys([evens + odds for evens in _orbit(key[:m])
                                    for odds in odd_orbit], count))
    return table


def _weight_table(spins, shape: tuple[int, int]) -> dict[tuple[int, ...], int]:
    """`exponent_table` keyed by weight vector."""
    return {
        # M_a is the sum of the exponents from position a on
        tuple(accumulate(exponents[:0:-1]))[::-1]: count
        for exponents, count in exponent_table(spins, shape).items()
    }


def occupancy_table(spins, rank: int) -> dict[tuple[int, ...], int]:
    """Every standard weight vector with a nonzero count, with that count."""
    return _weight_table(spin_tuple(spins), (rank + 1, 0))


def super_occupancy_table(
    two_s: int, nsites: int, shape: tuple[int, int]
) -> dict[tuple[int, ...], int]:
    """Every weight vector of the hook power with a nonzero count, with that count."""
    return _weight_table(hook_spins(two_s, nsites), shape)
