"""Independent ground-truth computations for cross-validating the shift-sum
results: alternant coefficient extraction, the Pieri fold cut to a hook (the
oracle of every `--check`), greedy hook-character decomposition (the fold's
witness), semistandard tableau counts, hook-length dimensions, and occupancy
counts, as a whole table (`monomial_counts`) and one weight vector at a
time as matrix counts (`matrix_count`).

None of these routines share code or caches with the shift-operator path
beyond the raw polynomial arithmetic and the validation of degree lists
(`occupancy.spin_tuple`), so agreement is meaningful evidence.  In
particular the alternant and `monomial_counts` build their own products of
one-row characters, and `matrix_count` counts without the occupancy store,
enumerating each row only under the column sums still open and reading each
subcount from its memo inline, so only a miss recurses.  The verify sweeps
over whole grid cells (the `backends` table half, `symmetry`, `rank-one`)
read `monomial_counts`; the `backends` random points read `matrix_count`.
The memos these routines keep across calls are their own; `kostka` and
`sympoly.hook_schur` share one enumerator of strip removals, which the route
does not use.  The alternant, `monomial_counts` and the greedy witness
multiply through `SparsePoly`, whose product packs exponent vectors into
ints; the route multiplies no polynomials.
"""

from collections import defaultdict
from collections.abc import Mapping
from functools import cache, lru_cache
from itertools import accumulate
from math import factorial, prod
from operator import sub
from types import MappingProxyType

from .errors import NonTerminating, SizeMismatch
from .occupancy import spin_tuple
from .partitions import conjugate, hook_lengths, is_partition, partition, strip_removals
from .sympoly import SparsePoly, complete_homogeneous, hook_schur, vandermonde


def schur_expansion(spins, rank: int) -> dict[tuple[int, ...], int]:
    """Multiplicity of every irreducible in a product of one-row characters.

    Multiplies the product, built here factor by factor, by the Vandermonde
    determinant and reads the coefficients at staircase-shifted exponents.
    """
    nvars = rank + 1
    poly = _alternant_product(spin_tuple(spins), nvars)
    out = {}
    for expv, coeff in poly.terms.items():
        # strictly decreasing staircase-shifted exponents <=> weakly decreasing rows
        rows = tuple(expv[i] - (nvars - 1 - i) for i in range(nvars))
        if any(rows[i] < rows[i + 1] for i in range(nvars - 1)) or rows[-1] < 0:
            continue
        out[partition(rows)] = coeff
    return out


@lru_cache(maxsize=1)
def _latest_alternant(nvars: int) -> list:
    """[degree list, product] of the latest alternant product in nvars
    variables; only the latest number of variables is kept."""
    return [(), vandermonde(nvars)]


def _alternant_product(spins, nvars: int):
    """The Vandermonde in nvars variables times h_d over the degrees d of spins.

    A degree list that extends the latest one in the same variables
    multiplies in only its new factors; any other starts from the Vandermonde.
    """
    latest = _latest_alternant(nvars)
    done, poly = latest
    if spins[: len(done)] != done:
        done, poly = (), vandermonde(nvars)
    for two_s in spins[len(done):]:
        poly = poly * complete_homogeneous(two_s, nvars)
    latest[:] = spins, poly
    return poly


@lru_cache(maxsize=1)
def _latest_product(shape: tuple[int, int]) -> list:
    """[degree list, product] of the latest product of one-row characters in
    hook variables of a shape; only the latest shape's is kept."""
    return [(), SparsePoly.one(sum(shape))]


def monomial_counts(spins, shape: tuple[int, int]) -> Mapping[tuple[int, ...], int]:
    """Every monomial of the product of one-row characters, with its count.

    The product of `hook_schur((d,), shape)` over the degrees d of spins (at
    n = 0 the complete homogeneous h_d in m variables), built here factor by
    factor: the count at every weight vector of the degree list at once,
    keyed by the exponents (total - M_1, M_1 - M_2, ..., M_r), where
    `matrix_count` counts one weight vector.  Exponent vectors the table
    lacks, negative ones included, count zero.  A degree list that extends
    the latest one in the same shape multiplies in only its new factors; any
    other starts again from 1.
    """
    spins = spin_tuple(spins)
    latest = _latest_product(shape)
    done, poly = latest
    if spins[: len(done)] != done:
        done, poly = (), SparsePoly.one(sum(shape))
    for two_s in spins[len(done):]:
        poly = poly * hook_schur((two_s,), shape)
    latest[:] = spins, poly
    return MappingProxyType(poly.terms)


def matrix_count(m_vec, spins, shape: tuple[int, int]) -> int:
    """Occupancy count at a weight vector, counted as matrices.

    The count is the number of site-by-variable matrices of nonnegative
    integers whose row sums are the site degrees and whose column sums are
    the exponents (total - M_1, M_1 - M_2, ..., M_r) of the weight; in hook
    variables of shape (m, n) the last n columns hold 0 or 1.  The ordinary
    rank-r count is the shape (r + 1, 0).  Weights with a negative exponent
    count zero.
    """
    spins = spin_tuple(spins)
    m, n = shape
    m_vec = tuple(m_vec)
    if len(m_vec) != m + n - 1:
        raise ValueError(f"expected {m + n - 1} entries for shape {shape}")
    chain = (sum(spins),) + m_vec + (0,)
    columns = tuple(map(sub, chain, chain[1:]))
    if min(columns) < 0:
        return 0
    if len(spins) < 2:
        # the last row takes exactly the column sums that remain
        return int(max(columns[m:], default=0) <= 1)
    counts, lists = _row_memo(shape)
    count = counts[spins].get(columns)
    return _count_rows(spins, columns, counts, lists, m) if count is None else count


@lru_cache(maxsize=1)
def _row_memo(shape) -> tuple[dict, dict]:
    """(counts, row lists) for one shape, kept across calls and dropped
    together; only the latest shape's are kept, as callers sweep one shape at
    a time.  The counts are keyed by the remaining degrees, then by the
    remaining column sums in their given order: degree lists that share a
    suffix share their subcounts."""
    return defaultdict(dict), {}


def _count_rows(spins, columns, counts: dict, lists: dict, evens: int) -> int:
    """Matrices with the row degrees spins (at least two) and the column sums
    columns, which add up to sum(spins); the columns after the first `evens`
    hold 0 or 1.  Called only when `counts` lacks the count, which it stores:
    each subcount below is read from the memo inline, and only a miss
    recurses."""
    below = spins[1:]
    rows = _rows(spins[0], columns, evens, lists)
    if len(below) == 1:
        # the last row takes exactly the column sums that remain
        if evens == len(columns):
            count = len(rows)  # no odd column: every row leaves a valid last row
        else:
            odd = columns[evens:]
            count = sum(max(map(sub, odd, row[evens:])) <= 1 for row in rows)
    else:
        memo = counts[below]
        count = 0
        for row in rows:
            rest = tuple(map(sub, columns, row))
            found = memo.get(rest)
            count += _count_rows(below, rest, counts, lists, evens) if found is None else found
    counts[spins][columns] = count
    return count


def _rows(degree: int, columns, evens: int, lists: dict) -> list[tuple[int, ...]]:
    """Every row summing to degree that leaves no column sum negative, its
    entries after the first `evens` 0 or 1, kept in `lists` by its caps.

    Entry j is at most min(columns[j], degree), or 1, largest first; a branch
    stops when the entries after j cannot hold the cells left."""
    caps = tuple(min(c, degree if j < evens else 1) for j, c in enumerate(columns))
    rows = lists.get((degree, caps))
    if rows is None:
        rows = lists[degree, caps] = []
        room = list(accumulate(caps[:0:-1]))[::-1] + [0]  # what the entries after j hold
        row, last = list(caps), len(caps) - 1

        def fill(j, left):
            if j == last:
                row[j] = left
                rows.append(tuple(row))
                return
            for value in range(min(caps[j], left), max(0, left - room[j]) - 1, -1):
                row[j] = value
                fill(j + 1, left - value)

        if degree <= caps[0] + room[0]:
            fill(0, degree)
    return rows


def horizontal_strip_additions(
    lam, boxes: int, shape: tuple[int, int]
) -> list[tuple[int, ...]]:
    """All diagrams in the (m, n)-hook obtained from lam by adding `boxes`
    cells, no two in a column, largest first row first.

    Enumerates the row additions a_i directly within their caps: a_0 <= boxes,
    a_i <= lam_{i-1} - lam_i (the strip condition), and a row after the m-th
    holds at most n cells, so at n = 0 this is the row cap of m variables.  A
    branch stops when the rows below cannot hold the cells that are left.  A
    lam outside the hook gets no diagram.
    """
    old = list(partition(lam))
    m, n = shape
    # a strip adds at most one row, and at n = 0 none past the m-th
    if n or len(old) < m:
        old.append(0)
    caps = [boxes] + list(map(sub, old, old[1:]))
    for i in range(m, len(old)):
        caps[i] = min(caps[i], n - old[i])
    # room[i]: the most cells rows i, i + 1, ... can take
    room = list(accumulate(caps[::-1]))[::-1] + [0]
    if min(caps) < 0:
        return []  # lam lies outside the hook
    out = []
    grown = old[:]
    last = len(old) - 1

    def fill(i, left):
        if i == last:
            grown[i] = old[i] + left
            out.append(tuple(grown) if grown[i] else tuple(grown[:i]))
            return
        for added in range(min(caps[i], left), max(0, left - room[i + 1]) - 1, -1):
            grown[i] = old[i] + added
            fill(i + 1, left - added)

    fill(0, boxes)
    return out


def pieri_expansion(spins, shape: tuple[int, int]) -> dict[tuple[int, ...], int]:
    """Multiplicity of every hook character in a product of one-row ones.

    Folds one horizontal strip per factor (the Pieri rule), each step
    enumerating only the bounded row additions that stay inside the
    (m, n)-hook.  Hook Schur functions are the image of Schur functions under
    a ring map and vanish exactly outside the hook (Berele-Regev 1987;
    Macdonald I.3, I.5), and removing boxes from a hook diagram leaves a hook
    diagram, so the early cut is exact.  The ordinary rank-r case is the
    shape (r + 1, 0).
    """
    spins = spin_tuple(spins)
    acc = {(): 1}
    for two_s in spins:
        nxt: dict[tuple[int, ...], int] = {}
        for lam, count in acc.items():
            for grown in horizontal_strip_additions(lam, two_s, shape):
                nxt[grown] = nxt.get(grown, 0) + count
        acc = nxt
    return acc


def schur_expansion_pieri(spins, rank: int) -> dict[tuple[int, ...], int]:
    """The Pieri fold in rank + 1 variables: the same expansion as the alternant."""
    return pieri_expansion(spins, (rank + 1, 0))


def _leading_key(expv, m):
    return (sum(expv[:m]), expv)


def hook_schur_expansion(
    two_s: int, nsites: int, shape: tuple[int, int]
) -> dict[tuple[int, ...], int]:
    """Greedy decomposition of a hook-character power into hook characters.

    The witness for the hook cut of `pieri_expansion`; it expands each hook
    Schur polynomial it meets in full, so no command calls it.

    Repeatedly takes the surviving monomial that is maximal by total degree in
    the first m variables, then lexicographically; that monomial is the
    leading term of exactly one hook character, whose multiple is subtracted.
    A residual that fails to shrink in this order means the triangularity
    assumption broke, which must not happen.
    """
    m, n = shape
    power = hook_schur((two_s,) if two_s else (), shape) ** nsites
    residual = dict(power.terms)
    out: dict[tuple[int, ...], int] = {}
    last_key = None
    while residual:
        lead = max(residual, key=lambda e: _leading_key(e, m))
        key = _leading_key(lead, m)
        if last_key is not None and key >= last_key:
            raise NonTerminating(f"leading term {lead} did not decrease")
        last_key = key
        head, cols = lead[:m], lead[m:]
        lam = _assemble_hook(head, cols)
        coeff = residual[lead]
        if lam is None or coeff <= 0:
            raise NonTerminating(f"monomial {lead} (coefficient {coeff}) "
                                 f"is not a valid leading term")
        out[lam] = coeff
        for expv, c in (hook_schur(lam, shape) * coeff).terms.items():
            val = residual.get(expv, 0) - c
            if val:
                residual[expv] = val
            else:
                residual.pop(expv, None)
    return out


def _assemble_hook(head, cols):
    if not (is_partition(head) and is_partition(cols)):
        return None
    assembled = tuple(head) + conjugate(cols)
    if not is_partition(assembled):
        return None
    return partition(assembled)


def kostka(nu, lam) -> int:
    """Number of semistandard tableaux of shape nu and content lam.

    Counted as chains of horizontal strips: the cells holding the largest
    letter form a strip whose removal leaves a smaller instance.
    """
    nu, lam = partition(nu), partition(lam)
    if sum(nu) != sum(lam):
        raise SizeMismatch(f"|{nu}| != |{lam}|")
    return _kostka_cached(nu, lam)


@cache
def _kostka_cached(nu, lam):
    if not lam:
        return 1
    return sum(
        _kostka_cached(smaller, lam[:-1]) for smaller in strip_removals(nu, lam[-1])
    )


def hook_length_dimension(lam, total: int) -> int:
    """Number of standard tableaux: total! over the product of hook lengths."""
    lam = partition(lam)
    if sum(lam) != total:
        raise SizeMismatch(f"|{lam}| = {sum(lam)} != {total}")
    hooks = prod(h for row in hook_lengths(lam) for h in row)
    return factorial(total) // hooks


def weyl_dimension(lam, nvars: int) -> int:
    """Dimension of the irreducible with highest weight lam in nvars variables."""
    lam = partition(lam)
    rows = lam + (0,) * (nvars - len(lam))
    num = prod(
        rows[i] - rows[j] + j - i
        for i in range(nvars)
        for j in range(i + 1, nvars)
    )
    den = prod(j - i for i in range(nvars) for j in range(i + 1, nvars))
    if num % den:
        raise ArithmeticError("dimension product is not integral")
    return num // den
