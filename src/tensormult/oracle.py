"""Independent ground-truth computations for cross-validating the shift-sum
results: alternant coefficient extraction, the Pieri fold cut to a hook (the
oracle of every `--check`), greedy hook-character decomposition, semistandard
tableau counts, hook-length and Weyl dimensions, and occupancy counts, as a
whole table (`monomial_counts`) and at listed weight vectors as matrix counts
(`matrix_counts`).

One product of one-row characters, `monomial_counts`, backs every
whole-table oracle: the verify sweeps over whole grid cells (the `backends`
table half, `symmetry`, `rank-one`) read its counts, the alternant
(`schur_expansion`) reads each multiplicity off it through the Vandermonde's
terms, and the `super` suite checks the fold against it, recomposed through
hook Schur polynomials.  It keeps one record, its latest product, and
extends it factor by factor, as the Pieri fold (`pieri_expansion`) does its
latest fold; both return read-only mappings.  `matrix_counts` counts listed
weight vectors of one degree list without any product, row by row under the
column sums still open, in one memo that lives for one call, keyed by those
sums sorted within each block.  The greedy decomposition
(`hook_schur_expansion`) expands each hook Schur polynomial it meets in
full; only the benchmark's traced layers run it.

These routines share no cache with the shift-operator path, and no code
beyond the validation of degree lists (`occupancy.spin_tuple`) and the
diagram helpers `partitions.partition`, `conjugate` and `is_partition`.
They read no diagram off the cached enumerators that the route and verify's
"no row" lists share (`partitions_of`, `hook_partitions_of`): the alternant
takes its diagrams from the product's keys and the fold grows its own.  So
agreement is meaningful evidence.
`kostka` and `sympoly.hook_schur` share one enumerator of strip removals,
which the route does not use; the route multiplies no polynomials.
"""

from collections.abc import Mapping
from functools import cache
from itertools import accumulate
from math import factorial, prod
from operator import add, ge, sub
from types import MappingProxyType

from .errors import NonTerminating, SizeMismatch
from .occupancy import spin_tuple
from .partitions import conjugate, hook_lengths, is_partition, partition, strip_removals
from .sympoly import SparsePoly, hook_schur, vandermonde


def schur_expansion(spins, rank: int) -> dict[tuple[int, ...], int]:
    """Multiplicity of every irreducible in a product of one-row characters.

    Reads the alternant off the product in rank + 1 variables
    (`monomial_counts`): the multiplicity of lam is the sum of
    sign * count(lam + delta - e) over the terms sign * x^e of the
    Vandermonde, delta the staircase (Weyl's character formula).  Every
    monomial of the product's degree is a key, so its weakly decreasing keys
    are every diagram that can occur.
    """
    nvars = rank + 1
    counts = monomial_counts(spins, (nvars, 0))
    staircase = range(nvars - 1, -1, -1)
    shifts = [(tuple(map(sub, staircase, e)), sign) for e, sign in vandermonde(nvars).terms.items()]
    out = {}
    for lam in counts:
        if all(map(ge, lam, lam[1:])):  # the exponents are nonnegative
            mult = sum(sign * counts.get(tuple(map(add, lam, shift)), 0) for shift, sign in shifts)
            if mult:
                out[partition(lam)] = mult
    return out


# The latest product and the latest Pieri fold, each (shape, degree list, value).
_latest = {}


def _resume(kind: str, shape: tuple[int, int], spins: tuple[int, ...], start, step):
    """The value that step(value, degree) folds over spins from start, resumed
    from the record of its kind when it has the shape and spins equals or
    extends its degree list; the record then holds spins and its value."""
    latest_shape, done, value = _latest.get(kind, (None, (), None))
    if latest_shape != shape or spins[: len(done)] != done:
        done, value = (), start
    for two_s in spins[len(done):]:
        value = step(value, two_s)
    _latest[kind] = shape, spins, value
    return value


def monomial_counts(spins, shape: tuple[int, int]) -> Mapping[tuple[int, ...], int]:
    """Every monomial of the product of one-row characters, with its count.

    The product of `hook_schur((d,), shape)` over the degrees d of spins (at
    n = 0 the complete homogeneous h_d in m variables), built here factor by
    factor: the count at every weight vector of the degree list at once,
    keyed by the exponents (total - M_1, M_1 - M_2, ..., M_r), where
    `matrix_counts` counts listed weight vectors.  Exponent vectors the table
    lacks, negative ones included, count zero.  A degree list that extends
    the latest one in the same shape multiplies in only its new factors; any
    other starts again from 1.
    """
    poly = _resume("product", shape, spin_tuple(spins), SparsePoly.one(sum(shape)),
                   lambda poly, two_s: poly * hook_schur((two_s,), shape))
    return MappingProxyType(poly.terms)


def matrix_counts(m_vecs, spins, shape: tuple[int, int]) -> list[int]:
    """Occupancy counts at weight vectors of one degree list, counted as
    matrices.

    The count at a weight vector is the number of site-by-variable matrices
    of nonnegative integers whose row sums are the site degrees and whose
    column sums are the exponents (total - M_1, M_1 - M_2, ..., M_r) of the
    weight; in hook variables of shape (m, n) the last n columns hold 0 or 1.
    The ordinary rank-r count is the shape (r + 1, 0).  Weights with a
    negative exponent count zero.  The counts of one call share one memo of
    subcounts, keyed by the site reached and the column sums still open,
    sorted within the even and within the odd block (`_count_rows`): a
    subcount so keyed does not depend on the weight it was reached from.
    The memo dies with the call.
    """
    spins = spin_tuple(spins)
    m, n = shape
    counts, lists = {}, {}

    def count(m_vec):
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
        return _count_rows(0, columns, spins, m, counts, lists)

    return [count(m_vec) for m_vec in m_vecs]


def _count_rows(site, columns, spins, evens: int, counts: dict, lists: dict) -> int:
    """Matrices with the row degrees spins[site:], at least two, and the
    column sums columns, which have the same total; the columns after the
    first `evens` hold 0 or 1.

    Permuting the columns of one block permutes the matrices, so the count
    is that of the column sums sorted within the even block and within the
    odd block.  Each count is kept in `counts` by the site and the sorted
    sums, and so are the row lists in `lists`; both live for one
    `matrix_counts` call."""
    if evens == len(columns):
        columns = tuple(sorted(columns, reverse=True))
    else:
        columns = (*sorted(columns[:evens], reverse=True), *sorted(columns[evens:], reverse=True))
    count = counts.get((site, columns))
    if count is None:
        rows = _rows(spins[site], columns, evens, lists)
        if site == len(spins) - 2:
            # the last row takes exactly the column sums that remain
            odd = columns[evens:]
            count = sum(max(map(sub, odd, row[evens:])) <= 1 for row in rows) if odd else len(rows)
        else:
            count = 0
            for row in rows:
                rest = tuple(map(sub, columns, row))
                count += _count_rows(site + 1, rest, spins, evens, counts, lists)
        counts[site, columns] = count
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


def _add_strips(fold: dict, boxes: int, shape: tuple[int, int]) -> dict:
    """One Pieri step: every diagram of the fold grown by a horizontal strip
    of `boxes` cells inside the hook, with the counts summed, as a new dict."""
    grown_fold: dict[tuple[int, ...], int] = {}
    for lam, count in fold.items():
        for grown in horizontal_strip_additions(lam, boxes, shape):
            grown_fold[grown] = grown_fold.get(grown, 0) + count
    return grown_fold


def pieri_expansion(spins, shape: tuple[int, int]) -> Mapping[tuple[int, ...], int]:
    """Multiplicity of every hook character in a product of one-row ones.

    Folds one horizontal strip per factor (the Pieri rule), each step
    enumerating only the bounded row additions that stay inside the
    (m, n)-hook.  Hook Schur functions are the image of Schur functions under
    a ring map and vanish exactly outside the hook (Berele-Regev 1987;
    Macdonald I.3, I.5), and removing boxes from a hook diagram leaves a hook
    diagram, so the early cut is exact.  The ordinary rank-r case is the
    shape (r + 1, 0).  A degree list that extends the latest one in the same
    shape folds in only its new factors.  The mapping is read-only.
    """
    fold = _resume("fold", shape, spin_tuple(spins), {(): 1},
                   lambda fold, two_s: _add_strips(fold, two_s, shape))
    return MappingProxyType(fold)


def schur_expansion_pieri(spins, rank: int) -> Mapping[tuple[int, ...], int]:
    """The Pieri fold in rank + 1 variables: the same expansion as the alternant."""
    return pieri_expansion(spins, (rank + 1, 0))


def _leading_key(expv, m):
    return (sum(expv[:m]), expv)


def hook_schur_expansion(
    two_s: int, nsites: int, shape: tuple[int, int]
) -> dict[tuple[int, ...], int]:
    """Greedy decomposition of a hook-character power into hook characters.

    It expands each hook Schur polynomial it meets in full, so no command
    calls it.

    Repeatedly takes the surviving monomial that is maximal by total degree in
    the first m variables, then lexicographically; that monomial is the
    leading term of exactly one hook character, whose multiple is subtracted.
    A residual that fails to shrink in this order means the triangularity
    assumption broke, which must not happen.
    """
    m, n = shape
    residual = dict(monomial_counts((two_s,) * nsites, shape))
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
    """Dimension of the irreducible with highest weight lam in nvars
    variables; 0 when lam has more rows than variables, as no such
    irreducible exists."""
    lam = partition(lam)
    if len(lam) > nvars:
        return 0
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
