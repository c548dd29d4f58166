"""Young diagrams, hook diagrams, and the dictionaries between diagrams and
occupancy weight vectors.  The ordinary dictionaries (`m_from_lambda`,
`lambda_from_m`) are the hook ones at shape (rank + 1, 0).

Partitions are plain tuples of nonnegative integers in canonical form
(weakly decreasing, no trailing zeros).  The two diagram enumerators,
`partitions_of` and `hook_partitions_of`, return tuples, cached per argument
set for the life of the process: the pull's even blocks, the route's
labels (`diffformula.label_rows`) and verify's "no row" lists share them.
The oracles read none of them; they take their diagrams from a product's
keys or grow them strip by strip.  Weight vectors ("M vectors") are
tuples (M_1, ..., M_r); the boundary entries M_0 = total degree and
M_{r+1} = 0 are implicit and supplied by context.
"""

from functools import cache
from itertools import accumulate
from operator import lt

from .errors import NonStandardWeight, SizeMismatch, TooManyRows


def partition(parts) -> tuple[int, ...]:
    """Canonical partition from any iterable: validated and stripped of trailing zeros."""
    p = tuple(map(int, parts))
    if p and min(p) < 0:
        raise ValueError(f"negative part in {p}")
    if any(map(lt, p, p[1:])):
        raise ValueError(f"parts must be weakly decreasing, got {p}")
    # the parts weakly decrease, so any zeros trail
    return p[: len(p) - p.count(0)]


def is_partition(parts) -> bool:
    """True when the sequence is weakly decreasing and nonnegative."""
    p = tuple(parts)
    return all(x >= 0 for x in p) and all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def conjugate(lam) -> tuple[int, ...]:
    """Transpose of the diagram (column lengths); an involution."""
    return transpose(partition(lam))


def transpose(lam: tuple[int, ...]) -> tuple[int, ...]:
    """`conjugate` of a diagram already in canonical form, unvalidated.

    Row i (from 1) ends lam_i - lam_{i+1} columns of length i; listed from the
    top row, these are the columns from the right."""
    cols = []
    for length, (row, below) in enumerate(zip(lam, lam[1:] + (0,)), 1):
        cols += [length] * (row - below)
    return tuple(cols[::-1])


def hook_lengths(lam) -> tuple[tuple[int, ...], ...]:
    """Per-cell hook lengths h(i,j) = arm + leg + 1, row by row."""
    lam = partition(lam)
    conj = conjugate(lam)
    return tuple(
        tuple(lam[i] - (j + 1) + conj[j] - (i + 1) + 1 for j in range(lam[i]))
        for i in range(len(lam))
    )


@cache
def strip_removals(nu: tuple[int, ...], boxes: int) -> tuple[tuple[int, ...], ...]:
    """All diagrams obtained from nu by removing `boxes` cells, no two in a
    column (a horizontal strip); a vertical strip is one of the conjugate."""
    out = []

    def rec(i, remaining, prefix):
        if i == len(nu):
            if remaining == 0:
                # the rows kept weakly decrease, so only trailing ones can be 0
                out.append(prefix[: len(prefix) - prefix.count(0)])
            return
        below = nu[i + 1] if i + 1 < len(nu) else 0
        # keeping at least the next old row makes the removal a horizontal strip
        for value in range(nu[i], max(below, nu[i] - remaining) - 1, -1):
            rec(i + 1, remaining - (nu[i] - value), prefix + (value,))

    rec(0, boxes, ())
    return tuple(out)


def lambda_from_m(m_vec, two_sl: int) -> tuple[int, ...]:
    """Diagram with rows M_{i-1} - M_i, for the algebra of rank len(m_vec): the
    (rank + 1, 0) case of `hook_from_super_m`, so it fails with
    NonStandardWeight when the rows do not weakly decrease."""
    return hook_from_super_m(m_vec, two_sl, (len(m_vec) + 1, 0))


def m_from_lambda(lam, rank: int, two_sl: int) -> tuple[int, ...]:
    """Weight vector M_j = two_sl - (lam_1 + ... + lam_j), the inverse of
    lambda_from_m: the (rank + 1, 0) case of `super_m_from_hook`, so it fails
    with TooManyRows for a diagram of more than rank + 1 rows."""
    return super_m_from_hook(lam, two_sl, (rank + 1, 0))


def fits_hook(lam, shape: tuple[int, int]) -> bool:
    """True when the diagram lies in the (m, n)-hook: row m+1 has at most n cells."""
    m, n = shape
    lam = partition(lam)
    return len(lam) <= m or lam[m] <= n


def super_m_from_hook(lam, two_sl: int, shape: tuple[int, int]) -> tuple[int, ...]:
    """Weight vector of a hook diagram: first m rows, then conjugated columns below row m."""
    m, n = shape
    lam = partition(lam)
    if not fits_hook(lam, shape):
        fit = f"does not fit the {shape}-hook" if n else f"has more than {m} rows"
        raise TooManyRows(f"{lam} {fit}")
    if sum(lam) != two_sl:
        raise SizeMismatch(f"|{lam}| = {sum(lam)} != {two_sl}")
    return tuple(two_sl - s for s in accumulate(hook_rows(lam, shape)[: m + n - 1]))


def hook_rows(lam, shape: tuple[int, int]) -> tuple[int, ...]:
    """The m + n monomial exponents of a hook diagram in canonical form: its
    first m rows, then the columns of the rows below row m, each padded with
    zeros."""
    m, n = shape
    head = lam[:m] + (0,) * (m - len(lam[:m]))
    tail_cols = transpose(lam[m:])
    return head + tail_cols + (0,) * (n - len(tail_cols))


def hook_from_super_m(m_vec, two_sl: int, shape: tuple[int, int]) -> tuple[int, ...]:
    """Hook diagram of a weight vector: its label values M_{i-1} - M_i are the
    first m rows, then the columns of the rows below row m.  Fails when they
    assemble to no diagram."""
    m, n = shape
    m_vec = tuple(m_vec)
    if len(m_vec) != m + n - 1:
        raise NonStandardWeight(f"expected {m + n - 1} entries for shape {shape}")
    chain = (two_sl,) + m_vec + (0,)
    values = tuple(chain[i] - chain[i + 1] for i in range(m + n))
    head, cols = values[:m], values[m:]
    if is_partition(head) and is_partition(cols) and is_partition(head + conjugate(cols)):
        return partition(head + conjugate(cols))
    raise NonStandardWeight(f"M={m_vec} gives the values {values}, which assemble to no diagram")


@cache
def partitions_of(
    total: int, max_rows: int | None = None, max_part: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """All partitions of `total`, largest part first, optionally bounded."""
    cap = total if max_part is None else min(max_part, total)
    found = []

    def rec(prefix, remaining, largest, depth):
        if remaining == 0:
            found.append(prefix)
            return
        if depth == 0:
            return
        # the first part is at least the average of what the rows must hold
        for first in range(min(largest, remaining), -(-remaining // depth) - 1, -1):
            rec(prefix + (first,), remaining - first, first, depth - 1)

    rec((), total, cap, total if max_rows is None else max_rows)
    return tuple(found)


@cache
def hook_partitions_of(total: int, shape: tuple[int, int]) -> tuple[tuple[int, ...], ...]:
    """All partitions of `total` inside the (m, n)-hook, largest part first.

    The first m rows are any partition with at most m rows; the rows below
    them have at most n cells each, and no more than row m.  At n = 0 these
    are the partitions with at most m rows.
    """
    m, n = shape
    if not n:
        return partitions_of(total, max_rows=m)
    found = []
    for size in range(total + 1):
        for head in partitions_of(size, max_rows=m):
            if size == total:
                found.append(head)
            elif len(head) == m:
                # the rows below row m, as the columns they conjugate to
                cap = min(n, head[-1]) if m else n
                found.extend(
                    head + transpose(cols) for cols in partitions_of(total - size, max_rows=cap)
                )
    return tuple(sorted(found, reverse=True))


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse a comma-separated row list such as "3,2,1"; "0" and "" mean the empty diagram."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    return partition(int(tok) for tok in text.split(","))


def format_partition(lam) -> str:
    lam = partition(lam)
    return ",".join(str(p) for p in lam) if lam else "0"
