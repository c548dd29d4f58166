"""Independent ground-truth computations for cross-validating the shift-sum
results: alternant coefficient extraction, iterated row insertion, greedy
hook-character decomposition, semistandard tableau counts, hook-length
dimensions, and occupancy counts as matrix counts.

None of these routines share code or caches with the shift-operator path
beyond the raw polynomial arithmetic and the validation of degree lists
(`occupancy.spin_tuple`), so agreement is meaningful evidence.  In
particular the alternant builds its own product of one-row characters, and
`matrix_count` counts without the occupancy store.
"""

from functools import cache, lru_cache
from math import factorial, prod

from .errors import NonTerminating, SizeMismatch
from .occupancy import spin_tuple
from .partitions import hook_lengths, partition
from .sympoly import complete_homogeneous, hook_schur, vandermonde


def schur_expansion(spins, rank: int) -> dict[tuple[int, ...], int]:
    """Multiplicity of every irreducible in a product of one-row characters.

    Multiplies the product, built here factor by factor, by the Vandermonde
    determinant and reads the coefficients at staircase-shifted exponents.
    """
    spins = spin_tuple(spins)
    nvars = rank + 1
    poly = vandermonde(nvars)
    for two_s in spins:
        poly = poly * complete_homogeneous(two_s, nvars)
    out = {}
    for expv, coeff in poly.terms.items():
        # strictly decreasing staircase-shifted exponents <=> weakly decreasing rows
        rows = tuple(expv[i] - (nvars - 1 - i) for i in range(nvars))
        if any(rows[i] < rows[i + 1] for i in range(nvars - 1)) or rows[-1] < 0:
            continue
        out[partition(rows)] = coeff
    return out


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
    columns = tuple(chain[j] - chain[j + 1] for j in range(m + n))
    if any(c < 0 for c in columns):
        return 0
    return _count_rows(0, columns, _row_memo(spins, shape), spins, m)


@lru_cache(maxsize=1)
def _row_memo(spins, shape) -> dict:
    """Counts keyed by (rows filled, remaining column sums) for one degree list
    and shape; only the latest is kept, because callers count one at a time."""
    return {}


def _count_rows(row: int, columns, memo: dict, spins, evens: int) -> int:
    """Matrices whose rows from `row` on have the degrees spins[row:] and whose
    columns sum to `columns`; the columns after the first `evens` hold 0 or 1."""
    if row == len(spins):
        return int(not any(columns))
    key = (row, columns)
    if key not in memo:
        memo[key] = sum(
            _count_rows(row + 1, rest, memo, spins, evens)
            for rest in _row_choices(columns, spins[row], evens)
        )
    return memo[key]


def _row_choices(columns, degree: int, evens: int):
    """Remaining column sums after each row of the given degree that fits.

    The first `evens` columns take any entry; the ones after them take 0 or 1.
    """
    if degree > sum(columns):
        return
    if not columns:
        yield ()
        return
    cap = min(columns[0], degree, degree if evens > 0 else 1)
    for value in range(cap + 1):
        for rest in _row_choices(columns[1:], degree - value, evens - 1):
            yield (columns[0] - value,) + rest


def horizontal_strip_additions(lam, boxes: int, max_rows: int):
    """All diagrams obtained from lam by adding `boxes` cells, no two in a column."""
    lam = partition(lam)
    rows = min(len(lam) + 1, max_rows)

    def rec(i, remaining, prev_new):
        if i == rows:
            if remaining == 0:
                yield ()
            return
        old = lam[i] if i < len(lam) else 0
        upper = min(prev_new, old + remaining)
        lower = old
        # strip condition: new row i stays within the previous old row
        if i > 0:
            upper = min(upper, lam[i - 1])
        for value in range(upper, lower - 1, -1):
            for rest in rec(i + 1, remaining - (value - old), value):
                yield (value,) + rest

    total = sum(lam) + boxes
    for shape in rec(0, boxes, total):
        yield partition(shape)


def schur_expansion_pieri(spins, rank: int) -> dict[tuple[int, ...], int]:
    """Same expansion built by folding one-row insertions factor by factor.

    Diagrams growing past rank + 1 rows vanish in rank + 1 variables and are
    dropped at each step.
    """
    spins = spin_tuple(spins)
    acc = {(): 1}
    for two_s in spins:
        nxt: dict[tuple[int, ...], int] = {}
        for lam, count in acc.items():
            for grown in horizontal_strip_additions(lam, two_s, rank + 1):
                nxt[grown] = nxt.get(grown, 0) + count
        acc = nxt
    return acc


def _leading_key(expv, m):
    return (sum(expv[:m]), expv)


def hook_schur_expansion(
    two_s: int, nsites: int, shape: tuple[int, int]
) -> dict[tuple[int, ...], int]:
    """Greedy decomposition of a hook-character power into hook characters.

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
    from .partitions import conjugate, is_partition

    if not (is_partition(head) and is_partition(cols)):
        return None
    assembled = tuple(head) + conjugate(cols)
    if not is_partition(assembled):
        return None
    return partition(assembled)


@cache
def _strip_removals(nu: tuple[int, ...], boxes: int):
    """All diagrams obtained from nu by removing `boxes` cells, no two in a column."""
    out = []

    def rec(i, remaining, prefix):
        if i == len(nu):
            if remaining == 0:
                out.append(partition(prefix))
            return
        below = nu[i + 1] if i + 1 < len(nu) else 0
        # keeping at least the next old row makes the removal a horizontal strip
        for value in range(nu[i], max(below, nu[i] - remaining) - 1, -1):
            rec(i + 1, remaining - (nu[i] - value), prefix + (value,))

    rec(0, boxes, ())
    return tuple(out)


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
        _kostka_cached(smaller, lam[:-1]) for smaller in _strip_removals(nu, lam[-1])
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
