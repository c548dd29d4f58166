"""References that only the tests read: symmetric polynomials built by their
definitions, and published decompositions frozen as tables.

The polynomials are the classical constructions the oracles in `src` do
without: complete homogeneous, Schur (bialternant divided exactly by the
Vandermonde, and the monomial sum over semistandard tableaux) and skew Schur.
The tests check the package's `hook_schur`, `vandermonde` and `SparsePoly`
arithmetic against them, and its cached diagram enumerators against the
brute-force lists of `partitions_brute` and `hook_partitions_brute`.  The
frozen tables are the decompositions of the smallest hook algebras at six
tensor factors, regression anchors for the conjectural hook routes.
"""

from functools import cache

from tensormult.errors import ArityMismatch, TensormultError, TooManyRows
from tensormult.partitions import partition
from tensormult.sympoly import SparsePoly, _alternant, vandermonde
from tensormult.weyl import SuperRootSubset


class NotContained(TensormultError):
    """Skew shape requested for a pair where the inner diagram is not inside the outer one."""


def _grlex(expv):
    return (sum(expv), expv)


def divide_exact(num: SparsePoly, den: SparsePoly) -> SparsePoly:
    """Exact quotient by iterated leading-term elimination under graded-lex order.

    Raises ArithmeticError when the division leaves a remainder; `schur`
    divides alternants by the Vandermonde determinant, which is always exact.
    """
    if num.nvars != den.nvars:
        raise ArityMismatch(f"{num.nvars} variables vs {den.nvars}")
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    dlead = max(den.terms, key=_grlex)
    dcoef = den.terms[dlead]
    rem = dict(num.terms)
    quot = {}
    while rem:
        lead = max(rem, key=_grlex)
        qexp = tuple(a - b for a, b in zip(lead, dlead))
        if any(e < 0 for e in qexp) or rem[lead] % dcoef:
            raise ArithmeticError("polynomial division is not exact")
        qcoef = rem[lead] // dcoef
        quot[qexp] = quot.get(qexp, 0) + qcoef
        for de, dc in den.terms.items():
            e = tuple(a + b for a, b in zip(qexp, de))
            val = rem.get(e, 0) - qcoef * dc
            if val:
                rem[e] = val
            else:
                rem.pop(e, None)
    return SparsePoly(num.nvars, quot)


def complete_homogeneous(degree: int, nvars: int) -> SparsePoly:
    """Sum of every monomial of the given total degree: the one-row character."""
    if degree < 0:
        raise ValueError("negative degree")
    terms = {}

    def rec(prefix, remaining, slots):
        if slots == 1:
            terms[prefix + (remaining,)] = 1
            return
        for first in range(remaining + 1):
            rec(prefix + (first,), remaining - first, slots - 1)

    if nvars == 0:
        return SparsePoly.one(0) if degree == 0 else SparsePoly.zero(0)
    rec((), degree, nvars)
    return SparsePoly(nvars, terms)


def schur(lam, nvars: int) -> SparsePoly:
    """Schur polynomial via the bialternant ratio, divided exactly."""
    lam = partition(lam)
    if len(lam) > nvars:
        raise TooManyRows(f"{lam} needs more than {nvars} variables")
    if not lam:
        return SparsePoly.one(nvars)
    return divide_exact(_alternant(lam, nvars), vandermonde(nvars))


def _ssyt_contents(outer, inner, nvars):
    """Yield the content vector of every semistandard filling of outer/inner.

    Rows weakly increase, columns strictly increase, entries in 1..nvars.
    """
    outer = tuple(outer)
    inner = tuple(inner[i] if i < len(inner) else 0 for i in range(len(outer)))
    cells = [
        (i, j) for i in range(len(outer)) for j in range(inner[i], outer[i])
    ]
    if not cells:
        yield (0,) * nvars
        return
    grid = {}
    content = [0] * nvars

    def rec(pos):
        if pos == len(cells):
            yield tuple(content)
            return
        i, j = cells[pos]
        low = 1
        if j > inner[i]:
            low = grid[(i, j - 1)]
        if i > 0 and inner[i - 1] <= j < outer[i - 1]:
            low = max(low, grid[(i - 1, j)] + 1)
        for val in range(low, nvars + 1):
            grid[(i, j)] = val
            content[val - 1] += 1
            yield from rec(pos + 1)
            content[val - 1] -= 1
        grid.pop((i, j), None)

    yield from rec(0)


def schur_tableaux(lam, nvars: int) -> SparsePoly:
    """Schur polynomial as the monomial sum over semistandard tableaux."""
    lam = partition(lam)
    if len(lam) > nvars:
        raise TooManyRows(f"{lam} needs more than {nvars} variables")
    terms = {}
    for content in _ssyt_contents(lam, (), nvars):
        terms[content] = terms.get(content, 0) + 1
    return SparsePoly(nvars, terms)


def contains(outer, inner) -> bool:
    outer, inner = partition(outer), partition(inner)
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def skew_schur(lam, tau, nvars: int) -> SparsePoly:
    """Skew Schur polynomial: monomial sum over semistandard fillings of lam/tau."""
    lam, tau = partition(lam), partition(tau)
    if not contains(lam, tau):
        raise NotContained(f"{tau} is not contained in {lam}")
    terms = {}
    for content in _ssyt_contents(lam, tau, nvars):
        terms[content] = terms.get(content, 0) + 1
    return SparsePoly(nvars, terms)


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


@cache
def _compositions(total: int) -> tuple[tuple[int, ...], ...]:
    """Every composition of total into positive parts."""
    if total == 0:
        return ((),)
    return tuple((first,) + rest for first in range(1, total + 1)
                 for rest in _compositions(total - first))


def partitions_brute(total: int, max_rows=None, max_part=None) -> list[tuple[int, ...]]:
    """Every partition of total with at most max_rows parts, none above
    max_part, largest part first: the weakly decreasing compositions, filtered."""
    return sorted(
        (lam for lam in _compositions(total)
         if all(a >= b for a, b in zip(lam, lam[1:]))
         and (max_rows is None or len(lam) <= max_rows)
         and (max_part is None or not lam or lam[0] <= max_part)),
        reverse=True,
    )


def hook_partitions_brute(total: int, shape: tuple[int, int]) -> list[tuple[int, ...]]:
    """Every partition of total inside the (m, n)-hook, largest part first:
    those whose row m + 1 holds at most n cells."""
    m, n = shape
    return [lam for lam in partitions_brute(total) if len(lam) <= m or lam[m] <= n]
