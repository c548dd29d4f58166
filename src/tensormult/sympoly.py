"""Sparse multivariate polynomials over the integers, plus the two symmetric
polynomial constructions the character oracles read: the Vandermonde
determinant (the alternant's shifts) and hook Schur polynomials (peeled one
letter at a time by vertical, then horizontal strips).  The shift route
multiplies no polynomials and imports nothing from here.

Coefficients are Python ints throughout, so all arithmetic is exact at any
size.  Terms live in a dict keyed by exponent tuples; no operation depends on
iteration order.  A product packs each exponent vector into one int, a fixed
number of bits per variable (Kronecker substitution), so each pair of terms
costs one integer addition; the field width comes from the largest exponent
the product can reach, measured from the least one of each variable, so no
field carries into its neighbour, and each product term is unpacked to its
tuple once.
"""

from functools import cache
from itertools import permutations
from operator import mul

from .errors import ArityMismatch
from .partitions import partition, strip_removals, transpose


class SparsePoly:
    """Polynomial as a map from exponent tuples to nonzero integer coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def _check_arity(self, other):
        if self.nvars != other.nvars:
            raise ArityMismatch(f"{self.nvars} variables vs {other.nvars}")

    def __add__(self, other):
        self._check_arity(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SparsePoly(self.nvars, out)

    def __neg__(self):
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return SparsePoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check_arity(other)
        if not (self.terms and other.terms):
            return SparsePoly(self.nvars)
        # Pack x_i as 2^(i * width).  Packing is linear, so a product's key is
        # the sum of its factors' keys; its exponents of x_i lie in [least_i,
        # least_i + span_i], and width covers every span, so once the packed
        # `least` is subtracted no field carries into its neighbour.
        least, width = [], 1
        for a, b in zip(zip(*self.terms), zip(*other.terms)):
            low = min(a) + min(b)
            least.append(low)
            width = max(width, (max(a) + max(b) - low).bit_length())
        weights = [1 << (i * width) for i in range(self.nvars)]
        right = [(sum(map(mul, e, weights)), c) for e, c in other.terms.items()]
        out = {}
        for e1, c1 in self.terms.items():
            k1 = sum(map(mul, e1, weights))
            for k2, c2 in right:
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        # unpack each nonzero term once
        base = sum(map(mul, least, weights))
        mask = (1 << width) - 1
        shifts = [(i * width, low) for i, low in enumerate(least)]
        terms = {}
        for k, c in out.items():
            if c:
                k -= base
                terms[tuple([(k >> shift & mask) + low for shift, low in shifts])] = c
        return SparsePoly(self.nvars, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"SparsePoly({self.nvars}, {len(self.terms)} terms)"


def vandermonde(nvars: int) -> SparsePoly:
    """Product of (x_i - x_j) over i < j, expanded as the signed permutation sum."""
    return _alternant((), nvars)


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _alternant(lam, nvars) -> SparsePoly:
    exps = tuple(lam[i] if i < len(lam) else 0 for i in range(nvars))
    shifted = tuple(exps[i] + nvars - 1 - i for i in range(nvars))
    terms = {}
    for perm in permutations(range(nvars)):
        expv = [0] * nvars
        for pos, i in enumerate(perm):
            expv[i] = shifted[pos]
        terms[tuple(expv)] = _perm_sign(perm)
    return SparsePoly(nvars, terms)


def hook_schur(lam, shape: tuple[int, int]) -> SparsePoly:
    """Hook Schur polynomial of a diagram in x_1..x_m, y_1..y_n: the sum over
    super-tableaux in the letters x_1 < ... < x_m < y_1 < ... < y_n, the x
    letters semistandard and the y letters strict along rows, weak down
    columns (Berele-Regev 1987; Macdonald I.5).

    Peeled one letter at a time from the largest: the cells that hold y_n form
    a vertical strip, and once no y letters are left, the cells that hold x_m
    form a horizontal strip.  Diagrams outside the (m, n)-hook come out zero.
    """
    return _hook_schur(partition(lam), shape[0], shape[1])


@cache
def _hook_schur(lam, m: int, n: int) -> SparsePoly:
    if len(lam) > m and lam[m] > n:
        return SparsePoly.zero(m + n)  # no filling: lam lies outside the hook
    if not m + n:
        return SparsePoly.one(0)
    # the cells of y_n are a horizontal strip of the conjugate; every diagram
    # here is canonical already, so it is transposed without validation
    outer = transpose(lam) if n else lam
    terms = {}
    for boxes in range((outer[0] if outer else 0) + 1):
        for inner in strip_removals(outer, boxes):
            rest = _hook_schur(transpose(inner), m, n - 1) if n else _hook_schur(inner, m - 1, 0)
            for expv, coeff in rest.terms.items():
                expv += (boxes,)
                terms[expv] = terms.get(expv, 0) + coeff
    return SparsePoly(m + n, terms)
