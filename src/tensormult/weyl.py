"""Root data for type-A algebras and their hook-variable analogues, subalgebra
closure, and the signed expansions of (generalized) Weyl denominators that
drive the shift operators.

Roots are stored as index pairs (i, j) with i < j over the standard labels;
the pair maps to the monomial t_i ... t_{j-1} in the simple-root variables.
Ordinary denominators expand to exact polynomials; denominators with odd
roots expand as alternating series truncated to a per-variable bound (shifts
beyond the bound annihilate the zero-extended counts, so a bound equal to the
queried weight vector loses nothing).
"""

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

from .errors import InvalidTruncation, NotClosed
from .sympoly import SparsePoly


@dataclass(frozen=True)
class SignedExpansion:
    """Finite list of (coefficient, shift vector) pairs in rank variables."""

    rank: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def __len__(self):
        return len(self.terms)

    def as_poly(self) -> SparsePoly:
        return SparsePoly(self.rank, {shift: coeff for coeff, shift in self.terms})


def _expand(factors, rank: int, bound=None) -> SignedExpansion:
    acc = {(0,) * rank: 1}
    for factor in factors:
        nxt = {}
        for e1, c1 in acc.items():
            for c2, e2 in factor:
                e = tuple(a + b for a, b in zip(e1, e2))
                if bound is not None and any(x > b for x, b in zip(e, bound)):
                    continue
                nxt[e] = nxt.get(e, 0) + c1 * c2
        acc = {e: c for e, c in nxt.items() if c}
    return SignedExpansion(rank, tuple((c, e) for e, c in sorted(acc.items())))


def root_shift(root: tuple[int, int], rank: int) -> tuple[int, ...]:
    """Exponent vector of the simple-root monomial for the root L_i - L_j."""
    i, j = root
    if not (1 <= i < j <= rank + 1):
        raise ValueError(f"invalid root pair {root} for rank {rank}")
    return tuple(1 if i <= k < j else 0 for k in range(1, rank + 1))


def positive_roots(rank: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 2))


def label_groups(nlabels: int, roots) -> tuple[tuple[int, ...], ...]:
    """Connected groups of the labels 1..nlabels under the root edges, by least label."""
    parent = list(range(nlabels + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in roots:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for label in range(1, nlabels + 1):
        groups.setdefault(find(label), []).append(label)
    return tuple(sorted(tuple(g) for g in groups.values()))


@dataclass(frozen=True)
class SuperRootSubset:
    """Subset of positive roots of the (m, n) hook algebra, split by parity on demand.

    The ordinary rank-r algebra is the shape (r + 1, 0), where every root is
    even.  Labels joined through the roots form groups: each group of two or
    more labels is a component (one A-type or hook factor), and the leftover
    single labels stay abelian.
    """

    shape: tuple[int, int]
    roots: tuple[tuple[int, int], ...]
    rank: int = field(init=False, compare=False)
    components: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    abelian: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        m, n = self.shape
        for i, j in self.roots:
            if not (1 <= i < j <= m + n):
                raise ValueError(f"invalid root pair {(i, j)} for shape {self.shape}")
        object.__setattr__(self, "roots", tuple(sorted(set(self.roots))))
        groups = label_groups(m + n, self.roots)
        object.__setattr__(self, "rank", m + n - 1)
        object.__setattr__(self, "components", tuple(g for g in groups if len(g) >= 2))
        object.__setattr__(self, "abelian", tuple(g[0] for g in groups if len(g) == 1))

    def parity_split(self):
        m, _ = self.shape
        even = tuple(r for r in self.roots if not (r[0] <= m < r[1]))
        odd = tuple(r for r in self.roots if r[0] <= m < r[1])
        return even, odd

    def is_closed(self) -> bool:
        """Every pair of labels joined through the subset must be joined directly."""
        return set(subalgebra_positive_roots(self)) <= set(self.roots)


def subalgebra_positive_roots(spec: SuperRootSubset) -> tuple[tuple[int, int], ...]:
    """Every root between the labels of each component."""
    roots = []
    for comp in spec.components:
        roots.extend(combinations(comp, 2))
    return tuple(roots)


def close_root_subset(roots, rank: int) -> SuperRootSubset:
    """Minimal enhancement of a root subset to a direct sum of A-type factors.

    Pairs are edges on the labels 1..rank+1; each connected component with at
    least two labels becomes one factor, carrying every root between its
    labels; remaining labels stay abelian.
    """
    spec = SuperRootSubset((rank + 1, 0), roots)
    return SuperRootSubset(spec.shape, subalgebra_positive_roots(spec))


def full_subalgebra(rank: int) -> SuperRootSubset:
    return SuperRootSubset((rank + 1, 0), positive_roots(rank))


def torus_subalgebra(rank: int) -> SuperRootSubset:
    return SuperRootSubset((rank + 1, 0), ())


def super_positive_roots(shape: tuple[int, int]):
    """(even, odd) positive root pairs of the (m, n) hook algebra."""
    m, n = shape
    even = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    even += [(k, l) for k in range(m + 1, m + n + 1) for l in range(k + 1, m + n + 1)]
    odd = [(i, k) for i in range(1, m + 1) for k in range(m + 1, m + n + 1)]
    return tuple(even), tuple(odd)


def _check_bound(bound, rank):
    bound = tuple(int(b) for b in bound)
    if len(bound) != rank or any(b < 0 for b in bound):
        raise InvalidTruncation(f"bound {bound} invalid for rank {rank}")
    return bound


def _alternating_factor(shift, bound):
    """Truncated expansion of 1/(1 + t^shift) within the bound box."""
    kmax = min(b // s for s, b in zip(shift, bound) if s)
    return tuple(
        ((-1) ** k, tuple(k * s for s in shift)) for k in range(kmax + 1)
    )


def _even_factor(root, rank):
    """Expansion of 1 - t^root."""
    return ((1, (0,) * rank), (-1, root_shift(root, rank)))


def _denominator(rank: int, even, odd, bound) -> SignedExpansion:
    """Expansion of prod_even(1 - t^a) / prod_odd(1 + t^a), odd series truncated to bound.

    Without odd roots the expansion is an exact polynomial that ignores the
    bound; it is cached per root set, because a table reuses one expansion
    for every label (the A7 one has 40,320 terms).
    """
    if not odd:
        return _even_denominator(rank, tuple(even))
    factors = [_even_factor(r, rank) for r in even]
    factors += [_alternating_factor(root_shift(r, rank), bound) for r in odd]
    return _expand(factors, rank, bound)


@cache
def _even_denominator(rank: int, even: tuple[tuple[int, int], ...]) -> SignedExpansion:
    return _expand([_even_factor(r, rank) for r in even], rank)


def weyl_denominator_ar(rank: int) -> SignedExpansion:
    """Exact expansion of the product of (1 - t^root) over all positive roots.

    Collects to (rank + 1)! signed unit terms, one per permutation.
    """
    return _denominator(rank, positive_roots(rank), (), None)


def weyl_denominator_subalgebra(spec: SuperRootSubset) -> SignedExpansion:
    """Product of the factor denominators, written in the ambient variables."""
    return _denominator(spec.rank, *spec.parity_split(), None)


def weyl_denominator_super(shape: tuple[int, int], bound) -> SignedExpansion:
    """Expansion of prod_even(1 - t^a) / prod_odd(1 + t^a), truncated to bound."""
    rank = shape[0] + shape[1] - 1
    return _denominator(rank, *super_positive_roots(shape), _check_bound(bound, rank))


def weyl_denominator_super_subalgebra(sub: SuperRootSubset, bound) -> SignedExpansion:
    """Denominator expansion restricted to a closed subset of positive roots."""
    if not sub.is_closed():
        raise NotClosed(
            f"root subset {sub.roots} is not bracket-closed; add the missing "
            f"roots between connected labels"
        )
    return _denominator(sub.rank, *sub.parity_split(), _check_bound(bound, sub.rank))


def parse_root(token: str, shape: tuple[int, int] | None = None) -> tuple[int, int]:
    """One root from CLI syntax: "L1-L3", simple-root sums "a1+a2", or with a
    shape also "L2-K1" and "K1-K2".  Rejects non-positive roots."""
    token = token.strip()
    offset = shape[0] if shape else 0

    def label(part):
        part = part.strip()
        if part[:1] in ("L", "l"):
            return int(part[1:])
        if part[:1] in ("K", "k"):
            if shape is None:
                raise ValueError(f"odd label {part!r} needs a hook shape")
            k = int(part[1:])
            if not 1 <= k <= shape[1]:
                raise ValueError(f"label {part!r} out of range for shape {shape}")
            return offset + k
        raise ValueError(f"cannot parse label {part!r}")

    if "-" in token:
        left, right = token.split("-", 1)
        i, j = label(left), label(right)
        if i >= j:
            raise ValueError(f"{token!r} is not a positive root")
        return (i, j)
    if token[:1] in ("a", "A"):
        indices = sorted(int(t.strip()[1:]) for t in token.split("+"))
        if indices != list(range(indices[0], indices[-1] + 1)):
            raise ValueError(f"{token!r} is not a sum of consecutive simple roots")
        return (indices[0], indices[-1] + 1)
    raise ValueError(f"cannot parse root {token!r}")


def parse_roots(text: str, shape: tuple[int, int] | None = None):
    return tuple(parse_root(tok, shape) for tok in text.split(",") if tok.strip())
