"""Root data for type-A algebras and their hook-variable analogues, closed
root subsets, and the signed expansions of (generalized) Weyl denominators
that drive the shift operators.

Roots are index pairs (i, j) with i < j over the standard labels; the pair
maps to the monomial t_i ... t_{j-1} in the simple-root variables.  A
closed root subset holds every root between the labels of each of its label
groups, so it is stored as those groups, and a subset built from roots is
checked closed by counting them (`SuperRootSubset`).  Its denominator is its
even part divided by (1 + t^root) over its odd roots (`split_denominator`).
The even part is a sum over its Weyl group, one signed term per group
element (the Weyl denominator identity), enumerated by `weyl_group_terms`;
the query routes walk that group and divide the counts, not the denominator,
by the odd factors (see `diffformula`).  The `weyl_denominator_*` functions
list denominators as signed expansions: with odd roots the alternating
series is truncated to a per-variable bound (shifts beyond the bound
annihilate the zero-extended counts, so a bound equal to the queried weight
vector loses nothing).  A listing is plain (coefficient, shift) pairs: the
module imports nothing from `sympoly`, so the route shares no code with the
polynomial oracles.
"""

from functools import cache
from itertools import accumulate, combinations
from math import comb, factorial
from operator import itemgetter

from .errors import InvalidTruncation, NotClosed


class _Frozen:
    """Immutable record, equal and hashed by the subclass's `_key()` and shown
    by the attributes it names in `_shown`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__name__}({shown})"


class SignedExpansion(_Frozen):
    """Finite list of (coefficient, shift vector) pairs in rank variables."""

    __slots__ = ("rank", "terms")
    _shown = __slots__

    def __init__(self, rank: int, terms: tuple[tuple[int, tuple[int, ...]], ...]):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", terms)

    def _key(self):
        return (self.rank, self.terms)

    def __len__(self):
        return len(self.terms)


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


def label_groups(shape: tuple[int, int], roots) -> tuple[tuple[int, ...], ...]:
    """Connected groups of the labels 1..m+n under the root edges, by least label."""
    nlabels = sum(shape)
    parent = list(range(nlabels + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in roots:
        if not (1 <= i < j <= nlabels):
            raise ValueError(f"invalid root pair {(i, j)} for shape {shape}")
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for label in range(1, nlabels + 1):
        groups.setdefault(find(label), []).append(label)
    return tuple(sorted(tuple(g) for g in groups.values()))


class SuperRootSubset(_Frozen):
    """Closed subset of positive roots of the (m, n) hook algebra, held as its
    label groups.

    The ordinary rank-r algebra is the shape (r + 1, 0), where every root is
    even.  Labels joined through the roots form groups: each group of two or
    more labels is a component (one A-type or hook factor), and the leftover
    single labels stay abelian.  Closed means every root between the labels
    of a component is in the subset, so the groups give the roots, and
    equality and hashing read the shape and the components only.  Built from
    roots, the subset is refused with NotClosed unless they are as many
    distinct roots as its groups have pairs of labels.
    """

    __slots__ = ("shape", "rank", "components", "abelian")
    _shown = __slots__

    def __init__(self, shape: tuple[int, int], roots: tuple[tuple[int, int], ...]):
        roots = tuple(roots)
        groups = label_groups(shape, roots)
        if len(set(roots)) != sum(comb(len(g), 2) for g in groups):
            raise NotClosed(f"root subset {tuple(sorted(set(roots)))} is not bracket-closed; "
                            f"add the missing roots between connected labels")
        self._hold(shape, groups)

    @classmethod
    def _of_groups(cls, shape: tuple[int, int], groups) -> "SuperRootSubset":
        """The closed subset whose label groups, sorted by least label, are groups."""
        return cls.__new__(cls)._hold(shape, groups)

    def _hold(self, shape, groups):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rank", sum(shape) - 1)
        object.__setattr__(self, "components", tuple(g for g in groups if len(g) >= 2))
        object.__setattr__(self, "abelian", tuple(g[0] for g in groups if len(g) == 1))
        return self

    def _key(self):
        return (self.shape, self.components)

    @property
    def roots(self) -> tuple[tuple[int, int], ...]:
        """Every root between the labels of each component, sorted."""
        return tuple(sorted(pair for g in self.components for pair in combinations(g, 2)))


def close_root_subset(roots, rank: int) -> SuperRootSubset:
    """Minimal enhancement of a root subset to a direct sum of A-type factors.

    Pairs are edges on the labels 1..rank+1; each connected component with at
    least two labels becomes one factor, carrying every root between its
    labels; remaining labels stay abelian.
    """
    shape = (rank + 1, 0)
    return SuperRootSubset._of_groups(shape, label_groups(shape, roots))


@cache
def hook_algebra(shape: tuple[int, int]) -> SuperRootSubset:
    """Every positive root, even and odd, of the (m, n) hook algebra."""
    return SuperRootSubset._of_groups(shape, (tuple(range(1, sum(shape) + 1)),))


def full_subalgebra(rank: int) -> SuperRootSubset:
    return hook_algebra((rank + 1, 0))


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


# Largest even Weyl-group order that is enumerated: 9!, the A8 group.
# Time and memory grow with the group order, and A9 has ten times as many.
MAX_WEYL_ORDER = factorial(9)


def weyl_order(components) -> int:
    """Order of the product of the components' symmetric groups.

    An order above MAX_WEYL_ORDER is refused, naming the component sizes
    (the order may have too many digits to print), before anything is
    enumerated or expanded.  The product stops at the first factor that
    takes it past the limit, and a component of ten labels or more counts as
    10!, past it alone, so no large factorial is multiplied out.
    """
    order = 1
    for g in components:
        order *= factorial(min(len(g), 10))
        if order > MAX_WEYL_ORDER:
            sizes = ", ".join(str(len(g)) for g in components)
            raise ValueError(
                f"the denominator's even Weyl group, on components of sizes {sizes}, "
                f"has order above the limit of 9! = {MAX_WEYL_ORDER}"
            )
    return order


@cache
def split_denominator(spec: SuperRootSubset):
    """(even components, odd roots) of a closed root subset: the one refusal
    point for a large even group.

    Its denominator is the even denominator, the signed sum over the Weyl
    group of its even roots (a product of symmetric groups, walked by
    `weyl_group_terms`), divided by (1 + t^root) over the odd roots.  Each
    component splits at m into its even and its odd labels, and the parts of
    two or more labels are the even components; the odd roots are the pairs
    inside a component that straddle m.  An even group larger than
    MAX_WEYL_ORDER is refused before the odd roots are listed or anything
    is enumerated.
    """
    m, _ = spec.shape
    halves = [(tuple(a for a in g if a <= m), tuple(a for a in g if a > m))
              for g in spec.components]
    components = tuple(sorted(part for pair in halves for part in pair if len(part) >= 2))
    weyl_order(components)
    return components, tuple(sorted((i, j) for low, high in halves for i in low for j in high))


@cache
def _label_moves(components, nlabels: int):
    """The walk's levels, one per component label from the last to the first,
    the zeros below the lowest, and the indices of the unwalked labels.  A
    level is the label's index, its position p in its component and, per
    target position q: the move q - p followed by the zeros of the unwalked
    labels above, the target's bit, and the bits of the component's labels
    below the target (each of those already taken is one inversion)."""
    walked = sorted(label for g in components for label in g)
    above = dict(zip(walked, walked[1:] + [nlabels + 1]))
    levels = []
    for g in components:
        bits = [1 << (label - 1) for label in g]
        below = [sum(bits[:q]) for q in range(len(g))]
        for p, label in enumerate(g):
            zeros = (0,) * (above[label] - label - 1)
            options = tuple(((q - p,) + zeros, bits[q], below[q]) for q in range(len(g)))
            levels.append((label - 1, p, options))
    fixed = tuple(a for a in range(nlabels) if a + 1 not in above)
    return tuple(sorted(levels, reverse=True)), (0,) * (min(walked, default=nlabels + 1) - 1), fixed


def weyl_group_terms(components, exponents) -> list[tuple[int, tuple[int, ...]]]:
    """(sign, moves) of each element of the product of the components' symmetric
    groups that keeps every exponent nonnegative.

    The labels are 1..len(exponents) and exponents[a - 1] is the monomial
    exponent at label a of the point the denominator is applied to.  The
    permutation s of a component (g_1 < ... < g_k) moves the exponent at g_p
    by s(p) - p, positions counted inside the component; labels outside every
    component do not move.  moves[a - 1] is the move at label a, so the term
    reads the point exponents + moves, and the sign is the parity of the
    inversions of the permutations.  This is the Weyl denominator identity:
    the terms are those of the product of (1 - t^root) over the roots inside
    the components (a root L_i - L_j moves one unit from label j to label i).

    The walk takes the component labels from the last to the first, one
    level per label, carrying each branch's moves so far, the labels already
    taken as targets, and its sign.  A label outside every component gets no
    level: its zero move rides on the walked label below it, and a negative
    exponent there keeps no term.  A branch is cut as soon as a label's
    exponent would go negative, so its terms are never visited; exponents of
    at least the rank cut nothing.  Last to first, the labels whose exponents
    bound their moves most tightly come first, so few branches die late.
    """
    levels, low_zeros, fixed = _label_moves(tuple(components), len(exponents))
    if any(exponents[a] < 0 for a in fixed):
        return []
    level = [(0, 1, ())]
    for a, p, options in levels:
        level = [
            (taken | bit, -sign if (taken & below).bit_count() & 1 else sign, step + moves)
            for taken, sign, moves in level
            for step, bit, below in options[max(p - exponents[a], 0):]
            if not taken & bit
        ]
    return [(sign, low_zeros + moves) for _, sign, moves in level]


def weyl_denominator_ar(rank: int) -> SignedExpansion:
    """Exact expansion of the product of (1 - t^root) over all positive roots.

    Collects to (rank + 1)! signed unit terms, one per permutation.
    """
    return weyl_denominator_subalgebra(full_subalgebra(rank))


def weyl_denominator_subalgebra(spec: SuperRootSubset) -> SignedExpansion:
    """Product of the factor denominators of a closed subset without odd roots,
    written in the ambient variables: one term per element of its Weyl group,
    sorted by shift.

    A subset with odd roots is refused.  No move goes below -rank, so
    exponents of rank cut nothing from the walk.
    """
    components, odd = split_denominator(spec)
    if odd:
        raise ValueError(f"root subset {spec.roots} has odd roots for shape {spec.shape}")
    rank = spec.rank
    walked = weyl_group_terms(components, (rank,) * (rank + 1))
    # the shift at label a is the moves summed over the labels 1..a
    terms = [(sign, tuple(accumulate(moves[:rank]))) for sign, moves in walked]
    return SignedExpansion(rank, tuple(sorted(terms, key=itemgetter(1))))


def weyl_denominator_super(shape: tuple[int, int], bound) -> SignedExpansion:
    """Expansion of prod_even(1 - t^a) / prod_odd(1 + t^a), truncated to bound."""
    return weyl_denominator_super_subalgebra(hook_algebra(shape), bound)


def weyl_denominator_super_subalgebra(sub: SuperRootSubset, bound) -> SignedExpansion:
    """Denominator expansion of a closed subset of positive roots, the series
    of its odd roots truncated to bound.

    Without odd roots it is the exact sum over the even Weyl group, which
    ignores the bound.  With odd roots the product is expanded factor by
    factor.  The query routes never expand it: they walk the even group over
    the counts divided by the odd factors (see `diffformula`).
    """
    components, odd = split_denominator(sub)  # refuses a too large even group
    rank = sub.rank
    bound = _check_bound(bound, rank)
    if not odd:
        return weyl_denominator_subalgebra(sub)
    factors = [_even_factor(r, rank) for g in components for r in combinations(g, 2)]
    factors += [_alternating_factor(root_shift(r, rank), bound) for r in odd]
    return _expand(factors, rank, bound)


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
