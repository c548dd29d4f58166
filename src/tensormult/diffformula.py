"""Multiplicities as signed shift sums of occupancy counts.

A (generalized) Weyl denominator acts on the occupancy count as a shift
operator: each term (c, beta) contributes c times the count at M - beta.
Zero-extension of the counts makes every sum finite and total, so no
boundary cases need special handling.

There is one shift route, `multiplicities`, for ordinary, branching and
hook queries alike.  It takes a list of weight vectors and works on the
monomial exponents e = (T - M_1, M_1 - M_2, ..., M_r) of each vector M of
degree T.  A whole table is one call, `table`, over the labels of
`label_rows`; a single query passes its one vector.  The denominator of a
closed root subset is its even Weyl denominator divided by (1 + t^beta)
over its odd roots beta.  The even part is a sum over the Weyl group of the
even roots, a product of symmetric groups, and `weyl.weyl_group_terms`
walks that group, cutting every branch that would take an exponent below
zero.  The walk reads each exponent only through its cap (at most the
label's position in its component), so the route groups the vectors by
their caps and walks once per group.  The odd part acts on the counts once:
the walk reads the count store divided by the odd factors.  The odd root
(i, j) moves exponent from its odd label j to its even label i, so with u_a
the unit vector at label a,

    q_beta(e) = sum over k >= 0 of (-1)^k q'(e + k (u_i - u_j)),

where q' is the quotient by the odd roots before beta (the store itself for
none).  The quotient is evaluated lazily and memoised one odd root at a
time, so the stack is as deep as the number of odd roots.  Each route call
builds its own quotient; the module keeps no state between calls.
"""

import operator
from functools import cache, partial
from itertools import accumulate
from math import comb

from . import occupancy
from .errors import NonStandardWeight, SizeMismatch
from .partitions import hook_from_super_m, hook_partitions_of, hook_rows, m_from_lambda
from .weyl import (
    SignedExpansion,
    SuperRootSubset,
    full_subalgebra,
    split_denominator,
    weyl_group_terms,
)


def apply_shift(expansion: SignedExpansion, c_eval, m_vec) -> int:
    """Signed sum of shifted evaluations: sum of c * c_eval(M - shift).

    The query routes do not use it; it applies a listed expansion.
    """
    m_vec = tuple(m_vec)
    total = 0
    for coeff, shift in expansion.terms:
        total += coeff * c_eval(tuple(a - b for a, b in zip(m_vec, shift)))
    return total


def _odd_quotient(store, odd):
    """Counts of the store divided by (1 + t^root) over the odd roots, as a
    function of the exponent vector: `store.count` itself when there are none.

    The roots are divided last to first, one memo each.  The memos are keyed
    by exponent vector as given, because a division by only some of the odd
    roots is not symmetric within the blocks; only the reads of the store
    itself go through its chamber sort.  Step k of an odd root (i, j) moves
    k units of exponent from its odd label j to its even label i.  No
    odd root raises an odd label, so the steps stop once the exponent at j
    would go negative; when no root still to be divided raises i either,
    they start where its exponent is nonnegative.  Every read of the store
    is then at nonnegative exponents, provided the queried vector is
    nonnegative at the labels that no odd root raises.
    """
    if not odd:
        return store.count
    memos = [{} for _ in odd]
    raised = [any(i == root[0] for root in odd[:level]) for level, (i, _) in enumerate(odd)]

    def quotient(level, exponents):
        if level < 0:
            return store.count(exponents)
        memo = memos[level]
        value = memo.get(exponents)
        if value is None:
            i, j = odd[level]
            first = 0 if raised[level] else max(-exponents[i - 1], 0)
            moved = list(exponents)
            value = 0
            for k in range(first, exponents[j - 1] + 1):
                moved[i - 1], moved[j - 1] = exponents[i - 1] + k, exponents[j - 1] - k
                term = quotient(level - 1, tuple(moved))
                value += -term if k & 1 else term
            memo[exponents] = value
        return value

    return partial(quotient, len(odd) - 1)


def multiplicities(sub: SuperRootSubset, m_vecs, spins) -> list[int]:
    """The denominator of a closed root subset applied to the occupancy
    counts of the degree list spins at each weight vector, in the order given.

    The one route for ordinary (`full_subalgebra`), branching and hook
    (`hook_algebra`) queries alike: at a label's weight vector the value is
    its multiplicity, elsewhere a signed, reflected number.  A caller labels
    its vectors with `partitions.m_from_lambda` or `super_m_from_hook`, and a
    power of one module has the degree list `occupancy.hook_spins`; a whole
    table is `table`.

    A sum over the even Weyl group of the counts divided by the odd factors,
    visiting only the group terms that keep the exponent of every label
    nonnegative (the others read zero counts).  The walk reads an exponent
    only through its cap: min(exponent, p) at a walked label at position p
    in its component, min(exponent, 0) at an unwalked one.  Odd roots raise
    the exponent at their even labels, so those get the exponent rank, which
    cuts nothing, before the cap.  The vectors are grouped by their caps,
    and each group walks the group once; only one group's terms are held at
    a time.
    """
    spins = occupancy.spin_tuple(spins)
    m_vecs = list(map(tuple, m_vecs))
    for m_vec in m_vecs:
        if len(m_vec) != sub.rank:
            raise ValueError(f"expected {sub.rank} entries for shape {sub.shape}, got {m_vec}")
    components, odd = split_denominator(sub)
    counts = _odd_quotient(occupancy.hook_table(spins, sub.shape), odd)
    positions = [0] * (sub.rank + 1)
    for g in components:
        for p, label in enumerate(g):
            positions[label - 1] = p
    total = sum(spins)
    groups = {}
    for index, m_vec in enumerate(m_vecs):
        exponents = tuple(map(operator.sub, (total, *m_vec), (*m_vec, 0)))
        caps = list(map(min, exponents, positions))
        for i, _ in odd:
            caps[i - 1] = positions[i - 1]  # raised by an odd root: rank, capped
        groups.setdefault(tuple(caps), []).append((index, exponents))
    values = [0] * len(m_vecs)
    for caps, members in groups.items():
        terms = weyl_group_terms(components, caps)
        for index, exponents in members:
            result = 0
            for sign, moves in terms:
                result += sign * counts(tuple(map(operator.add, exponents, moves)))
            values[index] = result
    return values


def ambient_rows_to_m(rows, rank: int, two_sl: int) -> tuple[int, ...]:
    """Weight vector of an ambient row sequence (rows need not globally decrease)."""
    rows = tuple(int(x) for x in rows)
    if len(rows) > rank + 1 or any(x < 0 for x in rows):
        raise ValueError(f"bad ambient rows {rows} for rank {rank}")
    rows = rows + (0,) * (rank + 1 - len(rows))
    if sum(rows) != two_sl:
        raise SizeMismatch(f"ambient rows sum to {sum(rows)}, expected {two_sl}")
    out = []
    running = two_sl
    for x in rows[:rank]:
        running -= x
        out.append(running)
    return tuple(out)


def branching_weight_from_m(m_vec, spec: SuperRootSubset, two_sl: int):
    """Per-component diagrams and torus charges of an ambient weight vector.

    Returns (diagrams, charges) aligned with spec.components and spec.abelian,
    or None when the vector labels no highest weight for the subalgebra (see
    `_subset_labels`).
    """
    try:
        diagrams, charges = _subset_labels(m_vec, spec, two_sl)
    except NonStandardWeight:
        return None
    return tuple(lam for _, lam in diagrams), tuple(value for _, value in charges)


@cache
def _parts(sub: SuperRootSubset):
    """(labels, hook shape) of each component of a subset, then of each
    abelian label.

    A part with both even and odd labels has the shape (p, q) of its even and
    odd label counts; any other part, an abelian label among them, has the
    shape (len, 0), so its label values are the rows of an ordinary diagram.
    An abelian label is a one-label part, and its one-row diagram is its
    charge.
    """
    m, _ = sub.shape
    parts = []
    for g in sub.components:
        p = sum(1 for a in g if a <= m)
        parts.append((g, (p, len(g) - p) if 0 < p < len(g) else (len(g), 0)))
    return tuple(parts) + tuple(((a,), (1, 0)) for a in sub.abelian)


def _subset_labels(m_vec, sub: SuperRootSubset, total: int):
    """Sub-diagram and charge labels of an ambient weight vector of degree total.

    Each component of the subset is a smaller algebra on its own labels, of
    the hook shape `_parts` gives it; its diagram is assembled from the
    ambient label values (rows for even labels, conjugated columns for odd
    ones) by `hook_from_super_m`.  Returns (diagrams, charges), each a list of
    (labels, data) pairs.  `label_rows` is its inverse, and a single query is
    labelled here.

    Away from the labels the shift sum is a signed, reflected number and not
    a multiplicity, so a vector of the wrong length, with a negative label
    value, or whose values at some component assemble to no diagram is
    refused with NonStandardWeight, which names the values.
    """
    m_vec = tuple(m_vec)
    if len(m_vec) != sub.rank:
        raise NonStandardWeight(f"expected {sub.rank} entries for shape {sub.shape}, got {m_vec}")
    values = list(map(operator.sub, (total, *m_vec), (*m_vec, 0)))

    def refuse(reason):
        return NonStandardWeight(f"M={m_vec} of degree {total} gives the {reason}, "
                                 f"so it labels no highest weight")

    if any(v < 0 for v in values):
        raise refuse(f"negative label values {[v for v in values if v < 0]}")
    diagrams = []
    for g, shape in _parts(sub)[: len(sub.components)]:
        part = [values[a - 1] for a in g]
        size = sum(part)
        try:
            lam = hook_from_super_m(tuple(size - s for s in accumulate(part[:-1])), size, shape)
        except NonStandardWeight:
            raise refuse(f"values {part} at component {list(g)}") from None
        diagrams.append((g, lam))
    return diagrams, [(a, values[a - 1]) for a in sub.abelian]


def label_rows(sub: SuperRootSubset, total: int):
    """(weight vector, label) for every label of degree total, sorted by
    weight vector: the inverse of `_subset_labels`, built from diagrams.

    Each part of `_parts` takes a size and a diagram of that size inside its
    hook (an abelian label its one-row diagram), and the first part takes
    whatever total remains.  The diagrams are listed once per (shape, size).
    The parts are folded in one at a time, last first, each partial label
    linking to the one it extends, so no stack grows with their number.  A
    label places its parts' `hook_rows`, its monomial exponents, at their
    labels.
    """
    parts = _parts(sub)

    @cache
    def diagrams(shape, size):
        return [(lam, hook_rows(lam, shape)) for lam in hook_partitions_of(size, shape)]

    # (size left, (part's labels, its choice, the partial label it extends))
    placed = [(total, None)]
    for index in range(len(parts) - 1, -1, -1):
        g, shape = parts[index]
        placed = [
            (remaining - size, (g, choice, link))
            for remaining, link in placed
            for size in (range(remaining + 1) if index else (remaining,))
            for choice in diagrams(shape, size)
        ]
    rows = []
    for _, link in placed:
        exponents = [0] * (sub.rank + 1)
        labelled = []
        while link:
            g, (lam, values), link = link
            labelled.append((g, lam))
            for a, value in zip(g, values):
                exponents[a - 1] = value
        m_vec = tuple(total - s for s in accumulate(exponents[: sub.rank]))
        label = (labelled[: len(sub.components)], [(a, exponents[a - 1]) for a in sub.abelian])
        rows.append((m_vec, label))
    rows.sort(key=operator.itemgetter(0))
    return rows


def table(sub: SuperRootSubset, spins):
    """(weight vector, label, multiplicity) for every label of `label_rows`
    at the degree of spins, in weight order, from one route call."""
    spins = occupancy.spin_tuple(spins)
    rows = label_rows(sub, sum(spins))
    values = multiplicities(sub, [m_vec for m_vec, _ in rows], spins)
    return [(m_vec, label, value) for (m_vec, label), value in zip(rows, values)]


def diagram_of(label):
    """The diagram of a full or hook algebra's label: its one component's."""
    return label[0][0][1]


def super_branching_weight_from_m(m_vec, sub: SuperRootSubset, two_s: int, nsites: int):
    """Sub-diagram and charge labels of an ambient hook weight vector (see
    _subset_labels), or None when it labels no highest weight."""
    try:
        return _subset_labels(m_vec, sub, two_s * nsites)
    except NonStandardWeight:
        return None


def even_branching_multiplicity(
    lam, charge: int, two_s: int, nsites: int, m: int
) -> int:
    """Restriction multiplicity to the even block of the (m, 1) hook algebra.

    The odd charge fixes how many tensor factors drop to degree two_s - 1; the
    remaining product of mixed one-row modules is decomposed ordinarily and
    weighted by the number of ways to choose those factors.  This route is
    proved, so it independently checks the hook conjecture at n = 1.
    """
    if not 0 <= charge <= nsites:
        raise ValueError(f"charge {charge} outside 0..{nsites}")
    if two_s < 1:
        raise ValueError("one-row degree must be at least 1")
    spins = (two_s,) * (nsites - charge) + (two_s - 1,) * charge
    m_vec = m_from_lambda(lam, m - 1, sum(spins))
    return comb(nsites, charge) * multiplicities(full_subalgebra(m - 1), [m_vec], spins)[0]
