"""Multiplicities as signed shift sums of occupancy counts.

A signed expansion of a (generalized) Weyl denominator acts on the occupancy
count as a shift operator: each term (c, beta) contributes c times the count
at M - beta.  Zero-extension of the counts makes every sum finite and total,
so no boundary cases need special handling.

Even denominators (the ordinary and branching routes) are never expanded:
their terms are the elements of the Weyl group, a product of symmetric
groups, and `weyl.weyl_group_terms` walks that group per query, cutting every
branch that would take a monomial exponent of M - beta below zero.  Those
terms read zero counts, so the sum is the same, but only the terms that can
reach the count store are visited.  The hook routes (odd roots) keep the
truncated series expansion and `apply_shift`: there the odd series cancels
against the even factors inside the expansion, which a walk per term would
lose.
"""

import operator
from math import comb

from . import occupancy
from .errors import NonStandardWeight, SizeMismatch
from .partitions import (
    hook_from_super_m,
    is_partition,
    m_from_lambda,
    partition,
    super_m_from_hook,
)
from .weyl import (
    SignedExpansion,
    SuperRootSubset,
    full_subalgebra,
    weyl_denominator_super,
    weyl_denominator_super_subalgebra,
    weyl_group,
    weyl_group_terms,
)


def apply_shift(expansion: SignedExpansion, c_eval, m_vec) -> int:
    """Signed sum of shifted evaluations: sum of c * c_eval(M - shift)."""
    m_vec = tuple(m_vec)
    total = 0
    for coeff, shift in expansion.terms:
        total += coeff * c_eval(tuple(a - b for a, b in zip(m_vec, shift)))
    return total


def _shift_sum(expansion: SignedExpansion, m_vec, spins, shape) -> int:
    """The denominator applied to the occupancy counts in hook variables of `shape`."""
    store = occupancy.hook_table(spins, shape)
    return apply_shift(expansion, lambda mv: store.get(mv, 0), m_vec)


def _group_sum(spec: SuperRootSubset, m_vec, spins) -> int:
    """The even denominator of spec applied to the occupancy counts, as a sum
    over its Weyl group that visits only the terms that keep every exponent
    nonnegative (the others read zero counts)."""
    m_vec = tuple(m_vec)
    if len(m_vec) != spec.rank:
        raise ValueError(f"expected {spec.rank} entries for shape {spec.shape}, got {m_vec}")
    components = weyl_group(spec)
    store = occupancy.hook_table(spins, spec.shape)
    chain = (sum(spins),) + m_vec + (0,)
    exponents = [chain[a] - chain[a + 1] for a in range(spec.rank + 1)]
    total = 0
    for sign, shift in weyl_group_terms(components, exponents):
        total += sign * store.get(tuple(map(operator.sub, m_vec, shift)), 0)
    return total


def multiplicity_from_m(m_vec, spins) -> int:
    """Multiplicity at a weight vector, for the full algebra of rank len(m_vec)."""
    return _group_sum(full_subalgebra(len(m_vec)), m_vec, occupancy.spin_tuple(spins))


def multiplicity(lam, spins, rank: int) -> int:
    """Multiplicity of the irreducible labeled by lam in the product of one-row
    modules with degrees `spins`, for the rank-`rank` algebra."""
    spins = occupancy.spin_tuple(spins)
    m_vec = m_from_lambda(lam, rank, sum(spins))
    return multiplicity_from_m(m_vec, spins)


def branching_multiplicity_from_m(m_vec, spec: SuperRootSubset, spins) -> int:
    """Restriction multiplicity at an ambient weight vector, for a closed
    subset without odd roots.

    The empty spec returns the bare occupancy count; the full spec reduces to
    the ordinary multiplicity.
    """
    return _group_sum(spec, m_vec, occupancy.spin_tuple(spins))


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
    or None when some component's extracted rows do not weakly decrease (the
    vector then labels no highest weight for the subalgebra).
    """
    label = _subset_labels(m_vec, spec, two_sl)
    if label is None:
        return None
    diagrams, charges = label
    return tuple(lam for _, lam in diagrams), tuple(value for _, value in charges)


def branching_multiplicity(diagrams, charges, spec: SuperRootSubset, spins) -> int:
    """Restriction multiplicity for explicit per-component diagrams and charges.

    Ambient rows are reassembled in label order before converting to the
    weight vector.
    """
    spins = occupancy.spin_tuple(spins)
    two_sl = sum(spins)
    rows = [0] * (spec.rank + 1)
    if len(diagrams) != len(spec.components) or len(charges) != len(spec.abelian):
        raise ValueError("diagrams/charges do not match the subalgebra spec")
    for comp, lam in zip(spec.components, diagrams):
        lam = partition(lam)
        if len(lam) > len(comp):
            raise SizeMismatch(f"{lam} has more rows than component {comp}")
        for label, row in zip(comp, lam + (0,) * (len(comp) - len(lam))):
            rows[label - 1] = row
    for label, charge in zip(spec.abelian, charges):
        rows[label - 1] = int(charge)
    m_vec = ambient_rows_to_m(rows, spec.rank, two_sl)
    return branching_multiplicity_from_m(m_vec, spec, spins)


def _nonneg(m_vec):
    return tuple(max(x, 0) for x in m_vec)


def super_multiplicity_from_m(
    m_vec, two_s: int, nsites: int, shape: tuple[int, int]
) -> int:
    """Conjectured hook multiplicity at a weight vector.

    The series truncation bound is the queried vector itself: larger shifts
    would evaluate the zero-extended count at a negative entry.
    """
    m_vec = tuple(m_vec)
    expansion = weyl_denominator_super(shape, _nonneg(m_vec))
    return _shift_sum(expansion, m_vec, occupancy.hook_spins(two_s, nsites), shape)


def super_multiplicity(lam, two_s: int, nsites: int, shape: tuple[int, int]) -> int:
    """Conjectured multiplicity of the hook irreducible lam in the power of the
    one-row module of degree two_s."""
    m_vec = super_m_from_hook(lam, two_s * nsites, shape)
    return super_multiplicity_from_m(m_vec, two_s, nsites, shape)


def super_branching_multiplicity_from_m(
    m_vec, sub: SuperRootSubset, two_s: int, nsites: int
) -> int:
    """Conjectured restriction multiplicity to a closed hook root subset."""
    m_vec = tuple(m_vec)
    expansion = weyl_denominator_super_subalgebra(sub, _nonneg(m_vec))
    return _shift_sum(expansion, m_vec, occupancy.hook_spins(two_s, nsites), sub.shape)


def _subset_labels(m_vec, sub: SuperRootSubset, total: int):
    """Sub-diagram and charge labels of an ambient weight vector of degree total.

    Each component of the subset is a smaller algebra on its own labels; its
    diagram is assembled from the ambient row values (ordinary rows for even
    labels, conjugated columns for odd ones).  Returns (diagrams, charges),
    each a list of (labels, data) pairs, or None when a component's data
    labels no highest weight.
    """
    m, _ = sub.shape
    chain = (total,) + tuple(m_vec) + (0,)
    values = [chain[i] - chain[i + 1] for i in range(len(chain) - 1)]
    if any(v < 0 for v in values):
        return None
    diagrams = []
    for g in sub.components:
        x_rows = tuple(values[a - 1] for a in g if a <= m)
        y_cols = tuple(values[a - 1] for a in g if a > m)
        if not y_cols or not x_rows:
            # purely even group: the extracted values are ordinary rows
            rows = x_rows or y_cols
            if not is_partition(rows):
                return None
            diagrams.append((g, partition(rows)))
            continue
        sub_total = sum(x_rows) + sum(y_cols)
        running = [sub_total]
        for v in x_rows + y_cols:
            running.append(running[-1] - v)
        try:
            lam = hook_from_super_m(
                tuple(running[1:-1]), sub_total, (len(x_rows), len(y_cols))
            )
        except NonStandardWeight:
            return None
        diagrams.append((g, lam))
    return diagrams, [(a, values[a - 1]) for a in sub.abelian]


def super_branching_weight_from_m(m_vec, sub: SuperRootSubset, two_s: int, nsites: int):
    """Sub-diagram and charge labels of an ambient hook weight vector (see _subset_labels)."""
    return _subset_labels(m_vec, sub, two_s * nsites)


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
    return comb(nsites, charge) * multiplicity(lam, spins, m - 1)
