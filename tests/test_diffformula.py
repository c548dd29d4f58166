import operator
import random
from itertools import combinations
from math import comb

import pytest

from reference import SUB_EVEN, SUB_ODD_SPAN, SUB_ODD_TAIL, schur
from tensormult import diffformula
from tensormult.diffformula import (
    _subset_labels,
    apply_shift,
    branching_weight_from_m,
    diagram_of,
    even_branching_multiplicity,
    label_rows,
    multiplicities,
    super_branching_weight_from_m,
    table,
)
from tensormult.errors import NonStandardWeight, SizeMismatch, TooManyRows
from tensormult.occupancy import (
    hook_spins,
    hook_table,
    occupancy_coefficient,
    occupancy_table,
    standard_m_vectors,
)
from tensormult.oracle import matrix_count, pieri_expansion, schur_expansion, weyl_dimension
from tensormult.partitions import (
    conjugate,
    hook_partitions_of,
    m_from_lambda,
    partitions_of,
    super_m_from_hook,
)
from tensormult.sympoly import hook_schur
from tensormult.weyl import (
    SignedExpansion,
    SuperRootSubset,
    close_root_subset,
    full_subalgebra,
    hook_algebra,
    parse_roots,
    split_denominator,
    weyl_denominator_ar,
    weyl_denominator_subalgebra,
    weyl_denominator_super_subalgebra,
    weyl_group_terms,
)


def test_apply_shift_identity_and_signs():
    identity = SignedExpansion(2, ((1, (0, 0)),))
    assert apply_shift(identity, lambda mv: 10 * mv[0] + mv[1], (5, 3)) == 53
    # the two-term rank-one expansion is a plain difference
    assert apply_shift(
        weyl_denominator_ar(1), lambda mv: mv[0] ** 2, (4,)
    ) == 4 ** 2 - 3 ** 2
    # the full rank-two expansion hits the six shifted arguments
    seen = []
    apply_shift(weyl_denominator_ar(2), lambda mv: seen.append(mv) or 1, (5, 3))
    assert set(seen) == {(5, 3), (4, 3), (5, 2), (3, 2), (4, 1), (3, 1)}
    # coefficients of any full denominator sum to zero
    for rank in (1, 2, 3):
        assert apply_shift(weyl_denominator_ar(rank), lambda mv: 1, (9,) * rank) == 0


def test_multiplicity_examples():
    assert multiplicities(full_subalgebra(2), [m_from_lambda((3, 2, 1), 2, 6)], (1,) * 6) == [16]
    for rank in (1, 2, 3):
        for two_s in (1, 2, 3):
            m_vec = m_from_lambda((two_s,), rank, two_s)
            assert multiplicities(full_subalgebra(rank), [m_vec], (two_s,)) == [1]
    assert multiplicities(full_subalgebra(1), [m_from_lambda((2, 2), 1, 4)], (2, 2)) == [1]
    # the ordinary algebra is the hook case with n = 0
    for m in (2, 3):
        for two_s in (1, 2):
            for nsites in (1, 3, 4):
                vectors = list(standard_m_vectors(m - 1, two_s * nsites))
                assert multiplicities(
                    hook_algebra((m, 0)), vectors, hook_spins(two_s, nsites)
                ) == multiplicities(full_subalgebra(m - 1), vectors, (two_s,) * nsites)


def test_multiplicity_validation():
    # a diagram of another size than the degree list's, or with more rows
    # than the rank allows, has no weight vector
    with pytest.raises(SizeMismatch):
        m_from_lambda((3, 1), 2, 6)
    with pytest.raises(TooManyRows):
        m_from_lambda((3, 1, 1, 1), 2, 6)
    # a weight vector of another length than the rank
    with pytest.raises(ValueError, match="expected 2 entries"):
        multiplicities(close_root_subset((), 2), [(3, 1, 0)], (1,) * 6)


def test_branching_reduces_at_both_ends():
    # the empty subset reads the bare counts; the closure of the simple roots
    # is the full algebra
    spins = (1,) * 6
    vectors = list(standard_m_vectors(2, 6))
    counts = [occupancy_coefficient(m_vec, spins) for m_vec in vectors]
    assert multiplicities(close_root_subset((), 2), vectors, spins) == counts
    assert multiplicities(
        close_root_subset(((1, 2), (2, 3)), 2), vectors, spins
    ) == multiplicities(full_subalgebra(2), vectors, spins)


def _set_partitions(labels):
    if not labels:
        yield []
        return
    first, rest = labels[0], labels[1:]
    for blocks in _set_partitions(rest):
        yield [[first], *blocks]
        for i in range(len(blocks)):
            yield [*blocks[:i], [first, *blocks[i]], *blocks[i + 1:]]


def test_label_form_splits_as_the_root_form():
    # a closed subset is held as its label groups; the reference splits the
    # explicit root list: the label groups of the even roots, and the sorted
    # odd roots
    def groups(roots):
        joined = {}
        for i, j in roots:
            merged = joined.get(i, {i}) | joined.get(j, {j})
            for a in merged:
                joined[a] = merged
        return tuple(sorted({tuple(sorted(g)) for g in joined.values()}))

    for shape in ((3, 0), (4, 0), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)):
        m = shape[0]
        for blocks in _set_partitions(list(range(1, sum(shape) + 1))):
            roots = sorted(pair for b in blocks for pair in combinations(b, 2))
            spec = SuperRootSubset(shape, roots)
            even = [r for r in roots if not r[0] <= m < r[1]]
            odd = tuple(r for r in roots if r[0] <= m < r[1])
            assert split_denominator(spec) == (groups(even), odd), (shape, roots)
            assert spec.roots == tuple(roots)
            for other in (roots[::-1], roots + roots[:2]):
                again = SuperRootSubset(shape, other)
                assert again == spec and hash(again) == hash(spec), (shape, other)
        every = SuperRootSubset(shape, combinations(range(1, sum(shape) + 1), 2))
        assert every == hook_algebra(shape) and hash(every) == hash(hook_algebra(shape))


def test_group_walk_equals_the_expanded_denominator():
    # every closed root subset of A1-A4 is the closure of one set partition
    # of the labels; the walk must give the full expansion's shift sum at every
    # standard weight vector, and at vectors with entries below 0 or above the
    # total (non-dominant weights, zero-extension)
    rng = random.Random(7)
    spin_lists = [(two_s,) * nsites for two_s in (1, 2, 3) for nsites in range(1, 5)]
    spin_lists += [(2, 1, 1), (3, 1, 2, 0)]
    for rank in range(1, 5):
        specs = [
            close_root_subset([(b[i], b[i + 1]) for b in blocks for i in range(len(b) - 1)], rank)
            for blocks in _set_partitions(list(range(1, rank + 2)))
        ]
        expansions = [weyl_denominator_subalgebra(spec) for spec in specs]
        for spins in spin_lists:
            total = sum(spins)
            # the reference reads each shifted weight from the weight table,
            # shared by every subset of this degree list
            table = occupancy_table(spins, rank)

            def read(mv):
                return table.get(mv, 0)

            vectors = list(standard_m_vectors(rank, total))
            vectors += [
                tuple(rng.randint(-2, total + 2) for _ in range(rank)) for _ in range(40)
            ]
            for spec, expansion in zip(specs, expansions):
                assert multiplicities(spec, vectors, spins) == [
                    apply_shift(expansion, read, m_vec) for m_vec in vectors
                ], (spec.components, spins)


def _uncapped_sum(spec, m_vec, spins):
    """The route at one vector, its group walked with the exponents themselves
    (the odd roots' even labels at rank) rather than their caps."""
    components, odd = split_denominator(spec)
    counts = diffformula._odd_quotient(hook_table(spins, spec.shape), odd)
    exponents = tuple(map(operator.sub, (sum(spins), *m_vec), (*m_vec, 0)))
    bounds = list(exponents)
    for i, _ in odd:
        bounds[i - 1] = spec.rank
    return sum(
        sign * counts(tuple(map(operator.add, exponents, moves)))
        for sign, moves in weyl_group_terms(components, bounds)
    )


def test_a_table_equals_its_rows_one_at_a_time():
    # the route groups a table's vectors by their caps and walks once per
    # group; each value must be the one-vector call's, and that the walk
    # with the exponents uncapped, over labels, non-labels and vectors with
    # a negative exponent, in a shuffled order
    rng = random.Random(23)
    cases = [(full_subalgebra(rank), spins) for rank in range(1, 5)
             for spins in ((2,) * 4, (3, 0, 2, 1), (0, 0))]
    cases += [(close_root_subset(roots, rank), spins)
              for roots, rank in ((((1, 2),), 3), (((2, 4),), 4), (((1, 3), (4, 5)), 5))
              for spins in ((2,) * 3, (1, 0, 2))]
    cases += [(hook_algebra(shape), spins)
              for shape in ((2, 2), (3, 2), (3, 3)) for spins in ((2,) * 4, (1, 0, 1))]
    cases += [(SuperRootSubset((2, 2), parse_roots("L1-K1,L2-K2", (2, 2))), spins)
              for spins in ((2,) * 4, (1, 0, 2))]
    for spec, spins in cases:
        total = sum(spins)
        vectors = [m_vec for m_vec, _ in label_rows(spec, total)]
        vectors += [tuple(rng.randint(-1, total + 1) for _ in range(spec.rank))
                    for _ in range(30)]
        rng.shuffle(vectors)
        values = multiplicities(spec, vectors, spins)
        assert len(values) == len(vectors)
        for m_vec, value in zip(vectors, values):
            assert value == multiplicities(spec, [m_vec], spins)[0], (spec, spins, m_vec)
            assert value == _uncapped_sum(spec, m_vec, spins), (spec, spins, m_vec)
    assert multiplicities(full_subalgebra(2), [], (1, 1)) == []
    with pytest.raises(ValueError, match="expected 2 entries"):
        multiplicities(full_subalgebra(2), [(1, 0), (1,)], (1, 1))
    with pytest.raises(ValueError, match="negative site degree"):
        multiplicities(full_subalgebra(2), [(1, 0)], (1, -1))


def test_a_table_walks_once_per_cap_class(monkeypatch):
    walks = []

    def counting(components, caps):
        walks.append(caps)
        return weyl_group_terms(components, caps)

    monkeypatch.setattr(diffformula, "weyl_group_terms", counting)
    for spec, spins, labels, groups in (
        (close_root_subset(parse_roots("L1-L2,L3-L4"), 4), (3,) * 6, 2200, 4),
        (full_subalgebra(4), (3,) * 7, 221, 16),
        (hook_algebra((3, 3)), (2,) * 7, 135, 3),
    ):
        walks.clear()
        rows = label_rows(spec, sum(spins))
        multiplicities(spec, [m_vec for m_vec, _ in rows], spins)
        assert (len(rows), len(walks), len(set(walks))) == (labels, groups, groups)


def test_branching_pair_inside_rank_two():
    spec = close_root_subset(((1, 2),), 2)
    spins = (1,) * 6
    assert multiplicities(spec, [(3, 1)], spins) == [60 - 30]


def test_branching_by_weight_labels():
    spec = close_root_subset(((1, 2),), 2)
    # rows (3, 2) for the pair component, charge 1 for the leftover label
    label = branching_weight_from_m((3, 1), spec, 6)
    assert label == (((3, 2),), (1,))
    assert branching_weight_from_m((4, 1), spec, 6) is None  # rows (2, 3) invalid


def test_branching_sum_rule():
    # restricted dimensions weighted by branching multiplicities exhaust the power
    for rank, two_s, nsites in ((1, 1, 4), (2, 1, 4), (2, 2, 3)):
        spins = (two_s,) * nsites
        total = two_s * nsites
        spec = close_root_subset(((1, 2),), rank)
        labelled = [
            (m_vec, label)
            for m_vec in standard_m_vectors(rank, total)
            if (label := branching_weight_from_m(m_vec, spec, total)) is not None
        ]
        mus = multiplicities(spec, [m_vec for m_vec, _ in labelled], spins)
        grand = 0
        for (_, (diagrams, _)), mu in zip(labelled, mus):
            assert mu >= 0
            grand += mu * weyl_dimension(diagrams[0], 2)
        assert grand == weyl_dimension((two_s,), rank + 1) ** nsites


def test_super_singleton_hook_closed_form():
    for two_s in (1, 2, 3):
        for nsites in (1, 6, 13, 20):
            total = two_s * nsites
            hooks = range(min(nsites, total - 1) + 1)
            vectors = [super_m_from_hook((total - m,) + (1,) * m, total, (1, 1)) for m in hooks]
            expected = [sum((-1) ** i * comb(nsites, m - i) for i in range(m + 1)) for m in hooks]
            spins = hook_spins(two_s, nsites)
            assert multiplicities(hook_algebra((1, 1)), vectors, spins) == expected


def _bino(n, k):
    if k == 0:
        return 1
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def test_super_two_one_closed_form():
    for nsites in range(1, 11):
        vectors = [(m1, m2) for m1 in range(nsites + 1) for m2 in range(m1 + 1)]
        closed = [
            _bino(nsites, m1) * _bino(m1 - 1, m2)
            - _bino(nsites, m1 - m2 - 1) * _bino(nsites - m1 + m2, m2)
            for m1, m2 in vectors
        ]
        assert multiplicities(hook_algebra((2, 1)), vectors, hook_spins(1, nsites)) == closed


def test_hook_conjecture_sweep_against_the_fold():
    # the conjectural hook route on the hooks beyond the verify suite's grid,
    # one table per cell with a row for every diagram of the hook; a
    # violation here is a finding about the conjecture, reported as is
    checked, violations = 0, []
    for shape in ((3, 1), (1, 3), (3, 2), (2, 3), (3, 3)):
        for two_s in (1, 2):
            for nsites in range(1, 8):
                spins = (two_s,) * nsites
                expected = pieri_expansion(spins, shape)
                rows = [(diagram_of(label), mu)
                        for _, label, mu in table(hook_algebra(shape), spins)]
                diagrams = sorted(lam for lam, _ in rows)
                assert diagrams == sorted(hook_partitions_of(two_s * nsites, shape))
                assert set(expected) <= set(diagrams)
                checked += len(rows)
                violations += [(shape, two_s, nsites, lam, mu) for lam, mu in rows
                               if mu != expected.get(lam, 0)]
    assert checked == 1544
    assert violations == []


def test_super_conjugation_duality():
    # conjugating every diagram swaps the roles of the variable blocks; at
    # degree one the base module is self-conjugate, so the decompositions of
    # the same power over (m, n) and (n, m) are mirror images
    for shape in ((1, 1), (2, 1), (1, 2)):
        m, n = shape
        for nsites in range(1, 7):
            labels = list(hook_partitions_of(nsites, shape))
            vectors = [super_m_from_hook(lam, nsites, shape) for lam in labels]
            mirrored = [super_m_from_hook(conjugate(lam), nsites, (n, m)) for lam in labels]
            spins = hook_spins(1, nsites)
            assert multiplicities(hook_algebra(shape), vectors, spins) == multiplicities(
                hook_algebra((n, m)), mirrored, spins
            )


def test_super_branching_labels():
    sub = SuperRootSubset((2, 1), ((2, 3),))
    label = super_branching_weight_from_m((3, 1), sub, 1, 6)
    diagrams, charges = label
    assert diagrams == [((2, 3), (2, 1))]
    assert charges == [(1, 3)]
    assert super_branching_weight_from_m((2, 2), sub, 1, 6) is None


def test_label_rows_invert_the_weight_filter():
    # tables enumerate their labels from diagrams; the reference keeps every
    # standard weight vector that _subset_labels labels, for every closed
    # subset (the closure of a set partition of the labels)
    for shape in ((2, 0), (3, 0), (4, 0), (5, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)):
        rank = sum(shape) - 1
        for blocks in _set_partitions(list(range(1, rank + 2))):
            sub = SuperRootSubset(shape, [pair for b in blocks for pair in combinations(b, 2)])
            for total in range(9):
                filtered = []
                for m_vec in standard_m_vectors(rank, total):
                    try:
                        filtered.append((m_vec, _subset_labels(m_vec, sub, total)))
                    except NonStandardWeight:
                        pass
                assert label_rows(sub, total) == filtered, (shape, sub.roots, total)


def test_label_rows_fold_a_thousand_parts():
    # one component and 999 abelian labels: the parts are folded in a loop,
    # so no stack grows with their number
    assert len(label_rows(close_root_subset(((1, 2),), 1000), 1)) == 1000


def test_super_branching_backends_match():
    # the route against the truncated expansion applied to the independent
    # matrix count instead of the store: every closed subset (the closure of a
    # set partition of the labels), at every standard weight vector and at
    # vectors with entries below 0 or above the total
    rng = random.Random(11)
    for shape in ((2, 1), (1, 2), (2, 2), (3, 1)):
        rank = sum(shape) - 1
        subs = [
            SuperRootSubset(shape, [pair for b in blocks for pair in combinations(b, 2)])
            for blocks in _set_partitions(list(range(1, rank + 2)))
        ]
        for two_s in (1, 2):
            for nsites in range(1, 5):
                spins = (two_s,) * nsites
                total = two_s * nsites
                vectors = list(standard_m_vectors(rank, total))
                vectors += [
                    tuple(rng.randint(-2, total + 2) for _ in range(rank)) for _ in range(40)
                ]
                for sub in subs:
                    counted = [
                        apply_shift(
                            weyl_denominator_super_subalgebra(sub, tuple(max(x, 0) for x in m_vec)),
                            lambda mv: matrix_count(mv, spins, shape),
                            m_vec,
                        )
                        for m_vec in vectors
                    ]
                    assert multiplicities(sub, vectors, spins) == counted, (shape, sub.roots, spins)


def test_two_factor_strip_family():
    for rank in (1, 2, 3):
        for two_sp in range(1, 7):
            for two_s in range(1, two_sp + 1):
                spins = (two_sp, two_s)
                allowed = {
                    (two_sp + two_s - k, k) if k else (two_sp + two_s,)
                    for k in range(two_s + 1)
                }
                labels = list(partitions_of(two_sp + two_s, max_rows=rank + 1))
                vectors = [m_from_lambda(lam, rank, two_sp + two_s) for lam in labels]
                assert multiplicities(full_subalgebra(rank), vectors, spins) == [
                    1 if lam in allowed else 0 for lam in labels
                ]


def test_mixed_degree_factors_match_oracle():
    for spins in ((2, 1), (3, 1, 2), (1, 1, 2, 3)):
        for rank in (1, 2, 3):
            expected = schur_expansion(spins, rank)
            labels = list(partitions_of(sum(spins), max_rows=rank + 1))
            vectors = [m_from_lambda(lam, rank, sum(spins)) for lam in labels]
            assert multiplicities(full_subalgebra(rank), vectors, spins) == [
                expected.get(lam, 0) for lam in labels
            ]


def test_sum_rule_small_grid():
    for rank in (1, 2):
        for two_s in (1, 2):
            for nsites in range(1, 6):
                spins = (two_s,) * nsites
                total = two_s * nsites
                labels = list(partitions_of(total, max_rows=rank + 1))
                vectors = [m_from_lambda(lam, rank, total) for lam in labels]
                acc = 0
                for lam, mu in zip(labels, multiplicities(full_subalgebra(rank), vectors, spins)):
                    assert mu >= 0
                    acc += mu * weyl_dimension(lam, rank + 1)
                assert acc == weyl_dimension((two_s,), rank + 1) ** nsites


def test_even_branching_grading():
    # fixing the odd charge grades the sixth power of the degree-one module
    expected = {
        (0, (6,)): 1, (0, (5, 1)): 5, (0, (4, 2)): 9, (0, (3, 3)): 5,
        (1, (5,)): 6, (1, (4, 1)): 24, (1, (3, 2)): 30,
        (2, (4,)): 15, (2, (3, 1)): 45, (2, (2, 2)): 30,
        (3, (3,)): 20, (3, (2, 1)): 40,
        (4, (2,)): 15, (4, (1, 1)): 15,
        (5, (1,)): 6,
        (6, ()): 1,
    }
    for charge in range(7):
        for lam in partitions_of(6 - charge, max_rows=2):
            got = even_branching_multiplicity(lam, charge, 1, 6, 2)
            assert got == expected.get((charge, lam), 0)


def test_super_branching_dimension_sum_rule():
    # restricted dimensions weighted by multiplicities exhaust the sixth power
    ambient_dim = sum(hook_schur((1,), (2, 1)).terms.values()) ** 6
    for sub in (SUB_EVEN, SUB_ODD_TAIL, SUB_ODD_SPAN):
        labelled = [
            (m_vec, label)
            for m_vec in standard_m_vectors(2, 6)
            if (label := super_branching_weight_from_m(m_vec, sub, 1, 6)) is not None
        ]
        mus = multiplicities(sub, [m_vec for m_vec, _ in labelled], hook_spins(1, 6))
        grand = 0
        for (_, label), mu in zip(labelled, mus):
            assert mu >= 0
            dim = 1
            for labels, lam in label[0]:
                if any(a > 2 for a in labels) and any(a <= 2 for a in labels):
                    dim *= sum(hook_schur(lam, (1, 1)).terms.values())
                else:
                    dim *= sum(schur(lam, len(labels)).terms.values())
            grand += mu * dim
        assert grand == ambient_dim == 729


def test_even_branching_matches_super_route():
    # proved mixed-degree route == conjectured shift route on the even subset
    sub = SuperRootSubset((2, 1), ((1, 2),))
    labels = [(charge, lam) for charge in range(7) for lam in partitions_of(6 - charge, max_rows=2)]
    vectors = [(6 - lam[0] if lam else 6, charge) for charge, lam in labels]
    assert multiplicities(sub, vectors, hook_spins(1, 6)) == [
        even_branching_multiplicity(lam, charge, 1, 6, 2) for charge, lam in labels
    ]
