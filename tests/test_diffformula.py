from math import comb

import pytest

from tensormult.diffformula import (
    ambient_rows_to_m,
    apply_shift,
    branching_multiplicity,
    branching_multiplicity_from_m,
    branching_weight_from_m,
    even_branching_multiplicity,
    multiplicity,
    multiplicity_from_m,
    super_branching_multiplicity_from_m,
    super_branching_weight_from_m,
    super_multiplicity,
    super_multiplicity_from_m,
)
from tensormult.errors import SizeMismatch, TooManyRows
from tensormult.occupancy import occupancy_coefficient, standard_m_vectors
from tensormult.oracle import matrix_count, schur_expansion, weyl_dimension
from tensormult.partitions import (
    conjugate,
    hook_partitions_of,
    partitions_of,
    super_m_from_hook,
)
from tensormult.weyl import (
    SignedExpansion,
    SuperRootSubset,
    close_root_subset,
    full_subalgebra,
    torus_subalgebra,
    weyl_denominator_ar,
    weyl_denominator_super_subalgebra,
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
    assert multiplicity((3, 2, 1), (1,) * 6, 2) == 16
    for rank in (1, 2, 3):
        for two_s in (1, 2, 3):
            assert multiplicity((two_s,), (two_s,), rank) == 1
    assert multiplicity((2, 2), (2, 2), 1) == 1
    # the ordinary algebra is the hook case with n = 0
    for m in (2, 3):
        for two_s in (1, 2):
            for nsites in (1, 3, 4):
                for m_vec in standard_m_vectors(m - 1, two_s * nsites):
                    assert super_multiplicity_from_m(
                        m_vec, two_s, nsites, (m, 0)
                    ) == multiplicity_from_m(m_vec, (two_s,) * nsites)


def test_multiplicity_validation():
    with pytest.raises(SizeMismatch):
        multiplicity((3, 1), (1,) * 6, 2)
    with pytest.raises(TooManyRows):
        multiplicity((3, 1, 1, 1), (1,) * 6, 2)


def test_branching_reduces_at_both_ends():
    spins = (1,) * 6
    for m_vec in standard_m_vectors(2, 6):
        c = occupancy_coefficient(m_vec, spins)
        assert branching_multiplicity_from_m(m_vec, torus_subalgebra(2), spins) == c
        assert branching_multiplicity_from_m(
            m_vec, full_subalgebra(2), spins
        ) == multiplicity_from_m(m_vec, spins)


def test_branching_pair_inside_rank_two():
    spec = close_root_subset(((1, 2),), 2)
    spins = (1,) * 6
    assert branching_multiplicity_from_m((3, 1), spec, spins) == 60 - 30


def test_branching_by_weight_labels():
    spec = close_root_subset(((1, 2),), 2)
    spins = (1,) * 6
    # rows (3, 2) for the pair component, charge 1 for the leftover label
    assert branching_multiplicity(((3, 2),), (1,), spec, spins) == (
        branching_multiplicity_from_m(ambient_rows_to_m((3, 2, 1), 2, 6), spec, spins)
    )
    label = branching_weight_from_m((3, 1), spec, 6)
    assert label == (((3, 2),), (1,))
    assert branching_weight_from_m((4, 1), spec, 6) is None  # rows (2, 3) invalid


def test_branching_sum_rule():
    # restricted dimensions weighted by branching multiplicities exhaust the power
    for rank, two_s, nsites in ((1, 1, 4), (2, 1, 4), (2, 2, 3)):
        spins = (two_s,) * nsites
        total = two_s * nsites
        spec = close_root_subset(((1, 2),), rank)
        grand = 0
        for m_vec in standard_m_vectors(rank, total):
            label = branching_weight_from_m(m_vec, spec, total)
            if label is None:
                continue
            diagrams, charges = label
            mu = branching_multiplicity_from_m(m_vec, spec, spins)
            assert mu >= 0
            grand += mu * weyl_dimension(diagrams[0], 2)
        assert grand == weyl_dimension((two_s,), rank + 1) ** nsites


def test_super_singleton_hook_closed_form():
    for two_s in (1, 2, 3):
        for nsites in (1, 6, 13, 20):
            total = two_s * nsites
            for m in range(min(nsites, total - 1) + 1):
                lam = (total - m,) + (1,) * m
                expected = sum(
                    (-1) ** i * comb(nsites, m - i) for i in range(m + 1)
                )
                assert super_multiplicity(lam, two_s, nsites, (1, 1)) == expected


def _bino(n, k):
    if k == 0:
        return 1
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def test_super_two_one_closed_form():
    for nsites in range(1, 11):
        for m1 in range(nsites + 1):
            for m2 in range(m1 + 1):
                closed = _bino(nsites, m1) * _bino(m1 - 1, m2) - _bino(
                    nsites, m1 - m2 - 1
                ) * _bino(nsites - m1 + m2, m2)
                assert (
                    super_multiplicity_from_m((m1, m2), 1, nsites, (2, 1)) == closed
                )


def test_super_conjugation_duality():
    # conjugating every diagram swaps the roles of the variable blocks; at
    # degree one the base module is self-conjugate, so the decompositions of
    # the same power over (m, n) and (n, m) are mirror images
    for shape in ((1, 1), (2, 1), (1, 2)):
        m, n = shape
        for nsites in range(1, 7):
            for lam in hook_partitions_of(nsites, shape):
                assert super_multiplicity(lam, 1, nsites, shape) == super_multiplicity(
                    conjugate(lam), 1, nsites, (n, m)
                )


def test_super_branching_labels():
    sub = SuperRootSubset((2, 1), ((2, 3),))
    label = super_branching_weight_from_m((3, 1), sub, 1, 6)
    diagrams, charges = label
    assert diagrams == [((2, 3), (2, 1))]
    assert charges == [(1, 3)]
    assert super_branching_weight_from_m((2, 2), sub, 1, 6) is None


def test_super_branching_backends_match():
    # the same shift applied to the independent matrix count instead of the store
    sub = SuperRootSubset((2, 1), ((1, 3),))
    for m_vec in standard_m_vectors(2, 6):
        expansion = weyl_denominator_super_subalgebra(sub, tuple(max(x, 0) for x in m_vec))
        counted = apply_shift(expansion, lambda mv: matrix_count(mv, (1,) * 6, (2, 1)), m_vec)
        assert super_branching_multiplicity_from_m(m_vec, sub, 1, 6) == counted


def test_two_factor_strip_family():
    for rank in (1, 2, 3):
        for two_sp in range(1, 7):
            for two_s in range(1, two_sp + 1):
                spins = (two_sp, two_s)
                allowed = {
                    (two_sp + two_s - k, k) if k else (two_sp + two_s,)
                    for k in range(two_s + 1)
                }
                for lam in partitions_of(two_sp + two_s, max_rows=rank + 1):
                    expected = 1 if lam in allowed else 0
                    assert multiplicity(lam, spins, rank) == expected


def test_mixed_degree_factors_match_oracle():
    for spins in ((2, 1), (3, 1, 2), (1, 1, 2, 3)):
        for rank in (1, 2, 3):
            expected = schur_expansion(spins, rank)
            for lam in partitions_of(sum(spins), max_rows=rank + 1):
                assert multiplicity(lam, spins, rank) == expected.get(lam, 0)


def test_sum_rule_small_grid():
    for rank in (1, 2):
        for two_s in (1, 2):
            for nsites in range(1, 6):
                spins = (two_s,) * nsites
                total = two_s * nsites
                acc = 0
                for lam in partitions_of(total, max_rows=rank + 1):
                    mu = multiplicity(lam, spins, rank)
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
    from tensormult.sympoly import hook_schur, schur
    from tensormult.verify import SUB_EVEN, SUB_ODD_SPAN, SUB_ODD_TAIL

    ambient_dim = sum(hook_schur((1,), (2, 1)).terms.values()) ** 6
    for sub in (SUB_EVEN, SUB_ODD_TAIL, SUB_ODD_SPAN):
        grand = 0
        for m_vec in standard_m_vectors(2, 6):
            label = super_branching_weight_from_m(m_vec, sub, 1, 6)
            if label is None:
                continue
            mu = super_branching_multiplicity_from_m(m_vec, sub, 1, 6)
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
    for charge in range(7):
        for lam in partitions_of(6 - charge, max_rows=2):
            m1 = 6 - lam[0] if lam else 6
            m_vec = (m1, charge)
            via_super = super_branching_multiplicity_from_m(m_vec, sub, 1, 6)
            via_mixed = even_branching_multiplicity(lam, charge, 1, 6, 2)
            assert via_super == via_mixed
