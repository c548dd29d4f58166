import time
from itertools import accumulate, product
from math import factorial

import pytest

from tensormult.errors import InvalidTruncation, NotClosed
from tensormult.sympoly import SparsePoly
from tensormult.weyl import (
    SignedExpansion,
    SuperRootSubset,
    _even_factor,
    _expand,
    close_root_subset,
    full_subalgebra,
    parse_root,
    parse_roots,
    root_shift,
    split_denominator,
    weyl_denominator_ar,
    weyl_denominator_subalgebra,
    weyl_denominator_super,
    weyl_denominator_super_subalgebra,
    weyl_group_terms,
    weyl_order,
)


def as_poly(expansion):
    """The polynomial a signed expansion lists: coefficient c at exponent shift."""
    return SparsePoly(expansion.rank, {shift: coeff for coeff, shift in expansion.terms})


def product_over_roots(roots, rank):
    poly = SparsePoly.one(rank)
    for root in roots:
        shift = root_shift(root, rank)
        poly = poly * SparsePoly(rank, {(0,) * rank: 1, shift: -1})
    return poly


def test_rank_one_denominator():
    assert weyl_denominator_ar(1).terms == ((1, (0,)), (-1, (1,)))


def test_rank_two_denominator():
    expected = {
        (0, 0): 1, (1, 0): -1, (0, 1): -1, (2, 1): 1, (1, 2): 1, (2, 2): -1,
    }
    assert dict((s, c) for c, s in weyl_denominator_ar(2).terms) == expected


def test_denominator_reproduces_root_product():
    for rank in range(1, 5):
        expansion = weyl_denominator_ar(rank)
        assert as_poly(expansion) == product_over_roots(full_subalgebra(rank).roots, rank)


def test_denominator_term_counts_and_signs():
    for rank in range(1, 5):
        expansion = weyl_denominator_ar(rank)
        assert len(expansion) == factorial(rank + 1)
        assert all(abs(c) == 1 for c, _ in expansion.terms)
        assert sum(c for c, _ in expansion.terms) == 0


def test_close_root_subset_examples():
    spec = close_root_subset(((1, 3), (3, 4), (1, 4), (5, 6)), 5)
    assert spec.components == ((1, 3, 4), (5, 6))
    assert spec.abelian == (2,)

    spec = close_root_subset(((1, 3), (3, 4), (1, 4), (4, 5)), 5)
    assert spec.components == ((1, 3, 4, 5),)
    assert spec.abelian == (2, 6)
    assert set(spec.roots) >= {(3, 5), (1, 5)}

    empty = close_root_subset((), 3)
    assert empty.components == ()
    assert empty.abelian == (1, 2, 3, 4)


def test_subalgebra_denominator_example():
    # components {1,3,4} and {5,6} inside rank 5
    roots = parse_roots("a1+a2,a3,a1+a2+a3,a5")
    assert roots == ((1, 3), (3, 4), (1, 4), (5, 6))
    spec = close_root_subset(roots, 5)
    expansion = weyl_denominator_subalgebra(spec)
    assert as_poly(expansion) == product_over_roots(roots, 5)


def test_subalgebra_full_and_empty():
    for rank in (1, 2, 3):
        assert weyl_denominator_subalgebra(
            full_subalgebra(rank)
        ) == weyl_denominator_ar(rank)
        empty = weyl_denominator_subalgebra(close_root_subset((), rank))
        assert empty.terms == ((1, (0,) * rank),)


def test_group_sum_equals_the_binomial_product():
    # the even denominators come from the Weyl group; the reference is the
    # product of the (1 - t^root) binomials, expanded factor by factor
    for rank in range(1, 7):
        assert weyl_denominator_ar(rank) == _expand(
            [_even_factor(r, rank) for r in full_subalgebra(rank).roots], rank
        )
    # components that are not runs of consecutive labels
    for roots, rank in (
        (((1, 3),), 3),
        (((1, 3), (2, 5)), 5),
        (((2, 4), (4, 6), (1, 5)), 6),
    ):
        spec = close_root_subset(roots, rank)
        assert weyl_denominator_subalgebra(spec) == _expand(
            [_even_factor(r, rank) for r in spec.roots], rank
        )


def test_group_walk_cuts_exactly_the_negative_exponents():
    # every term whose shifted point keeps its exponents nonnegative, and no
    # other; in the second subset the labels 1, 3 and 5 sit below, between
    # and above the walked ones
    for spec in (close_root_subset(((1, 3), (2, 4)), 3), close_root_subset(((2, 4),), 4)):
        nlabels = spec.rank + 1
        terms = weyl_denominator_subalgebra(spec).terms
        for exponents in product(range(-1, 3), repeat=nlabels):
            kept = []
            for coeff, shift in terms:
                chain = (0,) + shift + (0,)
                moved = [e + chain[a + 1] - chain[a] for a, e in enumerate(exponents)]
                if min(moved) >= 0:
                    kept.append((coeff, shift))
            # the shift at label a is the moves summed over the labels 1..a
            walked = [
                (sign, tuple(accumulate(moves[:-1])))
                for sign, moves in weyl_group_terms(split_denominator(spec)[0], exponents)
            ]
            assert sorted(walked, key=lambda t: t[1]) == kept, (spec, exponents)


def test_group_walk_skips_labels_outside_the_components():
    # one two-label component among 1,001 labels: the unwalked labels get no
    # level, so a thousand walks take well under a second
    start = time.perf_counter()
    for _ in range(1000):
        terms = weyl_group_terms(((1, 2),), (5,) * 1001)
    assert time.perf_counter() - start < 1.0
    assert sorted(terms) == [(-1, (1, -1) + (0,) * 999), (1, (0,) * 1001)]


def test_group_refusals():
    with pytest.raises(NotClosed):
        weyl_denominator_subalgebra(SuperRootSubset((3, 0), ((1, 2), (2, 3))))
    with pytest.raises(ValueError, match="odd roots"):
        weyl_denominator_subalgebra(SuperRootSubset((2, 1), ((1, 3),)))
    with pytest.raises(ValueError, match="9! = 362880"):
        weyl_denominator_ar(9)
    # an order with more digits than an integer may print: the refusal names
    # the component size instead
    with pytest.raises(ValueError, match=r"sizes 1600, .*9! = 362880"):
        weyl_order((tuple(range(1, 1601)),))


def test_super_one_one():
    expansion = weyl_denominator_super((1, 1), (5,))
    assert expansion.terms == tuple(((-1) ** k, (k,)) for k in range(6))


def test_super_two_one():
    expansion = weyl_denominator_super((2, 1), (4, 4))
    expected = {}
    for k in range(5):
        expected[(0, k)] = (-1) ** k
    for k in range(4):
        expected[(k + 1, k)] = -((-1) ** k)
    assert dict((s, c) for c, s in expansion.terms) == expected


def test_super_one_two():
    expansion = weyl_denominator_super((1, 2), (4, 4))
    expected = {}
    for k in range(5):
        expected[(k, 0)] = (-1) ** k
    for k in range(4):
        expected[(k, k + 1)] = -((-1) ** k)
    assert dict((s, c) for c, s in expansion.terms) == expected


def test_super_truncation_stability():
    small = weyl_denominator_super((2, 2), (3, 3, 3))
    large = weyl_denominator_super((2, 2), (7, 7, 7))
    inside = {
        s: c
        for c, s in large.terms
        if all(x <= b for x, b in zip(s, (3, 3, 3)))
    }
    assert dict((s, c) for c, s in small.terms) == inside


def test_super_without_odd_roots_is_ordinary():
    for m in (2, 3, 4):
        assert weyl_denominator_super((m, 0), (6,) * (m - 1)) == weyl_denominator_ar(
            m - 1
        )


def test_super_invalid_truncation():
    with pytest.raises(InvalidTruncation):
        weyl_denominator_super((2, 1), (4,))
    with pytest.raises(InvalidTruncation):
        weyl_denominator_super((2, 1), (-1, 3))


def test_super_subalgebra_examples():
    bound = (6, 6)
    even = weyl_denominator_super_subalgebra(
        SuperRootSubset((2, 1), ((1, 2),)), bound
    )
    assert even.terms == ((1, (0, 0)), (-1, (1, 0)))
    tail = weyl_denominator_super_subalgebra(
        SuperRootSubset((2, 1), ((2, 3),)), bound
    )
    assert tail.terms == tuple(((-1) ** k, (0, k)) for k in range(7))
    span = weyl_denominator_super_subalgebra(
        SuperRootSubset((2, 1), ((1, 3),)), bound
    )
    assert span.terms == tuple(((-1) ** k, (k, k)) for k in range(7))


def test_super_subalgebra_rejects_open_subsets():
    with pytest.raises(NotClosed):
        weyl_denominator_super_subalgebra(
            SuperRootSubset((2, 1), ((1, 2), (2, 3))), (6, 6)
        )
    # the full root set is closed
    full = SuperRootSubset((2, 1), ((1, 2), (2, 3), (1, 3)))
    assert weyl_denominator_super_subalgebra(full, (6, 6)) == weyl_denominator_super(
        (2, 1), (6, 6)
    )


def test_parse_root_syntax():
    assert parse_root("L1-L3") == (1, 3)
    assert parse_root("a1+a2") == (1, 3)
    assert parse_root("a2") == (2, 3)
    assert parse_root("L2-K1", shape=(2, 1)) == (2, 3)
    assert parse_root("K1-K2", shape=(1, 2)) == (2, 3)
    with pytest.raises(ValueError):
        parse_root("L3-L1")
    with pytest.raises(ValueError):
        parse_root("a1+a3")
    with pytest.raises(ValueError):
        parse_root("K1-K2", shape=(2, 1))


def test_expansion_is_deterministic():
    a = weyl_denominator_super((2, 1), (5, 5))
    b = weyl_denominator_super((2, 1), (5, 5))
    assert a == b and isinstance(a, SignedExpansion)
