from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from reference import (
    NotContained,
    complete_homogeneous,
    contains,
    divide_exact,
    schur,
    schur_tableaux,
    skew_schur,
)
from tensormult.errors import ArityMismatch, TooManyRows
from tensormult.partitions import conjugate, fits_hook, hook_partitions_of, partitions_of
from tensormult.sympoly import SparsePoly, hook_schur, vandermonde


def poly_of(nvars, terms):
    return SparsePoly(nvars, dict(terms))


def test_mul_examples():
    x1_plus_x2 = poly_of(2, {(1, 0): 1, (0, 1): 1})
    assert (x1_plus_x2 * x1_plus_x2).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    h2 = complete_homogeneous(2, 2)
    assert (h2 * h2).terms == {
        (4, 0): 1, (3, 1): 2, (2, 2): 3, (1, 3): 2, (0, 4): 1,
    }


def test_mul_arity_mismatch():
    with pytest.raises(ArityMismatch):
        SparsePoly.one(2) * SparsePoly.one(3)


def test_complete_homogeneous_examples():
    assert complete_homogeneous(1, 3).terms == {
        (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
    }
    assert complete_homogeneous(2, 2).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert complete_homogeneous(0, 4) == SparsePoly.one(4)


def test_schur_examples():
    assert schur((1,), 2).terms == {(1, 0): 1, (0, 1): 1}
    assert schur((2, 1), 2).terms == {(2, 1): 1, (1, 2): 1}
    for two_s in range(0, 5):
        for nvars in (2, 3):
            assert schur((two_s,), nvars) == complete_homogeneous(two_s, nvars)
    with pytest.raises(TooManyRows):
        schur((1, 1, 1), 2)


def test_skew_schur_examples():
    assert skew_schur((2, 1), (2, 1), 2) == SparsePoly.one(2)
    assert skew_schur((2, 1), (1,), 2).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert skew_schur((3, 1), (), 2) == schur((3, 1), 2)
    with pytest.raises(NotContained):
        skew_schur((2,), (3,), 2)


def test_hook_schur_examples():
    for two_s in range(1, 5):
        hs = hook_schur((two_s,), (1, 1))
        assert hs.terms == {(two_s, 0): 1, (two_s - 1, 1): 1}
    assert hook_schur((1,), (2, 1)).terms == {
        (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
    }
    for two_s in range(1, 5):
        hs = hook_schur((two_s,), (2, 1))
        x_part = schur((two_s,), 2)
        y_shift = schur((two_s - 1,), 2)
        expected = {(a, b, 0): c for (a, b), c in x_part.terms.items()}
        expected.update({(a, b, 1): c for (a, b), c in y_shift.terms.items()})
        assert hs.terms == expected


def test_vandermonde_examples():
    assert vandermonde(2).terms == {(1, 0): 1, (0, 1): -1}
    assert vandermonde(1) == SparsePoly.one(1)
    v3 = vandermonde(3)
    x = [poly_of(3, {tuple(int(i == j) for j in range(3)): 1}) for i in range(3)]
    assert v3 == (x[0] - x[1]) * (x[0] - x[2]) * (x[1] - x[2])
    assert len(v3.terms) == 6


def test_coefficient_extraction():
    x1_plus_x2 = poly_of(2, {(1, 0): 1, (0, 1): 1})
    p = x1_plus_x2 * x1_plus_x2
    assert p.terms[(1, 1)] == 2
    assert (5, 5) not in p.terms
    big = vandermonde(3)
    for _ in range(6):
        big = big * complete_homogeneous(1, 3)
    assert big.terms[(5, 3, 1)] == 16


def test_divide_exact_round_trip():
    a = complete_homogeneous(3, 3)
    b = schur((2, 1), 3)
    assert divide_exact(a * b, a) == b
    with pytest.raises(ArithmeticError):
        divide_exact(poly_of(1, {(1,): 1, (0,): 1}), poly_of(1, {(1,): 2}))


def test_schur_routes_agree():
    for total in range(0, 9):
        for nvars in (2, 3, 4):
            for lam in partitions_of(total, max_rows=nvars):
                assert schur(lam, nvars) == schur_tableaux(lam, nvars)


def _is_symmetric(poly, positions):
    for perm in permutations(positions):
        for expv, coeff in poly.terms.items():
            swapped = list(expv)
            for src, dst in zip(positions, perm):
                swapped[dst] = expv[src]
            if poly.terms.get(tuple(swapped), 0) != coeff:
                return False
    return True


def test_schur_outputs_symmetric():
    for total in range(0, 7):
        for lam in partitions_of(total, max_rows=3):
            assert _is_symmetric(schur(lam, 3), (0, 1, 2))
    for total in range(0, 7):
        for lam in hook_partitions_of(total, (2, 2)):
            hs = hook_schur(lam, (2, 2))
            assert _is_symmetric(hs, (0, 1))
            assert _is_symmetric(hs, (2, 3))


def test_hook_schur_conjugation_duality():
    shapes = [(m, n) for m in range(1, 4) for n in range(1, 4) if m + n <= 4]
    for m, n in shapes:
        for total in range(0, 9):
            for lam in hook_partitions_of(total, (m, n)):
                flipped = hook_schur(conjugate(lam), (n, m))
                original = hook_schur(lam, (m, n))
                # swap the variable blocks of the flipped polynomial
                swapped = {e[n:] + e[:n]: c for e, c in flipped.terms.items()}
                assert swapped == original.terms


def _hook_schur_by_inner_diagrams(lam, shape):
    """The definition the peel replaces: the sum over the diagrams tau in lam
    with at most n columns of s_{lam/tau}(x) s_{tau'}(y)."""
    m, n = shape
    terms = {}
    for size in range(sum(lam) + 1):
        for tau in partitions_of(size, max_part=n):
            if not contains(lam, tau):
                continue
            for ex, cx in skew_schur(lam, tau, m).terms.items():
                for ey, cy in schur(conjugate(tau), n).terms.items():
                    terms[ex + ey] = terms.get(ex + ey, 0) + cx * cy
    return SparsePoly(m + n, terms)


def test_hook_schur_peel_matches_the_inner_diagram_sum():
    outside = 0
    for shape in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3), (3, 3)):
        for total in range(0, 8):
            for lam in partitions_of(total):
                hs = hook_schur(lam, shape)
                assert hs == _hook_schur_by_inner_diagrams(lam, shape), (lam, shape)
                if not fits_hook(lam, shape):
                    outside += 1
                    assert hs.is_zero(), (lam, shape)
    assert outside


def test_outside_hook_is_zero():
    assert hook_schur((4, 2, 2), (2, 1)).is_zero()
    assert hook_schur((2, 2), (1, 1)).is_zero()


@st.composite
def small_polys(draw):
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        expv = tuple(draw(st.integers(0, 4)) for _ in range(3))
        terms[expv] = draw(st.integers(-9, 9))
    return SparsePoly(3, terms)


@settings(max_examples=120, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_mul_associative_commutative(a, b, c):
    assert (a * b).terms == (b * a).terms
    assert ((a * b) * c).terms == (a * (b * c)).terms


def tuple_product(a, b):
    """The reference product: one exponent-tuple sum per pair of terms."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# small, negative, around 2**20 and far past 2**64, so the packed fields
# range from 1 bit to over 64 and some carry a negative offset
EXPONENTS = st.one_of(
    st.integers(-6, 6),
    st.integers(2**20 - 2, 2**20 + 2),
    st.integers(-(2**70), 2**70),
)


@st.composite
def poly_pairs(draw):
    nvars = draw(st.integers(0, 4))
    exps = st.tuples(*[EXPONENTS] * nvars)
    return tuple(
        SparsePoly(nvars, draw(st.dictionaries(exps, st.integers(-3, 3), max_size=6)))
        for _ in range(2)
    )


BIG = 2**20


@settings(max_examples=250, deadline=None)
@given(poly_pairs())
# zero polynomials, no variables, fields filled to 2**20 - 1 and reaching
# 2**20 exactly, and terms that cancel
@example((SparsePoly.zero(2), poly_of(2, {(3, -1): 2})))
@example((poly_of(0, {(): 3}), poly_of(0, {(): -4})))
@example((poly_of(0, {(): 3}), SparsePoly.zero(0)))
@example((poly_of(2, {(BIG - 1, 0): 1, (0, 1): -1}), poly_of(2, {(0, 0): 1, (1, BIG - 1): 1})))
@example((poly_of(2, {(BIG - 1, 0): 1, (0, 1): -1}), poly_of(2, {(BIG - 1, 0): 1, (0, 1): -1})))
@example((poly_of(1, {(1,): 1, (0,): 1}), poly_of(1, {(1,): 1, (0,): -1})))
def test_packed_product_equals_the_tuple_product(pair):
    a, b = pair
    assert (a * b).terms == tuple_product(a, b)
    assert (a * b).nvars == a.nvars

