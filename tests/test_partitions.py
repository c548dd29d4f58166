from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from reference import hook_partitions_brute, partitions_brute
from tensormult.errors import NonStandardWeight, SizeMismatch, TooManyRows
from tensormult.partitions import (
    conjugate,
    fits_hook,
    format_partition,
    hook_from_super_m,
    hook_lengths,
    hook_partitions_of,
    lambda_from_m,
    m_from_lambda,
    parse_partition,
    partition,
    partitions_of,
    super_m_from_hook,
    transpose,
)
from tensormult.occupancy import standard_m_vectors


def _raised(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    return info.type, str(info.value)


def test_partition_canonical_form():
    assert partition((3, 2, 1, 0, 0)) == (3, 2, 1)
    assert partition([]) == ()
    assert partition((0, 0)) == ()
    assert partition(iter([2, 2, 0])) == (2, 2)
    # the errors keep their types and texts
    assert _raised(partition, (1, 2)) == (ValueError, "parts must be weakly decreasing, got (1, 2)")
    assert _raised(partition, (3, 0, 1)) == (
        ValueError, "parts must be weakly decreasing, got (3, 0, 1)")
    assert _raised(partition, (2, -1)) == (ValueError, "negative part in (2, -1)")
    # a negative part is reported before the order
    assert _raised(partition, (-1, 2)) == (ValueError, "negative part in (-1, 2)")
    # entries that are no integers fail in int() itself
    assert _raised(partition, ["x"]) == _raised(int, "x")
    assert _raised(partition, [None]) == _raised(int, None)


def test_lambda_from_m_examples():
    assert lambda_from_m((3, 1), 6) == (3, 2, 1)
    assert lambda_from_m((0,), 4) == (4,)
    with pytest.raises(NonStandardWeight):
        lambda_from_m((5, 1), 6)  # rows (1, 4, 1) are not weakly decreasing


def test_m_from_lambda_examples():
    assert m_from_lambda((3, 2, 1), 2, 6) == (3, 1)
    assert m_from_lambda((6,), 2, 6) == (0, 0)
    assert m_from_lambda((2, 2, 2), 2, 6) == (4, 2)
    with pytest.raises(SizeMismatch):
        m_from_lambda((3, 2), 2, 6)
    with pytest.raises(TooManyRows):
        m_from_lambda((3, 1, 1, 1), 2, 6)


def test_conjugate_examples():
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    assert conjugate((4, 2)) == (2, 2, 1, 1)
    assert conjugate((6,)) == (1,) * 6
    assert conjugate(()) == ()
    # only the public conjugate validates its argument
    with pytest.raises(ValueError, match="weakly decreasing"):
        conjugate((1, 2))


def test_hook_lengths_examples():
    assert hook_lengths((3, 2, 1)) == ((5, 3, 1), (3, 1), (1,))
    assert hook_lengths((1,)) == ((1,),)
    assert hook_lengths((2, 1)) == ((3, 1), (1,))


def test_super_maps_examples():
    assert super_m_from_hook((4, 2), 6, (1, 2)) == (2, 1)
    assert hook_from_super_m((2, 1), 6, (1, 2)) == (4, 2)
    assert super_m_from_hook((6,), 6, (1, 1)) == (0,)
    assert super_m_from_hook((3, 2, 1), 6, (2, 1)) == (3, 1)
    assert hook_from_super_m((3, 1), 6, (2, 1)) == (3, 2, 1)


def test_round_trip_m_to_lambda_exhaustive():
    # every standard weight vector that labels a diagram round-trips
    for rank in range(1, 6):
        for two_sl in range(0, 25):
            for m_vec in standard_m_vectors(rank, two_sl):
                try:
                    lam = lambda_from_m(m_vec, two_sl)
                except NonStandardWeight:
                    continue
                assert m_from_lambda(lam, rank, two_sl) == m_vec


def test_enumerators_match_the_brute_force_lists():
    # every bound, None included, in the brute-force order; the cached
    # tuples come back equal on a repeated call
    for total in range(13):
        for max_rows in (None, *range(total + 2)):
            for max_part in (None, *range(total + 2)):
                listed = partitions_of(total, max_rows, max_part)
                assert type(listed) is tuple
                assert list(listed) == partitions_brute(total, max_rows, max_part), (
                    total, max_rows, max_part)
                assert partitions_of(total, max_rows, max_part) == listed
    for shape in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 0)):
        for total in range(13):
            listed = hook_partitions_of(total, shape)
            assert type(listed) is tuple
            assert list(listed) == hook_partitions_brute(total, shape), (total, shape)
            assert hook_partitions_of(total, shape) == listed


def test_round_trip_lambda_to_m_exhaustive():
    for rank in range(1, 6):
        for two_sl in range(0, 25):
            for lam in partitions_of(two_sl, max_rows=rank + 1):
                m_vec = m_from_lambda(lam, rank, two_sl)
                chain = (two_sl,) + m_vec + (0,)
                assert all(a >= b for a, b in zip(chain, chain[1:]))
                assert lambda_from_m(m_vec, two_sl) == lam


def test_super_round_trip_exhaustive():
    shapes = [(m, n) for m in range(1, 5) for n in range(1, 5) if m + n <= 5]
    for shape in shapes:
        for total in range(0, 13):
            for lam in hook_partitions_of(total, shape):
                m_vec = super_m_from_hook(lam, total, shape)
                assert hook_from_super_m(m_vec, total, shape) == lam


def test_conjugate_involution_exhaustive():
    for total in range(0, 21):
        for lam in partitions_of(total):
            assert conjugate(conjugate(lam)) == lam
            # the unvalidated transpose agrees: column j holds the rows longer than j
            cols = tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))
            assert transpose(lam) == conjugate(lam) == cols


@given(st.lists(st.integers(min_value=0, max_value=8), max_size=6))
def test_conjugate_involution_random(draw):
    lam = partition(sorted(draw, reverse=True))
    assert conjugate(conjugate(lam)) == lam


def test_hook_product_divides_factorial():
    for total in range(0, 13):
        for lam in partitions_of(total):
            hooks = prod(h for row in hook_lengths(lam) for h in row)
            assert factorial(total) % hooks == 0


def test_fits_hook():
    assert fits_hook((4, 1, 1, 1), (2, 1))
    assert fits_hook((4, 2, 1), (2, 1))
    assert not fits_hook((4, 2, 2), (2, 1))
    assert fits_hook((5,), (1, 1))
    assert not fits_hook((5, 2), (1, 1))


def test_text_round_trip():
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("0") == ()
    assert format_partition(()) == "0"
    assert format_partition((3, 2, 1)) == "3,2,1"
