import random
from itertools import permutations
from math import comb

import pytest

from tensormult.occupancy import (
    occupancy_coefficient,
    occupancy_table,
    standard_m_vectors,
    super_occupancy_coefficient,
    super_occupancy_table,
    symmetry_violations,
)
from tensormult.oracle import matrix_count


def counted_table(spins, shape):
    """The independent matrix count at every standard weight vector, nonzero only."""
    counts = {
        m_vec: matrix_count(m_vec, spins, shape)
        for m_vec in standard_m_vectors(sum(shape) - 1, sum(spins))
    }
    return {m_vec: c for m_vec, c in counts.items() if c}


def test_coefficient_examples():
    # six degree-one factors in three variables: multinomial counts
    assert occupancy_coefficient((3, 1), (1,) * 6) == 60
    assert comb(6, 3) * comb(3, 1) == 60
    assert occupancy_coefficient((0,), (2, 2)) == 1
    assert occupancy_coefficient((2,), (2, 2)) == 3


def test_zero_extension():
    for m_vec, spins in (((-1,), (1,) * 4), ((1, 3), (1,) * 6), ((7, 1), (1,) * 6)):
        assert occupancy_coefficient(m_vec, spins) == 0
        assert matrix_count(m_vec, spins, (len(m_vec) + 1, 0)) == 0


def test_degree_one_counts_are_binomial_products():
    spins = (1,) * 6
    for m1 in range(7):
        for m2 in range(m1 + 1):
            expected = comb(6, m1) * comb(m1, m2)
            assert occupancy_coefficient((m1, m2), spins) == expected


def test_table_matches_pointwise_and_character_at_one():
    for rank in (1, 2, 3):
        for two_s in (1, 2):
            for nsites in (1, 3, 5):
                spins = (two_s,) * nsites
                table = occupancy_table(spins, rank)
                assert all(c > 0 for c in table.values())
                for m_vec, c in table.items():
                    assert occupancy_coefficient(m_vec, spins) == c
                assert sum(table.values()) == comb(two_s + rank, rank) ** nsites


# The `backends` checks: the count store against the independent matrix count.
def test_backend_equivalence_exhaustive_small():
    for rank in (1, 2):
        for two_s in (1, 2, 3):
            for nsites in range(1, 5):
                spins = (two_s,) * nsites
                total = two_s * nsites
                for m_vec in standard_m_vectors(rank, total):
                    assert occupancy_coefficient(m_vec, spins) == matrix_count(
                        m_vec, spins, (rank + 1, 0)
                    )


def test_backend_equivalence_tables():
    for rank in (1, 2, 3):
        for two_s in (1, 2, 3, 4):
            for nsites in range(1, 7):
                spins = (two_s,) * nsites
                assert occupancy_table(spins, rank) == counted_table(spins, (rank + 1, 0))


def test_backend_equivalence_random_instances():
    rng = random.Random(416)
    for _ in range(200):
        rank = rng.randint(1, 4)
        nsites = rng.randint(1, 7)
        spins = tuple(rng.randint(0, 5) for _ in range(nsites))
        total = sum(spins)
        m_vec = tuple(
            sorted((rng.randint(-2, total + 2) for _ in range(rank)), reverse=True)
        )
        assert occupancy_coefficient(m_vec, spins) == matrix_count(
            m_vec, spins, (rank + 1, 0)
        )


def test_mixed_spin_order_independence():
    spins = (3, 1, 2, 1)
    for rank in (1, 2):
        reference = occupancy_table(spins, rank)
        for perm in set(permutations(spins)):
            assert occupancy_table(perm, rank) == reference


def test_super_coefficient_examples():
    # one even and one odd variable: plain binomials, independent of the degree
    for two_s in (1, 2, 3):
        for nsites in (1, 4, 6):
            for m in range(nsites + 1):
                assert super_occupancy_coefficient(
                    (m,), two_s, nsites, (1, 1)
                ) == comb(nsites, m)
    assert super_occupancy_coefficient((0, 0), 1, 6, (2, 1)) == 1
    assert super_occupancy_coefficient((2, 1), 1, 6, (2, 1)) == 30


def test_super_backends_agree():
    for shape in ((1, 1), (2, 1), (1, 2), (2, 2), (2, 0), (3, 0), (4, 0)):
        for two_s in (1, 2):
            for nsites in (1, 3, 5):
                table = super_occupancy_table(two_s, nsites, shape)
                assert table == counted_table((two_s,) * nsites, shape)
                m, n = shape
                if n == 0:
                    # at n = 0 the hook count is the ordinary rank m - 1 count
                    assert table == occupancy_table((two_s,) * nsites, m - 1)


def test_super_zero_extension():
    assert super_occupancy_coefficient((-1,), 1, 4, (1, 1)) == 0
    assert super_occupancy_coefficient((1, 3), 1, 6, (2, 1)) == 0
    assert matrix_count((1, 3), (1,) * 6, (2, 1)) == 0
    # a negative degree or site count is an error, not an empty product
    for two_s, nsites, name in ((-1, 4, "two_s"), (1, -2, "nsites")):
        with pytest.raises(ValueError, match=name):
            super_occupancy_coefficient((0,), two_s, nsites, (1, 1))
        with pytest.raises(ValueError, match=name):
            super_occupancy_table(two_s, nsites, (1, 1))


def test_symmetry_identities_small_grid():
    for rank in (1, 2, 3):
        for two_s in (1, 2, 3):
            for nsites in (1, 3, 5):
                assert symmetry_violations((two_s,) * nsites, rank) == []


def test_rank_one_palindrome():
    for two_s in (1, 2, 3):
        for nsites in (2, 5):
            total = two_s * nsites
            spins = (two_s,) * nsites
            for m in range(total + 1):
                assert occupancy_coefficient((m,), spins) == occupancy_coefficient(
                    (total - m,), spins
                )
