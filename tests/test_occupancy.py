import json
import random
from itertools import permutations, product
from math import comb

import pytest

import tensormult.occupancy as occupancy_mod
from tensormult.cli import main
from tensormult.occupancy import (
    exponent_table,
    hook_coefficient,
    hook_spins,
    hook_table,
    occupancy_coefficient,
    occupancy_table,
    spin_tuple,
    standard_m_vectors,
    super_occupancy_coefficient,
    super_occupancy_table,
)
from tensormult.oracle import matrix_counts
from tensormult.verify import swap_violations


def counted_table(spins, shape):
    """The independent matrix count at every standard weight vector, nonzero only."""
    m_vecs = list(standard_m_vectors(sum(shape) - 1, sum(spins)))
    return {m_vec: c for m_vec, c in zip(m_vecs, matrix_counts(m_vecs, spins, shape)) if c}


def test_coefficient_examples():
    # six degree-one factors in three variables: multinomial counts
    assert occupancy_coefficient((3, 1), (1,) * 6) == 60
    assert comb(6, 3) * comb(3, 1) == 60
    assert occupancy_coefficient((0,), (2, 2)) == 1
    assert occupancy_coefficient((2,), (2, 2)) == 3


def test_zero_extension():
    for m_vec, spins in (((-1,), (1,) * 4), ((1, 3), (1,) * 6), ((7, 1), (1,) * 6)):
        assert occupancy_coefficient(m_vec, spins) == 0
        assert matrix_counts([m_vec], spins, (len(m_vec) + 1, 0)) == [0]


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
                m_vecs = list(standard_m_vectors(rank, total))
                assert [occupancy_coefficient(m_vec, spins) for m_vec in m_vecs] == (
                    matrix_counts(m_vecs, spins, (rank + 1, 0))
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
        assert [occupancy_coefficient(m_vec, spins)] == matrix_counts(
            [m_vec], spins, (rank + 1, 0)
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


def test_exponent_spread_maps_onto_the_weight_tables():
    # verify compares the spread by exponent vector; the two tables are the
    # same counts keyed by weight vector, M_a the sum of the exponents from
    # position a on, one weight vector per exponent vector
    for shape in ((2, 0), (3, 0), (4, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)):
        for two_s in (1, 2, 3):
            for nsites in (1, 2, 4):
                spins = (two_s,) * nsites
                spread = exponent_table(spins, shape)
                # each chamber once in every arrangement within its blocks
                m = shape[0]
                arranged = {evens + odds: count
                            for key, count in hook_table(spins, shape).chambers.items()
                            for evens in permutations(key[:m]) for odds in permutations(key[m:])}
                assert spread == arranged, shape
                weights = {tuple(sum(e[a:]) for a in range(1, len(e))): count
                           for e, count in spread.items()}
                assert len(weights) == len(spread)
                assert weights == super_occupancy_table(two_s, nsites, shape), shape
                if not shape[1]:
                    assert weights == occupancy_table(spins, shape[0] - 1), shape


def _raised(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    return info.type, str(info.value)


def test_spin_tuple_errors_keep_their_types_and_texts():
    assert spin_tuple(iter([2, 0, 1])) == (2, 0, 1)
    assert spin_tuple(()) == ()
    assert _raised(spin_tuple, (1, -2)) == (ValueError, "negative site degree in (1, -2)")
    # entries that are no integers fail in int() itself
    assert _raised(spin_tuple, ["a"]) == _raised(int, "a")
    assert _raised(spin_tuple, [None]) == _raised(int, None)


def test_super_zero_extension():
    assert super_occupancy_coefficient((-1,), 1, 4, (1, 1)) == 0
    assert super_occupancy_coefficient((1, 3), 1, 6, (2, 1)) == 0
    assert matrix_counts([(1, 3)], (1,) * 6, (2, 1)) == [0]
    # a negative degree or site count is an error, not an empty product
    for two_s, nsites, name in ((-1, 4, "two_s"), (1, -2, "nsites")):
        with pytest.raises(ValueError, match=name):
            super_occupancy_coefficient((0,), two_s, nsites, (1, 1))
        with pytest.raises(ValueError, match=name):
            super_occupancy_table(two_s, nsites, (1, 1))


def test_hook_store_reads_by_block_sorted_exponents():
    # the store keeps one count per block-sorted exponent vector; every
    # rearrangement within the even block and within the odd block must read
    # the same count, and a vector with an exponent below zero reads zero
    for shape in ((2, 1), (1, 2), (2, 2), (3, 1), (2, 3)):
        m, n = shape
        for two_s in (1, 2):
            for nsites in range(1, 6):
                spins = (two_s,) * nsites
                total = two_s * nsites
                store = hook_table(spins, shape)

                def exponents_of(m_vec):
                    chain = (total,) + m_vec + (0,)
                    return tuple(chain[a] - chain[a + 1] for a in range(m + n))

                inside = list(standard_m_vectors(m + n - 1, total))
                outside = [
                    m_vec[:a] + (value,) + m_vec[a + 1 :]
                    for m_vec in inside for a in range(m + n - 1) for value in (-1, total + 1)
                ]
                counts = matrix_counts(inside + outside, spins, shape)
                for m_vec, count in zip(inside, counts):
                    exponents = exponents_of(m_vec)
                    assert store.count(exponents) == count, (shape, spins, m_vec)
                    for evens in set(permutations(exponents[:m])):
                        for odds in set(permutations(exponents[m:])):
                            assert store.count(evens + odds) == count, (shape, spins, evens, odds)
                for m_vec, count in zip(outside, counts[len(inside):]):
                    # a weight vector outside the range has a negative exponent
                    assert min(exponents_of(m_vec)) < 0
                    assert store.count(exponents_of(m_vec)) == 0 == count, (shape, spins, m_vec)


def test_orbit_lists_each_rearrangement_once():
    # a thousand entries: one loop per distinct value, no stack per entry
    orbit = list(occupancy_mod._orbit((1,) + (0,) * 1000))
    assert len(set(orbit)) == len(orbit) == 1001
    for block in ((), (0,), (2, 1, 1, 0), (3, 3, 1, 0, 0)):
        orbit = list(occupancy_mod._orbit(block))
        assert len(orbit) == len(set(orbit)) and set(orbit) == set(permutations(block))


def test_pull_reads_only_monomials_under_the_chamber(monkeypatch):
    # every read of the pull subtracts a monomial at or below its chamber,
    # so none lands at a negative exponent; the counts are pinned (the
    # support index read 750, 359, 502, 102,033 and 24,333 times)
    reads = []
    chamber = occupancy_mod._chamber

    def counted(exponents, m):
        reads.append(min(exponents, default=0))
        return chamber(exponents, m)

    monkeypatch.setattr(occupancy_mod, "_chamber", counted)
    for spins, shape, cap, expected in (
        ((3,) * 4, (4, 0), None, 531),
        ((2,) * 4, (2, 2), None, 322),
        ((3,) * 3, (3, 1), None, 346),
        ((4,) * 8, (5, 0), None, 79_939),
        ((4,) * 8, (5, 0), (12, 8, 6, 4, 2), 18_083),
    ):
        reads.clear()
        occupancy_mod._pull(spins, shape, cap)
        assert len(reads) == expected, (spins, shape, cap)
        assert min(reads) >= 0, (spins, shape, cap)
    # at degree 1 a chamber with e nonzero entries reads exactly e monomials,
    # the unit vectors inside its support, even at rank 1000
    for e in (0, 1, 2, 500, 1000, 1001):
        clipped = (1,) * e + (0,) * (1001 - e)
        under = occupancy_mod._monomials_under(1, (1001, 0), clipped)
        assert sorted(p.index(1) for p in under) == list(range(e))


def test_symmetry_identities_small_grid():
    for rank in (1, 2, 3):
        for two_s in (1, 2, 3):
            for nsites in (1, 3, 5):
                assert swap_violations((two_s,) * nsites, rank) == []


def test_rank_one_palindrome():
    for two_s in (1, 2, 3):
        for nsites in (2, 5):
            total = two_s * nsites
            spins = (two_s,) * nsites
            for m in range(total + 1):
                assert occupancy_coefficient((m,), spins) == occupancy_coefficient(
                    (total - m,), spins
                )


# Point reads: the pull capped at the chamber being read.
def test_capped_read_equals_full_read():
    # every weight vector with entries from -1 to total + 1, so negative and
    # out-of-range ones too; equal and mixed degree lists, zero-degree sites
    # included, kept small enough that the box stays under 1,300 vectors
    spin_lists = {
        1: [(2, 2, 2), (3, 0, 1, 2), (0,)],
        2: [(2, 2, 2), (3, 0, 1, 2), (0, 0)],
        3: [(1, 1, 1, 1), (2, 0, 1, 1)],
        4: [(1, 1, 1), (2, 0, 1)],
    }
    shapes = [(r + 1, 0) for r in range(1, 5)] + [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]
    for shape in shapes:
        nentries = sum(shape) - 1
        for spins in spin_lists[nentries]:
            table = occupancy_mod._weight_table(spins, shape)
            m_vecs = list(product(range(-1, sum(spins) + 2), repeat=nentries))
            for m_vec, counted in zip(m_vecs, matrix_counts(m_vecs, spins, shape)):
                count = hook_coefficient(m_vec, spins, shape)
                assert count == table.get(m_vec, 0) == counted, (shape, spins, m_vec)
    # point reads leave the latest uncapped pull's counts in place
    store = hook_table((2, 2, 2), (2, 1))
    counts = occupancy_mod._latest_pull[2]
    hook_coefficient((3, 1), (1, 2, 1), (2, 1))
    assert occupancy_mod._latest_pull[:2] == ((2, 1), (2, 2, 2))
    assert occupancy_mod._latest_pull[2] is counts == store.chambers


def test_resumed_store_equals_a_fresh_pull(monkeypatch):
    """A store whose degree list equals or extends the latest uncapped
    pull's in the same shape pulls only its new sites; every store equals
    one pulled from no sites, across zero degrees, a repeated list, a shape
    switch and a list that is no extension.  A point read leaves the record
    as it was."""
    pulled = []
    pull = occupancy_mod._pull

    def counted(spins, shape, cap=None, done=(), counts=None):
        pulled.append(spins)
        return pull(spins, shape, cap, done, counts)

    sequence = (
        ((2, 0), (2, 1), (2, 0)),  # a first list
        ((2, 0, 0, 3), (2, 1), (0, 3)),  # extends it
        ((2, 0, 0, 3, 0), (2, 1), (0,)),  # extends it by a zero degree
        ((2, 0, 0, 3, 0), (2, 1), ()),  # repeats it: no site
        ((2, 0, 0, 3, 0, 1, 2), (2, 1), (1, 2)),
        ((2, 0, 0, 3, 0, 1, 2, 2), (3, 0), (2, 0, 0, 3, 0, 1, 2, 2)),  # a shape switch
        ((2, 0, 0, 3, 0, 1, 2, 2, 1), (3, 0), (1,)),
        ((2, 0, 1), (3, 0), (2, 0, 1)),  # a prefix: no extension
        ((2, 1, 1), (3, 0), (2, 1, 1)),  # no extension
        ((2, 1, 1, 4), (3, 0), (4,)),
    )
    expected = [pull(spins, shape) for spins, shape, _ in sequence]
    monkeypatch.setattr(occupancy_mod, "_latest_pull", (None, (), None))
    monkeypatch.setattr(occupancy_mod, "_pull", counted)
    for (spins, shape, new), want in zip(sequence, expected):
        pulled.clear()
        assert hook_table(spins, shape).chambers == want, (spins, shape)
        assert pulled == [new], (spins, shape)
        # point reads in this and another shape pull capped, beside the record
        record = occupancy_mod._latest_pull
        assert record[:2] == (shape, spins)
        assert [hook_coefficient((3, 1), spins + (1,), (2, 1))] == matrix_counts(
            [(3, 1)], spins + (1,), (2, 1)
        )
        assert hook_coefficient((2, 1), (2, 1), (3, 0)) == 3  # x1 x2 x3 in h_2 h_1
        assert occupancy_mod._latest_pull is record


def test_point_reads_build_no_whole_store(capsys, monkeypatch):
    spins = hook_spins(4, 8)
    shape = (5, 0)
    full = hook_table(spins, shape)
    assert len(full.chambers) == 831

    def refuse(*args):
        raise AssertionError("a point read built a whole store")

    monkeypatch.setattr(occupancy_mod, "hook_table", refuse)
    assert occupancy_coefficient((20, 12, 6, 2), spins) == full.count((12, 8, 6, 4, 2))
    assert super_occupancy_coefficient((2, 1), 1, 6, (2, 1)) == 30
    argv = ["occupancy", "--algebra", "A4", "--twoS", "4", "--L", "8", "--M", "20,12,6,2"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["c"] == str(full.count((12, 8, 6, 4, 2)))

    # the capped pull keeps one top-level chamber, the cap, where the whole
    # store keeps 831, and it reads fewer than a quarter of the chambers
    reads = []
    chamber = occupancy_mod._chamber

    def counted(exponents, m):
        reads.append(1)
        return chamber(exponents, m)

    monkeypatch.setattr(occupancy_mod, "_chamber", counted)
    occupancy_mod._pull(spins, shape)
    full_reads = len(reads)
    # a chamber reads only the monomials under it (144,690 reads when every
    # monomial was read, 102,033 when those inside its support were)
    assert full_reads <= 80_000
    reads.clear()
    cap = (12, 8, 6, 4, 2)
    assert occupancy_mod._pull(spins, shape, cap) == {cap: full.count((12, 8, 6, 4, 2))}
    assert 4 * len(reads) < full_reads
