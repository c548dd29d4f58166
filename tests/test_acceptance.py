"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (run with -s to see them live) and holds
the stated wall-clock budget.  All value comparisons are exact integer
equality.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from math import comb

from tensormult import verify
from tensormult.diffformula import (
    even_branching_multiplicity,
    super_branching_multiplicity_from_m,
    super_multiplicity,
    super_multiplicity_from_m,
)
from tensormult.occupancy import (
    occupancy_coefficient,
    standard_m_vectors,
    super_occupancy_table,
)
from tensormult.oracle import matrix_count
from tensormult.partitions import (
    conjugate,
    hook_from_super_m,
    partitions_of,
)


@contextmanager
def budget(number, limit_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d}: PASS ({elapsed:.2f}s, budget {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_01_hook_21_table():
    with budget(1, 1.0):
        for m_vec, (lam, mu) in verify.HOOK_21_TABLE.items():
            assert hook_from_super_m(m_vec, 6, (2, 1)) == lam
            assert super_multiplicity_from_m(m_vec, 1, 6, (2, 1)) == mu
        # and no other diagram appears
        total = sum(
            mu
            for m_vec in standard_m_vectors(2, 6)
            for mu in [super_multiplicity_from_m(m_vec, 1, 6, (2, 1))]
            if _labels(m_vec, (2, 1))
        )
        assert total == sum(mu for _, mu in verify.HOOK_21_TABLE.values())


def _labels(m_vec, shape):
    try:
        hook_from_super_m(m_vec, 6, shape)
        return True
    except Exception:
        return False


def test_criterion_02_hook_12_table_and_duality():
    with budget(2, 1.0):
        for m_vec, (lam, mu) in verify.HOOK_12_TABLE.items():
            assert super_multiplicity_from_m(m_vec, 1, 6, (1, 2)) == mu
            # mirror of the (2, 1) decomposition under diagram conjugation
            assert super_multiplicity(conjugate(lam), 1, 6, (2, 1)) == mu
        assert verify.HOOK_12_TABLE[(4, 2)] == ((2, 2, 2), 5)


def test_criterion_03_branching_tables():
    with budget(3, 5.0):
        cases = (
            (verify.SUB_EVEN, verify.EVEN_PAIR_TABLE),
            (verify.SUB_ODD_TAIL, verify.ODD_TAIL_TABLE),
            (verify.SUB_ODD_SPAN, verify.ODD_SPAN_TABLE),
        )
        assert [len(t) for _, t in cases] == [16, 22, 22]
        for sub, table in cases:
            for m_vec, (_, mu) in table.items():
                assert super_branching_multiplicity_from_m(m_vec, sub, 1, 6) == mu
        assert verify.EVEN_PAIR_TABLE[(3, 2)] == ((3, 1), 45)
        assert verify.ODD_TAIL_TABLE[(5, 2)] == ((3, 1, 1), 36)
        assert verify.ODD_SPAN_TABLE[(3, 1)] == ((3, 1), 45)


def test_criterion_04_difference_formula_vs_oracles():
    with budget(4, 600.0):
        assert verify.tensor_sweep_violations(
            ranks=(1, 2, 3),
            two_s_values=(1, 2, 3, 4),
            nsites_values=(1, 2, 3, 4, 5, 6),
        ) == []


def test_criterion_05_hook_length_identity():
    with budget(5, 60.0):
        assert verify.hook_length_violations(rank_max=4, nsites_max=8) == []


def test_criterion_06_two_factor_strips():
    with budget(6, 60.0):
        assert verify.pieri_pair_violations(two_s_prime_max=6, rank_max=3) == []


def test_criterion_07_swap_identities():
    with budget(7, 60.0):
        assert verify.symmetry_violations(
            rank_max=3, two_s_max=3, nsites_max=5
        ) == []


def test_criterion_08_rank_one_closed_form():
    with budget(8, 60.0):
        assert verify.rank_one_violations(two_s_max=6, nsites_max=12) == []


def test_criterion_09_smallest_hooks_closed_forms():
    with budget(9, 60.0):
        # single even and odd variable: alternating binomial sums, any degree
        for two_s in (1, 2):
            for nsites in range(1, 21):
                total = two_s * nsites
                for m in range(total):
                    lam = (total - m,) + (1,) * m
                    expected = sum(
                        (-1) ** i * comb(nsites, m - i) for i in range(m + 1)
                    )
                    assert super_multiplicity(lam, two_s, nsites, (1, 1)) == expected
        # (2, 1) shape: truncated series equals the two-product closed form
        for nsites in range(1, 11):
            for m1 in range(nsites + 1):
                for m2 in range(m1 + 1):
                    closed = _bino(nsites, m1) * _bino(m1 - 1, m2) - _bino(
                        nsites, m1 - m2 - 1
                    ) * _bino(nsites - m1 + m2, m2)
                    assert (
                        super_multiplicity_from_m((m1, m2), 1, nsites, (2, 1))
                        == closed
                    )


def _bino(n, k):
    if k == 0:
        return 1
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def test_criterion_10_hook_conjecture_sweep():
    with budget(10, 600.0):
        assert verify.super_conjecture_violations(
            shapes=((1, 1), (2, 1), (1, 2), (2, 2)),
            two_s_values=(1, 2),
            nsites_max=6,
        ) == []


def test_criterion_11_even_block_grading():
    with budget(11, 60.0):
        expected = {
            (0, (6,)): 1, (0, (5, 1)): 5, (0, (4, 2)): 9, (0, (3, 3)): 5,
            (1, (5,)): 6, (1, (4, 1)): 24, (1, (3, 2)): 30,
            (2, (4,)): 15, (2, (3, 1)): 45, (2, (2, 2)): 30,
            (3, (3,)): 20, (3, (2, 1)): 40,
            (4, (2,)): 15, (4, (1, 1)): 15,
            (5, (1,)): 6,
            (6, ()): 1,
        }
        seen = {}
        for charge in range(7):
            for lam in partitions_of(6 - charge, max_rows=2):
                mu = even_branching_multiplicity(lam, charge, 1, 6, 2)
                if mu:
                    seen[(charge, lam)] = mu
        assert seen == expected


def test_criterion_12_backends_and_determinism():
    with budget(12, 600.0):
        # the count store against the independent matrix count
        assert verify.store_oracle_violations(
            rank_max=3, two_s_max=4, nsites_max=6, samples=200
        ) == []
        for shape in ((1, 1), (2, 1), (2, 2)):
            for nsites in (1, 4, 6):
                table = super_occupancy_table(1, nsites, shape)
                for m_vec in standard_m_vectors(sum(shape) - 1, nsites):
                    assert table.get(m_vec, 0) == matrix_count(m_vec, (1,) * nsites, shape)
        cmd = [
            sys.executable, "-m", "tensormult.cli", "multiplicity", "--algebra",
            "A3", "--twoS", "2", "--L", "4", "--table", "--check",
        ]
        runs = [subprocess.run(cmd, capture_output=True, check=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout and runs[0].stdout
