import ast
from pathlib import Path

import pytest

import tensormult.oracle
from tensormult.errors import SizeMismatch
from tensormult.occupancy import occupancy_coefficient
from tensormult.oracle import (
    hook_length_dimension,
    hook_schur_expansion,
    horizontal_strip_additions,
    kostka,
    matrix_count,
    schur_expansion,
    schur_expansion_pieri,
    weyl_dimension,
)
from tensormult.partitions import m_from_lambda, partitions_of
from tensormult.sympoly import schur_tableaux


def test_schur_expansion_examples():
    assert schur_expansion((1, 1), 1) == {(2,): 1, (1, 1): 1}
    assert schur_expansion((1,) * 6, 2)[(3, 2, 1)] == 16
    assert schur_expansion((2, 2), 1) == {(4,): 1, (3, 1): 1, (2, 2): 1}


def test_pieri_expansion_examples():
    for two_s in (1, 2, 3):
        expected = {
            ((2 * two_s - k + two_s, k) if k else (2 * two_s,)): 1
            for k in range(two_s + 1)
        }
        expected = {
            ((2 * two_s - k, k) if k else (2 * two_s,)): 1 for k in range(two_s + 1)
        }
        assert schur_expansion_pieri((two_s, two_s), 3) == expected
    assert schur_expansion_pieri((3,), 2) == {(3,): 1}
    # mixed degrees: one strip per added-row size
    assert schur_expansion_pieri((3, 2), 3) == {
        (5,): 1, (4, 1): 1, (3, 2): 1,
    }


def test_oracles_agree_on_small_grid():
    for rank in (1, 2):
        for two_s in (1, 2, 3):
            for nsites in range(1, 5):
                spins = (two_s,) * nsites
                assert schur_expansion(spins, rank) == schur_expansion_pieri(
                    spins, rank
                )
    for spins in ((2, 1), (1, 2, 3), (2, 1, 1, 3)):
        for rank in (1, 2, 3):
            assert schur_expansion(spins, rank) == schur_expansion_pieri(spins, rank)


def test_horizontal_strips():
    assert set(horizontal_strip_additions((), 2, 2)) == {(2,)}
    assert set(horizontal_strip_additions((1,), 1, 2)) == {(2,), (1, 1)}
    assert set(horizontal_strip_additions((2, 1), 2, 2)) == {(4, 1), (3, 2)}
    assert set(horizontal_strip_additions((2, 1), 2, 3)) == {
        (4, 1), (3, 2), (3, 1, 1), (2, 2, 1),
    }
    # row cap drops tall diagrams
    assert set(horizontal_strip_additions((1, 1), 1, 2)) == {(2, 1)}


def test_hook_schur_expansion_six_factors():
    expected_21 = {
        (6,): 1, (5, 1): 5, (4, 2): 9, (4, 1, 1): 10, (3, 3): 5, (3, 2, 1): 16,
        (3, 1, 1, 1): 10, (2, 2, 1, 1): 9, (2, 1, 1, 1, 1): 5,
        (1, 1, 1, 1, 1, 1): 1,
    }
    assert hook_schur_expansion(1, 6, (2, 1)) == expected_21
    expected_12 = {
        (6,): 1, (5, 1): 5, (4, 2): 9, (4, 1, 1): 10, (3, 2, 1): 16,
        (3, 1, 1, 1): 10, (2, 1, 1, 1, 1): 5, (2, 2, 1, 1): 9, (2, 2, 2): 5,
        (1, 1, 1, 1, 1, 1): 1,
    }
    assert hook_schur_expansion(1, 6, (1, 2)) == expected_12
    for two_s in (1, 2, 3):
        assert hook_schur_expansion(two_s, 1, (2, 1)) == {(two_s,): 1}


def test_kostka_examples():
    for lam in partitions_of(6):
        assert kostka(lam, lam) == 1
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 1), (2, 1, 1)) == 2
    with pytest.raises(SizeMismatch):
        kostka((2, 1), (2, 2))


def test_kostka_change_of_basis():
    # monomial coefficients recovered from multiplicities through tableau counts
    for rank in (1, 2):
        for two_s in (1, 2):
            for nsites in range(1, 5):
                spins = (two_s,) * nsites
                total = two_s * nsites
                mus = schur_expansion(spins, rank)
                for lam in partitions_of(total, max_rows=rank + 1):
                    direct = occupancy_coefficient(
                        m_from_lambda(lam, rank, total), spins
                    )
                    assert direct == sum(
                        kostka(nu, lam) * mu for nu, mu in mus.items()
                    )


def test_hook_length_dimension_examples():
    assert hook_length_dimension((3, 2, 1), 6) == 16
    assert hook_length_dimension((7,), 7) == 1
    assert hook_length_dimension((1,) * 5, 5) == 1
    assert hook_length_dimension((2, 2), 4) == 2
    with pytest.raises(SizeMismatch):
        hook_length_dimension((2, 2), 5)


def test_weyl_dimension_matches_tableau_count():
    for total in range(0, 7):
        for nvars in (2, 3):
            for lam in partitions_of(total, max_rows=nvars):
                count = sum(schur_tableaux(lam, nvars).terms.values())
                assert weyl_dimension(lam, nvars) == count


def test_oracle_imports_nothing_of_the_shift_route():
    """The oracles share no code or cache with the route they check: only
    spin_tuple comes from occupancy, nothing from diffformula or weyl."""
    tree = ast.parse(Path(tensormult.oracle.__file__).read_text())
    from_occupancy = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module, names = node.module.split(".")[-1], {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module, names = None, {a.name.split(".")[-1] for a in node.names}
        else:
            continue
        assert module not in ("diffformula", "weyl")
        assert not names & {"occupancy", "diffformula", "weyl"}
        if module == "occupancy":
            from_occupancy |= names
    assert from_occupancy == {"spin_tuple"}


def test_matrix_count_examples():
    # six degree-one sites in three variables: multinomial counts
    assert matrix_count((3, 1), (1,) * 6, (3, 0)) == 60
    # one even and one odd variable: a binomial, whatever the degree
    for two_s in (1, 2, 3):
        assert matrix_count((2,), (two_s,) * 5, (1, 1)) == 10
    assert matrix_count((2, 1), (1,) * 6, (2, 1)) == 30
    assert matrix_count((-1,), (1,) * 4, (2, 0)) == 0
    with pytest.raises(ValueError):
        matrix_count((1,), (1, 1), (2, 1))
