import ast
import random
from math import comb
from itertools import accumulate, permutations, product
from operator import sub
from pathlib import Path

import pytest

import tensormult.oracle
import tensormult.sympoly
from tensormult.errors import SizeMismatch
from tensormult.occupancy import occupancy_coefficient, occupancy_table, standard_m_vectors
from tensormult.oracle import (
    hook_length_dimension,
    hook_schur_expansion,
    horizontal_strip_additions,
    kostka,
    matrix_counts,
    monomial_counts,
    pieri_expansion,
    schur_expansion,
    schur_expansion_pieri,
    weyl_dimension,
)
from tensormult.partitions import hook_partitions_of, m_from_lambda, partitions_of
from tensormult.sympoly import hook_schur


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
    assert set(horizontal_strip_additions((), 2, (2, 0))) == {(2,)}
    assert set(horizontal_strip_additions((1,), 1, (2, 0))) == {(2,), (1, 1)}
    assert set(horizontal_strip_additions((2, 1), 2, (2, 0))) == {(4, 1), (3, 2)}
    assert set(horizontal_strip_additions((2, 1), 2, (3, 0))) == {
        (4, 1), (3, 2), (3, 1, 1), (2, 2, 1),
    }
    # row cap drops tall diagrams
    assert set(horizontal_strip_additions((1, 1), 1, (2, 0))) == {(2, 1)}
    # the hook cut: rows after the m-th hold at most n cells
    assert set(horizontal_strip_additions((2, 1), 2, (1, 1))) == {(4, 1), (3, 1, 1)}
    assert set(horizontal_strip_additions((2, 1), 2, (1, 2))) == {
        (4, 1), (3, 2), (3, 1, 1), (2, 2, 1),
    }


def test_horizontal_strips_equal_their_definition():
    # brute force: every hook diagram nu of size |lam| + b that contains lam
    # and has lam_i >= nu_{i+1} for every i
    for shape in ((2, 0), (3, 0), (1, 1), (2, 1), (1, 2), (2, 2)):
        for size in range(7):
            inside = set(hook_partitions_of(size, shape))
            for lam in partitions_of(size):
                for boxes in range(5):
                    strips = horizontal_strip_additions(lam, boxes, shape)
                    if lam not in inside:
                        assert strips == [], (shape, lam, boxes)
                        continue
                    pad = (0,) * (size + boxes)
                    expected = {
                        nu for nu in hook_partitions_of(size + boxes, shape)
                        if all(a <= b for a, b in zip(lam, nu + pad))
                        and all(a >= b for a, b in zip(lam + pad, nu[1:]))
                    }
                    assert len(strips) == len(set(strips)), (shape, lam, boxes)
                    assert set(strips) == expected, (shape, lam, boxes)


def test_pieri_fold_obeys_the_dimension_count():
    # at benchmark size: the fold's multiplicities weighted by dimension give
    # the dimension C(d + m - 1, d)^L of the tensor power
    for two_s, nsites, nvars in ((6, 8, 3), (4, 8, 4), (3, 7, 5)):
        mults = pieri_expansion((two_s,) * nsites, (nvars, 0))
        assert sum(mu * weyl_dimension(lam, nvars) for lam, mu in mults.items()) == (
            comb(two_s + nvars - 1, two_s) ** nsites
        )


def test_hook_schur_expansion_six_factors():
    expected_21 = {
        (6,): 1, (5, 1): 5, (4, 2): 9, (4, 1, 1): 10, (3, 3): 5, (3, 2, 1): 16,
        (3, 1, 1, 1): 10, (2, 2, 1, 1): 9, (2, 1, 1, 1, 1): 5,
        (1, 1, 1, 1, 1, 1): 1,
    }
    expected_12 = {
        (6,): 1, (5, 1): 5, (4, 2): 9, (4, 1, 1): 10, (3, 2, 1): 16,
        (3, 1, 1, 1): 10, (2, 1, 1, 1, 1): 5, (2, 2, 1, 1): 9, (2, 2, 2): 5,
        (1, 1, 1, 1, 1, 1): 1,
    }
    for expand in (
        hook_schur_expansion,
        lambda two_s, nsites, shape: pieri_expansion((two_s,) * nsites, shape),
    ):
        assert expand(1, 6, (2, 1)) == expected_21
        assert expand(1, 6, (1, 2)) == expected_12
        for two_s in (1, 2, 3):
            assert expand(two_s, 1, (2, 1)) == {(two_s,): 1}


def test_pieri_fold_equals_both_oracles():
    # the hook cut against the greedy decomposition, which shares no code with it
    for shape in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)):
        for two_s in (0, 1, 2):
            for nsites in range(1, 6):
                assert pieri_expansion((two_s,) * nsites, shape) == hook_schur_expansion(
                    two_s, nsites, shape
                )
    # at n = 0 the fold is the ordinary expansion in rank + 1 variables
    for rank in (1, 2, 3):
        for two_s in range(4):
            for nsites in range(1, 6):
                spins = (two_s,) * nsites
                assert pieri_expansion(spins, (rank + 1, 0)) == schur_expansion(spins, rank)


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
    """Diagrams with more rows than variables have no tableau and no
    irreducible: their dimension is 0."""
    for total in range(0, 7):
        for nvars in (0, 1, 2, 3):
            for lam in partitions_of(total, max_rows=nvars + 2):
                count = sum(hook_schur(lam, (nvars, 0)).terms.values())
                assert weyl_dimension(lam, nvars) == count, (lam, nvars)
    for lam, nvars in (((1, 1, 1), 2), ((2, 1, 1), 2), ((3, 2, 1, 1), 3), ((1,), 0)):
        assert weyl_dimension(lam, nvars) == 0


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


def test_oracles_take_no_diagrams_from_the_route_enumerators():
    """The oracles list their own diagrams: neither oracle nor sympoly imports
    or names the cached enumerators that the route, its labels and verify's
    "no row" lists share, so a diagram they miss cannot hide from a check."""
    shared = {"partitions_of", "hook_partitions_of"}
    for module in (tensormult.oracle, tensormult.sympoly):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name.split(".")[-1] for a in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            assert not names & shared, (module.__name__, names)


def test_matrix_count_examples():
    # six degree-one sites in three variables: multinomial counts
    assert matrix_counts([(3, 1)], (1,) * 6, (3, 0)) == [60]
    # one even and one odd variable: a binomial, whatever the degree
    for two_s in (1, 2, 3):
        assert matrix_counts([(2,)], (two_s,) * 5, (1, 1)) == [10]
    assert matrix_counts([(2, 1)], (1,) * 6, (2, 1)) == [30]
    assert matrix_counts([(-1,)], (1,) * 4, (2, 0)) == [0]
    assert matrix_counts([], (1,) * 4, (2, 0)) == []
    with pytest.raises(ValueError):
        matrix_counts([(1,)], (1, 1), (2, 1))


def test_matrix_count_memo_is_order_free():
    """One call over a shuffled list of weight vectors equals the call in
    the given order, and one call per vector: the memo a call shares among
    its vectors does not depend on the vector a subcount was reached from."""
    rng = random.Random(11)
    groups = []
    for shape in ((2, 0), (3, 0), (4, 0), (1, 1), (2, 1), (1, 2), (3, 2), (2, 3)):
        width = sum(shape)
        base = tuple(rng.randint(0, 3) for _ in range(6))
        # prefixes and suffixes of one degree list, and mixed lists with 0 degrees
        lists = [base[:k] for k in range(7)] + [base[k:] for k in range(1, 6)]
        lists += [tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 5)))
                  for _ in range(4)]
        for spins in lists:
            total = sum(spins)
            m_vecs = []
            for _ in range(8):
                # weights past either end of the range count zero
                m_vec = tuple(rng.randint(-2, total + 2) for _ in range(width - 1))
                if rng.random() < 0.7:
                    m_vec = tuple(sorted(m_vec, reverse=True))
                m_vecs.append(m_vec)
            groups.append((m_vecs, spins, shape))
    expected = [matrix_counts(*group) for group in groups]
    assert any(map(any, expected)) and not all(map(all, expected))
    for (m_vecs, spins, shape), counts in zip(groups, expected):
        assert counts == [matrix_counts([m_vec], spins, shape)[0] for m_vec in m_vecs]
        order = list(range(len(m_vecs)))
        rng.shuffle(order)
        shuffled = matrix_counts([m_vecs[i] for i in order], spins, shape)
        assert shuffled == [counts[i] for i in order], (spins, shape)
    # columns of one block count alike in either order: (4, 2) and (2, 4)
    assert matrix_counts([(2,), (4,)], (3, 3), (2, 0)) == [3, 3]


def test_matrix_count_recurses_only_on_a_memo_miss(monkeypatch):
    """Within one call over a degree list each subcount enumerates its rows
    at most once, and the last row is never enumerated; a second call counts
    afresh, to the same counts, as nothing outlives a call."""
    enumerate_rows = tensormult.oracle._rows
    calls = []

    def counted(degree, columns, evens, lists):
        calls.append(columns)
        return enumerate_rows(degree, columns, evens, lists)

    monkeypatch.setattr(tensormult.oracle, "_rows", counted)
    for shape in ((3, 0), (2, 1), (1, 2)):
        # no zero degree, so the open column sums' total names the site
        for spins in ((2,) * 4, (2,) * 5, (1, 2, 2, 2), (3, 1, 2, 2, 2)):
            m_vecs = list(standard_m_vectors(sum(shape) - 1, sum(spins)))
            calls.clear()
            first = matrix_counts(m_vecs, spins, shape)
            made = list(calls)
            assert len(set(made)) == len(made), (spins, shape)
            assert all(sum(columns) > spins[-1] for columns in made)
            calls.clear()
            assert matrix_counts(m_vecs, spins, shape) == first
            assert calls == made  # nothing kept from the first call
    assert made


def test_matrix_count_memo_is_symmetric_within_blocks(monkeypatch):
    """The memo keys the open column sums sorted within the even and within
    the odd block: every arrangement of one weight's exponents counts alike,
    and one call over all of them enumerates as many row lists as a call
    over one."""
    enumerate_rows = tensormult.oracle._rows
    calls = []

    def counted(degree, columns, evens, lists):
        calls.append(columns)
        return enumerate_rows(degree, columns, evens, lists)

    monkeypatch.setattr(tensormult.oracle, "_rows", counted)
    for shape, spins, exponents in (((4, 0), (2,) * 4, (3, 2, 2, 1)),
                                    ((3, 2), (2, 2, 1, 2), (3, 1, 1, 1, 1)),
                                    ((2, 3), (1, 3, 2), (2, 1, 1, 1, 1))):
        m = shape[0]
        m_vecs = [tuple(sum(e[a:]) for a in range(1, len(e)))
                  for e in (evens + odds for evens in set(permutations(exponents[:m]))
                            for odds in set(permutations(exponents[m:])))]
        calls.clear()
        [one] = matrix_counts(m_vecs[:1], spins, shape)
        alone = len(calls)
        calls.clear()
        assert matrix_counts(m_vecs, spins, shape) == [one] * len(m_vecs), shape
        assert len(calls) == alone and one and len(m_vecs) > 1, shape


def test_matrix_count_rows_fit_under_the_open_column_sums(monkeypatch):
    """Every row the enumerator yields leaves every column sum nonnegative and
    its odd entries 0 or 1, on a deep count and on one backends grid cell."""
    enumerate_rows = tensormult.oracle._rows
    calls = []

    def checked(degree, columns, evens, lists):
        rows = enumerate_rows(degree, columns, evens, lists)
        calls.append(len(rows))
        for row in rows:
            assert sum(row) == degree, (degree, columns, row)
            assert min(map(sub, columns, row)) >= 0, (columns, row)
            assert max(row[evens:], default=0) <= 1, (columns, evens, row)
        return rows

    monkeypatch.setattr(tensormult.oracle, "_rows", checked)
    assert matrix_counts([(24, 16, 8, 4)], (12, 12, 12), (5, 0)) == [299799]
    assert sum(calls) > 1
    calls.clear()
    spins = (4,) * 6
    m_vecs = list(standard_m_vectors(3, 24))
    counts = matrix_counts(m_vecs, spins, (4, 0))
    assert {m_vec: c for m_vec, c in zip(m_vecs, counts) if c} == occupancy_table(spins, 3)
    assert calls
    # and in hook variables, where the odd columns cap their entries at 1
    calls.clear()
    assert matrix_counts([(2, 1)], (1,) * 6, (2, 1)) == [30]
    assert calls


def test_alternant_extended_across_a_power_of_two_total():
    """Each list extends the latest in the same variables, and the largest
    exponent of the running product crosses 8, 16 and 32, so the packed
    product's field width changes between extensions; each expansion still
    equals the Pieri fold."""
    tensormult.oracle._latest.clear()
    spins, widths = (), set()
    for two_s in (3, 2, 4, 1, 7, 9, 0, 16):
        spins += (two_s,)
        assert schur_expansion(spins, 2) == schur_expansion_pieri(spins, 2), spins
        shape, done, poly = tensormult.oracle._latest["product"]
        assert (shape, done) == ((3, 0), spins)
        widths.add(max(map(max, poly.terms)).bit_length())
    assert widths >= {3, 4, 5, 6}


def test_alternant_extends_only_its_latest_product(monkeypatch):
    """The running product is reused only for an extension of the latest
    degree list in the same variables; every result equals a fresh one."""
    products = []
    original = tensormult.oracle.hook_schur

    def counted(lam, shape):
        products.append(lam)
        return original(lam, shape)

    def fresh(spins, rank):
        tensormult.oracle._latest.clear()
        return schur_expansion(spins, rank)

    sequence = (
        ((2, 1), 2, 2),  # a first list
        ((2, 1, 3, 0), 2, 2),  # extends it: two new factors
        ((2, 1, 3, 0), 2, 0),  # the same list again
        ((1, 2), 2, 2),  # not an extension: rebuilt
        ((1, 2, 2), 3, 3),  # another rank: rebuilt
        ((1, 2), 3, 2),  # a prefix of the latest: rebuilt
        ((), 3, 0),
        ((1, 1), 3, 2),
        ((2, 2, 1), 3, 3),  # longer, but not an extension: rebuilt
    )
    expected = [fresh(spins, rank) for spins, rank, _ in sequence]
    assert expected[1] == schur_expansion_pieri((2, 1, 3, 0), 2)
    tensormult.oracle._latest.clear()
    monkeypatch.setattr(tensormult.oracle, "hook_schur", counted)
    for (spins, rank, new_factors), want in zip(sequence, expected):
        products.clear()
        assert schur_expansion(spins, rank) == want, (spins, rank)
        assert len(products) == new_factors, (spins, rank)


def _fresh_monomial_counts(spins, shape):
    tensormult.oracle._latest.clear()
    return dict(monomial_counts(spins, shape))


def test_monomial_counts_equal_the_matrix_count():
    """The table holds the matrix count at every weight vector, keyed by its
    exponents, and nothing else: every weight vector of a box reaching past
    either end of the range reads the matrix count, which is 0 outside it."""
    spin_lists = ((2, 0, 1), (0, 3, 1, 0), (1, 1, 2), (0,), ())
    for shape in ((2, 0), (4, 0), (1, 1), (2, 1), (2, 2)):
        for spins in spin_lists:
            table = _fresh_monomial_counts(spins, shape)
            total = sum(spins)
            assert all(
                min(expv) >= 0 and sum(expv) == total and count > 0
                for expv, count in table.items()
            ), (shape, spins)
            seen = 0
            m_vecs = list(product(range(-1, total + 2), repeat=sum(shape) - 1))
            for m_vec, count in zip(m_vecs, matrix_counts(m_vecs, spins, shape)):
                chain = (total,) + m_vec + (0,)
                exponents = tuple(map(sub, chain, chain[1:]))
                assert table.get(exponents, 0) == count, (shape, spins, m_vec)
                seen += exponents in table
            assert seen == len(table), (shape, spins)


def test_pieri_expansion_extends_only_its_latest_fold(monkeypatch):
    """The running fold is reused only for an extension of the latest degree
    list in the same shape; every fold equals one built from a cleared
    cache, and none can be written to."""
    factors = []
    original = tensormult.oracle._add_strips

    def counted(fold, boxes, shape):
        factors.append(boxes)
        return original(fold, boxes, shape)

    sequence = (
        ((2, 0), (2, 1)),  # a first list, a zero degree among it
        ((2, 0, 3, 1), (2, 1)),  # extends it: two new factors
        ((2, 0, 3, 1), (2, 1)),  # the same list again
        ((2, 0, 3, 1, 0, 4), (2, 1)),  # extends it by a zero and a 4
        ((2, 0, 3, 1, 0, 4), (3, 0)),  # another shape: rebuilt
        ((2, 0, 3), (3, 0)),  # shrinks: rebuilt
        ((2, 0, 3, 5), (3, 0)),  # extends it
        ((1, 2), (3, 0)),  # not an extension: rebuilt
        ((2, 2, 1), (3, 0)),  # longer, but not an extension: rebuilt
        ((), (3, 0)),  # no factors: the empty diagram
    )
    new_factors = (2, 2, 0, 2, 6, 3, 1, 2, 3, 0)

    def fresh(spins, shape):
        tensormult.oracle._latest.clear()
        return dict(pieri_expansion(spins, shape))

    expected = [fresh(spins, shape) for spins, shape in sequence]
    assert expected[-1] == {(): 1}
    assert expected[4] == schur_expansion(sequence[4][0], 2)
    tensormult.oracle._latest.clear()
    monkeypatch.setattr(tensormult.oracle, "_add_strips", counted)
    for (spins, shape), new, want in zip(sequence, new_factors, expected):
        factors.clear()
        fold = pieri_expansion(spins, shape)
        assert fold == want, (spins, shape)
        assert len(factors) == new, (spins, shape)
        with pytest.raises(TypeError):
            fold[(1,)] = 1


def test_monomial_counts_extend_only_their_latest_product(monkeypatch):
    """The running product is reused only for an extension of the latest
    degree list in the same shape; every table equals one built from a
    cleared cache, across a shape switch, a shrink and a total degree that
    crosses 8 and 16, so the packed product's field width changes."""
    factors = []
    original = tensormult.oracle.hook_schur

    def counted(lam, shape):
        factors.append(lam)
        return original(lam, shape)

    sequence = (
        ((2, 0), (2, 1)),  # a first list
        ((2, 0, 3, 1), (2, 1)),  # extends it: two new factors, total 6
        ((2, 0, 3, 1), (2, 1)),  # the same list again
        ((2, 0, 3, 1, 4), (2, 1)),  # total 10
        ((2, 0, 3, 1, 4, 0, 7), (2, 1)),  # total 17
        ((2, 0, 3, 1, 4, 0, 7), (3, 0)),  # another shape: rebuilt
        ((2, 0, 3), (3, 0)),  # shrinks: rebuilt
        ((2, 0, 3, 5, 9), (3, 0)),  # extends it, total 19
        ((1, 2), (3, 0)),  # not an extension: rebuilt
        ((2, 2, 1), (3, 0)),  # longer, but not an extension: rebuilt
    )
    new_factors = (2, 2, 0, 1, 2, 7, 3, 2, 2, 3)
    expected = [_fresh_monomial_counts(spins, shape) for spins, shape in sequence]
    # M_a is the sum of the exponents from position a on
    m_vecs = [tuple(accumulate(expv[:0:-1]))[::-1] for expv in expected[5]]
    assert expected[5] == dict(zip(expected[5], matrix_counts(m_vecs, sequence[5][0], (3, 0))))
    tensormult.oracle._latest.clear()
    monkeypatch.setattr(tensormult.oracle, "hook_schur", counted)
    widths = set()
    for (spins, shape), new, want in zip(sequence, new_factors, expected):
        factors.clear()
        assert monomial_counts(spins, shape) == want, (spins, shape)
        assert len(factors) == new, (spins, shape)
        widths.add(max(map(max, want)).bit_length())
    assert widths >= {3, 4, 5}
