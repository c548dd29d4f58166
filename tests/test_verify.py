"""The sweep suites fail when a count they compare is wrong."""

import re
import time
from collections import Counter

import pytest

import tensormult.diffformula as diffformula_mod
import tensormult.occupancy as occupancy_mod
import tensormult.oracle as oracle_mod
from tensormult import cli, verify
from tensormult.sympoly import SparsePoly

ROUTE_SWEEPS = ("rank-one", "tensor", "pieri", "hooklength", "super")


def test_backends_catches_a_corrupted_store_chamber(monkeypatch):
    build = occupancy_mod.hook_table

    def corrupted(spins, shape):
        # a copy of the chambers, so the pull record stays as it was
        chambers = dict(build(spins, shape).chambers)
        chambers[min(chambers)] += 1
        return occupancy_mod.ChamberStore(chambers, shape)

    assert verify.store_oracle_violations(rank_max=2, two_s_max=2, nsites_max=3) == []
    monkeypatch.setattr(occupancy_mod, "hook_table", corrupted)
    violations = verify.store_oracle_violations(
        rank_max=2, two_s_max=2, nsites_max=3, samples=0
    )
    # one chamber per grid cell is off
    assert [v["kind"] for v in violations] == ["table"] * 12
    monkeypatch.undo()
    assert verify.store_oracle_violations(rank_max=2, two_s_max=2, nsites_max=3) == []


def test_backends_compares_every_arrangement(monkeypatch):
    # one count off at x_{r+1}^T, an exponent vector that is no chamber (its
    # entries rise), which every cell's product reaches: the comparison sees
    # every arrangement of the store's chambers, not the chambers alone
    table = oracle_mod.monomial_counts
    corrupted_at = []

    def corrupted(spins, shape):
        counts = dict(table(spins, shape))
        rising = (0,) * (sum(shape) - 1) + (sum(spins),)
        counts[rising] += 1
        corrupted_at.append(rising)
        return counts

    monkeypatch.setattr(oracle_mod, "monomial_counts", corrupted)
    violations = verify.store_oracle_violations(
        rank_max=2, two_s_max=2, nsites_max=3, samples=0
    )
    assert [v["kind"] for v in violations] == ["table"] * 12
    for v, rising in zip(violations, corrupted_at):
        assert rising in {expv for expv, _ in v["diff"]}, v


def test_sweeps_catch_a_corrupted_monomial_count(monkeypatch):
    table = oracle_mod.monomial_counts

    def corrupted(spins, shape):
        # the monomial of M = 0, whose swap images are other monomials
        counts = dict(table(spins, shape))
        counts[max(counts)] += 1
        return counts

    assert verify.symmetry_violations(rank_max=2, two_s_max=2, nsites_max=3) == []
    assert verify.rank_one_violations(two_s_max=2, nsites_max=3) == []
    monkeypatch.setattr(oracle_mod, "monomial_counts", corrupted)
    swaps = verify.symmetry_violations(rank_max=2, two_s_max=2, nsites_max=3)
    # M = 0 and its image under the first swap, in each of the 12 cells
    assert len(swaps) == 24
    assert all(v["swap"] == 1 for v in swaps)
    kinds = {v["kind"] for v in verify.rank_one_violations(two_s_max=2, nsites_max=3)}
    assert kinds == {"palindrome", "difference"}


def test_route_sweeps_catch_a_wrong_route(monkeypatch):
    # the default sweeps make one route call per grid cell: 287 calls
    # carrying 3,284 weight vectors
    route = diffformula_mod.multiplicities
    calls, vectors = Counter(), Counter()
    suite = None

    def counted(sub, m_vecs, spins):
        calls[suite] += 1
        vectors[suite] += len(m_vecs)
        return route(sub, m_vecs, spins)

    monkeypatch.setattr(diffformula_mod, "multiplicities", counted)
    for suite in ROUTE_SWEEPS:
        assert verify.run_suite(suite) == [], suite
    cells = {"rank-one": 72, "tensor": 72, "pieri": 63, "hooklength": 32, "super": 48}
    assert calls == cells
    assert sum(vectors.values()) == 3284

    def one_off(sub, m_vecs, spins):
        values = route(sub, m_vecs, spins)
        values[0] += 1
        return values

    # one value off per call: one violation per cell, each a compared row
    monkeypatch.setattr(diffformula_mod, "multiplicities", one_off)
    for suite in ROUTE_SWEEPS:
        violations = verify.run_suite(suite)
        assert len(violations) == cells[suite], suite
        assert all("mu" in v for v in violations), suite

    # a table that drops its last row: the completeness check names its diagram
    monkeypatch.setattr(diffformula_mod, "multiplicities", route)
    table = diffformula_mod.table
    monkeypatch.setattr(diffformula_mod, "table", lambda sub, spins: table(sub, spins)[:-1])
    for suite in ROUTE_SWEEPS:
        violations = verify.run_suite(suite)
        assert len(violations) == cells[suite], suite
        assert {v["kind"] for v in violations} == {"no row"}, suite
    dropped = verify.hook_length_violations(rank_max=1, nsites_max=2)
    assert [v["lambda"] for v in dropped] == [(1,), (1, 1)]


def test_super_catches_a_corrupted_fold(monkeypatch):
    # one count per cell is off: the recomposition misses the product of the
    # one-row characters in each of the 48 default cells
    fold = oracle_mod.pieri_expansion

    def corrupted(spins, shape):
        counts = dict(fold(spins, shape))
        counts[max(counts)] += 1
        return counts

    monkeypatch.setattr(oracle_mod, "pieri_expansion", corrupted)
    violations = verify.super_conjecture_violations()
    cells = [(v["shape"], v["twoS"], v["L"]) for v in violations if v.get("kind") == "oracles"]
    assert len(cells) == len(set(cells)) == 48
    # and the route's row at the corrupted diagram disagrees with the fold
    assert sum("mu" in v for v in violations) == 48

    # one extra diagram per cell outside the (m, n)-hook: its hook Schur
    # function is zero, so only the hook containment check sees it
    def outside(spins, shape):
        m, n = shape
        return {**fold(spins, shape), (n + 1,) * (m + 1): 1}

    monkeypatch.setattr(oracle_mod, "pieri_expansion", outside)
    violations = verify.super_conjecture_violations()
    cells = [(v["shape"], v["twoS"], v["L"]) for v in violations if v.get("kind") == "oracles"]
    assert len(cells) == len(set(cells)) == 48


@pytest.mark.parametrize("caps", [(), ("--r", "2", "--twoS", "2", "--L", "3")])
def test_verify_all_prints_the_solo_runs(capsys, caps):
    # the joint sweep prints exactly the eight solo runs, one after another,
    # each given the caps it takes
    flags = dict(zip(caps[::2], caps[1::2]))

    def run(suite, given):
        status = cli.main(["verify", "--suite", suite, *(x for kv in given.items() for x in kv)])
        return status, capsys.readouterr().out

    keyword = {"--r": "rank_max", "--twoS": "two_s_max", "--L": "nsites_max"}
    solo = [run(name, {key: value for key, value in flags.items()
                       if keyword[key] in verify.caps_of(name)})
            for name in sorted(verify.SUITES)]
    assert run("all", flags) == (max(status for status, _ in solo), "".join(out for _, out in solo))


def test_run_suites_refuses_before_any_suite_runs():
    # a rank-9 tensor grid would expand a 10!-term Vandermonde
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape("9! = 362880")):
        verify.run_suites({"tensor": {"rank_max": 9}})
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match=re.escape(str(sorted(verify.SUITES)))):
        verify.run_suites({"symmetry": {}, "no-such-suite": {}})


def test_joint_violations_equal_the_solo_ones(monkeypatch):
    # with a corrupted store chamber and a corrupted monomial count, every
    # suite's violations from the joint run equal its solo ones, in order
    build, table = occupancy_mod.hook_table, oracle_mod.monomial_counts

    def corrupted_store(spins, shape):
        chambers = dict(build(spins, shape).chambers)
        chambers[min(chambers)] += 1
        return occupancy_mod.ChamberStore(chambers, shape)

    def corrupted_counts(spins, shape):
        counts = dict(table(spins, shape))
        counts[max(counts)] += 1
        return counts

    monkeypatch.setattr(occupancy_mod, "hook_table", corrupted_store)
    monkeypatch.setattr(oracle_mod, "monomial_counts", corrupted_counts)
    small = {"rank_max": 2, "two_s_max": 2, "nsites_max": 3}
    for overrides in ({name: {} for name in verify.SUITES},
                      {"symmetry": small, "backends": {**small, "samples": 5}, "tensor": {},
                       "super": {"two_s_max": 1}}):
        joint = verify.run_suites(overrides)
        assert list(joint) == list(overrides)
        for name, kwargs in overrides.items():
            assert joint[name] == verify.run_suite(name, **kwargs), name
        assert all(joint.values())


def test_joint_sweep_builds_each_cell_once(monkeypatch):
    # one product of one-row characters and one uncapped store level per
    # default ordinary cell (72), where the suites alone build 72 + 45 + 72
    # products and 72 + 72 levels; and the Pieri fold takes one factor per cell
    work = Counter()
    multiply, pull, add_strips = SparsePoly.__mul__, occupancy_mod._pull, oracle_mod._add_strips

    def product(self, other):
        work["products"] += isinstance(other, SparsePoly)
        return multiply(self, other)

    def levels(spins, shape, cap=None, **resume):
        work["levels"] += (cap is None) * (len(spins) - spins.count(0))
        return pull(spins, shape, cap, **resume)

    def folded(fold, boxes, shape):
        work["factors"] += 1
        return add_strips(fold, boxes, shape)

    monkeypatch.setattr(SparsePoly, "__mul__", product)
    monkeypatch.setattr(occupancy_mod, "_pull", levels)
    monkeypatch.setattr(oracle_mod, "_add_strips", folded)

    def run(*names):
        oracle_mod._latest.clear()
        monkeypatch.setattr(occupancy_mod, "_latest_pull", (None, (), None))
        work.clear()
        assert verify.run_suites({name: {} for name in names}) == {name: [] for name in names}
        return work["products"], work["levels"], work["factors"]

    assert run("backends") == (72, 72, 0)
    assert run("symmetry") == (45, 0, 0)
    assert run("tensor") == (72, 72, 72)
    assert run("super")[2] == 48
    assert run("backends", "symmetry", "tensor") == (72, 72, 72)
    # the kostka cells lie inside the others' grid: it adds no product
    assert run("kostka") == (16, 0, 0)
    assert run("backends", "symmetry", "tensor", "kostka") == (72, 72, 72)
