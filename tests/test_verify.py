"""The sweep suites fail when a count they compare is wrong."""

from collections import Counter

import tensormult.diffformula as diffformula_mod
import tensormult.occupancy as occupancy_mod
import tensormult.oracle as oracle_mod
from tensormult import verify

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
