"""The sweep suites fail when a count they compare is wrong."""

import functools

import tensormult.occupancy as occupancy_mod
import tensormult.oracle as oracle_mod
from tensormult import verify


def test_backends_catches_a_corrupted_store_chamber(monkeypatch):
    build = occupancy_mod.hook_table.__wrapped__

    @functools.lru_cache(maxsize=1)
    def corrupted(spins, shape):
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
