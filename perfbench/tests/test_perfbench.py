"""Tests of the benchmark itself (not of tensormult).

Run from the root of the checkout:

    python -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Two cheap commands whose digests are recorded: a seeded A6 query and a
# seeded mixed-degree A3 table, both checked against the Pieri oracle.
SMOKE = [
    workloads.multiplicity(6, 1, 8, lam=workloads.A6_LAMBDA_POOL[3], fixed=False),
    workloads.multiplicity(3, workloads.MIXED_A3_POOL[0], check=True, fixed=False),
]


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setattr(workloads, "generate", lambda workload, seed: list(SMOKE))
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 2)


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
    seeds = {tuple(workloads.generate("high-rank", s)) for s in range(5)}
    assert len(seeds) > 1


def test_every_generated_command_has_a_digest():
    digests = checks.load_digests()
    for name in workloads.WORKLOADS:
        for seed in range(20):
            for cmd in workloads.generate(name, seed):
                assert cmd.key in digests, cmd.key
    assert workloads.SETUP.key in digests


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_smoke_pass_emits_every_end_to_end_metric(smoke, capsys):
    assert run.main(["--workload", "tables", "--seed", "3", "--seconds", "1", "--trace", "0"]) == 0
    doc = last_json(capsys)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    passes, rest = divmod(doc["attempted"] - 2, len(SMOKE))
    assert passes >= 1 and rest == 0
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_smoke_pass_emits_every_per_layer_metric(smoke, capsys):
    assert run.main(["--workload", "tables", "--seed", "3", "--trace", "1"]) == 0
    doc = last_json(capsys)
    assert doc["correct"] is True
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    assert metrics["diffformula.queries"] > 0
    assert metrics["weyl.terms"] == 5040 + 24  # one A6 and one A3 denominator
    spans = json.loads((run.OUT / "trace-tables-seed3.json").read_text())["spans"]
    assert {"name", "start", "end", "parent", "command"} <= set(spans[0])
    assert {s["name"] for s in spans} >= {"command", "cli.main", "weyl.expand", "occupancy.build"}


def test_forced_digest_mismatch_counts_as_failed(smoke, monkeypatch, capsys):
    real = checks.load_digests()
    wrong = dict(real, **{SMOKE[0].key: "0" * 64})
    monkeypatch.setattr(checks, "load_digests", lambda: wrong)
    run.main(["--workload", "tables", "--seed", "3", "--seconds", "1", "--trace", "0"])
    doc = last_json(capsys)
    assert doc["correct"] is False
    assert doc["failed"] >= 1


def test_wrong_value_fails_the_pieri_check():
    pieri = checks.PieriCheck(layers.import_package().oracle)
    cmd = SMOKE[0]
    doc = {"query": {}, "mu": "1", "witness": {}}
    assert not pieri.agrees(cmd, json.dumps(doc).encode())


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "tables", "--seed", "1"]) != 0
    assert capsys.readouterr().out == ""
