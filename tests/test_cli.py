import functools
import json
import subprocess
import sys
import time

import pytest

from tensormult.cli import main


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


def test_multiplicity_single(capsys):
    status, out = run_cli(
        capsys, "multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "6",
        "--lambda", "3,2,1",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["mu"] == "16"
    assert doc["witness"]["M"] == [3, 1]
    assert doc["witness"]["terms"] == 6


def test_multiplicity_trivial(capsys):
    status, out = run_cli(
        capsys, "multiplicity", "--algebra", "A1", "--twoS", "2", "--L", "1",
        "--lambda", "2",
    )
    assert status == 0
    assert json.loads(out)["mu"] == "1"


def test_multiplicity_table(capsys):
    status, out = run_cli(
        capsys, "multiplicity", "--algebra", "A1", "--twoS", "2", "--L", "2",
        "--table", "--check",
    )
    assert status == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 3
    assert all(e["mu"] == "1" == e["oracle"] for e in doc["entries"])
    assert [e["lambda"] for e in doc["entries"]] == [[4], [3, 1], [2, 2]]


def test_branch_closure_and_table(capsys):
    status, out = run_cli(
        capsys, "branch", "--algebra", "A5", "--roots", "L1-L3,L3-L4,L5-L6",
        "--twoS", "1", "--L", "4", "--table",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["query"]["components"] == [[1, 3, 4], [5, 6]]
    assert doc["query"]["abelian"] == [2]
    assert doc["entries"]
    assert all(int(e["mu"]) > 0 for e in doc["entries"])


def test_branch_single_row_query(capsys):
    status, out = run_cli(
        capsys, "branch", "--algebra", "A2", "--roots", "a1", "--twoS", "1",
        "--L", "6", "--rows", "3,2,1",
    )
    assert status == 0
    assert json.loads(out)["mu"] == "30"


def test_super_table_matches_published_rows(capsys):
    status, out = run_cli(
        capsys, "super", "--shape", "2,1", "--twoS", "1", "--L", "6", "--table",
    )
    assert status == 0
    doc = json.loads(out)
    rows = {tuple(e["M"]): (tuple(e["lambda"]), int(e["mu"])) for e in doc["entries"]}
    assert rows[(3, 1)] == ((3, 2, 1), 16)
    assert len(rows) == 10


def test_super_branch_table(capsys):
    status, out = run_cli(
        capsys, "super", "--shape", "2,1", "--twoS", "1", "--L", "6",
        "--roots", "L2-K1", "--table",
    )
    assert status == 0
    doc = json.loads(out)
    rows = {tuple(e["M"]): int(e["mu"]) for e in doc["entries"]}
    assert rows[(5, 2)] == 36
    assert len(rows) == 22


def test_occupancy_single_and_schema(capsys):
    status, out = run_cli(
        capsys, "occupancy", "--algebra", "A2", "--twoS", "1", "--L", "6",
        "--M", "3,1",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc == {"r": 2, "twoS": [1] * 6, "L": 6, "M": [3, 1], "c": "60"}


def test_occupancy_table_schema(capsys):
    status, out = run_cli(
        capsys, "occupancy", "--algebra", "A1", "--twoS", "1", "--L", "2",
        "--table",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["entries"] == [
        {"M": [0], "c": "1"}, {"M": [1], "c": "2"}, {"M": [2], "c": "1"},
    ]


def test_verify_suite(capsys):
    status, out = run_cli(
        capsys, "verify", "--suite", "symmetry", "--r", "2", "--twoS", "2",
        "--L", "4",
    )
    assert status == 0
    assert out == "symmetry: 0 violations\n"


def test_tsv_format(capsys):
    status, out = run_cli(
        capsys, "occupancy", "--algebra", "A1", "--twoS", "1", "--L", "2",
        "--table", "--format", "tsv",
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "M\tc"
    assert lines[1:] == ["0\t1", "1\t2", "2\t1"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    status, out = run_cli(
        capsys, "multiplicity", "--algebra", "A1", "--twoS", "1", "--L", "2",
        "--lambda", "1,1", "--output", str(target),
    )
    assert status == 0
    assert out == ""
    assert json.loads(target.read_text())["mu"] == "1"


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["multiplicity", "--algebra", "A2"])  # missing --twoS
    assert exc.value.code == 2


def test_value_errors_exit_two(capsys):
    assert main(["multiplicity", "--algebra", "Q2", "--twoS", "1", "--L", "2",
                 "--lambda", "2"]) == 2
    assert main(["multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "2",
                 "--lambda", "3,2,1"]) == 2  # size mismatch
    # a tensor-factor count below one is refused, naming the flag
    assert main(["multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "-3",
                 "--table"]) == 2
    assert "--L" in capsys.readouterr().err
    assert main(["super", "--shape", "2,1", "--twoS", "1", "--L", "-2",
                 "--table"]) == 2
    assert "--L" in capsys.readouterr().err
    # an --M of another length than the rank is refused, naming the length
    assert main(["occupancy", "--algebra", "A2", "--twoS", "1", "--L", "6",
                 "--M", "3"]) == 2
    assert "--M needs 2 entries" in capsys.readouterr().err
    capsys.readouterr()


def test_large_denominators_refused_at_once(capsys):
    for argv in (
        ["multiplicity", "--algebra", "A12", "--twoS", "1", "--L", "2", "--lambda", "1,1"],
        ["multiplicity", "--algebra", "A9", "--twoS", "1", "--L", "8", "--table"],
        ["branch", "--algebra", "A9", "--roots", ",".join(f"a{i}" for i in range(1, 10)),
         "--twoS", "1", "--L", "8", "--table"],
    ):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert "9! = 362880" in capsys.readouterr().err
    # the limit is on the Weyl group, not the rank: a small subalgebra of A8 is answered
    assert main(["branch", "--algebra", "A8", "--roots", "a1,a3", "--twoS", "1",
                 "--L", "2", "--rows", "1,0,1"]) == 0


def test_super_single_with_check(capsys):
    status, out = run_cli(
        capsys, "super", "--shape", "1,2", "--twoS", "1", "--L", "6",
        "--M", "4,2", "--check",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["mu"] == "5" == doc["oracle"]
    assert doc["witness"]["terms"] > 0


def test_check_mismatch_exits_three(capsys, monkeypatch):
    import tensormult.cli as cli_mod

    monkeypatch.setattr(
        cli_mod.oracle, "schur_expansion_pieri", lambda spins, rank: {}
    )
    status, _ = run_cli(
        capsys, "multiplicity", "--algebra", "A1", "--twoS", "1", "--L", "2",
        "--lambda", "1,1", "--check",
    )
    assert status == 3


def test_check_catches_a_corrupted_store(capsys, monkeypatch):
    import tensormult.occupancy as occupancy_mod

    build = occupancy_mod.hook_table.__wrapped__

    @functools.lru_cache(maxsize=1)
    def corrupted(spins, shape):
        store = dict(build(spins, shape))
        first = min(store)
        store[first] += 1
        return store

    monkeypatch.setattr(occupancy_mod, "hook_table", corrupted)
    for argv in (
        ["multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "4", "--table", "--check"],
        ["super", "--shape", "2,1", "--twoS", "1", "--L", "4", "--table", "--check"],
    ):
        assert run_cli(capsys, *argv)[0] == 3


def test_cross_process_determinism():
    cmd = [
        sys.executable, "-m", "tensormult.cli", "super", "--shape", "2,1",
        "--twoS", "1", "--L", "6", "--table",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout
