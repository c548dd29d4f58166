import json
import subprocess
import sys

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


def test_multiplicity_backend_both(capsys):
    status, out = run_cli(
        capsys, "multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "6",
        "--lambda", "3,2,1", "--backend", "both",
    )
    assert status == 0
    assert json.loads(out)["mu"] == "16"


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
        "--M", "3,1", "--backend", "both",
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


def test_jobs_parallel_table(capsys):
    status, out = run_cli(
        capsys, "multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "4",
        "--table", "--jobs", "2",
    )
    assert status == 0
    serial_status, serial_out = run_cli(
        capsys, "multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "4",
        "--table", "--jobs", "1",
    )
    assert serial_status == 0
    assert out == serial_out


def test_jobs_clamped_without_starting_processes(capsys, monkeypatch):
    import tensormult.cli as cli_mod

    started = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    argv = ["multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "4", "--table"]
    _, serial = run_cli(capsys, *argv, "--jobs", "1")
    nrows = 4  # diagrams (4), (3, 1), (2, 2), (2, 1, 1)
    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", RecordingPool)
    for cpus, expected in ((64, nrows), (2, 2)):
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: cpus)
        status, out = run_cli(capsys, *argv, "--jobs", "100000")
        assert status == 0 and out == serial
        assert started.pop() == expected
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: None)
    assert run_cli(capsys, *argv, "--jobs", "100000") == (0, serial)
    assert started == []


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
    capsys.readouterr()


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
        cli_mod.oracle, "schur_expansion", lambda spins, rank: {}
    )
    status, _ = run_cli(
        capsys, "multiplicity", "--algebra", "A1", "--twoS", "1", "--L", "2",
        "--lambda", "1,1", "--check",
    )
    assert status == 3


def test_jobs_default_from_environment(monkeypatch):
    from tensormult.cli import build_parser

    monkeypatch.setenv("TENSORMULT_JOBS", "4")
    args = build_parser().parse_args(
        ["multiplicity", "--algebra", "A1", "--twoS", "1", "--L", "2", "--table"]
    )
    assert args.jobs == 4


def test_cross_process_determinism():
    cmd = [
        sys.executable, "-m", "tensormult.cli", "super", "--shape", "2,1",
        "--twoS", "1", "--L", "6", "--table",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout
