import io
import json
import subprocess
import sys
import time
from pathlib import Path

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


def test_super_empty_roots_is_the_torus(capsys):
    # an empty --roots restricts to the empty subset, as " , " does, and is
    # not read as no --roots (the whole hook algebra)
    base = ["super", "--shape", "2,1", "--twoS", "1", "--L", "2", "--table"]
    status, out = run_cli(capsys, *base, "--roots", "")
    assert (status, out) == run_cli(capsys, *base, "--roots", " , ")
    assert status == 0 and len(json.loads(out)["entries"]) == 6
    assert main([*base, "--roots", "", "--check"]) == 2
    assert "no oracle" in capsys.readouterr().err


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


def test_json_writer_prints_the_bytes_of_json_dumps(capsys, monkeypatch):
    import tensormult.cli as cli_mod

    def dumped(doc):
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    docs = []
    emit = cli_mod._emit
    monkeypatch.setattr(
        cli_mod, "_emit", lambda doc, fmt, out: docs.append(doc) or emit(doc, fmt, out)
    )
    commands = (
        # a table whose one row is "lambda": []
        ["multiplicity", "--algebra", "A2", "--twoS", "0", "--L", "3", "--table"],
        ["multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "4", "--table", "--check"],
        ["branch", "--algebra", "A3", "--roots", "L1-L3", "--twoS", "1", "--L", "3", "--table"],
        ["super", "--shape", "2,1", "--twoS", "1", "--L", "4", "--table", "--check"],
        ["super", "--shape", "2,2", "--twoS", "1", "--L", "3", "--roots", "L1-K1",
         "--table"],
        ["occupancy", "--algebra", "A2", "--twoS", "1", "--L", "3", "--table"],
        # single queries, whose documents nest dicts
        ["multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "3", "--lambda", "2,1",
         "--check"],
        ["branch", "--algebra", "A2", "--roots", "L1-L2", "--twoS", "1", "--L", "3",
         "--rows", "2,0,1"],
        ["super", "--shape", "1,2", "--twoS", "1", "--L", "4", "--M", "2,1", "--check"],
        ["occupancy", "--algebra", "A2", "--twoS", "1", "--L", "3", "--M", "2,1"],
    )
    for argv in commands:
        status, out = run_cli(capsys, *argv)
        assert status == 0, argv
        assert out == dumped(docs[-1]), argv
    assert docs[0]["entries"] == [{"M": [0, 0], "lambda": [], "mu": "1"}]
    synthetic = (
        {},
        {"query": {"algebra": "A1"}, "entries": []},
        {"entries": [{}, {"M": [1]}]},
        {
            "z": None,
            "entries": [
                {"M": [3, -1], "s": 'a "quote", a \\ and \u00e9\u2603\n', "x": ["\t", 2, []]},
                {"M": [], "s": "", "x": [[1, [2]], {"b": 1, "a": [True, 1.5]}]},
                {"M": [0], "other": "keys"},
            ],
            "a": (1, ("b", {})),
            "nested": {"y": {"x": [1, "\u00ff"]}, "e": []},
        },
    )
    for doc in synthetic:
        out = io.StringIO()
        cli_mod._emit(doc, "json", out)
        assert out.getvalue() == dumped(doc), doc


def test_json_writer_on_documents_no_digest_covers():
    import tensormult.cli as cli_mod

    docs = (
        {"a": {"c": {"e": [1, {"f": "g"}], "d": 2}, "b": "x"}},
        {"empty": [], "none": {}, "nested": [[], {}, [[]]]},
        {"pair": (1, (2, "three")), "row": ((), ("\u00e9",))},
        {"name": "A\u2083 \u00e9t\u00e9 \U0001d518 \"q\" \\ \n\t"},
        {"big": 10**399 + 7, "negative": -(10**399)},
        {"entries": [{"M": [1, 0], "mu": "2"}, {"M": [0, 0], "lambda": [], "mu": "1"},
                     {"c": "3"}, {}, {"mu": "0", "M": []}]},
    )
    for doc in docs:
        assert cli_mod._json(doc) == json.dumps(doc, indent=2, sort_keys=True), doc


def test_tsv_format(capsys):
    status, out = run_cli(
        capsys, "occupancy", "--algebra", "A1", "--twoS", "1", "--L", "2",
        "--table", "--format", "tsv",
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "M\tc"
    assert lines[1:] == ["0\t1", "1\t2", "2\t1"]


def test_single_query_tsv_names_its_columns(capsys):
    # a single query's scalar fields, under a header line as a table's are
    status, out = run_cli(
        capsys, "occupancy", "--algebra", "A2", "--twoS", "1", "--L", "2", "--M", "1,0",
        "--format", "tsv",
    )
    assert (status, out) == (0, "r\tL\tc\n2\t2\t2\n")
    status, out = run_cli(
        capsys, "multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "3", "--lambda", "2,1",
        "--check", "--format", "tsv",
    )
    assert (status, out) == (0, "mu\toracle\n2\t2\n")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    status, out = run_cli(
        capsys, "multiplicity", "--algebra", "A1", "--twoS", "1", "--L", "2",
        "--lambda", "1,1", "--output", str(target),
    )
    assert status == 0
    assert out == ""
    assert json.loads(target.read_text())["mu"] == "1"


def test_unwritable_output_exits_two(tmp_path, capsys):
    # a directory, and a path under a directory that does not exist
    for target in (tmp_path, tmp_path / "missing" / "result.json"):
        status = main([
            "multiplicity", "--algebra", "A1", "--twoS", "1", "--L", "2",
            "--lambda", "1,1", "--output", str(target),
        ])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write --output: ")
        assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


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
    # rows that increase inside a component label no highest weight
    assert main(["branch", "--algebra", "A2", "--roots", "L1-L2", "--twoS", "2", "--L", "2",
                 "--rows", "1,3"]) == 2
    assert "component [1, 2]" in capsys.readouterr().err
    # a weight vector that labels no highest weight is refused, naming why: the
    # shift sum there is a signed, reflected number and not a multiplicity
    for argv, message in (
        (["super", "--shape", "2,1", "--twoS", "1", "--L", "3", "--M", "3,1"],
         "component [1, 2, 3]"),
        (["super", "--shape", "2,1", "--twoS", "2", "--L", "3", "--roots", "L1-L2", "--M", "5,1"],
         "component [1, 2]"),
        (["super", "--shape", "2,1", "--twoS", "1", "--L", "3", "--M=7,1"],
         "negative label values [-4]"),
        (["super", "--shape", "2,1", "--twoS", "1", "--L", "3", "--M", "3,1,1"],
         "expected 2 entries for shape (2, 1), got (3, 1, 1)"),
        (["multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "4", "--lambda", "1,1,1,1"],
         "(1, 1, 1, 1) has more than 3 rows"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        if "component" in message:
            assert "labels no highest weight" in err
    # no oracle covers hook restrictions, so a requested check is refused
    assert main(["super", "--shape", "2,1", "--twoS", "1", "--L", "6", "--roots", "L2-K1",
                 "--table", "--check"]) == 2
    assert "no oracle" in capsys.readouterr().err
    assert main(["super", "--shape", "2,1", "--twoS", "1", "--L", "6", "--roots", "L2-K1",
                 "--M", "5,2", "--check"]) == 2
    assert "no oracle" in capsys.readouterr().err
    # verify grid caps below one would check nothing and still pass
    for argv, flag in (
        (["--suite", "tensor", "--r", "0"], "--r"),
        (["--suite", "kostka", "--r", "0"], "--r"),
        (["--suite", "backends", "--r", "-3", "--twoS", "0", "--L", "0"], "--r"),
        (["--suite", "super", "--twoS", "0"], "--twoS"),
        (["--suite", "rank-one", "--L", "-1"], "--L"),
    ):
        assert main(["verify", *argv]) == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err
    # a cap that a single named suite does not take would be ignored, so it is refused
    for suite, flag in (
        ("super", "--r"), ("rank-one", "--r"), ("pieri", "--L"), ("hooklength", "--twoS"),
    ):
        assert main(["verify", "--suite", suite, flag, "1"]) == 2
        assert f"{flag} does not apply to the {suite} suite" in capsys.readouterr().err
    # a single-query flag that the run would not read is refused, naming it
    for argv, message in (
        (["multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "2", "--lambda", "9,9",
          "--table"], "--lambda is not read with --table"),
        (["branch", "--algebra", "A2", "--roots", "L1-L2", "--twoS", "1", "--L", "2",
          "--rows", "1,1", "--table"], "--rows is not read with --table"),
        (["super", "--shape", "2,1", "--twoS", "1", "--L", "6", "--lambda", "6", "--table"],
         "--lambda is not read with --table"),
        (["super", "--shape", "2,1", "--twoS", "1", "--L", "6", "--M", "3,1", "--table"],
         "--M is not read with --table"),
        (["super", "--shape", "2,1", "--twoS", "1", "--L", "6", "--roots", "L1-L2",
          "--M", "3,1", "--table"], "--M is not read with --table"),
        (["occupancy", "--algebra", "A2", "--twoS", "1", "--L", "2", "--M", "1,1", "--table"],
         "--M is not read with --table"),
        (["super", "--shape", "2,1", "--twoS", "1", "--L", "6", "--M", "3,1", "--lambda", "6"],
         "--lambda is not read with --M"),
    ):
        assert main(argv) == 2
        assert message in capsys.readouterr().err
    capsys.readouterr()


def test_large_denominators_refused_at_once(capsys):
    too_large = "9! = 362880"
    for argv, reason in (
        (["multiplicity", "--algebra", "A12", "--twoS", "1", "--L", "2", "--lambda", "1,1"],
         too_large),
        (["multiplicity", "--algebra", "A9", "--twoS", "1", "--L", "8", "--table"], too_large),
        (["branch", "--algebra", "A9", "--roots", ",".join(f"a{i}" for i in range(1, 10)),
          "--twoS", "1", "--L", "8", "--table"], too_large),
        # hook tables check the subset before enumerating their labels
        (["super", "--shape", "10,1", "--twoS", "3", "--L", "8", "--table"], too_large),
        # the group is refused from its component sizes at any rank, before a
        # root is listed
        (["multiplicity", "--algebra", "A2000", "--twoS", "1", "--L", "1", "--table"],
         too_large),
        (["super", "--shape", "1000,1", "--twoS", "1", "--L", "1", "--table"], too_large),
        # and without multiplying out the order of a group past the limit
        (["multiplicity", "--algebra", "A3000000", "--twoS", "1", "--L", "1", "--lambda", "1"],
         too_large),
        (["verify", "--suite", "tensor", "--r", "3000000"], too_large),
        # an open subset is refused when it is built, for a table or a single query
        (["super", "--shape", "2,2", "--roots", "L1-L2,L2-K1", "--twoS", "1", "--L", "4",
          "--table"], "not bracket-closed"),
        (["super", "--shape", "2,2", "--roots", "L1-L2,L2-K1", "--twoS", "1", "--L", "4",
          "--M", "3,2,1"], "not bracket-closed"),
    ):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert reason in capsys.readouterr().err
    # the limit is on the Weyl group, not the rank: a small subalgebra of A8 is answered
    assert main(["branch", "--algebra", "A8", "--roots", "a1,a3", "--twoS", "1",
                 "--L", "2", "--rows", "1,0,1"]) == 0


def test_verify_refuses_a_rank_grid_above_the_group_limit(capsys):
    """A rank-9 grid would expand a 10!-term Vandermonde before the route
    refuses; the cap is refused before any suite runs."""
    for argv in (
        ["--suite", "tensor", "--r", "9", "--twoS", "1", "--L", "1"],
        ["--suite", "kostka", "--r", "9"],
        ["--suite", "pieri", "--r", "12"],
        ["--suite", "hooklength", "--r", "9", "--L", "1"],
        ["--suite", "all", "--r", "9"],
    ):
        start = time.perf_counter()
        assert main(["verify", *argv]) == 2
        assert time.perf_counter() - start < 1.0
        assert "9! = 362880" in capsys.readouterr().err
    # suites that build neither run at that rank
    status, out = run_cli(capsys, "verify", "--suite", "backends", "--r", "9", "--twoS", "1",
                          "--L", "1")
    assert status == 0
    assert out == "backends: 0 violations\n"


def test_term_counts_without_expanding(capsys, monkeypatch):
    import tensormult.weyl as weyl_mod

    def refuse(*args, **kwargs):
        raise AssertionError("a denominator was expanded")

    monkeypatch.setattr(weyl_mod, "_expand", refuse)
    # hook tables walk the even group over the counts divided by the odd roots
    for argv in (
        ["super", "--shape", "2,2", "--twoS", "1", "--L", "4", "--table", "--check"],
        ["super", "--shape", "2,2", "--twoS", "1", "--L", "4", "--roots",
         "L1-L2,L1-K1,L2-K1", "--table"],
    ):
        status, out = run_cli(capsys, *argv)
        assert status == 0
        assert json.loads(out)["entries"]
    status, out = run_cli(
        capsys, "multiplicity", "--algebra", "A6", "--twoS", "1", "--L", "8",
        "--lambda", "3,2,1,1,1",
    )
    assert status == 0
    assert json.loads(out)["witness"]["terms"] == 5040
    # components {1, 3, 4} and {2, 5}: 3! * 2!
    status, out = run_cli(
        capsys, "branch", "--algebra", "A4", "--roots", "L1-L3,L3-L4,L2-L5",
        "--twoS", "1", "--L", "4", "--rows", "2,1,1,0,0",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["witness"]["terms"] == 12
    assert int(doc["mu"]) > 0
    # the largest group allowed, 9!, answers a pruned query at once
    start = time.perf_counter()
    status, out = run_cli(
        capsys, "multiplicity", "--algebra", "A8", "--twoS", "1", "--L", "2",
        "--lambda", "2", "--check",
    )
    assert time.perf_counter() - start < 5.0
    assert status == 0
    doc = json.loads(out)
    assert doc["witness"]["terms"] == 362880
    assert doc["mu"] == doc["oracle"] == "1"


def test_checks_enumerate_no_tableaux(capsys, monkeypatch):
    import tensormult.oracle as oracle_mod
    import tensormult.sympoly as sympoly_mod

    def refuse(*args, **kwargs):
        raise AssertionError("a hook Schur polynomial was expanded")

    for module, name in (
        (oracle_mod, "hook_schur_expansion"), (oracle_mod, "hook_schur"),
        (sympoly_mod, "hook_schur"),
    ):
        monkeypatch.setattr(module, name, refuse)
    for argv in (
        ["super", "--shape", "2,2", "--twoS", "2", "--L", "4", "--table", "--check"],
        ["multiplicity", "--algebra", "A2", "--twoS", "2", "--L", "4", "--table", "--check"],
    ):
        status, out = run_cli(capsys, *argv)
        assert status == 0
        assert all(e["mu"] == e["oracle"] for e in json.loads(out)["entries"])
    status, out = run_cli(
        capsys, "super", "--shape", "3,3", "--twoS", "2", "--L", "7", "--M", "10,7,5,2,0",
        "--check",
    )
    assert status == 0
    assert json.loads(out)["mu"] == json.loads(out)["oracle"] == "104"


def test_super_single_with_check(capsys):
    status, out = run_cli(
        capsys, "super", "--shape", "1,2", "--twoS", "1", "--L", "6",
        "--M", "4,2", "--check",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["mu"] == "5" == doc["oracle"]
    assert doc["witness"]["terms"] > 0


def test_single_query_is_its_table_row(capsys):
    # every row of a table, asked as a single query, prints that row's value
    # and, where the table is checked, its oracle value
    def label_values(m_vec, total):
        chain = [total, *m_vec, 0]
        return ",".join(str(a - b) for a, b in zip(chain, chain[1:]))

    for table, queries in (
        (["multiplicity", "--algebra", "A2", "--twoS", "2", "--L", "4", "--check"],
         lambda e: [["--lambda", ",".join(map(str, e["lambda"]))]]),
        (["branch", "--algebra", "A3", "--roots", "L1-L2,L3-L4", "--twoS", "1", "--L", "4"],
         lambda e: [["--rows", label_values(e["M"], 4)]]),
        (["super", "--shape", "2,1", "--twoS", "1", "--L", "6", "--check"],
         lambda e: [["--M", ",".join(map(str, e["M"]))],
                    ["--lambda", ",".join(map(str, e["lambda"]))]]),
        (["super", "--shape", "2,2", "--twoS", "1", "--L", "4", "--roots", "L1-L2,K1-K2"],
         lambda e: [["--M", ",".join(map(str, e["M"]))]]),
    ):
        status, out = run_cli(capsys, *table, "--table")
        assert status == 0
        entries = json.loads(out)["entries"]
        assert entries
        for entry in entries:
            for query in queries(entry):
                status, out = run_cli(capsys, *table, *query)
                assert status == 0, (table, query)
                doc = json.loads(out)
                assert doc["mu"] == entry["mu"], (table, query)
                assert doc.get("oracle") == entry.get("oracle"), (table, query)
                assert doc["witness"]["M"] == entry["M"]


def test_check_mismatch_exits_three(capsys, monkeypatch):
    import tensormult.cli as cli_mod

    with monkeypatch.context() as patch:
        patch.setattr(cli_mod.oracle, "pieri_expansion", lambda spins, shape: {})
        for argv in (
            ["multiplicity", "--algebra", "A1", "--twoS", "1", "--L", "2", "--lambda", "1,1",
             "--check"],
            ["super", "--shape", "1,2", "--twoS", "1", "--L", "6", "--M", "4,2", "--check"],
            ["super", "--shape", "2,1", "--twoS", "1", "--L", "4", "--table", "--check"],
        ):
            assert run_cli(capsys, *argv)[0] == 3
    # lambda = (3, 2, 1) at 2s = 1, L = 6 is M = (3, 1) for A2 and for the (2, 1) hook;
    # the oracle gives it 16
    tables = (
        ["multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "6", "--table", "--check"],
        ["super", "--shape", "2,1", "--twoS", "1", "--L", "6", "--table", "--check"],
    )
    route = cli_mod.diffformula.multiplicities

    def reads_zero_at_3_1(sub, m_vecs, spins):
        m_vecs = list(m_vecs)
        values = route(sub, m_vecs, spins)
        return [0 if m_vec == (3, 1) else v for m_vec, v in zip(m_vecs, values)]

    with monkeypatch.context() as patch:
        # a route that reads 0 keeps its row, which then disagrees with the oracle
        patch.setattr(cli_mod.diffformula, "multiplicities", reads_zero_at_3_1)
        for argv in tables:
            status, out = run_cli(capsys, *argv)
            assert status == 3
            row = next(e for e in json.loads(out)["entries"] if e["M"] == [3, 1])
            assert (row["mu"], row["oracle"]) == ("0", "16")
    enumerate_labels = cli_mod.diffformula.label_rows
    with monkeypatch.context() as patch:
        # an oracle label without a table row is named
        patch.setattr(
            cli_mod.diffformula, "label_rows",
            lambda sub, total: [r for r in enumerate_labels(sub, total) if r[0] != (3, 1)],
        )
        for argv in tables:
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert "(3, 2, 1)" in captured.err
            assert [3, 1] not in [e["M"] for e in json.loads(captured.out)["entries"]]


def test_check_catches_a_corrupted_store(capsys, monkeypatch):
    import tensormult.occupancy as occupancy_mod

    build = occupancy_mod.hook_table

    def corrupted(spins, shape):
        # the largest chamber is that of M = 0, which every table reads; the
        # chambers are copied, so the pull record stays as it was
        chambers = dict(build(spins, shape).chambers)
        chambers[max(chambers)] += 1
        return occupancy_mod.ChamberStore(chambers, shape)

    commands = (
        ["multiplicity", "--algebra", "A2", "--twoS", "1", "--L", "4", "--table", "--check"],
        ["super", "--shape", "2,1", "--twoS", "1", "--L", "4", "--table", "--check"],
    )
    with monkeypatch.context() as patch:
        patch.setattr(occupancy_mod, "hook_table", corrupted)
        for argv in commands:
            assert run_cli(capsys, *argv)[0] == 3
    for argv in commands:
        assert run_cli(capsys, *argv)[0] == 0


def test_queries_never_iterate_the_store(capsys, monkeypatch):
    # queries read the count store point by point: none may list its weight
    # vectors, which would materialise every chamber's orbit
    import tensormult.occupancy as occupancy_mod
    from tensormult.occupancy import hook_spins, hook_table

    commands = (
        ["multiplicity", "--algebra", "A3", "--twoS", "2", "--L", "4", "--table", "--check"],
        ["branch", "--algebra", "A3", "--roots", "L1-L2,L3-L4", "--twoS", "2", "--L", "3",
         "--table"],
        ["super", "--shape", "2,2", "--twoS", "1", "--L", "5", "--table", "--check"],
        ["super", "--shape", "2,2", "--twoS", "1", "--L", "5", "--roots", "L1-L2,K1-K2",
         "--table"],
        ["occupancy", "--algebra", "A4", "--twoS", "4", "--L", "8", "--M", "20,12,6,2"],
    )
    expected = [run_cli(capsys, *argv) for argv in commands]

    def refuse(*args):
        raise AssertionError("a query iterated the count store")

    monkeypatch.setattr(occupancy_mod, "_weight_table", refuse)
    monkeypatch.setattr(occupancy_mod, "_orbit", refuse)
    # nor may a table filter every weight vector for its labels
    monkeypatch.setattr(occupancy_mod, "standard_m_vectors", refuse)
    # every table pulls its store from no sites
    monkeypatch.setattr(occupancy_mod, "_latest_pull", (None, (), None))
    for argv, want in zip(commands, expected):
        assert run_cli(capsys, *argv) == want
        assert want[0] == 0 and want[1]
    # one count per chamber: the A4 store holds one key per diagram of 32 boxes
    # with at most 5 rows, not one per weight vector
    assert len(hook_table(hook_spins(4, 8), (5, 0)).chambers) <= 831


def test_cross_process_determinism():
    cmd = [
        sys.executable, "-m", "tensormult.cli", "super", "--shape", "2,1",
        "--twoS", "1", "--L", "6", "--table",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout


def test_launch_imports_no_dataclasses():
    """A launch imports neither dataclasses nor inspect (with its ast, dis and
    tokenize), which would cost most of the package's import time."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import tensormult.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
