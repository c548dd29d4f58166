"""Every benchmark command still prints the bytes recorded for it.

perfbench/digests.json holds the sha256 of the stdout of every command the
benchmark's workloads can generate.  This runs each one in-process through
`cli.main`, so a change that alters any recorded output fails here, not only
in a benchmark run.  The files under perfbench/ are only read.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

from tensormult.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_recorded_digests(capsys, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    recorded = _load("checks").load_digests()
    commands = _load("workloads").all_commands()
    assert {cmd.key for cmd in commands} == set(recorded)
    for cmd in commands:
        assert main(list(cmd.argv)) == 0, cmd.key
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == recorded[cmd.key], cmd.key
