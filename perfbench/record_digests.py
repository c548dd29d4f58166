#!/usr/bin/env python3
"""Record the sha256 of stdout for every command the workloads can generate.

Run from the root of a checkout at the baseline commit:

    python3 perfbench/record_digests.py

It writes perfbench/digests.json.  A command that exits non-zero aborts the
recording, so only outputs the program itself accepted become references.
"""

import json
import sys

import checks
import run
import workloads


def main() -> int:
    env = run.child_env()
    digests = {}
    for cmd in workloads.all_commands():
        result = run.launch(cmd.argv, env, timeout=600)
        if result.returncode != 0:
            print(f"{cmd.key}: exit {result.returncode}\n{result.stderr.decode()}", file=sys.stderr)
            return 1
        digests[cmd.key] = checks.sha256(result.stdout)
        print(f"{result.wall:7.2f} s  {cmd.key}", flush=True)
    record = {"commit": run.environment()["commit"], "digests": digests}
    checks.DIGESTS_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
