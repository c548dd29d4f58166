#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `tensormult` command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 24 --trace 0

Untraced (`--trace 0`): every command of the workload runs as a fresh
`python -m tensormult.cli` process, one after another (a closed loop with a
single client).  A pass is one run over the workload's commands; passes
repeat for about `--seconds` seconds.  Every output is checked (see
checks.py).  Metrics: `setup_s` (median of repeated trivial launches),
`wall_s` and `cpu_s` (median pass), `peak_rss_mb` (largest child max-RSS).
The three times are rescaled to a reference host speed measured alongside
(see README.md); the raw times are printed and saved too.

Traced (`--trace 1`): one untraced pass, then the traced in-process pass of
layers.py, whose per-layer sums are the metrics.  Spans are written to
perfbench/out/.

`--workload all` runs every workload in turn.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  Without the
program's sources next to the benchmark it exits 2 and prints no result.
"""

import argparse
import collections
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import workloads

SRC = layers.SRC
ROOT = SRC.parent
OUT = Path(__file__).resolve().parent / "out"

SETUP_LAUNCHES = 21
COMMAND_TIMEOUT_S = 60.0
# Stop starting commands after this many seconds, so a run ends within 180 s.
RUN_DEADLINE_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Mean time of the reference loop sampled beside a running child on the
# 2-vCPU development host in its faster phases (Python 3.11).  These two
# constants only fix the scale of the rescaled times.
REFERENCE_S = 0.006
PROBE_PERIOD_S = 0.2
# A command slows by less than the loop beside it: over 200 launches of the
# ten-seed runs, log(command time) fell with slope 0.7 against log(loop speed).
PROBE_EXPONENT = 0.7
# An interpreter start that imports what the CLI's argument handling imports,
# and its time on the same host.
BARE_INTERPRETER = ("-c", "import argparse, json")
TENSORMULT = ("-m", "tensormult.cli")
LAYERS = (str(Path(__file__).resolve().with_name("layers.py")),)
BARE_REFERENCE_S = 0.045


@dataclass
class Launch:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    # Rescaling factor for the times: below 1 while the shared host runs slow.
    speed: float = 1.0
    # Mean reference-loop time sampled while the child ran, in seconds.
    probe: float = 0.0

    @property
    def scaled_wall(self):
        return self.wall * self.speed

    @property
    def scaled_cpu(self):
        return self.cpu * self.speed


def child_env() -> dict[str, str]:
    """Pinned environment: the checkout's sources, fixed hashing, one job."""
    env = dict(os.environ)
    env.pop("TENSORMULT_JOBS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _drain(stream, chunks):
    chunks.append(stream.read())
    stream.close()


def launch(argv, env, timeout=COMMAND_TIMEOUT_S, program=TENSORMULT) -> Launch:
    """Run `python <program> argv` (by default `tensormult argv`) in a fresh
    process; rusage comes from that child alone.

    A command still running after `timeout` seconds is killed and reported
    with return code -9.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *program, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, stdin=subprocess.DEVNULL,
        env=env, cwd=ROOT,
    )
    out, err = [], []
    readers = [threading.Thread(target=_drain, args=(proc.stdout, out)),
               threading.Thread(target=_drain, args=(proc.stderr, err))]
    for t in readers:
        t.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    return Launch(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, out[0], err[0])


def reference_seconds() -> float:
    """Time a fixed pure-Python loop (dicts, tuples, small and big integers).

    The loop belongs to the benchmark, so no program change moves it; it
    measures how fast the host runs the interpreter right now.
    """
    start = time.perf_counter()
    counts = {}
    acc = 1
    for i in range(10000):
        key = (i % 101, i % 7)
        counts[key] = counts.get(key, 0) + i
        acc = (acc * 3 + i) % 1000003
    big = 7 ** 3000
    for _ in range(150):
        big = big * 3 // 2
    return time.perf_counter() - start


@contextlib.contextmanager
def host_samples():
    """Collect reference-loop times while the block runs: one at once, then
    one every PROBE_PERIOD_S seconds.

    The samples run on the other CPU while a child runs, a few per cent of the
    time, so they see the contention the child sees.  The list is complete
    when the block exits.
    """
    samples = []
    stop = threading.Event()

    def sample():
        samples.append(reference_seconds())
        while not stop.wait(PROBE_PERIOD_S):
            samples.append(reference_seconds())

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        yield samples
    finally:
        stop.set()
        sampler.join()


def scaled_launch(argv, env, program=TENSORMULT) -> Launch:
    """launch() with the speed factor from reference loops timed while it runs."""
    with host_samples() as samples:
        result = launch(argv, env, program=program)
    result.probe = statistics.fmean(samples)
    result.speed = (REFERENCE_S / result.probe) ** PROBE_EXPONENT
    return result


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit}


def summary(values):
    """(median, first quartile, third quartile, sample count)."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3, len(values)


class Run:
    """Outcome bookkeeping for one workload run."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return min(len(self.failures), self.attempted)

    def out_of_time(self):
        return time.perf_counter() - self.started > RUN_DEADLINE_S

    def record(self, cmd, result: Launch, digests, pieri):
        self.attempted += 1
        reason = checks.failure(cmd, result.returncode, result.stdout, digests, pieri)
        if reason is not None:
            self.failures.append({"command": cmd.key, "reason": reason,
                                  "stderr": result.stderr.decode(errors="replace")[-300:]})


def timed_pass(commands, env, run):
    """Launch each command once; return the launches (None once out of time)."""
    results = []
    for cmd in commands:
        if run.out_of_time():
            return None
        results.append(scaled_launch(cmd.argv, env))
    return results


def untraced(workload, seed, seconds, tm):
    commands = workloads.generate(workload, seed)
    digests = checks.load_digests()
    run = Run(workload, seed)
    env = child_env()
    launch(workloads.SETUP.argv, env)  # untimed: compiles .pyc files

    # Launches this short track a bare interpreter start far better than the
    # reference loop, so each is paired with one and rescaled by their median.
    setup, bare = [], []
    for _ in range(SETUP_LAUNCHES):
        setup.append(launch(workloads.SETUP.argv, env))
        bare.append(launch((), env, program=BARE_INTERPRETER).wall)
    for result in setup:
        result.speed = BARE_REFERENCE_S / statistics.median(bare)
        run.record(workloads.SETUP, result, digests, None)

    passes = []
    first = timed_pass(commands, env, run)
    if first is not None:
        passes.append(first)
        # As many passes as make the measured time closest to `seconds`.
        planned = max(1, round(seconds / sum(r.wall for r in first)))
        while len(passes) < planned:
            more = timed_pass(commands, env, run)
            if more is None:
                break
            passes.append(more)

    # Checks run after the timed passes, in this process.
    pieri = checks.PieriCheck(tm.oracle)
    for results in passes:
        for cmd, result in zip(commands, results):
            run.record(cmd, result, digests, pieri)
    if not passes:
        run.attempted += len(commands)
        run.failures.append({"command": "pass", "reason": "run deadline reached"})

    samples = {
        "setup_s": [r.scaled_wall for r in setup],
        "wall_s": [sum(r.scaled_wall for r in p) for p in passes],
        "cpu_s": [sum(r.scaled_cpu for r in p) for p in passes],
        "peak_rss_mb": [max(r.rss_mb for r in p) for p in passes],
    }
    raw = {
        "raw_setup_s": [r.wall for r in setup],
        "raw_wall_s": [sum(r.wall for r in p) for p in passes],
        "raw_cpu_s": [sum(r.cpu for r in p) for p in passes],
        "host_speed": [r.speed for r in setup] + [r.speed for p in passes for r in p],
        "launches": [
            {"pass": i, "command": cmd.key, "wall": r.wall, "cpu": r.cpu, "speed": r.speed,
             "probe": r.probe}
            for i, p in enumerate(passes) for cmd, r in zip(commands, p)
        ],
    }
    return run, samples, raw


def traced(workload, seed, tm):
    """One untraced pass, then each command traced in two child processes."""
    commands = workloads.generate(workload, seed)
    digests = checks.load_digests()
    run = Run(workload, seed)
    env = child_env()
    launch(workloads.SETUP.argv, env)
    results = timed_pass(commands, env, run) or []
    pieri = checks.PieriCheck(tm.oracle)
    for cmd, result in zip(commands, results):
        run.record(cmd, result, digests, pieri)
    if len(results) < len(commands):
        run.attempted += len(commands) - len(results)
        run.failures.append({"command": "pass", "reason": "run deadline reached"})
        return run, {}, []

    spans, counts = [], collections.Counter()
    for cid, (cmd, printed) in enumerate(zip(commands, results)):
        docs = {}
        for mode in ("layered", "cli"):
            if run.out_of_time():
                run.failures.append({"command": "pass", "reason": "run deadline reached"})
                return run, {}, []
            child = scaled_launch((mode, cmd.to_json()), env, program=LAYERS)
            if child.returncode != 0:
                run.failures.append({"command": cmd.key, "reason": f"traced {mode} run exit {child.returncode}",
                                     "stderr": child.stderr.decode(errors="replace")[-300:]})
                break
            docs[mode] = json.loads(child.stdout)
            base = len(spans)
            for span in docs[mode]["spans"]:
                span.update(id=base + span["id"], command=cid, process=mode,
                            start=span["start"] * child.speed, end=span["end"] * child.speed)
                if span["parent"] is not None:
                    span["parent"] += base
                spans.append(span)
        if len(docs) < 2:
            continue
        counts.update(docs["layered"]["counts"])
        counts["cli.output_bytes"] += docs["cli"]["bytes"]
        same = (docs["cli"]["status"] == 0
                and docs["cli"]["sha256"] == checks.sha256(printed.stdout)
                and docs["layered"]["values"] == layers.encode(layers.printed_values(cmd, printed.stdout)))
        if not same:
            run.failures.append({"command": cmd.key, "reason": "traced run disagrees with untraced output"})
    untraced_wall = sum(r.scaled_wall for r in results)
    return run, layers.layer_metrics(spans, counts, untraced_wall), spans


def print_report(run, samples, units):
    failed = run.failed
    print(f"[{run.workload}] seed {run.seed}: attempted {run.attempted}, failed {failed}, "
          f"failed_share {failed / max(run.attempted, 1):.4f}")
    for f in run.failures:
        print(f"  FAILED {f['command']}: {f['reason']} {f.get('stderr', '')}".rstrip())
    for name, values in samples.items():
        med, q1, q3, n = summary(values)
        print(f"  {name:28s} median {med:12.6g} {units.get(name, ''):6s} q1 {q1:.6g} q3 {q3:.6g} n={n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tensormult" / "cli.py").is_file():
        print(f"error: no tensormult sources under {SRC}", file=sys.stderr)
        return 2
    tm = layers.import_package()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    env_record = environment()
    print(f"environment: {json.dumps(env_record, sort_keys=True)}")

    attempted = failed = 0
    metrics = {}
    OUT.mkdir(exist_ok=True)
    for name in names:
        if args.trace:
            run, values, spans = traced(name, args.seed, tm)
            with open(OUT / f"trace-{name}-seed{args.seed}.json", "w") as handle:
                json.dump({"environment": env_record, "workload": name, "seed": args.seed,
                           "spans": spans, "metrics": values}, handle)
            samples = {k: [v] for k, v in values.items()}
            units = {k: unit_of(k) for k in values}
            print_report(run, samples, units)
        else:
            run, samples, raw = untraced(name, args.seed, args.seconds, tm)
            values = {k: summary(v)[0] if v else 0.0 for k, v in samples.items()}
            units = END_TO_END_UNITS
            shown = {k: v for k, v in raw.items() if k != "launches"}
            print_report(run, {**samples, **shown}, {**units, "host_speed": "ratio"})
            with open(OUT / f"{name}-seed{args.seed}.json", "w") as handle:
                json.dump({"environment": env_record, "workload": name, "seed": args.seed,
                           "samples": samples, "raw": raw, "failures": run.failures}, handle)
        attempted += run.attempted
        failed += run.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share") or metric.endswith("_yield"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
