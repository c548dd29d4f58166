"""Traced run: per-layer spans and counts.

Each command is traced in two fresh child processes (`python layers.py
<mode> <command json>`), so every cache starts cold:

1. mode "layered" calls the package's public functions in the order the CLI
   does (label enumeration, denominator expansion, count store, shift sums,
   oracle) and records one span per layer; `verify` gets one span per suite;
2. mode "cli" runs `cli.main` in-process with the same arguments, timed as
   `cli.main_s`.

The spans are recorded from these call sites only; nothing inside the program
is instrumented, so `sympoly` arithmetic is counted in the layer that called
it, and inside `verify` the suite is the finest boundary.  Each child prints
one JSON document; the benchmark rescales its span times like any launch.
"""

import contextlib
import hashlib
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The suites `verify --suite all` runs; one per-layer metric each.
SUITE_ORDER = ("backends", "hooklength", "kostka", "pieri", "rank-one", "super", "symmetry", "tensor")

LAYER_SPANS = {
    "partitions.enum": "partitions.enum_s",
    "weyl.expand": "weyl.expand_s",
    "occupancy.build": "occupancy.build_s",
    "diffformula.shift": "diffformula.shift_s",
    "oracle.check": "oracle.check_s",
}


class Tracer:
    """Spans kept in memory: id, name, start, end, parent span id."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._clock0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        """Time the block; its parent is the innermost span still open."""
        parent = self._open[-1] if self._open else None
        record = {"id": len(self.spans), "name": name, "parent": parent}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter() - self._clock0
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._clock0
            self._open.pop()


def _nonneg(m_vec):
    return tuple(max(x, 0) for x in m_vec)


def _labels(tm, cmd, spec, sub):
    """(m_vec, label) rows the CLI emits for a table command, in CLI order."""
    total = sum(cmd.spins)

    def hook_label(m_vec, total):
        return tm.partitions.hook_from_super_m(m_vec, total, cmd.shape)

    convert = tm.partitions.lambda_from_m if cmd.kind == "multiplicity" else hook_label
    rows, visited = [], 0
    for m_vec in tm.occupancy.standard_m_vectors(cmd.rank, total):
        visited += 1
        if cmd.kind == "branch":
            label = tm.diffformula.branching_weight_from_m(m_vec, spec, total)
        elif cmd.kind == "super" and sub is not None:
            label = tm.diffformula.super_branching_weight_from_m(m_vec, sub, cmd.spins[0], len(cmd.spins))
        else:
            try:
                label = convert(m_vec, total)
            except tm.errors.TensormultError:
                label = None
        if label is not None:
            rows.append((m_vec, label))
    return rows, visited


def layered(tm, cmd, tracer, counts):
    """Run one query command layer by layer; return {M vector: value} or mu.

    The values are what the CLI would print (zeros dropped from tables).
    """
    total = sum(cmd.spins)
    spec = sub = None
    if cmd.kind == "branch":
        spec = tm.weyl.close_root_subset(tm.weyl.parse_roots(cmd.roots), cmd.rank)
    elif cmd.kind == "super" and cmd.roots is not None:
        sub = tm.weyl.SuperRootSubset(cmd.shape, tm.weyl.parse_roots(cmd.roots, cmd.shape))

    with tracer.span("partitions.enum"):
        if cmd.lam is None:
            rows, visited = _labels(tm, cmd, spec, sub)
        else:
            rows = [(tm.partitions.m_from_lambda(cmd.lam, cmd.rank, total), cmd.lam)]
            visited = 1
    counts["partitions.visited"] += visited
    counts["partitions.labels"] += len(rows)

    with tracer.span("weyl.expand"):
        if cmd.kind == "multiplicity":
            expansions = [tm.weyl.weyl_denominator_ar(cmd.rank)] * len(rows)
            built = [expansions[0]] if rows else []
        elif cmd.kind == "branch":
            expansions = [tm.weyl.weyl_denominator_subalgebra(spec)] * len(rows)
            built = [expansions[0]] if rows else []
        elif sub is None:
            expansions = [tm.weyl.weyl_denominator_super(cmd.shape, _nonneg(m)) for m, _ in rows]
            built = expansions
        else:
            expansions = [tm.weyl.weyl_denominator_super_subalgebra(sub, _nonneg(m)) for m, _ in rows]
            built = expansions
    counts["weyl.expansions"] += len(built)
    counts["weyl.terms"] += sum(len(e) for e in built)

    with tracer.span("occupancy.build"):
        if cmd.kind == "super":
            store = tm.occupancy.super_occupancy_table(cmd.spins[0], len(cmd.spins), cmd.shape)
        else:
            store = tm.occupancy.occupancy_table(cmd.spins, cmd.rank)
    counts["occupancy.builds"] += 1
    counts["occupancy.store_entries"] += len(store)

    if cmd.kind == "super":
        def c_eval(mv):
            return tm.occupancy.super_occupancy_coefficient(mv, cmd.spins[0], len(cmd.spins), cmd.shape)
    else:
        def c_eval(mv):
            return tm.occupancy.occupancy_coefficient(mv, cmd.spins)
    with tracer.span("diffformula.shift"):
        mus = [tm.diffformula.apply_shift(e, c_eval, m) for e, (m, _) in zip(expansions, rows)]
    # Every term is one lookup; a lookup outside the store reads a zero count.
    lookups = zero = 0
    for e, (m_vec, _) in zip(expansions, rows):
        lookups += len(e)
        zero += sum(1 for _, shift in e.terms
                    if tuple(a - b for a, b in zip(m_vec, shift)) not in store)
    counts["diffformula.queries"] += len(rows)
    counts["diffformula.nonzero"] += sum(1 for mu in mus if mu)
    counts["diffformula.lookups"] += lookups
    counts["diffformula.zero_lookups"] += zero

    if cmd.check:
        with tracer.span("oracle.check"):
            if cmd.kind == "super":
                want = tm.oracle.hook_schur_expansion(cmd.spins[0], len(cmd.spins), cmd.shape)
            else:
                want = tm.oracle.schur_expansion(cmd.spins, cmd.rank)
        counts["oracle.entries"] += len(want)

    if cmd.lam is not None:
        return mus[0]
    return {tuple(m): mu for (m, _), mu in zip(rows, mus) if mu}


def layered_verify(tm, tracer, counts):
    """Run the suites `verify --suite all` runs, one span each; return violation counts."""
    out = {}
    for name in sorted(tm.verify.SUITES):
        with tracer.span(f"verify.{name}"):
            out[name] = len(tm.verify.run_suite(name))
    counts["verify.violations"] += sum(out.values())
    return out


def printed_values(cmd, stdout: bytes):
    """The values the CLI printed, in the shape `layered` returns them."""
    if cmd.kind == "verify":
        return {
            name: int(rest.split()[0])
            for name, _, rest in (line.partition(": ") for line in stdout.decode().splitlines())
            if rest.endswith("violations")
        }
    doc = json.loads(stdout)
    if cmd.lam is not None:
        return int(doc["mu"])
    return {tuple(e["M"]): int(e["mu"]) for e in doc["entries"]}


def run_cli(tm, argv) -> tuple[bytes, int]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = tm.cli.main(list(argv))
    return buffer.getvalue().encode(), status


def import_package():
    """Import tensormult from the checkout's src, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tensormult
    from tensormult import cli, diffformula, errors, occupancy, oracle, partitions, sympoly, verify, weyl  # noqa: F401
    if Path(tensormult.__file__).resolve().parent != SRC / "tensormult":
        raise SystemExit(f"imported tensormult from {tensormult.__file__}, not from {SRC}")
    return tensormult


def encode(values):
    """JSON form of `layered` / `printed_values` results, for comparison."""
    if isinstance(values, dict):
        return sorted([list(k) if isinstance(k, tuple) else k, v] for k, v in values.items())
    return values


def child(mode: str, cmd) -> dict:
    """Trace one command in this fresh process (so every cache starts cold).

    mode "layered" runs the layered pipeline; mode "cli" times `cli.main`.
    """
    tm = import_package()
    tracer, counts = Tracer(), Counter()
    if mode == "cli":
        with tracer.span("cli.main"):
            stdout, status = run_cli(tm, cmd.argv)
        return {"spans": tracer.spans, "status": status,
                "sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)}
    with tracer.span("command"):
        if cmd.kind == "verify":
            values = layered_verify(tm, tracer, counts)
        else:
            values = layered(tm, cmd, tracer, counts)
    return {"spans": tracer.spans, "counts": counts, "values": encode(values)}


def layer_metrics(spans, counts, untraced_wall):
    """Per-layer metric values summed over the workload's spans and counts."""
    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    m = {metric: total(name) for name, metric in LAYER_SPANS.items()}
    for key in ("partitions.visited", "partitions.labels", "weyl.expansions", "weyl.terms",
                "occupancy.builds", "occupancy.store_entries", "diffformula.queries",
                "diffformula.lookups", "oracle.entries", "verify.violations", "cli.output_bytes"):
        m[key] = counts.get(key, 0)
    m["partitions.label_yield"] = _share(m["partitions.labels"], m["partitions.visited"])
    m["diffformula.zero_lookup_share"] = _share(counts.get("diffformula.zero_lookups", 0), m["diffformula.lookups"])
    m["diffformula.nonzero_share"] = _share(counts.get("diffformula.nonzero", 0), m["diffformula.queries"])
    for name in SUITE_ORDER:
        m[f"verify.{name}_s"] = total(f"verify.{name}")
    cli_total = total("cli.main")
    layer_total = sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] in LAYER_SPANS or s["name"].startswith("verify.")
    )
    m["cli.main_s"] = cli_total
    m["cli.self_s"] = cli_total - layer_total
    m["process.startup_s"] = untraced_wall - cli_total
    m["trace.overhead_share"] = (layer_total - untraced_wall) / untraced_wall
    return m


def _share(part, whole):
    return part / whole if whole else 0.0


if __name__ == "__main__":
    import workloads

    print(json.dumps(child(sys.argv[1], workloads.Command.from_json(sys.argv[2]))))
