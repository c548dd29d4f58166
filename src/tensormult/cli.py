"""Command-line surface: single multiplicity queries, bulk tables, restriction
tables, occupancy dumps, and cross-validation suites.

Exit codes: 0 success, 2 usage error, 3 cross-check or suite failure.  Big
integers are emitted as decimal strings; table entries are sorted by weight
vector so repeated runs are byte-identical.
"""

import argparse
import io
import json
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from . import diffformula, occupancy, oracle, verify
from .errors import TensormultError
from .partitions import (
    format_partition,
    m_from_lambda,
    parse_partition,
    super_m_from_hook,
)
from .weyl import (
    SuperRootSubset,
    close_root_subset,
    full_subalgebra,
    hook_algebra,
    parse_roots,
    split_denominator,
    weyl_denominator_super_subalgebra,
    weyl_order,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3


def _parse_algebra(text: str) -> int:
    text = text.strip().upper()
    if not text.startswith("A") or not text[1:].isdigit() or int(text[1:]) < 1:
        raise ValueError(f"algebra must look like A2, got {text!r}")
    return int(text[1:])


def _parse_shape(text: str) -> tuple[int, int]:
    parts = [int(t) for t in text.split(",")]
    if len(parts) != 2 or parts[0] < 1 or parts[1] < 1:
        raise ValueError(f"shape must be m,n with m,n >= 1, got {text!r}")
    return (parts[0], parts[1])


def _parse_spins(two_s_text: str, nsites) -> tuple[int, ...]:
    values = [int(t) for t in two_s_text.split(",")]
    if nsites is not None and nsites < 1:
        raise ValueError(f"--L must be at least 1, got {nsites}")
    if any(v < 0 for v in values):
        raise ValueError("site degrees must be nonnegative")
    if len(values) == 1:
        if nsites is None:
            raise ValueError("--L is required with a single --twoS value")
        return tuple(values) * nsites
    if nsites is not None and nsites != len(values):
        raise ValueError(f"--L {nsites} disagrees with {len(values)} --twoS values")
    return tuple(values)


def _lambda_fields(label, diagram_text):
    return {"lambda": list(diffformula.diagram_of(label))}


def _branch_fields(label, diagram_text):
    diagrams, charges = label
    return {
        "diagrams": [diagram_text(lam) for _, lam in diagrams],
        "charges": [value for _, value in charges],
    }


def _super_branch_fields(label, diagram_text):
    diagrams, charges = label
    return {
        "diagrams": [
            f"{','.join(map(str, labels))}:{diagram_text(lam)}"
            for labels, lam in diagrams
        ],
        "charges": [f"{a}:{value}" for a, value in charges],
    }


def _json(value, pad: str = "") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, every line after the
    first indented by pad more: dicts of str keys, lists, tuples, ints and
    strings written directly, anything else through json.dumps."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    inner = pad + "  "
    if kind is dict:
        items = [f"{encode_basestring_ascii(key)}: {_json(value[key], inner)}"
                 for key in sorted(value)]
        ends = "{}"
    elif kind is list or kind is tuple:
        items = [_json(item, inner) for item in value]
        ends = "[]"
    else:
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    if not items:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def _emit(doc: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(_json(doc) + "\n")
        return
    entries = doc.get("entries")
    if entries is None:
        # a single query is one row of its scalar fields, under their names
        entries = [{k: v for k, v in doc.items() if not isinstance(v, (dict, list))}]
    if entries:
        out.write("\t".join(entries[0]) + "\n")
        for entry in entries:
            out.write(
                "\t".join(
                    ",".join(str(x) for x in v) if isinstance(v, (list, tuple)) else str(v)
                    for v in entry.values()
                )
                + "\n"
            )


def _refuse_unread(args, *flags) -> None:
    """Exit 2 for a single-query flag given with --table, which reads none."""
    if args.table:
        for flag in flags:
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} is not read with --table")


def _run_query(args, out, sub: SuperRootSubset, spins, query, fields, single) -> int:
    """The one query pipeline: the closed root subset sub, the degrees spins.

    A subset is closed when built; its even group is refused up front if too
    large, and with --check the Pieri fold of the subset's shape is built once.
    Every value comes from the one shift route, `diffformula.multiplicities`,
    and row() gives a label's entry (fields(label, diagram_text), the value
    and the oracle's) and exits 3 on a mismatch.  A table is one call,
    `diffformula.table`; it keeps the rows where either value is nonzero,
    and exits 3 when an oracle label has no row.  A single query is one row:
    single(total) gives (query fields, weight vector), which
    `diffformula._subset_labels` labels or refuses when it labels no highest
    weight.
    """
    components, odd = split_denominator(sub)
    total = sum(spins)
    check = getattr(args, "check", False)
    unrowed = dict(oracle.pieri_expansion(spins, sub.shape)) if check else {}
    status = EXIT_OK
    diagram_text = cache(format_partition)  # each distinct diagram formatted once

    def row(m_vec, label, value):
        nonlocal status
        mu = str(value)
        entry = {"M": list(m_vec), **fields(label, diagram_text), "mu": mu}
        if check:
            entry["oracle"] = str(unrowed.pop(diffformula.diagram_of(label), 0))
            if entry["oracle"] != mu:
                status = EXIT_MISMATCH
        return entry

    if args.table:
        every = (row(m_vec, label, value) for m_vec, label, value in diffformula.table(sub, spins))
        entries = [e for e in every if e["mu"] != "0" or e.get("oracle", "0") != "0"]
        for lam in sorted(unrowed):
            print(f"oracle label {lam} has no table row", file=sys.stderr)
            status = EXIT_MISMATCH
        _emit({"query": query, "entries": entries}, args.format, out)
        return status
    extra, m_vec = single(total)
    label = diffformula._subset_labels(m_vec, sub, total)
    entry = row(m_vec, label, diffformula.multiplicities(sub, [m_vec], spins)[0])
    if odd:
        terms = len(weyl_denominator_super_subalgebra(sub, m_vec))
    else:
        terms = weyl_order(components)
    doc = {
        "query": {**query, **extra},
        "mu": entry["mu"],
        "witness": {"M": entry["M"], "terms": terms},
    }
    if check:
        doc["oracle"] = entry["oracle"]
    _emit(doc, args.format, out)
    return status


def cmd_multiplicity(args, out) -> int:
    _refuse_unread(args, "lambda")
    rank = _parse_algebra(args.algebra)
    spins = _parse_spins(args.twoS, args.L)
    query = {"algebra": f"A{rank}", "twoS": list(spins), "L": len(spins)}

    def single(total):
        if getattr(args, "lambda") is None:
            raise ValueError("need --lambda or --table")
        lam = parse_partition(getattr(args, "lambda"))
        return {"lambda": list(lam)}, m_from_lambda(lam, rank, total)

    return _run_query(args, out, full_subalgebra(rank), spins, query, _lambda_fields, single)


def cmd_branch(args, out) -> int:
    _refuse_unread(args, "rows")
    rank = _parse_algebra(args.algebra)
    spins = _parse_spins(args.twoS, args.L)
    roots = parse_roots(args.roots)
    spec = close_root_subset(roots, rank)
    query = {
        "algebra": f"A{rank}",
        "twoS": list(spins),
        "L": len(spins),
        "roots": [f"L{i}-L{j}" for i, j in roots],
        "components": [list(c) for c in spec.components],
        "abelian": list(spec.abelian),
    }

    def single(total):
        if args.rows is None:
            raise ValueError("need --rows or --table")
        rows = [int(t) for t in args.rows.split(",")]
        return {"rows": rows}, diffformula.ambient_rows_to_m(rows, rank, total)

    return _run_query(args, out, spec, spins, query, _branch_fields, single)


def cmd_super(args, out) -> int:
    _refuse_unread(args, "lambda", "M")
    if args.M is not None and getattr(args, "lambda") is not None:
        raise ValueError("--lambda is not read with --M")
    shape = _parse_shape(args.shape)
    spins = _parse_spins(args.twoS, args.L)
    if len(set(spins)) != 1:
        raise ValueError("hook queries use one repeated degree")
    query = {"shape": list(shape), "twoS": spins[0], "L": len(spins)}
    fields = _lambda_fields
    if args.roots is not None:
        if args.check:
            raise ValueError("--check has no oracle for hook restrictions (--roots)")
        sub = SuperRootSubset(shape, parse_roots(args.roots, shape))
        query["roots"] = [list(r) for r in sub.roots]
        fields = _super_branch_fields
    else:
        sub = hook_algebra(shape)

    def single(total):
        if args.M:
            m_vec = tuple(int(t) for t in args.M.split(","))
        elif getattr(args, "lambda") is not None:
            m_vec = super_m_from_hook(parse_partition(getattr(args, "lambda")), total, shape)
        else:
            raise ValueError("need --lambda, --M, or --table")
        return {"M": list(m_vec)}, m_vec

    return _run_query(args, out, sub, spins, query, fields, single)


def cmd_occupancy(args, out) -> int:
    _refuse_unread(args, "M")
    rank = _parse_algebra(args.algebra)
    spins = _parse_spins(args.twoS, args.L)
    if args.table:
        table = occupancy.occupancy_table(spins, rank)
        doc = {
            "r": rank,
            "twoS": list(spins),
            "L": len(spins),
            "entries": [
                {"M": list(m_vec), "c": str(table[m_vec])} for m_vec in sorted(table)
            ],
        }
        _emit(doc, args.format, out)
        return EXIT_OK
    if args.M is None:
        raise ValueError("need --M or --table")
    m_vec = tuple(int(t) for t in args.M.split(","))
    if len(m_vec) != rank:
        raise ValueError(f"--M needs {rank} entries for A{rank}, got {len(m_vec)}")
    doc = {
        "r": rank,
        "twoS": list(spins),
        "L": len(spins),
        "M": list(m_vec),
        "c": str(occupancy.occupancy_coefficient(m_vec, spins)),
    }
    _emit(doc, args.format, out)
    return EXIT_OK


# the keyword each grid cap sets, the same in every suite that takes it
_CAP_PARAMS = {"r": "rank_max", "twoS": "two_s_max", "L": "nsites_max"}


def cmd_verify(args, out) -> int:
    """Each suite of the run gets the caps it takes (`verify.caps_of`); a cap
    that no suite of the run takes is refused rather than ignored."""
    given = {flag: getattr(args, flag) for flag in _CAP_PARAMS if getattr(args, flag) is not None}
    for flag, value in given.items():
        if value < 1:
            raise ValueError(f"--{flag} must be at least 1, got {value}")
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    taken = {name: verify.caps_of(name) for name in names}
    for flag in given:
        if not any(_CAP_PARAMS[flag] in caps for caps in taken.values()):
            raise ValueError(f"--{flag} does not apply to the {args.suite} suite")
    results = verify.run_suites({
        name: {_CAP_PARAMS[flag]: value for flag, value in given.items() if _CAP_PARAMS[flag] in caps}
        for name, caps in taken.items()
    })
    for name, violations in results.items():
        out.write(f"{name}: {len(violations)} violations\n")
        if violations:
            out.write(f"first witness: {json.dumps(violations[0], sort_keys=True)}\n")
    return EXIT_MISMATCH if any(results.values()) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensormult",
        description="Exact tensor-power multiplicities via shift operators on occupancy counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, table=True):
        p.add_argument("--twoS", required=True, help="degree 2s, or a comma list per factor")
        p.add_argument("--L", type=int, help="number of tensor factors")
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--output", help="write to this path instead of stdout")
        if table:
            p.add_argument("--table", action="store_true", help="emit the full table")

    p = sub.add_parser("multiplicity", help="irreducible multiplicities in a tensor power")
    p.add_argument("--algebra", required=True, help="ambient algebra, e.g. A2")
    p.add_argument("--lambda", dest="lambda", help='target diagram, e.g. "3,2,1"')
    p.add_argument("--check", action="store_true", help="cross-check against the oracle")
    common(p)
    p.set_defaults(func=cmd_multiplicity)

    p = sub.add_parser("branch", help="restriction multiplicities to a subalgebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--roots", required=True, help='e.g. "L1-L3,L3-L4" or "a1+a2,a3"')
    p.add_argument("--rows", help="ambient row sequence of the target, e.g. 5,0,1")
    common(p)
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("super", help="hook-algebra multiplicities and restrictions")
    p.add_argument("--shape", required=True, help="hook shape m,n")
    p.add_argument("--lambda", dest="lambda", help="target hook diagram")
    p.add_argument("--M", help="target weight vector, e.g. 3,1")
    p.add_argument("--roots", help="restrict to this closed root subset")
    p.add_argument("--check", action="store_true")
    common(p)
    p.set_defaults(func=cmd_super)

    p = sub.add_parser("occupancy", help="restricted occupancy counts")
    p.add_argument("--algebra", required=True)
    p.add_argument("--M", help="weight vector, e.g. 3,1")
    common(p)
    p.set_defaults(func=cmd_occupancy)

    p = sub.add_parser("verify", help="run cross-validation suites")
    p.add_argument("--suite", default="all", choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--r", type=int, help="cap the rank grid")
    p.add_argument("--twoS", type=int, help="cap the degree grid")
    p.add_argument("--L", type=int, help="cap the factor-count grid")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    buffer = io.StringIO()
    try:
        status = args.func(args, buffer)
    except (TensormultError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = buffer.getvalue()
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write --output: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
