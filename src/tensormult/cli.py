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
from functools import partial

from . import diffformula, occupancy, oracle, verify
from .errors import TensormultError
from .partitions import (
    format_partition,
    hook_from_super_m,
    lambda_from_m,
    m_from_lambda,
    parse_partition,
    super_m_from_hook,
)
from .weyl import (
    SuperRootSubset,
    close_root_subset,
    parse_roots,
    weyl_denominator_ar,
    weyl_denominator_subalgebra,
    weyl_denominator_super,
    weyl_denominator_super_subalgebra,
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


def _label_rows(rank: int, total: int, label_of):
    """(weight vector, label) for every standard weight vector that has a label.

    label_of returns None or raises TensormultError for a vector without one.
    """
    rows = []
    for m_vec in occupancy.standard_m_vectors(rank, total):
        try:
            label = label_of(m_vec)
        except TensormultError:
            continue
        if label is not None:
            rows.append((m_vec, label))
    return rows


def _table_entries(rows, mus, fields, oracle_values=None):
    """Entries for the rows with a nonzero multiplicity, and the exit status.

    fields(label) gives the label's entry fields.  With oracle values, each
    entry carries the oracle's multiplicity and a mismatch exits 3.
    """
    status = EXIT_OK
    entries = []
    for (m_vec, label), mu in zip(rows, mus):
        if not mu:
            continue
        entry = {"M": list(m_vec), **fields(label), "mu": str(mu)}
        if oracle_values is not None:
            entry["oracle"] = str(oracle_values.get(label, 0))
            if entry["oracle"] != entry["mu"]:
                status = EXIT_MISMATCH
        entries.append(entry)
    return entries, status


def _lambda_fields(lam):
    return {"lambda": list(lam)}


def _branch_fields(label):
    diagrams, charges = label
    return {"diagrams": [format_partition(d) for d in diagrams], "charges": list(charges)}


def _super_branch_fields(label):
    diagrams, charges = label
    return {
        "diagrams": [
            f"{','.join(map(str, labels))}:{format_partition(lam)}"
            for labels, lam in diagrams
        ],
        "charges": [f"{a}:{value}" for a, value in charges],
    }


def _emit(doc: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    entries = doc.get("entries")
    if entries is None:
        row = {k: v for k, v in doc.items() if not isinstance(v, (dict, list))}
        out.write("\t".join(str(v) for v in row.values()) + "\n")
        return
    if entries:
        header = list(entries[0])
        out.write("\t".join(header) + "\n")
        for entry in entries:
            out.write(
                "\t".join(
                    ",".join(str(x) for x in v) if isinstance(v, (list, tuple)) else str(v)
                    for v in entry.values()
                )
                + "\n"
            )


def cmd_multiplicity(args, out) -> int:
    rank = _parse_algebra(args.algebra)
    spins = _parse_spins(args.twoS, args.L)
    total = sum(spins)
    query = {"algebra": f"A{rank}", "twoS": list(spins), "L": len(spins)}
    terms = len(weyl_denominator_ar(rank))  # refuses a too large rank up front
    if args.table:
        rows = _label_rows(rank, total, partial(lambda_from_m, two_sl=total))
        mus = [diffformula.multiplicity_from_m(m_vec, spins) for m_vec, _ in rows]
        oracle_values = (
            oracle.schur_expansion_pieri(spins, rank) if args.check else None
        )
        entries, status = _table_entries(rows, mus, _lambda_fields, oracle_values)
        _emit({"query": query, "entries": entries}, args.format, out)
        return status
    if getattr(args, "lambda") is None:
        raise ValueError("need --lambda or --table")
    lam = parse_partition(getattr(args, "lambda"))
    m_vec = m_from_lambda(lam, rank, total)
    mu = str(diffformula.multiplicity_from_m(m_vec, spins))
    doc = {
        "query": {**query, "lambda": list(lam)},
        "mu": mu,
        "witness": {"M": list(m_vec), "terms": terms},
    }
    status = EXIT_OK
    if args.check:
        want = str(oracle.schur_expansion_pieri(spins, rank).get(lam, 0))
        doc["oracle"] = want
        if want != mu:
            status = EXIT_MISMATCH
    _emit(doc, args.format, out)
    return status


def cmd_branch(args, out) -> int:
    rank = _parse_algebra(args.algebra)
    spins = _parse_spins(args.twoS, args.L)
    total = sum(spins)
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
    terms = len(weyl_denominator_subalgebra(spec))  # refuses a too large subset up front
    if args.table:
        rows = _label_rows(
            rank, total, partial(diffformula.branching_weight_from_m, spec=spec, two_sl=total)
        )
        mus = [
            diffformula.branching_multiplicity_from_m(m_vec, spec, spins)
            for m_vec, _ in rows
        ]
        entries, status = _table_entries(rows, mus, _branch_fields)
        _emit({"query": query, "entries": entries}, args.format, out)
        return status
    if args.rows is None:
        raise ValueError("need --rows or --table")
    rows = [int(t) for t in args.rows.split(",")]
    m_vec = diffformula.ambient_rows_to_m(rows, rank, total)
    mu = diffformula.branching_multiplicity_from_m(m_vec, spec, spins)
    doc = {
        "query": {**query, "rows": rows},
        "mu": str(mu),
        "witness": {"M": list(m_vec), "terms": terms},
    }
    _emit(doc, args.format, out)
    return EXIT_OK


def cmd_super(args, out) -> int:
    shape = _parse_shape(args.shape)
    m, n = shape
    rank = m + n - 1
    spins = _parse_spins(args.twoS, args.L)
    if len(set(spins)) != 1:
        raise ValueError("hook queries use one repeated degree")
    two_s, nsites = spins[0], len(spins)
    total = two_s * nsites
    query = {"shape": list(shape), "twoS": two_s, "L": nsites}
    sub = None
    if args.roots:
        sub = SuperRootSubset(shape, parse_roots(args.roots, shape))
        query["roots"] = [list(r) for r in sub.roots]
    if args.table:
        if sub is None:
            label_of = partial(hook_from_super_m, two_sl=total, shape=shape)
            worker = partial(
                diffformula.super_multiplicity_from_m,
                two_s=two_s, nsites=nsites, shape=shape,
            )
            fields = _lambda_fields
        else:
            label_of = partial(
                diffformula.super_branching_weight_from_m, sub=sub, two_s=two_s, nsites=nsites
            )
            worker = partial(
                diffformula.super_branching_multiplicity_from_m,
                sub=sub, two_s=two_s, nsites=nsites,
            )
            fields = _super_branch_fields
        rows = _label_rows(rank, total, label_of)
        mus = [worker(m_vec) for m_vec, _ in rows]
        oracle_values = (
            oracle.hook_schur_expansion(two_s, nsites, shape)
            if args.check and sub is None
            else None
        )
        entries, status = _table_entries(rows, mus, fields, oracle_values)
        _emit({"query": query, "entries": entries}, args.format, out)
        return status
    if args.M:
        m_vec = tuple(int(t) for t in args.M.split(","))
    elif getattr(args, "lambda") is not None:
        lam = parse_partition(getattr(args, "lambda"))
        m_vec = super_m_from_hook(lam, total, shape)
    else:
        raise ValueError("need --lambda, --M, or --table")
    clipped = tuple(max(x, 0) for x in m_vec)
    if sub is None:
        mu = diffformula.super_multiplicity_from_m(m_vec, two_s, nsites, shape)
        nterms = len(weyl_denominator_super(shape, clipped))
    else:
        mu = diffformula.super_branching_multiplicity_from_m(m_vec, sub, two_s, nsites)
        nterms = len(weyl_denominator_super_subalgebra(sub, clipped))
    doc = {
        "query": {**query, "M": list(m_vec)},
        "mu": str(mu),
        "witness": {"M": list(m_vec), "terms": nterms},
    }
    status = EXIT_OK
    if args.check and sub is None:
        try:
            lam = hook_from_super_m(m_vec, total, shape)
            want = str(
                oracle.hook_schur_expansion(two_s, nsites, shape).get(lam, 0)
            )
            doc["oracle"] = want
            if want != str(mu):
                status = EXIT_MISMATCH
        except TensormultError:
            doc["oracle"] = "unlabeled"
    _emit(doc, args.format, out)
    return status


def cmd_occupancy(args, out) -> int:
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


# per-suite names of the grid caps settable from the command line
_SUITE_PARAMS = {
    "backends": {"r": "rank_max", "twoS": "two_s_max", "L": "nsites_max"},
    "symmetry": {"r": "rank_max", "twoS": "two_s_max", "L": "nsites_max"},
    "rank-one": {"twoS": "two_s_max", "L": "nsites_max"},
    "tensor": {"r": "ranks", "twoS": "two_s_values", "L": "nsites_values"},
    "pieri": {"r": "rank_max", "twoS": "two_s_prime_max"},
    "hooklength": {"r": "rank_max", "L": "nsites_max"},
    "super": {"twoS": "two_s_values", "L": "nsites_max"},
    "kostka": {"r": "rank_max", "twoS": "two_s_max", "L": "nsites_max"},
}

_GRID_PARAMS = {"ranks", "two_s_values", "nsites_values"}


def _suite_overrides(name, args):
    overrides = {}
    for cli_key, param in _SUITE_PARAMS[name].items():
        value = getattr(args, cli_key)
        if value is None:
            continue
        overrides[param] = (
            tuple(range(1, value + 1)) if param in _GRID_PARAMS else value
        )
    return overrides


def cmd_verify(args, out) -> int:
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        violations = verify.run_suite(name, **_suite_overrides(name, args))
        out.write(f"{name}: {len(violations)} violations\n")
        if violations:
            out.write(f"first witness: {json.dumps(violations[0], sort_keys=True)}\n")
            failed = True
    return EXIT_MISMATCH if failed else EXIT_OK


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
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
