"""`src` holds what the commands and the benchmark run, and the shift route
shares no code with the polynomial oracles.

A module-level name of `src/tensormult` that only the tests read belongs in
`tests/reference.py`.  The sources are parsed, never imported or run.
"""

import ast
from pathlib import Path

from test_bench_surface import PERFBENCH, _names_read

SRC = Path(__file__).resolve().parent.parent / "src" / "tensormult"

# Read by no command and not by the benchmark, each kept for an open ROADMAP
# item (the `__init__` re-exports count as no read).
KEPT = {
    # item 8: the proved n = 1 check of the hook route, to extend to mixed degrees
    ("diffformula", "even_branching_multiplicity"),
    # item 2: the ordinary block dimensions of the restriction sum rule
    ("oracle", "weyl_dimension"),
}

# Read only by the benchmark's traced layers (`perfbench/layers.py`), which
# expand and apply the denominator listings and filter weight vectors for
# labels.  They can leave `src` once the benchmark no longer reads them
# (ROADMAP item 7).
BENCHMARK_ONLY = {
    ("diffformula", "apply_shift"),
    ("diffformula", "branching_weight_from_m"),
    ("diffformula", "super_branching_weight_from_m"),
    ("occupancy", "super_occupancy_coefficient"),
    ("occupancy", "super_occupancy_table"),
    ("partitions", "lambda_from_m"),
    ("weyl", "weyl_denominator_ar"),
    ("weyl", "weyl_denominator_super"),
}


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}


def _defined(tree):
    """The module-level functions, classes and assigned names of a module."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return names


def _read_in_src(modules):
    """(module, name) of every module-level name that src code reads outside
    its own definition: by its bare name in its module, by a name imported
    with `from .module import name`, or as `module.name` after `from . import
    module`."""
    reads = set()
    for module, tree in modules.items():
        own = _defined(tree)
        imported, aliases = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        imported[alias.asname or alias.name] = (node.module, alias.name)
                    else:
                        aliases[alias.asname or alias.name] = alias.name

        def visit(node, inside):
            if own.get(getattr(node, "name", None)) is node:
                inside = node.name
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported:
                    reads.add(imported[node.id])
                elif node.id in own and node.id != inside:
                    reads.add((module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                reads.add((aliases[node.value.id], node.attr))
            for child in ast.iter_child_nodes(node):
                visit(child, inside)

        visit(tree, None)
    return reads


def test_every_src_name_is_read_by_src_or_the_benchmark():
    modules = _modules()
    defined = {(module, name) for module, tree in modules.items() for name in _defined(tree)}
    unread = defined - _read_in_src(modules)
    benchmark = _names_read(PERFBENCH / "layers.py") | _names_read(PERFBENCH / "checks.py")
    assert BENCHMARK_ONLY <= benchmark
    assert not KEPT & benchmark
    # no name is read only by tests, and neither list holds a name src reads
    assert unread == KEPT | BENCHMARK_ONLY, sorted(unread ^ (KEPT | BENCHMARK_ONLY))


def test_the_route_imports_nothing_of_the_oracles():
    """The shift route and what it reads (weyl, diffformula, occupancy,
    partitions) import nothing from sympoly or oracle, as the oracles import
    nothing of the route (`test_oracle_imports_nothing_of_the_shift_route`)."""
    for module in ("weyl", "diffformula", "occupancy", "partitions"):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source, names = (node.module or "").split(".")[-1], {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                source, names = None, {a.name.split(".")[-1] for a in node.names}
            else:
                continue
            assert source not in ("sympoly", "oracle"), (module, source)
            assert not names & {"sympoly", "oracle"}, (module, names)
