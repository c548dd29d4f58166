"""The names the benchmark reads from the package must exist.

`perfbench/layers.py` (the traced layers) and `perfbench/checks.py` (the
Pieri check) call the package by attribute, as `tm.<module>.<name>` and
`_oracle.<name>`; tier-1 does not run the benchmark's own tests, so a renamed
or deleted function would only show when the benchmark runs.  The files are
parsed, never imported or run.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _names_read(path):
    """(module, name) for every tm.<module>.<name> and _oracle.<name> in the file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        inner = node.value
        if isinstance(inner, ast.Attribute):
            if isinstance(inner.value, ast.Name) and inner.value.id == "tm":
                found.add((inner.attr, node.attr))
            elif inner.attr == "_oracle":
                found.add(("oracle", node.attr))
        elif isinstance(inner, ast.Name) and inner.id == "_oracle":
            found.add(("oracle", node.attr))
    return found


def test_benchmark_reads_only_names_that_exist():
    names = _names_read(PERFBENCH / "layers.py") | _names_read(PERFBENCH / "checks.py")
    assert names
    missing = sorted(
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"tensormult.{module}"), name)
    )
    assert not missing, missing
