"""Source hygiene that no linter in the test environment checks."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ittm"


def imported_names(tree):
    """The names a module binds by import, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    """Every name a module reads, those inside string annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    return sorted(set(imported_names(tree)) - used_names(tree))


# Imports kept unused on purpose.  perfbench's tracer test asserts that
# `ittm.approx.run_transfinite` is the runner's function; it goes with the
# next benchmark change.
KEPT = {"approx.py": ["run_transfinite"]}


def test_every_imported_name_is_used():
    unused = {path.name: unused_imports(path.read_text())
              for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == KEPT
    # the walk sees a name read only in an annotation, and one left behind
    assert unused_imports("from __future__ import annotations\n"
                          "import math\nfrom .machine import Program\n"
                          "def f(p: 'list[Program]'): pass\n") == ["math"]
