"""Every module-level import of the package and of its tests is used (pyflakes'
F401, read with ast).  An import statement with `# noqa: F401` on one of its
lines is exempt.  The package's `__init__.py` is left out: its imports are
the public names it re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in [*ROOT.glob("src/nfgdual/*.py"), *ROOT.glob("tests/*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names that a module's top-level imports bind and its code never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, ast.Import) and not (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_guard_flags_an_unused_import_and_honours_noqa():
    source = ("import os\nimport sys  # noqa: F401\nfrom math import (\n    pi,\n    tau,\n)\n"
              "from numpy import linalg as la\nprint(pi, la)\n")
    assert unused_imports(source) == ["os (line 1)", "tau (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
