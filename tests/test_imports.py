"""Every module-level import of the package and of its tests is used (pyflakes'
F401, read with ast).  An import statement with `# noqa: F401` on one of its
lines is exempt.  The package's `__init__.py` is left out: its imports are
the public names it re-exports.

Every module-level function and class of the package has a caller in the
package: code that only the tests reach belongs in the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/nfgdual/*.py"))
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


def uncalled_definitions(sources: dict) -> list:
    """The module-level functions and classes of sources (module name -> source) whose
    name is read nowhere outside its own definition: by an ast.Name, an ast.Attribute
    or an import alias.  Methods are out of scope (argparse calls _Parser.error)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def reads(tree) -> list:
        names = []
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.append(n.id)
            elif isinstance(n, ast.Attribute):
                names.append(n.attr)
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                names += [alias.name.rpartition(".")[2] for alias in n.names]
        return names

    everywhere = [name for tree in trees.values() for name in reads(tree)]
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and everywhere.count(node.name) == reads(node).count(node.name)]


def test_guard_flags_a_definition_with_no_caller():
    sources = {
        "__init__": "from .a import exported\n",
        "a": ("def exported():\n    return helper()\n\n"
              "def helper():\n    return 1\n\n"
              "def recursive(n):\n    return recursive(n - 1)\n\n"
              "class Orphan:\n    def method(self):\n        return Orphan\n"),
        "b": "import a\nx = a.helper\nexported = 1\n",
    }
    assert uncalled_definitions(sources) == ["a.recursive", "a.Orphan"]


def test_every_definition_has_a_caller():
    assert uncalled_definitions({p.stem: p.read_text() for p in PACKAGE}) == []
