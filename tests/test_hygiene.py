"""Source hygiene, checked on the syntax tree (no linter is assumed).

- No ``assert`` statement in the package: ``python -O`` strips them, so
  every invariant guard must raise explicitly.
- No unused import in ``src/``, ``tests/`` or ``scripts/``, apart from the
  package's re-exports in ``src/ellhall/__init__.py`` and names a module
  lists in ``__all__``.
- No ``def`` or ``class`` in the package that only the tests reach: each
  name (dunder methods aside) is read, as a name or an attribute, in
  ``src/``, ``scripts/`` or ``perfbench/`` somewhere outside its own body.
  The re-exports and ``__all__`` do not count as reads.  Names are matched
  by spelling only, so a method that shares its name with a reached one
  passes unseen.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ellhall"
REEXPORTS = PACKAGE / "__init__.py"
SOURCES = sorted(p for d in ("src", "tests", "scripts")
                 for p in (ROOT / d).rglob("*.py") if p != REEXPORTS)
RUNNERS = sorted(p for d in ("src", "scripts", "perfbench")
                 for p in (ROOT / d).rglob("*.py") if p != REEXPORTS)


def _rel(path):
    return str(path.relative_to(ROOT))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree):
    """Names bound by an import and never read, with their line numbers."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names a module re-exports through __all__
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    # names read only inside quoted annotations
    for node in ast.walk(tree):
        note = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(note) if note is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                expr = ast.parse(part.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unreached_definitions(defining, readers):
    """(label, line, name) of each def or class of the `defining` trees whose
    name no tree of `readers` reads outside the definition's own body.

    Both are lists of (label, tree); dunder names are exempt.
    """
    reads = {}
    for label, tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.setdefault(node.id, []).append((label, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((label, node.lineno))
    unreached = []
    for label, tree in defining:
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or node.name.startswith("__") and node.name.endswith("__")):
                continue
            if not any(where != label or not node.lineno <= line <= node.end_lineno
                       for where, line in reads.get(node.name, ())):
                unreached.append((label, node.lineno, node.name))
    return sorted(unreached)


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=_rel)
def test_no_assert_in_package(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert not lines, f"assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=_rel)
def test_no_unused_imports(path):
    unused = unused_imports(_tree(path))
    assert not unused, f"unused imports (line, name): {unused}"


def test_scan_sees_unused_imports():
    tree = ast.parse("from __future__ import annotations\nimport os\n"
                     "import os.path as osp\nfrom json import dumps, loads, load\n"
                     "from fractions import Fraction\nimport math\n"
                     "x: 'Fraction' = loads('math')\n__all__ = ['load']\n")
    assert unused_imports(tree) == [(2, "os"), (3, "osp"), (4, "dumps"), (6, "math")]


def test_every_definition_is_reached():
    defining = [(_rel(p), _tree(p)) for p in sorted(PACKAGE.rglob("*.py"))]
    readers = [(_rel(p), _tree(p)) for p in RUNNERS]
    unreached = unreached_definitions(defining, readers)
    assert not unreached, f"definitions only tests reach (file, line, name): {unreached}"


def test_scan_sees_unreached_definitions():
    package = ast.parse("def used():\n    return 1\n\n"
                        "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n\n"
                        "class Box:\n    def __init__(self):\n        self.v = used()\n\n"
                        "    def get(self):\n        return self.v\n\n"
                        "    def size(self):\n        return len(self.v)\n\n"
                        "__all__ = ['fact']\n")
    reexports = ast.parse("from .mod import Box, fact\n")
    script = ast.parse("import mod\nprint(mod.Box().get())\n")
    # recursion, a re-export and __all__ are no reads; __init__ is exempt
    readers = [("mod", package), ("__init__", reexports), ("script", script)]
    assert unreached_definitions([("mod", package)], readers) == [
        ("mod", 4, "fact"), ("mod", 14, "size")]
