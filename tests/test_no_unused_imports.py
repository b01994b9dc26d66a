"""No module imports a name it never uses.

No lint tool ships with the toolchain, so this is the check: every
module under ``src/``, ``tests/``, ``benchmarks/`` and ``examples/`` is
parsed with :mod:`ast`, and a name bound by an import must be referenced
somewhere in the module — as a name, inside an annotation (quoted
annotations included) or in the module's ``__all__``.  Package
``__init__.py`` files re-export by importing and ``from __future__``
imports are directives, so both are exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src", "tests", "benchmarks", "examples")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def _names(node: ast.AST) -> set:
    """Names referenced under ``node``, reading string annotations too."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                found |= _names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return found


def unused_imports(source: str) -> list:
    """``(line, name)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _names(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            used |= _names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _names(node.returns)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant)
            }
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_every_import_is_used():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text())
    ]
    assert offenders == []


def test_the_check_sees_each_kind_of_use():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import List, Optional\n"
        "from a import b, c, d, e\n"
        "__all__ = ['d']\n"
        "def f(x: 'Optional[b]') -> List: return os.path\n"
    )
    assert unused_imports(source) == [(4, "c"), (4, "e")]
