"""Every name a `bfel` module imports is used in that module, and every
private module-level name is referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bfel"


def unused_imports(source: str) -> list[str]:
    """The names imported by `source` that it never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from dataclasses import dataclass, replace\n"
        "from enum import Enum\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
    )
    assert unused_imports(source) == [
        "os (line 3)", "replace (line 4)", "Enum (line 5)"
    ]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names (`def _x`, `class _X`, `_X = ...` and
    `_X: T = ...`) that no module of `sources` reads, as "module:line name".
    A name imported from another module counts as read."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{module}:{line} {name}" for module, line, name in defined
            if name not in read]


def test_no_unreferenced_private_name():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_the_check_finds_unreferenced_private_names():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "def _helper():\n"
            "    return _USED\n"
            "class _Gone:\n"
            "    pass\n"
            "def _imported():\n"
            "    pass\n"
            "__version__ = '1'\n"
        ),
        "b.py": "from .a import _imported\nfrom . import a\nx = a._helper\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:2 _UNUSED", "a.py:5 _Gone"]
