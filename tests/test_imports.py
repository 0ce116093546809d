"""Every name a `bfel` module imports is used in that module, every
private module-level name is referenced somewhere in the package, every
public module-level function and public method has a caller there or a
stated reason to be kept, and every `ModelSpec` field is one a run sets."""

import ast
import dataclasses
from pathlib import Path

import pytest

from bfel.models import ModelSpec

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


# Public functions and methods that nothing in the package calls, each kept
# for a reason.
KEEP_WITHOUT_CALLER = {
    "data.save_bfeldata": "writes the BFELDATA container that README documents",
    "simulator.load_model_values": "reads the model.bin a run writes",
    "ledger.select_proposer": "acceptance criterion C07 tests it",
    "models.per_sample_loglik_grad": "a perfbench self-test deletes it by name",
}


def code_units(module: str, tree: ast.Module):
    """(qualified name, node) for each module-level function and each method
    of a module-level class, as "module.name" or "module.Class.name", and
    (None, node) for every other part of the module's code."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for part in node.bases + node.keywords + node.decorator_list:
                yield None, part
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{module}.{node.name}.{sub.name}", sub
                else:
                    yield None, sub
        else:
            yield None, node


def callerless_public_functions(sources: dict[str, str], keep) -> list[str]:
    """The public module-level functions and the public methods of
    module-level classes of `sources` that no other code there reads, as
    `code_units` names them, where `module` is a file name without ".py".
    Names are matched by their last part, as `unreferenced_private_names`
    matches them; a function's own body and the bodies of the `keep`
    functions do not count as readers."""
    defined, read = [], set()
    for file, source in sources.items():
        module = file.removesuffix(".py")
        for qualified, node in code_units(module, ast.parse(source)):
            owner = qualified and qualified.rsplit(".", 1)[1]
            if owner and not owner.startswith("_"):
                defined.append(qualified)
            if qualified in keep:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name
                else:
                    continue
                if name != owner:
                    read.add(name)
    return [f for f in defined if f.rsplit(".", 1)[1] not in read and f not in keep]


def test_every_public_function_has_a_caller_or_a_reason():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert callerless_public_functions(sources, KEEP_WITHOUT_CALLER) == []
    # no reason outlives its function, or stays once the function has a caller
    assert set(KEEP_WITHOUT_CALLER) <= set(callerless_public_functions(sources, {}))


def test_the_check_finds_callerless_public_functions():
    sources = {
        "a.py": (
            "def used():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "def only_from_kept():\n"
            "    pass\n"
            "def kept():\n"
            "    return only_from_kept()\n"
            "def _private():\n"
            "    pass\n"
            "def imported():\n"
            "    pass\n"
        ),
        "b.py": (
            "from .a import imported\n"
            "from . import a\n"
            "x = a.used() + _private()\n"
            "def never():\n"
            "    pass\n"
        ),
    }
    assert callerless_public_functions(sources, {"a.kept"}) == [
        "a.recursive", "a.only_from_kept", "b.never"
    ]


def test_the_check_finds_callerless_public_methods():
    sources = {
        "a.py": (
            "@decorate\n"
            "class A(base()):\n"
            "    size = 1\n"
            "    def __init__(self):\n"
            "        self.called()\n"
            "    def called(self):\n"
            "        return 1\n"
            "    def recursive(self):\n"
            "        return self.recursive()\n"
            "    def kept(self):\n"
            "        return self.only_from_kept()\n"
            "    def only_from_kept(self):\n"
            "        pass\n"
            "    def _private(self):\n"
            "        pass\n"
            "def decorate(cls):\n"
            "    return cls\n"
            "def base():\n"
            "    return object\n"
        ),
        "b.py": "from .a import A\nA().called()\n",
    }
    assert callerless_public_functions(sources, {"a.A.kept"}) == [
        "a.A.recursive", "a.A.only_from_kept"
    ]


def model_spec_keywords(source: str) -> set[str]:
    """The keywords of the one `ModelSpec(...)` call in the `rounds`
    function of `source`, which passes no positional argument."""
    rounds = next(node for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef) and node.name == "rounds")
    calls = [node for node in ast.walk(rounds) if isinstance(node, ast.Call)
             and ast.unparse(node.func) in ("ModelSpec", "models.ModelSpec")]
    assert len(calls) == 1 and not calls[0].args
    return {keyword.arg for keyword in calls[0].keywords}


def test_every_model_spec_field_is_one_a_run_sets():
    fields = {field.name for field in dataclasses.fields(ModelSpec)}
    assert model_spec_keywords((SRC / "simulator.py").read_text()) == fields
