"""The library modules sit below the experiments, the suites and the command
line: they import nothing from those, so the layering runs one way."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "srds"
LOWER = ("grid", "linalg", "rng", "noise", "reaction", "operators", "solver", "config")
UPPER = {"experiments", "verify", "cli"}


def _imported_modules(tree):
    """The srds modules a module imports, at any depth of its code."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("srds"):
                continue
            parts = (node.module or "").split(".")
            base = parts[1:] if node.level == 0 else parts
            if base and base[0]:
                found.add(base[0])
            else:  # from . import name / from srds import name
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("srds."))
    return found


@pytest.mark.parametrize("module", LOWER)
def test_library_module_imports_no_upper_layer(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert not _imported_modules(tree) & UPPER


def test_the_layer_check_sees_relative_and_absolute_imports():
    tree = ast.parse("from .experiments import x\nfrom . import verify\n"
                     "import srds.cli\nfrom srds.experiments import y\n"
                     "def f():\n    from .solver import z\n")
    assert _imported_modules(tree) == {"experiments", "verify", "cli", "solver"}
