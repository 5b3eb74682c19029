"""The library modules sit below the experiments, the suites and the command
line: they import nothing from those, so the layering runs one way, and
``readers``, the one rule for what a value is, imports nothing from srds; a
module's private names stay its own but for two imports.  Runs are
simulated in two places only: the experiments' member runner and the
``simulate`` command; every report is built by ``ExperimentReport.start``;
the modulus and its Osgood integral live in ``mollifier`` alone; the
operator's ``solver`` builds every step solve.  Only the block driver starts
a thread.  And ``import srds`` leaves out the SciPy packages only a few
checks use, and starts no thread."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srds

SRC = Path(__file__).resolve().parents[1] / "src" / "srds"
LOWER = ("readers", "grid", "linalg", "rng", "mollifier", "noise", "reaction", "operators",
         "solver", "config")
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


def test_the_readers_import_nothing_from_srds():
    # the leaf every layer reads its values through
    assert not _imported_modules(ast.parse((SRC / "readers.py").read_text()))


def _type_tests(tree) -> set:
    """(function, test) of each ``isinstance(x, ... bool ...)`` and each
    ``type(x) is int`` / ``is not int`` in ``tree``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2
                and "bool" in {n.id for n in ast.walk(node.args[1])
                               if isinstance(n, ast.Name)}):
            found.add((scope, ast.unparse(node)))
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                and getattr(node.left.func, "id", None) == "type"
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(getattr(c, "id", None) == "int" for c in node.comparators)):
            found.add((scope, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_the_type_check_sees_each_form():
    tree = ast.parse("def f(x):\n    return isinstance(x, bool)\n"
                     "def g(x):\n    return isinstance(x, (int, bool)) or type(x) is not int\n"
                     "h = type(1) is int\nk = isinstance(1, float)\n")
    assert _type_tests(tree) == {
        ("f", "isinstance(x, bool)"), ("g", "isinstance(x, (int, bool))"),
        ("g", "type(x) is not int"), ("<module>", "type(1) is int")}


def test_only_the_readers_decide_what_a_value_is():
    # one rule per kind of value: what is an integer or a number (never a
    # bool) is decided in srds.readers, and the per-module copies are gone
    found, names = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem != "readers":
            found |= {(path.stem, *test) for test in _type_tests(tree)}
        names |= {node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert found == set()
    assert not names & {"_check_integer", "_is_integer", "_valid_dt", "valid_seed"}
    assert _type_tests(ast.parse((SRC / "readers.py").read_text()))


def test_the_layer_check_sees_relative_and_absolute_imports():
    tree = ast.parse("from .experiments import x\nfrom . import verify\n"
                     "import srds.cli\nfrom srds.experiments import y\n"
                     "def f():\n    from .solver import z\n")
    assert _imported_modules(tree) == {"experiments", "verify", "cli", "solver"}


def _callers(tree, module: str, callee: str = "simulate") -> set:
    """(module, innermost enclosing function) of each call to ``callee``,
    by bare name or as an attribute; "<module>" outside any function."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name == callee:
                found.add((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_the_simulate_check_sees_every_call_site():
    tree = ast.parse("simulate(a)\ndef f():\n    def g():\n        return solver.simulate(b)\n"
                     "    return [simulate(c)]\nclass C:\n    def h(self):\n"
                     "        self.simulate = 1\n")
    assert _callers(tree, "m") == {("m", "<module>"), ("m", "g"), ("m", "f")}


def test_only_the_member_runner_and_the_simulate_command_simulate():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _callers(ast.parse(path.read_text()), path.stem)
    assert found == {("experiments", "run_members"), ("cli", "cmd_simulate")}
    tree = ast.parse((SRC / "experiments.py").read_text())
    assert "_refine" not in {node.name for node in ast.walk(tree)
                             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_only_report_start_builds_a_report():
    # a report-wide field (its name, parameters, provenance) goes in one place
    callers, names = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        callers |= _callers(tree, path.stem, "ExperimentReport")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
    assert callers <= {("experiments", "start")}
    assert "_provenance" not in names
    assert "start" in names


def test_private_names_cross_modules_in_two_places_only():
    # (importer, module, name) of each private name one srds module takes
    # from another; dunders such as __version__ are public
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("srds")):
                found.update((path.stem, node.module, alias.name) for alias in node.names
                             if alias.name.startswith("_")
                             and not alias.name.endswith("__"))
    assert found == {("cli", "config", "_path_resolution"),
                     ("verify", "experiments", "_zero_noise")}


def test_only_mollifier_defines_the_modulus():
    # one modulus type, PowerModulus (power 1 is the linear modulus), next to
    # its Osgood integral and the numeric table
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if ((isinstance(node, ast.ClassDef) and "Modulus" in node.name)
                    or (isinstance(node, ast.FunctionDef)
                        and node.name in ("osgood_check", "_osgood_integral"))):
                found.add((path.stem, node.name))
    assert found == {("mollifier", "PowerModulus"), ("mollifier", "osgood_check"),
                     ("mollifier", "_osgood_integral")}
    assert not hasattr(srds, "LinearModulus")


def test_step_solves_are_built_in_three_places_only():
    # EllipticOperator.solver holds the dt rule of every (I - dt A) solve; the
    # resolvent (lam = inf is dt = 0) and verify operator's LU reference
    # build their own uncached factor
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "linalg":
            tree = ast.parse(path.read_text())
            for cls in ("ShiftedSolve", "SpectralSolve"):
                found |= _callers(tree, path.stem, cls)
    assert found == {("operators", "solver"), ("operators", "apply_resolvent"),
                     ("verify", "suite_operator")}
    assert not hasattr(srds, "assemble_operator") and not hasattr(srds, "semigroup_step")


def test_only_the_block_driver_starts_a_thread():
    # one helper thread per run, joined when the run ends: a thread made
    # anywhere else (a module-level pool, say) could outlive it into a fork
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for maker in ("Thread", "ThreadPoolExecutor", "Timer", "start_new_thread"):
            found |= _callers(tree, path.stem, maker)
    assert found == {("solver", "_advance")}


def test_import_starts_no_thread():
    # the benchmark's sample server and `ensemble --workers N` fork after
    # importing srds, and a fork copies no thread but the caller
    paths = [str(Path(srds.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", "import threading, srds, srds.cli; "
                               "print(threading.active_count())"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-4000:]
    assert done.stdout.strip() == "1"


_FOOTPRINT = """
import json, sys
import srds, srds.cli
lazy = ("scipy.integrate", "scipy.optimize")
before = [m for m in lazy if m in sys.modules]
table = srds.osgood_check(srds.PowerModulus(1.0), [0.1, 0.01])
family = srds.build_mollifier(lambda s: s, 2)
print(json.dumps({"before": before, "after": [m for m in lazy if m in sys.modules],
                  "integral": table["integral"].tolist(), "verdict": table["verdict"],
                  "a_seq": family.a_seq.tolist()}))
"""


def test_quadrature_and_root_finder_load_on_first_use():
    # SciPy's quadrature and root finder (with scipy.spatial and
    # scipy.constants behind them, about 9 MB) load only when an Osgood
    # integral or a mollifier needs them; a fresh interpreter shows it
    paths = [str(Path(srds.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-c", _FOOTPRINT], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-4000:]
    seen = json.loads(done.stdout)
    assert seen["before"] == []
    assert seen["after"] == ["scipy.integrate", "scipy.optimize"]
    # int_eps^1 ds/s = ln(1/eps), and int_{a_n}^{a_{n-1}} ds/s = n puts a_n at e^-n(n+1)/2
    assert seen["integral"] == pytest.approx([math.log(10), math.log(100)], rel=1e-12)
    assert seen["verdict"] == "diverges"
    assert seen["a_seq"] == pytest.approx([1.0, math.exp(-1), math.exp(-3)], rel=1e-12)
