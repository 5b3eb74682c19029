"""Every JSON and CSV artifact goes through ``solver.write_json`` and
``solver.write_csv``, so the byte format that reruns are compared on has one
owner."""

import ast
import json
from pathlib import Path

import numpy as np

from srds.experiments import ExperimentReport
from srds.solver import write_csv, write_json

SRC = Path(__file__).resolve().parents[1] / "src" / "srds"


def _calls(tree):
    """(enclosing function, callee) of every call in a module; the callee is
    ``name`` or ``owner.attr`` (owner ``?`` when it is not a plain name)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                found.append((where, f.id))
            elif isinstance(f, ast.Attribute):
                owner = f.value.id if isinstance(f.value, ast.Name) else "?"
                found.append((where, f"{owner}.{f.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_the_two_writers_dump_json_or_write_csv():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    sites = sorted((module, where, callee) for module, tree in trees.items()
                   for where, callee in _calls(tree)
                   if callee in ("json.dump", "csv.writer"))
    assert sites == [("solver", "write_csv", "csv.writer"),
                     ("solver", "write_json", "json.dump")]
    # no module reaches the two by another name
    assert not [node for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module in ("json", "csv")]


def test_cli_opens_no_file():
    callees = [c for _, c in _calls(ast.parse((SRC / "cli.py").read_text()))]
    assert not [c for c in callees
                if c.split(".")[-1] in ("open", "write_text", "write_bytes")]


def test_write_csv_writes_numpy_floats_by_value(tmp_path):
    # repr(np.float64(1.5)) is "np.float64(1.5)" on numpy 2
    rows = [[np.float64(1.5), np.float32(0.25), 0.1 + 0.2, 3, "x", ""]]
    write_csv(tmp_path / "t.csv", list("abcdef"), rows)
    assert (tmp_path / "t.csv").read_bytes() == (
        b"a,b,c,d,e,f\r\n1.5,0.25,0.30000000000000004,3,x,\r\n")


def test_report_tables_write_numpy_floats_by_value(tmp_path):
    report = ExperimentReport(name="t", parameters={},
                              tables={"cells": (["value"], [[np.float64(1.5)]])})
    report.write(tmp_path)
    assert (tmp_path / "t_cells.csv").read_bytes() == b"value\r\n1.5\r\n"


def test_write_json_sorts_keys_with_one_space_indent(tmp_path):
    obj = {"b": [1, 2.5], "a": {"d": None, "c": "x"}}
    write_json(tmp_path / "t.json", obj)
    text = (tmp_path / "t.json").read_text()
    assert text == json.dumps(obj, sort_keys=True, indent=1)
    assert text.startswith('{\n "a": {\n  "c": "x",')
