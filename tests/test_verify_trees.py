"""``tools/verify_trees.py`` prints each suite's exit code and the digest of
its artifact tree, by the benchmark's digest scheme, so that comparing the
trees of two checkouts is one command on each and a diff."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_suite_run_twice_writes_one_tree(tmp_path, capsys):
    tool = _load("verify_trees", ROOT / "tools" / "verify_trees.py")
    assert tool.main([str(tmp_path / "a"), "noise"]) == 0
    assert tool.main([str(tmp_path / "b"), "noise"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second and first.startswith("noise exit=0 sha256=")
    # the suite's own output stays outside its tree
    assert (tmp_path / "a" / "noise.log").read_text().splitlines()[-2] == "verdict: pass"
    digest = first.rsplit("=", 1)[1]
    assert tool.tree_digest(tmp_path / "a" / "noise") == digest


def test_the_digest_is_the_benchmarks(tmp_path, monkeypatch):
    tool = _load("verify_trees", ROOT / "tools" / "verify_trees.py")
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    run = _load("bench_run", ROOT / "benchmarks" / "run.py")
    (tmp_path / "d" / "e").mkdir(parents=True)
    (tmp_path / "d" / "a.json").write_text("{}")
    (tmp_path / "d" / "e" / "b.csv").write_bytes(b"x,y\n1,2\n")
    assert tool.tree_digest(tmp_path / "d") == run._tree_digest(tmp_path / "d")[0]
    assert tool.tree_digest(tmp_path / "missing") == run._tree_digest(tmp_path / "missing")[0]
