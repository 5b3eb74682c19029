"""``tools/bench_pairs.py`` runs two checkouts' benchmarks in alternating
pairs and says, per end-to-end metric, whether the change shows a gain that
may be claimed: every change run clean, at least nine wins in ten pairs,
and a median better than the parent's by more than the parent's
interquartile range.  Its summary is checked here on canned run results;
no benchmark runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = [{"name": "wall_ref_s", "better": "lower"},
           {"name": "paths_per_ref_s", "better": "higher"}]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(wall, paths, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"wall_ref_s": {"value": wall, "unit": "s"},
                        "paths_per_ref_s": {"value": paths, "unit": "1/s"}}}


def test_a_gain_holds_on_nine_wins_and_a_gap_above_the_parents_spread():
    parent = [_run(1.0 + 0.01 * i, 10.0) for i in range(10)]
    change = [_run(0.9 + 0.01 * i, 10.0) for i in range(10)]
    change[3] = _run(2.0, 10.0)  # one loss
    lines = _tool().summarize({"parent": parent, "change": change}, METRICS)
    assert lines == [
        "wall_ref_s (lower is better): parent 1.045 [1.0225, 1.0675], change 0.955 "
        "[0.925, 0.9775]; change wins 9, ties 0, losses 1 of 10 pairs; gain holds",
        "paths_per_ref_s (higher is better): parent 10 [10, 10], change 10 [10, 10]; "
        "change wins 0, ties 10, losses 0 of 10 pairs; gain not shown"]


def test_eight_wins_or_a_gap_within_the_spread_shows_no_gain():
    tool = _tool()
    parent = [_run(1.0 + 0.01 * i, 10.0 + i) for i in range(10)]
    change = [_run(0.9 + 0.01 * i, 10.0 + i + 0.5) for i in range(10)]
    change[3], change[4] = _run(2.0, 14.0), _run(2.0, 15.0)  # eight wins
    lines = tool.summarize({"parent": parent, "change": change}, METRICS)
    assert lines[0].endswith("change wins 8, ties 0, losses 2 of 10 pairs; gain not shown")
    # ten wins, but by less than the parent's interquartile range of 4.5
    assert lines[1].endswith("change wins 10, ties 0, losses 0 of 10 pairs; gain not shown")
    # nine wins of nine, but the rule needs ten pairs
    lines = tool.summarize({"parent": parent[:9], "change": [_run(0.5, 20.0)] * 9}, METRICS)
    assert lines[0].endswith("change wins 9, ties 0, losses 0 of 9 pairs; gain not shown")


def test_failed_and_missing_runs_are_flagged_and_win_nothing():
    tool = _tool()
    parent = [_run(1.0, 10.0)] * 9 + [_run(1.0, 10.0, correct=False, failed=1)]
    change = [_run(0.5, 20.0)] * 10
    lines = tool.summarize({"parent": parent, "change": change}, METRICS)
    assert lines[0] == "FLAG parent run 9: correct=false failed=1 of 4"
    # a parent run that failed leaves the change's gain standing
    assert lines[1].endswith("change wins 10, ties 0, losses 0 of 10 pairs; gain holds")
    for bad, flag in [(None, "no result"),
                      (_run(0.5, 20.0, failed=1), "correct=true failed=1 of 4"),
                      (_run(0.5, 20.0, correct=False), "correct=false failed=0 of 4")]:
        lines = tool.summarize({"parent": parent, "change": change[:9] + [bad]}, METRICS)
        assert lines[1] == f"FLAG change run 9: {flag}"
        # nine wins of ten, but a change run without a clean result claims nothing
        assert lines[2].endswith(" of 10 pairs; gain not shown"), lines[2]
    assert tool.summarize({"parent": [None], "change": [None]}, METRICS[:1])[2:] == [
        "wall_ref_s: no pair with both results"]



def test_pairs_alternate_which_side_runs_first(tmp_path, monkeypatch, capsys):
    tool = _tool()
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"command": ["python3", "benchmarks/run.py"], "run_seconds": 36,
         "end_to_end": METRICS}))
    order = []

    def canned(checkout, command, workload, seconds):
        order.append((checkout.name, command, workload, seconds))
        return _run(1.0, 10.0)

    monkeypatch.setattr(tool, "run_once", canned)
    monkeypatch.setattr(tool, "PAIRS", 3)
    assert tool.main([str(tmp_path / "parent"), str(change), "--workload", "w"]) == 0
    assert [name for name, *_ in order] == ["parent", "change", "change", "parent",
                                            "parent", "change"]
    assert all(rest == [["python3", "benchmarks/run.py"], "w", 36] for _, *rest in order)
    assert capsys.readouterr().out.splitlines()[-2].startswith("wall_ref_s")


def test_each_run_compiles_into_a_fresh_empty_bytecode_cache(tmp_path, monkeypatch):
    tool = _tool()
    checkouts = [tmp_path / "parent", tmp_path / "change"]
    caches = []

    def stub(argv, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"]).resolve()
        assert cache.is_dir() and not any(cache.iterdir())
        assert all(root not in cache.parents for root in checkouts)
        (cache / "left.pyc").write_bytes(b"")  # what the run's imports write
        caches.append(cache)
        return subprocess.CompletedProcess(argv, 0, json.dumps(_run(1.0, 10.0)) + "\n", "")

    monkeypatch.setattr(tool.subprocess, "run", stub)
    for checkout in checkouts * 2:
        assert tool.run_once(checkout, ["python3", "benchmarks/run.py"], "w", 1) == _run(
            1.0, 10.0)
    assert len(set(caches)) == 4  # one per run
    assert not any(cache.exists() for cache in caches)  # each removed after its run
