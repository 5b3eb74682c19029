"""Smoke test of the benchmark runner on a small positivity call.

    python3 -m pytest -q benchmarks/test_bench.py

Checks that the deterministic per-layer counts repeat exactly between
runs, that layer self times fit inside the traced wall time, and that
every metric named in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Call

ROOT = Path(__file__).resolve().parents[1]


def _small_calls() -> list[Call]:
    (call,) = WORKLOADS["positivity-1d"].calls(5)
    cfg = copy.deepcopy(call.config)
    cfg["experiment"]["n_paths"] = 2
    cfg["solver"]["t_end"] = 0.1
    return [Call(call.argv, cfg, call.dts)]


def _run(trace: bool) -> tuple[dict, dict]:
    runner = run.Runner(ROOT, _small_calls(), seconds=0.0, trace=trace, label="smoke")
    try:
        data = runner.run()
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.report(runner, data)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    return result, data


@pytest.fixture(scope="module")
def traced_runs():
    return [_run(trace=True) for _ in range(2)]


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_end_to_end_metrics_printed_with_units():
    result, _ = _run(trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_printed_with_units(traced_runs):
    for result, _ in traced_runs:
        assert result["correct"] and result["failed"] == 0
        assert ({k: v["unit"] for k, v in result["metrics"].items()}
                == _declared("per_layer"))


def test_deterministic_counts_repeat_exactly(traced_runs):
    (first, _), (second, _) = traced_runs
    for key in run.EXACT_COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["solver.member_steps"]["value"] == 2 * 100 + 2 * 200 + 100
    assert first["metrics"]["linalg.lu_nnz"]["value"] > 0


def test_layer_self_times_fit_in_traced_wall(traced_runs):
    for _, data in traced_runs:
        traced = [s for s in data["samples"] if s["traced"]]
        assert traced
        for s in traced:
            for t in s["result"]["traces"]:
                assert 0 < sum(t["self_s"].values()) <= t["wall_s"]
