"""The benchmark's tracer counts work through module-level names it patches
(``benchmarks/tracer.py``); every path and member step must still pass
through them, or the benchmark's throughput metrics read zero."""

import importlib.util
import json
from pathlib import Path

from srds import preset_fhn
from srds.cli import main

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py")
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)


def _config(tmp_path, name, experiment):
    cfg = preset_fhn(3)
    cfg["solver"].update({"dt": 1e-3, "t_end": 0.02})  # 20 steps
    cfg["experiment"] = experiment
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_tracer_sees_every_path_and_step(tmp_path):
    ensemble = _config(tmp_path, "ensemble", {"name": "positivity", "n_paths": 2})
    moments = _config(tmp_path, "moments",
                      {"name": "moments", "n_paths": 2, "levels": [4, 8]})
    tracer = _tracer.Tracer()
    tracer.install()
    try:
        assert main(["ensemble", "--config", ensemble, "--paths", "2",
                     "--out", str(tmp_path / "out")]) == 0
        s = tracer.summary()
        assert s["calls"]["rng.sample_path"] == 2
        assert s["counts"]["solver.member_steps"] == 2 * 20
        assert s["calls"]["solver.step"] == 2 * 20
        assert s["calls"]["config.build_problem"] >= 1

        tracer.clear()
        assert main(["verify", "moments", "--config", moments,
                     "--out", str(tmp_path / "out")]) == 0
        s = tracer.summary()
        assert s["calls"]["experiments"] == 1
        assert s["calls"]["rng.sample_path"] == 2  # the levels share each path
        assert s["counts"]["solver.member_steps"] == 2 * 2 * 20
        assert s["calls"]["solver.step"] == 2 * 2 * 20
    finally:
        tracer.restore()


def test_shared_work_is_done_once(tmp_path):
    import srds.cli

    uniqueness = _config(tmp_path, "uniqueness",
                         {"name": "uniqueness", "n_paths": 3, "eps_list": [1e-1],
                          "cauchy_paths": 2, "cauchy_refinements": 1})
    ensemble = _config(tmp_path, "ensemble-once", {})
    srds.cli._cached_problem.cache_clear()  # an earlier in-process run may have built it
    tracer = _tracer.Tracer()
    tracer.install()
    try:
        assert main(["verify", "uniqueness", "--config", uniqueness,
                     "--out", str(tmp_path / "out")]) in (0, 1)  # any verdict
        s = tracer.summary()
        assert s["calls"]["experiments"] == 1
        # each twin path is sampled once and shared by base, twin and eps runs
        assert s["calls"]["rng.sample_path"] == 3 + 2

        tracer.clear()
        assert main(["ensemble", "--config", ensemble, "--paths", "2",
                     "--out", str(tmp_path / "out")]) == 0
        assert tracer.summary()["calls"]["config.build_problem"] == 1
    finally:
        tracer.restore()


def test_tracer_counts_spectral_steps(tmp_path):
    # a 2D constant-coefficient grid steps with the DCT: no LU factor exists,
    # yet every path and member step must still be counted
    cfg = preset_fhn(3)
    cfg["grid"] = {"dim": 2, "extents": [1.0, 1.0], "n_cells": [24, 16]}
    cfg["noise"]["modes"] = 4
    cfg["solver"].update({"dt": 1e-3, "t_end": 0.02})  # 20 steps
    cfg.pop("experiment")
    path = tmp_path / "ensemble-2d.json"
    path.write_text(json.dumps(cfg))
    tracer = _tracer.Tracer()
    tracer.install()
    try:
        assert main(["ensemble", "--config", str(path), "--paths", "2",
                     "--out", str(tmp_path / "out")]) == 0
        s = tracer.summary()
        assert s["calls"]["rng.sample_path"] == 2
        assert s["counts"]["solver.member_steps"] == 2 * 20
        assert s["calls"]["linalg.factor"] == 0
        assert s["counts"]["linalg.lu_nnz_total"] == 0
    finally:
        tracer.restore()
