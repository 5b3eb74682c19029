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
        # a truncated step evaluates the reaction once and the amplitude
        # once, through the patched names: the r = 2 components share one
        # amplitude function, so one g call covers both rows
        assert s["calls"]["reaction.evaluate"] == 2 * 2 * 20
        assert s["calls"]["noise.g"] == 2 * 2 * 20
    finally:
        tracer.restore()


def test_ladder_reports_every_level_and_computes_two(tmp_path):
    # on paths that never leave the smallest level, the two smallest levels
    # are stepped and every larger one copies the next one whole: member
    # steps count each returned trajectory in full, the step kernel runs
    # for two levels only
    moments = _config(tmp_path, "moments",
                      {"name": "moments", "n_paths": 2, "levels": [4, 8, 16, 32]})
    tracer = _tracer.Tracer()
    tracer.install()
    try:
        assert main(["verify", "moments", "--config", moments,
                     "--out", str(tmp_path / "out")]) == 0
        s = tracer.summary()
    finally:
        tracer.restore()
    assert s["calls"]["rng.sample_path"] == 2
    assert s["calls"]["solver.simulate"] == 4 * 2
    assert s["counts"]["solver.member_steps"] == 4 * 2 * 20
    assert s["calls"]["solver.step"] == s["calls"]["reaction.evaluate"] == 2 * 2 * 20


def test_tracer_sees_the_positivity_suite(tmp_path):
    positivity = _config(tmp_path, "positivity", {"name": "positivity", "n_paths": 2})
    tracer = _tracer.Tracer()
    tracer.install()
    try:
        assert main(["verify", "positivity", "--config", positivity,
                     "--out", str(tmp_path / "out")]) == 0
        s = tracer.summary()
        assert s["calls"]["experiments"] == 1
        # each path drives its dt and dt/2 runs; the control samples one more
        assert s["calls"]["rng.sample_path"] == 2 + 1
        assert s["calls"]["solver.simulate"] == 2 * 2 + 1
        steps = 2 * (20 + 40) + 20
        assert s["counts"]["solver.member_steps"] == steps
        # every member step runs the kernel, the reaction and one amplitude
        # call for the r = 2 components sharing it, through the patched
        # names; g(0) is also checked once per component by the config and
        # once by the experiment
        assert s["calls"]["solver.step"] == steps
        assert s["calls"]["reaction.evaluate"] == steps
        assert s["calls"]["noise.g"] == steps + 2 * 2
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
        # base, twin and one eps run of 20 steps per twin path; the Cauchy
        # runs take 1 and 2 steps on each of their 2 paths
        steps = 3 * 3 * 20 + 2 * (1 + 2)
        assert s["counts"]["solver.member_steps"] == steps
        assert s["calls"]["solver.step"] == steps
        assert s["calls"]["reaction.evaluate"] == steps
        assert s["calls"]["noise.g"] == steps

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
        # every member step runs the kernel, the reaction and one amplitude
        # call: the r = 2 rows of 384 cells form one run sharing sqrt-pos
        assert s["calls"]["solver.step"] == 2 * 20
        assert s["calls"]["reaction.evaluate"] == 2 * 20
        assert s["calls"]["noise.g"] == 2 * 20
    finally:
        tracer.restore()


def test_ball_exit_drops_a_bounded_repeatable_count_of_steps(tmp_path, monkeypatch):
    # the ladder's computed steps per level: the smallest level steps
    # truncated at every step and drops none; the next steps untruncated
    # inside its E-norm ball, checks it once per block and drops the rest
    # of the block after each exit; a larger level resumes from the one
    # below at its last stored step at or before that level's exit and,
    # never leaving its own ball, steps exactly the rest of the run.
    # Member steps still count the trajectories' steps, and the step counts
    # must repeat.
    from collections import Counter

    import srds.experiments
    import srds.solver

    cfg = preset_fhn(3)
    cfg["solver"].update({"dt": 1e-3, "t_end": 0.1, "store_stride": 1})
    # E-norm 1.7, near level 2's ball: one path never leaves it (level 8
    # copies it whole), the other leaves it mid-block and comes back
    cfg["initial"]["values"] = [0.85, 0.85]
    cfg["experiment"] = {"name": "moments", "n_paths": 2, "levels": [1, 2, 8]}
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(cfg))
    runs = []  # (level, keywords, trajectory) per simulate call
    computed = Counter()  # step calls per level
    simulate, step = srds.solver.simulate, srds.solver.step

    def recording(problem, *args, **kwargs):
        traj = simulate(problem, *args, **kwargs)
        runs.append((problem.level, kwargs, traj))
        return traj

    def counting(problem, *args, **kwargs):
        computed[problem.level] += 1
        return step(problem, *args, **kwargs)

    monkeypatch.setattr(srds.experiments, "simulate", recording)
    monkeypatch.setattr(srds.solver, "step", counting)
    tracer = _tracer.Tracer()
    tracer.install()
    try:
        counts = []
        for _ in range(2):
            runs.clear()
            computed.clear()
            tracer.clear()
            assert main(["verify", "moments", "--config", str(path),
                         "--out", str(tmp_path / "out")]) in (0, 1)  # any verdict
            s = tracer.summary()
            counts.append((s["counts"]["solver.member_steps"], s["calls"]["solver.step"],
                           s["calls"]["reaction.evaluate"], dict(computed)))
    finally:
        tracer.restore()
    assert counts[0] == counts[1]
    member, steps, evaluations, per_level = counts[0]
    n_steps = 100
    assert [level for level, _, _ in runs] == [1.0, 2.0, 8.0] * 2
    assert member == sum(len(traj.sup_norms) - 1 for _, _, traj in runs) == 3 * 2 * n_steps
    exits, resumes = 0, []
    for (_, first, _), (_, second, below), (_, forked, top) in zip(*[iter(runs)] * 3):
        assert first == {"ball_test": False, "prefix": None}
        assert second == {"ball_test": True, "prefix": None}
        assert forked["ball_test"] is True
        inside = list(below.e_norms() <= 2.0)
        # each step from inside the ball to outside it, as exit_index reads
        exits += sum(a and not b for a, b in zip(inside, inside[1:]))
        rho = srds.solver.exit_index(below, 2.0).step_index
        assert not srds.solver.exit_index(top, 8.0).triggered
        # moment_experiment stores steps 0 and n_steps only
        resumes.append(len(forked["prefix"].sup_norms) - 1)
        assert resumes[-1] == rho - rho % n_steps
    assert resumes == [n_steps, 0]  # copied whole, then stepped from step 0
    block = srds.solver.STATE_BLOCK_FLOATS // (2 * 32)
    assert per_level[1.0] == 2 * n_steps
    assert 0 < per_level[2.0] - 2 * n_steps <= (block - 1) * exits
    assert per_level[8.0] == sum(n_steps - s for s in resumes)
    assert steps == evaluations == sum(per_level.values())
