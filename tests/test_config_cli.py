import contextlib
import copy
import functools
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srds
from srds import build_problem, config_digest, preset, preset_fhn, validate_config
from srds.cli import main
from srds.errors import ConfigError
from srds.operators import EllipticOperator
from srds.rng import MAX_PATH
from srds.solver import Problem
from srds.verify import SUITES, run_suite


@pytest.fixture()
def out_root(tmp_path, monkeypatch):
    root = tmp_path / "out"
    monkeypatch.setenv("SRDS_OUT", str(root))
    return root


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def quick_preset(seed=42, **solver_overrides):
    cfg = preset_fhn(seed)
    cfg["solver"].update({"dt": 1e-3, "t_end": 0.02, **solver_overrides})
    return cfg


# --- config parsing ---------------------------------------------------------------


def test_preset_builds():
    cfg = preset_fhn(7)
    problem, initial, solver_cfg = build_problem(cfg)
    assert problem.r == 2
    assert initial.shape == (2, 32)
    assert np.all(initial == 0.2)
    assert solver_cfg.sup_cap == 8.0


def test_equal_operator_blocks_share_one_operator():
    cfg = preset_fhn()
    problem, _, _ = build_problem(cfg)
    assert problem.operators[0] is problem.operators[1]
    assert problem.digest() == ("586f7b2d500d980db1f516f1a05c29b1"
                                "fb0983e3d337810d847fc1235fa2a87a")
    cfg["operators"][1] = dict(reversed(cfg["operators"][1].items()))
    problem, _, _ = build_problem(cfg)
    assert problem.operators[0] is problem.operators[1]  # key order does not matter
    cfg["operators"][1] = {"a": 1, "c": 0, "eta": 0.5, "m_bound": 2}
    problem, _, _ = build_problem(cfg)
    assert problem.operators[0] is problem.operators[1]  # nor does 1 against 1.0
    assert problem.digest() == ("586f7b2d500d980db1f516f1a05c29b1"
                                "fb0983e3d337810d847fc1235fa2a87a")
    cfg["operators"][1]["a"] = 1.5
    problem, _, _ = build_problem(cfg)
    assert problem.operators[0] is not problem.operators[1]
    assert problem.operators[1].coeffs.a[0, 0, 0] == 1.5


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset("nope")


def test_digest_stable_and_sensitive():
    cfg = preset_fhn(7)
    d1 = config_digest(cfg)
    d2 = config_digest(json.loads(json.dumps(cfg)))
    assert d1 == d2
    cfg2 = preset_fhn(8)
    assert config_digest(cfg2) != d1


def test_validate_rejects_missing_blocks():
    cfg = preset_fhn(1)
    del cfg["noise"]
    with pytest.raises(ConfigError, match="noise"):
        validate_config(cfg)


def test_validate_rejects_bad_version():
    cfg = preset_fhn(1)
    cfg["version"] = 99
    with pytest.raises(ConfigError, match="version"):
        validate_config(cfg)


def test_lambda_rules():
    cfg = quick_preset()
    cfg["noise"]["lambdas"] = "power:1"
    problem, _, _ = build_problem(cfg)
    lam = problem.noise.components[0].lambdas
    assert lam[0] == 1.0 and lam[3] == pytest.approx(0.25)
    cfg["noise"]["lambdas"] = "zero"
    problem, _, _ = build_problem(cfg)
    assert problem.noise.components[0].is_zero()
    cfg["noise"]["lambdas"] = [0.5] * 8
    problem, _, _ = build_problem(cfg)
    assert np.all(problem.noise.components[0].lambdas == 0.5)


def test_per_component_amplitude_names():
    cfg = quick_preset()
    cfg["experiment"] = {}
    cfg["noise"]["g"] = ["sqrt-abs", "lipschitz:1"]
    problem, _, _ = build_problem(cfg)
    names = [c.g.name for c in problem.noise.components]
    assert names == ["sqrt-abs", "lipschitz:1"]


def test_general_reaction_block():
    cfg = quick_preset()
    cfg["reaction"] = {"drifts": [[1.0, 0.0, -1.0], []],
                       "coupling": {"name": "linear",
                                    "matrix": [[0.0, 1.0], [1.0, -1.0]]}}
    problem, _, _ = build_problem(cfg)
    out = problem.reaction.evaluate(np.array([[1.0], [0.0]]))
    assert out[0, 0] == pytest.approx(0.0)
    assert out[1, 0] == pytest.approx(1.0)


def test_fhn_coupling_keeps_configured_drifts():
    cfg = quick_preset()
    cfg["reaction"] = {"drifts": [[1.0, 0.0, -3.0], []], "coupling": {"name": "fhn"}}
    problem, _, _ = build_problem(cfg)
    out = problem.reaction.evaluate(np.array([[2.0], [2.0]]))
    assert out[0, 0] == pytest.approx(-20.0)  # 2 - 3 * 2^3 + 2
    assert out[1, 0] == pytest.approx(0.0)  # 2 - 2


def test_cosine_initial():
    cfg = quick_preset()
    cfg["experiment"] = {}
    cfg["initial"] = {"kind": "cosine", "means": [0.5, 0.0],
                      "amplitudes": [0.25, 0.1], "modes": [1, 2]}
    problem, initial, _ = build_problem(cfg)
    x = problem.grid.centers[:, 0]
    assert np.allclose(initial[0], 0.5 + 0.25 * np.cos(np.pi * x))
    assert np.allclose(initial[1], 0.1 * np.cos(2 * np.pi * x))


# --- exit codes --------------------------------------------------------------------


def test_simulate_runs_and_reproduces(tmp_path, out_root, capsys):
    cfg_path = write_config(tmp_path, quick_preset())
    assert main(["simulate", "--config", cfg_path]) == 0
    first = {p.name: p.read_bytes() for p in sorted(out_root.rglob("*")) if p.is_file()}
    assert any(name == "manifest.json" for name in first)
    assert main(["simulate", "--config", cfg_path]) == 0
    second = {p.name: p.read_bytes() for p in sorted(out_root.rglob("*")) if p.is_file()}
    assert first == second  # byte-identical artifacts on rerun


def test_simulate_drift_with_tiny_interior_coefficient(tmp_path, out_root, capsys):
    cfg = quick_preset()
    cfg["reaction"] = {"drifts": [[1.3302823026997865, -3.6445333157304613e-119,
                                   -1.2250470603341364], []],
                       "coupling": {"name": "none"}}
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
    assert "srds-error" not in capsys.readouterr().err


def test_simulate_seed_changes_artifacts(tmp_path, out_root):
    cfg_path = write_config(tmp_path, quick_preset())
    assert main(["simulate", "--config", cfg_path, "--seed", "1"]) == 0
    assert main(["simulate", "--config", cfg_path, "--seed", "2"]) == 0
    dirs = sorted(p for p in out_root.iterdir() if p.is_dir())
    assert len(dirs) == 2
    a = (dirs[0] / "trajectory.csv").read_bytes()
    b = (dirs[1] / "trajectory.csv").read_bytes()
    assert a != b


def test_config_error_exit_code(tmp_path, out_root, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "code=2" in err and "kind=config" in err


def test_missing_flags_exit_code(capsys):
    assert main(["simulate"]) == 2


def test_ellipticity_audit_exit_code(tmp_path, out_root, capsys):
    cfg = quick_preset()
    cfg["operators"][0] = {"a": 0.1, "c": 0.0, "eta": 0.5, "m_bound": 2.0}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert "kind=audit" in err and "reason=ellipticity" in err


def test_g0_audit_exit_code(tmp_path, out_root, capsys):
    cfg = quick_preset()
    cfg["noise"]["g"] = "sqrt-abs-shifted"
    cfg["experiment"] = {"name": "positivity", "n_paths": 2}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert "reason=g(0)!=0" in err


def test_runtime_failure_exit_code(tmp_path, out_root, capsys):
    cfg = quick_preset()
    cfg["initial"] = {"kind": "constant", "values": [1e308, 1e308]}
    cfg["solver"]["sup_cap"] = None
    cfg_path = write_config(tmp_path, cfg)
    code = main(["simulate", "--config", cfg_path])
    assert code == 4
    assert "kind=runtime" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "ensemble"])
def test_runtime_failure_names_step_component_and_cell(tmp_path, out_root, capsys,
                                                       command):
    # the overflow is the one error line, with no numpy RuntimeWarning first
    cubic = quick_preset(sup_cap=None)
    cubic["reaction"] = {"drifts": [[], [0.0, 0.0, -1.0]]}  # u_1' = -u_1^3
    cubic["initial"]["values"] = [0.2, 1e100]  # overflows in the second step
    fhn = quick_preset(sup_cap=None)
    fhn["initial"]["values"] = [1e100, 0.2]  # overflows in the FHN coupling
    for cfg, component in ((cubic, 1), (fhn, 0)):
        cfg_path = write_config(tmp_path, cfg)
        assert main([command, "--config", cfg_path]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "srds-error: code=4 kind=runtime reason=non-finite-state "
            f"detail=step 2 component {component} cell 0"]


@pytest.mark.parametrize("command", ["simulate", "ensemble", "verify positivity"])
def test_out_of_memory_exits_four(tmp_path, out_root, capsys, monkeypatch, command):
    # a run too large to hold ends in the taxonomy; no real allocation that
    # could succeed is made
    import srds.cli

    def exhausted(cfg):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000000,) and data type float64")

    monkeypatch.setattr(srds.cli, "build_problem", exhausted)
    cfg_path = write_config(tmp_path, quick_preset())
    assert main([*command.split(), "--config", cfg_path]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "srds-error: code=4 kind=runtime reason=out-of-memory detail=Unable to "
        "allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"]


@pytest.mark.parametrize("command", ["simulate", "ensemble"])
@pytest.mark.parametrize("dt_fine", [1e-3 / 3, 2e-3])  # dt is 1e-3
def test_non_dyadic_dt_fine_exit_code(tmp_path, out_root, capsys, command, dt_fine):
    cfg = quick_preset()
    cfg["noise"]["dt_fine"] = dt_fine
    cfg_path = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.count("srds-error:") == 1
    assert "code=2 kind=config reason=noise" in err


# --- verify ------------------------------------------------------------------------


def test_verify_mollifier_pass(tmp_path, out_root, capsys):
    cfg = quick_preset()
    cfg["experiment"] = {"name": "mollifier", "C": 1.0, "n_max": 5,
                         "probe_points": 2001}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "mollifier", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    reports = list(out_root.rglob("mollifier_report.json"))
    assert len(reports) == 1
    data = json.loads(reports[0].read_text())
    assert data["verdict"] == "pass"


def test_verify_operator_pass(tmp_path, out_root):
    cfg = quick_preset()
    cfg["experiment"] = {"name": "operator", "trials": 50}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "operator", "--config", cfg_path]) == 0


def test_verify_operator_keeps_no_trial_factors():
    problem, initial, solver_cfg = build_problem(quick_preset())
    report = run_suite("operator", problem, solver_cfg, initial, {"trials": 100}, 42)
    assert report.verdict
    # trials, the spectral-vs-LU reference, the smoothing sweep and the
    # resolvent all solve with uncached factors
    assert all(not op._steppers for op in problem.operators)


def test_verify_operator_checks_the_stepping_solver():
    cfg = quick_preset()
    problem, initial, solver_cfg = build_problem(cfg)
    report = run_suite("operator", problem, solver_cfg, initial, {"trials": 20}, 42)
    names = [c["name"] for c in report.checks]
    assert not any("spectral" in name for name in names)  # 1D steps with LU
    # the two equal blocks share one operator, checked once
    assert not any(name.startswith("op1-") for name in names)
    assert report.aggregates == {"op0": [0, 1]}

    cfg["grid"] = {"dim": 2, "extents": [1.0, 2.0], "n_cells": [12, 10]}
    cfg["operators"][1]["a"] = 1.5
    problem, initial, solver_cfg = build_problem(cfg)
    report = run_suite("operator", problem, solver_cfg, initial, {"trials": 20}, 42)
    checks = {c["name"]: c for c in report.checks}
    assert report.verdict
    assert report.aggregates == {"op0": [0], "op1": [1]}
    for tag in ("op0", "op1"):
        assert checks[f"{tag}-spectral-matches-lu"]["passed"]
        assert checks[f"{tag}-spectral-matches-lu"]["detail"].startswith("5 trials")


def test_native_suite_report_records_effective_parameters():
    problem, initial, solver_cfg = build_problem(quick_preset())
    report = run_suite("mollifier", problem, solver_cfg, initial, {"n_max": 2}, 42)
    assert report.to_dict()["parameters"] == {"n_max": 2, "C": None,
                                              "probe_points": 10001}


# small blocks: the verdicts do not matter here, only what each report records
_SMALL_BLOCKS = {
    "operator": {"trials": 5},
    "reaction": {"samples": 50, "dissipativity_trials": 2},
    "noise": {},
    "mollifier": {"n_max": 1, "probe_points": 11},
    "uniqueness": {"n_paths": 2, "cauchy_paths": 1, "cauchy_refinements": 1},
    "positivity": {"n_paths": 1, "control": False},
    "moments": {"n_paths": 1, "levels": [4.0, 8.0]},
    "residual": {"t_end": 1.0 / 64, "dt": 1.0 / 256, "n_paths": 1},
}


@pytest.mark.parametrize("suite", list(_SMALL_BLOCKS))
def test_every_suite_report_records_the_same_provenance(suite):
    assert set(_SMALL_BLOCKS) == set(SUITES)
    problem, initial, solver_cfg = build_problem(quick_preset())
    report = run_suite(suite, problem, solver_cfg, initial, _SMALL_BLOCKS[suite], 42)
    assert report.name == suite
    provenance = report.to_dict()["provenance"]
    assert provenance.pop("problem_digest") == problem.digest()
    assert provenance.pop("solver_config") == solver_cfg.descriptor()
    assert provenance.pop("master_seed") == 42
    assert provenance.pop("tool_version") == srds.__version__
    assert provenance == {}


def test_verify_noise_pass(tmp_path, out_root):
    cfg = quick_preset()
    cfg["experiment"] = {"name": "noise"}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "noise", "--config", cfg_path]) == 0


@pytest.mark.parametrize("alpha, diverges", [("0.25", False), ("0.5", True),
                                             ("0.75", True)])
def test_verify_noise_reads_the_power_exponent(tmp_path, out_root, capsys, alpha,
                                               diverges):
    # g(s) = |s|^alpha gives the modulus C s^(2 alpha): Osgood-divergent
    # exactly from alpha = 1/2 on
    cfg = preset_fhn()
    cfg["noise"]["g"] = f"power:{alpha}"
    cfg["experiment"] = {"name": "noise"}
    assert main(["verify", "noise", "--config", write_config(tmp_path, cfg)]) == (
        0 if diverges else 1)
    out = capsys.readouterr().out
    for comp in ("comp0", "comp1"):
        assert f"[{'PASS' if diverges else 'FAIL'}] noise: {comp}-osgood-diverges" in out
        assert f"[PASS] noise: {comp}-amplitude-audit" in out


def test_verify_reaction_pass(tmp_path, out_root):
    cfg = quick_preset()
    cfg["experiment"] = {"name": "reaction", "samples": 2000,
                         "dissipativity_trials": 50}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "reaction", "--config", cfg_path]) == 0


def test_certificates_are_derived_on_first_read(tmp_path, out_root, monkeypatch):
    # building the problem certifies no drift; verify reaction, which reads
    # the certificates, certifies each drift once
    import srds.reaction

    certified = []
    check = srds.reaction.check_f1_f2
    monkeypatch.setattr(srds.reaction, "check_f1_f2",
                        lambda drift: certified.append(drift) or check(drift))
    problem, initial, solver_cfg = build_problem(quick_preset())
    assert certified == []
    report = run_suite("reaction", problem, solver_cfg, initial,
                       {"samples": 200, "dissipativity_trials": 5}, 42)
    assert report.verdict
    drifts = [h for h in problem.reaction.drifts if h is not None]
    assert drifts and certified == drifts
    assert problem.reaction.certificates == [
        srds.reaction.ZERO_CERTIFICATE if h is None else check(h)
        for h in problem.reaction.drifts]


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "bogus", "--preset", "fhn"])


def test_verify_positivity_quick(tmp_path, out_root):
    cfg = quick_preset()
    cfg["experiment"] = {"name": "positivity", "n_paths": 2}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "positivity", "--config", cfg_path]) == 0
    report = json.loads(sorted(out_root.rglob("positivity_report.json"))[0]
                        .read_text())
    assert report["verdict"] == "pass"


def test_int_spelled_numbers_give_the_float_report(tmp_path, out_root):
    # a number spelled 8 runs, hashes and records as 8.0: only the digest of
    # the config text differs
    texts = {}
    for kind in (int, float):
        cfg = quick_preset(sup_cap=kind(8))
        for block in cfg["operators"]:
            block.update(eta=kind(1), m_bound=kind(2))
        cfg["experiment"] = {"name": "positivity", "n_paths": 2, "c_tol": kind(1)}
        out = tmp_path / kind.__name__
        assert main(["verify", "positivity", "--config",
                     write_config(tmp_path, cfg, f"{kind.__name__}.json"),
                     "--out", str(out)]) == 0
        texts[kind] = next(out.rglob("positivity_report.json")).read_text()
    digests = {kind: json.loads(text)["provenance"]["config_digest"]
               for kind, text in texts.items()}
    assert digests[int] != digests[float]
    assert texts[int].replace(digests[int], digests[float]) == texts[float]
    report = json.loads(texts[int])
    assert json.loads(report["provenance"]["solver_config"])["sup_cap"] == 8.0
    assert '"c_tol": 1.0' in texts[int]


def test_verify_uniqueness_quick(tmp_path, out_root):
    cfg = quick_preset()
    cfg["noise"].update({"g": "sqrt-abs", "scale": 0.1})
    cfg["experiment"] = {"name": "uniqueness", "n_paths": 2,
                         "eps_list": [1e-1, 1e-2], "cauchy_paths": 2,
                         "cauchy_refinements": 2}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "uniqueness", "--config", cfg_path]) == 0


def test_verify_uniqueness_without_cauchy_paths_fails(tmp_path, out_root, capsys):
    cfg = quick_preset()
    cfg["noise"].update({"g": "sqrt-abs", "scale": 0.1})
    cfg["experiment"] = {"name": "uniqueness", "n_paths": 2,
                         "eps_list": [1e-1, 1e-2], "cauchy_paths": 0}
    cfg_path = write_config(tmp_path, cfg)
    # no Cauchy path is no evidence: a config error before any twin runs
    assert main(["verify", "uniqueness", "--config", cfg_path]) == 2
    assert ("srds-error: code=2 kind=config reason=experiment "
            "detail=cauchy_paths must be >= 1, got 0" in capsys.readouterr().err.splitlines())


@pytest.mark.parametrize("refinements", [0, 1])
def test_verify_uniqueness_without_two_gaps_fails(tmp_path, out_root, capsys,
                                                  refinements):
    # at most one refinement gap per path: no pair to compare, no evidence
    cfg = quick_preset()
    cfg["noise"].update({"g": "sqrt-abs", "scale": 0.1})
    cfg["experiment"] = {"name": "uniqueness", "n_paths": 2,
                         "eps_list": [1e-1, 1e-2], "cauchy_paths": 2,
                         "cauchy_refinements": refinements}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "uniqueness", "--config", cfg_path]) == 1
    assert ("[FAIL] uniqueness: refinement-cauchy (monotone on 0/2 paths)"
            in capsys.readouterr().out.splitlines())


def test_verify_uniqueness_single_eps_fails(tmp_path, out_root, capsys):
    # one epsilon compares nothing: the gap cannot be seen to shrink
    cfg = quick_preset()
    cfg["noise"].update({"g": "sqrt-abs", "scale": 0.1})
    cfg["experiment"] = {"name": "uniqueness", "n_paths": 2, "eps_list": [1e-1],
                         "cauchy_paths": 2, "cauchy_refinements": 2}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "uniqueness", "--config", cfg_path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] uniqueness: gap-monotone-in-eps" in out


def test_verify_moments_quick(tmp_path, out_root):
    cfg = quick_preset()
    cfg["experiment"] = {"name": "moments", "n_paths": 2, "levels": [4, 8]}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "moments", "--config", cfg_path]) == 0


def test_verify_moments_fails_on_underflowed_moments(tmp_path, out_root, capsys):
    # at p = 1e300 every sup**p underflows: m_n reads 0 at every level, which
    # is no evidence of stabilization
    cfg = quick_preset()
    cfg["experiment"] = {"name": "moments", "p": 1e300, "n_paths": 2, "levels": [4, 8]}
    assert main(["verify", "moments", "--config", write_config(tmp_path, cfg)]) == 1
    assert "[FAIL] moments: moment-stabilization (4:0, 8:0)" in capsys.readouterr().out


def test_verify_moments_ladder_inconsistency_exits_four(tmp_path, out_root, capsys,
                                                       monkeypatch):
    # a one-ulp disagreement at step 5 of level 8, on a path that never leaves
    # level 4, is a ladder inconsistency: a runtime failure, not a verdict
    import srds.experiments

    simulate_level = srds.experiments.simulate

    def perturbed(problem, *args, **kwargs):
        traj = simulate_level(problem, *args, **kwargs)
        if problem.level == 8.0:
            traj.sup_norms[5, 0] = np.nextafter(traj.sup_norms[5, 0], np.inf)
        return traj

    monkeypatch.setattr(srds.experiments, "simulate", perturbed)
    cfg = quick_preset(dt=2e-3, t_end=0.05)
    cfg["experiment"] = {"name": "moments", "n_paths": 2, "levels": [4, 8]}
    assert main(["verify", "moments", "--config", write_config(tmp_path, cfg)]) == 4
    err = capsys.readouterr().err
    assert err.count("srds-error:") == 1
    assert ("srds-error: code=4 kind=runtime reason=ladder-inconsistency "
            "detail=levels 4.0/8.0 disagree at step 5\n") in err
    assert "Traceback" not in err


def test_verify_residual_quick(tmp_path, out_root):
    cfg = quick_preset()
    cfg["noise"]["g"] = "sqrt-abs"
    cfg["experiment"] = {"name": "residual", "t_end": 0.25, "dt": 1.0 / 256,
                         "n_paths": 8}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "residual", "--config", cfg_path]) == 0


def test_verify_suite_audit_failure_exits_three(tmp_path, out_root, capsys):
    cfg = quick_preset()
    cfg["noise"]["g"] = "sqrt-abs-shifted"
    cfg["experiment"] = {"name": "uniqueness"}  # bypasses the config-level check
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "positivity", "--config", cfg_path]) == 3
    assert "reason=g(0)!=0" in capsys.readouterr().err


def test_operator_from_csv_config(tmp_path, out_root):
    rows = "\n".join(f"{i},1.0,0.0" for i in range(32))
    csv_path = tmp_path / "coeffs.csv"
    csv_path.write_text(rows + "\n")
    cfg = quick_preset()
    cfg["operators"][0] = {"csv": str(csv_path), "eta": 0.5, "m_bound": 2.0}
    problem, _, _ = build_problem(cfg)
    assert problem.operators[0].coeffs.a[0, 0, 0] == 1.0


def test_2d_config_builds_and_simulates(tmp_path, out_root):
    cfg = quick_preset()
    cfg["grid"] = {"dim": 2, "extents": [1.0, 1.0], "n_cells": [8, 8]}
    cfg["noise"]["modes"] = 4
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 0


def _2d_uniform_preset():
    cfg = quick_preset()
    cfg["grid"] = {"dim": 2, "extents": [1.0, 1.0], "n_cells": [8, 8]}
    cfg["noise"]["modes"] = 4
    return cfg


@pytest.mark.parametrize("command,experiment", [
    (["simulate"], None),
    (["ensemble", "--paths", "2", "--workers", "1"], None),
    (["verify", "positivity"], {"name": "positivity", "n_paths": 2}),
])
def test_dct_solved_run_assembles_no_matrix(tmp_path, out_root, monkeypatch,
                                            command, experiment):
    def no_assembly(op):
        raise AssertionError("sparse matrix assembled")

    monkeypatch.setattr(EllipticOperator, "matrix", property(no_assembly))
    cfg = _2d_uniform_preset()
    if experiment is not None:
        cfg["experiment"] = experiment
    assert main([*command, "--config", write_config(tmp_path, cfg)]) == 0


def test_verify_operator_assembles_the_dct_solved_matrix(tmp_path, out_root,
                                                         monkeypatch):
    assemble = EllipticOperator.__dict__["matrix"].func
    assembled = []

    def counted(op):
        assembled.append(op)
        return assemble(op)

    prop = functools.cached_property(counted)
    prop.__set_name__(EllipticOperator, "matrix")
    monkeypatch.setattr(EllipticOperator, "matrix", prop)
    cfg = _2d_uniform_preset()
    cfg["experiment"] = {"name": "operator", "trials": 20}
    assert main(["verify", "operator", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(assembled) == 1  # the two equal blocks share one operator
    report = json.loads(next(out_root.rglob("operator_report.json")).read_text())
    assert {"op0-symmetry", "op0-spectral-matches-lu"} <= {c["name"] for c in report["checks"]}


# a coefficient row that would be silently repaired, and a tensor entry that
# bounds nothing, fail the build-time audit (exit 3)
BAD_CSV_ROWS = [
    ("index", "1.7,1.0,0.0", "shape", "cell index 1.7 is not an integer"),
    ("duplicate", "3,2.0,0.0", "shape", "cell index 3 appears twice"),
    ("columns", "1,1.0,0.0,9.0", "shape", "row for cell 1 has 4 entries, expected 3"),
    ("nan-a", "1,nan,0.0", "bounded-a", "diffusion tensor has non-finite entries"),
    ("inf-a", "1,inf,0.0", "bounded-a", "diffusion tensor has non-finite entries"),
]


@pytest.mark.parametrize("row,reason,detail", [c[1:] for c in BAD_CSV_ROWS],
                         ids=[c[0] for c in BAD_CSV_ROWS])
def test_bad_coefficient_row_exits_three(tmp_path, out_root, capsys, row, reason,
                                         detail):
    rows = [f"{i},1.0,0.0" for i in range(32)]
    index = row.split(",")[0]
    if index in ("1", "1.7"):
        rows[1] = row  # in place of cell 1's row
    else:
        rows.append(row)  # a second row for the cell
    csv_path = tmp_path / "coeffs.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    cfg = quick_preset()
    cfg["operators"][0] = {"csv": str(csv_path), "eta": 0.5, "m_bound": 2.0}
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert err.count("srds-error:") == 1
    assert f"code=3 kind=audit reason={reason} detail={detail}" in err


def test_output_dir_from_config(tmp_path, monkeypatch):
    monkeypatch.delenv("SRDS_OUT", raising=False)
    cfg = quick_preset()
    cfg["output"] = {"dir": str(tmp_path / "configured")}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 0
    assert (tmp_path / "configured").exists()


def test_output_stride_defaults_to_64_samples(tmp_path, out_root):
    cfg = quick_preset()
    cfg["solver"].update({"dt": 1e-3, "t_end": 0.256})
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 0
    manifest = json.loads(sorted(out_root.rglob("manifest.json"))[0].read_text())
    assert 60 <= manifest["shape"][0] <= 70


def test_raw_snapshot_format(tmp_path, out_root):
    cfg = quick_preset()
    cfg["output"] = {"formats": ["raw"]}
    cfg["solver"]["store_stride"] = 5
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 0
    blob = sorted(out_root.rglob("trajectory.f64"))[0]
    manifest = json.loads(sorted(out_root.rglob("manifest.json"))[0].read_text())
    shape = manifest["shape"]
    data = np.frombuffer(blob.read_bytes(), dtype="<f8").reshape(shape)
    assert shape[1] == 2 and shape[2] == 32
    assert np.all(np.isfinite(data))
    assert manifest["dtype"] == "<f8"
    assert "config_digest" in manifest["provenance"] or "problem_digest" in manifest["provenance"]


def test_problem_digest_only_for_the_simulate_manifest(tmp_path, out_root, monkeypatch):
    digest = Problem.digest
    calls = []
    monkeypatch.setattr(Problem, "digest",
                        lambda self: calls.append(self) or digest(self))
    cfg = quick_preset()
    cfg_path = write_config(tmp_path, cfg)
    assert main(["ensemble", "--config", cfg_path, "--paths", "2"]) == 0
    assert calls == []  # no hash per trajectory
    assert main(["simulate", "--config", cfg_path]) == 0
    manifest = json.loads(sorted(out_root.rglob("manifest.json"))[0].read_text())
    problem, _, _ = build_problem(cfg)
    assert manifest["provenance"]["problem_digest"] == digest(problem)


# --- ensemble ----------------------------------------------------------------------


def test_ensemble_worker_count_invariance(tmp_path, out_root):
    cfg = quick_preset()
    cfg_path = write_config(tmp_path, cfg)
    assert main(["ensemble", "--config", cfg_path, "--paths", "6",
                 "--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert main(["ensemble", "--config", cfg_path, "--paths", "6",
                 "--workers", "3", "--out", str(tmp_path / "w3")]) == 0
    a = sorted((tmp_path / "w1").rglob("aggregate.csv"))[0].read_bytes()
    b = sorted((tmp_path / "w3").rglob("aggregate.csv"))[0].read_bytes()
    assert a == b
    pa = sorted((tmp_path / "w1").rglob("paths.csv"))[0].read_bytes()
    pb = sorted((tmp_path / "w3").rglob("paths.csv"))[0].read_bytes()
    assert pa == pb


def test_2d_spectral_ensemble_reproducible(tmp_path):
    # criterion 11 on the DCT-stepped path: a 2D constant-coefficient grid
    cfg = quick_preset()
    cfg["grid"] = {"dim": 2, "extents": [1.0, 1.0], "n_cells": [24, 16]}
    cfg["noise"]["modes"] = 4
    cfg.pop("experiment")
    cfg_path = write_config(tmp_path, cfg)
    artifacts = {}
    for run, workers in (("w1", "1"), ("w2", "2"), ("rerun", "1")):
        root = tmp_path / run
        assert main(["ensemble", "--config", cfg_path, "--paths", "4",
                     "--workers", workers, "--out", str(root)]) == 0
        artifacts[run] = {str(p.relative_to(root)): p.read_bytes()
                          for p in sorted(root.rglob("*")) if p.is_file()}
    assert len(artifacts["w1"]) == 4
    assert artifacts["w1"] == artifacts["w2"] == artifacts["rerun"]


def test_ensemble_starts_no_more_workers_than_paths(tmp_path, monkeypatch):
    # a forked pool starts every worker at its first submit, so a pool is
    # at most as wide as the paths, and one path runs in-process; a stand-in
    # that starts no process records the widths asked for
    import srds.cli

    widths = []

    class Recording:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(srds.cli, "ProcessPoolExecutor", Recording)
    cfg_path = write_config(tmp_path, quick_preset())
    trees = {}
    for paths, workers in (("2", "64"), ("2", "1"), ("1", "64")):
        root = tmp_path / f"p{paths}w{workers}"
        assert main(["ensemble", "--config", cfg_path, "--paths", paths,
                     "--workers", workers, "--out", str(root)]) == 0
        trees[paths, workers] = {str(p.relative_to(root)): p.read_bytes()
                                 for p in sorted(root.rglob("*")) if p.is_file()}
    assert widths == [2]
    assert trees["2", "64"] == trees["2", "1"]


# forks a worker pool right after an in-process run whose modal fields were
# built ahead on a helper thread; a thread still alive at the fork (a
# module-level pool's, say) hung the forked workers
_FORK_AFTER_RUN = """
import sys
from srds.cli import main
cfg, out = sys.argv[1:]
for workers in ("1", "2"):
    code = main(["ensemble", "--config", cfg, "--paths", "2", "--workers", workers,
                 "--out", out + "/w" + workers])
    if code:
        sys.exit(code)
"""


def test_ensemble_forks_workers_after_a_multi_chunk_run(tmp_path):
    import os
    import signal
    import subprocess
    import sys

    # 2 x 64 x 64 cells: modal chunks of 8 steps, 20 steps a path
    cfg = quick_preset()
    cfg["grid"] = {"dim": 2, "extents": [1.0, 1.0], "n_cells": [64, 64]}
    cfg.pop("experiment")
    paths = [str(Path(srds.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    # its own session, so that a hang ends with the workers it forked too
    child = subprocess.Popen([sys.executable, "-c", _FORK_AFTER_RUN,
                              write_config(tmp_path, cfg), str(tmp_path)],
                             env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        _, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("ensemble --workers 2 hung after an in-process multi-chunk run")
    assert child.returncode == 0, err[-4000:]
    one, two = (sorted((tmp_path / w).rglob("paths.csv"))[0].read_bytes()
                for w in ("w1", "w2"))
    assert one == two and len(one.splitlines()) == 3


def test_ensemble_single_path_matches_simulation(tmp_path, out_root):
    cfg = quick_preset()
    cfg_path = write_config(tmp_path, cfg)
    assert main(["ensemble", "--config", cfg_path, "--paths", "1"]) == 0
    paths_csv = sorted(out_root.rglob("paths.csv"))[0].read_text().splitlines()
    agg_csv = sorted(out_root.rglob("aggregate.csv"))[0].read_text().splitlines()
    path_row = paths_csv[1].split(",")
    mean_row = agg_csv[1].split(",")
    assert path_row[1] == mean_row[1]  # final E-norm equals its own mean


def test_ensemble_seed_recorded(tmp_path, out_root):
    cfg = quick_preset(seed := 5)
    cfg["master_seed"] = seed
    cfg_path = write_config(tmp_path, cfg)
    assert main(["ensemble", "--config", cfg_path, "--paths", "2"]) == 0
    run = json.loads(sorted(out_root.rglob("run.json"))[0].read_text())
    assert run["master_seed"] == 5
    assert run["n_paths"] == 2
    assert "config_digest" in run and "tool_version" in run


def test_ensemble_stores_no_intermediate_states(tmp_path, monkeypatch):
    import srds.experiments

    strides = []
    simulate = srds.experiments.simulate
    monkeypatch.setattr(srds.experiments, "simulate", lambda problem, config, *args, **kw: (
        strides.append(config.store_stride) or simulate(problem, config, *args, **kw)))
    csvs = {}
    for stride in (1, 5):
        cfg = quick_preset(store_stride=stride)
        root = tmp_path / f"stride{stride}"
        assert main(["ensemble", "--config", write_config(tmp_path, cfg),
                     "--paths", "3", "--out", str(root)]) == 0
        csvs[stride] = [p.read_bytes() for name in ("paths.csv", "aggregate.csv")
                        for p in root.rglob(name)]
    assert len(csvs[1]) == 2 and csvs[1] == csvs[5]
    assert strides == [20] * 6  # n_steps, whatever the configured stride


# --- values of the wrong type or out of range ------------------------------------------


BAD_VALUES = [
    ("simulate", ("noise", "modes"), "eight", "noise"),
    ("simulate", ("noise", "scale"), "big", "noise"),
    ("simulate", ("noise", "lambdas"), "power:x", "noise"),
    ("simulate", ("grid", "n_cells"), None, "grid"),
    ("simulate", ("operators", 0, "a"), "x", "operators"),
    ("simulate", ("initial", "values"), ["a", "b"], "initial"),
    ("simulate", ("solver", "sup_cap"), "x", "solver"),
    ("simulate", ("master_seed",), "x", "master_seed"),
    ("simulate", ("master_seed",), -1, "master_seed"),
    ("simulate", ("master_seed",), 1 << 64, "master_seed"),
    ("verify uniqueness", ("experiment",), {"name": "uniqueness", "n_paths": "many"},
     "experiment"),
    ("verify moments", ("experiment",), {"name": "moments", "levels": "x"}, "experiment"),
    ("verify uniqueness", ("experiment",), {"name": "uniqueness", "eps_list": ["a"]},
     "experiment"),
    ("verify uniqueness", ("experiment",), {"name": "uniqueness", "n_paths": 0},
     "experiment", "n_paths must be >= 1"),
    ("verify uniqueness", ("experiment",), {"name": "uniqueness", "eps_list": []},
     "experiment"),
    ("simulate", ("output", "formats"), "csv", "output"),
    ("simulate", ("output", "formats"), ["xml"], "output"),
    ("verify moments", ("experiment",), {"name": "moments", "n_paths": 0}, "experiment",
     "n_paths must be >= 1"),
    # a count of zero would let a check pass on no samples
    ("verify operator", ("experiment",), {"name": "operator", "trials": 0},
     "experiment", "trials must be >= 1"),
    ("verify reaction", ("experiment",),
     {"name": "reaction", "dissipativity_trials": 0}, "experiment",
     "dissipativity_trials must be >= 1"),
    ("verify reaction", ("experiment",), {"name": "reaction", "samples": 0},
     "experiment", "samples must be >= 1"),
    ("verify mollifier", ("experiment",), {"name": "mollifier", "probe_points": 0},
     "experiment", "probe_points must be >= 1"),
    ("verify residual", ("experiment",), {"name": "residual", "n_paths": 0},
     "experiment", "n_paths must be >= 1"),
    ("verify positivity", ("experiment",), {"name": "positivity", "n_paths": 0},
     "experiment", "n_paths must be >= 1"),
    ("verify moments", ("experiment",), {"name": "moments", "levels": []},
     "experiment", "levels must be a nonempty increasing list"),
    # the block's keys are the suite's keyword arguments: nothing else passes
    ("verify positivity", ("experiment",), {"name": "positivity", "n_path": 2},
     "experiment",
     "positivity_experiment() got an unexpected keyword argument 'n_path'"),
    ("verify moments", ("experiment",), {"name": "moments", "level": [4]},
     "experiment", "moment_experiment() got an unexpected keyword argument 'level'"),
    ("verify uniqueness", ("experiment",), {"name": "uniqueness", "eps": [0.1]},
     "experiment", "uniqueness_experiment() got an unexpected keyword argument 'eps'"),
    ("verify operator", ("experiment",), {"name": "operator", "trial": 5},
     "experiment", "suite_operator() got an unexpected keyword argument 'trial'"),
    ("verify positivity", ("experiment",), {"name": "positivity", "dt_halving": False},
     "experiment",
     "positivity_experiment() got an unexpected keyword argument 'dt_halving'"),
    ("verify operator", ("experiment",), {"name": "operator", "trials": "50"},
     "experiment", "trials must be an integer, got '50'"),
    ("verify uniqueness", ("experiment",), {"name": "uniqueness", "slack": "0.1"},
     "experiment", "slack must be a finite number, got '0.1'"),
    # flags are JSON booleans and sequences JSON lists: a string is neither
    # read by its truthiness nor iterated per character
    ("verify positivity", ("experiment",), {"name": "positivity", "control": "false"},
     "experiment", "control must be true or false, got 'false'"),
    ("verify reaction", ("experiment",), {"name": "reaction", "quasi_positive": "false"},
     "experiment", "quasi_positive must be true or false, got 'false'"),
    ("verify moments", ("experiment",), {"name": "moments", "levels": "48"},
     "experiment", "levels must be a list, got '48'"),
    ("verify uniqueness", ("experiment",), {"name": "uniqueness", "eps_list": "321"},
     "experiment", "eps_list must be a list, got '321'"),
    ("verify reaction", ("experiment",), {"name": "reaction", "radii": "1"},
     "experiment", "radii must be a list, got '1'"),
    ("verify reaction", ("experiment",), {"name": "reaction", "radii": []},
     "experiment", "radii must be a nonempty list"),
    # values of the right type that mean nothing
    ("verify uniqueness", ("experiment",),
     {"name": "uniqueness", "eps_list": [-1e-3, -1e-2]}, "experiment",
     "eps_list[0] must be > 0"),
    ("verify uniqueness", ("experiment",), {"name": "uniqueness", "slack": float("nan")},
     "experiment", "slack must be a finite number, got nan"),
    ("verify positivity", ("experiment",), {"name": "positivity", "c_tol": -1},
     "experiment", "c_tol must be > 0"),
    ("verify uniqueness", ("experiment",),
     {"name": "uniqueness", "cauchy_refinements": -1}, "experiment",
     "cauchy_refinements must be >= 0"),
    # a check run on no evidence: every sampled u is zero at radius 0, so no
    # dissipativity margin is evaluated
    ("verify reaction", ("experiment",), {"name": "reaction", "radii": [0]},
     "experiment", "radii[0] must be > 0"),
    # experiment counts are JSON integers too: true ran one path, one
    # refinement, one trial, a 1-point probe or one mollifier level
    *[(f"verify {suite}", ("experiment",), {"name": suite, key: True}, "experiment",
       f"{key} must be an integer, got True")
      for suite, key in (("uniqueness", "n_paths"), ("uniqueness", "cauchy_paths"),
                         ("uniqueness", "cauchy_refinements"), ("operator", "trials"),
                         ("mollifier", "probe_points"), ("mollifier", "n_max"))],
    # experiment numbers are finite JSON numbers as well: true was read as
    # 1, and a NaN C failed inside the root finder
    *[(f"verify {suite}", ("experiment",), {"name": suite, **params}, "experiment",
       f"{key} must be a finite number, got {bad!r}")
      for suite, params, key, bad in (
          ("uniqueness", {"slack": True}, "slack", True),
          ("uniqueness", {"eps_list": [True, 0.1]}, "eps_list[0]", True),
          ("positivity", {"c_tol": True}, "c_tol", True),
          ("moments", {"levels": [True, 4]}, "levels[0]", True),
          ("reaction", {"radii": [True, 10.0]}, "radii[0]", True),
          ("residual", {"t_end": True}, "t_end", True),
          ("residual", {"dt": True}, "dt", True),
          ("mollifier", {"C": True}, "C", True),
          ("mollifier", {"C": float("nan")}, "C", float("nan")),
          ("mollifier", {"C": float("inf")}, "C", float("inf")))],
    # a level whose a_n underflows is a value the family cannot be built at
    ("verify mollifier", ("experiment",), {"name": "mollifier", "n_max": 60},
     "experiment", "level 60 not representable; largest feasible level is 32"),
    # and so is one whose a_n rounds to a_{n-1}; a modulus C s with C <= 0
    # is the experiment block's value, not a failed audit
    ("verify mollifier", ("experiment",), {"name": "mollifier", "C": 1e-300},
     "experiment", "level 5 not representable; largest feasible level is 0"),
    *[("verify mollifier", ("experiment",), {"name": "mollifier", "C": C},
       "experiment", "C must be > 0") for C in (0, -1)],
    # a radius m whose margin envelope (1 + ||v||)^q, ||v|| <= m, overflows
    # has no margins
    ("verify reaction", ("experiment",), {"name": "reaction", "radii": [10.0, 1e300]},
     "experiment", "radii[1] = 1e+300 overflows the margin envelope (1 + ||v||)^q"),
    # an unknown amplitude name is a config value, as an unknown lambda rule
    ("simulate", ("noise", "g"), "sqrt-abz", "noise", "unknown amplitude name 'sqrt-abz'"),
    # a cosine field beyond the largest float, refused before any step
    ("simulate", ("initial",), {"kind": "cosine", "means": [1e308, 1e308],
                                "amplitudes": [1e308, 1e308]}, "initial",
     "overflow encountered in add"),
    # verify checks noise.dt_fine as simulate and ensemble do, and a NaN cap
    # would stop nothing and be recorded as the stopping level
    *[("verify positivity", ("noise", "dt_fine"), dt_fine, "noise", detail)
      for dt_fine, detail in (
          (0, "dt=0.001 must be a power-of-two multiple of dt_fine=0"),
          ("x", "dt_fine must be a finite number, got 'x'"),
          (1e-3 / 3, "dt=0.001 must be a power-of-two multiple of "
                     "dt_fine=0.0003333333333333333"))],
    ("simulate", ("solver", "sup_cap"), float("nan"), "solver",
     "sup_cap must be a finite number, got nan"),
    # a cap of zero or less would stop every run at step 0; null and inf
    # are no cap
    ("simulate", ("solver", "sup_cap"), -1, "solver", "sup_cap must be > 0, got -1"),
    ("simulate", ("solver", "sup_cap"), 0, "solver", "sup_cap must be > 0, got 0"),
    ("simulate", ("solver", "sup_cap"), -math.inf, "solver",
     "sup_cap must be a finite number, got -inf"),
    # a coefficient path is a path: open() would take an int or a bool for a
    # file descriptor, read stdin for 0 and close stdout or stderr for 1, 2, true
    *[("simulate", ("operators", 0), {"csv": csv, "eta": 0.5, "m_bound": 2.0}, "operators",
       f"expected str, bytes or os.PathLike object, not {type(csv).__name__}")
      for csv in (0, 1, 2, True, None, [1], 3.5)],
    # a coefficient file that cannot be read, and more modes than the Philox
    # stream lanes hold, are config errors, not tracebacks
    *[(command, ("operators", 0), {"csv": "missing-coefficients.csv", "eta": 0.5,
                                   "m_bound": 2.0},
       "operators", "[Errno 2] No such file or directory")
      for command in ("simulate", "ensemble", "verify noise")],
    *[(command, ("noise", "modes"), modes, "noise", "modes must be in [1, 65536]")
      for command in ("simulate", "ensemble", "verify positivity")
      for modes in (0, (1 << 16) + 1)],
    # counts are JSON integers: int() would run 8 modes for 8.7, 1 for true
    # and stride 2 for 2.9
    ("simulate", ("noise", "modes"), 8.7, "noise", "modes must be an integer, got 8.7"),
    ("simulate", ("noise", "modes"), True, "noise", "modes must be an integer, got True"),
    ("simulate", ("noise", "modes"), "8", "noise", "modes must be an integer, got '8'"),
    # a frequency of 32 or more is aliased on the preset's 32 cells
    ("simulate", ("noise", "modes"), 128, "noise",
     "noise mode 32 aliases on axis 0 of 32 cells"),
    ("simulate", ("solver", "store_stride"), 2.9, "solver",
     "store_stride must be an integer, got 2.9"),
    *[("simulate", ("output", "stride"), stride, "output",
       f"stride must be an integer, got {stride!r}") for stride in (2.9, True, "2")],
    # a stride is refused under its own name, not as store_stride
    ("simulate", ("output", "stride"), 0, "output", "stride must be >= 1, got 0"),
    # numbers are JSON numbers: float() would read "0.001" and true, int()
    # would run 32 cells for 32.7, and a false dt_fine would mean dt
    ("simulate", ("solver", "dt"), "0.001", "solver",
     "dt must be a finite number, got '0.001'"),
    ("simulate", ("solver", "t_end"), True, "solver",
     "t_end must be a finite number, got True"),
    ("simulate", ("noise", "scale"), "2", "noise", "scale must be a finite number, got '2'"),
    ("simulate", ("reaction", "a"), "1", "reaction", "a must be a finite number, got '1'"),
    ("simulate", ("operators", 0, "a"), True, "operators",
     "a must be a finite number, got True"),
    ("simulate", ("operators", 0, "eta"), True, "operators",
     "eta must be a finite number, got True"),
    # an ellipticity bound of 0 is a bad parameter, not coefficients outside it
    ("simulate", ("operators", 0, "eta"), 0, "operators", "eta must be > 0, got 0.0"),
    ("simulate", ("grid", "extents"), ["1"], "grid",
     "extents[0] must be a finite number, got '1'"),
    ("simulate", ("grid", "n_cells"), [32.7], "grid",
     "n_cells[0] must be an integer, got 32.7"),
    ("simulate", ("grid", "dim"), True, "grid", "dim must be an integer, got True"),
    ("simulate", ("initial", "values"), ["0.2", "0.2"], "initial",
     "values[0] must be a finite number, got '0.2'"),
    ("simulate", ("noise", "dt_fine"), 0, "noise",
     "dt=0.001 must be a power-of-two multiple of dt_fine=0"),
    ("simulate", ("noise", "dt_fine"), False, "noise",
     "dt_fine must be a finite number, got False"),
    ("simulate", ("operators", 0), {"csv": "coefficients.csv"}, "operators",
     "csv coefficients need eta and m_bound"),
    # the number of a named rule is a bare JSON number literal: float()
    # read "0_1" as 1 and " 2 " as 2
    *[("simulate", ("noise", "g"), f"power:{alpha}", "noise", f"power exponent {message}")
      for alpha, message in (("0", "must be > 0, got 0"), ("-0.5", "must be > 0, got -0.5"),
                             ("1.5", "must be <= 1, got 1.5"),
                             ("1e400", "must be a finite number, got inf"),
                             *[(bad, f"must be a finite number, got {bad!r}")
                               for bad in ("nan", "inf", "x", "0_1", " 1", "+1")])],
    # entries of config lists are JSON numbers too: float() would read "1"
    # and true, a NaN or infinite lambda power makes a NaN or a one-mode
    # noise, and a cosine mode number is an integer
    *[("simulate", ("noise", "lambdas"), [bad] + [1.0] * 7, "noise",
       f"lambdas[0] must be a finite number, got {bad!r}") for bad in ("1", True)],
    *[("simulate", ("noise", "lambdas"), f"power:{p}", "noise",
       f"lambda power must be a finite number, got {p!r}") for p in ("nan", "inf", "2_0")],
    # a scaled lambda beyond the largest float, or inf * 0, is refused by
    # mode (ComponentNoise's check) before any path is sampled
    ("simulate", ("noise", "lambdas"), "power:-400", "noise",
     "lambdas[5] is inf; it must be finite"),
    ("simulate", ("noise",), {"basis": "cosine-neumann", "modes": 8,
                              "lambdas": "power:-400", "scale": 0, "g": "sqrt-pos"},
     "noise", "lambdas[5] is nan; it must be finite"),
    ("simulate", ("noise",), {"basis": "cosine-neumann", "modes": 8,
                              "lambdas": [1e308] * 8, "scale": 10, "g": "sqrt-pos"},
     "noise", "lambdas[0] is inf; it must be finite"),
    ("simulate", ("reaction",), {"drifts": [["1", 0.0, -1.0], []],
                                 "coupling": {"name": "fhn"}}, "reaction",
     "drifts[0][0] must be a finite number, got '1'"),
    # only an empty list is no drift: false and 0 ran with none
    *[("simulate", ("reaction",), {"drifts": [[1.0, 0.0, -1.0], bad],
                                   "coupling": {"name": "fhn"}}, "reaction",
       f"drifts[1] must be a list, got {bad!r}") for bad in (False, 0)],
    ("simulate", ("reaction",),
     {"drifts": [[1.0, 0.0, -1.0], []],
      "coupling": {"name": "linear", "matrix": [[0.0, 1.0], ["0", -1.0]]}},
     "reaction", "matrix[1][0] must be a finite number, got '0'"),
    *[("simulate", ("initial",), {"kind": "cosine", "means": [bad, 1.0]}, "initial",
       f"means[0] must be a finite number, got {bad!r}") for bad in (True, float("nan"))],
    ("simulate", ("initial",), {"kind": "cosine", "means": [1.0, 1.0],
                                "amplitudes": [0.5, True]}, "initial",
     "amplitudes[1] must be a finite number, got True"),
    ("simulate", ("initial",), {"kind": "cosine", "means": [1.0, 1.0], "modes": [1.5, 1]},
     "initial", "modes[0] must be an integer, got 1.5"),
    # a cosine field takes one mean, amplitude and mode per component: a
    # short list indexed past its end, a long one had entries ignored
    *[("simulate", ("initial",), {"kind": "cosine", key: value}, "initial",
       f"{key} must hold 2 entries, got {len(value)}")
      for key, value in (("means", [1.0]), ("means", [1.0, 1.0, 1.0]),
                         ("amplitudes", [0.5]), ("modes", [1]))],
    # every per-component or per-mode list is read with its length
    ("simulate", ("initial", "values"), [0.2], "initial", "values must hold 2 entries, got 1"),
    ("simulate", ("noise", "lambdas"), [1.0] * 7, "noise", "lambdas must hold 8 entries, got 7"),
    ("simulate", ("reaction",), {"drifts": [[1.0, 0.0, -1.0]], "coupling": {"name": "fhn"}},
     "reaction", "drifts must hold 2 entries, got 1"),
    ("simulate", ("reaction",),
     {"drifts": [[1.0, 0.0, -1.0], []],
      "coupling": {"name": "linear", "matrix": [[0.0, 1.0], [-1.0]]}},
     "reaction", "matrix[1] must hold 2 entries, got 1"),
    # a block that names no suite would run the suite on its defaults
    *[("verify positivity", ("experiment",), {"name": name, "n_paths": 2}, "experiment",
       f"unknown suite name {name!r}") for name in ("positivty", 5)],
    # a path of 1e303 steps cannot be one array (it was a traceback)
    ("simulate", ("solver", "t_end"), 1e300, "solver",
     "path increments of 2 x 8 x n_fine floats exceed the largest array"),
    # a non-finite Lipschitz constant bounds nothing; the preset's positivity
    # block would read it as g(0) != 0
    *[(command, ("noise", "g"), f"lipschitz:{L}", "noise",
       f"lipschitz constant must be a finite number, got {L!r}")
      for command in ("simulate", "verify positivity")
      for L in ("nan", "inf", "-inf", "0_1", " 2 ")],
]


def _set(cfg, keys, value):
    for k in keys[:-1]:
        cfg = cfg[k]
    cfg[keys[-1]] = value


_MAIN_IN_CHILD = """
import os, sys
from srds.cli import main
code = main(sys.argv[1:])
for fd in (0, 1, 2):
    os.fstat(fd)  # raises if main closed a standard stream
sys.exit(code)
"""


def _main_in_child(argv) -> str:
    """Run ``main(argv)`` in a child with every warning printed; require
    exit 2 with its standard streams still open, and return its stderr."""
    import os
    import subprocess
    import sys

    paths = [str(Path(srds.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-W", "always", "-c", _MAIN_IN_CHILD, *argv],
                          env=env, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 2, done.stderr[-4000:]
    return done.stderr


# a row's optional fifth entry is the expected start of the detail
@pytest.mark.parametrize("command,keys,value,reason,detail",
                         [(*c, "")[:5] for c in BAD_VALUES],
                         ids=[f"{c[0]}-{'.'.join(map(str, c[1]))}={c[2]!r}"
                              for c in BAD_VALUES])
def test_bad_value_exits_two(tmp_path, out_root, capsys, command, keys, value,
                             reason, detail):
    cfg = quick_preset()
    _set(cfg, keys, value)
    argv = [*command.split(), "--config", write_config(tmp_path, cfg)]
    if isinstance(value, dict) and isinstance(value.get("csv"), int):
        # a file descriptor number: a fault here reads or closes the standard
        # streams of the process that runs main, so a child runs it
        err = _main_in_child(argv)
    else:
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert [str(w.message) for w in warned] == []
    # one line on stderr and no warning, which would print there outside pytest
    assert err.startswith("srds-error:") and err.count("\n") == 1
    assert f"code=2 kind=config reason={reason} detail={detail}" in err


@pytest.mark.parametrize("experiment", [
    {"name": "positivity", "control": "false"},
    {"name": "moments", "levels": "48"},
    {"name": "uniqueness", "eps_list": "321"},
    {"name": "uniqueness", "eps_list": [-1e-3, -1e-2]},
    {"name": "uniqueness", "slack": float("nan")},
    {"name": "positivity", "c_tol": -1},
    {"name": "uniqueness", "cauchy_refinements": -1},
    # values that would run a check on no evidence
    {"name": "moments", "p": float("inf")},
    {"name": "uniqueness", "cauchy_paths": 0},
    {"name": "uniqueness", "cauchy_paths": -3},
    {"name": "moments", "levels": [4, float("nan")]},
    {"name": "moments", "levels": [0.5, 4]},
])
def test_bad_experiment_value_samples_no_path(tmp_path, out_root, monkeypatch,
                                              experiment):
    import srds.experiments

    sampled = []
    monkeypatch.setattr(srds.experiments, "sample_path",
                        lambda *a, **k: sampled.append(a))
    cfg = quick_preset()
    cfg["experiment"] = experiment
    command = ["verify", experiment["name"], "--config", write_config(tmp_path, cfg)]
    assert main(command) == 2
    assert sampled == []


@pytest.mark.parametrize("via", ["--out", "SRDS_OUT"])
@pytest.mark.parametrize("command", ["simulate", "verify noise", "ensemble --paths 2"])
def test_output_root_that_cannot_be_made_exits_two(tmp_path, monkeypatch, capsys,
                                                   command, via):
    # a root under a regular file: the run's directory is made after the
    # run, and it fails as a config error, not a traceback that exits 1
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    argv = [*command.split(), "--config", write_config(tmp_path, quick_preset())]
    if via == "--out":
        argv += ["--out", str(blocker)]
    else:
        monkeypatch.setenv("SRDS_OUT", str(blocker / "sub"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("srds-error:") == 1
    assert "code=2 kind=config reason=output detail=[Errno 20] Not a directory" in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("name,reason,detail", [
    ("missing.json", "missing-config", "[Errno 2] No such file or directory"),
    ("a-directory", "missing-config", "[Errno 21] Is a directory"),
    ("utf16.json", "invalid-json", "'utf-8' codec can't decode byte 0xff in position 0"),
])
def test_config_that_is_not_a_readable_utf8_file_exits_two(tmp_path, out_root, capsys,
                                                          name, reason, detail):
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "utf16.json").write_bytes(json.dumps(quick_preset()).encode("utf-16"))
    assert main(["simulate", "--config", str(tmp_path / name)]) == 2
    err = capsys.readouterr().err
    assert err.count("srds-error:") == 1
    assert f"code=2 kind=config reason={reason} detail={detail}" in err
    assert not out_root.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_flag_below_one_exits_two(tmp_path, out_root, capsys, workers):
    cfg_path = write_config(tmp_path, quick_preset())
    assert main(["ensemble", "--config", cfg_path, "--paths", "2",
                 "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err.count("srds-error:") == 1
    assert "code=2 kind=config reason=flags detail=--workers must be >= 1" in err


@pytest.mark.parametrize("paths", ["0", str(MAX_PATH + 1)])
def test_paths_flag_beyond_the_path_indices_exits_two(tmp_path, out_root, capsys,
                                                      monkeypatch, paths):
    # refused before the problem is built and the index list made: a list of
    # 2^32 + 1 indices would take tens of GB
    import srds.cli

    monkeypatch.setattr(srds.cli, "_cached_problem",
                        lambda blob: pytest.fail("the count was not checked first"))
    cfg_path = write_config(tmp_path, quick_preset())
    assert main(["ensemble", "--config", cfg_path, "--paths", paths]) == 2
    err = capsys.readouterr().err
    assert err.count("srds-error:") == 1
    assert ("code=2 kind=config reason=flags "
            f"detail=--paths must be in [1, {MAX_PATH}]") in err


def test_negative_seed_flag_exits_two(tmp_path, out_root, capsys):
    cfg_path = write_config(tmp_path, quick_preset())
    assert main(["simulate", "--config", cfg_path, "--seed", "-1"]) == 2
    assert "reason=master_seed" in capsys.readouterr().err


@pytest.mark.parametrize("index", [-1, MAX_PATH])
def test_path_index_flag_outside_key_range_exits_two(tmp_path, out_root, capsys, index):
    cfg_path = write_config(tmp_path, quick_preset())
    assert main(["simulate", "--config", cfg_path, "--path-index", str(index)]) == 2
    err = capsys.readouterr().err
    assert err.count("srds-error:") == 1
    assert "code=2 kind=config reason=flags " in err


def test_largest_path_index_flag_accepted(tmp_path, out_root):
    cfg_path = write_config(tmp_path, quick_preset())
    assert main(["simulate", "--config", cfg_path,
                 "--path-index", str(MAX_PATH - 1)]) == 0


# every leaf and every block of the quick preset, as key paths
def _key_paths(node, prefix=()):
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        yield from _key_paths(v, prefix + (k,))


FUZZ_KEYS = [p for p in _key_paths(quick_preset(t_end=0.01)) if p]
# small values only: a mutated grid, mode count or step count stays cheap
FUZZ_VALUES = [None, True, False, -1, 0, 0.5, 2, "", "x", [], {}, ["x"], [2, 2]]


@settings(max_examples=40)
@given(mutations=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS),
                                    st.sampled_from(FUZZ_VALUES)),
                          min_size=1, max_size=3))
def test_mutated_preset_ends_in_the_exit_taxonomy(mutations):
    cfg = quick_preset(t_end=0.01)
    for keys, value in mutations:
        try:
            _set(cfg, keys, copy.deepcopy(value))
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation replaced a block on this key path
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        cfg_path = write_config(Path(tmp), cfg)
        code = main(["simulate", "--config", cfg_path, "--out", tmp])
    assert code in (0, 2, 3, 4)
    assert err.getvalue().count("srds-error:") == (code != 0)
    assert "Traceback" not in err.getvalue()
