import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srds import build_problem, config_digest, preset, preset_fhn, validate_config
from srds.cli import main
from srds.errors import ConfigError
from srds.rng import MAX_PATH
from srds.verify import run_suite


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_runtime_failure_exit_code(tmp_path, out_root, capsys):
    cfg = quick_preset()
    cfg["initial"] = {"kind": "constant", "values": [1e308, 1e308]}
    cfg["solver"]["sup_cap"] = None
    cfg_path = write_config(tmp_path, cfg)
    code = main(["simulate", "--config", cfg_path])
    assert code == 4
    assert "kind=runtime" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "ensemble"])
def test_runtime_failure_names_step_component_and_cell(tmp_path, out_root, capsys,
                                                       command):
    cfg = quick_preset(sup_cap=None)
    cfg["reaction"] = {"drifts": [[], [0.0, 0.0, -1.0]]}  # u_1' = -u_1^3
    cfg["initial"]["values"] = [0.2, 1e100]  # overflows in the second step
    cfg_path = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg_path]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "srds-error: code=4 kind=runtime reason=non-finite-state "
        "detail=step 2 component 1 cell 0"]


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
    assert all(len(op._steppers) < 50 for op in problem.operators)


def test_verify_operator_checks_the_stepping_solver():
    cfg = quick_preset()
    problem, initial, solver_cfg = build_problem(cfg)
    names = [c["name"] for c in
             run_suite("operator", problem, solver_cfg, initial, {"trials": 20}, 42).checks]
    assert not any("spectral" in name for name in names)  # 1D steps with LU

    cfg["grid"] = {"dim": 2, "extents": [1.0, 2.0], "n_cells": [12, 10]}
    cfg["operators"][1]["a"] = 1.5
    problem, initial, solver_cfg = build_problem(cfg)
    report = run_suite("operator", problem, solver_cfg, initial, {"trials": 20}, 42)
    checks = {c["name"]: c for c in report.checks}
    assert report.verdict
    for tag in ("op0", "op1"):
        assert checks[f"{tag}-spectral-matches-lu"]["passed"]
        assert checks[f"{tag}-spectral-matches-lu"]["detail"].startswith("5 trials")


def test_verify_noise_pass(tmp_path, out_root):
    cfg = quick_preset()
    cfg["experiment"] = {"name": "noise"}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "noise", "--config", cfg_path]) == 0


def test_verify_reaction_pass(tmp_path, out_root):
    cfg = quick_preset()
    cfg["experiment"] = {"name": "reaction", "samples": 2000,
                         "dissipativity_trials": 50}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "reaction", "--config", cfg_path]) == 0


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


def test_verify_uniqueness_quick(tmp_path, out_root):
    cfg = quick_preset()
    cfg["noise"].update({"g": "sqrt-abs", "scale": 0.1})
    cfg["experiment"] = {"name": "uniqueness", "n_paths": 2,
                         "eps_list": [1e-1, 1e-2], "cauchy_paths": 2,
                         "cauchy_refinements": 2}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "uniqueness", "--config", cfg_path]) == 0


def test_verify_moments_quick(tmp_path, out_root):
    cfg = quick_preset()
    cfg["experiment"] = {"name": "moments", "n_paths": 2, "levels": [4, 8]}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "moments", "--config", cfg_path]) == 0


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
     "experiment"),
    ("simulate", ("output", "formats"), "csv", "output"),
    ("simulate", ("output", "formats"), ["xml"], "output"),
    ("verify moments", ("experiment",), {"name": "moments", "n_paths": 0}, "experiment"),
]


def _set(cfg, keys, value):
    for k in keys[:-1]:
        cfg = cfg[k]
    cfg[keys[-1]] = value


@pytest.mark.parametrize("command,keys,value,reason", BAD_VALUES,
                         ids=[f"{c[0]}-{'.'.join(map(str, c[1]))}={c[2]!r}"
                              for c in BAD_VALUES])
def test_bad_value_exits_two(tmp_path, out_root, capsys, command, keys, value,
                             reason):
    cfg = quick_preset()
    _set(cfg, keys, value)
    assert main([*command.split(), "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("srds-error:") == 1
    assert f"code=2 kind=config reason={reason} " in err


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


@settings(max_examples=40, deadline=None, derandomize=True)
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
