import math
from dataclasses import replace

import numpy as np
import pytest

from srds import (SolverConfig, build_problem, est2_bound_check, moment_experiment,
                  negative_control_problem, positivity_experiment, preset_fhn,
                  residual_refinement, uniqueness_experiment)
from srds.errors import AuditError
from srds.noise import HolderFunction
from srds.reaction import CouplingTerm, ReactionSystem
from srds.experiments import Member, _l1_gap, _make_path, mean_upper_ci, run_members
from srds.rng import sample_path
from srds.solver import _step_runs, exit_index, simulate, truncate_problem
from srds.verify import _with_named_g, _zero_noise

from conftest import build_fhn_problem, const_init


# --- uniqueness ---------------------------------------------------------------


@pytest.fixture(scope="module")
def small_uniqueness_report():
    prob = build_fhn_problem(g_name="sqrt-abs", scale=0.1)
    cfg = SolverConfig(dt=1.0 / 128, t_end=0.25, sup_cap=8.0, store_stride=4)
    return uniqueness_experiment(prob, cfg, const_init(prob, 0.2, 0.2),
                                 n_paths=16, eps_list=(1e-1, 1e-2),
                                 master_seed=5, cauchy_paths=8,
                                 cauchy_refinements=2)


def test_uniqueness_verdict(small_uniqueness_report):
    rep = small_uniqueness_report
    assert rep.verdict, rep.checks


def test_uniqueness_gap_table_shape(small_uniqueness_report):
    headers, rows = small_uniqueness_report.tables["gap_series"]
    assert headers == ["eps", "time", "mean_gap", "upper95", "envelope"]
    eps_seen = sorted({r[0] for r in rows}, reverse=True)
    assert eps_seen == [1e-1, 1e-2]
    for r in rows:
        assert r[3] <= r[4]  # upper CI below the envelope


def test_uniqueness_initial_gap_is_exact(small_uniqueness_report):
    _, rows = small_uniqueness_report.tables["gap_series"]
    first = [r for r in rows if r[1] == 0.0]
    for r in first:
        # D(0) = eps * r * |O| for the constant-shift perturbation
        assert r[2] == pytest.approx(r[0] * 2 * 1.0, rel=1e-12)


def test_uniqueness_report_deterministic():
    prob = build_fhn_problem(g_name="sqrt-abs", scale=0.1)
    cfg = SolverConfig(dt=1.0 / 128, t_end=0.125, sup_cap=8.0, store_stride=4)
    kw = dict(n_paths=4, eps_list=(1e-1,), master_seed=9, cauchy_paths=2,
              cauchy_refinements=2)
    a = uniqueness_experiment(prob, cfg, const_init(prob, 0.2, 0.2), **kw)
    b = uniqueness_experiment(prob, cfg, const_init(prob, 0.2, 0.2), **kw)
    assert a.to_dict() == b.to_dict()
    assert a.tables["gap_series"] == b.tables["gap_series"]


def test_lipschitz_noise_gap_scales_linearly():
    # strong-stability control: with Lipschitz amplitude the terminal gap is
    # linear in eps, so decade-spaced ratios sit near 0.1
    prob = build_fhn_problem(g_name="lipschitz:1", scale=0.5)
    cfg = SolverConfig(dt=1.0 / 128, t_end=0.25, sup_cap=8.0, store_stride=8)
    rep = uniqueness_experiment(prob, cfg, const_init(prob, 0.2, 0.2),
                                n_paths=16, eps_list=(1e-1, 1e-2, 1e-3),
                                master_seed=3, cauchy_paths=1,
                                cauchy_refinements=2)
    means = [rep.aggregates["terminal_gap_means"][repr(e)]
             for e in (1e-1, 1e-2, 1e-3)]
    for a, b in zip(means, means[1:]):
        assert 0.08 <= b / a <= 0.12


def test_twins_are_compared_at_the_steps_both_stored():
    # strided twins that stop at different steps, off the stride: path 10's
    # base run exits at step 119 and its eps = 0.1 twin at step 30, so a
    # comparison by position would pair the base's step 32 with the twin's
    # step 30.  Each gap compares both runs at one step, and each eps's
    # table rows are at the steps every pair of it stored.
    prob = build_fhn_problem()
    cfg = SolverConfig(dt=1e-3, t_end=0.2, sup_cap=0.9, store_stride=8)
    init = const_init(prob, 0.5, 0.5)
    eps_list, n_paths, vol = (1e-1, 1e-2), 22, prob.grid.cell_volume
    rep = uniqueness_experiment(prob, cfg, init, n_paths=n_paths, eps_list=eps_list,
                                cauchy_paths=1, cauchy_refinements=0)
    paths = [_make_path(prob, cfg, 0, p) for p in range(n_paths)]
    base = [simulate(prob, cfg, path, init) for path in paths]
    twin = simulate(prob, cfg, paths[10], init + 0.1)
    assert (base[10].stopping.step_index, twin.stopping.step_index) == (119, 30)
    _, rows = rep.tables["gap_series"]
    for e in eps_list:
        stored = [[{round(time / cfg.dt): u for time, u in zip(t.times, t.states)}
                   for t in pair]
                  for pair in zip(base, [simulate(prob, cfg, p, init + e) for p in paths])]
        common = sorted(set.intersection(*(set(a) & set(b) for a, b in stored)))
        means = [np.mean([np.abs(a[s] - b[s]).sum() * vol for a, b in stored])
                 for s in common]
        assert [r[2] for r in rows if r[0] == e] == pytest.approx(means, rel=1e-12)
        assert [r[1] for r in rows if r[0] == e] == [s * cfg.dt for s in common]
        assert rep.aggregates["terminal_gap_means"][repr(e)] == pytest.approx(means[-1])
    steps, gaps = _l1_gap(base[10], twin, vol)
    assert steps.tolist() == [0, 8, 16, 24]
    assert gaps[-1] == pytest.approx(np.abs(base[10].states[3] - twin.states[3]).sum() * vol)


def test_no_limit_has_one_spelling(tmp_path):
    # a sup cap of None, inf or NaN is no cap, stored as None: one
    # descriptor, and uniqueness runs each at its default radius 8.0 and
    # writes the same files, with no Infinity or NaN token in them; one
    # truncation level is one digest, and a bool is no level
    prob = build_fhn_problem(scale=0.1, n=8)
    configs = [SolverConfig(dt=1.0 / 64, t_end=1.0 / 16, sup_cap=cap, store_stride=2)
               for cap in (None, math.inf, math.nan)]
    assert len({c.descriptor() for c in configs}) == 1
    trees = []
    for i, cfg in enumerate(configs):
        rep = uniqueness_experiment(prob, cfg, const_init(prob, 0.2, 0.2), n_paths=2,
                                    eps_list=(1e-1,), master_seed=3, cauchy_paths=1,
                                    cauchy_refinements=1)
        assert rep.parameters["cap_radius"] == 8.0
        rep.write(tmp_path / str(i))
        trees.append({f.name: f.read_bytes() for f in sorted((tmp_path / str(i)).iterdir())})
    assert len(trees[0]) > 1 and trees[0] == trees[1] == trees[2]
    assert not [name for name, blob in trees[0].items() if b"Infinity" in blob or b"NaN" in blob]
    assert len({replace(prob, level=v).digest() for v in (1, 1.0, np.float64(1.0))}) == 1
    with pytest.raises(ValueError, match="^truncation level must be a finite number, got True$"):
        replace(prob, level=True)


def test_eps_list_must_decrease():
    prob = build_fhn_problem(scale=0.1)
    cfg = SolverConfig(dt=1.0 / 64, t_end=0.125, sup_cap=8.0)
    with pytest.raises(ValueError):
        uniqueness_experiment(prob, cfg, const_init(prob, 0.2, 0.2),
                              n_paths=2, eps_list=(1e-2, 1e-1))


def test_mean_upper_ci():
    m, u = mean_upper_ci(np.array([1.0, 1.0, 1.0]))
    assert m == 1.0 and u == 1.0
    m, u = mean_upper_ci(np.array([0.0, 2.0]))
    assert m == 1.0 and u > 1.0


# --- positivity -----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_positivity_report():
    prob = build_fhn_problem(g_name="sqrt-pos", scale=1.0)
    cfg = SolverConfig(dt=1e-3, t_end=0.25, sup_cap=8.0)
    return positivity_experiment(prob, cfg, const_init(prob, 0.2, 0.2),
                                 n_paths=16, master_seed=6)


def test_positivity_verdict(small_positivity_report):
    assert small_positivity_report.verdict, small_positivity_report.checks


def test_positivity_tolerance_scales_with_dt(small_positivity_report):
    params = small_positivity_report.parameters
    assert params["tolerance"] == pytest.approx(params["c_tol"] * 1e-3)


def test_positivity_control_goes_negative(small_positivity_report):
    assert small_positivity_report.aggregates["control_min"] < -1e-2


def test_positivity_rejects_g_not_vanishing():
    prob = build_fhn_problem(g_name="sqrt-abs-shifted")
    cfg = SolverConfig(dt=1e-3, t_end=0.01)
    with pytest.raises(AuditError, match=r"g\(0\)"):
        positivity_experiment(prob, cfg, const_init(prob, 0.2, 0.2),
                              n_paths=1, master_seed=0)


def test_positivity_rejects_negative_initials():
    prob = build_fhn_problem(g_name="sqrt-pos")
    cfg = SolverConfig(dt=1e-3, t_end=0.01)
    with pytest.raises(AuditError, match="negative-initial"):
        positivity_experiment(prob, cfg, const_init(prob, -0.1, 0.2),
                              n_paths=1, master_seed=0)


def test_positivity_rejects_non_quasi_positive_reaction():
    prob = negative_control_problem(build_fhn_problem(g_name="sqrt-pos"))
    cfg = SolverConfig(dt=1e-3, t_end=0.01)
    with pytest.raises(AuditError, match="quasi-positivity"):
        positivity_experiment(prob, cfg, const_init(prob, 0.2, 0.2),
                              n_paths=1, master_seed=0)


def test_exact_linear_positivity_zero_noise():
    prob = _zero_noise(build_fhn_problem(g_name="sqrt-pos", scale=0.0))
    cfg = SolverConfig(dt=1e-3, t_end=0.1, sup_cap=8.0)
    rep = positivity_experiment(prob, cfg, const_init(prob, 0.3, 0.1),
                                n_paths=1, master_seed=0, control=False)
    assert rep.aggregates["global_min"] >= -1e-13


# --- moments ---------------------------------------------------------------------


def test_moment_stabilization_and_bitwise_core():
    prob = build_fhn_problem(g_name="sqrt-abs", scale=0.5)
    cfg = SolverConfig(dt=2e-3, t_end=0.25)
    rep = moment_experiment(prob, cfg, const_init(prob, 0.5, 0.5), 4.0,
                            [4.0, 8.0, 16.0], 8, master_seed=2)
    assert rep.verdict, rep.checks
    m = rep.aggregates["m_n"]
    assert m["4.0"] == m["8.0"] == m["16.0"]  # no path leaves level 4


def test_moment_immediate_exit_reported():
    prob = build_fhn_problem(g_name="sqrt-abs", scale=0.5)
    cfg = SolverConfig(dt=2e-3, t_end=0.05)
    rep = moment_experiment(prob, cfg, const_init(prob, 2.0, 2.0), 4.0, [1.0], 4,
                            master_seed=2)
    assert rep.aggregates["exit_fractions"]["1.0"] == 1.0
    # no path stays inside level 1, so the core check has no evidence
    core = [c for c in rep.checks if c["name"] == "common-path-bitwise-on-core"]
    assert core == [{"name": "common-path-bitwise-on-core", "passed": False,
                     "detail": "0/4 paths never exit level 1"}]


def test_moment_negative_control_trips():
    # the anti-dissipative coupling k1 = v + 2u^3 turns f1 = u - u^3 + v into
    # u + u^3 + v, so m_n grows with the level instead of stabilizing (the
    # declared constants are fhn-k1's and false; the audit is off)
    prob = build_fhn_problem(g_name="sqrt-abs", scale=0.5)
    k1 = CouplingTerm(lambda s: s[1] + 2.0 * s[0] ** 3, 0.0, 1.0, 1.0,
                      name="anti-dissipative")
    reaction = ReactionSystem(prob.reaction.drifts,
                              [k1, prob.reaction.couplings[1]], audit=False)
    prob = replace(prob, reaction=reaction)
    cfg = SolverConfig(dt=2e-3, t_end=0.5)
    rep = moment_experiment(prob, cfg, const_init(prob, 1.0, 1.0), 4.0,
                            [2.0, 4.0, 8.0, 16.0], 4, master_seed=21)
    stab = [c for c in rep.checks if c["name"] == "moment-stabilization"]
    assert len(stab) == 1 and not stab[0]["passed"], rep.checks
    m = list(rep.aggregates["m_n"].values())
    assert m == sorted(m)


def test_moment_requires_p_above_two():
    prob = build_fhn_problem()
    cfg = SolverConfig(dt=2e-3, t_end=0.05)
    with pytest.raises(ValueError):
        moment_experiment(prob, cfg, const_init(prob, 0.2, 0.2), 2.0, [4.0], 2)


def test_moment_deterministic_independent_of_level():
    # zero noise and zero coupling: m_n is level-independent once the level
    # exceeds the deterministic sup bound
    prob = _zero_noise(build_fhn_problem(scale=0.0))
    cfg = SolverConfig(dt=2e-3, t_end=0.25)
    rep = moment_experiment(prob, cfg, const_init(prob, 0.5, 0.5), 4.0, [4.0, 8.0], 2,
                            master_seed=0)
    m = rep.aggregates["m_n"]
    assert m["4.0"] == m["8.0"]


# --- est2 fixed-point bound -------------------------------------------------------


def test_est2_zero_forcing_zero_solution():
    prob = build_fhn_problem()
    sys = prob.reaction
    v = np.zeros((101, prob.grid.n_total))
    out = est2_bound_check(sys, 0, prob.operators[0], v, dt=1e-2)
    assert out["achieved"] == 0.0
    assert out["margin"] > 0.0


def test_est2_fhn_bound_value():
    prob = build_fhn_problem()
    cert = prob.reaction.certificates[0]
    bound_factor = (4.0 * cert.a2 / cert.b2) ** (1.0 / 3.0)
    assert bound_factor == pytest.approx((4.0 * 0.5443310539518174 / 0.5) ** (1 / 3),
                                         rel=1e-9)
    rng = np.random.default_rng(0)
    n = prob.grid.n_total
    for _ in range(5):
        v = np.tile(rng.uniform(-3.0, 3.0, size=n), (201, 1))
        out = est2_bound_check(prob.reaction, 0, prob.operators[0], v, dt=5e-3)
        assert out["bound"] == pytest.approx(
            bound_factor * (1.0 + np.max(np.abs(v))), rel=1e-12)
        assert out["margin"] > 0.0


def test_est2_constant_large_forcing():
    prob = build_fhn_problem()
    v = np.full((401, prob.grid.n_total), 10.0)
    out = est2_bound_check(prob.reaction, 0, prob.operators[0], v, dt=5e-3)
    assert out["margin"] > 0.0


def test_est2_needs_polynomial_drift():
    prob = build_fhn_problem()
    v = np.zeros((11, prob.grid.n_total))
    with pytest.raises(ValueError):
        est2_bound_check(prob.reaction, 1, prob.operators[1], v, dt=1e-2)


# --- the member runner -------------------------------------------------------------


def _assert_same_run(traj, ref):
    assert traj.dt == ref.dt and traj.store_stride == ref.store_stride
    assert traj.stopping == ref.stopping
    for name in ("times", "states", "sup_norms", "min_values"):
        assert getattr(traj, name).tobytes() == getattr(ref, name).tobytes()


@pytest.mark.parametrize("sup_cap", [None, 0.3], ids=["uncapped", "capped"])
def test_run_members_match_simulate_on_a_hand_sized_path(sup_cap):
    # the cap of 0.3 stops every dt level, at different steps
    prob = build_fhn_problem(scale=0.5)
    cfg = SolverConfig(dt=1.0 / 32, t_end=0.25, sup_cap=sup_cap, store_stride=3)
    init = const_init(prob, 0.2, 0.2)
    control = negative_control_problem(prob)
    n = 3
    path = _make_path(prob, cfg, 7, 5, refinements=n)
    hand = sample_path(7, prob.r, prob.noise.modes, cfg.n_steps * 2**n,
                       cfg.dt / 2**n, path_index=5)
    assert path.dt_fine == hand.dt_fine
    assert path.increments.tobytes() == hand.increments.tobytes()
    # halvings 0..n, then a member on another problem at dt/2
    runs = [(prob, j) for j in range(n + 1)] + [(control, 1)]
    trajs = run_members(prob, cfg, [Member(path, init, j, problem=(None if p is prob else p))
                                    for p, j in runs])
    assert len(trajs) == len(runs)
    for traj, (p, j) in zip(trajs, runs):
        ref = simulate(p, replace(cfg, dt=cfg.dt / 2**j), hand, init)
        assert traj.dt == ref.dt == cfg.dt / 2**j
        _assert_same_run(traj, ref)
    assert all(t.stopping.triggered for t in trajs[:n + 1]) == (sup_cap is not None)


def test_run_members_fork_a_ladder_to_the_bits_of_runs_from_step_0(monkeypatch):
    # E-norm 0.9 at step 0: level 1 is left at step 4 and level 1.25 at
    # step 7, off the stride of 3, so level 4 resumes from it at step 6
    import srds.experiments

    prob = build_fhn_problem(scale=0.5)
    cfg = SolverConfig(dt=1.0 / 32, t_end=0.25, store_stride=3)
    init = const_init(prob, 0.45, 0.45)
    path = _make_path(prob, cfg, 7, 5)
    levels = [truncate_problem(prob, n) for n in (1.0, 1.25, 4.0)]
    prefixes = []
    run = srds.experiments.simulate

    def recording(problem, config, path, initial, **kwargs):
        prefixes.append(kwargs["prefix"])
        return run(problem, config, path, initial, **kwargs)

    monkeypatch.setattr(srds.experiments, "simulate", recording)
    trajs = run_members(prob, cfg, [Member(path, init, problem=levels[0], ball_test=False),
                                    Member(path, init, problem=levels[1]),
                                    Member(path, init, problem=levels[2], fork=1)])
    assert prefixes[:2] == [None, None]
    assert len(prefixes[2].sup_norms) - 1 == 6
    assert [exit_index(t, lv.level).step_index for t, lv in zip(trajs, levels)][:2] == [4, 7]
    refs = [simulate(levels[0], cfg, path, init, ball_test=False),
            simulate(levels[1], cfg, path, init), simulate(levels[2], cfg, path, init)]
    for traj, ref in zip(trajs, refs):
        _assert_same_run(traj, ref)


# --- residual refinement -----------------------------------------------------------


def test_residual_refinement_samples_one_path_per_study_path(monkeypatch):
    import srds.experiments

    sampled, simulated = [], []
    sample, run = srds.experiments.sample_path, srds.experiments.simulate

    def counting_sample(*args, **kwargs):
        sampled.append(sample(*args, **kwargs))
        return sampled[-1]

    def counting_simulate(problem, config, path, initial, **kwargs):
        simulated.append((config.dt, path))
        return run(problem, config, path, initial, **kwargs)

    monkeypatch.setattr(srds.experiments, "sample_path", counting_sample)
    monkeypatch.setattr(srds.experiments, "simulate", counting_simulate)
    prob = build_fhn_problem(g_name="lipschitz:1")
    cfg = SolverConfig(dt=1.0 / 32, t_end=0.125, store_stride=2)
    refinements = 2
    residual_refinement(prob, cfg, const_init(prob, 0.2, 0.2), master_seed=1,
                        n_paths=3, refinements=refinements)
    assert [p.path_index for p in sampled] == [0, 1, 2]
    assert all(p.n_fine == cfg.n_steps << refinements for p in sampled)
    assert all(p.dt_fine == cfg.dt / 2**refinements for p in sampled)
    assert [dt for dt, _ in simulated] == [cfg.dt, cfg.dt / 2, cfg.dt / 4] * 3
    assert [id(path) for _, path in simulated] == [id(p) for p in sampled for _ in range(3)]


def test_residual_refinement_orders_small():
    prob = build_fhn_problem()
    x = prob.grid.centers[:, 0]
    init = np.stack([0.2 + 0.1 * np.cos(np.pi * x),
                     0.2 + 0.05 * np.cos(2 * np.pi * x)])
    cfg = SolverConfig(dt=1.0 / 128, t_end=0.25, store_stride=1)
    det = residual_refinement(_zero_noise(prob), cfg, init, master_seed=1,
                              n_paths=1, refinements=2)
    assert np.all(np.abs(det - 0.5) <= 0.15)
    lip = residual_refinement(_with_named_g(prob, "lipschitz:1"), cfg, init,
                              master_seed=1, n_paths=8, refinements=1)
    assert np.all(np.abs(lip - 2.0**-0.5) <= 0.25)


def _power_config_problem():
    cfg = preset_fhn()
    cfg["noise"]["g"] = "power:0.5"
    return build_problem(cfg)[0]


@pytest.mark.parametrize("build", [
    lambda: _zero_noise(build_fhn_problem()),
    lambda: negative_control_problem(build_fhn_problem()),
    lambda: _with_named_g(build_fhn_problem(), "lipschitz:1"),
    _power_config_problem,
], ids=["zero-noise", "negative-control", "lipschitz-g", "power-config"])
def test_derived_problems_keep_one_table_and_one_amplitude_run(build, monkeypatch):
    audited = []
    audit = HolderFunction.audit
    monkeypatch.setattr(HolderFunction, "audit", lambda g: audited.append(g) or audit(g))
    prob = build()
    first, second = prob.noise.components
    assert first.mode_fields is second.mode_fields
    runs = _step_runs(prob, 1e-3)[1]
    assert [rows for _, rows in runs] == [slice(0, 2)]
    # one amplitude object, audited once; a derivation audits nothing
    assert first.g is second.g and len(audited) == 1


# --- report plumbing ----------------------------------------------------------------


def test_report_write_and_bytes_stable(tmp_path, small_positivity_report):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    small_positivity_report.write(d1)
    small_positivity_report.write(d2)
    for name in ("positivity_report.json", "positivity_minima.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
