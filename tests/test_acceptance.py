"""End-to-end acceptance battery.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
to see them.  Scales are the real ones (ensembles of 32-64 paths), so this
module dominates the suite's runtime.
"""

import json

import numpy as np
import pytest

import srds
from srds import (PowerModulus, SolverConfig, build_mollifier, est2_bound_check,
                  glue_ladder, moment_experiment, osgood_check,
                  positivity_experiment, sample_path, simulate,
                  uniqueness_experiment)
from srds.cli import main
from srds.experiments import residual_refinement
from srds.verify import _with_named_g, _zero_noise

from conftest import build_fhn_problem, build_scalar_heat_problem, const_init


def criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {status}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {name} {detail}"


# ---------------------------------------------------------------------------
# 1. operator correctness


def test_criterion_1_operator():
    n = 64
    grid = srds.build_grid(1, [1.0], [n])
    op = srds.EllipticOperator(grid, srds.CoefficientField.constant(grid, a=1.0))
    ev = np.sort(op.dense_spectrum())
    k = np.arange(n)
    expected = np.sort(-(2.0 * n**2) * (1.0 - np.cos(k * np.pi / n)))
    rel = float(np.max(np.abs(ev - expected) / np.maximum(np.abs(expected), 1.0)))
    ok = rel <= 1e-10

    ones = np.ones(n)
    ok &= float(np.max(np.abs(op.matrix @ ones))) <= 1e-12 * n**2
    A = op.matrix
    ok &= float(np.abs(A - A.T).max()) <= 1e-12 * float(np.abs(A).max())

    rng = np.random.default_rng(101)
    contraction = positivity = True
    for _ in range(1000):
        dt = float(rng.uniform(1e-4, 1.0))
        u = rng.uniform(-1.0, 1.0, size=n)
        v = op.stepper(dt).solve(u)
        contraction &= bool(np.max(np.abs(v)) <= np.max(np.abs(u)) * (1 + 1e-12))
        positivity &= bool(op.stepper(dt).solve(np.abs(u)).min() >= -1e-13)
    ok &= contraction and positivity
    criterion(1, "operator spectrum/kernel/symmetry/M-matrix", ok,
              f"(spectrum rel err {rel:.2e}, 1000 trials)")


# ---------------------------------------------------------------------------
# 2. mollifier oracle


def test_criterion_2_mollifier():
    probe = np.linspace(-2.0, 2.0, 10_001)
    ok = True
    worst = 0.0
    for C in (0.5, 1.0, 2.0):
        fam = build_mollifier(PowerModulus(C), 5)
        idx = np.arange(6)
        analytic = np.exp(-C * idx * (idx + 1) / 2.0)
        rel = float(np.max(np.abs(fam.a_seq - analytic) / analytic))
        worst = max(worst, rel)
        ok &= rel <= 1e-8
        for lev in range(1, 6):
            phi = fam.phi(lev, probe)
            ok &= bool(np.all(phi <= np.abs(probe) + 1e-12))
            ok &= bool(np.all(phi >= np.abs(probe) - fam.a_seq[lev - 1] - 1e-12))
    criterion(2, "mollifier levels + phi sandwich", ok,
              f"(worst a_n rel err {worst:.2e})")


# ---------------------------------------------------------------------------
# 3. Osgood verdicts


def test_criterion_3_osgood():
    eps = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    cases = [
        (lambda s: np.asarray(s, dtype=float), "diverges"),
        (lambda s: np.asarray(s, dtype=float) ** 1.5, "diverges"),
        (lambda s: np.asarray(s, dtype=float) ** 2, "diverges"),
        (lambda s: np.ones_like(np.asarray(s, dtype=float)), "converges"),
        (lambda s: np.sqrt(np.asarray(s, dtype=float)), "converges"),
    ]
    ok = all(osgood_check(rho, eps)["verdict"] == truth for rho, truth in cases)
    table = osgood_check(cases[0][0], eps)
    log_err = abs(table["integral"][-1] - np.log(1e6)) / np.log(1e6)
    ok &= log_err <= 1e-3
    criterion(3, "Osgood verdicts on 5 canonical moduli", ok,
              f"(I(1e-6) rel err {log_err:.2e})")


# ---------------------------------------------------------------------------
# 4. deterministic convergence


def test_criterion_4_deterministic_convergence():
    prob = _zero_noise(build_fhn_problem(scale=0.0))
    x = prob.grid.centers[:, 0]
    init = np.stack([0.2 + 0.2 * np.cos(np.pi * x),
                     0.1 + 0.1 * np.cos(2 * np.pi * x)])
    path = sample_path(0, 2, 8, round(0.5 * 512), 1.0 / 512)
    finals = []
    for j in range(4):
        cfg = SolverConfig(dt=(1.0 / 64) / (1 << j), t_end=0.5,
                           store_stride=1 << 20)
        finals.append(simulate(prob, cfg, path, init).final)
    gaps = [float(np.max(np.abs(a - b))) for a, b in zip(finals, finals[1:])]
    orders = [float(np.log2(g1 / g2)) for g1, g2 in zip(gaps, gaps[1:])]
    ok = all(abs(o - 1.0) <= 0.3 for o in orders)

    heat = build_scalar_heat_problem(n=64)
    u0 = np.cos(np.pi * heat.grid.centers[:, 0])[None, :]
    dt = 1.0 / 2048
    cfg = SolverConfig(dt=dt, t_end=0.5, store_stride=2048)
    traj = simulate(heat, cfg, sample_path(0, 1, 4, 1024, dt), u0)
    mu1 = 2.0 * 64**2 * (1.0 - np.cos(np.pi / 64))
    rel = abs(traj.sup_norms[-1][0] - np.exp(-mu1 * 0.5)) / np.exp(-mu1 * 0.5)
    ok &= rel <= 0.02
    criterion(4, "first-order self-convergence + eigenvalue decay", ok,
              f"(orders {[round(o, 3) for o in orders]}, heat decay err {rel:.2%})")


# ---------------------------------------------------------------------------
# 5. pathwise-uniqueness proxies


@pytest.fixture(scope="module")
def uniqueness_report():
    prob = build_fhn_problem(g_name="sqrt-abs", scale=0.1)
    cfg = SolverConfig(dt=1.0 / 512, t_end=0.25, sup_cap=8.0, store_stride=8)
    return uniqueness_experiment(prob, cfg, const_init(prob, 0.2, 0.2),
                                 n_paths=64, eps_list=(1e-1, 1e-2, 1e-3),
                                 master_seed=11, slack=0.1, cauchy_paths=32,
                                 cauchy_refinements=3)


def test_criterion_5a_twin_bitwise(uniqueness_report):
    check = next(c for c in uniqueness_report.checks
                 if c["name"] == "twin-bitwise-identity")
    criterion("5a", "zero-perturbation twins bitwise identical", check["passed"],
              f"({check['detail']})")


def test_criterion_5b_refinement_cauchy(uniqueness_report):
    check = next(c for c in uniqueness_report.checks
                 if c["name"] == "refinement-cauchy")
    criterion("5b", "common-path dt-refinement Cauchy on >= 90% of paths",
              check["passed"], f"({check['detail']})")


def test_criterion_5c_gronwall_envelope(uniqueness_report):
    env = next(c for c in uniqueness_report.checks
               if c["name"] == "gronwall-envelope")
    mono = next(c for c in uniqueness_report.checks
                if c["name"] == "gap-monotone-in-eps")
    criterion("5c", "Gronwall envelope + monotone eps decay",
              env["passed"] and mono["passed"], f"({mono['detail']})")


# ---------------------------------------------------------------------------
# 6. positivity


def test_criterion_6_positivity():
    prob = build_fhn_problem(g_name="sqrt-pos", scale=1.0)
    cfg = SolverConfig(dt=1e-3, t_end=1.0, sup_cap=8.0)
    rep = positivity_experiment(prob, cfg, const_init(prob, 0.2, 0.2),
                                n_paths=64, master_seed=42)
    gmin = rep.aggregates["global_min"]
    ok = rep.verdict and gmin >= -1e-2
    ok &= rep.aggregates["control_min"] < -1e-2
    criterion(6, "positivity preserved, dt-monotone, control trips", ok,
              f"(global min {gmin:.2e}, control {rep.aggregates['control_min']:.2e})")


# ---------------------------------------------------------------------------
# 7. moment bound


def test_criterion_7_moments():
    prob = build_fhn_problem(g_name="sqrt-abs", scale=0.5)
    cfg = SolverConfig(dt=2e-3, t_end=0.5)
    # from level 2 the ladder is exercised: 5 of 32 paths leave the smallest
    # level, so the bitwise-core check compares 27 paths, not all of them
    rep = moment_experiment(prob, cfg, const_init(prob, 0.5, 0.5), 4.0,
                            [2.0, 4.0, 8.0, 16.0], 32, master_seed=21)
    m = rep.aggregates["m_n"]
    top_gap = abs(m["8.0"] - m["16.0"]) / m["16.0"]
    exits = rep.aggregates["exit_fractions"]
    core = rep.aggregates["never_exit_smallest"]
    ok = rep.verdict and top_gap <= 0.05 and exits["2.0"] == 5 / 32 and core == 27
    criterion(7, "p=4 moments stabilize along the truncation ladder", ok,
              f"(m_n {[round(m[k], 4) for k in ('2.0', '4.0', '8.0', '16.0')]}, "
              f"exit fraction {exits['2.0']} at level 2, core {core}/32 bitwise)")


# ---------------------------------------------------------------------------
# 8. truncation / gluing


def test_criterion_8_truncation_gluing():
    prob = build_fhn_problem(g_name="sqrt-abs", scale=1.0)
    cfg = SolverConfig(dt=1e-3, t_end=0.25, store_stride=1)
    init = const_init(prob, 0.5, 0.5)
    mono = 0
    for p in range(32):
        path = sample_path(33, 2, 8, 250, 1e-3, path_index=p)
        # raises ladder-inconsistency unless the levels agree bitwise up to
        # min(rho_n, rho_n+1)
        glued, exits = glue_ladder(prob, cfg, path, init, [1.0, 2.0, 4.0, 8.0])
        steps = [e.step_index for e in exits]
        mono += steps == sorted(steps)
    ok = mono == 32
    criterion(8, "ladder bitwise-consistent, rho_n nondecreasing", ok,
              f"(monotone on {mono}/32 paths)")


# ---------------------------------------------------------------------------
# 9. mild residual


def test_criterion_9_mild_residual():
    prob = build_fhn_problem()
    x = prob.grid.centers[:, 0]
    init = np.stack([0.2 + 0.1 * np.cos(np.pi * x),
                     0.2 + 0.05 * np.cos(2 * np.pi * x)])
    cfg = SolverConfig(dt=1.0 / 256, t_end=0.25, store_stride=1)
    det = residual_refinement(_zero_noise(prob), cfg, init, master_seed=3,
                              n_paths=1, refinements=2)
    det_ok = bool(np.all(np.abs(det - 0.5) <= 0.15))
    lip = residual_refinement(_with_named_g(prob, "lipschitz:1"), cfg, init,
                              master_seed=3, n_paths=32, refinements=2)
    lip_ok = bool(np.all(np.abs(lip - 2.0**-0.5) <= 0.2))
    criterion(9, "mild-residual refinement ratios", det_ok and lip_ok,
              f"(det {np.round(det, 3)}, noise {np.round(lip, 3)})")


# ---------------------------------------------------------------------------
# 10. deterministic drift fixed-point bound


def test_criterion_10_est2_bound():
    prob = build_fhn_problem()
    rng = np.random.default_rng(77)
    n = prob.grid.n_total
    margins = []
    for _ in range(20):
        profile = rng.uniform(-4.0, 4.0, size=n)
        wobble = 1.0 + 0.5 * np.cos(np.linspace(0, np.pi, 201))
        v = wobble[:, None] * profile[None, :]
        out = est2_bound_check(prob.reaction, 0, prob.operators[0], v, dt=5e-3)
        margins.append(out["margin"])
    ok = all(m > 0 for m in margins)
    criterion(10, "fixed-point norm below (4a/b)^(1/(2N+1))(1+||v||)", ok,
              f"(min margin {min(margins):.3f} over 20 forcings)")


# ---------------------------------------------------------------------------
# 11. reproducibility


def test_criterion_11_reproducibility(tmp_path, monkeypatch):
    from srds.config import preset_fhn

    monkeypatch.setenv("SRDS_OUT", str(tmp_path / "out"))
    cfg = preset_fhn(42)
    cfg["solver"].update({"dt": 1e-3, "t_end": 0.05})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    assert main(["simulate", "--config", str(cfg_path)]) == 0
    root = tmp_path / "out"
    first = {str(p.relative_to(root)): p.read_bytes()
             for p in sorted(root.rglob("*")) if p.is_file()}
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    second = {str(p.relative_to(root)): p.read_bytes()
              for p in sorted(root.rglob("*")) if p.is_file()}
    sim_ok = first == second

    assert main(["ensemble", "--config", str(cfg_path), "--paths", "8",
                 "--workers", "1", "--out", str(tmp_path / "e1")]) == 0
    assert main(["ensemble", "--config", str(cfg_path), "--paths", "8",
                 "--workers", "4", "--out", str(tmp_path / "e4")]) == 0
    a = sorted((tmp_path / "e1").rglob("aggregate.csv"))[0].read_bytes()
    b = sorted((tmp_path / "e4").rglob("aggregate.csv"))[0].read_bytes()
    ens_ok = a == b
    criterion(11, "byte-identical reruns + worker-count invariance",
              sim_ok and ens_ok)
