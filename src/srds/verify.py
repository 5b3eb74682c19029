"""Named verification suites behind `verify <suite>`.

Each suite exercises one module's invariants on the configured problem and
returns an ExperimentReport whose verdict drives the process exit code.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import config_block
from .errors import AuditError
from .experiments import (ExperimentReport, _provenance, _zero_noise,
                          moment_experiment, positivity_experiment,
                          residual_refinement, uniqueness_experiment)
from .linalg import ShiftedSolve
from .mollifier import build_mollifier
from .noise import NoiseModel, named_g, osgood_check
from .operators import apply_resolvent, cosine_spectrum, smoothing_profile
from .reaction import check_quasi_positive, dissipativity_gap
from .rng import gaussian_entry, sample_path
from .solver import Problem, SolverConfig


# trials of the DCT-vs-LU cross-check; each builds a SuperLU factor
# (about 66 ms on a 128^2 grid)
SPECTRAL_LU_TRIALS = 5


def suite_operator(problem: Problem, config: SolverConfig, initial, params,
                   master_seed: int) -> ExperimentReport:
    report = ExperimentReport(name="operator", parameters=dict(params),
                              provenance=_provenance(problem, config, master_seed))
    trials = int(params.get("trials", 1000))
    rng = np.random.default_rng(master_seed)
    for idx, op in enumerate(problem.operators):
        tag = f"op{idx}"
        A = op.matrix
        scale = np.abs(A).max()
        sym = float(np.abs(A - A.T).max()) / scale
        report.add_check(f"{tag}-symmetry", sym <= 1e-12, f"defect {sym:.2e}")

        h2inv = max(1.0 / s**2 for s in op.grid.spacing)
        if np.all(op.coeffs.c == 0.0):
            kernel = float(np.max(np.abs(A @ np.ones(A.shape[0]))))
            report.add_check(f"{tag}-constant-kernel", kernel <= 1e-12 * h2inv,
                             f"||A 1||={kernel:.2e}")
        if op.grid.n_total <= 4096 and np.all(op.coeffs.c >= 0.0):
            top = float(op.dense_spectrum().max())
            report.add_check(f"{tag}-dissipative", top <= 1e-10 * h2inv,
                             f"max eig {top:.2e}")

        n = A.shape[0]
        contract_ok = True
        positive_ok = True
        for _ in range(trials):
            dt = float(rng.uniform(1e-4, 1.0))
            u = rng.uniform(-1.0, 1.0, size=n)
            # one uncached solver per trial: the operator's cache would keep
            # every random dt's factor alive
            st = op.solver(dt)
            v = st.solve(u)
            if np.max(np.abs(v)) > np.max(np.abs(u)) * (1 + 1e-12):
                contract_ok = False
                break
            w = st.solve(np.abs(u))
            if w.min() < -1e-13:
                positive_ok = False
                break
        report.add_check(f"{tag}-sup-contraction", contract_ok, f"{trials} trials")
        report.add_check(f"{tag}-positivity", positive_ok, f"{trials} trials")

        if cosine_spectrum(op.grid, op.coeffs) is not None:
            gap = 0.0
            for _ in range(SPECTRAL_LU_TRIALS):
                dt = float(rng.uniform(1e-4, 1.0))
                u = rng.uniform(-1.0, 1.0, size=n)
                diff = op.solver(dt).solve(u) - ShiftedSolve(A, dt).solve(u)
                gap = max(gap, float(np.max(np.abs(diff)) / np.max(np.abs(u))))
            report.add_check(f"{tag}-spectral-matches-lu", gap <= 1e-12,
                             f"{SPECTRAL_LU_TRIALS} trials, max gap {gap:.2e} x max|u|")

        prof = smoothing_profile(op)
        report.add_check(f"{tag}-smoothing-bounded", prof["bounded"],
                         f"max scaled sup {prof['scaled_sup'].max():.3g}")

        x = op.grid.centers[:, 0]
        f = np.cos(np.pi * x / op.grid.extents[0])
        errs = [float(np.max(np.abs(apply_resolvent(op, lam, f) - f)))
                for lam in (10.0, 100.0, 1000.0)]
        report.add_check(f"{tag}-resolvent-convergence",
                         errs[0] > errs[1] > errs[2],
                         "errors " + ", ".join(f"{e:.2e}" for e in errs))
    return report


def suite_reaction(problem: Problem, config: SolverConfig, initial, params,
                   master_seed: int) -> ExperimentReport:
    sys = problem.reaction
    report = ExperimentReport(name="reaction", parameters=dict(params),
                              provenance=_provenance(problem, config, master_seed))
    rng = np.random.default_rng(master_seed + 1)
    radii = params.get("radii", (1.0, 10.0, 100.0))
    n_samples = int(params.get("samples", 10_000))

    lip_ok = True
    for m in radii:
        s = rng.uniform(-m, m, size=(sys.r, n_samples))
        t = rng.uniform(-m, m, size=(sys.r, n_samples))
        for k in sys.couplings:
            lhs = np.abs(k(s) - k(t))
            rhs = k.lipschitz(m) * np.sum(np.abs(s - t), axis=0)
            if np.any(lhs > rhs + 1e-9):
                lip_ok = False
    report.add_check("coupling-lipschitz", lip_ok, f"radii {tuple(radii)}")

    margin_min = np.inf
    n_fields = int(params.get("dissipativity_trials", 300))
    n_cells = problem.grid.n_total
    for m in radii:
        for _ in range(n_fields):
            u = rng.uniform(-m, m, size=n_cells)
            v = rng.uniform(-m, m, size=n_cells)
            if np.all(u == 0.0):
                continue
            for l in range(sys.r):
                margin_min = min(margin_min,
                                 dissipativity_gap(sys, l, u, v, mode=1),
                                 dissipativity_gap(sys, l, u, v, mode=2))
    report.add_check("dissipativity-margins", margin_min >= -1e-9,
                     f"min margin {margin_min:.3e}")

    qp = check_quasi_positive(sys, grid_samples=n_samples, range_m=max(radii[0], 1.0),
                              seed=master_seed + 2)
    expect_qp = bool(params.get("quasi_positive", True))
    report.add_check("quasi-positivity", qp.passed == expect_qp,
                     f"audit margin {qp.audit_margin_min:.3e}" if qp.passed
                     else f"witness {qp.witness}")
    return report


def suite_noise(problem: Problem, config: SolverConfig, initial, params,
                master_seed: int) -> ExperimentReport:
    report = ExperimentReport(name="noise", parameters=dict(params),
                              provenance=_provenance(problem, config, master_seed))
    for idx, comp in enumerate(problem.noise.components):
        tag = f"comp{idx}"
        defect = comp.basis.orthonormality_defect()
        report.add_check(f"{tag}-orthonormality", defect <= 1e-8,
                         f"defect {defect:.2e}")
        try:
            comp.g.audit()
            report.add_check(f"{tag}-amplitude-audit", True, comp.g.name)
        except AuditError as exc:
            report.add_check(f"{tag}-amplitude-audit", False, str(exc))
        if not comp.is_zero():
            table = osgood_check(comp.rho(1.0), eps_grid=10.0 ** -np.arange(1, 7))
            report.add_check(f"{tag}-osgood-diverges",
                             table["verdict"] == "diverges",
                             f"I(1e-6)={table['integral'][-1]:.4g}")

    path = sample_path(master_seed, problem.r, problem.noise.modes, 64,
                       config.dt)
    entry = gaussian_entry(master_seed, 0, 0, 0, 5, config.dt)
    report.add_check("counter-determinism",
                     entry == path.increments[0, 0, 5],
                     "regenerated entry matches the sampled array")
    coarse = path.coarse(1)
    manual = path.increments[:, :, 0::2] + path.increments[:, :, 1::2]
    report.add_check("coarsening-consistency", np.array_equal(coarse, manual))
    return report


def suite_mollifier(problem: Problem, config: SolverConfig, initial, params,
                    master_seed: int) -> ExperimentReport:
    report = ExperimentReport(name="mollifier", parameters=dict(params),
                              provenance=_provenance(problem, config, master_seed))
    n_max = int(params.get("n_max", 5))
    if "C" in params:
        constants = [float(params["C"])]
    else:
        seen = []
        for comp in problem.noise.components:
            if not comp.is_zero():
                c = comp.rho(1.0).adjusted().constant
                if c not in seen:
                    seen.append(c)
        constants = seen or [1.0]
    probe = np.linspace(-2.0, 2.0, int(params.get("probe_points", 10_001)))
    for C in constants:
        rho = lambda s, C=C: C * np.asarray(s, dtype=float)
        fam = build_mollifier(rho, n_max)
        n_idx = np.arange(n_max + 1)
        analytic = np.exp(-C * n_idx * (n_idx + 1) / 2.0)
        rel = float(np.max(np.abs(fam.a_seq - analytic) / analytic))
        report.add_check(f"C={C:g}-a-sequence", rel <= 1e-8, f"rel err {rel:.2e}")
        psi_ok = all(abs(fam.psi_integral(n) - 1.0) <= 1e-8
                     for n in range(1, n_max + 1))
        report.add_check(f"C={C:g}-psi-normalized", psi_ok)
        sandwich_ok = True
        for n in range(1, n_max + 1):
            phi = fam.phi(n, probe)
            lower = np.abs(probe) - fam.a_seq[n - 1]
            if np.any(phi > np.abs(probe) + 1e-12) or np.any(phi < lower - 1e-12):
                sandwich_ok = False
        report.add_check(f"C={C:g}-phi-sandwich", sandwich_ok,
                         f"{probe.size}-point probe")
    return report


def _with_named_g(problem: Problem, name: str) -> Problem:
    noise = NoiseModel(tuple(replace(c, g=named_g(name))
                             for c in problem.noise.components))
    return replace(problem, noise=noise)


def suite_residual(problem: Problem, config: SolverConfig, initial, params,
                   master_seed: int) -> ExperimentReport:
    report = ExperimentReport(name="residual", parameters=dict(params),
                              provenance=_provenance(problem, config, master_seed))
    t_end = float(params.get("t_end", 0.25))
    dt = float(params.get("dt", 1.0 / 256))
    n_paths = int(params.get("n_paths", 32))
    cfg = SolverConfig(dt=dt, t_end=t_end, store_stride=1)

    det = residual_refinement(_zero_noise(problem), cfg, initial,
                              master_seed=master_seed, n_paths=1, refinements=2)
    det_ok = bool(np.all(np.abs(det["ratios_per_level"] - 0.5) <= 0.15))
    report.add_check("deterministic-ratio", det_ok,
                     "ratios " + ", ".join(f"{r:.3f}" for r in det["ratios_per_level"]))

    lip = residual_refinement(_with_named_g(problem, "lipschitz:1"), cfg, initial,
                              master_seed=master_seed, n_paths=n_paths,
                              refinements=2)
    target = 2.0 ** -0.5
    lip_ok = bool(np.all(np.abs(lip["ratios_per_level"] - target) <= 0.2))
    report.add_check("lipschitz-noise-ratio", lip_ok,
                     "ratios " + ", ".join(f"{r:.3f}" for r in lip["ratios_per_level"]))
    report.aggregates["deterministic_ratios"] = [float(r) for r in det["ratios_per_level"]]
    report.aggregates["lipschitz_ratios"] = [float(r) for r in lip["ratios_per_level"]]
    return report


def suite_uniqueness(problem: Problem, config: SolverConfig, initial, params,
                     master_seed: int) -> ExperimentReport:
    return uniqueness_experiment(
        problem, config, initial, master_seed=master_seed,
        n_paths=int(params.get("n_paths", 64)),
        eps_list=params.get("eps_list", (1e-1, 1e-2, 1e-3)),
        slack=float(params.get("slack", 0.1)),
        cauchy_paths=int(params.get("cauchy_paths", 32)),
        cauchy_refinements=int(params.get("cauchy_refinements", 3)))


def suite_positivity(problem: Problem, config: SolverConfig, initial, params,
                     master_seed: int) -> ExperimentReport:
    return positivity_experiment(
        problem, config, initial, master_seed=master_seed,
        n_paths=int(params.get("n_paths", 64)),
        c_tol=params.get("c_tol"),
        dt_halving=bool(params.get("dt_halving", True)),
        run_control=bool(params.get("control", True)))


def suite_moments(problem: Problem, config: SolverConfig, initial, params,
                  master_seed: int) -> ExperimentReport:
    return moment_experiment(
        problem, config, float(params.get("p", 4.0)),
        params.get("levels", (4.0, 8.0, 16.0, 32.0)),
        int(params.get("n_paths", 32)), initial, master_seed=master_seed)


# suite name -> suite; `verify <suite>` takes its choices from the keys
SUITES = {
    "operator": suite_operator, "reaction": suite_reaction,
    "noise": suite_noise, "mollifier": suite_mollifier,
    "uniqueness": suite_uniqueness, "positivity": suite_positivity,
    "moments": suite_moments, "residual": suite_residual,
}


def run_suite(name: str, problem: Problem, config: SolverConfig,
              initial: np.ndarray, params: dict, master_seed: int) -> ExperimentReport:
    if name not in SUITES:
        raise AuditError("suite", f"unknown suite {name!r}")
    params = dict(params)
    params.pop("name", None)
    with config_block("experiment"):
        return SUITES[name](problem, config, initial, params, master_seed)
