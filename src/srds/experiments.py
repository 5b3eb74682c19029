"""Well-posedness experiments: uniqueness proxies, positivity, moment bounds.

These check discrete consequences of the analysis on ensembles of paths:
twin runs on identical noise, perturbation decay with a Gronwall envelope,
common-path refinement (the Cauchy face of pathwise uniqueness), sign
preservation for quasi-positive systems with g(0) = 0, and stabilization of
p-th moments along the truncation ladder.  All verdicts compare 95% upper
confidence bounds of ensemble means against their envelopes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._version import __version__ as _version
from .errors import AuditError, SolverFailure
from .reaction import ReactionSystem, check_quasi_positive, coupling_linear, coupling_none
from .noise import NoiseModel
from .rng import sample_path
from .solver import (Problem, SolverConfig, Trajectory, mild_residual,
                     simulate, truncate_problem)

Z95 = 1.959963984540054


def mean_upper_ci(values: np.ndarray) -> tuple[float, float]:
    """Ensemble mean and its 95% normal upper confidence bound."""
    values = np.asarray(values, dtype=float)
    m = float(values.mean())
    if values.size < 2:
        return m, m
    sem = float(values.std(ddof=1) / np.sqrt(values.size))
    return m, m + Z95 * sem


@dataclass
class ExperimentReport:
    """Verdicted experiment summary, reproducible from (config, master seed)."""

    name: str
    parameters: dict
    checks: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)  # name -> (headers, rows)
    provenance: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def add_check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": "pass" if self.verdict else "fail",
            "parameters": self.parameters,
            "checks": self.checks,
            "aggregates": self.aggregates,
            "provenance": self.provenance,
        }

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{self.name}_report.json", "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=1)
        for tname, (headers, rows) in self.tables.items():
            with open(out / f"{self.name}_{tname}.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(headers)
                for row in rows:
                    w.writerow([repr(v) if isinstance(v, float) else v for v in row])

    def print_summary(self) -> None:
        for c in self.checks:
            mark = "PASS" if c["passed"] else "FAIL"
            line = f"[{mark}] {self.name}: {c['name']}"
            if c["detail"]:
                line += f" ({c['detail']})"
            print(line)


def _provenance(problem: Problem, config: SolverConfig, master_seed: int) -> dict:
    return {
        "problem_digest": problem.digest(),
        "solver_config": config.descriptor(),
        "master_seed": master_seed,
        "tool_version": _version,
    }


def _make_path(problem: Problem, master_seed: int, path_index: int,
               n_fine: int, dt_fine: float):
    return sample_path(master_seed, problem.r, problem.noise.modes, n_fine,
                       dt_fine, path_index=path_index)


def _l1_gap(a: Trajectory, b: Trajectory, cell_volume: float) -> np.ndarray:
    """D(t_i) = sum_l int |u^1_l - u^2_l| dx at the common stored times."""
    n = min(len(a.times), len(b.times))
    diff = np.abs(a.states[:n] - b.states[:n])
    return diff.sum(axis=(1, 2)) * cell_volume


# ---------------------------------------------------------------------------
# pathwise-uniqueness proxies


CAUCHY_OFFSET = 1 << 20


def uniqueness_experiment(problem: Problem, config: SolverConfig,
                          initial: np.ndarray, n_paths: int = 64,
                          eps_list=(1e-1, 1e-2, 1e-3), master_seed: int = 0,
                          slack: float = 0.1, bitwise_paths: int = 8,
                          cauchy_paths: int = 32, cauchy_refinements: int = 3,
                          cauchy_dt: float | None = None) -> ExperimentReport:
    """Twin-run perturbation study against the Gronwall envelope.

    For each path and epsilon, the same Wiener path drives two runs started
    at xi and xi + eps*1.  Verdicts: (i) eps = 0 twins are bitwise equal;
    (ii) the ensemble-mean terminal gap decreases monotonically in eps;
    (iii) mean D_eps(t) stays below D_eps(0) exp(r L_m t) (1 + slack) up to
    the first cap exit; (iv) on a common path, dt-refined trajectories are
    Cauchy at t_end.  More than half the base runs leaving the cap raise
    SolverFailure.
    """
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    cap = config.sup_cap if config.sup_cap is not None else 8.0
    run_cfg = replace(config, sup_cap=cap)
    m_radius = cap
    L_m = problem.reaction.coupling_lipschitz(m_radius)
    rate = problem.r * L_m
    cell_vol = problem.grid.cell_volume
    n_steps = run_cfg.n_steps

    report = ExperimentReport(
        name="uniqueness",
        parameters={"n_paths": n_paths, "eps_list": eps_list, "slack": slack,
                    "cap_radius": m_radius, "coupling_lipschitz": L_m,
                    "gronwall_rate": rate, "cauchy_paths": cauchy_paths,
                    "cauchy_refinements": cauchy_refinements},
        provenance=_provenance(problem, config, master_seed),
    )

    # (i) zero-perturbation twins on the first bitwise_paths paths, (ii)+(iii)
    # perturbation decay and envelope, all on common random numbers
    gap_series: dict[float, list[np.ndarray]] = {e: [] for e in eps_list}
    stored_times = None
    exits = 0
    bitwise_ok = True
    for p in range(n_paths):
        path = _make_path(problem, master_seed, p, n_steps, run_cfg.dt)
        base = simulate(problem, run_cfg, path, initial)
        if p < bitwise_paths:
            twin = simulate(problem, run_cfg, path, initial)
            bitwise_ok &= (np.array_equal(base.states, twin.states)
                           and np.array_equal(base.sup_norms, twin.sup_norms))
        if base.stopping.triggered:
            exits += 1
        if stored_times is None or len(base.times) > len(stored_times):
            stored_times = base.times
        for e in eps_list:
            pert = simulate(problem, run_cfg, path, initial + e)
            gap_series[e].append(_l1_gap(base, pert, cell_vol))
    if exits > 0.5 * n_paths:
        raise SolverFailure("excessive-cap-exits",
                            f"{exits}/{n_paths} paths left the cap radius")
    report.add_check("twin-bitwise-identity", bitwise_ok,
                     f"{min(bitwise_paths, n_paths)} paths")
    report.aggregates["cap_exit_fraction"] = exits / n_paths

    envelope_ok = True
    envelope_rows = []
    terminal = {}
    for e in eps_list:
        n_common = min(len(g) for g in gap_series[e])
        gaps = np.stack([g[:n_common] for g in gap_series[e]])  # (paths, times)
        d0 = float(e * problem.r * problem.grid.volume)
        times = stored_times[:n_common]
        means = gaps.mean(axis=0)
        uppers = np.array([mean_upper_ci(gaps[:, i])[1] for i in range(n_common)])
        env = d0 * np.exp(rate * times) * (1.0 + slack)
        ok = bool(np.all(uppers <= env + 1e-300))
        envelope_ok = envelope_ok and ok
        terminal[e] = mean_upper_ci(gaps[:, -1])
        for t, mu, up, en in zip(times, means, uppers, env):
            envelope_rows.append([float(e), float(t), float(mu), float(up), float(en)])
    report.tables["gap_series"] = (
        ["eps", "time", "mean_gap", "upper95", "envelope"], envelope_rows)
    report.add_check("gronwall-envelope", envelope_ok,
                     f"rate r*L_m={rate:.4g}, slack {slack}")

    means_T = [terminal[e][0] for e in eps_list]
    mono = all(means_T[i + 1] <= means_T[i] * (1.0 + slack) for i in range(len(eps_list) - 1))
    vanishing = len(means_T) < 2 or means_T[-1] < means_T[0]
    report.add_check("gap-monotone-in-eps", bool(mono and vanishing),
                     "mean D(T) = " + ", ".join(f"{e:g}:{m:.3e}"
                                                for e, m in zip(eps_list, means_T)))
    report.aggregates["terminal_gap_means"] = {repr(e): terminal[e][0] for e in eps_list}

    # (iv) common-path dt-refinement Cauchy property.  The base step is
    # deliberately coarse: pathwise monotonicity of the gaps is only
    # observable while the systematic refinement error dominates the
    # per-path noise of the strong error.
    n_ref = cauchy_refinements
    dt0 = cauchy_dt if cauchy_dt is not None else max(run_cfg.dt, 1.0 / 16)
    base_steps = max(1, round(run_cfg.t_end / dt0))
    dt0 = run_cfg.t_end / base_steps
    fine_steps = base_steps * (1 << n_ref)
    dt_fine = dt0 / (1 << n_ref)
    mono_count = 0
    cauchy_rows = []
    for p in range(cauchy_paths):
        path = _make_path(problem, master_seed, CAUCHY_OFFSET + p, fine_steps, dt_fine)
        trajs = []
        for j in range(n_ref + 1):
            cfg_j = replace(run_cfg, dt=dt0 / (1 << j), sup_cap=None, store_stride=1)
            trajs.append(simulate(problem, cfg_j, path, initial))
        gaps = []
        for a, b in zip(trajs, trajs[1:]):
            coarse_on_fine = b.states[::2][:len(a.states)]
            gaps.append(float(np.max(np.abs(a.states - coarse_on_fine))))
        mono_path = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        mono_count += mono_path
        cauchy_rows.append([p] + [float(g) for g in gaps] + [int(mono_path)])
    frac = mono_count / cauchy_paths if cauchy_paths else 1.0
    report.tables["cauchy_gaps"] = (
        ["path"] + [f"gap_dt/{1 << j}" for j in range(n_ref)] + ["monotone"],
        cauchy_rows)
    report.add_check("refinement-cauchy", frac >= 0.9,
                     f"monotone on {mono_count}/{cauchy_paths} paths")
    report.aggregates["cauchy_monotone_fraction"] = frac
    return report


# ---------------------------------------------------------------------------
# positivity


def _zero_noise(problem: Problem) -> Problem:
    """The problem with every noise coefficient lambda_k set to zero."""
    noise = NoiseModel(tuple(replace(c, lambdas=np.zeros(c.modes))
                             for c in problem.noise.components))
    return replace(problem, noise=noise)


def check_positivity_preconditions(noise: NoiseModel, initial: np.ndarray,
                                   subject: str = "positivity") -> None:
    """Raise AuditError unless every amplitude vanishes at zero and the
    initial fields are nonnegative; ``subject`` names the caller in the
    negative-initial message."""
    for l, comp in enumerate(noise.components):
        g0 = float(comp.g(np.asarray([0.0]))[0])
        if g0 != 0.0:
            raise AuditError("g(0)!=0", f"component {l}: g(0) = {g0:.6g}")
    if np.any(initial < 0):
        raise AuditError("negative-initial", f"{subject} needs nonnegative initials")


def negative_control_problem(problem: Problem) -> Problem:
    """Same diffusion, reaction replaced by the non-quasi-positive
    f(u, v, ...) = (-u_2, 0, ..., 0), noise switched off."""
    r = problem.r
    if r < 2:
        raise ValueError("negative control needs at least two components")
    row = np.zeros(r)
    row[1] = -1.0
    couplings = [coupling_linear(row)] + [coupling_none(r) for _ in range(r - 1)]
    reaction = ReactionSystem([None] * r, couplings, audit=False)
    return replace(_zero_noise(problem), reaction=reaction)


def positivity_experiment(problem: Problem, config: SolverConfig,
                          initial: np.ndarray, n_paths: int = 64,
                          master_seed: int = 0, c_tol: float | None = None,
                          dt_halving: bool = True,
                          run_control: bool = True) -> ExperimentReport:
    """Sign preservation under quasi-positive reaction and g(0) = 0 noise.

    The recorded global minimum over components, cells and steps must stay
    above -c_tol*dt (the explicit noise increment can overshoot zero within
    one step, so the tolerance scales with dt).  Halving dt must not worsen
    the overshoot by more than a quarter of the tolerance, and a
    non-quasi-positive control must go genuinely
    negative for the verdict to have power.
    """
    qp = check_quasi_positive(problem.reaction, grid_samples=2000, range_m=5.0)
    if not qp.passed:
        raise AuditError("quasi-positivity", f"witness {qp.witness}")
    initial = np.asarray(initial, dtype=float)
    check_positivity_preconditions(problem.noise, initial)

    if c_tol is None:
        c_tol = 5.0 * max(c.g.growth_a + c.g.growth_b
                          for c in problem.noise.components)
    tol = c_tol * config.dt

    report = ExperimentReport(
        name="positivity",
        parameters={"n_paths": n_paths, "c_tol": c_tol, "tolerance": tol,
                    "dt": config.dt, "dt_halving": dt_halving},
        provenance=_provenance(problem, config, master_seed),
    )

    dt_fine = config.dt / 2.0
    n_fine = config.n_steps * 2
    cfg_coarse = replace(config, store_stride=max(1, config.n_steps))
    cfg_fine = replace(cfg_coarse, dt=dt_fine)
    min_coarse = np.empty(n_paths)
    min_fine = np.empty(n_paths)
    for p in range(n_paths):
        path = _make_path(problem, master_seed, p, n_fine, dt_fine)
        min_coarse[p] = simulate(problem, cfg_coarse, path, initial).min_values.min()
        if dt_halving:
            min_fine[p] = simulate(problem, cfg_fine, path, initial).min_values.min()
    global_min = float(min_coarse.min())
    report.aggregates["global_min"] = global_min
    report.add_check("minimum-above-tolerance", global_min >= -tol,
                     f"min {global_min:.3e} vs -{tol:.3e}")
    rows = [[p, float(min_coarse[p])] + ([float(min_fine[p])] if dt_halving else [])
            for p in range(n_paths)]
    report.tables["minima"] = (
        ["path", "min_dt"] + (["min_dt_half"] if dt_halving else []), rows)

    if dt_halving:
        over_c = max(0.0, -global_min)
        over_f = max(0.0, -float(min_fine.min()))
        report.aggregates["overshoot_dt"] = over_c
        report.aggregates["overshoot_dt_half"] = over_f
        report.add_check("overshoot-monotone-in-dt",
                         over_f <= over_c + 0.25 * tol,
                         f"{over_f:.3e} vs {over_c:.3e} + slack")

    if run_control:
        # canonical control initial (u, v) = (0, 1): u' ~ -v drives the first
        # component to about -t_end, decisively below the tolerance
        control = negative_control_problem(problem)
        ctrl_init = np.zeros_like(initial)
        ctrl_init[1] = 1.0
        path = _make_path(control, master_seed, 0, n_fine, dt_fine)
        ctrl_min = float(simulate(control, cfg_coarse, path, ctrl_init)
                         .min_values.min())
        report.aggregates["control_min"] = ctrl_min
        report.add_check("negative-control-trips", ctrl_min < -tol,
                         f"control min {ctrl_min:.3e}")
    return report


# ---------------------------------------------------------------------------
# moment bounds along the truncation ladder


def moment_experiment(problem: Problem, config: SolverConfig, p: float,
                      levels, n_paths: int, initial: np.ndarray,
                      master_seed: int = 0) -> ExperimentReport:
    """Estimate m_n = (E sup_t ||u^(n)||_E^p)^(1/p) across truncation levels.

    Levels share common paths, so on the sub-ensemble of paths that never
    leave the smallest level the per-path statistics must agree bitwise
    across all levels; m_n must stabilize over the top half of the levels,
    each within 5% of the top level's.
    """
    if not p > 2:
        raise ValueError("moment exponent must satisfy p > 2")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    levels = [float(n) for n in levels]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be increasing")
    run_cfg = replace(config, sup_cap=None, store_stride=max(1, config.n_steps))
    n_steps = run_cfg.n_steps

    report = ExperimentReport(
        name="moments",
        parameters={"p": p, "levels": levels, "n_paths": n_paths},
        provenance=_provenance(problem, config, master_seed),
    )

    sup_vals = np.empty((n_paths, len(levels)))
    exited = np.zeros((n_paths, len(levels)), dtype=bool)
    problems = [truncate_problem(problem, n) for n in levels]
    for ip in range(n_paths):
        path = _make_path(problem, master_seed, ip, n_steps, run_cfg.dt)
        for il, (n, prob_n) in enumerate(zip(levels, problems)):
            traj = simulate(prob_n, run_cfg, path, initial)
            e_norms = traj.e_norms()
            sup_vals[ip, il] = float(e_norms.max())
            exited[ip, il] = bool((e_norms > n).any())

    m_n = (np.mean(sup_vals**p, axis=0)) ** (1.0 / p)
    report.tables["moments"] = (
        ["level", "m_n", "exit_fraction"],
        [[lv, float(m), float(ex)] for lv, m, ex in
         zip(levels, m_n, exited.mean(axis=0))])
    report.aggregates["m_n"] = {repr(lv): float(m) for lv, m in zip(levels, m_n)}

    top_half = m_n[len(levels) // 2:]
    last = m_n[-1]
    stable = bool(np.all(np.abs(top_half - last) <= 0.05 * abs(last)))
    report.add_check("moment-stabilization", stable,
                     ", ".join(f"{lv:g}:{m:.4g}" for lv, m in zip(levels, m_n)))

    never_exit = ~exited[:, 0]
    if np.any(never_exit):
        rows = sup_vals[never_exit]
        bitwise = bool(np.all(rows == rows[:, :1]))
    else:
        bitwise = True
    report.aggregates["never_exit_smallest"] = int(never_exit.sum())
    report.add_check("common-path-bitwise-on-core", bitwise,
                     f"{int(never_exit.sum())}/{n_paths} paths never exit "
                     f"level {levels[0]:g}")
    report.aggregates["exit_fractions"] = {
        repr(lv): float(f) for lv, f in zip(levels, exited.mean(axis=0))}
    return report


# ---------------------------------------------------------------------------
# the deterministic sup-norm bound of the drift fixed point


def est2_bound_check(sys: ReactionSystem, component: int, operator,
                     forcing: np.ndarray, dt: float) -> dict:
    """Drive u(t) = int S(t-s) H(u(s)+v(s)) ds semi-implicitly from u(0)=0
    and compare sup_t ||u||_inf with (4a/b)^(1/(2N+1)) (1 + sup_t ||v||_inf)
    built from the certified sandwich constants (a2, b2)."""
    cert = sys.certificates[component]
    drift = sys.drifts[component]
    if drift is None or not cert.b2 > 0:
        raise ValueError("est2 bound needs a certified polynomial drift")
    forcing = np.asarray(forcing, dtype=float)
    if forcing.ndim != 2:
        raise ValueError("forcing must be a (n_times, n_cells) trajectory of fields")
    n_steps = forcing.shape[0] - 1
    stepper = operator.stepper(dt)
    u = np.zeros(forcing.shape[1])
    achieved = 0.0
    for i in range(n_steps):
        u = stepper.solve(u + dt * drift.evaluate(u + forcing[i]))
        if not np.all(np.isfinite(u)):
            raise SolverFailure("fixed-point-divergence", step=i + 1)
        achieved = max(achieved, float(np.max(np.abs(u))))
    q = cert.degree
    bound = (4.0 * cert.a2 / cert.b2) ** (1.0 / q) * (1.0 + float(np.max(np.abs(forcing))))
    return {"achieved": achieved, "bound": bound, "margin": bound - achieved,
            "a2": cert.a2, "b2": cert.b2, "degree": q}


# ---------------------------------------------------------------------------
# mild-residual refinement study


def residual_refinement(problem: Problem, config: SolverConfig,
                        initial: np.ndarray, master_seed: int = 0,
                        n_paths: int = 1, refinements: int = 2) -> dict:
    """Mild residuals at t_end for dt, dt/2, ..., with common paths.

    Returns per-level mean residuals and the mean ratio between consecutive
    levels (0.5 for the deterministic part, 2^-1/2 for Lipschitz noise).
    """
    n_steps = config.n_steps
    fine_factor = 1 << refinements
    dt_fine = config.dt / fine_factor
    residuals = np.empty((n_paths, refinements + 1))
    for p in range(n_paths):
        path = _make_path(problem, master_seed, p, n_steps * fine_factor, dt_fine)
        for j in range(refinements + 1):
            cfg = replace(config, dt=config.dt / (1 << j), sup_cap=None,
                          store_stride=1)
            traj = simulate(problem, cfg, path, initial)
            residuals[p, j] = mild_residual(problem, traj, path, [config.t_end])[0]
    # ratio of ensemble means: per-path residual magnitudes fluctuate like
    # |N(0, s)| so individual ratios are uninformative
    means = residuals.mean(axis=0)
    ratios = means[1:] / means[:-1]
    return {
        "residuals": residuals,
        "mean_residuals": means,
        "mean_ratio": float(ratios.mean()),
        "ratios_per_level": ratios,
    }
