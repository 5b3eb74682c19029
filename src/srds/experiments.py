"""Well-posedness experiments: uniqueness proxies, positivity, moment bounds.

These check discrete consequences of the analysis on ensembles of paths:
twin runs on identical noise, perturbation decay with a Gronwall envelope,
common-path refinement (the Cauchy face of pathwise uniqueness), sign
preservation for quasi-positive systems with g(0) = 0, and stabilization of
p-th moments along the truncation ladder.  All verdicts compare 95% upper
confidence bounds of ensemble means against their envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._version import __version__ as _version
from .config import check_positivity_preconditions
from .errors import AuditError, SolverFailure
from .reaction import ReactionSystem, check_quasi_positive, coupling_linear, coupling_none
from .noise import build_noise
from .readers import read_flag, read_integer, read_list, read_number
from .rng import WienerPath, sample_path
from .solver import (Problem, SolverConfig, StoppingRecord, Trajectory,
                     exit_index, mild_residual, simulate, truncate_problem,
                     write_csv, write_json)

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

    @classmethod
    def start(cls, name: str, problem: Problem, config: SolverConfig,
              master_seed: int, /, **parameters) -> "ExperimentReport":
        """An empty report ``name`` with ``parameters``, whose provenance
        (problem digest, solver config, master seed, tool version) every
        report shares: each one is built here."""
        return cls(name, parameters, provenance={
            "problem_digest": problem.digest(),
            "solver_config": config.descriptor(),
            "master_seed": master_seed,
            "tool_version": _version,
        })

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
        write_json(out / f"{self.name}_report.json", self.to_dict())
        for tname, (headers, rows) in self.tables.items():
            write_csv(out / f"{self.name}_{tname}.csv", headers, rows)

    def print_summary(self) -> None:
        for c in self.checks:
            mark = "PASS" if c["passed"] else "FAIL"
            line = f"[{mark}] {self.name}: {c['name']}"
            if c["detail"]:
                line += f" ({c['detail']})"
            print(line)


def _make_path(problem: Problem, config: SolverConfig, master_seed: int,
               path_index: int, refinements: int = 0) -> WienerPath:
    """The study path ``path_index`` at dt/2^refinements over the config's
    steps: it drives members of up to ``refinements`` halvings."""
    return sample_path(master_seed, problem.r, problem.noise.modes,
                       config.n_steps << refinements, config.dt / (1 << refinements),
                       path_index=path_index)


@dataclass(frozen=True)
class Member:
    """One run of ``run_members``: ``path`` drives it from ``initial`` at the
    runner's dt/2^``halvings``, on ``problem`` when that is not the
    runner's (a control, a truncation level), with ``simulate``'s
    ``ball_test``.  ``fork`` is the index of an earlier member, which this
    one resumes from at that member's exit (``exit_index``: the last step
    it reached if it is untruncated)."""

    path: WienerPath
    initial: np.ndarray
    halvings: int = 0
    problem: Problem | None = None
    ball_test: bool = True
    fork: int | None = None


def run_members(problem: Problem, config: SolverConfig,
                members: list[Member]) -> list[Trajectory]:
    """The trajectories of ``members``, in order: one ``simulate`` call per
    member, through this module's name, so patching
    srds.experiments.simulate sees every run.

    Every state of a run before its exit rho_n (``exit_index``) lies inside
    its ball, so inside each larger ball too: a member forked from it
    copies its norms, minima and stored states through its last stored
    step at or before rho_n (``simulate``'s ``prefix``; the last step it
    reached is always stored) and steps on from there, to the same bits as
    from step 0.
    """
    trajs = []
    for m in members:
        cfg = replace(config, dt=config.dt / (1 << m.halvings))
        prefix = None
        if m.fork is not None:
            src = trajs[m.fork]
            rho = exit_index(src, (members[m.fork].problem or problem).level).step_index
            last = len(src.sup_norms) - 1
            prefix = src.until(rho if rho == last else rho - rho % cfg.store_stride)
        trajs.append(simulate(m.problem or problem, cfg, m.path, m.initial,
                              ball_test=m.ball_test, prefix=prefix))
    return trajs


def _l1_gap(a: Trajectory, b: Trajectory, cell_volume: float) -> np.ndarray:
    """D(t_i) = sum_l int |u^1_l - u^2_l| dx at the common stored times."""
    n = min(len(a.times), len(b.times))
    diff = np.abs(a.states[:n] - b.states[:n])
    return diff.sum(axis=(1, 2)) * cell_volume


# ---------------------------------------------------------------------------
# pathwise-uniqueness proxies


CAUCHY_OFFSET = 1 << 20
# the eps = 0 twins run on the first BITWISE_PATHS paths
BITWISE_PATHS = 8


def uniqueness_experiment(problem: Problem, config: SolverConfig,
                          initial: np.ndarray, n_paths: int = 64,
                          eps_list=(1e-1, 1e-2, 1e-3), master_seed: int = 0,
                          slack: float = 0.1, cauchy_paths: int = 32,
                          cauchy_refinements: int = 3) -> ExperimentReport:
    """Twin-run perturbation study against the Gronwall envelope.

    For each path and epsilon, the same Wiener path drives two runs started
    at xi and xi + eps*1.  Verdicts: (i) eps = 0 twins are bitwise equal;
    (ii) the ensemble-mean terminal gap decreases monotonically in eps;
    (iii) mean D_eps(t) stays below D_eps(0) exp(r L_m t) (1 + slack) up to
    the first cap exit; (iv) on a common path, dt-refined trajectories are
    Cauchy at t_end.  More than half the base runs leaving the cap raise
    SolverFailure.
    """
    n_paths = read_integer("n_paths", n_paths, least=1)
    cauchy_paths = read_integer("cauchy_paths", cauchy_paths, least=1)
    cauchy_refinements = read_integer("cauchy_refinements", cauchy_refinements, least=0)
    eps_list = read_list("eps_list", eps_list, read_number, above=0)
    if not eps_list or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be nonempty and strictly decreasing")
    slack = read_number("slack", slack, least=0)
    cap = config.sup_cap if config.sup_cap is not None else 8.0
    run_cfg = replace(config, sup_cap=cap)
    L_m = problem.reaction.coupling_lipschitz(cap)
    rate = problem.r * L_m
    cell_vol = problem.grid.cell_volume

    report = ExperimentReport.start(
        "uniqueness", problem, config, master_seed, n_paths=n_paths, eps_list=eps_list,
        slack=slack, cap_radius=cap, coupling_lipschitz=L_m, gronwall_rate=rate,
        cauchy_paths=cauchy_paths, cauchy_refinements=cauchy_refinements)

    # (i) zero-perturbation twins on the first BITWISE_PATHS paths, (ii)+(iii)
    # perturbation decay and envelope, all on common random numbers
    gap_series: dict[float, list[np.ndarray]] = {e: [] for e in eps_list}
    stored_times = None
    exits = 0
    bitwise_ok = True
    for p in range(n_paths):
        path = _make_path(problem, run_cfg, master_seed, p)
        starts = [initial] * (1 + (p < BITWISE_PATHS)) + [initial + e for e in eps_list]
        base, *runs = run_members(problem, run_cfg, [Member(path, x) for x in starts])
        if p < BITWISE_PATHS:
            twin = runs.pop(0)
            bitwise_ok &= (np.array_equal(base.states, twin.states)
                           and np.array_equal(base.sup_norms, twin.sup_norms))
        exits += base.stopping.triggered
        if stored_times is None or len(base.times) > len(stored_times):
            stored_times = base.times
        for e, pert in zip(eps_list, runs):
            gap_series[e].append(_l1_gap(base, pert, cell_vol))
    if exits > 0.5 * n_paths:
        raise SolverFailure("excessive-cap-exits",
                            f"{exits}/{n_paths} paths left the cap radius")
    report.add_check("twin-bitwise-identity", bitwise_ok,
                     f"{min(BITWISE_PATHS, n_paths)} paths")
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
    vanishing = means_T[-1] < means_T[0]
    report.add_check("gap-monotone-in-eps", bool(mono and vanishing),
                     "mean D(T) = " + ", ".join(f"{e:g}:{m:.3e}"
                                                for e, m in zip(eps_list, means_T)))
    report.aggregates["terminal_gap_means"] = {repr(e): terminal[e][0] for e in eps_list}

    # (iv) common-path dt-refinement Cauchy property.  The base step is
    # deliberately coarse: pathwise monotonicity of the gaps is only
    # observable while the systematic refinement error dominates the
    # per-path noise of the strong error.
    base_steps = max(1, round(run_cfg.t_end / max(run_cfg.dt, 1.0 / 16)))
    cauchy_cfg = replace(run_cfg, dt=run_cfg.t_end / base_steps, sup_cap=None,
                         store_stride=1)
    mono_count = 0
    cauchy_rows = []
    for p in range(cauchy_paths):
        path = _make_path(problem, cauchy_cfg, master_seed, CAUCHY_OFFSET + p,
                          cauchy_refinements)
        trajs = run_members(problem, cauchy_cfg, [Member(path, initial, j)
                                                  for j in range(cauchy_refinements + 1)])
        gaps = []
        for a, b in zip(trajs, trajs[1:]):
            coarse_on_fine = b.states[::2][:len(a.states)]
            gaps.append(float(np.max(np.abs(a.states - coarse_on_fine))))
        # fewer than two gaps compare nothing: no evidence of monotonicity
        mono_path = len(gaps) >= 2 and all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        mono_count += mono_path
        cauchy_rows.append([p] + [float(g) for g in gaps] + [int(mono_path)])
    frac = mono_count / cauchy_paths
    report.tables["cauchy_gaps"] = (
        ["path"] + [f"gap_dt/{1 << j}" for j in range(cauchy_refinements)] + ["monotone"],
        cauchy_rows)
    report.add_check("refinement-cauchy", frac >= 0.9,
                     f"monotone on {mono_count}/{cauchy_paths} paths")
    report.aggregates["cauchy_monotone_fraction"] = frac
    return report


# ---------------------------------------------------------------------------
# positivity


def _zero_noise(problem: Problem) -> Problem:
    """The problem with every noise coefficient lambda_k set to zero; bases,
    amplitudes and shared mode tables are kept."""
    comps = problem.noise.components
    noise = build_noise([c.basis for c in comps], [np.zeros(c.modes) for c in comps],
                        [c.g for c in comps], audit=False)
    return replace(problem, noise=noise)


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
                          control: bool = True) -> ExperimentReport:
    """Sign preservation under quasi-positive reaction and g(0) = 0 noise.

    The recorded global minimum over components, cells and steps must stay
    above -c_tol*dt (the explicit noise increment can overshoot zero within
    one step, so the tolerance scales with dt).  Halving dt must not worsen
    the overshoot by more than a quarter of the tolerance, and a
    non-quasi-positive control must go genuinely
    negative for the verdict to have power.
    """
    n_paths = read_integer("n_paths", n_paths, least=1)
    control = read_flag("control", control)
    if c_tol is not None:
        c_tol = read_number("c_tol", c_tol, above=0)
    qp = check_quasi_positive(problem.reaction, grid_samples=2000, range_m=5.0)
    if not qp.passed:
        raise AuditError("quasi-positivity", f"witness {qp.witness}")
    initial = np.asarray(initial, dtype=float)
    check_positivity_preconditions(problem.noise, initial)

    if c_tol is None:
        c_tol = 5.0 * max(c.g.growth_a + c.g.growth_b
                          for c in problem.noise.components)
    tol = c_tol * config.dt

    report = ExperimentReport.start("positivity", problem, config, master_seed,
                                    n_paths=n_paths, c_tol=c_tol, tolerance=tol, dt=config.dt)

    run_cfg = replace(config, store_stride=max(1, config.n_steps))
    minima = np.empty((n_paths, 2))  # at dt and dt/2
    for p in range(n_paths):
        path = _make_path(problem, run_cfg, master_seed, p, refinements=1)
        minima[p] = [t.min_values.min() for t in run_members(
            problem, run_cfg, [Member(path, initial), Member(path, initial, 1)])]
    min_coarse, min_fine = minima.T
    global_min = float(min_coarse.min())
    report.aggregates["global_min"] = global_min
    report.add_check("minimum-above-tolerance", global_min >= -tol,
                     f"min {global_min:.3e} vs -{tol:.3e}")
    rows = [[p, float(min_coarse[p]), float(min_fine[p])] for p in range(n_paths)]
    report.tables["minima"] = (["path", "min_dt", "min_dt_half"], rows)

    over_c = max(0.0, -global_min)
    over_f = max(0.0, -float(min_fine.min()))
    report.aggregates["overshoot_dt"] = over_c
    report.aggregates["overshoot_dt_half"] = over_f
    report.add_check("overshoot-monotone-in-dt",
                     over_f <= over_c + 0.25 * tol,
                     f"{over_f:.3e} vs {over_c:.3e} + slack")

    if control:
        # canonical control initial (u, v) = (0, 1): u' ~ -v drives the first
        # component to about -t_end, decisively below the tolerance
        ctrl_problem = negative_control_problem(problem)
        ctrl_init = np.zeros_like(initial)
        ctrl_init[1] = 1.0
        path = _make_path(ctrl_problem, run_cfg, master_seed, 0, refinements=1)
        ctrl, = run_members(ctrl_problem, run_cfg, [Member(path, ctrl_init)])
        ctrl_min = float(ctrl.min_values.min())
        report.aggregates["control_min"] = ctrl_min
        report.add_check("negative-control-trips", ctrl_min < -tol,
                         f"control min {ctrl_min:.3e}")
    return report


# ---------------------------------------------------------------------------
# the truncation ladder and its moment bounds


def _ladder_levels(levels) -> list[float]:
    """The truncation levels as floats; raise ValueError unless they are a
    nonempty increasing list of finite levels >= 1."""
    levels = read_list("levels", levels, read_number, least=1)
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be a nonempty increasing list")
    return levels


def run_ladder(problem: Problem, config: SolverConfig, path: WienerPath,
               initial: np.ndarray, levels) -> tuple[list[Trajectory], list[StoppingRecord]]:
    """Simulate every truncation level on one path, without a sup cap, and
    return the per-level trajectories and exits rho_n (``exit_index``).

    The smallest level steps truncated at every step and the next one from
    step 0 untruncated inside its ball, so their comparison checks the
    truncation map against untruncated steps.  Each level above those two
    is a ``run_members`` member forked from the one below at its exit; one
    that never leaves its ball leaves nothing to step.  A one-level ladder
    steps as ``simulate`` does.

    Consecutive levels must agree bitwise, in sup norms and stored states,
    up to (and including) min(rho_n, rho_{n+1}); otherwise raise
    SolverFailure("ladder-inconsistency") naming the first differing step
    (-1: equal norms, different stored states).
    """
    levels = _ladder_levels(levels)
    trajs = run_members(problem, replace(config, sup_cap=None), [
        Member(path, initial, problem=truncate_problem(problem, n),
               ball_test=(i > 0 or len(levels) == 1), fork=(i - 1 if i > 1 else None))
        for i, n in enumerate(levels)])
    exits = [exit_index(traj, n) for traj, n in zip(trajs, levels)]

    for (na, ta, ea), (nb, tb, eb) in zip(zip(levels, trajs, exits),
                                          zip(levels[1:], trajs[1:], exits[1:])):
        cut = min(ea.step_index, eb.step_index)
        ta, tb = ta.until(cut), tb.until(cut)
        differs = np.nonzero(np.any(ta.sup_norms != tb.sup_norms, axis=1))[0]
        if differs.size or not np.array_equal(ta.states, tb.states):
            at = int(differs[0]) if differs.size else -1
            raise SolverFailure("ladder-inconsistency",
                                f"levels {na}/{nb} disagree at step {at}")
    return trajs, exits


def glue_ladder(problem: Problem, config: SolverConfig, path: WienerPath,
                initial: np.ndarray, levels) -> tuple[Trajectory, list[StoppingRecord]]:
    """Run the truncation ladder on one path (``run_ladder``) and glue along
    the exits: the glued maximal trajectory is the top level's, cut at its
    own exit, whose record it carries.  Returns it with the per-level
    exits rho_n.
    """
    trajs, exits = run_ladder(problem, config, path, initial, levels)
    glued = replace(trajs[-1].until(exits[-1].step_index), stopping=exits[-1])
    return glued, exits


def moment_experiment(problem: Problem, config: SolverConfig,
                      initial: np.ndarray, p: float = 4.0,
                      levels=(4.0, 8.0, 16.0, 32.0), n_paths: int = 32,
                      master_seed: int = 0) -> ExperimentReport:
    """Estimate m_n = (E sup_t ||u^(n)||_E^p)^(1/p) across truncation levels.

    The levels of each path run through ``run_ladder``, so a path's levels
    agree bitwise up to their exits, or SolverFailure("ladder-inconsistency")
    is raised.  Every m_n must be positive and finite (one that underflowed
    to 0 or overflowed is no evidence) and stabilize over the top half of
    the levels, each within 5% of the top level's, and at least one path (a
    core path) must never leave the smallest level: on it every level is
    bitwise the same run.
    """
    # at p = inf every m_n is 1: the levels would stabilize on no evidence
    p = read_number("p", p, above=2)
    n_paths = read_integer("n_paths", n_paths, least=1)
    levels = _ladder_levels(levels)  # before any path is sampled
    run_cfg = replace(config, store_stride=max(1, config.n_steps))

    report = ExperimentReport.start("moments", problem, config, master_seed,
                                    p=p, levels=levels, n_paths=n_paths)

    sup_vals = np.empty((n_paths, len(levels)))
    exited = np.zeros((n_paths, len(levels)), dtype=bool)
    for ip in range(n_paths):
        path = _make_path(problem, run_cfg, master_seed, ip)
        trajs, exits = run_ladder(problem, run_cfg, path, initial, levels)
        sup_vals[ip] = [traj.e_norms().max() for traj in trajs]
        exited[ip] = [rho.triggered for rho in exits]

    with np.errstate(over="ignore"):  # an inf m_n fails the check below
        m_n = (np.mean(sup_vals**p, axis=0)) ** (1.0 / p)
    report.tables["moments"] = (
        ["level", "m_n", "exit_fraction"],
        [[lv, float(m), float(ex)] for lv, m, ex in
         zip(levels, m_n, exited.mean(axis=0))])
    report.aggregates["m_n"] = {repr(lv): float(m) for lv, m in zip(levels, m_n)}

    top_half = m_n[len(levels) // 2:]
    last = m_n[-1]
    # an m_n of 0 (every sup**p underflowed) or inf (overflowed) is no evidence
    stable = bool(np.all((m_n > 0) & np.isfinite(m_n))
                  and np.all(np.abs(top_half - last) <= 0.05 * abs(last)))
    report.add_check("moment-stabilization", stable,
                     ", ".join(f"{lv:g}:{m:.4g}" for lv, m in zip(levels, m_n)))

    never_exit = ~exited[:, 0]
    report.aggregates["never_exit_smallest"] = int(never_exit.sum())
    # a core path never leaves the smallest level, so never a larger one:
    # on it run_ladder has compared the smallest level, truncated at every
    # step, with the next one, stepped untruncated, over the whole run and
    # raised unless they agree bitwise, and every larger level copies the
    # next one whole; so the check needs only a core path to compare on
    report.add_check("common-path-bitwise-on-core", bool(never_exit.any()),
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
                        n_paths: int = 1, refinements: int = 2) -> np.ndarray:
    """Mild residuals at t_end for dt, dt/2, ..., with common paths.

    Returns the ratios of mean residuals between consecutive levels (0.5
    for the deterministic part, 2^-1/2 for Lipschitz noise).
    """
    n_paths = read_integer("n_paths", n_paths, least=1)
    refinements = read_integer("refinements", refinements, least=0)
    run_cfg = replace(config, sup_cap=None, store_stride=1)
    residuals = np.empty((n_paths, refinements + 1))
    for p in range(n_paths):
        path = _make_path(problem, run_cfg, master_seed, p, refinements)
        members = [Member(path, initial, j) for j in range(refinements + 1)]
        residuals[p] = [mild_residual(problem, traj, path, [config.t_end])[0]
                        for traj in run_members(problem, run_cfg, members)]
    # ratio of ensemble means: per-path residual magnitudes fluctuate like
    # |N(0, s)| so individual ratios are uninformative
    means = residuals.mean(axis=0)
    return means[1:] / means[:-1]
