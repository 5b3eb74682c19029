"""Semi-implicit time stepping of the mild formulation.

One step per component:

    u_l+ = (I - dt*A_l)^{-1} [ u_l + dt*F_l(u) + g_l(u_l) * M_l ]

with M_l the per-step modal field of the component's spectral noise
(Ito left-endpoint evaluation).  Components that share an operator are
solved together, as one block of right-hand-side rows.  The linear part is
exact backward Euler, so sup-norm contraction and positivity of the
semigroup factor are inherited from the M-matrix structure of the operator.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SolverFailure
from .grid import DomainGrid
from .noise import NoiseModel
from .operators import EllipticOperator
from .reaction import ReactionSystem
from .rng import WienerPath


@dataclass(frozen=True)
class Problem:
    """A full system: shared grid, per-component operators, reaction, noise.

    ``level`` is the truncation level n of the ladder (None: untruncated);
    ``step`` applies it to the reaction and the noise amplitudes.
    """

    grid: DomainGrid
    operators: tuple[EllipticOperator, ...]
    reaction: ReactionSystem
    noise: NoiseModel
    level: float | None = None

    def __post_init__(self):
        if self.level is not None and not self.level >= 1:
            raise ValueError("truncation level must be >= 1")
        r = len(self.operators)
        if self.reaction.r != r or self.noise.r != r:
            raise ValueError(
                f"component counts differ: {r} operators, {self.reaction.r} "
                f"reaction components, {self.noise.r} noise components")
        for op in self.operators:
            if op.grid != self.grid:
                raise ValueError("all operators must share the problem grid")
        for comp in self.noise.components:
            if comp.basis.grid != self.grid:
                raise ValueError("noise basis grid differs from the problem grid")

    @property
    def r(self) -> int:
        return len(self.operators)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.grid.descriptor())
        for op in self.operators:
            h.update(op.descriptor())
        h.update(self.reaction.descriptor())
        h.update(self.noise.descriptor())
        if self.level is not None:
            h.update(f"|trunc:{self.level!r}".encode())
        return h.hexdigest()


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters.

    ``dt`` must be a power-of-two multiple of the driving path's dt_fine so
    refinement studies share one underlying Brownian path exactly.
    ``sup_cap`` halts the run once any component sup norm exceeds it.
    """

    dt: float
    t_end: float
    scheme: str = "semi-implicit"
    sup_cap: float | None = None
    store_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0 or not self.t_end > 0:
            raise ValueError("dt and t_end must be positive")
        if self.scheme not in ("semi-implicit", "tamed-semi-implicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.store_stride < 1:
            raise ValueError("store_stride must be >= 1")
        n = round(self.t_end / self.dt)
        if n < 1 or abs(n * self.dt - self.t_end) > self.dt * 1e-9:
            raise ValueError(f"dt={self.dt} does not divide t_end={self.t_end}")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    def descriptor(self) -> str:
        return json.dumps(
            {"dt": self.dt, "t_end": self.t_end, "scheme": self.scheme,
             "sup_cap": self.sup_cap, "store_stride": self.store_stride},
            sort_keys=True)


@dataclass(frozen=True)
class StoppingRecord:
    """First exit above a level.  ``criterion`` records which norm was used:
    "component-max" (max_l ||u_l||_inf, the cap rule) or "e-norm-sum"
    (sum_l ||u_l||_inf, the truncation-ladder rule)."""

    triggered: bool
    level: float
    time: float
    step_index: int
    criterion: str = "component-max"


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # stored times, shape (n_stored,)
    states: np.ndarray  # (n_stored, r, n_cells)
    sup_norms: np.ndarray  # full-resolution per-step norms, (n_reached+1, r)
    min_values: np.ndarray  # full-resolution per-step minima, (n_reached+1, r)
    dt: float
    store_stride: int
    stopping: StoppingRecord

    @property
    def r(self) -> int:
        return self.states.shape[1]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def e_norms(self) -> np.ndarray:
        """Full-resolution E-norm history sum_l ||u_l||_inf."""
        return self.sup_norms.sum(axis=1)


def dyadic_level(dt: float, dt_fine: float) -> int:
    """The j >= 0 with dt = 2^j * dt_fine (to a relative 1e-9); raises
    ValueError when there is none."""
    ratio = dt / dt_fine
    j = round(np.log2(ratio)) if ratio > 0 else -1
    if j < 0 or abs(ratio - 2.0**j) > 1e-9 * ratio:
        raise ValueError(
            f"dt={dt} must be a power-of-two multiple of dt_fine={dt_fine}")
    return j


def _resolve_increments(config: SolverConfig, path: WienerPath) -> np.ndarray:
    """Coarsen the path to the scheme resolution; dt must be 2^j * dt_fine."""
    inc = path.coarse(dyadic_level(config.dt, path.dt_fine))
    if inc.shape[2] < config.n_steps:
        raise ValueError(
            f"path covers {inc.shape[2]} coarse steps, need {config.n_steps}")
    return inc


def _solve_groups(steppers) -> list:
    """(stepper, rows) per distinct stepper object, in order of first use;
    rows are the components it solves, a slice when they are contiguous,
    else a list."""
    groups = {}
    for l, stepper in enumerate(steppers):
        groups.setdefault(id(stepper), (stepper, []))[1].append(l)
    return [(stepper, slice(rows[0], rows[-1] + 1)
             if rows[-1] - rows[0] == len(rows) - 1 else rows)
            for stepper, rows in groups.values()]


# modal fields are built for blocks of at most this many floats (512 KiB)
MODAL_BLOCK_FLOATS = 1 << 16


def _step_fields(noise: NoiseModel, inc: np.ndarray):
    """Yield the (r, n) modal fields of each step of an (n_steps, r, K)
    increment array, built a block of steps at a time."""
    n_cells = noise.components[0].mode_fields.shape[0]
    block = max(1, MODAL_BLOCK_FLOATS // (noise.r * n_cells))
    for a in range(0, len(inc), block):
        yield from noise.modal_fields(inc[a:a + block])


def step(problem: Problem, config: SolverConfig, u: np.ndarray,
         fields: np.ndarray, groups=None, *, drift_at=None, noise_at=None,
         norms=None) -> np.ndarray:
    """Advance one step; ``fields`` has shape (r, n), one modal field per
    component (a row of ``NoiseModel.modal_fields``), and ``groups`` is
    ``_solve_groups`` of the steppers at ``config.dt``.

    The reaction is evaluated at ``drift_at`` and the noise amplitude g at
    ``noise_at``; both default to the state ``u`` (the scheme's left
    endpoint).  On a truncated problem the reaction is evaluated at its
    level and g reads ``noise_at`` clipped to [-level, level].  The new
    state's per-component sup norms are written to ``norms`` when given.
    """
    if groups is None:
        groups = _solve_groups([op.stepper(config.dt) for op in problem.operators])
    if drift_at is None:
        drift_at = u
    if noise_at is None:
        noise_at = u
    dt = config.dt
    level = problem.level
    F = problem.reaction.evaluate(drift_at, level)
    if config.scheme == "tamed-semi-implicit":
        F = F / (1.0 + dt * np.abs(F).max(axis=1, keepdims=True))
    if level is not None:
        noise_at = np.minimum(np.maximum(noise_at, -level), level)  # as in evaluate
    rhs = u + dt * F
    for l, comp in enumerate(problem.noise.components):
        rhs[l] += comp.g(noise_at[l]) * fields[l]
    # components sharing a stepper object are solved as one block of rows
    if len(groups) == 1:
        out = groups[0][0].solve(rhs)
    else:
        out = np.empty_like(u)
        for stepper, rows in groups:
            out[rows] = stepper.solve(rhs[rows])
    norms = np.abs(out).max(axis=1, out=norms)
    if not math.isfinite(norms.max()):
        l, cell = np.argwhere(~np.isfinite(out))[0]
        raise SolverFailure("non-finite-state", f"component {l} cell {cell}")
    return out


def simulate(problem: Problem, config: SolverConfig, path: WienerPath,
             initial: np.ndarray) -> Trajectory:
    """Iterate the scheme, halting early if the sup cap is exceeded.

    States are stored every ``store_stride`` steps (the final state always);
    per-step sup norms are recorded at full resolution regardless.
    """
    u = np.array(initial, dtype=float)
    if u.shape != (problem.r, problem.grid.n_total):
        raise ValueError(f"initial shape {u.shape}, expected "
                         f"{(problem.r, problem.grid.n_total)}")
    if not np.all(np.isfinite(u)):
        raise SolverFailure("non-finite-state", "initial field", step=0)
    n_steps = config.n_steps
    # one contiguous (r, K) block of increments per step
    inc = np.ascontiguousarray(
        _resolve_increments(config, path)[:, :, :n_steps].transpose(2, 0, 1))
    stride = config.store_stride
    groups = _solve_groups([op.stepper(config.dt) for op in problem.operators])
    cap = config.sup_cap

    norms = np.empty((n_steps + 1, problem.r))
    mins = np.empty((n_steps + 1, problem.r))
    np.abs(u).max(axis=1, out=norms[0])
    u.min(axis=1, out=mins[0])
    stored = [u]  # step returns a fresh array: no state is copied
    stored_idx = [0]
    stopping = None
    if cap is not None and norms[0].max() > cap:
        stopping = StoppingRecord(True, cap, 0.0, 0, "component-max")
        n_steps = 0

    i = 0
    try:
        # an overflow surfaces as step's located non-finite-state failure
        with np.errstate(over="ignore", invalid="ignore"):
            for fields in _step_fields(problem.noise, inc[:n_steps]):
                u = step(problem, config, u, fields, groups, norms=norms[i + 1])
                i += 1
                u.min(axis=1, out=mins[i])
                if i % stride == 0:
                    stored.append(u)
                    stored_idx.append(i)
                if cap is not None and norms[i].max() > cap:
                    stopping = StoppingRecord(True, cap, i * config.dt, i, "component-max")
                    break
    except SolverFailure as exc:
        raise SolverFailure(exc.reason, exc.detail, step=i + 1) from None

    if stored_idx[-1] != i:
        stored.append(u)
        stored_idx.append(i)
    if stopping is None:
        stopping = StoppingRecord(False, cap if cap is not None else np.inf,
                                  n_steps * config.dt, n_steps, "component-max")
    return Trajectory(times=np.asarray(stored_idx, dtype=float) * config.dt,
                      states=np.stack(stored), sup_norms=norms[:i + 1],
                      min_values=mins[:i + 1], dt=config.dt,
                      store_stride=stride, stopping=stopping)


# ---------------------------------------------------------------------------
# truncation ladder


def truncate_problem(problem: Problem, level: float) -> Problem:
    """The problem at truncation level n = ``level``: drifts frozen beyond
    |s| = n, couplings beyond the l1-ball of radius n (radial projection of
    each cell's state), each noise amplitude g_l frozen beyond |s| = n.

    The truncated problem shares the untruncated ``reaction`` and ``noise``
    objects; only ``step`` applies the level, so inside the ball every term
    evaluates bitwise identically to the original.  Truncating a truncated
    problem replaces its level.
    """
    return replace(problem, level=float(level))


def exit_index(traj: Trajectory, level: float) -> int:
    """First step index where the E-norm exceeds the level (rho_n); the
    number of completed steps if it never does (inf-empty convention)."""
    e = traj.e_norms()
    above = np.nonzero(e > level)[0]
    return int(above[0]) if above.size else len(e) - 1


@dataclass
class LadderReport:
    levels: list[float]
    exit_steps: list[int]
    exit_times: list[float]


def glue_ladder(problem: Problem, config: SolverConfig, path: WienerPath,
                initial: np.ndarray, levels) -> tuple[Trajectory, LadderReport]:
    """Simulate the truncation ladder on one path and glue along the exits.

    Consecutive ladder trajectories must agree bitwise up to (and including)
    min(rho_n, rho_{n+1}); the glued maximal trajectory is the top level's,
    cut at its own exit.
    """
    levels = [float(n) for n in levels]
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be a nonempty increasing list")
    run_cfg = replace(config, sup_cap=None)
    trajs = [simulate(truncate_problem(problem, n), run_cfg, path, initial)
             for n in levels]
    exits = [exit_index(t, n) for t, n in zip(trajs, levels)]

    stride = run_cfg.store_stride
    for (na, ta, ea), (nb, tb, eb) in zip(zip(levels, trajs, exits),
                                          zip(levels[1:], trajs[1:], exits[1:])):
        upto = min(ea, eb)
        n_stored = upto // stride + 1
        differs = np.nonzero(np.any(ta.sup_norms[:upto + 1] != tb.sup_norms[:upto + 1],
                                    axis=1))[0]
        if differs.size or not np.array_equal(ta.states[:n_stored], tb.states[:n_stored]):
            # step -1: equal norms, different stored states
            at = int(differs[0]) if differs.size else -1
            raise SolverFailure("ladder-inconsistency",
                                f"levels {na}/{nb} disagree at step {at}")

    top = trajs[-1]
    cut = exits[-1]
    # keep the appended final state when the run never exits and n_steps is
    # not stride-aligned
    n_stored = len(top.times) if cut == config.n_steps else cut // stride + 1
    # an exit at the final step still triggers: rho_n = T either way
    triggered = bool(top.e_norms()[cut] > levels[-1])
    glued = Trajectory(
        times=top.times[:n_stored],
        states=top.states[:n_stored],
        sup_norms=top.sup_norms[:cut + 1],
        min_values=top.min_values[:cut + 1],
        dt=top.dt, store_stride=stride,
        stopping=StoppingRecord(triggered, levels[-1], cut * config.dt, cut,
                                "e-norm-sum"),
    )
    report = LadderReport(levels=levels, exit_steps=exits,
                          exit_times=[e * config.dt for e in exits])
    return glued, report


# ---------------------------------------------------------------------------
# discrete mild-form audit


def mild_residual(problem: Problem, traj: Trajectory, path: WienerPath,
                  probe_times) -> np.ndarray:
    """Sup-norm distance between stored states and a discrete rendering of
    the mild convolution formula

        S(t)u(0) + int S(t-s)F(u(s)) ds + int S(t-s)G(u(s)) dW(s)

    with S realized by repeated backward-Euler application.  The scheme
    itself is the left-endpoint rule, so the reconstruction deliberately
    samples the same integrals at shifted grid points: the drift convolution
    at the right endpoint (a Riemann quadrature of the same integral,
    differing at first order in dt) and the stochastic integrand at the
    previous step's state (still adapted, hence a valid Ito quadrature,
    differing at order 1/2 with zero mean), passed to ``step`` as its
    evaluation points.  The residual therefore
    measures the quadrature sensitivity of the discrete mild form: zero to
    round-off for F = 0, G = 0, first order in dt deterministically, order
    1/2 in the noise.
    """
    if traj.store_stride != 1:
        raise ValueError("mild_residual needs a trajectory stored at stride 1")
    config = SolverConfig(dt=traj.dt, t_end=max(probe_times), sup_cap=None)
    inc = _resolve_increments(config, path)
    probe_steps = [round(t / traj.dt) for t in probe_times]
    reached = len(traj.sup_norms) - 1
    for ps, t in zip(probe_steps, probe_times):
        if abs(ps * traj.dt - t) > 1e-9 * traj.dt:
            raise ValueError(f"probe time {t} not on the step grid")
        if ps > reached:
            raise ValueError(f"probe time {t} beyond the stopping time")

    groups = _solve_groups([op.stepper(traj.dt) for op in problem.operators])
    # the (n_steps, r, K) view keeps each step's increment strides
    per_step = inc[:, :, :max(probe_steps)].transpose(2, 0, 1)
    recon = traj.states[0].copy()
    residuals = {}
    if 0 in probe_steps:
        residuals[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # as in simulate
        for i, fields in enumerate(_step_fields(problem.noise, per_step)):
            recon = step(problem, config, recon, fields, groups,
                         drift_at=traj.states[i + 1],
                         noise_at=traj.states[max(i - 1, 0)])
            if i + 1 in probe_steps:
                residuals[i + 1] = float(np.max(np.abs(traj.states[i + 1] - recon)))
    return np.asarray([residuals[ps] for ps in probe_steps])


# ---------------------------------------------------------------------------
# snapshot output


TRAJECTORY_FORMATS = ("auto", "csv", "raw")


def save_trajectory(traj: Trajectory, out_dir, grid: DomainGrid,
                    provenance: dict, fmt: str = "auto") -> dict:
    """Write snapshots plus a JSON manifest sufficient to reproduce the run;
    ``provenance`` is recorded in the manifest as given.

    CSV for small 1D runs ("csv"), raw little-endian float64 blocks with a
    JSON sidecar otherwise ("raw"); "auto" picks csv when r*n_cells <= 256.
    """
    from pathlib import Path

    if fmt not in TRAJECTORY_FORMATS:
        raise ValueError(f"unknown trajectory format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_cells = traj.states.shape[2]
    if fmt == "auto":
        fmt = "csv" if traj.r * n_cells <= 256 else "raw"
    manifest = {
        "format": fmt,
        "times": [repr(float(t)) for t in traj.times],
        "shape": list(traj.states.shape),
        "grid": {"dim": grid.dim, "extents": list(grid.extents),
                 "n_cells": list(grid.n_cells)},
        "dt": repr(traj.dt),
        "store_stride": traj.store_stride,
        "stopping": {
            "triggered": traj.stopping.triggered,
            "level": repr(float(traj.stopping.level)),
            "time": repr(float(traj.stopping.time)),
            "criterion": traj.stopping.criterion,
        },
        "provenance": provenance,
    }
    if fmt == "csv":
        with open(out / "trajectory.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time", "component", "cell", "value"])
            for ti, t in enumerate(traj.times):
                for l in range(traj.r):
                    for c in range(n_cells):
                        w.writerow([repr(float(t)), l, c,
                                    repr(float(traj.states[ti, l, c]))])
        manifest["files"] = ["trajectory.csv"]
    else:
        blob = np.ascontiguousarray(traj.states, dtype="<f8").tobytes()
        (out / "trajectory.f64").write_bytes(blob)
        manifest["files"] = ["trajectory.f64"]
        manifest["dtype"] = "<f8"
        manifest["order"] = "C (time, component, cell)"
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
    return manifest
