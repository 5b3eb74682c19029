"""The stepping scheme stated as a plain loop: the tests' bitwise oracle for
``simulate``, ``run_ladder`` and ``mild_residual``.

One step from the state u, on one step's (r, K) increments dbeta, with the
drift read at ``drift_at`` and the noise amplitude at ``noise_at`` (both u
unless given), is, component by component,

    u_l+ = (I - dt A_l)^{-1} [ (u_l + dt * F_l) + g_l(noise_at_l) * M_l ]

with F_l = h_l(drift_at_l) + k_l(drift_at), tamed to
F_l / (1 + dt * max|F_l|) by the tamed scheme, and the modal field
M_l = mode_fields_l @ dbeta_l.  At a truncation level n every step maps
both points, with no shortcut inside the ball: the drifts and g read them
clipped to [-n, n], and the couplings read the drift point with each cell
projected radially onto the l1 ball of radius n.

A run judges every state in order, the initial one as step 0: a state that
is not finite fails ``non-finite-state`` at its step, component and cell,
and a state whose largest component sup norm exceeds the sup cap ends the
run there.

Nothing here shares the solver's stepping code: no blocks of steps, no
chunks of fields, no helper thread, no ball test, no rows solved together.
"""

from dataclasses import replace

import numpy as np

from srds import SolverConfig, StoppingRecord, truncate_problem
from srds.errors import SolverFailure
from srds.solver import Trajectory, dyadic_level


def _horner(coeffs, s):
    """h(s) = s * (w_1 + s * (w_2 + ... + s * w_q)), per cell when
    ``coeffs`` has one row of w per cell."""
    cols = coeffs.T
    r = np.empty(np.shape(s))
    r[...] = cols[-1]
    for c in cols[-2::-1]:
        r = r * s + c
    return r * s


def _truncation(u, level):
    """(clip(u, -n, n), each cell of u projected radially onto the l1 ball
    of radius n) at n = ``level``: a step's drift and coupling points."""
    norms = np.sum(np.abs(u), axis=0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.clip(u, -level, level), u * np.where(norms > level, level / norms, 1.0)


def step(problem, config, u, increments, drift_at=None, noise_at=None):
    """One step from u on the (r, K) ``increments``; the state is not judged."""
    drift_at = u if drift_at is None else drift_at
    noise_at = u if noise_at is None else noise_at
    coupling_at = drift_at
    if problem.level is not None:
        drift_at, coupling_at = _truncation(drift_at, problem.level)
        noise_at = np.clip(noise_at, -problem.level, problem.level)
    dt = config.dt
    out = np.empty_like(u)
    for l in range(problem.r):
        drift, k = problem.reaction.drifts[l], problem.reaction.couplings[l]
        F = (0.0 if drift is None else _horner(drift.coeffs, drift_at[l])) + k(coupling_at)
        if config.scheme == "tamed-semi-implicit":
            F = F / (1.0 + dt * np.max(np.abs(F)))
        comp = problem.noise.components[l]
        field = comp.mode_fields @ increments[l, :comp.modes]
        rhs = u[l] + dt * F + comp.g(noise_at[l]) * field
        out[l] = problem.operators[l].stepper(dt).solve(rhs)
    return out


def _judge(u, i):
    """Raise the non-finite-state failure of the state u at step i, if any."""
    if not np.isfinite(u).all():
        l, cell = np.argwhere(~np.isfinite(u))[0]
        raise SolverFailure("non-finite-state", f"component {l} cell {cell}", step=i)


def _increments(dt, path):
    """The path's increments at resolution dt, (r, K, steps)."""
    return path.coarse(dyadic_level(dt, path.dt_fine))


def simulate(problem, config, path, initial):
    """``solver.simulate``'s trajectory: every ``store_stride``-th state and
    the last one reached, the sup norms and minima of every step, and the
    cap's stopping record; or its failure, raised."""
    inc = _increments(config.dt, path)
    u = np.array(initial, dtype=float)
    norms, mins, stored, stored_idx = [], [], [], []
    exited = False
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(config.n_steps + 1):
            if i:
                u = step(problem, config, u, inc[:, :, i - 1])
            _judge(u, i)
            norms.append(np.abs(u).max(axis=1))
            mins.append(u.min(axis=1))
            if i % config.store_stride == 0:
                stored.append(u)
                stored_idx.append(i)
            exited = config.sup_cap is not None and bool(norms[-1].max() > config.sup_cap)
            if exited:
                break
    if stored_idx[-1] != i:
        stored.append(u)
        stored_idx.append(i)
    return Trajectory(times=np.asarray(stored_idx, dtype=float) * config.dt,
                      states=np.stack(stored), sup_norms=np.asarray(norms),
                      min_values=np.asarray(mins), dt=config.dt,
                      store_stride=config.store_stride,
                      stopping=StoppingRecord(exited, config.cap_level, i * config.dt, i,
                                              "component-max"))


def ladder(problem, config, path, initial, levels):
    """``run_ladder``'s (trajectories, exits): each level run from step 0
    without a cap, and its exit rho_n, the first step whose E-norm
    sum_l ||u_l||_inf (added in component order) exceeds n, or else the last
    step, untriggered."""
    config = replace(config, sup_cap=None)
    trajs, exits = [], []
    for n in levels:
        traj = simulate(truncate_problem(problem, n), config, path, initial)
        e = [sum(row) for row in traj.sup_norms.tolist()]
        above = [i for i, norm in enumerate(e) if norm > n]
        i = above[0] if above else len(e) - 1
        trajs.append(traj)
        exits.append(StoppingRecord(bool(above), float(n), i * config.dt, i, "e-norm-sum"))
    return trajs, exits


def residuals(problem, traj, path, probes):
    """``mild_residual`` at the probe steps: from the stored step 0, each
    step from state i reads the drift at stored state i + 1 and the noise
    at stored state max(i - 1, 0), under the plain scheme; each state is
    judged, and its residual is its sup distance from the stored one."""
    config = SolverConfig(dt=traj.dt, t_end=max(probes) * traj.dt)
    inc = _increments(config.dt, path)
    u, gaps = traj.states[0], [0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        _judge(u, 0)
        for i in range(max(probes)):
            u = step(problem, config, u, inc[:, :, i], drift_at=traj.states[i + 1],
                     noise_at=traj.states[max(i - 1, 0)])
            _judge(u, i + 1)
            gaps.append(float(np.max(np.abs(traj.states[i + 1] - u))))
    return [gaps[p] for p in probes]
