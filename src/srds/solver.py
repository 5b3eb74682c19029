"""Semi-implicit time stepping of the mild formulation.

One step per component:

    u_l+ = (I - dt*A_l)^{-1} [ u_l + dt*F_l(u) + g_l(u_l) * M_l ]

with M_l the per-step modal field of the component's spectral noise
(Ito left-endpoint evaluation).  Components that share an operator are
solved together, as one block of right-hand-side rows, and adjacent
components whose amplitudes share one function take one g call.  The linear
part is exact backward Euler, so sup-norm contraction and positivity of the
semigroup factor are inherited from the M-matrix structure of the operator.

``step`` does not check the state it returns.  One block driver,
``_advance``, steps ``simulate``: it runs the steps in blocks of at most
STATE_BLOCK_FLOATS floats of state and checks a block at once, the initial
state as a block of its own (step 0): one reduction fills its sup norms,
which judge both the sup cap and a truncated run's E-norm ball, and the
first step whose largest norm is not <= the sup cap (the largest float
without one) is either a non-finite state, raised at its step, component
and cell, or the cap exit.  After a cap exit up to block - 1 more steps may
have been computed; they are never reported.  A truncated step maps its
state once (``_truncate``); a truncated run steps untruncated until its
exit rho_n (see ``_advance``) unless its ball test is off.  A run may
resume from a stored step of a prefix trajectory (``simulate``'s
``prefix``), to the same bits.  ``mild_residual`` steps its own short loop
at shifted evaluation points, judged by the same ``_first_exit``.  Both
loops run under ``_quiet``'s floating-point state: a direct ``step`` leaves
it to its caller.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import SolverFailure
from .grid import DomainGrid
from .noise import MODAL_BLOCK_FLOATS, NoiseModel, adjacent_runs
from .operators import EllipticOperator
from .reaction import ReactionSystem
from .readers import read_integer, read_number
from .rng import WienerPath


@dataclass(frozen=True)
class Problem:
    """A full system: shared grid, per-component operators, reaction, noise.

    ``level`` is the truncation level n of the ladder, a float >= 1, or
    None for the untruncated problem, its n -> inf limit: a level of +inf
    is stored as None, any other is read by ``srds.readers`` and stored as
    a float, so equal levels run and hash alike.  ``step`` applies it, as
    the bounds of ``_step_runs``, through ``_truncate``.
    """

    grid: DomainGrid
    operators: tuple[EllipticOperator, ...]
    reaction: ReactionSystem
    noise: NoiseModel
    level: float | None = None

    def __post_init__(self):
        if self.level is not None:
            level = None if self.level == math.inf else read_number(
                "truncation level", self.level, least=1)
            object.__setattr__(self, "level", level)
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
    ``sup_cap`` halts the run once any component sup norm exceeds it: a
    number above 0, or None for no cap, which is how a cap of +inf or NaN
    is stored too.  ``dt``, ``t_end`` and a finite cap are stored as the
    floats ``srds.readers`` reads, ``store_stride`` as the int, so equal
    configs (a cap of 8 or 8.0) describe alike.
    """

    dt: float
    t_end: float
    scheme: str = "semi-implicit"
    sup_cap: float | None = None
    store_stride: int = 1

    def __post_init__(self):
        put = functools.partial(object.__setattr__, self)
        put("dt", read_number("dt", self.dt, above=0))
        put("t_end", read_number("t_end", self.t_end, above=0))
        put("store_stride", read_integer("store_stride", self.store_stride, least=1))
        cap = self.sup_cap
        if cap is not None:  # NaN != NaN
            put("sup_cap", None if cap == math.inf or cap != cap
                else read_number("sup_cap", cap, above=0))
        if self.scheme not in ("semi-implicit", "tamed-semi-implicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        n = round(self.t_end / self.dt)
        if n < 1 or abs(n * self.dt - self.t_end) > self.dt * 1e-9:
            raise ValueError(f"dt={self.dt} does not divide t_end={self.t_end}")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def cap_level(self) -> float:
        """The sup cap as a stopping level: inf without one."""
        return math.inf if self.sup_cap is None else self.sup_cap

    def descriptor(self) -> str:
        return json.dumps(
            {"dt": self.dt, "t_end": self.t_end, "scheme": self.scheme,
             "sup_cap": self.sup_cap, "store_stride": self.store_stride},
            sort_keys=True)


@dataclass(frozen=True)
class StoppingRecord:
    """First exit above a level, or, untriggered, the last step reached
    within it.  ``criterion`` records which norm was used: "component-max"
    (max_l ||u_l||_inf, the cap rule; ``simulate`` builds it) or
    "e-norm-sum" (sum_l ||u_l||_inf, the truncation-ladder rule;
    ``exit_index`` builds it)."""

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
        return _e_norms(self.sup_norms)

    def until(self, step: int) -> "Trajectory":
        """This trajectory through ``step``, a step it reached: the states
        stored up to it (the last reached step's always) and its norms and
        minima; the stopping record is kept."""
        reached = len(self.sup_norms) - 1
        n_stored = step // self.store_stride + 1 + (
            step == reached and step % self.store_stride != 0)
        return replace(self, times=self.times[:n_stored],
                       states=self.states[:n_stored],
                       sup_norms=self.sup_norms[:step + 1],
                       min_values=self.min_values[:step + 1])


def dyadic_level(dt: float, dt_fine: float) -> int:
    """The j >= 0 with dt = 2^j * dt_fine (to a relative 1e-9); raises
    ValueError when there is none."""
    ratio = dt / dt_fine if dt_fine > 0 else 0.0
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


# a block of steps holds at most this many floats of state (32 KiB)
STATE_BLOCK_FLOATS = 1 << 12
# the cap of a run without one: every finite norm is <= it, +-inf and NaN not
FINITE_CAP = sys.float_info.max


# constants on the per-step path are 0-d float64 arrays built once (see
# reaction._ZERO); dt and the truncation bounds are built per run
_ONE = np.array(1.0)


def _step_runs(problem: Problem, dt: float) -> tuple[list, list, np.ndarray, tuple]:
    """(groups, runs, dt, bounds) of a step at dt: (stepper, rows) per run
    of components sharing one (I - dt A) stepper, (g, rows) per run sharing
    one ``g.fn``, dt as a 0-d array and bounds the 0-d (-level, level) of a
    truncated problem or None.  A row's solve is bitwise its own and g is
    elementwise, so a run's one call is bitwise one call per row."""
    groups = adjacent_runs([op.stepper(dt) for op in problem.operators],
                           lambda stepper: stepper)
    runs = adjacent_runs(problem.noise.components, lambda c: c.g.fn)
    level = problem.level
    bounds = None if level is None else (np.array(-level), np.array(level))
    return groups, [(c.g, rows) for c, rows in runs], np.array(float(dt)), bounds


def _truncate(u: np.ndarray, bounds: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The truncation map at level n, ``bounds`` = (-n, n): the drift and
    amplitude point clip(u, -n, n) and the coupling point, each cell's state
    u[:, x] projected radially onto the l1 ball of radius n.  Inside the ball
    both are u bit for bit (the projection multiplies by 1.0), so there a
    truncated step is the untruncated step."""
    lo, hi = bounds
    # n / max(norm, n): exactly 1.0 for a norm <= n and for a NaN norm (fmax
    # skips NaN), n / norm beyond, 0 for an inf norm, never a division by 0;
    # a cell's norm adds its components in order (see _e_norms)
    scale = hi / np.fmax(np.abs(u).sum(axis=0), hi)
    # the clip: np.clip's bits, NaN and signed zeros included, at half its
    # cost; the projection makes inf * 0 = NaN (invalid) in a cell holding inf
    return np.minimum(np.maximum(u, lo), hi), u * scale


def _e_norms(norms: np.ndarray) -> np.ndarray:
    """The E-norms sum_l ||u_l||_inf of (m, r) per-component sup norms,
    added in component order (a running sum), as ``_truncate`` adds a
    cell's l1 norm over the r rows of a state.  Rounding is monotone, so
    every cell's l1 norm is then <= its state's E-norm in floating point
    too, and a state whose E-norm is <= n is mapped to itself.  numpy's row
    sum groups 8 or more terms pairwise and can round below a cell's norm
    (below 8 it adds in order, so these are its bits there)."""
    return np.cumsum(norms, axis=1)[:, -1]


def _quiet() -> np.errstate:
    """The floating-point state of the stepping loops: overflow and invalid
    operations are silent, so that an overflow surfaces as ``_first_exit``'s
    located non-finite-state failure.  numpy's state is per thread, so a
    helper thread enters it itself."""
    return np.errstate(over="ignore", invalid="ignore")


def _first_exit(states: np.ndarray, norms: np.ndarray, cap: float,
                first: int) -> int:
    """The index of the first state of a block (m, r, n) whose largest
    per-component sup norm, read from its rows of ``norms`` (m, r), is not
    <= cap, m when there is none; cap is finite (FINITE_CAP without a sup
    cap), so a state with an inf or NaN norm is never within it.  If that
    state is not finite, raise the non-finite-state failure at its step
    (``first`` is the block's first step), component and cell instead."""
    if norms.max() <= cap:  # NaN compares false
        return len(states)
    k = int((norms.max(axis=1) <= cap).argmin())
    if not math.isfinite(norms[k].max()):
        l, cell = np.argwhere(~np.isfinite(states[k]))[0]
        raise SolverFailure("non-finite-state", f"component {l} cell {cell}",
                            step=first + k)
    return k


def step(problem: Problem, config: SolverConfig, u: np.ndarray,
         fields: np.ndarray, groups: list, runs: list, dt: np.ndarray,
         bounds: tuple | None, *, drift_at=None, noise_at=None) -> np.ndarray:
    """Advance one step; ``fields`` has shape (r, n), one modal field per
    component (a row of ``NoiseModel.modal_fields``), and ``groups``,
    ``runs``, ``dt`` and ``bounds`` are ``_step_runs`` of the problem at
    ``config.dt``, or the same with ``bounds`` None for an untruncated step.

    The reaction is evaluated at ``drift_at`` and the noise amplitude g at
    ``noise_at``; both default to the state ``u`` (the scheme's left
    endpoint).  With bounds (-n, n) the step is truncated at level n: the
    drifts and g read their points clipped to [-n, n] and the couplings the
    drift point's radial projection, one ``_truncate`` of u when both points
    are u.  The new state is not checked: it may hold inf or NaN (see
    ``_first_exit``).
    """
    drift_at = u if drift_at is None else drift_at
    noise_at = u if noise_at is None else noise_at
    coupling_at = None
    if bounds is not None:
        shared = noise_at is drift_at
        drift_at, coupling_at = _truncate(drift_at, bounds)
        noise_at = drift_at if shared else _truncate(noise_at, bounds)[0]
    # the step writes only arrays it allocated: evaluate returns a new F,
    # which becomes the right-hand side; g's result may be its input (a
    # view of the state), so it is never written
    rhs = problem.reaction.evaluate(drift_at, coupling_at)
    if config.scheme == "tamed-semi-implicit":
        rhs /= _ONE + dt * np.abs(rhs).max(axis=1, keepdims=True)
    rhs *= dt
    rhs += u  # bitwise u + dt*F
    if len(runs) == 1:  # the runs cover every row: one run needs no slices
        rhs += runs[0][0](noise_at) * fields
    else:
        for g, rows in runs:
            part = rhs[rows]
            part += g(noise_at[rows]) * fields[rows]
    # components sharing a stepper object are solved as one block of rows
    if len(groups) == 1:
        return groups[0][0].solve(rhs)
    out = np.empty_like(u)
    for stepper, rows in groups:
        out[rows] = stepper.solve(rhs[rows])
    return out


def _advance(problem: Problem, config: SolverConfig, u: np.ndarray,
             inc: np.ndarray, norms: np.ndarray, *, start: int = 0,
             ball_test: bool = True):
    """Judge the state u, step ``start``, and step from it over the
    (n_steps, r, K) increments ``inc[start:]``; yield (a, states, exited)
    per block, an (m, r, n) view whose row j is step a + 1 + j, with its
    sup norms written to ``norms[a + 1:a + 1 + m]`` (n_steps + 1 rows).
    The first block is u itself at a = start - 1; the later ones hold at
    most STATE_BLOCK_FLOATS floats of states, in one reused buffer.  Modal
    fields are built in chunks of MODAL_BLOCK_FLOATS floats, starting at
    ``start``, one matrix-vector product per step, so a run's bits do not
    depend on where it starts.  This thread builds the first chunk; a run
    of more than two chunks starts one helper thread, which builds chunk
    c + 1 while chunk c steps: the second chunk into the one array a run
    allocates, each later one into the array of chunk c - 1, just stepped.
    Each field is the same BLAS call on the same inputs on either thread, so
    its bits do not depend on which thread built it.  The helper is the
    run's own and is joined when the run returns, raises or is closed: a
    pool that outlived a run would reach the workers ``ensemble`` forks
    without its thread, and their first prefetch would never finish.  One
    reduction fills a block's sup norms, step 0's too, and ``_first_exit``
    reads them: the first state whose largest norm exceeds the sup cap ends
    the run, its block cut after it and yielded with ``exited`` true.

    Unless ``ball_test`` is false (then a truncated problem steps truncated
    throughout), a truncated problem at level n reads the same rows for its
    ball, the one place truncation is skipped: a state is inside
    while its E-norm (``_e_norms``) is <= n, where every cell's l1 norm is
    <= n too and its step is bitwise the untruncated step.  So a block from
    a state inside steps without bounds and is cut after its first state
    outside, the exit rho_n of ``exit_index``, before the cap judge reads
    it (its later steps, at most block - 1, are dropped unchecked); the
    blocks from there on step truncated until one ends inside the ball.
    Untruncated blocks start at one step and double while they stay
    inside, up to a full block, and each exit halves them: a run that
    leaves its ball early or crosses it often drops few steps.

    ``_quiet`` holds around each block's steps and judgement (never across
    a ``yield``), and on the helper thread, whose floating-point state is
    its own."""
    # a finite cap, so that an inf norm is never within it; a run without a
    # sup cap halts at no finite norm, as FINITE_CAP
    cap = min(FINITE_CAP, config.cap_level)
    plan = _step_runs(problem, config.dt)
    level = problem.level if ball_test else None
    block = max(1, STATE_BLOCK_FLOATS // u.size)
    chunk = block * max(1, MODAL_BLOCK_FLOATS // (block * u.size))
    buf = np.empty((min(block, len(inc) - start),) + u.shape)
    # the longest untruncated block: one step at first, doubled at each
    # untruncated block that stays inside, halved at each ball exit
    span = 1
    free = False  # the state stepped from is inside the ball
    a, states = start - 1, u[None]
    c = start
    fields = inc[:0]  # the modal fields of steps c + 1 ..., c - start a multiple of chunk
    # starting and joining a thread costs about what building one chunk
    # does (0.3 against 0.4 ms for a 1D chunk on a 2-vCPU x86 host), so a
    # run builds ahead only when at least two chunks follow its first
    helper = ThreadPoolExecutor(1) if len(inc) - start > 2 * chunk else None
    if helper is not None:  # what it calls, and the array of the second chunk
        build, spare = _quiet()(problem.noise.modal_fields), np.empty((chunk,) + u.shape)
    ahead = None  # the helper's fields of steps c + chunk + 1 ...
    try:
        while True:
            with _quiet():
                if a >= start:  # the first state is judged, not stepped
                    if a == c + len(fields):
                        c = a
                        if ahead is None:
                            fields = problem.noise.modal_fields(inc[c:c + chunk])
                        else:  # the chunk just stepped is free for the next one
                            fields, spare, ahead = ahead.result(), fields, None
                        if helper is not None and c + chunk < len(inc):
                            nxt = inc[c + chunk:c + 2 * chunk]
                            ahead = helper.submit(build, nxt, spare[:len(nxt)])
                    states = buf[:min(span if free else block, c + len(fields) - a)]
                    steps = plan[:3] + (None,) if free else plan
                    for j, f in enumerate(fields[a - c:a - c + len(states)]):
                        u = states[j] = step(problem, config, u, f, *steps)
                rows = norms[a + 1:a + 1 + len(states)]
                np.abs(states).max(axis=2, out=rows)
                if level is not None:
                    inside = _e_norms(rows) <= level  # NaN compares false
                    if free:  # cut after the first state outside, rho_n
                        out = int(inside.argmin())
                        if inside[out]:
                            span = min(block, 2 * span)
                        else:  # step from the state outside, not the dropped ones
                            span = max(1, span // 2)
                            states, rows, u = states[:out + 1], rows[:out + 1], states[out]
                    free = bool(inside[len(states) - 1])
                k = _first_exit(states, rows, cap, a + 1)
            yield a, states[:k + 1], k < len(states)
            a += len(states)
            if k < len(states) or a == len(inc):
                return
    finally:
        if helper is not None:
            helper.shutdown(cancel_futures=True)


def simulate(problem: Problem, config: SolverConfig, path: WienerPath,
             initial: np.ndarray, *, ball_test: bool = True,
             prefix: Trajectory | None = None) -> Trajectory:
    """Iterate the scheme, halting early if the sup cap is exceeded.

    States are stored every ``store_stride`` steps (the final state always);
    per-step sup norms are recorded at full resolution regardless.  Steps
    run in blocks (``_advance``) checked after the fact, the initial state
    as step 0: a cap exit, or a truncated run's exit from its ball, drops
    the block's later states, which are computed but never reported.
    With ``ball_test`` false a truncated run steps truncated at every step.

    ``prefix`` is this run through some step s, which it stores last (as
    ``Trajectory.until(s)`` gives it when s is on the stride or the last
    step it reached): its norms, minima and stored states are copied
    through step s, and the run steps on from there, to the same bits as
    from step 0.
    """
    u = np.array(initial, dtype=float)
    if u.shape != (problem.r, problem.grid.n_total):
        raise ValueError(f"initial shape {u.shape}, expected "
                         f"{(problem.r, problem.grid.n_total)}")
    n_steps = config.n_steps
    # one contiguous (r, K) block of increments per step
    inc = np.ascontiguousarray(
        _resolve_increments(config, path)[:, :, :n_steps].transpose(2, 0, 1))
    stride = config.store_stride
    norms = np.empty((n_steps + 1, problem.r))
    mins = np.empty((n_steps + 1, problem.r))
    # every stride-th state, then the last one if it is not among them
    states = np.empty((n_steps // stride + 2,) + u.shape)
    start = n_stored = 0
    if prefix is not None:
        start = len(prefix.sup_norms) - 1
        n_stored = -(-start // stride)  # the states stored before step start
        if (prefix.dt != config.dt or prefix.store_stride != stride
                or start > n_steps or len(prefix.states) != n_stored + 1
                or prefix.states.shape[1:] != u.shape):
            raise ValueError("prefix must be a run of this config that stores "
                             "its last step")
        norms[:start] = prefix.sup_norms[:start]
        mins[:start] = prefix.min_values[:start]
        states[:n_stored] = prefix.states[:n_stored]
        u = prefix.states[-1]

    for a, block, exited in _advance(problem, config, u, inc, norms, start=start,
                                     ball_test=ball_test):
        block.min(axis=2, out=mins[a + 1:a + 1 + len(block)])
        # block[j] is step a + 1 + j
        kept = block[-(a + 1) % stride::stride]
        states[n_stored:n_stored + len(kept)] = kept
        n_stored += len(kept)

    i = a + len(block)  # the last step reached
    stored_idx = list(range(0, i + 1, stride))
    if stored_idx[-1] != i:
        states[n_stored] = block[-1]
        n_stored += 1
        stored_idx.append(i)
    stopping = StoppingRecord(exited, config.cap_level, i * config.dt, i,
                              "component-max")
    return Trajectory(times=np.asarray(stored_idx, dtype=float) * config.dt,
                      states=states[:n_stored], sup_norms=norms[:i + 1],
                      min_values=mins[:i + 1], dt=config.dt,
                      store_stride=stride, stopping=stopping)


# ---------------------------------------------------------------------------
# truncation ladder


def truncate_problem(problem: Problem, level: float) -> Problem:
    """The problem at truncation level n = ``level`` (+inf: the untruncated
    problem, level None; see ``Problem``): drifts frozen beyond
    |s| = n, couplings beyond the l1-ball of radius n (radial projection of
    each cell's state), each noise amplitude g_l frozen beyond |s| = n.

    The truncated problem shares the untruncated ``reaction`` and ``noise``
    objects; only ``step`` applies the level (``_truncate``), so inside the
    ball every term evaluates bitwise identically to the original.
    Truncating a truncated problem replaces its level.
    """
    return replace(problem, level=level)


def exit_index(traj: Trajectory, level: float | None) -> StoppingRecord:
    """The exit of the run from level n (rho_n), an "e-norm-sum" record:
    the first step where the E-norm exceeds the level, triggered (at the
    last step too); the last step reached, untriggered, if it never does
    (inf-empty convention), as for level None, the untruncated run, which
    never exits (its record's level is inf)."""
    level = math.inf if level is None else level
    e = traj.e_norms()
    above = np.nonzero(e > level)[0]
    i = int(above[0]) if above.size else len(e) - 1
    return StoppingRecord(bool(above.size), float(level), i * traj.dt, i,
                          "e-norm-sum")


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

    The reconstruction steps truncated throughout (a truncated problem has
    no ball test here), builds its modal fields one chunk of at most
    MODAL_BLOCK_FLOATS floats at a time, and judges each chunk's states, the
    initial state first, by ``_first_exit`` without a cap: a non-finite
    state raises the located non-finite-state failure at its step.
    """
    if traj.store_stride != 1:
        raise ValueError("mild_residual needs a trajectory stored at stride 1")
    config = SolverConfig(dt=traj.dt, t_end=max(probe_times), sup_cap=None)
    inc = _resolve_increments(config, path)
    probe_steps = [round(t / traj.dt) for t in probe_times]
    for ps, t in zip(probe_steps, probe_times):
        if abs(ps * traj.dt - t) > 1e-9 * traj.dt:
            raise ValueError(f"probe time {t} not on the step grid")
        if ps >= len(traj.sup_norms):  # beyond the last step reached
            raise ValueError(f"probe time {t} beyond the stopping time")

    n = max(probe_steps)
    # the (n, r, K) view keeps each step's increment strides
    per_step = inc[:, :, :n].transpose(2, 0, 1)
    plan, u = _step_runs(problem, config.dt), traj.states[0]
    chunk = max(1, MODAL_BLOCK_FLOATS // u.size)
    gaps = np.zeros(n + 1)  # the residual at each step; step 0's is 0
    with _quiet():
        _first_exit(u[None], np.abs(u).max(axis=1)[None], FINITE_CAP, 0)
        for a in range(0, n, chunk):
            # the chunk's fields, each overwritten by its step's state
            out = problem.noise.modal_fields(per_step[a:a + chunk])
            for i, f in enumerate(out, start=a):  # drift at the right end, noise lagged
                u = out[i - a] = step(problem, config, u, f, *plan, drift_at=traj.states[i + 1],
                                      noise_at=traj.states[max(i - 1, 0)])
                gaps[i + 1] = np.abs(traj.states[i + 1] - u).max()
            _first_exit(out, np.abs(out).max(axis=2), FINITE_CAP, a + 1)
    return gaps[probe_steps]


# ---------------------------------------------------------------------------
# snapshot output


TRAJECTORY_FORMATS = ("auto", "csv", "raw")


def write_json(path, obj) -> None:
    """Write an artifact JSON file: sorted keys, one-space indent."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)


def write_csv(path, headers, rows) -> None:
    """Write an artifact CSV table in the default dialect: every float cell
    (numpy floats included) as repr(float(v)), which round-trips, and every
    other cell as given."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(headers)
        w.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                     for v in row] for row in rows)


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
        write_csv(out / "trajectory.csv", ["time", "component", "cell", "value"],
                  ([t, l, c, traj.states[ti, l, c]] for ti, t in enumerate(traj.times)
                   for l in range(traj.r) for c in range(n_cells)))
        manifest["files"] = ["trajectory.csv"]
    else:
        blob = np.ascontiguousarray(traj.states, dtype="<f8").tobytes()
        (out / "trajectory.f64").write_bytes(blob)
        manifest["files"] = ["trajectory.f64"]
        manifest["dtype"] = "<f8"
        manifest["order"] = "C (time, component, cell)"
    write_json(out / "manifest.json", manifest)
    return manifest
