import ast
import itertools
import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import srds.solver
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from srds import (CoefficientField, CouplingTerm, EllipticOperator, HolderFunction,
                  PolynomialDrift, PowerModulus, ReactionSystem, SolverConfig,
                  apply_resolvent, build_grid, build_mollifier, check_quasi_positive,
                  cosine_neumann_basis, build_noise, coupling_linear, evolve_semigroup,
                  exit_index, fhn_system, gaussian_entry, glue_ladder, load_path,
                  mild_residual, named_g, run_ladder, sample_path, save_path,
                  simulate, step, truncate_problem, uniform_stream)
from srds.errors import AuditError, SolverFailure
from srds.noise import MODAL_BLOCK_FLOATS, NoiseModel
from srds.solver import (Problem, StoppingRecord, Trajectory, _resolve_increments,
                         _step_runs, _truncate, dyadic_level)

import reference
from conftest import build_fhn_problem, build_scalar_heat_problem, const_init
from test_writers import _calls


def zero_noise_fhn(n=32):
    return build_fhn_problem(scale=0.0, n=n)


def _fields(problem, increments):
    """The (r, n) modal fields ``step`` takes, from one step's (r, K)
    increments."""
    return problem.noise.modal_fields(increments[None])[0]


# --- single steps -------------------------------------------------------------


def test_constant_state_no_drift_no_noise_is_fixed():
    prob = build_scalar_heat_problem(n=16)
    cfg = SolverConfig(dt=0.01, t_end=0.1)
    path = sample_path(0, 1, 4, 10, 0.01)
    traj = simulate(prob, cfg, path, np.full((1, 16), 3.5))
    assert np.max(np.abs(traj.final - 3.5)) <= 1e-11


def test_constant_fhn_matches_scalar_ode_oracle():
    prob = zero_noise_fhn()
    dt, t_end = 1e-3, 0.5
    cfg = SolverConfig(dt=dt, t_end=t_end)
    path = sample_path(0, 2, 8, round(t_end / dt), dt)
    traj = simulate(prob, cfg, path, const_init(prob, 0.3, -0.1))
    # oracle: the same semi-implicit rule on scalars; A vanishes on
    # constants so the implicit solve is the identity
    u, v = 0.3, -0.1
    for _ in range(round(t_end / dt)):
        fu = u - u**3 + v
        fv = u - v
        u, v = u + dt * fu, v + dt * fv
    assert np.allclose(traj.final[0], u, atol=1e-10)
    assert np.allclose(traj.final[1], v, atol=1e-10)


def test_single_step_closed_form_with_noise():
    # constant state, K = 1 with e_0 = 1 on [0,1]: the implicit solve is the
    # identity on constants, so u+ = u + dt f(u) + sqrt|u| * db exactly
    grid = build_grid(1, [1.0], [8])
    import srds

    op = srds.EllipticOperator(grid, srds.CoefficientField.constant(grid, a=1.0))
    basis = cosine_neumann_basis(grid, 1)
    noise = build_noise([basis] * 2, [np.array([1.0])] * 2,
                        [named_g("sqrt-abs")] * 2)
    prob = Problem(grid=grid, operators=(op, op), reaction=fhn_system(1, 1),
                   noise=noise)
    dt = 1e-4
    cfg = SolverConfig(dt=dt, t_end=dt)
    u0 = const_init(prob, 0.25, 0.5)
    path = sample_path(42, 2, 1, 1, dt)
    db = path.increments[:, 0, 0]
    out = step(prob, cfg, u0, _fields(prob, path.increments[:, :, 0]),
               *_step_runs(prob, dt))
    f1 = 0.25 - 0.25**3 + 0.5
    f2 = 0.25 - 0.5
    assert np.allclose(out[0], 0.25 + dt * f1 + np.sqrt(0.25) * db[0], atol=1e-12)
    assert np.allclose(out[1], 0.5 + dt * f2 + np.sqrt(0.5) * db[1], atol=1e-12)


def test_tamed_scheme_damps_large_drift():
    prob = zero_noise_fhn(n=8)
    big = const_init(prob, 5.0, 0.0)
    dt = 0.1
    still = _fields(prob, np.zeros((2, prob.noise.modes)))
    plain = step(prob, SolverConfig(dt=dt, t_end=dt), big, still, *_step_runs(prob, dt))
    tamed = step(prob, SolverConfig(dt=dt, t_end=dt, scheme="tamed-semi-implicit"),
                 big, still, *_step_runs(prob, dt))
    # drift at u=5 is strongly negative; taming shrinks the move
    assert abs(tamed[0, 0] - 5.0) < abs(plain[0, 0] - 5.0)


# --- full runs ------------------------------------------------------------------


def test_tamed_simulation_stays_finite_on_stiff_start():
    prob = zero_noise_fhn(n=16)
    cfg = SolverConfig(dt=0.05, t_end=5.0, scheme="tamed-semi-implicit",
                       store_stride=100)
    path = sample_path(0, 2, 8, 100, 0.05)
    traj = simulate(prob, cfg, path, const_init(prob, 3.0, 0.0))
    assert np.all(np.isfinite(traj.states))
    # taming still relaxes toward the O(1) attractor
    assert traj.sup_norms[-1].max() < 3.0


def test_heat_equation_decay_rate():
    prob = build_scalar_heat_problem(n=64)
    n, dt, t_end = 64, 1.0 / 2048, 0.5
    x = prob.grid.centers[:, 0]
    u0 = np.cos(np.pi * x)[None, :]
    cfg = SolverConfig(dt=dt, t_end=t_end, store_stride=2048)
    path = sample_path(0, 1, 4, round(t_end / dt), dt)
    traj = simulate(prob, cfg, path, u0)
    mu1 = (2.0 * n**2) * (1.0 - np.cos(np.pi / n))
    decay = traj.sup_norms[-1][0]
    expected = np.exp(-mu1 * t_end)
    assert abs(decay - expected) / expected <= dt * mu1**2 * t_end


@pytest.mark.parametrize("n_cells,n_paths", [([32], 20), ([32, 32], 5)])
def test_additive_linear_run_follows_its_mode_recursion(n_cells, n_paths):
    # g = 1, drift -c u, a uniform operator (1D: LU, 2D: DCT) and a zero
    # start: the state stays in the span of the orthonormal cosine modes
    # e_k, eigenvectors of A, and each coefficient a_k = <u, e_k> follows
    # a_k <- ((1 - c dt) a_k + lambda_k dW_k) / (1 - dt mu_k) exactly, so
    # one formula pins sampling, modal fields, g and the solve
    from srds.noise import HolderFunction
    from srds.reaction import PolynomialDrift, ReactionSystem, coupling_none

    c, dt, n_steps, modes = 0.5, 1e-3, 200, 8
    grid = build_grid(len(n_cells), [1.0] * len(n_cells), n_cells)
    op = EllipticOperator(grid, CoefficientField.constant(grid, a=1.0))
    basis = cosine_neumann_basis(grid, modes)
    lam = (np.arange(modes) + 1.0) ** -1.0
    one = HolderFunction(np.ones_like, 1.0, 0.0, lambda m: 0.0, name="one")
    prob = Problem(grid=grid, operators=(op,),
                   reaction=ReactionSystem([PolynomialDrift([-c])], [coupling_none(1)]),
                   noise=build_noise([basis], [lam], [one]))
    assert (op.cosine_spectrum is None) == (grid.dim == 1)
    e = basis.values
    mu = np.einsum("kx,xk->k", e, op.matrix @ e.T) * grid.cell_volume
    cfg = SolverConfig(dt=dt, t_end=n_steps * dt)
    worst = 0.0
    for p in range(n_paths):
        path = sample_path(3, 1, modes, n_steps, dt, path_index=p)
        traj = simulate(prob, cfg, path, np.zeros((1, grid.n_total)))
        coeffs = traj.states[:, 0] @ e.T * grid.cell_volume  # (n_steps + 1, K)
        oracle = np.zeros_like(coeffs)
        for i in range(n_steps):
            oracle[i + 1] = (((1.0 - c * dt) * oracle[i] + lam * path.increments[0, :, i])
                             / (1.0 - dt * mu))
        worst = max(worst, np.abs(coeffs - oracle).max() / np.abs(oracle).max())
    assert worst <= 1e-12


def test_immediate_cap_breach():
    prob = zero_noise_fhn(n=8)
    cfg = SolverConfig(dt=0.01, t_end=0.1, sup_cap=0.5)
    path = sample_path(0, 2, 8, 10, 0.01)
    traj = simulate(prob, cfg, path, const_init(prob, 1.0, 1.0))
    assert traj.stopping.triggered
    assert traj.stopping.time == 0.0
    assert len(traj.times) == 1


def test_bitwise_determinism():
    prob = build_fhn_problem()
    cfg = SolverConfig(dt=1e-3, t_end=0.05, sup_cap=8.0)
    path = sample_path(7, 2, 8, 50, 1e-3)
    init = const_init(prob, 0.2, 0.2)
    a = simulate(prob, cfg, path, init)
    b = simulate(prob, cfg, path, init)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.sup_norms, b.sup_norms)


def test_non_finite_state_aborts_with_step_index():
    prob = zero_noise_fhn(n=8)
    cfg = SolverConfig(dt=0.01, t_end=0.1)
    path = sample_path(0, 2, 8, 10, 0.01)
    init = const_init(prob, 1e308, 0.0)
    with pytest.raises(SolverFailure) as err:
        simulate(prob, cfg, path, init)
    assert err.value.step is not None


def test_dt_must_be_dyadic_multiple_of_dt_fine():
    prob = zero_noise_fhn(n=8)
    path = sample_path(0, 2, 8, 30, 1e-3)
    with pytest.raises(ValueError, match="power-of-two"):
        simulate(prob, SolverConfig(dt=3e-3, t_end=0.03), path,
                 const_init(prob, 0.1, 0.1))


def test_store_stride_keeps_endpoints():
    prob = build_fhn_problem()
    cfg = SolverConfig(dt=1e-3, t_end=0.05, store_stride=7)
    path = sample_path(3, 2, 8, 50, 1e-3)
    traj = simulate(prob, cfg, path, const_init(prob, 0.2, 0.2))
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.05)
    assert len(traj.sup_norms) == 51  # norms at full resolution regardless


def test_apriori_sup_bound_zero_noise_zero_coupling():
    # single component, drift s - s^3, no coupling, no noise:
    # ||u(t)|| <= ||u0|| + t * a' with the certified (F1)-side constant
    from srds.reaction import PolynomialDrift, ReactionSystem, coupling_none
    import srds

    grid = build_grid(1, [1.0], [16])
    op = srds.EllipticOperator(grid, srds.CoefficientField.constant(grid, a=1.0))
    reaction = ReactionSystem([PolynomialDrift([1.0, 0.0, -1.0], epsilon_lead=1.0)],
                              [coupling_none(1)])
    basis = cosine_neumann_basis(grid, 2)
    noise = build_noise([basis], [np.zeros(2)], [named_g("sqrt-abs")], audit=False)
    prob = Problem(grid=grid, operators=(op,), reaction=reaction, noise=noise)
    a_prime = reaction.certificates[0].a_prime
    dt, t_end = 1e-3, 2.0
    cfg = SolverConfig(dt=dt, t_end=t_end, store_stride=100)
    path = sample_path(0, 1, 2, 2000, dt)
    x = grid.centers[:, 0]
    traj = simulate(prob, cfg, path, (0.5 + 0.4 * np.cos(np.pi * x))[None, :])
    times = np.arange(len(traj.sup_norms)) * dt
    assert np.all(traj.sup_norms[:, 0] <= 0.9 + a_prime * times + 1e-9)


# --- truncation -----------------------------------------------------------------


def _truncated_reaction(reaction, u, level):
    """F^(n)(u): the reaction at the two points ``step`` takes from the
    truncation map at the bounds ``_step_runs`` builds."""
    return reaction.evaluate(*_truncate(u, (np.array(-level), np.array(level))))


def _one_step(problem, u, dt=1e-3, seed=0):
    """One step of ``problem`` from state u on a fixed path."""
    cfg = SolverConfig(dt=dt, t_end=dt)
    path = sample_path(seed, problem.r, problem.noise.modes, 1, dt)
    return step(problem, cfg, u, _fields(problem, path.coarse(0)[:, :, 0]),
                *_step_runs(problem, dt))


def test_truncated_drift_freezes_beyond_level():
    prob = zero_noise_fhn()
    # base drift s - s^3 frozen at |s| = 2: h(3) = h(2) = 2 - 8 = -6; the
    # coupling k1 = v reads the radial projection (2, 0) of (3, 0), so 0
    u = const_init(prob, 3.0, 0.0)
    assert np.all(_truncated_reaction(prob.reaction, u, 2.0)[0] == 2.0 - 8.0)
    # constants are fixed by the implicit solve, so one step is explicit Euler
    trunc = _one_step(truncate_problem(prob, 2.0), u)
    plain = _one_step(prob, u)
    assert trunc[0] == pytest.approx(np.full(32, 3.0 + 1e-3 * (2.0 - 8.0)), abs=1e-12)
    assert plain[0] == pytest.approx(np.full(32, 3.0 + 1e-3 * (3.0 - 27.0)), abs=1e-12)
    # pure cubic from a fresh one-component system
    from srds.reaction import PolynomialDrift, ReactionSystem, coupling_none

    cubic = ReactionSystem([PolynomialDrift([0.0, 0.0, -1.0], epsilon_lead=1.0)],
                           [coupling_none(1)])
    assert _truncated_reaction(cubic, np.array([[3.0]]), 2.0)[0, 0] == pytest.approx(-8.0)


def test_truncation_identity_inside_ball_bitwise():
    prob = build_fhn_problem()
    trunc = truncate_problem(prob, 4.0)
    assert trunc.reaction is prob.reaction and trunc.noise is prob.noise
    rng = np.random.default_rng(0)
    u = rng.uniform(-1.9, 1.9, size=(2, 32))  # l1 column norms < 4
    assert np.array_equal(prob.reaction.evaluate(u), _truncated_reaction(prob.reaction, u, 4.0))
    assert np.array_equal(_one_step(prob, u), _one_step(trunc, u))
    # the level is live: just outside the ball the step differs
    assert not np.array_equal(_one_step(prob, 2.2 * u), _one_step(trunc, 2.2 * u))


def test_truncated_coupling_radial_projection():
    prob = build_fhn_problem()
    s = np.array([[0.0], [3.0]])
    # k1(u, v) = v frozen on the l1-ball: ||s||_1 = 3 -> evaluate at (0, 1)
    assert _truncated_reaction(prob.reaction, s, 1.0)[0, 0] == pytest.approx(1.0)
    # through step: h1(0) = 0, so u+ = dt * k1 on constants without noise
    zero = zero_noise_fhn()
    u = const_init(zero, 0.0, 3.0)
    assert _one_step(truncate_problem(zero, 1.0), u)[0] == pytest.approx(
        np.full(32, 1e-3 * 1.0), abs=1e-12)
    assert _one_step(zero, u)[0] == pytest.approx(np.full(32, 1e-3 * 3.0), abs=1e-12)


def _evaluate_points_before_truncate(u, level):
    """A copy of the truncated path ``ReactionSystem.evaluate(u, level)``
    took before ``_truncate`` owned it, inside-ball shortcut included: the
    (drift, coupling) points its drifts and couplings read."""
    u = np.asarray(u, dtype=float)
    drift_at = coupling_at = u
    norms = np.abs(u).sum(axis=0)
    if not norms.max() <= level:
        drift_at = np.minimum(np.maximum(u, -level), level)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            coupling_at = u * np.where(norms > level, level / norms, 1.0)
    return drift_at, coupling_at


# NaN and +-inf put a cell outside any ball; signed zeros and subnormals
# give zero or subnormal norms, whose level / norms overflows
_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
            2.2250738585072014e-308]


@settings(max_examples=300)
@given(r=st.integers(1, 3), n=st.integers(1, 8), level=st.floats(1.0, 64.0),
       where=st.sampled_from(["inside", "on", "outside"]), data=st.data())
def test_truncate_matches_the_evaluate_it_replaced(r, n, level, where, data):
    # entries of at most level / r keep a cell inside or on the ball; one
    # cell is put exactly on it or just outside; far-out entries, NaN and inf
    # put cells outside
    entry = st.one_of(st.sampled_from(_SPECIAL), st.floats(-level / r, level / r),
                      st.floats(-1e300, 1e300))
    u = np.reshape(data.draw(st.lists(entry, min_size=r * n, max_size=r * n),
                             label="state"), (r, n))
    cell = data.draw(st.integers(0, n - 1), label="cell")
    if where != "inside":
        u[:, cell] = 0.0
        u[0, cell] = level if where == "on" else np.nextafter(level, math.inf)
    event(f"{where}, every cell inside" if np.abs(u).sum(axis=0).max() <= level
          else f"{where}, a cell outside")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the floating-point state _advance, the map's caller, owns: a cell
        # holding inf projects to inf * 0 = NaN
        with np.errstate(over="ignore", invalid="ignore"):
            clipped, projected = _truncate(u, (np.array(-level), np.array(level)))
        drift_at, coupling_at = _evaluate_points_before_truncate(u, level)
    assert clipped.tobytes() == drift_at.tobytes()
    assert projected.tobytes() == coupling_at.tobytes()


_CLIP_AND_PROJECTION = {"np.minimum", "np.maximum", "np.clip", "np.where", "np.fmax"}


def test_truncation_has_one_owner(monkeypatch):
    src = Path(srds.solver.__file__).parent
    reaction = ast.parse((src / "reaction.py").read_text())
    # the reaction takes no truncation level and reads none
    assert not [node for node in ast.walk(reaction)
                if isinstance(node, ast.arg) and node.arg == "level"
                or isinstance(node, ast.Name) and node.id == "level"]
    system = next(node for node in reaction.body
                  if isinstance(node, ast.ClassDef) and node.name == "ReactionSystem")
    evaluate = next(node for node in system.body
                    if isinstance(node, ast.FunctionDef) and node.name == "evaluate")
    assert not [c for _, c in _calls(evaluate) if c in _CLIP_AND_PROJECTION]
    assert not [node for node in ast.walk(evaluate)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)]
    # the clip and the projection of a step live in _truncate alone, which
    # has no inside-ball branch
    solver = ast.parse((src / "solver.py").read_text())
    assert sorted(site for site in _calls(solver) if site[1] in _CLIP_AND_PROJECTION) == [
        ("_truncate", "np.fmax"), ("_truncate", "np.maximum"), ("_truncate", "np.minimum")]
    truncate = next(node for node in solver.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_truncate")
    assert not [node for node in ast.walk(truncate) if isinstance(node, (ast.If, ast.IfExp))]
    # a truncated step maps its state once, for the drifts, couplings and g
    calls = []
    monkeypatch.setattr(srds.solver, "_truncate",
                        lambda *args: calls.append(1) or _truncate(*args))
    prob = build_fhn_problem()
    _one_step(truncate_problem(prob, 1.0), const_init(prob, 0.6, 0.6))
    assert len(calls) == 1


def _compared_names(func):
    """Every name and attribute read inside a comparison of ``func``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for c in ast.walk(func) if isinstance(c, ast.Compare)
            for n in ast.walk(c) if isinstance(n, (ast.Name, ast.Attribute))}


def test_stopping_has_one_judge():
    src = Path(srds.solver.__file__).parent
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    # one record per run, built after its loop, and one per ladder level
    assert sorted(site for tree in trees.values() for site in _calls(tree)
                  if site[1] == "StoppingRecord") == [
        ("exit_index", "StoppingRecord"), ("simulate", "StoppingRecord")]
    # simulate judges no state: _advance's _first_exit judges step 0 too
    simulate_def = next(node for node in trees["solver.py"].body
                        if isinstance(node, ast.FunctionDef) and node.name == "simulate")
    assert not _compared_names(simulate_def) & {"cap", "sup_cap", "cap_level"}
    assert not [c for _, c in _calls(simulate_def) if c in ("math.isfinite", "_first_exit")]
    # the experiments read a level's exit from its record, not from E-norms
    assert "e_norms" not in _compared_names(trees["experiments.py"])


def test_one_reduction_judges_each_block():
    solver = ast.parse(Path(srds.solver.__file__).read_text())
    functions = {node.name: node for node in solver.body
                 if isinstance(node, ast.FunctionDef)}
    # the ball is judged from the cap judge's rows, by no second norm
    assert "_ball_exit" not in functions
    # one np.abs of a block of states, in _advance; _first_exit reads rows
    reduced = [(where, node.args[0].id) for where, tree in functions.items()
               for node in ast.walk(tree) if isinstance(node, ast.Call)
               and ast.unparse(node.func) == "np.abs"
               and isinstance(node.args[0], ast.Name)]
    assert [site for site in reduced if site[1] in ("states", "block")] == [
        ("_advance", "states")]
    assert not [c for _, c in _calls(functions["_first_exit"]) if c == "np.abs"]
    # one owner of the stepping loops' floating-point state: _quiet, entered
    # by _advance's blocks, its helper thread's modal fields and
    # mild_residual's loop
    assert [where for where, c in _calls(solver) if c == "np.errstate"] == ["_quiet"]
    assert sorted(where for where, c in _calls(solver) if c == "_quiet") == [
        "_advance", "_advance", "mild_residual"]


def test_one_driver_mode():
    # _advance steps simulate's runs in one mode; mild_residual steps its own
    # loop, and nothing else in the package calls step
    src = Path(srds.solver.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    advance = next(node for node in trees["solver"].body
                   if isinstance(node, ast.FunctionDef) and node.name == "_advance")
    args = advance.args
    assert "points" not in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    sites = {(stem, where) for stem, tree in trees.items() for where, c in _calls(tree)
             if c == "step"}
    assert sites == {("solver", "_advance"), ("solver", "mild_residual")}
    assert ("mild_residual", "_advance") not in _calls(trees["solver"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cap", [None, 8.0])
def test_non_finite_initial_state_fails_at_step_zero(bad, cap):
    prob = build_fhn_problem(n=8)
    cfg = SolverConfig(dt=1e-3, t_end=4e-3, sup_cap=cap)
    init = const_init(prob, 0.2, 0.2)
    init[1, 3] = bad
    with pytest.raises(SolverFailure) as err:
        simulate(prob, cfg, sample_path(0, 2, 8, 4, 1e-3), init)
    assert (err.value.reason, err.value.detail, err.value.step) == (
        "non-finite-state", "component 1 cell 3", 0)


def test_truncation_insensitivity_bitwise():
    prob = build_fhn_problem(scale=0.5)
    cfg = SolverConfig(dt=1e-3, t_end=0.1)
    path = sample_path(17, 2, 8, 100, 1e-3)
    init = const_init(prob, 0.2, 0.2)
    t4 = simulate(truncate_problem(prob, 4.0), cfg, path, init)
    t8 = simulate(truncate_problem(prob, 8.0), cfg, path, init)
    assert t4.e_norms().max() < 4.0  # the path never leaves the level-4 ball
    assert np.array_equal(t4.states, t8.states)


# --- gluing ---------------------------------------------------------------------


def test_inactive_truncation_matches_plain_run():
    prob = build_fhn_problem(scale=0.5)
    cfg = SolverConfig(dt=1e-3, t_end=0.1)
    path = sample_path(23, 2, 8, 100, 1e-3)
    init = const_init(prob, 0.2, 0.2)
    plain = simulate(prob, cfg, path, init)
    glued, exits = glue_ladder(prob, cfg, path, init, [64.0])
    assert np.array_equal(glued.states, plain.states)


def test_ladder_disagreement_raises(monkeypatch):
    import srds.experiments

    k = 5
    simulate_level = srds.experiments.simulate

    def perturbed(problem, *args, **kwargs):
        traj = simulate_level(problem, *args, **kwargs)
        if problem.level == 2.0:
            traj.sup_norms[k, 0] = np.nextafter(traj.sup_norms[k, 0], np.inf)
        return traj

    monkeypatch.setattr(srds.experiments, "simulate", perturbed)
    prob = build_fhn_problem(scale=0.5)
    cfg = SolverConfig(dt=1e-3, t_end=0.1)
    path = sample_path(23, 2, 8, 100, 1e-3)
    with pytest.raises(SolverFailure) as err:
        glue_ladder(prob, cfg, path, const_init(prob, 0.2, 0.2), [1.0, 2.0])
    assert err.value.reason == "ladder-inconsistency"
    assert err.value.detail == f"levels 1.0/2.0 disagree at step {k}"


def test_ladder_compares_the_off_stride_final_state(monkeypatch):
    # 10 steps at stride 3 store steps 0, 3, 6, 9 and the final step 10;
    # one ulp in a non-maximal cell of level 8's final state leaves every
    # norm equal, so only the state comparison can see it
    import srds.experiments

    simulate_level = srds.experiments.simulate

    def perturbed(problem, *args, **kwargs):
        traj = simulate_level(problem, *args, **kwargs)
        if problem.level == 8.0:
            final = traj.states[-1, 0]
            cell = int(np.argmin(np.abs(final)))
            final[cell] = np.nextafter(final[cell], np.inf)
            assert np.abs(final).max() == traj.sup_norms[-1, 0]
        return traj

    monkeypatch.setattr(srds.experiments, "simulate", perturbed)
    prob = build_fhn_problem(scale=0.5)
    cfg = SolverConfig(dt=1e-3, t_end=1e-2, store_stride=3)
    path = sample_path(23, 2, 8, 10, 1e-3)
    with pytest.raises(SolverFailure) as err:
        run_ladder(prob, cfg, path, const_init(prob, 0.2, 0.2), [4.0, 8.0])
    assert err.value.reason == "ladder-inconsistency"
    assert err.value.detail == "levels 4.0/8.0 disagree at step -1"


def test_ladder_exit_times_nondecreasing():
    prob = build_fhn_problem(scale=1.0)
    cfg = SolverConfig(dt=1e-3, t_end=0.25)
    init = const_init(prob, 0.5, 0.5)
    for p in range(4):
        path = sample_path(29, 2, 8, 250, 1e-3, path_index=p)
        glued, exits = glue_ladder(prob, cfg, path, init, [1.0, 2.0, 4.0, 8.0])
        steps = [e.step_index for e in exits]
        assert steps == sorted(steps)


def test_glued_trajectory_keeps_final_state_at_coarse_stride():
    prob = build_fhn_problem(scale=0.5)
    cfg = SolverConfig(dt=1e-3, t_end=0.05, store_stride=7)
    path = sample_path(23, 2, 8, 50, 1e-3)
    init = const_init(prob, 0.2, 0.2)
    glued, exits = glue_ladder(prob, cfg, path, init, [64.0])
    assert glued.times[-1] == pytest.approx(0.05)
    assert not glued.stopping.triggered


def test_ladder_immediate_exit():
    prob = build_fhn_problem()
    cfg = SolverConfig(dt=1e-3, t_end=0.05)
    path = sample_path(31, 2, 8, 50, 1e-3)
    glued, exits = glue_ladder(prob, cfg, path, const_init(prob, 2.0, 2.0), [1.0])
    assert [e.step_index for e in exits] == [0]
    assert len(glued.times) == 1
    assert glued.stopping.triggered
    assert glued.stopping.criterion == "e-norm-sum"


def test_ladder_exit_at_final_step_triggers():
    # the E-norm first exceeds the top level at the last step: rho_n = T, as
    # for a run that never exits, but the stopping record must say it exited
    prob = build_fhn_problem(scale=1.0)
    cfg = SolverConfig(dt=1e-3, t_end=2e-3)
    path = sample_path(29, 2, 8, 250, 1e-3)
    glued, exits = glue_ladder(prob, cfg, path, const_init(prob, 0.5, 0.5), [1.0])
    assert [e.step_index for e in exits] == [2]
    assert glued.e_norms()[-1] > 1.0
    assert glued.stopping.triggered
    assert glued.stopping.step_index == 2


_LADDER = build_fhn_problem(n=8, modes=4, scale=2.0)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), start=st.floats(0.0, 1.5),
       gaps=st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_ladder_glues_a_prefix_of_each_run(seed, start, gaps):
    # inside the truncation ball every level steps bitwise like the
    # untruncated problem, so run_ladder never raises, rho_n is nondecreasing
    # in n and the glued trajectory is a prefix of the top level's run and of
    # the untruncated one
    prob = _LADDER
    levels = [0.75 + q / 4.0 for q in itertools.accumulate(gaps)]
    cfg = SolverConfig(dt=2e-2, t_end=0.8)
    path = sample_path(seed, 2, 4, 40, 2e-2)
    init = const_init(prob, start, start)
    trajs, exits = run_ladder(prob, cfg, path, init, levels)
    glued, glued_exits = glue_ladder(prob, cfg, path, init, levels)
    steps = [e.step_index for e in exits]
    assert glued_exits == exits and steps == sorted(steps)
    assert glued.stopping == exits[-1]
    cut = steps[-1]
    event(f"{sum(0 < e < cfg.n_steps for e in steps)} of {len(exits)} "
          "levels exit mid-run")
    top = simulate(truncate_problem(prob, levels[-1]), cfg, path, init)
    plain = simulate(prob, cfg, path, init)
    for run in (trajs[-1], top, plain):
        assert np.array_equal(glued.states, run.states[:cut + 1])
        assert np.array_equal(glued.sup_norms, run.sup_norms[:cut + 1])


def test_exit_index_sum_criterion():
    prob = build_fhn_problem()
    cfg = SolverConfig(dt=1e-3, t_end=0.02)
    path = sample_path(0, 2, 8, 20, 1e-3)
    traj = simulate(prob, cfg, path, const_init(prob, 0.6, 0.6))
    # E-norm is about 1.2 > 1 at t=0 for the sum criterion
    early, never = exit_index(traj, 1.0), exit_index(traj, 64.0)
    assert (early.step_index, early.triggered) == (0, True)
    assert (never.step_index, never.triggered) == (20, False)
    assert never == StoppingRecord(False, 64.0, 20 * cfg.dt, 20, "e-norm-sum")


# --- mild residual ---------------------------------------------------------------


def test_mild_residual_zero_for_pure_semigroup():
    prob = build_scalar_heat_problem(n=32)
    dt = 1e-2
    cfg = SolverConfig(dt=dt, t_end=0.2, store_stride=1)
    path = sample_path(0, 1, 4, 20, dt)
    x = prob.grid.centers[:, 0]
    traj = simulate(prob, cfg, path, np.cos(np.pi * x)[None, :])
    res = mild_residual(prob, traj, path, [0.1, 0.2])
    assert np.all(res <= 1e-12)


def test_mild_residual_first_order_deterministic():
    prob = build_fhn_problem(scale=0.0)
    x = prob.grid.centers[:, 0]
    init = np.stack([0.2 + 0.1 * np.cos(np.pi * x),
                     0.2 + 0.05 * np.cos(2 * np.pi * x)])
    resids = []
    for j in range(3):
        dt = (1.0 / 128) / (1 << j)
        cfg = SolverConfig(dt=dt, t_end=0.25, store_stride=1)
        path = sample_path(0, 2, 8, round(0.25 / dt), dt)
        traj = simulate(prob, cfg, path, init)
        resids.append(mild_residual(prob, traj, path, [0.25])[0])
    ratios = [b / a for a, b in zip(resids, resids[1:])]
    assert all(abs(r - 0.5) <= 0.15 for r in ratios)


def test_mild_residual_requires_stride_one():
    prob = build_fhn_problem()
    cfg = SolverConfig(dt=1e-3, t_end=0.01, store_stride=5)
    path = sample_path(0, 2, 8, 10, 1e-3)
    traj = simulate(prob, cfg, path, const_init(prob, 0.2, 0.2))
    with pytest.raises(ValueError, match="stride"):
        mild_residual(prob, traj, path, [0.01])


def _stored_run(states, dt):
    """A trajectory stored at every step, untriggered, holding ``states``."""
    n = len(states) - 1
    return Trajectory(times=np.arange(n + 1) * dt, states=states,
                      sup_norms=np.abs(states).max(axis=2), min_values=states.min(axis=2),
                      dt=dt, store_stride=1,
                      stopping=StoppingRecord(False, math.inf, n * dt, n))


@pytest.mark.parametrize("k", [0, 1, 5, 1050])
def test_mild_residual_fails_at_the_first_non_finite_state(k):
    # the reconstruction reads the drift at stored state k: an entry of 1e110
    # there cubes beyond the largest float (1e100 would not: 1e300), so the
    # state it builds at step k is not finite, in the first chunk or a later
    # one (1024 steps of a 2 x 32 state); a NaN stored state 0 fails at once
    prob = zero_noise_fhn()
    dt, n = 1e-3, 1100
    states = np.full((n + 1, 2, 32), 0.2)
    if k == 0:
        states[0, 1, 3] = math.nan
    else:
        states[k, 0, 7] = 1e110
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailure) as err:
            mild_residual(prob, _stored_run(states, dt), sample_path(0, 2, 8, n, dt), [n * dt])
    assert (err.value.reason, err.value.detail, err.value.step) == (
        "non-finite-state", "component 1 cell 3" if k == 0 else "component 0 cell 0", k)


def test_mild_residual_builds_one_chunk_of_fields_at_a_time(monkeypatch):
    # a 2D run of 20 steps in chunks of 8 (a 2 x 64 x 64 state): the fields
    # come one chunk at a time, on the calling thread, never the whole run
    grid, chunk, _ = _chunk_grid(2)
    op = EllipticOperator(grid, CoefficientField.constant(grid, a=1.0))
    noise = build_noise([cosine_neumann_basis(grid, 4)] * 2, [np.ones(4)] * 2,
                        [named_g("sqrt-abs")] * 2, audit=False)
    prob = Problem(grid=grid, operators=(op, op), reaction=fhn_system(1.0, 1.0),
                   noise=noise)
    cfg = SolverConfig(dt=1e-3, t_end=0.02)
    path = sample_path(3, 2, 4, 20, 1e-3)
    traj = simulate(prob, cfg, path, np.full((2, grid.n_total), 0.2))
    whole = mild_residual(prob, traj, path, [0.01, 0.02])
    built = []
    modal_fields = NoiseModel.modal_fields

    def recording(self, increments, out=None):
        built.append(len(increments))
        return modal_fields(self, increments, out)

    monkeypatch.setattr(NoiseModel, "modal_fields", recording)
    assert _threads_kept(mild_residual, prob, traj, path, [0.01, 0.02]).tolist() == whole.tolist()
    assert built == [chunk, chunk, 20 - 2 * chunk]
    assert chunk == MODAL_BLOCK_FLOATS // (2 * grid.n_total)


def test_mild_residual_probe_beyond_stop_rejected():
    prob = build_fhn_problem()
    cfg = SolverConfig(dt=1e-3, t_end=0.05, sup_cap=0.1, store_stride=1)
    path = sample_path(0, 2, 8, 50, 1e-3)
    traj = simulate(prob, cfg, path, const_init(prob, 0.2, 0.2))
    assert traj.stopping.triggered
    with pytest.raises(ValueError, match="stopping"):
        mild_residual(prob, traj, path, [0.05])


# --- common-path refinement -------------------------------------------------------


def test_2d_simulation_runs_and_contracts():
    import srds
    from srds.reaction import ReactionSystem, coupling_none

    grid = build_grid(2, [1.0, 1.0], [8, 8])
    op = srds.EllipticOperator(grid, srds.CoefficientField.constant(grid, a=1.0))
    basis = cosine_neumann_basis(grid, 4)
    noise = build_noise([basis], [np.zeros(4)], [named_g("sqrt-abs")], audit=False)
    prob = Problem(grid=grid, operators=(op,),
                   reaction=ReactionSystem([None], [coupling_none(1)], audit=False),
                   noise=noise)
    x = grid.centers
    u0 = np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
    cfg = SolverConfig(dt=1e-2, t_end=0.1)
    traj = simulate(prob, cfg, sample_path(0, 1, 4, 10, 1e-2), u0[None, :])
    assert traj.sup_norms[-1][0] < traj.sup_norms[0][0]
    assert np.all(np.diff(traj.sup_norms[:, 0]) <= 1e-12)


def test_loaded_path_replays_bitwise(tmp_path):
    from srds import load_path, save_path

    prob = build_fhn_problem()
    cfg = SolverConfig(dt=1e-3, t_end=0.03)
    path = sample_path(55, 2, 8, 30, 1e-3, path_index=6)
    file = tmp_path / "w.bin"
    save_path(path, file)
    replay = load_path(file)
    assert replay.path_index == 6
    init = const_init(prob, 0.2, 0.2)
    a = simulate(prob, cfg, path, init)
    b = simulate(prob, cfg, replay, init)
    assert np.array_equal(a.states, b.states)


def test_common_path_refinement_gap_shrinks():
    prob = build_fhn_problem(scale=0.1)
    init = const_init(prob, 0.2, 0.2)
    path = sample_path(13, 2, 8, 64, 1.0 / 256)
    finals = []
    for j in range(3):
        cfg = SolverConfig(dt=(1.0 / 64) / (1 << j), t_end=0.25, store_stride=1000)
        finals.append(simulate(prob, cfg, path, init).final)
    g01 = np.max(np.abs(finals[0] - finals[1]))
    g12 = np.max(np.abs(finals[1] - finals[2]))
    assert g12 < g01


DT_FINE = st.floats(1e-6, 1e2)


@settings(max_examples=60)
@given(j=st.integers(0, 6), dt_fine=DT_FINE)
def test_dyadic_level_matches_coarsening(j, dt_fine):
    dt = dt_fine * 2.0**j
    assert dyadic_level(dt, dt_fine) == j
    path = sample_path(9, 1, 2, 2 * 2**6, dt_fine)  # two steps at j = 6
    inc = _resolve_increments(SolverConfig(dt=dt, t_end=2 * dt), path)
    assert np.array_equal(inc, path.coarse(j))


@settings(max_examples=60)
@given(ratio=st.floats(1e-3, 64.0), dt_fine=DT_FINE)
def test_dyadic_level_rejects_other_ratios(ratio, dt_fine):
    near = 2.0 ** round(np.log2(ratio))
    assume(ratio < 1.0 - 1e-6 or abs(ratio - near) > 1e-6 * ratio)
    with pytest.raises(ValueError, match="power-of-two"):
        dyadic_level(ratio * dt_fine, dt_fine)


def test_retruncation_relevels_every_term():
    from srds import build_problem, preset_fhn

    prob, _, _ = build_problem(preset_fhn())
    direct = truncate_problem(prob, 8.0)
    again = truncate_problem(truncate_problem(prob, 4.0), 8.0)
    assert again.level == direct.level == 8.0
    assert again.digest() == direct.digest() != prob.digest()
    assert truncate_problem(prob, 4.0).digest() != direct.digest()
    # states between the levels and beyond both: drift, coupling and g all
    # read the level-8 ball, not the level-4 one
    u = np.resize(np.array([[6.0, -7.0, 0.5, 12.0], [1.0, 0.5, 3.0, -2.0]]),
                  (2, prob.grid.n_total))
    assert np.array_equal(_one_step(again, u), _one_step(direct, u))
    assert not np.array_equal(_one_step(again, u),
                              _one_step(truncate_problem(prob, 4.0), u))
    assert not np.array_equal(_one_step(again, u), _one_step(prob, u))


def test_truncation_level_is_checked():
    prob = zero_noise_fhn()
    for bad in (0.5, 0.0, -2.0):
        with pytest.raises(ValueError, match=f"^truncation level must be >= 1, got {bad}$"):
            truncate_problem(prob, bad)
    with pytest.raises(ValueError, match="^truncation level must be a finite number, got nan$"):
        truncate_problem(prob, float("nan"))


def _run_bits(traj):
    return (traj.stopping, traj.dt, traj.store_stride, traj.times.tobytes(),
            traj.states.tobytes(), traj.sup_norms.tobytes(), traj.min_values.tobytes())


@pytest.mark.filterwarnings("error")
def test_an_infinite_level_is_the_untruncated_problem():
    # level +inf is the n -> inf limit, stored as None: a run truncated at
    # every step, one step with its plan and a member forked from an
    # untruncated one are the untruncated run's bits (a truncation map at
    # inf divides inf by inf, and exit_index could not read level None)
    from srds.experiments import Member, run_members

    prob = build_fhn_problem(scale=0.5)
    at_inf = replace(prob, level=math.inf)
    cfg = SolverConfig(dt=1.0 / 32, t_end=0.25, store_stride=3)
    init = const_init(prob, 0.45, 0.45)
    path = sample_path(7, prob.r, prob.noise.modes, cfg.n_steps, cfg.dt)
    ref = simulate(prob, cfg, path, init)
    assert _run_bits(simulate(at_inf, cfg, path, init, ball_test=False)) == _run_bits(ref)
    fields = _fields(prob, path.coarse(0)[:, :, 0])
    assert (step(at_inf, cfg, init, fields, *_step_runs(at_inf, cfg.dt)).tobytes()
            == step(prob, cfg, init, fields, *_step_runs(prob, cfg.dt)).tobytes())
    # the fork resumes at the last step of the member it forks from
    trajs = run_members(prob, cfg, [Member(path, init), Member(path, init, fork=0)])
    assert [_run_bits(t) for t in trajs] == [_run_bits(ref)] * 2
    assert exit_index(ref, None) == exit_index(ref, math.inf) == StoppingRecord(
        False, math.inf, ref.times[-1], cfg.n_steps, "e-norm-sum")
    assert at_inf.level is None and at_inf.digest() == prob.digest()
    assert truncate_problem(prob, math.inf) == at_inf
    assert truncate_problem(prob, 1).level == 1.0


_NON_FINITE = [math.nan, math.inf, -math.inf]
_FINITE = " must be a finite number, got (nan|inf|-inf)$"
_TIMES = "^dt" + _FINITE
_DRIFT = "coefficients must be finite, got (nan|inf|-inf)$"
_COUPLING = "growth constant c[12]" + _FINITE
_DT_FINE = "dt_fine" + _FINITE
_MODULUS = "modulus (constant|power)" + _FINITE


def _noise_with_exponent(alpha):
    """``build_noise``, which audits, of an amplitude declaring exponent alpha."""
    g = HolderFunction(np.abs, 1.0, 1.0, lambda m: 1.0, exponent=alpha)
    return build_noise([cosine_neumann_basis(_PROP_GRID, 2)], [np.ones(2)], [g])


def _load_path_with_dt(dt_fine):
    """``load_path`` of a saved path whose header records ``dt_fine``."""
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "path.bin"
        save_path(replace(sample_path(0, 1, 1, 2, 0.5), dt_fine=dt_fine), file)
        return load_path(file)


@pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build, reason", [
    (lambda x: SolverConfig(dt=x, t_end=1.0), _TIMES),
    (lambda x: SolverConfig(dt=1e-3, t_end=x), "^t_end" + _FINITE),
    (lambda x: SolverConfig(dt=x, t_end=x), _TIMES),
    (lambda x: SolverConfig(dt=0.1, t_end=1.0, store_stride=x),
     "store_stride must be an integer, got (nan|inf|-inf)$"),
    (lambda x: PolynomialDrift([x, -1.0, -1.0]), _DRIFT),
    (lambda x: PolynomialDrift([1.0, x, -1.0]), _DRIFT),
    (lambda x: PolynomialDrift([[1.0, 0.0, -1.0], [1.0, 0.0, x]]), _DRIFT),
    (lambda x: coupling_linear([x, 1.0]), _COUPLING),
    (lambda x: coupling_linear([1.0, x]), _COUPLING),
    (lambda x: sample_path(0, 2, 8, 10, x), _DT_FINE),
    (lambda x: gaussian_entry(0, 0, 0, 0, 5, x), _DT_FINE),
    (_load_path_with_dt, "corrupt srds path file"),
    (lambda x: PowerModulus(x), _MODULUS),
    (lambda x: PowerModulus(1.0, x), _MODULUS),
    (_noise_with_exponent, "non-finite-constant: exponent = "),
    (lambda x: ReactionSystem([None], [CouplingTerm(lambda s: s[0], 0.0, 1.0, x)]),
     "non-finite-constant: L_1 = "),
    (lambda x: check_quasi_positive(fhn_system(), lipschitz_m=x),
     "Lipschitz constant" + _FINITE),
    (lambda x: check_quasi_positive(fhn_system(), range_m=x),
     "range_m" + _FINITE),
    (lambda x: build_grid(1, [x], [32]), r"extents\[0\]" + _FINITE),
    (lambda x: CoefficientField.constant(_PROP_GRID, m_bound=x), "ellipticity: .*finite M"),
    (lambda x: _PROP_OP.stepper(x), "^dt" + _FINITE),
    (lambda x: evolve_semigroup(_PROP_OP, x, np.ones(8)), "^t" + _FINITE),
], ids=["dt", "t_end", "dt-and-t_end", "store_stride", "drift-w1", "drift-w2",
        "drift-per-cell-lead", "coupling-row-0", "coupling-row-1", "sample_path-dt_fine",
        "gaussian_entry-dt_fine", "load_path-dt_fine", "power-modulus-constant",
        "power-modulus-power", "holder-exponent", "coupling-lipschitz",
        "quasi-positive-lipschitz", "quasi-positive-range", "grid-extent",
        "coefficient-m_bound", "stepper-dt", "evolve_semigroup-t"])
def test_constructors_refuse_non_finite_numbers(build, reason, bad):
    # each raised its own way before: a NaN-to-integer or OverflowError from
    # n_steps, a singular factor, a check that NaN passed, or nothing until a
    # run met NaN at step 1
    with pytest.raises((ValueError, AuditError), match=reason):
        build(bad)


@pytest.mark.parametrize("build, reason", [
    (lambda: SolverConfig(dt=0.1, t_end=1.0, store_stride=2.5),
     "store_stride must be an integer, got 2.5"),
    (lambda: SolverConfig(dt=0.1, t_end=1.0, store_stride=True),
     "store_stride must be an integer, got True"),
    (lambda: SolverConfig(dt=0.1, t_end=1.0, sup_cap=0.0), "sup_cap must be > 0, got 0.0"),
    (lambda: SolverConfig(dt=0.1, t_end=1.0, sup_cap=-1.0), "sup_cap must be > 0, got -1.0"),
    (lambda: SolverConfig(dt=0.1, t_end=1.0, sup_cap=-math.inf),
     "sup_cap must be a finite number, got -inf"),
    (lambda: evolve_semigroup(_PROP_OP, -1.0, np.ones(8)), "t must be > 0, got -1.0"),
    (lambda: evolve_semigroup(_PROP_OP, 1.0, np.ones(8), n_substeps=0),
     "n_substeps must be >= 1, got 0"),
    (lambda: evolve_semigroup(_PROP_OP, 1.0, np.ones(8), n_substeps=2.5),
     "n_substeps must be an integer, got 2.5"),
    (lambda: _noise_with_exponent(1.5), r"exponent: exponent = 1.5 outside \(0, 1\]"),
    (lambda: _noise_with_exponent(0.0), r"exponent: exponent = 0.0 outside \(0, 1\]"),
    (lambda: cosine_neumann_basis(_PROP_GRID, 0), "modes must be >= 1, got 0"),
    (lambda: check_quasi_positive(fhn_system(), grid_samples=0),
     "grid_samples must be >= 1, got 0"),
    (lambda: build_mollifier(PowerModulus(1.0), 2.5), "n_max must be an integer, got 2.5"),
    (lambda: sample_path(0, 2.0, 8, 10, 1e-3), "components must be an integer, got 2.0"),
    (lambda: sample_path(0, True, 8, 10, 1e-3), "components must be an integer, got True"),
    (lambda: sample_path(0, 2, 8.0, 10, 1e-3), "modes must be an integer, got 8.0"),
    (lambda: sample_path(0, 2, 8, 10.0, 1e-3), "n_fine must be an integer, got 10.0"),
    (lambda: sample_path(0, 2, 8, True, 1e-3), "n_fine must be an integer, got True"),
    (lambda: sample_path(0, 2, 8, 10, 1e-3, path_index=1.5),
     "path_index must be an integer, got 1.5"),
    (lambda: gaussian_entry(0, 0, 0, 0, -1, 1e-3), "step must be >= 0, got -1"),
    (lambda: gaussian_entry(0, 0, 0, 0, 1.5, 1e-3), "step must be an integer, got 1.5"),
    (lambda: uniform_stream(0, 0, 0, 0, -1), "n must be >= 0, got -1"),
    (lambda: uniform_stream(0, 0, 0, 0, 4.0), "n must be an integer, got 4.0"),
    (lambda: uniform_stream(0, 0, 1.5, 0, 4), "component must be an integer, got 1.5"),
    (lambda: uniform_stream(0, 0, True, 0, 4), "component must be an integer, got True"),
    (lambda: uniform_stream(0, 1.0, 0, 0, 2), "path_index must be an integer, got 1.0"),
    (lambda: gaussian_entry(0, 0, 0, True, 3, 1e-3), "mode must be an integer, got True"),
    (lambda: build_grid(1, [1.0], [32.7]), r"n_cells\[0\] must be an integer, got 32.7"),
    (lambda: build_grid(2, [1.0, 1.0], [8, True]), r"n_cells\[1\] must be an integer, got True"),
    (lambda: build_grid(1.0, [1.0], [32]), "dim must be an integer, got 1.0"),
    (lambda: build_grid(True, [1.0], [32]), "dim must be an integer, got True"),
    (lambda: build_noise([cosine_neumann_basis(_PROP_GRID, 4)], [np.ones((4, 1))],
                         [named_g("sqrt-abs")]),
     r"noise-shape: lambdas of shape \(4, 1\) for 4 modes"),
    (lambda: build_noise([cosine_neumann_basis(_PROP_GRID, 4)], [np.ones((2, 2))],
                         [named_g("sqrt-abs")]),
     r"noise-shape: lambdas of shape \(2, 2\) for 4 modes"),
], ids=["store_stride-float", "store_stride-bool", "sup_cap-zero", "sup_cap-negative",
        "sup_cap--inf", "evolve_semigroup-negative-t",
        "evolve_semigroup-no-substeps", "evolve_semigroup-float-substeps",
        "holder-exponent-above-1", "holder-exponent-0", "basis-no-modes",
        "quasi-positive-no-samples", "mollifier-float-n_max", "sample_path-float-components",
        "sample_path-bool-components", "sample_path-float-modes", "sample_path-float-n_fine",
        "sample_path-bool-n_fine", "sample_path-float-path_index",
        "gaussian_entry-negative-step", "gaussian_entry-float-step",
        "uniform_stream-negative-n", "uniform_stream-float-n", "uniform_stream-float-component",
        "uniform_stream-bool-component", "uniform_stream-float-path_index",
        "gaussian_entry-bool-mode", "grid-float-count",
        "grid-bool-count", "grid-float-dim", "grid-bool-dim", "lambdas-column",
        "lambdas-square"])
def test_constructors_refuse_out_of_range_numbers(build, reason):
    # a float or bool stride failed at the first store or read as 1, a
    # negative t ran the semigroup backwards and no substeps divided by zero;
    # a count of zero, a float or a bool failed with an IndexError, numpy's
    # zero-size reduction error or a TypeError, a grid built 32 cells from
    # 32.7 and kept a float dim, and a (4, 1) lambda array read as 4 lambdas
    with pytest.raises((ValueError, AuditError), match=reason):
        build()


@pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan", "inf", "-inf"])
def test_documented_non_finite_values_are_accepted(bad):
    # a NaN or inf sup cap is no cap, stored as None, and a -inf one would
    # stop every run at step 0: it is a row of the out-of-range table; an
    # infinite truncation level is the untruncated problem, stored as None;
    # a NaN or -inf level is refused; an infinite resolvent parameter is the
    # exact limit, the identity
    if bad != -math.inf:
        cfg = SolverConfig(dt=0.1, t_end=1.0, sup_cap=bad)
        assert cfg.n_steps == 10 and cfg.sup_cap is None
    f = np.linspace(-1.0, 2.0, 8)
    if bad == math.inf:
        assert apply_resolvent(_PROP_OP, bad, f).tobytes() == f.tobytes()
    else:
        with pytest.raises(ValueError, match=f"^lambda must be a finite number, got {bad}$"):
            apply_resolvent(_PROP_OP, bad, f)
    prob = zero_noise_fhn()
    if bad == math.inf:
        assert replace(prob, level=bad).level is None
    else:
        with pytest.raises(ValueError,
                           match=f"^truncation level must be a finite number, got {bad}$"):
            replace(prob, level=bad)


def test_an_int_spelled_config_is_the_float_config():
    # 8 and 8.0 are one cap: one descriptor, so one provenance
    cfg = SolverConfig(dt=0.125, t_end=1, sup_cap=8)
    assert (cfg.t_end, cfg.sup_cap) == (1.0, 8.0)
    assert type(cfg.t_end) is float and type(cfg.sup_cap) is float
    assert cfg.descriptor() == SolverConfig(dt=0.125, t_end=1.0, sup_cap=8.0).descriptor()


# random odd-degree drifts with a negative lead, linear coupling rows, a
# named amplitude, a level and states on a fixed grid and noise basis
_PROP_GRID = build_grid(1, [1.0], [8])
_PROP_OP = EllipticOperator(_PROP_GRID, CoefficientField.constant(_PROP_GRID, a=1.0))


def _prop_problem(drifts, rows, g_name, lam):
    from srds.reaction import PolynomialDrift, ReactionSystem, coupling_linear

    basis = cosine_neumann_basis(_PROP_GRID, 4)
    reaction = ReactionSystem([PolynomialDrift(c, epsilon_lead=0.05) for c in drifts],
                              [coupling_linear(r) for r in rows])
    noise = build_noise([basis] * 2, [np.asarray(lam)] * 2, [named_g(g_name)] * 2,
                        audit=False)
    return Problem(grid=_PROP_GRID, operators=(_PROP_OP, _PROP_OP),
                   reaction=reaction, noise=noise)


def _eighths(lo, hi):
    # multiples of 1/8: no tiny coefficients whose spurious critical points
    # overflow the certificate's root finding
    return st.integers(lo, hi).map(lambda k: k / 8)


_COEF = _eighths(-16, 16)
_DRIFT = st.integers(0, 2).flatmap(
    lambda n: st.tuples(st.lists(_COEF, min_size=2 * n, max_size=2 * n),
                        _eighths(-16, -1))
).map(lambda t: t[0] + [t[1]])


@settings(max_examples=50)
@given(drifts=st.lists(_DRIFT, min_size=2, max_size=2),
       rows=st.lists(st.lists(_COEF, min_size=2, max_size=2), min_size=2, max_size=2),
       g_name=st.sampled_from(["sqrt-abs", "sqrt-pos", "sqrt-clipped-01",
                               "lipschitz:1"]),
       lam=st.lists(_eighths(0, 8), min_size=4, max_size=4),
       level=st.floats(1.0, 64.0),
       unit=st.lists(st.integers(-1000, 1000), min_size=16, max_size=16),
       spread=_eighths(0, 32),
       seed=st.integers(0, 2**16))
def test_truncation_property(drifts, rows, g_name, lam, level, unit, spread, seed):
    prob = _prop_problem(drifts, rows, g_name, lam)
    trunc = truncate_problem(prob, level)
    unit = np.reshape(unit, (2, 8)) / 1000
    # inside the ball (l1 column norms below the level) the truncated step
    # is the plain step, bitwise
    inside = unit * (0.499 * level)
    assert np.array_equal(_one_step(trunc, inside, seed=seed),
                          _one_step(prob, inside, seed=seed))
    # anywhere: the step is the scheme's statement, whose drifts and g read
    # clip(u) and whose couplings read u's radial projection
    u = unit * (level * spread)
    inc = sample_path(seed, 2, 4, 1, 1e-3).coarse(0)[:, :, 0]  # as _one_step's
    assert np.array_equal(_one_step(trunc, u, seed=seed),
                          reference.step(trunc, SolverConfig(dt=1e-3, t_end=1e-3), u, inc))


# --- every run against the scheme's plain-loop statement ----------------------
# tests/reference.py states the scheme as a per-step, per-component loop that
# truncates at every step; simulate, run_ladder and mild_residual must match
# it bit for bit, whatever their blocks, chunks, helper thread and ball test.


def _outcome(run, *args):
    try:
        return run(*args)
    except SolverFailure as exc:
        return (exc.reason, exc.detail, exc.step)


def _assert_same_trajectory(got, ref):
    assert np.array_equal(got.times, ref.times)
    assert np.array_equal(got.states, ref.states)
    assert np.array_equal(got.sup_norms, ref.sup_norms)
    assert np.array_equal(got.min_values, ref.min_values)
    assert got.stopping == ref.stopping


def _chunk_grid(dim):
    """(grid, steps per modal chunk, modal budget) of the runs over several
    chunks: at r = 2 a 2D grid of 64 x 64 cells steps in blocks of one step
    and chunks of 8 (at the default MODAL_BLOCK_FLOATS), and a 1D grid of 32
    cells in blocks of 64 steps and, at a budget of 2^13 floats, chunks of
    128."""
    if dim == 2:
        return build_grid(2, [1.0, 1.0], [64, 64]), 8, MODAL_BLOCK_FLOATS
    return build_grid(1, [1.0], [32]), 128, 1 << 13


def _kicked(path, component, i, size):
    """``path`` with mode 0's increments zero but ``size`` at coarse index
    i of ``component`` (the step from state i to i + 1)."""
    from srds.rng import WienerPath

    inc = path.increments.copy()
    inc[:, 0] = 0.0
    inc[component, 0, i] = size
    return WienerPath(path.master_seed, path.path_index, path.components, path.modes,
                      path.n_fine, path.dt_fine, inc)


# nonnegative weights in quarters, one per component, adding up to 4
_SPLITS = {1: [(4,)], 2: [(2, 2), (1, 3), (3, 1)], 3: [(1, 1, 2), (1, 2, 1), (2, 1, 1)]}


@st.composite
def _cases(draw, shape, variant):
    """(problem, config, path, initial, extra) of one shape.  Every shape
    draws drifts (or none), linear couplings, a named amplitude, lambdas,
    both schemes, a store stride and a path.

    - "block": r = 1-3 on a 1D grid (LU) or a 2D grid (constant
      coefficients: DCT; per-cell: LU), each component picking one of two
      operators (shared or distinct, contiguous or not) and its own modes,
      amplitude and lambdas; a truncation level or none, dt of 1, 2 or 4
      fine steps and initial states up to overflowing sizes.  ``variant``
      "mixed" draws r = 2-3 and shares amplitude objects from a pool of
      three in a layout of two or more amplitude runs.
    - "ball": a truncated problem, r = 1-2 with a cubic first drift, on a
      1D or a constant-coefficient 2D grid, whose state starts near the
      boundary of its ball, so that noise carries it out and back in; or a
      path with one huge increment, which throws the state far outside
      (where the untruncated step from it overflows, the truncated one does
      not) or makes it NaN.
    - "ladder": r = 1-3 on a 1D grid, 2-4 levels (multiples of 1/4) and a
      start near, on or beyond one of their balls, with noise strong enough
      to carry the state across them: exits fall mid-block and off the
      stride.
    - "chunks": r = 2 sharing one operator and one mode table on a grid of
      ``_chunk_grid``, run over more than two modal chunks.  ``variant``
      "ball" and "cap" kick the state at a chunk's last or first step or
      inside a later chunk, "overflow" gives mode 0 a lambda near the
      largest float and kicks its increment so that the field of a step in
      a later chunk overflows, and "residual" stores every step.

    ``extra`` holds an rng for the checks' own draws, "cap_at" (block and
    ball: the record step a sup cap is set at, or None), "kick" (ball: the
    huge increment or None; chunks: the kicked step) and "levels" (ladder).
    """
    from srds.reaction import PolynomialDrift, ReactionSystem
    from srds.rng import WienerPath

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extra = {"rng": rng, "cap_at": None, "kick": None}
    if shape == "chunks":
        r, dim = 2, draw(st.sampled_from([2, 1]))
        grid = _chunk_grid(dim)[0]
    else:
        r = draw(st.integers(2 if variant == "mixed" else 1, 2 if shape == "ball" else 3))
        dim = 1 if shape == "ladder" else draw(st.sampled_from([1, 2]))
        grid = build_grid(dim, [1.0] * dim, draw(st.lists(
            st.integers(3, 10 if dim == 1 else 5), min_size=dim, max_size=dim)))
    op = EllipticOperator(grid, CoefficientField.constant(grid, a=1.0))
    ops = (op,) * r
    if shape == "block":
        pool = [op, EllipticOperator(grid, CoefficientField.from_arrays(
            grid, rng.uniform(0.6, 1.8, size=(grid.n_total, dim)),
            rng.uniform(0.0, 1.0, size=grid.n_total), 0.5, 2.0))]
        ops = tuple(pool[i] for i in draw(st.sampled_from(
            list(itertools.product((0, 1), repeat=r)))))
    drifts = draw(st.lists(st.one_of(st.none(), _DRIFT), min_size=r, max_size=r))
    if shape == "ball":  # from far outside, a cubic's untruncated step overflows
        drifts[0] = [1.0, 0.0, -1.0]
    rows = draw(st.lists(st.lists(_COEF, min_size=r, max_size=r), min_size=r,
                         max_size=r))
    reaction = ReactionSystem(
        [None if c is None else PolynomialDrift(c, epsilon_lead=0.05) for c in drifts],
        [coupling_linear(row) for row in rows], audit=False)
    if shape == "block":  # per-component modes, amplitudes and lambdas
        modes = [min(k, grid.n_total) for k in  # no aliased mode
                 draw(st.lists(st.integers(1, 4), min_size=r, max_size=r))]
        if variant == "mixed":  # amplitude objects shared in runs of any layout
            pool = [named_g(name) for name in ("sqrt-abs", "lipschitz:1", "sqrt-pos")]
            gs = [pool[i] for i in draw(st.sampled_from(
                [p for p in itertools.product(range(r), repeat=r) if len(set(p)) > 1]))]
        else:
            gs = [named_g(name) for name in draw(st.lists(
                st.sampled_from(["sqrt-abs", "sqrt-pos", "lipschitz:1"]),
                min_size=r, max_size=r))]
        noise = build_noise([cosine_neumann_basis(grid, k) for k in modes],
                            [rng.uniform(0.0, 8.0, size=k) for k in modes], gs,
                            audit=False)
    else:  # one mode table and one amplitude
        modes = [min(draw(st.integers(1, 8 if shape == "chunks" else 4)), grid.n_total)] * r
        lam = rng.uniform(*{"ball": (2.0, 8.0), "ladder": (4.0, 16.0),
                            "chunks": (0.5, 4.0)}[shape], size=modes[0])
        if variant == "overflow":
            lam[0] = 1e308  # e_0 = 1: the table holds it, a product of it overflows
        g = named_g(draw(st.sampled_from(["sqrt-abs-shifted", "sqrt-abs", "lipschitz:1"])))
        noise = build_noise([cosine_neumann_basis(grid, modes[0])] * r, [lam] * r,
                            [g] * r, audit=False)
    level = {"block": st.one_of(st.none(), st.floats(1.0, 8.0)),
             "ball": st.floats(1.0, 8.0)}.get(shape, st.none())
    problem = Problem(grid=grid, operators=ops, reaction=reaction, noise=noise,
                      level=draw(level))
    j = draw(st.integers(0, 2)) if shape == "block" else 0
    if shape == "chunks":
        chunk = _chunk_grid(dim)[1]
        n_steps = 2 * chunk + draw(st.integers(5, 2 * chunk))
    elif shape == "ladder":  # drawn largest first: a long run forks and exits more
        n_steps = 64 - draw(st.integers(4, 60))
    else:
        n_steps = draw(st.integers(1, 12) if shape == "block" else st.integers(4, 24))
    config = SolverConfig(
        dt=1e-3 * 2**j, t_end=1e-3 * 2**j * n_steps,
        scheme=draw(st.sampled_from(["semi-implicit", "tamed-semi-implicit"])),
        store_stride=1 if variant == "residual" else draw(st.integers(1, 4)))
    path = sample_path(draw(st.integers(0, 2**16)), r, max(modes), n_steps * 2**j, 1e-3)
    if shape == "block":
        scale = draw(st.sampled_from([0.5, 1e120, 4.0]))  # 1e120: cubes overflow
        # signed fields, or nearly flat ones whose sup norm the noise can raise
        lo = draw(st.sampled_from([-1.0, 0.9]))
        initial = rng.uniform(lo, 1.0, size=(r, grid.n_total)) * scale
    elif shape == "ball":
        kick = extra["kick"] = draw(st.sampled_from([None, None, 1e104, 1e308]))
        if kick is not None:
            inc = path.increments.copy()
            inc[:, :, draw(st.integers(1, n_steps - 1))] = kick
            path = WienerPath(path.master_seed, path.path_index, r, max(modes), n_steps,
                              1e-3, inc)
        # every cell's l1 norm at most the level, the largest near it
        initial = rng.uniform(-1.0, 1.0, size=(r, grid.n_total))
        initial *= draw(st.floats(0.8, 1.0)) * problem.level / np.abs(initial).sum(axis=0).max()
    elif shape == "ladder":
        count = draw(st.sampled_from([4, 3, 2]))
        gaps = draw(st.lists(st.integers(1, 4), min_size=count, max_size=count))
        levels = extra["levels"] = [0.75 + q / 4.0 for q in itertools.accumulate(gaps)]
        target = draw(st.sampled_from(levels))
        where = draw(st.sampled_from(["near", "on", "beyond"]))
        if where == "on":  # an E-norm of exactly the level
            quarters = np.array(draw(st.sampled_from(_SPLITS[r])), dtype=float)
            initial = rng.choice([-1.0, 1.0], size=(r, grid.n_total)) * (
                target * quarters / 4.0)[:, None]
        else:
            initial = rng.uniform(-1.0, 1.0, size=(r, grid.n_total))
            factor = draw(st.floats(0.85, 0.99) if where == "near" else st.floats(1.01, 1.2))
            initial *= factor * target / np.abs(initial).max(axis=1).sum()
        event(f"start {where} a ball")
    else:
        initial = rng.uniform(-1.0, 1.0, size=(2, grid.n_total))
        if variant == "ball":  # the exit: the last step of a chunk or the first of the next
            extra["kick"] = draw(st.sampled_from([
                m * chunk + d for m in range(1, n_steps // chunk + 1) for d in (0, 1)
                if m * chunk + d <= n_steps]))
        elif variant in ("cap", "overflow"):
            extra["kick"] = draw(st.integers(chunk + 1, n_steps))
        if extra["kick"] is not None:
            size = 4.0 if variant == "overflow" else draw(st.sampled_from([-1e4, 1e4]))
            path = _kicked(path, draw(st.integers(0, 1)), extra["kick"] - 1, size)
    if shape in ("block", "ball"):
        extra["cap_at"] = draw(st.one_of(st.none(), st.integers(0, n_steps)))
    return problem, config, path, initial, extra


def _check_run(shape, budget, case):
    """``simulate`` at a state budget (None: STATE_BLOCK_FLOATS) against the
    reference; with a "cap_at", under a sup cap between the uncapped run's
    running maximum of the sup norm before a step where it sets a new record
    and that record, so that the capped run exits there.  Then one step at
    separate drift and noise points, as ``mild_residual`` takes them."""
    problem, config, path, initial, extra = case
    ref = _outcome(reference.simulate, problem, config, path, initial)
    if shape == "ball":
        event(f"kick {extra['kick']}" if extra["kick"] else "out and back in")
        if extra["kick"] is None:  # the runs that leave the ball and come back into it
            rho = None if isinstance(ref, tuple) else exit_index(ref, problem.level)
            assume(rho is not None and rho.triggered and bool(
                (ref.e_norms()[rho.step_index:] <= problem.level).any()))
    exit_at = None
    if extra["cap_at"] is not None and not isinstance(ref, tuple):
        m = ref.sup_norms.max(axis=1)
        running = np.maximum.accumulate(m)
        records = [0] + [i for i in range(1, len(m)) if m[i] > running[i - 1]]
        exit_at = records[-1 - extra["cap_at"] % len(records)]
        cap = 0.5 * m[0] if exit_at == 0 else 0.5 * (running[exit_at - 1] + m[exit_at])
        config = replace(config, sup_cap=float(cap))
        ref = reference.simulate(problem, config, path, initial)
    with pytest.MonkeyPatch.context() as mp:
        if budget == "mixed":  # the amplitude runs split
            assert len(_step_runs(problem, config.dt)[1]) > 1
        elif budget is not None:  # blocks of 1, 2 or 5 steps
            mp.setattr(srds.solver, "STATE_BLOCK_FLOATS",
                       int(budget.split()[0]) * problem.grid.n_total * problem.r)
        got = _outcome(simulate, problem, config, path, initial)
    ids = [id(op) for op in problem.operators]
    event(f"dim {problem.grid.dim}, {type(problem.operators[0].stepper(config.dt)).__name__}")
    event(f"{len(set(ids))} of {len(ids)} operators distinct"
          + (", shared apart" if len(ids) == 3 and ids[0] == ids[2] != ids[1] else ""))
    event("failure" if isinstance(ref, tuple) else
          f"cap exit at step {'0' if ref.stopping.step_index == 0 else '> 0'}"
          if ref.stopping.triggered else "ran to t_end")
    if isinstance(ref, tuple):
        assert got == ref  # same reason, detail and step
    else:
        assert not isinstance(got, tuple), got
        _assert_same_trajectory(got, ref)
        if exit_at is not None:
            assert got.stopping.triggered and got.stopping.step_index == exit_at
    u, v, w = extra["rng"].uniform(-2.0, 2.0, size=(3,) + initial.shape)
    inc = path.coarse(dyadic_level(config.dt, path.dt_fine))[:, :, 0]
    assert np.array_equal(
        step(problem, config, u, _fields(problem, inc), *_step_runs(problem, config.dt),
             drift_at=v, noise_at=w),
        reference.step(problem, config, u, inc, drift_at=v, noise_at=w))


def _check_ladder(case):
    """``run_ladder``, whose levels above the second fork from the level
    below at its exit, against every level stepped from step 0."""
    problem, config, path, initial, extra = case
    levels = extra["levels"]
    ref = _outcome(reference.ladder, problem, config, path, initial, levels)
    got = _outcome(run_ladder, problem, config, path, initial, levels)
    if isinstance(ref[0], str):  # a failure's (reason, detail, step)
        event("failure")
        assert got == ref
        return
    (trajs, exits), (ref_trajs, ref_exits) = got, ref
    assert exits == ref_exits
    for traj, ref_traj in zip(trajs, ref_trajs):
        _assert_same_trajectory(traj, ref_traj)
    # the exits the levels above them resume at, strictly inside the run
    mid = [rho.step_index for rho in exits[1:-1] if 0 < rho.step_index < config.n_steps]
    event("a level resumes at an exit off the stride"
          if any(i % config.store_stride for i in mid) else
          "a level resumes at an exit on the stride" if mid else "no exit mid-run below the top")


def _threads_kept(run, *args, **kwargs):
    """``_outcome`` of ``run``, asserting that no thread outlives it."""
    import threading

    before = threading.active_count()
    out = _outcome(lambda: run(*args, **kwargs))
    assert threading.active_count() == before
    return out


def _check_chunks(kind, case):
    """A run over more than two modal chunks, each after the first built
    ahead on the run's helper thread, against the reference: to its end, to
    a cap exit, resumed off a chunk boundary, out of its ball, through an
    overflowing field, or its mild residual."""
    problem, config, path, initial, extra = case
    kick = extra["kick"]
    _, chunk, budget = _chunk_grid(problem.grid.dim)
    event(f"dim {problem.grid.dim}")
    if kind == "ball":
        # a level between the E-norms before the kicked step and at it
        e = reference.simulate(problem, replace(config, t_end=kick * config.dt,
                                                store_stride=1), path, initial).e_norms()
        level = max(1.0, 0.5 * (e[:kick].max() + e[kick]))
        assume(e[kick] > level)  # the kick carries the state out
        problem = truncate_problem(problem, level)
    elif kind == "cap":
        m = reference.simulate(problem, replace(config, t_end=kick * config.dt),
                               path, initial).sup_norms.max(axis=1)
        assume(m[kick] > m[:kick].max())
        config = replace(config, sup_cap=float(0.5 * (m[:kick].max() + m[kick])))
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error")
        mp.setattr(srds.solver, "MODAL_BLOCK_FLOATS", budget)
        got = _threads_kept(simulate, problem, config, path, initial)
        ref = _outcome(reference.simulate, problem, config, path, initial)
        if kind == "overflow":  # mode 0's field is inf at the kicked step
            event("failure at the kicked step" if isinstance(got, tuple)
                  and got[2] == kick else "failure before it")
            assert isinstance(got, tuple) and got == ref
            return
        assume(not isinstance(ref, tuple))
        assert not isinstance(got, tuple), got
        _assert_same_trajectory(got, ref)
        if kind == "cap":
            assert got.stopping.triggered and got.stopping.step_index == kick
        elif kind == "ball":
            assert exit_index(got, problem.level).step_index == kick
        elif kind == "prefix":  # resumed off a chunk boundary, still over three chunks
            stride = config.store_stride
            s = extra["rng"].choice([
                s for s in range(stride, config.n_steps - 2 * chunk, stride) if s % chunk])
            _assert_same_trajectory(_threads_kept(simulate, problem, config, path,
                                                  initial, prefix=got.until(int(s))), got)
        elif kind == "residual":
            probes = sorted({1, chunk, chunk + 1, config.n_steps})
            res = _threads_kept(mild_residual, problem, got, path,
                                [s * config.dt for s in probes])
            assert res.tolist() == reference.residuals(problem, got, path, probes)


# examples per (shape, variant); a block or ball variant is a state budget,
# or for a block "mixed": r = 2-3 components whose amplitude objects differ
# between runs, so that the amplitude runs split
_EXAMPLES = {
    ("block", None): 300,
    ("block", "mixed"): 80,
    **{("block", budget): 40 for budget in ("1 step", "2 steps", "5 steps")},
    **{("ball", budget): 60 for budget in (None, "1 step", "2 steps", "5 steps")},
    ("ladder", None): 100,
    **{("chunks", kind): 10 for kind in ("run", "cap", "prefix", "ball", "residual",
                                         "overflow")},
}


@pytest.mark.parametrize("shape, variant", list(_EXAMPLES),
                         ids=[f"{shape}-{variant or 'default'}" for shape, variant in _EXAMPLES])
def test_runs_match_the_reference(shape, variant):
    @settings(max_examples=_EXAMPLES[shape, variant])
    @given(case=_cases(shape, variant))
    def check(case):
        if shape == "ladder":
            _check_ladder(case)
        elif shape == "chunks":
            _check_chunks(variant, case)
        else:
            _check_run(shape, variant, case)

    check()


def test_property_tests_are_derandomized():
    # tests/conftest.py loads one profile for every property test: each runs
    # the same examples on every run, with no deadline on a slow host
    assert settings.default.derandomize and settings.default.deadline is None


def test_ball_exit_at_the_first_step_drops_no_step(monkeypatch):
    # untruncated blocks start at one step: a run that leaves its ball at
    # once computes no step it then drops.  Growth 50 u carries the state
    # from just inside level 1 out at step 1, and the frozen coupling keeps
    # it outside.
    from srds.reaction import ReactionSystem, coupling_linear

    problem = replace(build_scalar_heat_problem(n=32), level=1.0, reaction=ReactionSystem(
        [None], [coupling_linear([50.0])], audit=False))
    cfg = SolverConfig(dt=1e-3, t_end=0.1)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(srds.solver, "step", counting)
    traj = simulate(problem, cfg, sample_path(0, 1, 4, 100, 1e-3), const_init(problem, 0.99))
    e = traj.e_norms()
    assert e[0] <= 1.0 < e[1] and (e[1:] > 1.0).all()
    assert len(calls) == cfg.n_steps == len(e) - 1


def _recording_steps(mp):
    """Wrap ``srds.solver.step``; the returned list gets (bounded, u) per
    call: whether the step is truncated, and a copy of its state."""
    calls = []

    def recording(problem, config, u, fields, groups, runs, dt, bounds, **points):
        calls.append((bounds is not None, u.copy()))
        return step(problem, config, u, fields, groups, runs, dt, bounds, **points)

    mp.setattr(srds.solver, "step", recording)
    return calls


@settings(max_examples=60)
@given(case=_cases("ball", None))
def test_untruncated_steps_end_at_the_exit(case):
    # the ball is the E-norm ball the ladder exits: no step from a state
    # before rho_n carries bounds, and the first that does steps from the
    # state at rho_n (none does when the run ends at or before rho_n)
    problem, config, path, initial, extra = case
    kick = extra["kick"]
    config = replace(config, store_stride=1)
    with pytest.MonkeyPatch.context() as mp:
        calls = _recording_steps(mp)
        traj = _outcome(simulate, problem, config, path, initial)
    event("failure" if isinstance(traj, tuple) else f"kick {kick}")
    assume(not isinstance(traj, tuple))
    rho = exit_index(traj, problem.level)
    bounded = [i for i, (truncated, _) in enumerate(calls) if truncated]
    for i in range(rho.step_index):
        assert calls[i][1].tobytes() == traj.states[i].tobytes()
    if rho.triggered and rho.step_index < len(traj.sup_norms) - 1:
        event("exit, then truncated steps")
        assert bounded and bounded[0] >= rho.step_index
        assert calls[bounded[0]][1].tobytes() == traj.states[rho.step_index].tobytes()
    else:
        event("no step after an exit")
        assert not bounded


def test_truncated_run_through_an_overflow_does_not_warn():
    # a kick of 1e308, as in the ball cases, overflows the modal field of step
    # 4 to inf, and its solve makes the state NaN; the block's later steps
    # run on it unreported.  _advance owns the floating-point state, so no
    # RuntimeWarning escapes, and the failure is located at its step.
    from srds.rng import WienerPath

    problem = truncate_problem(build_fhn_problem(n=8, scale=4.0), 1.0)
    cfg = SolverConfig(dt=1e-3, t_end=0.02)
    path = sample_path(0, 2, 8, 20, 1e-3)
    inc = path.increments.copy()
    inc[:, 0, 3] = 1e308
    path = WienerPath(0, 0, 2, 8, 20, 1e-3, inc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailure) as err:
            simulate(problem, cfg, path, const_init(problem, 0.6, 0.6))
    assert (err.value.reason, err.value.step) == ("non-finite-state", 4)


def test_a_state_between_the_balls_steps_truncated(monkeypatch):
    # every cell's l1 norm is at most 0.65, inside the l1 ball of radius 1,
    # but the E-norm 0.6 + 0.6 = 1.2 is not <= 1: rho_1 = 0, and the run
    # steps truncated from its first step
    problem = build_fhn_problem()
    initial = const_init(problem, 0.05, 0.05)
    initial[0, 0] = initial[1, -1] = 0.6
    cfg = SolverConfig(dt=1e-3, t_end=0.05)
    path = sample_path(0, 2, 8, 50, 1e-3)
    calls = _recording_steps(monkeypatch)
    traj = simulate(truncate_problem(problem, 1.0), cfg, path, initial)
    rho = exit_index(traj, 1.0)
    assert (rho.triggered, rho.step_index) == (True, 0)
    assert len(calls) == cfg.n_steps and calls[0][0]
    # every state stays inside the l1 ball, where the map is the identity:
    # the untruncated run's bits
    assert np.abs(traj.states).sum(axis=1).max() <= 1.0
    assert traj.final.tobytes() == simulate(problem, cfg, path, initial).final.tobytes()


@settings(max_examples=200)
@given(r=st.integers(8, 12), n=st.integers(2, 6), data=st.data())
def test_every_cell_norm_is_within_the_e_norm(r, n, data):
    # numpy's row sum groups 8 or more terms pairwise, which puts a cell
    # holding every component's largest entry beyond it about half the
    # time; _e_norms adds the components in order, as _truncate sums a
    # cell's l1 norm, so a state whose E-norm is <= n has no cell beyond
    # the l1 ball of radius n
    from srds.solver import _e_norms

    tiny = 2.0**-53
    entry = st.one_of(st.sampled_from([1.0, tiny, 3 * tiny, 0.5 + tiny, 0.0]),
                      st.floats(0.0, 1.0))
    largest = np.array(data.draw(st.lists(entry, min_size=r, max_size=r), label="largest"))
    shrink = np.reshape(data.draw(st.lists(st.floats(0.0, 1.0), min_size=r * n,
                                           max_size=r * n), label="shrink"), (r, n))
    u = largest[:, None] * shrink
    u[:, data.draw(st.integers(0, n - 1), label="cell")] = largest
    u *= data.draw(st.sampled_from([1.0, -1.0, 1e300]), label="scale")
    cells = np.abs(u).sum(axis=0)
    assert (cells <= _e_norms(np.abs(u).max(axis=1)[None])[0]).all()



# --- the forked ladder and resumed runs --------------------------------------------


@pytest.mark.parametrize("stride", [1, 3])
def test_a_run_resumed_at_a_stored_step_is_the_run(stride):
    prob = build_fhn_problem(scale=1.0)
    cfg = SolverConfig(dt=1e-3, t_end=0.02, store_stride=stride)
    path = sample_path(7, 2, 8, 20, 1e-3)
    init = const_init(prob, 0.5, 0.5)
    full = simulate(prob, cfg, path, init)
    for s in sorted(set(range(0, 21, stride)) | {20}):  # every stored step
        _assert_same_trajectory(simulate(prob, cfg, path, init, prefix=full.until(s)),
                                full)
    if stride > 1:  # step 10 is not stored: until(10) ends at step 9
        with pytest.raises(ValueError, match="stores its last step"):
            simulate(prob, cfg, path, init, prefix=full.until(10))
    with pytest.raises(ValueError, match="stores its last step"):
        simulate(prob, replace(cfg, dt=2e-3), path, init, prefix=full.until(0))


def test_a_broken_truncation_map_fails_the_ladder(monkeypatch):
    # the smallest level steps truncated at every step and the next one
    # untruncated inside its ball: a map that is not the identity inside
    # the ball (both points halved) splits them at the first step
    truncate = srds.solver._truncate
    monkeypatch.setattr(srds.solver, "_truncate",
                        lambda u, bounds: tuple(0.5 * x for x in truncate(u, bounds)))
    prob = build_fhn_problem(g_name="sqrt-abs", scale=0.5)
    cfg = SolverConfig(dt=2e-3, t_end=0.1)
    path = sample_path(21, 2, 8, 50, 2e-3)
    init = const_init(prob, 0.5, 0.5)
    assert simulate(prob, cfg, path, init).e_norms().max() < 4.0  # no exit at all
    with pytest.raises(SolverFailure) as err:
        run_ladder(prob, cfg, path, init, [4.0, 8.0, 16.0])
    assert err.value.reason == "ladder-inconsistency"
    assert err.value.detail == "levels 4.0/8.0 disagree at step 1"

# --- what a step may write ----------------------------------------------------


def _aliasing_problem(dim, level):
    """r = 2 on a 1D (LU) or constant-coefficient 2D (DCT) grid, sharing one
    mode table, with an amplitude that returns its input and couplings that
    return a view of the state: an in-place write to either would write the
    caller's arrays."""
    from srds import HolderFunction
    from srds.reaction import CouplingTerm, PolynomialDrift, ReactionSystem

    grid = build_grid(dim, [1.0] * dim, [12] if dim == 1 else [6, 5])
    op = EllipticOperator(grid, CoefficientField.constant(grid, a=1.0))
    identity = HolderFunction(lambda s: np.asarray(s, dtype=float), 0.0, 1.0,
                              lambda m: math.sqrt(2.0 * m), name="identity")
    basis = cosine_neumann_basis(grid, 3)
    noise = build_noise([basis] * 2, [np.array([0.5, 0.25, 0.125])] * 2,
                        [identity] * 2, audit=False)
    views = [CouplingTerm(lambda s, j=j: s[j], 0.0, 1.0, 1.0, name=f"view{j}")
             for j in (1, 0)]
    reaction = ReactionSystem([PolynomialDrift([1.0, 0.0, -1.0], epsilon_lead=1.0), None],
                              views, audit=False)
    return Problem(grid=grid, operators=(op, op), reaction=reaction, noise=noise,
                   level=level)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("level", [None, 1.5])
@pytest.mark.parametrize("scheme", ["semi-implicit", "tamed-semi-implicit"])
@pytest.mark.parametrize("points", ["u", "separate"])
def test_step_writes_no_array_it_was_given(dim, level, scheme, points):
    problem = _aliasing_problem(dim, level)
    config = SolverConfig(dt=1e-3, t_end=1e-3, scheme=scheme)
    rng = np.random.default_rng(dim)
    u, v, w = rng.uniform(-2.0, 2.0, size=(3, 2, problem.grid.n_total))
    inc = rng.standard_normal((2, 3))
    fields = _fields(problem, inc)
    at = {"drift_at": v, "noise_at": w} if points == "separate" else {}
    given = (u, fields) + tuple(at.values())
    kept = [a.tobytes() for a in given]
    out = step(problem, config, u, fields, *_step_runs(problem, config.dt), **at)
    assert [a.tobytes() for a in given] == kept
    assert np.array_equal(out, reference.step(problem, config, u, inc, **at))


def _growth_problem(n=8):
    """du = u dt on a constant state: the sup norm grows every step."""
    from srds.reaction import ReactionSystem, coupling_linear

    grid = build_grid(1, [1.0], [n])
    op = EllipticOperator(grid, CoefficientField.constant(grid, a=1.0))
    noise = build_noise([cosine_neumann_basis(grid, 2)], [np.zeros(2)],
                        [named_g("sqrt-abs")], audit=False)
    reaction = ReactionSystem([None], [coupling_linear([1.0])], audit=False)
    return Problem(grid=grid, operators=(op,), reaction=reaction, noise=noise)


@pytest.mark.parametrize("exit_at", [4, 5])
@pytest.mark.parametrize("stride", [1, 3])
def test_cap_exit_at_a_block_boundary(monkeypatch, exit_at, stride):
    # blocks of 4 steps: an exit on the last step of the first block, or on
    # the first step of the second
    prob = _growth_problem()
    monkeypatch.setattr(srds.solver, "STATE_BLOCK_FLOATS", 4 * prob.grid.n_total)
    cfg = SolverConfig(dt=1e-3, t_end=1e-2, store_stride=stride)
    path = sample_path(0, 1, 2, 10, 1e-3)
    init = np.full((1, prob.grid.n_total), 0.5)
    m = simulate(prob, cfg, path, init).sup_norms[:, 0]
    assert np.all(np.diff(m) > 0)
    cfg = replace(cfg, sup_cap=float(0.5 * (m[exit_at - 1] + m[exit_at])))
    traj = simulate(prob, cfg, path, init)
    _assert_same_trajectory(traj, reference.simulate(prob, cfg, path, init))
    assert traj.stopping.triggered and traj.stopping.step_index == exit_at
    assert len(traj.sup_norms) == exit_at + 1
    assert traj.times[-1] == exit_at * cfg.dt


def test_cap_exit_then_overflow_in_one_block_stops_without_raising(monkeypatch):
    # from 1e100 the cubic drift reaches about -1e297 at step 1 and
    # overflows at step 2, inside the same block of 4 steps
    prob = zero_noise_fhn(n=8)
    monkeypatch.setattr(srds.solver, "STATE_BLOCK_FLOATS", 4 * prob.r * prob.grid.n_total)
    cfg = SolverConfig(dt=1e-3, t_end=8e-3)
    path = sample_path(0, 2, 8, 8, 1e-3)
    init = const_init(prob, 1e100, 0.0)
    with pytest.raises(SolverFailure) as err:
        simulate(prob, cfg, path, init)
    assert _outcome(reference.simulate, prob, cfg, path, init) == (
        err.value.reason, err.value.detail, err.value.step)
    assert err.value.step == 2
    cfg = replace(cfg, sup_cap=1e200)
    traj = simulate(prob, cfg, path, init)
    _assert_same_trajectory(traj, reference.simulate(prob, cfg, path, init))
    assert traj.stopping.triggered and traj.stopping.step_index == 1
    assert np.all(np.isfinite(traj.states)) and len(traj.sup_norms) == 2


@pytest.mark.parametrize("n_cells", [2, 8])
@pytest.mark.parametrize("n_steps", [1, 3])
def test_overflow_to_inf_without_a_cap_raises_at_its_step(n_cells, n_steps):
    # from 1.7e308 the growth u + dt u overflows to +inf at step 1; a state
    # of inf with no NaN in it is a non-finite state too, also on the last step
    prob = _growth_problem(n_cells)
    cfg = SolverConfig(dt=0.1, t_end=0.1 * n_steps)
    path = sample_path(0, 1, 2, n_steps, 0.1)
    init = np.full((1, n_cells), 1.7e308)
    for cap in (None, math.inf):
        cfg = replace(cfg, sup_cap=cap)
        with pytest.raises(SolverFailure) as err:
            simulate(prob, cfg, path, init)
        assert _outcome(reference.simulate, prob, cfg, path, init) == (
            err.value.reason, err.value.detail, err.value.step)
        assert (err.value.reason, err.value.step) == ("non-finite-state", 1)


# --- modal chunks built ahead on a helper thread ---------------------------------


def test_later_chunks_are_built_on_one_helper_thread(monkeypatch):
    # a 2D run of 20 steps in chunks of 8: the stepping thread builds the
    # first chunk, one helper thread the other two, the third into the
    # first's array, and it is gone after; a run of two chunks builds both
    # itself (a thread costs about a chunk)
    import threading

    grid, chunk, _ = _chunk_grid(2)
    op = EllipticOperator(grid, CoefficientField.constant(grid, a=1.0))
    noise = build_noise([cosine_neumann_basis(grid, 4)] * 2, [np.ones(4)] * 2,
                        [named_g("sqrt-abs")] * 2, audit=False)
    prob = Problem(grid=grid, operators=(op, op), reaction=fhn_system(1.0, 1.0),
                   noise=noise)
    cfg = SolverConfig(dt=1e-3, t_end=0.02)
    path = sample_path(3, 2, 4, 20, 1e-3)
    init = np.full((2, grid.n_total), 0.2)
    ref = simulate(prob, cfg, path, init)
    built, arrays = [], []
    modal_fields = NoiseModel.modal_fields

    def recording(self, increments, out=None):
        built.append((threading.get_ident(), len(increments), out is not None))
        arrays.append((out, modal_fields(self, increments, out)))
        return arrays[-1][1]

    monkeypatch.setattr(NoiseModel, "modal_fields", recording)
    before = threading.active_count()
    _assert_same_trajectory(simulate(prob, cfg, path, init), ref)
    assert threading.active_count() == before
    me = threading.get_ident()
    assert [(t == me, m, out) for t, m, out in built] == [
        (True, chunk, False), (False, chunk, True), (False, 20 - 2 * chunk, True)]
    assert built[1][0] == built[2][0]
    first, third = arrays[0][1], arrays[2][0]
    assert third.base is first and third.ctypes.data == first.ctypes.data
    built.clear()
    cfg = replace(cfg, t_end=0.016)
    assert np.array_equal(simulate(prob, cfg, path, init).states, ref.states[:17])
    assert [(t == me, m, out) for t, m, out in built] == [(True, chunk, False)] * 2


def test_concurrent_runs_with_helpers_keep_their_bits():
    # four runs at once, each with its own helper (eight threads on a
    # smaller machine), switching threads every microsecond: a field read
    # before its helper wrote it, or written into another run's array,
    # would change a run's bits
    import sys
    import threading

    grid, chunk, _ = _chunk_grid(2)
    op = EllipticOperator(grid, CoefficientField.constant(grid, a=1.0))
    noise = build_noise([cosine_neumann_basis(grid, 4)] * 2, [np.ones(4)] * 2,
                        [named_g("sqrt-abs")] * 2, audit=False)
    prob = Problem(grid=grid, operators=(op, op), reaction=fhn_system(1.0, 1.0),
                   noise=noise)
    cfg = SolverConfig(dt=1e-3, t_end=1e-3 * 5 * chunk)
    paths = [sample_path(11, 2, 4, 5 * chunk, 1e-3, path_index=i) for i in range(4)]
    init = np.full((2, grid.n_total), 0.2)
    refs = [simulate(prob, cfg, p, init) for p in paths]
    got = [None] * len(paths)

    def run(i):
        got[i] = simulate(prob, cfg, paths[i], init)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(paths))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for traj, ref in zip(got, refs):
        _assert_same_trajectory(traj, ref)
