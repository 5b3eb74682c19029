"""Versioned run configuration: parsing, digests, and problem assembly.

One JSON format drives simulations, ensembles and verification suites.  The
readers of ``srds.readers`` check every config value, as they check every
experiment parameter and library argument, and ``config_block`` reports a
value they refuse as a ConfigError of its block, so a config is refused
exactly where the library would refuse the value it holds.  The canonical
digest (sha256 of the sorted-key dump) is recorded in every output manifest;
two runs with equal digests and seeds produce identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager

import numpy as np

from .errors import AuditError, ConfigError
from .grid import DomainGrid, build_grid
from .noise import (NoiseModel, build_noise, cosine_neumann_basis, named_g)
from .operators import (CoefficientField, EllipticOperator,
                        coefficient_field_from_csv)
from .reaction import (PolynomialDrift, ReactionSystem, coupling_linear,
                       coupling_none, fhn_couplings, fhn_system)
from .readers import read_integer, read_list, read_number, read_numeral
from .rng import MAX_MODE, MAX_SEED
from .solver import Problem, SolverConfig, dyadic_level

CONFIG_VERSION = 1


def config_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError("missing-config", str(exc)) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("invalid-json", str(exc)) from None
    return validate_config(cfg)


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("schema", "config must be a JSON object")
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError("version", f"expected version {CONFIG_VERSION}, "
                                     f"got {cfg.get('version')!r}")
    for block in ("grid", "operators", "reaction", "noise", "solver", "initial"):
        if block not in cfg:
            raise ConfigError("schema", f"missing block {block!r}")
    if "master_seed" not in cfg:
        raise ConfigError("schema", "missing master_seed")
    with config_block("master_seed"):
        read_integer("master_seed", cfg["master_seed"], least=0, below=MAX_SEED)
    for block in ("experiment", "output"):
        if not isinstance(cfg.get(block, {}), dict):
            raise ConfigError(block, "must be a JSON object")
    return cfg


@contextmanager
def config_block(name: str):
    """Report a value of the wrong type or shape met while reading config
    block ``name`` as ConfigError(name); the ConfigError and AuditError
    raised inside pass through unchanged."""
    try:
        yield
    except (ConfigError, AuditError):
        raise
    except (ArithmeticError, AttributeError, LookupError, TypeError,
            ValueError) as exc:
        raise ConfigError(name, str(exc)) from None


# ---------------------------------------------------------------------------
# block builders


def _build_operator(grid: DomainGrid, block: dict):
    eta, m_bound = (None if block.get(k) is None else read_number(k, block[k])
                    for k in ("eta", "m_bound"))
    if "csv" in block:
        if eta is None or m_bound is None:
            raise ConfigError("operators", "csv coefficients need eta and m_bound")
        try:
            coeffs = coefficient_field_from_csv(grid, block["csv"], eta, m_bound)
        except OSError as exc:  # a coefficient file that cannot be read
            raise ConfigError("operators", str(exc)) from None
    else:
        coeffs = CoefficientField.constant(grid, a=block.get("a", 1.0), c=block.get("c", 0.0),
                                           eta=eta, m_bound=m_bound)
    return EllipticOperator(grid, coeffs)


def _build_reaction(block: dict, r: int) -> ReactionSystem:
    kind = block.get("kind")
    if kind == "fhn":
        return fhn_system(a=read_number("a", block.get("a", 1.0)),
                          b=read_number("b", block.get("b", 1.0)))
    coeff_lists = read_list("drifts", block.get("drifts"),
                            lambda key, coeffs: read_list(key, coeffs, read_number), r)
    drifts = [PolynomialDrift(c) if c else None for c in coeff_lists]  # []: no drift
    coupling_cfg = block.get("coupling", {"name": "none"})
    name = coupling_cfg.get("name", "none")
    if name == "none":
        couplings = [coupling_none(r) for _ in range(r)]
    elif name == "linear":
        rows = read_list("matrix", coupling_cfg.get("matrix"),
                         lambda key, row: read_list(key, row, read_number, r), r)
        couplings = [coupling_linear(row) for row in rows]
    elif name == "fhn":
        if r != 2:
            raise ConfigError("reaction", "fhn coupling needs exactly 2 components")
        couplings = fhn_couplings(read_number("a", coupling_cfg.get("a", 1.0)),
                                  read_number("b", coupling_cfg.get("b", 1.0)))
    else:
        raise ConfigError("reaction", f"unknown coupling {name!r}")
    return ReactionSystem(drifts, couplings)


def _lambda_sequence(rule, modes: int) -> np.ndarray:
    if isinstance(rule, str):
        if rule == "zero":
            return np.zeros(modes)
        if rule.startswith("power:"):
            p = read_numeral("lambda power", rule.split(":", 1)[1])
            return (np.arange(modes) + 1.0) ** (-p)
        raise ConfigError("noise", f"unknown lambda rule {rule!r}")
    return np.asarray(read_list("lambdas", rule, read_number, modes))


def _build_noise(block: dict, grid: DomainGrid, r: int) -> NoiseModel:
    modes = read_integer("modes", block.get("modes", 8))
    if not 1 <= modes <= MAX_MODE:  # one Philox stream lane per mode
        raise ConfigError("noise", f"modes must be in [1, {MAX_MODE}], got {modes}")
    basis_kind = block.get("basis", "cosine-neumann")
    if basis_kind != "cosine-neumann":
        raise ConfigError("noise", f"unknown basis {basis_kind!r} (API-only bases "
                                   "cannot be configured from file)")
    basis = cosine_neumann_basis(grid, modes)
    # a scaled lambda beyond the largest float (or inf * 0) warns nothing
    # here: ComponentNoise refuses it, naming its mode
    with np.errstate(over="ignore", invalid="ignore"):
        lam = _lambda_sequence(block.get("lambdas", "power:2"), modes)
        lam = lam * read_number("scale", block.get("scale", 1.0))
    g_cfg = block.get("g", "sqrt-abs")
    names = g_cfg if isinstance(g_cfg, list) else [g_cfg] * r
    if len(names) != r:
        raise ConfigError("noise", f"need {r} amplitude names, got {len(names)}")
    # one amplitude object per name: one audit, and one amplitude run for
    # the components that share it
    by_name = {n: named_g(n) for n in names}
    return build_noise([basis] * r, [lam] * r, [by_name[n] for n in names])


def _build_initial(block: dict, grid: DomainGrid, r: int) -> np.ndarray:
    kind = block.get("kind", "constant")
    if kind == "constant":
        vals = read_list("values", block.get("values"), read_number, r)
        return np.outer(vals, np.ones(grid.n_total))
    if kind == "cosine":
        means = read_list("means", block.get("means", [0.0] * r), read_number, r)
        amps = read_list("amplitudes", block.get("amplitudes", [1.0] * r), read_number, r)
        ks = read_list("modes", block.get("modes", [1] * r), read_integer, r)
        x = grid.centers[:, 0]
        L = grid.extents[0]
        u = np.empty((r, grid.n_total))
        with np.errstate(over="raise"):  # a field beyond the largest float
            for l in range(r):
                u[l] = means[l] + amps[l] * np.cos(ks[l] * np.pi * x / L)
        return u
    raise ConfigError("initial", f"unknown initial kind {kind!r}")


def _build_solver_config(block: dict) -> SolverConfig:
    sup_cap = block.get("sup_cap")
    # null and Infinity are no cap; the literal NaN, which Python's json
    # reads but no JSON number is, is refused, though SolverConfig would
    # store it as no cap too
    if sup_cap != sup_cap:
        raise ValueError(f"sup_cap must be a finite number, got {sup_cap!r}")
    return SolverConfig(dt=block.get("dt"), t_end=block.get("t_end"),
                        scheme=block.get("scheme", "semi-implicit"), sup_cap=sup_cap,
                        store_stride=block.get("store_stride", 1))


def _path_resolution(cfg: dict, solver_cfg: SolverConfig) -> tuple[int, float]:
    """(n_fine, dt_fine) of the Wiener paths that drive the configured run:
    noise.dt_fine (dt when null), of which dt must be a power-of-two
    multiple."""
    noise = cfg["noise"]
    with config_block("noise"):
        dt_fine = (solver_cfg.dt if noise.get("dt_fine") is None
                   else read_number("dt_fine", noise["dt_fine"]))
        j = dyadic_level(solver_cfg.dt, dt_fine)
    return solver_cfg.n_steps * (1 << j), dt_fine


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


def build_problem(cfg: dict):
    """Assemble (problem, initial, solver_config) from a validated config.

    Raises ConfigError(<block>) for schema problems and values of the wrong
    type, and AuditError when a declared assumption fails its build-time
    audit.
    """
    with config_block("grid"):
        block = cfg["grid"]
        grid = build_grid(read_integer("dim", block.get("dim")),
                          read_list("extents", block.get("extents"), read_number),
                          read_list("n_cells", block.get("n_cells"), read_integer))
    op_blocks = cfg["operators"]
    if not isinstance(op_blocks, list) or not op_blocks:
        raise ConfigError("operators", "need a nonempty per-component list")
    with config_block("operators"):
        # equal blocks share one operator: one matrix, one stepper cache
        keys = [json.dumps(b, sort_keys=True) for b in op_blocks]
        built = {}
        for key, b in zip(keys, op_blocks):
            if key not in built:
                built[key] = _build_operator(grid, b)
        if len(built) > 1:  # distinct texts ("a": 1 and "a": 1.0) may build one operator
            shared = {}
            built = {key: shared.setdefault(op.descriptor(), op) for key, op in built.items()}
        operators = tuple(built[key] for key in keys)
    r = len(operators)
    with config_block("reaction"):
        reaction = _build_reaction(cfg["reaction"], r)
    if reaction.r != r:
        raise ConfigError("reaction", f"{reaction.r} components vs {r} operators")
    with config_block("noise"):
        noise = _build_noise(cfg["noise"], grid, r)
    with config_block("solver"):
        solver_cfg = _build_solver_config(cfg["solver"])
    n_fine, _ = _path_resolution(cfg, solver_cfg)  # every command checks noise.dt_fine
    if n_fine > np.iinfo(np.intp).max // (8 * r * noise.modes):  # one float64 array
        raise ConfigError("solver", f"path increments of {r} x {noise.modes} x n_fine "
                                    "floats exceed the largest array")
    with config_block("initial"):
        initial = _build_initial(cfg["initial"], grid, r)

    if cfg.get("experiment", {}).get("name") == "positivity":
        check_positivity_preconditions(noise, initial, "positivity experiment")

    problem = Problem(grid=grid, operators=operators, reaction=reaction,
                      noise=noise)
    return problem, initial, solver_cfg


# ---------------------------------------------------------------------------
# presets


def preset_fhn(master_seed: int = 42) -> dict:
    """The FitzHugh-Nagumo setting: two components with independent noise
    processes, sqrt amplitude vanishing at zero, nonnegative initials."""
    return {
        "version": CONFIG_VERSION,
        "master_seed": master_seed,
        "grid": {"dim": 1, "extents": [1.0], "n_cells": [32]},
        "operators": [
            {"a": 1.0, "c": 0.0, "eta": 0.5, "m_bound": 2.0},
            {"a": 1.0, "c": 0.0, "eta": 0.5, "m_bound": 2.0},
        ],
        "reaction": {"kind": "fhn", "a": 1.0, "b": 1.0},
        "noise": {"basis": "cosine-neumann", "modes": 8, "lambdas": "power:2",
                  "scale": 1.0, "g": "sqrt-pos"},
        "solver": {"dt": 0.001, "t_end": 1.0, "scheme": "semi-implicit",
                   "sup_cap": 8.0, "store_stride": 1},
        "initial": {"kind": "constant", "values": [0.2, 0.2]},
        "experiment": {"name": "positivity", "n_paths": 64},
        "output": {"formats": ["auto"]},
    }


def preset(name: str, master_seed: int = 42) -> dict:
    if name == "fhn":
        return preset_fhn(master_seed)
    raise ConfigError("preset", f"unknown preset {name!r}")
