"""Versioned run configuration: parsing, digests, and problem assembly.

One JSON format drives simulations, ensembles and verification suites.  The
canonical digest (sha256 of the sorted-key dump) is recorded in every
output manifest; two runs with equal digests and seeds produce identical
artifacts.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager

import numpy as np

from .errors import AuditError, ConfigError
from .experiments import check_positivity_preconditions
from .grid import DomainGrid, build_grid
from .noise import (NoiseModel, build_noise, cosine_neumann_basis, named_g)
from .operators import (CoefficientField, assemble_operator,
                        coefficient_field_from_csv)
from .reaction import (PolynomialDrift, ReactionSystem, coupling_linear,
                       coupling_none, fhn_couplings, fhn_system)
from .rng import valid_seed
from .solver import Problem, SolverConfig

CONFIG_VERSION = 1


def config_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("missing-config", str(path))
    except json.JSONDecodeError as exc:
        raise ConfigError("invalid-json", str(exc))
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
    if not valid_seed(cfg["master_seed"]):
        raise ConfigError("master_seed", "must be an integer in [0, 2^64), "
                                         f"got {cfg['master_seed']!r}")
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
    eta = block.get("eta")
    m_bound = block.get("m_bound")
    if "csv" in block:
        if eta is None or m_bound is None:
            raise ConfigError("operator", "csv coefficients need eta and m_bound")
        coeffs = coefficient_field_from_csv(grid, block["csv"], eta, m_bound)
    else:
        a = float(block.get("a", 1.0))
        c = float(block.get("c", 0.0))
        coeffs = CoefficientField.constant(grid, a=a, c=c, eta=eta, m_bound=m_bound)
    return assemble_operator(grid, coeffs)


def _build_reaction(block: dict, r: int) -> ReactionSystem:
    kind = block.get("kind")
    if kind == "fhn":
        return fhn_system(a=float(block.get("a", 1.0)), b=float(block.get("b", 1.0)))
    drifts_cfg = block.get("drifts")
    coupling_cfg = block.get("coupling", {"name": "none"})
    if drifts_cfg is None or len(drifts_cfg) != r:
        raise ConfigError("reaction", f"need {r} drift coefficient lists")
    drifts = []
    for coeffs in drifts_cfg:
        if not coeffs:
            drifts.append(None)
        else:
            drifts.append(PolynomialDrift(coeffs))
    name = coupling_cfg.get("name", "none")
    if name == "none":
        couplings = [coupling_none(r) for _ in range(r)]
    elif name == "linear":
        matrix = np.asarray(coupling_cfg["matrix"], dtype=float)
        if matrix.shape != (r, r):
            raise ConfigError("reaction", f"linear coupling matrix must be {r}x{r}")
        couplings = [coupling_linear(matrix[l]) for l in range(r)]
    elif name == "fhn":
        if r != 2:
            raise ConfigError("reaction", "fhn coupling needs exactly 2 components")
        couplings = fhn_couplings(float(coupling_cfg.get("a", 1.0)),
                                  float(coupling_cfg.get("b", 1.0)))
    else:
        raise ConfigError("reaction", f"unknown coupling {name!r}")
    return ReactionSystem(drifts, couplings)


def _lambda_sequence(rule, modes: int) -> np.ndarray:
    if isinstance(rule, str):
        if rule == "zero":
            return np.zeros(modes)
        if rule.startswith("power:"):
            p = float(rule.split(":", 1)[1])
            return (np.arange(modes) + 1.0) ** (-p)
        raise ConfigError("noise", f"unknown lambda rule {rule!r}")
    seq = np.asarray(rule, dtype=float)
    if seq.shape != (modes,):
        raise ConfigError("noise", f"{seq.size} lambdas for {modes} modes")
    return seq


def _build_noise(block: dict, grid: DomainGrid, r: int) -> NoiseModel:
    modes = int(block.get("modes", 8))
    basis_kind = block.get("basis", "cosine-neumann")
    if basis_kind != "cosine-neumann":
        raise ConfigError("noise", f"unknown basis {basis_kind!r} (API-only bases "
                                   "cannot be configured from file)")
    basis = cosine_neumann_basis(grid, modes)
    lam = _lambda_sequence(block.get("lambdas", "power:2"), modes)
    lam = lam * float(block.get("scale", 1.0))
    g_cfg = block.get("g", "sqrt-abs")
    names = g_cfg if isinstance(g_cfg, list) else [g_cfg] * r
    if len(names) != r:
        raise ConfigError("noise", f"need {r} amplitude names, got {len(names)}")
    gs = [named_g(n) for n in names]
    return build_noise([basis] * r, [lam] * r, gs)


def _build_initial(block: dict, grid: DomainGrid, r: int) -> np.ndarray:
    kind = block.get("kind", "constant")
    if kind == "constant":
        vals = block.get("values")
        if vals is None or len(vals) != r:
            raise ConfigError("initial", f"need {r} constant values")
        return np.outer(np.asarray(vals, dtype=float), np.ones(grid.n_total))
    if kind == "cosine":
        means = block.get("means", [0.0] * r)
        amps = block.get("amplitudes", [1.0] * r)
        ks = block.get("modes", [1] * r)
        x = grid.centers[:, 0]
        L = grid.extents[0]
        u = np.empty((r, grid.n_total))
        for l in range(r):
            u[l] = means[l] + amps[l] * np.cos(ks[l] * np.pi * x / L)
        return u
    raise ConfigError("initial", f"unknown initial kind {kind!r}")


def _build_solver_config(block: dict) -> SolverConfig:
    sup_cap = block.get("sup_cap")
    if sup_cap is not None and (isinstance(sup_cap, bool)
                                or not isinstance(sup_cap, (int, float))):
        raise ConfigError("solver", f"sup_cap must be a number or null, got {sup_cap!r}")
    return SolverConfig(
        dt=float(block["dt"]), t_end=float(block["t_end"]),
        scheme=block.get("scheme", "semi-implicit"), sup_cap=sup_cap,
        store_stride=int(block.get("store_stride", 1)),
    )


def build_problem(cfg: dict):
    """Assemble (problem, initial, solver_config) from a validated config.

    Raises ConfigError(<block>) for schema problems and values of the wrong
    type, and AuditError when a declared assumption fails its build-time
    audit.
    """
    with config_block("grid"):
        block = cfg["grid"]
        grid = build_grid(block["dim"], block["extents"], block["n_cells"])
    op_blocks = cfg["operators"]
    if not isinstance(op_blocks, list) or not op_blocks:
        raise ConfigError("operators", "need a nonempty per-component list")
    with config_block("operators"):
        # equal blocks share one operator: one assembly, one stepper cache
        keys = [json.dumps(b, sort_keys=True) for b in op_blocks]
        built = {}
        for key, b in zip(keys, op_blocks):
            if key not in built:
                built[key] = _build_operator(grid, b)
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
