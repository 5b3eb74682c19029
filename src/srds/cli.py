"""Configuration-driven command line: simulate, verify <suite>, ensemble.

Exit codes are stable API: 0 success (verify: verdict pass), 1 verdict
fail, 2 config error, 3 audit failure, 4 runtime solver failure.  Every
failure prints one machine-parsable line to stderr:

    srds-error: code=<n> kind=<config|audit|runtime> reason=<token> detail=...
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import (_path_resolution, build_problem, config_block, config_digest,
                     load_config, preset, validate_config)
from .errors import AuditError, ConfigError, SolverFailure
from .experiments import Member, run_members
from .readers import read_integer
from .rng import MAX_PATH, sample_path
from .solver import TRAJECTORY_FORMATS, save_trajectory, simulate, write_csv, write_json
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG = 2
EXIT_AUDIT = 3
EXIT_RUNTIME = 4


def _fail(code: int, kind: str, reason: str, detail: str = "") -> int:
    print(f"srds-error: code={code} kind={kind} reason={reason} detail={detail}",
          file=sys.stderr)
    return code


def _load(args) -> dict:
    if args.config and args.preset:
        raise ConfigError("flags", "--config and --preset are mutually exclusive")
    if args.preset:
        cfg = preset(args.preset)
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ConfigError("flags", "one of --config or --preset is required")
    if args.seed is not None:
        cfg["master_seed"] = int(args.seed)
    return validate_config(cfg)


def _out_dir(args, cfg: dict, command: str) -> Path:
    """The run's artifact directory, created with a copy of the config."""
    with config_block("output"):
        root = Path(args.out or cfg.get("output", {}).get("dir")
                    or os.environ.get("SRDS_OUT") or "srds-out")
    digest = config_digest(cfg)
    d = root / f"{command}-{digest[:12]}-seed{cfg['master_seed']}"
    d.mkdir(parents=True, exist_ok=True)
    write_json(d / "config.json", cfg)
    return d


def cmd_simulate(args) -> int:
    cfg = _load(args)
    if not 0 <= args.path_index < MAX_PATH:
        raise ConfigError("flags", f"--path-index must be in [0, {MAX_PATH})")
    problem, initial, solver_cfg = build_problem(cfg)
    with config_block("output"):
        output = cfg.get("output", {})
        # snapshot stride: about 64 stored samples per run unless configured
        stride = max(1, solver_cfg.n_steps // 64)
        if output.get("stride") is not None:
            stride = read_integer("stride", output["stride"], least=1)
        solver_cfg = replace(solver_cfg, store_stride=stride)
        formats = output.get("formats")
        if formats is None:
            formats = ["auto"]
        if not (isinstance(formats, list) and formats
                and formats[0] in TRAJECTORY_FORMATS):
            raise ConfigError("output", "formats must be a list whose first entry is "
                                        f"one of {TRAJECTORY_FORMATS}, got {formats!r}")
        fmt = formats[0]
    n_fine, dt_fine = _path_resolution(cfg, solver_cfg)
    path = sample_path(cfg["master_seed"], problem.r, problem.noise.modes,
                       n_fine, dt_fine, path_index=args.path_index)
    traj = simulate(problem, solver_cfg, path, initial)
    out = _out_dir(args, cfg, "simulate")
    run_descriptor = solver_cfg.descriptor()
    provenance = {
        "master_seed": path.master_seed,
        "path_index": path.path_index,
        "config": run_descriptor,
        "config_digest": hashlib.sha256(run_descriptor.encode()).hexdigest(),
        "problem_digest": problem.digest(),
    }
    save_trajectory(traj, out, problem.grid, provenance, fmt=fmt)
    write_json(out / "run.json", {"config_digest": config_digest(cfg),
                                  "master_seed": cfg["master_seed"],
                                  "tool_version": __version__})
    stop = traj.stopping
    if stop.triggered:
        print(f"stopped: level {stop.level:g} exceeded at t={stop.time:g} "
              f"(step {stop.step_index})")
    else:
        print(f"completed: t_end={solver_cfg.t_end:g}, "
              f"final E-norm {traj.e_norms()[-1]:.6g}")
    print(f"artifacts: {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load(args)
    problem, initial, solver_cfg = build_problem(cfg)
    report = run_suite(args.suite, problem, solver_cfg, initial,
                       cfg.get("experiment", {}), cfg["master_seed"])
    out = _out_dir(args, cfg, f"verify-{args.suite}")
    report.provenance["config_digest"] = config_digest(cfg)
    report.write(out)
    report.print_summary()
    print(f"verdict: {'pass' if report.verdict else 'fail'}")
    print(f"artifacts: {out}")
    return EXIT_OK if report.verdict else EXIT_VERDICT_FAIL


@functools.lru_cache(maxsize=4)
def _cached_problem(cfg_blob: str):
    return build_problem(json.loads(cfg_blob))


def _path_stats(cfg_blob: str, master_seed: int, n_fine: int, dt_fine: float,
                path_index: int) -> dict:
    problem, initial, solver_cfg = _cached_problem(cfg_blob)
    path = sample_path(master_seed, problem.r, problem.noise.modes, n_fine,
                       dt_fine, path_index=path_index)
    # the statistics read per-step norms and minima only: store no other states
    traj, = run_members(problem, replace(solver_cfg, store_stride=solver_cfg.n_steps),
                        [Member(path, initial)])
    e = traj.e_norms()
    return {
        "path": path_index,
        "final_e_norm": float(e[-1]),
        "sup_e_norm": float(e.max()),
        "global_min": float(traj.min_values.min()),
        "stopped": int(traj.stopping.triggered),
        "stop_time": float(traj.stopping.time),
    }


def cmd_ensemble(args) -> int:
    cfg = _load(args)
    if not 1 <= args.paths <= MAX_PATH:  # before the index list is built
        raise ConfigError("flags", f"--paths must be in [1, {MAX_PATH}]")
    if args.workers < 1:
        raise ConfigError("flags", "--workers must be >= 1")
    # audit the config and resolve the paths once, before any worker starts;
    # the problem stays cached for the paths run here and in forked workers
    blob = json.dumps(cfg, sort_keys=True)
    _, _, solver_cfg = _cached_problem(blob)
    n_fine, dt_fine = _path_resolution(cfg, solver_cfg)
    path_stats = functools.partial(_path_stats, blob, cfg["master_seed"],
                                   n_fine, dt_fine)
    indices = list(range(args.paths))
    # a forked pool starts all its workers at the first submit: no more
    # than there are paths (the bits do not depend on the count)
    workers = min(args.workers, args.paths)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(path_stats, indices))
    else:
        stats = [path_stats(i) for i in indices]
    stats.sort(key=lambda s: s["path"])  # order-independent aggregation

    out = _out_dir(args, cfg, "ensemble")
    keys = ["final_e_norm", "sup_e_norm", "global_min"]
    write_csv(out / "paths.csv", ["path"] + keys + ["stopped", "stop_time"],
              [[s["path"]] + [s[k] for k in keys] + [s["stopped"], s["stop_time"]]
               for s in stats])
    arr = {k: np.array([s[k] for s in stats]) for k in keys}
    stopped = np.array([s["stopped"] for s in stats], dtype=float)
    write_csv(out / "aggregate.csv", ["statistic"] + keys + ["stopped_fraction"], [
        ["mean"] + [arr[k].mean() for k in keys] + [stopped.mean()],
        ["std"] + [arr[k].std(ddof=1) if args.paths > 1 else 0.0 for k in keys] + [""],
        ["min"] + [arr[k].min() for k in keys] + [""],
        ["max"] + [arr[k].max() for k in keys] + [""]])
    write_json(out / "run.json", {"config_digest": config_digest(cfg),
                                  "master_seed": cfg["master_seed"],
                                  "n_paths": args.paths,
                                  "tool_version": __version__})
    print(f"ensemble: {args.paths} paths, stopped fraction "
          f"{float(stopped.mean()):.3g}")
    print(f"artifacts: {out}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="run-config JSON file")
    p.add_argument("--preset", help="named preset (fhn)")
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--out", default=None,
                   help="output root (default $SRDS_OUT or ./srds-out)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="srds",
        description="Stochastic reaction-diffusion simulator and "
                    "property-verification harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one path and write snapshots")
    _add_common(p_sim)
    p_sim.add_argument("--path-index", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("suite", choices=SUITES)
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_ens = sub.add_parser("ensemble", help="run many paths with derived seeds")
    _add_common(p_ens)
    p_ens.add_argument("--paths", type=int, default=16)
    p_ens.add_argument("--workers", type=int, default=1)
    p_ens.set_defaults(func=cmd_ensemble)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", exc.reason, exc.detail)
    except AuditError as exc:
        return _fail(EXIT_AUDIT, "audit", exc.reason, exc.detail)
    except SolverFailure as exc:
        where = "" if exc.step is None else f"step {exc.step} "
        return _fail(EXIT_RUNTIME, "runtime", exc.reason, (where + exc.detail).rstrip())
    except MemoryError as exc:
        return _fail(EXIT_RUNTIME, "runtime", "out-of-memory", str(exc))


if __name__ == "__main__":
    sys.exit(main())
