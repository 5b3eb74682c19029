"""Benchmark runner for srds.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; srds is imported from ``src/``.
Each sample is a fresh process, forked by the sample server
``benchmarks/child.py`` after it has imported srds, that calls
``srds.cli.main`` in-process on the workload's argv list (a closed loop:
one sample at a time, the next only after the previous one exits), so peak
RSS covers the imports and exactly one sample.
BLAS/OpenMP threads are pinned to 1 in the server and its samples.

Per run:

1. one traced warm-up sample, untimed: it fills the OS file cache, gives
   the deterministic work counts (member steps, paths) and the reference
   artifact digest;
2. measured samples for ``--seconds``: untraced with ``--trace 0``;
   alternating untraced and traced with ``--trace 1``, which reports the
   per-layer split and the tracing overhead.  After its CLI calls each
   untraced sample also times the set-up work (``build_problem`` plus the
   stepper factorizations at the workload's dt values) for a short while;
   ``setup_s`` is the median over all those repetitions.

Timings are rescaled to a reference host speed.  The host is shared, and
other tenants slow a process by up to 1.5x in phases of seconds to minutes
(see ``probe.py``), so each sample also times a fixed probe that uses
nothing of srds before each CLI call and again after its set-up timing,
and every time ``t`` it measures is reported as
``t * REF_PROBE_S / probe_s``, with ``probe_s`` the mean of its probes:
seconds on the host running at its reference speed.
``wall_ref_s`` is the median of the rescaled sample wall times, the
throughputs divide a sample's work by it, and ``setup_s`` is the median of
all rescaled set-up repetitions; ``peak_rss_mb`` is the median over
samples.  The raw wall times are printed on a ``#`` line.

A CLI call fails when its exit code is not 0, a verdict is ``fail``, an
``srds-error:`` line appears, its artifacts are malformed, or its artifact
tree's sha256 differs from the warm-up's.  The last stdout line is the
JSON result; the lines before it (prefixed ``#``) record the environment,
sample counts, failed fraction, digests and the per-layer shares.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REF_PROBE_S
from workloads import WORKLOADS, Call

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end within 180 s
SETUP_BUDGET_S = 0.15  # per untraced sample
PROBE_REPS = 3  # probe rounds at each of a sample's probe points
MIN_SAMPLES = 3

END_TO_END_UNITS = {
    "wall_ref_s": "s", "member_steps_per_ref_s": "1/s", "paths_per_ref_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "rng.sample_path.calls": "count", "rng.sample_path.busy_s": "s",
    "rng.draws": "count",
    "reaction.evaluate.calls": "count", "reaction.evaluate.busy_s": "s",
    "noise.modal_field.calls": "count", "noise.modal_field.busy_s": "s",
    "noise.g.calls": "count", "noise.g.busy_s": "s",
    "linalg.solve.calls": "count", "linalg.solve.busy_s": "s",
    "linalg.factor.calls": "count", "linalg.factor.busy_s": "s",
    "linalg.lu_nnz": "count", "linalg.solve.computed_bytes": "B",
    "operators.stepper.hit_ratio": "ratio",
    "solver.simulate.calls": "count", "solver.simulate.self_s": "s",
    "solver.simulate.p50_s": "s", "solver.simulate.p90_s": "s",
    "solver.step.self_s": "s", "solver.member_steps": "count",
    "solver.early_stops": "count",
    "experiments.self_s": "s",
    "config.build_problem.busy_s": "s",
    "cli.artifact_write.busy_s": "s", "cli.artifact_bytes": "B",
    "trace.overhead_frac": "ratio",
}
# counts that must repeat exactly between traced samples of one run
EXACT_COUNTS = (
    "rng.sample_path.calls", "rng.draws", "reaction.evaluate.calls",
    "noise.modal_field.calls", "noise.g.calls", "linalg.solve.calls",
    "linalg.lu_nnz", "linalg.solve.computed_bytes", "solver.simulate.calls",
    "solver.member_steps", "solver.early_stops", "cli.artifact_bytes",
    "operators.stepper.hit_ratio", "linalg.factor.calls",
)


class Failure(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    env.pop("SRDS_OUT", None)
    return env


class Runner:
    def __init__(self, root: Path, calls: list[Call], seconds: float, trace: bool,
                 label: str):
        self.root = root
        self.calls = calls
        self.seconds = seconds
        self.trace = trace
        self.label = label
        self.started = time.perf_counter()
        self.work = root / ".bench_work" / f"run-{os.getpid()}"
        self.env = _env()
        self.n_children = 0
        self.config_paths = []
        self.server = None

    # ------------------------------------------------------------------
    # child processes

    def _remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def _start_server(self) -> None:
        self.server_err = open(self.work / "server.stderr", "w")
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(self.root / "src")],
            cwd=self.work, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.server_err, text=True, start_new_session=True)

    def close(self) -> None:
        """Stop the sample server and everything in its process group."""
        if self.server is None:
            return
        try:
            os.killpg(self.server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.server.wait()
        self.server.stdin.close()
        self.server.stdout.close()
        self.server_err.close()
        self.server = None

    def _child(self, spec: dict) -> tuple[dict | None, str, str, int]:
        if self.server is None:
            self._start_server()
        self.n_children += 1
        base = self.work / f"child-{self.n_children}"
        spec["result"] = f"{base}.result.json"
        spec["stdout"] = f"{base}.stdout"
        spec["stderr"] = f"{base}.stderr"
        spec_path = Path(f"{base}.spec.json")
        spec_path.write_text(json.dumps(spec))
        timeout = self._remaining()
        if timeout <= 0:
            raise Failure("out of time before starting a sample")
        try:
            self.server.stdin.write(f"{spec_path}\n")
            self.server.stdin.flush()
        except BrokenPipeError:
            raise Failure("sample server exited: "
                          + (self.work / "server.stderr").read_text()[-300:])
        ready, _, _ = select.select([self.server.stdout], [], [], timeout)
        reply = self.server.stdout.readline() if ready else ""
        if not reply:
            self.close()
            raise Failure("sample timed out" if not ready else "sample server exited: "
                          + (self.work / "server.stderr").read_text()[-300:])
        result_path = Path(spec["result"])
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        out, err = (Path(spec[k]).read_text() for k in ("stdout", "stderr"))
        return result, out, err, int(reply)

    def prepare(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        for i, call in enumerate(self.calls):
            path = self.work / f"config-{i}.json"
            path.write_text(json.dumps(call.config, sort_keys=True, indent=1))
            self.config_paths.append(path)

    # ------------------------------------------------------------------
    # one sample: every call of the workload in one fresh process

    def sample(self, index: int, traced: bool) -> dict:
        out_root = self.work / f"sample-{index}"
        argvs = [list(c.argv) + ["--config", str(p), "--seed", str(c.config["master_seed"]),
                                 "--out", str(out_root / f"call-{i}")]
                 for i, (c, p) in enumerate(zip(self.calls, self.config_paths))]
        spec = {"argv": argvs, "trace": traced,
                "setup": [[str(p), list(c.dts)] for p, c in zip(self.config_paths, self.calls)],
                "setup_budget_s": SETUP_BUDGET_S, "probe_reps": PROBE_REPS}
        result, out, err, code = self._child(spec)
        codes = result["codes"] if result is not None else []
        outs = _split_calls(out, len(self.calls))
        errs = _split_calls(err, len(self.calls))
        problems, digests, sizes = [], [], []
        for i, call in enumerate(self.calls):
            call_root = out_root / f"call-{i}"
            probs = []
            if code != 0 or result is None:
                probs.append(f"child exit {code}: {err.strip()[-300:]}")
            elif codes[i] != 0:
                probs.append(f"exit code {codes[i]}")
            probs.extend(ln for ln in (outs[i] + errs[i]).splitlines()
                         if ln.startswith("srds-error:"))
            if "verdict: fail" in outs[i]:
                probs.append("verdict fail")
            try:
                probs.extend(_check_artifacts(call, call_root, outs[i]))
            except (OSError, KeyError, ValueError) as exc:
                probs.append(f"malformed artifacts: {exc!r}")
            digest, size = _tree_digest(call_root)
            problems.append(probs)
            digests.append(digest)
            sizes.append(size)
        shutil.rmtree(out_root, ignore_errors=True)
        return {"result": result, "problems": problems, "digests": digests,
                "artifact_bytes": sum(sizes), "traced": traced}

    # ------------------------------------------------------------------

    def run(self) -> dict:
        self.prepare()
        try:
            reference = self.sample(0, traced=True)
            samples = []
            t0 = time.perf_counter()
            last = 0.0
            while True:
                elapsed = time.perf_counter() - t0
                need_more = (len(samples) < MIN_SAMPLES
                             or (self.trace and len(samples) < 2 * MIN_SAMPLES))
                if not need_more and elapsed + last > self.seconds:
                    break
                traced = self.trace and len(samples) % 2 == 1
                s0 = time.perf_counter()
                samples.append(self.sample(len(samples) + 1, traced=traced))
                last = time.perf_counter() - s0
        finally:
            self.close()
        return {"reference": reference, "samples": samples,
                "measured_s": time.perf_counter() - t0}


def _split_calls(out: str, n: int) -> list[str]:
    """The child prints a marker before each call; slice its output by them."""
    parts = [""] * n
    current = None
    for line in out.splitlines(keepends=True):
        if line.startswith("@@bench-call "):
            current = int(line.split()[1])
            continue
        if current is not None and current < n:
            parts[current] += line
    return parts


def _tree_digest(root: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    if root.is_dir():
        for p in sorted(root.rglob("*")):
            if p.is_file():
                data = p.read_bytes()
                size += len(data)
                h.update(str(p.relative_to(root)).encode() + b"\0")
                h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), size


def _check_artifacts(call: Call, root: Path, stdout: str) -> list[str]:
    """Check what a call wrote; returns a list of problems."""
    problems = []
    if call.argv[0] == "verify":
        suite = call.argv[1]
        reports = sorted(root.glob(f"verify-{suite}-*/{suite}_report.json"))
        if "verdict: pass" not in stdout:
            problems.append("no 'verdict: pass' line")
        if len(reports) != 1:
            return problems + [f"{len(reports)} {suite} reports"]
        report = json.loads(reports[0].read_text())
        if report["verdict"] != "pass" or not report["checks"]:
            problems.append(f"report verdict {report['verdict']}")
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        if failed:
            problems.append("failed checks: " + ", ".join(failed))
    elif call.argv[0] == "ensemble":
        n_paths = int(call.argv[call.argv.index("--paths") + 1])
        found = sorted(root.glob("ensemble-*/paths.csv"))
        if len(found) != 1:
            return [f"{len(found)} paths.csv files"]
        with open(found[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(found[0].with_name("aggregate.csv"), newline="") as fh:
            agg = {r["statistic"]: r for r in csv.DictReader(fh)}
        if [int(r["path"]) for r in rows] != list(range(n_paths)):
            problems.append("paths.csv does not list every path once")
        for key in ("final_e_norm", "sup_e_norm", "global_min"):
            vals = [float(r[key]) for r in rows]
            if not all(math.isfinite(v) for v in vals):
                problems.append(f"non-finite {key}")
                continue
            mean = math.fsum(vals) / len(vals)
            if abs(float(agg["mean"][key]) - mean) > 1e-12 * max(1.0, abs(mean)):
                problems.append(f"aggregate mean of {key} disagrees with paths.csv")
            if float(agg["min"][key]) != min(vals) or float(agg["max"][key]) != max(vals):
                problems.append(f"aggregate min/max of {key} disagree with paths.csv")
    return problems


# ----------------------------------------------------------------------
# metrics


def _merge_trace(traces: list[dict]) -> dict:
    """Sum per-layer calls, self time and counters over the CLI calls of a
    sample."""
    calls = {k: sum(t["calls"][k] for t in traces) for k in traces[0]["calls"]}
    self_s = {k: sum(t["self_s"][k] for t in traces) for k in traces[0]["self_s"]}
    counts: dict = {}
    for t in traces:
        for k, v in t["counts"].items():
            counts[k] = counts.get(k, 0) + v
    durations = sorted(d for t in traces for d in t["simulate_durations"])
    return {"calls": calls, "self_s": self_s, "counts": counts, "durations": durations}


def _quantile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def layer_metrics(merged: dict, artifact_bytes: int) -> dict:
    calls, self_s, counts = merged["calls"], merged["self_s"], merged["counts"]
    factors = calls["linalg.factor"]
    stepper_calls = calls["operators.stepper"]
    return {
        "rng.sample_path.calls": calls["rng.sample_path"],
        "rng.sample_path.busy_s": self_s["rng.sample_path"],
        "rng.draws": counts.get("rng.draws", 0),
        "reaction.evaluate.calls": calls["reaction.evaluate"],
        "reaction.evaluate.busy_s": self_s["reaction.evaluate"],
        "noise.modal_field.calls": calls["noise.modal_field"],
        "noise.modal_field.busy_s": self_s["noise.modal_field"],
        "noise.g.calls": calls["noise.g"],
        "noise.g.busy_s": self_s["noise.g"],
        "linalg.solve.calls": calls["linalg.solve"],
        "linalg.solve.busy_s": self_s["linalg.solve"],
        "linalg.factor.calls": calls["linalg.factor"],
        "linalg.factor.busy_s": self_s["linalg.factor"],
        "linalg.lu_nnz": counts.get("linalg.lu_nnz_total", 0) / factors if factors else 0,
        "linalg.solve.computed_bytes": (
            counts["linalg.solve.computed_bytes_total"] / calls["linalg.solve"]
            if calls["linalg.solve"] else 0),
        "operators.stepper.hit_ratio": (
            counts.get("operators.stepper.hits", 0) / stepper_calls if stepper_calls else 0),
        "solver.simulate.calls": calls["solver.simulate"],
        "solver.simulate.self_s": self_s["solver.simulate"],
        "solver.simulate.p50_s": _quantile(merged["durations"], 0.5),
        "solver.simulate.p90_s": _quantile(merged["durations"], 0.9),
        "solver.step.self_s": self_s["solver.step"],
        "solver.member_steps": counts.get("solver.member_steps", 0),
        "solver.early_stops": counts.get("solver.early_stops", 0),
        "experiments.self_s": self_s["experiments"],
        "config.build_problem.busy_s": self_s["config.build_problem"],
        "cli.artifact_write.busy_s": self_s["cli.artifact_write"],
        "cli.artifact_bytes": artifact_bytes,
    }


def layer_shares(merged: dict) -> list[tuple[str, float]]:
    """Each layer's share of the summed self time, largest first."""
    self_s = merged["self_s"]
    total = sum(self_s.values())
    return sorted(((k, v / total if total else 0.0) for k, v in self_s.items()),
                  key=lambda kv: -kv[1])


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "missing"


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _tally(data: dict) -> tuple[int, int, list[str]]:
    """Attempted and failed CLI calls, and what went wrong."""
    ref, samples = data["reference"], data["samples"]
    attempted = len(ref["problems"]) * len(samples)
    failed = 0
    notes = [f"warm-up call {i}: {p}" for i, probs in enumerate(ref["problems"])
             for p in probs]
    for s in samples:
        for i, probs in enumerate(s["problems"]):
            if not probs and s["digests"][i] != ref["digests"][i]:
                probs.append("artifact digest differs from the warm-up sample")
            failed += bool(probs)
            notes.extend(f"sample call {i}: {p}" for p in probs)
    return attempted, failed, notes


def _scale(result: dict) -> float:
    """Factor from this host's speed during a sample, measured by the
    probes at its start, between its calls and at its end, to the reference
    speed."""
    return REF_PROBE_S * PROBE_REPS / statistics.fmean(result["probe_s"])


def ref_wall(result: dict) -> float:
    return result["wall_s"] * _scale(result)


def end_to_end(data: dict, ref_trace: dict) -> dict:
    ok = [s["result"] for s in data["samples"] if s["result"] is not None]
    if not ok:
        raise Failure("no sample completed")
    raw = [r["wall_s"] for r in ok]
    walls = [ref_wall(r) for r in ok]
    wall = statistics.median(walls)
    setup = [t * _scale(r) for r in ok for t in r["setup_s"]]
    steps = ref_trace["counts"].get("solver.member_steps", 0)
    paths = ref_trace["calls"]["rng.sample_path"]
    print(f"# raw wall s over {len(raw)} samples: median {statistics.median(raw):.4f}, "
          f"fastest {min(raw):.4f}, slowest {max(raw):.4f}")
    print(f"# wall_ref_s over {len(walls)} samples: median {wall:.4f}, "
          f"fastest {min(walls):.4f}, slowest {max(walls):.4f}")
    print(f"# setup_s over {len(setup)} repetitions: median {statistics.median(setup):.5f}")
    print(f"# work per sample: {steps} member steps, {paths} paths")
    return {
        "wall_ref_s": wall,
        "member_steps_per_ref_s": steps / wall,
        "paths_per_ref_s": paths / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(data: dict, ref_trace: dict, calls: list[Call]) -> tuple[dict, bool]:
    ok = [s for s in data["samples"] if s["result"] is not None]
    traced = [s for s in ok if s["traced"]]
    untraced = [ref_wall(s["result"]) for s in ok if not s["traced"]]
    if not traced or not untraced:
        raise Failure("no traced and untraced sample pair completed")
    correct = True
    reference = layer_metrics(ref_trace, data["reference"]["artifact_bytes"])
    per_sample = []
    for s in traced:
        m = layer_metrics(_merge_trace(s["result"]["traces"]), s["artifact_bytes"])
        per_sample.append(m)
        for key in EXACT_COUNTS:
            if m[key] != reference[key]:
                correct = False
                print(f"# FAIL count {key} changed: {m[key]} vs {reference[key]}")
        for t in s["result"]["traces"]:
            if sum(t["self_s"].values()) > t["wall_s"]:
                correct = False
                print("# FAIL layer self times exceed the traced wall time")
    values = {key: statistics.median(m[key] for m in per_sample)
              for key in LAYER_UNITS if key != "trace.overhead_frac"}
    # median against median, rescaled as for wall_ref_s
    traced_wall = statistics.median(ref_wall(s["result"]) for s in traced)
    values["trace.overhead_frac"] = traced_wall / statistics.median(untraced) - 1.0
    print(f"# wall_ref_s medians: traced {traced_wall:.4f} s over {len(traced)} samples, "
          f"untraced {statistics.median(untraced):.4f} s over {len(untraced)}")
    middle = traced[len(traced) // 2]["result"]["traces"]
    parts = [("all calls", middle)]
    if len(middle) > 1:
        parts += [(" ".join(c.argv[:2]), [t]) for c, t in zip(calls, middle)]
    for title, traces in parts:
        print(f"# self-time shares, {title}:")
        for label, share in layer_shares(_merge_trace(traces)):
            print(f"#   {share:6.1%}  {label}")
    return values, correct


def report(runner: "Runner", data: dict) -> dict:
    attempted, failed, notes = _tally(data)
    print(f"# env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={_version('numpy')} scipy={_version('scipy')} "
          f"commit={_commit(runner.root)}")
    print(f"# {runner.label}: {len(data['samples'])} samples in "
          f"{data['measured_s']:.1f} s, {attempted} cli calls, {failed} failed "
          f"(failed_frac {failed / attempted:.3g})")
    for i, d in enumerate(data["reference"]["digests"]):
        print(f"# artifact sha256 call {i}: {d}")
    for note in notes[:20]:
        print(f"# FAIL {note}")
    if data["reference"]["result"] is None:
        raise Failure("the warm-up sample did not complete")
    ref_trace = _merge_trace(data["reference"]["result"]["traces"])
    if runner.trace:
        values, counts_ok = per_layer(data, ref_trace, runner.calls)
        units = LAYER_UNITS
    else:
        values, counts_ok = end_to_end(data, ref_trace), True
        units = END_TO_END_UNITS
    return {"correct": not notes and counts_ok,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed for every call (default: the "
                             "acceptance seeds 42, 21/11, 7)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a SIGTERM unwinds through Runner.close, which kills the running sample
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "srds" / "cli.py").is_file():
        print(f"run.py: no srds source tree at {root / 'src' / 'srds'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    label = (f"workload {args.workload} seed "
             f"{'default' if args.seed is None else args.seed} trace {args.trace}")
    runner = Runner(root, WORKLOADS[args.workload].calls(args.seed), args.seconds,
                    bool(args.trace), label)
    try:
        data = runner.run()
        result = report(runner, data)
    except Failure as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
