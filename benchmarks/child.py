"""Sample server of the srds benchmark: one fresh process per sample.

Run as ``python benchmarks/child.py SRC_DIR``.  The server imports srds from
``SRC_DIR`` (and numpy and scipy with it) once, then reads sample spec paths
from stdin, one per line.  For each it forks a process that runs the sample
and exits, waits for it, and answers with the sample's exit code on a line
of its own.  A forked sample starts from the server's state, in which
nothing has run yet, so every sample is a fresh process without paying the
second of import time that a new interpreter costs; its peak RSS covers the
imports and that one sample.

A sample calls ``srds.cli.main`` in-process on each argv in turn, with its
stdout/stderr sent to the files the spec names, and writes exit codes, wall
time and peak RSS to the spec's result file.  The host-speed probe
(``probe.py``) runs before each call and at the end, after the set-up timing
of an untraced sample; its times are returned for the runner to rescale
the sample's times with.  The probe calls nothing the tracer patches.

- With ``"trace": true`` the outside-in tracer is installed around the
  calls and the per-call span summaries are returned.
- Otherwise, once the calls are done and peak RSS is read, the set-up work
  (``build_problem`` plus the stepper factorizations at the given dt
  values) is timed for ``setup_budget_s``.  Timing it in every sample
  spreads the set-up repetitions over the whole run, like the samples.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_srds(src: str):
    sys.path.insert(0, src)
    import srds
    import srds.cli

    origin = Path(srds.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise SystemExit(f"srds imported from {origin}, not from {src}")
    return srds


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _setup_times(srds, configs, budget_s: float) -> list[float]:
    from srds.config import validate_config

    jobs = [(validate_config(json.loads(Path(p).read_text())), dts) for p, dts in configs]
    times = []
    started = time.perf_counter()
    while len(times) < 2 or time.perf_counter() - started < budget_s:
        t0 = time.perf_counter()
        for cfg, dts in jobs:
            problem, _, _ = srds.build_problem(cfg)
            for op in problem.operators:
                for dt in dts:
                    op.stepper(dt)
        times.append(time.perf_counter() - t0)
    return times


def run_sample(srds, spec: dict) -> None:
    from probe import probe_s as run_probe

    probe_s = []
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    codes, traces = [], []
    wall = 0.0
    try:
        for i, argv in enumerate(spec["argv"]):
            print(f"@@bench-call {i}", flush=True)
            print(f"@@bench-call {i}", file=sys.stderr, flush=True)
            probe_s.append(run_probe(spec["probe_reps"]))
            t0 = time.perf_counter()
            codes.append(srds.cli.main(argv))
            call_wall = time.perf_counter() - t0
            wall += call_wall
            if tracer is not None:
                traces.append({**tracer.summary(), "wall_s": call_wall})
                tracer.clear()
    finally:
        if tracer is not None:
            tracer.restore()
    sys.stdout.flush()
    result = {"codes": codes, "wall_s": wall, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["traces"] = traces
    else:
        result["setup_s"] = _setup_times(srds, spec["setup"], spec["setup_budget_s"])
    probe_s.append(run_probe(spec["probe_reps"]))
    result["probe_s"] = probe_s
    Path(spec["result"]).write_text(json.dumps(result))


def _forked_sample(srds, spec_path: str) -> int:
    """Body of a forked sample process; returns its exit code."""
    try:
        spec = json.loads(Path(spec_path).read_text())
        for fd, name in ((1, "stdout"), (2, "stderr")):
            target = os.open(spec[name], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(target, fd)
            os.close(target)
        run_sample(srds, spec)
        return 0
    except BaseException:
        traceback.print_exc()
        return 1
    finally:
        sys.stdout.flush()
        sys.stderr.flush()


def main() -> int:
    srds = _import_srds(sys.argv[1])
    import probe  # noqa: F401  (imported once, before any fork)

    for line in sys.stdin:
        pid = os.fork()
        if pid == 0:
            os._exit(_forked_sample(srds, line.strip()))
        _, status = os.waitpid(pid, 0)
        print(os.waitstatus_to_exitcode(status), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
