"""Outside-in span tracer for the srds benchmark.

The tracer adds no hooks inside ``src/srds``.  It replaces public callables
where callers look them up: class methods (looked up on the class at call
time) and the module-level names a consumer module imported with
``from .x import y`` (patching only the defining module would miss those
calls).  ``restore`` puts every original back.

Spans are kept in memory as four parallel arrays (name id, parent id,
start, end); self time is a span's duration minus the durations of its
direct children.  Only the invoking process is traced: no workload runs
the CLI's process pool (see ``workloads.py``).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

# span names; several patch sites may share one (the simulate imported by
# the cli and by experiments are both "solver.simulate")
LAYER_NAMES = (
    "cli.main", "cli.artifact_write", "config.build_problem",
    "experiments", "reaction.check_quasi_positive", "solver.simulate",
    "solver.step", "rng.sample_path", "reaction.evaluate", "noise.modal_field",
    "noise.g", "operators.stepper", "linalg.factor", "linalg.solve",
)


_ABSENT = object()  # restore marker for a name the tracer added


class _TimedFile:
    """Context manager around a file opened by the CLI; the span covers the
    open and every write up to the close at the end of the ``with`` block."""

    def __init__(self, fh, finish):
        self._fh = fh
        self._finish = finish

    def __enter__(self):
        return self._fh.__enter__()

    def __exit__(self, *exc):
        try:
            return self._fh.__exit__(*exc)
        finally:
            self._finish()


class Tracer:
    def __init__(self):
        self._name_id = {name: i for i, name in enumerate(LAYER_NAMES)}
        self._sid_name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.simulate_durations: list[float] = []
        self._factored: dict[int, object] = {}  # id -> ShiftedSolve, kept alive
        self._solve_calls: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # span recording

    def _open(self, name: str) -> int:
        sid = len(self._sid_name)
        self._sid_name.append(self._name_id[name])
        self._parent.append(self._stack[-1])
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = self._name_id[name]
        sid_name, parent, start, end = self._sid_name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            sid = len(sid_name)
            sid_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, out, state, end[sid] - t0)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, before, after))

    # ------------------------------------------------------------------
    # counters attached to the wrapped calls

    def _after_simulate(self, args, traj, state, duration) -> None:
        self.counts["solver.member_steps"] += len(traj.sup_norms) - 1
        self.counts["solver.early_stops"] += int(traj.stopping.triggered)
        self.simulate_durations.append(duration)

    def _after_sample_path(self, args, path, state, duration) -> None:
        self.counts["rng.draws"] += path.increments.size

    def _after_factor(self, args, out, state, duration) -> None:
        # the L/U sizes are read in summary(): building L and U costs time
        # that would otherwise land in the caller's span
        self._factored[id(args[0])] = args[0]

    def _after_solve(self, args, out, state, duration) -> None:
        self._solve_calls[id(args[0])] += 1

    def _before_stepper(self, args):
        return float(args[1]) in args[0]._steppers

    def _after_stepper(self, args, out, hit, duration) -> None:
        self.counts["operators.stepper.hits"] += int(hit)

    # ------------------------------------------------------------------
    # install / restore

    def install(self) -> None:
        import srds.cli
        import srds.experiments
        import srds.solver
        import srds.verify
        from srds.linalg import ShiftedSolve
        from srds.noise import ComponentNoise, HolderFunction
        from srds.operators import EllipticOperator
        from srds.reaction import ReactionSystem

        if self._saved:
            raise RuntimeError("tracer already installed")
        self._patch(srds.cli, "main", "cli.main")
        self._patch(srds.cli, "build_problem", "config.build_problem")
        for mod in (srds.cli, srds.experiments):
            self._patch(mod, "simulate", "solver.simulate", after=self._after_simulate)
            self._patch(mod, "sample_path", "rng.sample_path",
                        after=self._after_sample_path)
        self._patch(srds.experiments, "check_quasi_positive",
                    "reaction.check_quasi_positive")
        for fn in ("positivity_experiment", "uniqueness_experiment", "moment_experiment"):
            self._patch(srds.verify, fn, "experiments")
        self._patch(srds.solver, "step", "solver.step")
        self._patch(srds.experiments.ExperimentReport, "write", "cli.artifact_write")
        self._patch(ReactionSystem, "evaluate", "reaction.evaluate")
        self._patch(ComponentNoise, "modal_field", "noise.modal_field")
        self._patch(HolderFunction, "__call__", "noise.g")
        self._patch(EllipticOperator, "stepper", "operators.stepper",
                    before=self._before_stepper, after=self._after_stepper)
        self._patch(ShiftedSolve, "__init__", "linalg.factor", after=self._after_factor)
        self._patch(ShiftedSolve, "solve", "linalg.solve", after=self._after_solve)

        # the ensemble writes its CSVs inline through the cli module's `open`
        def traced_open(*args, **kwargs):
            sid = self._open("cli.artifact_write")
            try:
                fh = open(*args, **kwargs)
            except BaseException:
                self._close(sid)
                raise
            return _TimedFile(fh, lambda: self._close(sid))

        self._patch_value(srds.cli, "open", traced_open)

    def _patch_value(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr, _ABSENT)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def clear(self) -> None:
        """Drop recorded spans and counters; patches stay installed."""
        for arr in (self._sid_name, self._parent, self._start, self._end):
            del arr[:]
        self._stack[:] = [-1]
        self.counts.clear()
        self.simulate_durations.clear()
        self._factored.clear()
        self._solve_calls.clear()

    # ------------------------------------------------------------------
    # summaries

    def summary(self) -> dict:
        """Per-layer calls and self time of this process, plus counters."""
        n = len(self._sid_name)
        names = np.frombuffer(self._sid_name, dtype=np.int32, count=n)
        parent = np.frombuffer(self._parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self._end, count=n) - np.frombuffer(self._start, count=n))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(LAYER_NAMES)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=self_time, minlength=k)
        counts = dict(self.counts)
        nnz = {key: int(s._lu.L.nnz + s._lu.U.nnz) for key, s in self._factored.items()}
        counts["linalg.lu_nnz_total"] = sum(nnz.values())
        # computed, not measured: each stored L/U entry is read once as an
        # 8-byte value plus a 4-byte index, and the right-hand side, the
        # permuted copy and the result are n float64 each
        counts["linalg.solve.computed_bytes_total"] = sum(
            (12 * nnz[key] + 3 * 8 * self._factored[key]._lu.shape[0]) * c
            for key, c in self._solve_calls.items())
        return {
            "calls": {name: int(calls[i]) for i, name in enumerate(LAYER_NAMES)},
            "self_s": {name: float(busy[i]) for i, name in enumerate(LAYER_NAMES)},
            "root_s": float(dur[~has_parent].sum()),
            "spans": n,
            "counts": counts,
            "simulate_durations": list(self.simulate_durations),
        }
