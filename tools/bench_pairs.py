"""Run the benchmark on two checkouts in alternating pairs and say, per
end-to-end metric, whether the change shows a gain that may be claimed.

    python tools/bench_pairs.py PARENT CHANGE --workload W

PARENT and CHANGE are the roots of two source checkouts.  Each of ten pairs
runs the benchmark command of CHANGE's ``BENCHMARK.json`` once in each
checkout for its ``run_seconds``, one process at a time: the parent first
in even pairs, the change first in odd ones.  The last stdout line of a run
is its JSON result.

For each end-to-end metric of ``BENCHMARK.json`` it then prints each side's
median and quartiles, the change's wins, ties and losses over the pairs,
and whether a gain holds: every change run gave a result with
``"correct": true`` and no failed operation, the change wins at least nine
of the ten pairs (ties count for neither, and a pair with a run that gave
no result is no win), and its median is better than the parent's by more
than the distance between the parent's quartiles.  A run that gave no
result, reads ``"correct": false`` or failed any operation is flagged on a
``FLAG`` line.
Nothing here reads or writes files under the checkouts' ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # the pairs run, all of them needed for a gain
CLAIM_SHARE = 0.9  # of the pairs, the change must win at least this share


def run_once(checkout: Path, command: list, workload: str, seconds: float) -> dict | None:
    """The JSON result of one benchmark run in ``checkout``, or None (with
    the run's last stderr line printed) when it exits non-zero."""
    proc = subprocess.run([*command, "--workload", workload, "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        print(f"# {checkout}: exit {proc.returncode} {tail[0]}", flush=True)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _flag(run: dict | None) -> str | None:
    """Why ``run`` counts for no gain, or None when it may."""
    if run is None:
        return "no result"
    if not run["correct"] or run["failed"] > 0:
        return (f"correct={str(run['correct']).lower()} failed={run['failed']}"
                f" of {run['attempted']}")
    return None


def summarize(runs: dict, metrics: list) -> list[str]:
    """The summary lines of ``runs`` ({"parent": [...], "change": [...]},
    the pairs' results in order, None for a run without one) over the
    end-to-end ``metrics`` (BENCHMARK.json entries with "name" and
    "better")."""
    lines = [f"FLAG {side} run {i}: {_flag(run)}" for side in SIDES
             for i, run in enumerate(runs[side]) if _flag(run)]
    # a change run without a clean result leaves no gain to claim
    clean = not any(_flag(run) for run in runs["change"])
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
             if p is not None and c is not None]
    n_pairs = len(runs["parent"])
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        if not pairs:
            lines.append(f"{name}: no pair with both results")
            continue
        wins = ties = losses = 0
        for p, c in pairs:
            a, b = p["metrics"][name]["value"], c["metrics"][name]["value"]
            if a == b:
                ties += 1
            elif (b < a) == lower:
                wins += 1
            else:
                losses += 1
        q = {side: _quartiles([r["metrics"][name]["value"] for r in runs[side]
                               if r is not None]) for side in SIDES}
        gap = (q["parent"][1] - q["change"][1]) * (1 if lower else -1)
        holds = (clean and n_pairs >= PAIRS and wins >= CLAIM_SHARE * n_pairs
                 and gap > q["parent"][2] - q["parent"][0])
        sides = ", ".join(f"{side} {q[side][1]:.5g} [{q[side][0]:.5g}, {q[side][2]:.5g}]"
                          for side in SIDES)
        lines.append(f"{name} ({metric['better']} is better): {sides}; change wins "
                     f"{wins}, ties {ties}, losses {losses} of {n_pairs} pairs; "
                     f"gain {'holds' if holds else 'not shown'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in SIDES}
    for i in range(PAIRS):
        for side in SIDES[::-1] if i % 2 else SIDES:
            runs[side].append(run_once(checkouts[side], bench["command"], args.workload,
                                       bench["run_seconds"]))
            print(f"# pair {i} {side} done", flush=True)
    print("\n".join(summarize(runs, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
