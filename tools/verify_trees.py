"""Run the ``srds verify <suite> --preset fhn`` suites into OUT and print,
per suite, its exit code and the sha256 of the artifact tree it wrote.

    python tools/verify_trees.py OUT [SUITE ...]    # default: all eight suites

prints one ``<suite> exit=<code> sha256=<digest>`` line per suite.  Each
suite writes its tree under ``OUT/<suite>/`` and its stdout and stderr to
``OUT/<suite>.log``, outside the tree.  With no SUITE it then runs each call
of each benchmark workload (``benchmarks/workloads.py``, read, not changed)
as ``benchmarks/run.py`` does: the call's argv, ``--config`` (its config,
written to ``OUT/<workload>/config-<i>.json``), ``--seed`` (the config's
master seed) and ``--out OUT/<workload>/call-<i>``, logging to
``OUT/<workload>/call-<i>.log``; and prints one
``<workload> call <i> exit=<code> sha256=<digest>`` line per call, the
digest that run.py prints on its ``# artifact sha256 call <i>`` line.

The digest is the scheme of ``benchmarks/run.py``'s ``_tree_digest``: a
sha256 over the tree's files in sorted order of their relative paths, each
path followed by a NUL byte and the sha256 of the file's bytes.  Everything
runs in this process on the srds of this checkout (``src/`` next to
``tools/``), so "two checkouts write the same trees" is this command on each
checkout, then ``diff`` of its output.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def tree_digest(root: Path) -> str:
    """The sha256 of the files under ``root`` (none if it is missing)."""
    h = hashlib.sha256()
    if root.is_dir():
        for p in sorted(root.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(root)).encode() + b"\0")
                h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def _run_cli(argv: list[str], log: Path) -> int:
    """``srds.cli.main(argv)``, its stdout and stderr written to ``log``."""
    from srds.cli import main

    with open(log, "w") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        return main(argv)


def verify_tree(out: Path, suite: str) -> tuple[int, str]:
    """(exit code, tree digest) of ``srds verify <suite> --preset fhn``
    written under ``out/<suite>``."""
    out.mkdir(parents=True, exist_ok=True)
    code = _run_cli(["verify", suite, "--preset", "fhn", "--out", str(out / suite)],
                    out / f"{suite}.log")
    return code, tree_digest(out / suite)


def workloads() -> dict:
    """``benchmarks/workloads.py``'s WORKLOADS, by name."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def workload_tree(out: Path, call, i: int) -> tuple[int, str]:
    """(exit code, tree digest) of ``call``, call ``i`` of a workload, run
    as ``benchmarks/run.py`` runs it, under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    config = out / f"config-{i}.json"
    config.write_text(json.dumps(call.config, sort_keys=True, indent=1))
    code = _run_cli([*call.argv, "--config", str(config),
                     "--seed", str(call.config["master_seed"]),
                     "--out", str(out / f"call-{i}")], out / f"call-{i}.log")
    return code, tree_digest(out / f"call-{i}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from srds.verify import SUITES

    out, suites = Path(argv[0]), argv[1:] or list(SUITES)
    for suite in suites:
        code, digest = verify_tree(out, suite)
        print(f"{suite} exit={code} sha256={digest}", flush=True)
    if len(argv) == 1:
        for name, workload in workloads().items():
            for i, call in enumerate(workload.calls(None)):
                code, digest = workload_tree(out / name, call, i)
                print(f"{name} call {i} exit={code} sha256={digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
