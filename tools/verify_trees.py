"""Run the ``srds verify <suite> --preset fhn`` suites into OUT and print,
per suite, its exit code and the sha256 of the artifact tree it wrote.

    python tools/verify_trees.py OUT [SUITE ...]    # default: all eight suites

prints one ``<suite> exit=<code> sha256=<digest>`` line per suite.  Each
suite writes its tree under ``OUT/<suite>/`` and its stdout and stderr to
``OUT/<suite>.log``, outside the tree.  The digest is the scheme of
``benchmarks/run.py``'s ``_tree_digest``: a sha256 over the tree's files in
sorted order of their relative paths, each path followed by a NUL byte and
the sha256 of the file's bytes.  The suites run in this process on the srds
of this checkout (``src/`` next to ``tools/``), so "two checkouts write the
same trees" is this command on each checkout, then ``diff`` of its output.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def tree_digest(root: Path) -> str:
    """The sha256 of the files under ``root`` (none if it is missing)."""
    h = hashlib.sha256()
    if root.is_dir():
        for p in sorted(root.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(root)).encode() + b"\0")
                h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def verify_tree(out: Path, suite: str) -> tuple[int, str]:
    """(exit code, tree digest) of ``srds verify <suite> --preset fhn``
    written under ``out/<suite>``."""
    from srds.cli import main

    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{suite}.log", "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        code = main(["verify", suite, "--preset", "fhn", "--out", str(out / suite)])
    return code, tree_digest(out / suite)


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
