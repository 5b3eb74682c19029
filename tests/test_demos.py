"""The demos in ``demos/`` run to the end, as a reader would run them."""

import os
import subprocess
import sys
from pathlib import Path

import srds

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# each demo in turn in one interpreter; a line after each one that finished
_RUN_DEMOS = """
import runpy, sys
for path in sys.argv[1:]:
    runpy.run_path(path, run_name="__main__")
    print("demo finished:", path, flush=True)
"""


def test_every_demo_runs_to_the_end(tmp_path):
    assert len(DEMOS) == 7
    paths = [str(Path(srds.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _RUN_DEMOS, *map(str, DEMOS)],
        cwd=tmp_path, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
    finished = [line.split(": ", 1)[1] for line in done.stdout.splitlines()
                if line.startswith("demo finished: ")]
    assert finished == list(map(str, DEMOS))
