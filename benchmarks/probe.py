"""Host-speed probe for the srds benchmark.

The benchmark runs on a few cores of a shared host.  Other tenants slow a
process there by up to 1.5x, in phases that last from seconds to minutes,
and the slowdown shows in the process's CPU time as well as in its wall
time, so no statistic over one run of a few tens of seconds removes it:
over 150 s of back-to-back positivity calls, the median call of a 15 s
window moved by 31% (quartile spread over median) from window to window.

Each sample therefore runs this fixed probe right before each of its CLI
calls and at its end, and the runner rescales the sample's times to a
reference host speed: ``t * REF_PROBE_S / probe_s``.  Over the same 150 s,
with a probe before and after each call, the window medians of the
rescaled times moved by 1.5%.

The probe uses Python, numpy and scipy but nothing of srds, so a change to
srds cannot move it.  Its three parts mirror where srds spends its time:
interpreter dispatch, numpy operations on short arrays (the 1D step) and a
sparse LU solve on a 2D grid (the 2D step).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# one probe's time on the 2-vCPU host the benchmark was sized on, in its
# faster phases; it only sets the scale of the rescaled times
REF_PROBE_S = 0.055


class Probe:
    def __init__(self, n: int = 64):
        d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self._lu = splu((sp.kron(eye, d) + sp.kron(d, eye) + sp.identity(n * n)).tocsc())
        self._rhs = np.ones(n * n)
        self._x = np.linspace(0.0, 1.0, 32)

    @staticmethod
    def _interpreter() -> int:
        s = 0
        for i in range(250_000):
            s += i * i % 7
        return s

    def _small_arrays(self) -> np.ndarray:
        x, y = self._x, self._x
        for _ in range(5_000):
            x = np.maximum(x * 0.999 + y * 0.001, 0.0)
        return x

    def _sparse_solve(self) -> np.ndarray:
        for _ in range(80):
            x = self._lu.solve(self._rhs)
        return x

    def run(self, reps: int) -> float:
        """Wall time of ``reps`` rounds of the three parts."""
        t0 = time.perf_counter()
        for _ in range(reps):
            self._interpreter()
            self._small_arrays()
            self._sparse_solve()
        return time.perf_counter() - t0


def probe_s(reps: int) -> float:
    """Build a probe, time ``reps`` rounds and free it again, so that the
    probe's few MB do not stay resident under the CLI calls' peak RSS."""
    return Probe().run(reps)
