"""Reproducible Brownian increment streams from counter-based RNG.

Every increment is a pure function of (master_seed, path_index, component,
mode, step): the (component, mode) pair selects an independent Philox
stream via the 128-bit key

    key = [master_seed, path_index * 2^32 + component * 2^16 + mode]

and the step indexes into that stream.  Uniforms are built from 52-bit
integers as u = (n + 0.5) * 2^-52 (strictly inside (0,1), one 64-bit word
per draw), and mapped to normals with Wichura's AS241 rational
approximation of the inverse normal CDF so the bit pattern does not depend
on any library's sampling internals.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

# AS241 (PPND16) coefficient tables.
_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
      2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _poly(coeffs, x):
    r = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        r = r * x + c
    return r


def normal_inverse(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF (AS241 PPND16), max abs error < 1e-9."""
    p = np.asarray(p, dtype=np.float64)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("normal_inverse requires p strictly inside (0,1)")
    q = p - 0.5
    out = np.empty_like(p)
    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] ** 2
        out[central] = q[central] * _poly(_A, r) / _poly(_B, r)
    tail = ~central
    if np.any(tail):
        qt = q[tail]
        r = np.where(qt < 0, p[tail], 1.0 - p[tail])
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        x = np.empty_like(r)
        x[near] = _poly(_C, r[near] - 1.6) / _poly(_D, r[near] - 1.6)
        x[~near] = _poly(_E, r[~near] - 5.0) / _poly(_F, r[~near] - 5.0)
        out[tail] = np.where(qt < 0, -x, x)
    return out[0] if scalar else out


_MAX_MODE = 1 << 16
MAX_PATH = 1 << 32


def valid_seed(master_seed) -> bool:
    """True for an integer (not a bool) in [0, 2^64), the Philox key range."""
    return (isinstance(master_seed, (int, np.integer))
            and not isinstance(master_seed, bool) and 0 <= master_seed < 1 << 64)


def _stream_key(master_seed: int, path_index: int, component: int, mode: int) -> np.ndarray:
    if not valid_seed(master_seed):
        raise ValueError(f"master_seed {master_seed!r} is not an integer in [0, 2^64)")
    if not 0 <= component < _MAX_MODE:
        raise ValueError(f"component {component} outside [0, {_MAX_MODE})")
    if not 0 <= mode < _MAX_MODE:
        raise ValueError(f"mode {mode} outside [0, {_MAX_MODE})")
    if not 0 <= path_index < MAX_PATH:
        raise ValueError(f"path_index {path_index} outside [0, {MAX_PATH})")
    lane = (path_index << 32) | (component << 16) | mode
    return np.array([master_seed, lane], dtype=np.uint64)


def uniform_stream(master_seed: int, path_index: int, component: int, mode: int,
                   n: int) -> np.ndarray:
    """First n uniforms of the (seed, path, component, mode) stream, in (0,1)."""
    key = _stream_key(master_seed, path_index, component, mode)
    gen = np.random.Generator(np.random.Philox(key=key))
    ints = gen.integers(0, 1 << 52, dtype=np.int64, size=n)
    return (ints.astype(np.float64) + 0.5) * 2.0**-52


def gaussian_entry(master_seed: int, path_index: int, component: int, mode: int,
                   step: int, dt_fine: float) -> float:
    """Regenerate the single increment at (component, mode, step)."""
    u = uniform_stream(master_seed, path_index, component, mode, step + 1)[step]
    return float(normal_inverse(u)) * float(np.sqrt(dt_fine))


@dataclass(frozen=True)
class WienerPath:
    """Brownian increments of r*K independent driving motions.

    ``increments`` has shape (r, K, n_fine) with per-entry variance dt_fine.
    Coarsening by summing groups of 2^j consecutive fine increments yields
    the increments of the same path observed at dt = 2^j * dt_fine.
    """

    master_seed: int
    path_index: int
    components: int
    modes: int
    n_fine: int
    dt_fine: float
    increments: np.ndarray

    def coarse(self, j: int = 0) -> np.ndarray:
        """Increments at resolution 2^j * dt_fine, shape (r, K, n_fine / 2^j)."""
        if j == 0:
            return self.increments
        group = 1 << j
        if self.n_fine % group:
            raise ValueError(f"n_fine={self.n_fine} not divisible by 2^{j}")
        r, K, n = self.increments.shape
        return self.increments.reshape(r, K, n // group, group).sum(axis=3)


def sample_path(master_seed: int, components: int, modes: int, n_fine: int,
                dt_fine: float, path_index: int = 0) -> WienerPath:
    """Sample the full increment array for one path."""
    if n_fine < 1:
        raise ValueError("n_fine must be >= 1")
    if not dt_fine > 0:
        raise ValueError("dt_fine must be positive")
    sqrt_dt = np.sqrt(dt_fine)
    inc = np.empty((components, modes, n_fine))
    for l in range(components):
        for k in range(modes):
            u = uniform_stream(master_seed, path_index, l, k, n_fine)
            inc[l, k] = normal_inverse(u) * sqrt_dt
    inc.setflags(write=False)
    return WienerPath(master_seed=int(master_seed), path_index=int(path_index),
                      components=components, modes=modes, n_fine=n_fine,
                      dt_fine=float(dt_fine), increments=inc)


_HEADER = struct.Struct("<QQQQd")  # seed, r, K, n_fine, dt_fine (little-endian 64-bit)


def save_path(path: WienerPath, file) -> None:
    """Binary export: header then raw little-endian float64 increments in
    (component, mode, step) C order, for cross-implementation replay."""
    with open(file, "wb") as fh:
        fh.write(_HEADER.pack(path.master_seed, path.components, path.modes,
                              path.n_fine, path.dt_fine))
        fh.write(np.ascontiguousarray(path.increments, dtype="<f8").tobytes())


def load_path(file) -> WienerPath:
    with open(file, "rb") as fh:
        seed, r, K, n_fine, dt_fine = _HEADER.unpack(fh.read(_HEADER.size))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(int(r), int(K), int(n_fine))
    data = data.astype(np.float64)
    data.setflags(write=False)
    return WienerPath(master_seed=int(seed), path_index=0, components=int(r),
                      modes=int(K), n_fine=int(n_fine), dt_fine=float(dt_fine),
                      increments=data)
