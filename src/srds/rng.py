"""Reproducible Brownian increment streams from counter-based RNG.

Every increment is a pure function of (master_seed, path_index, component,
mode, step): the (component, mode) pair selects an independent Philox
stream via the 128-bit key

    key = [master_seed, path_index * 2^32 + component * 2^16 + mode]

and the step indexes into that stream.  Uniforms are built from the top
52 bits n of each raw 64-bit Philox word as u = (n + 0.5) * 2^-52 (strictly
inside (0,1)), and mapped to normals with Wichura's AS241 rational
approximation of the inverse normal CDF so the bit pattern does not depend
on any library's sampling internals.  (The 52-bit integers equal numpy's
``Generator.integers(0, 2**52)`` on the same stream: its Lemire bound for a
power of two is that shift.)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .readers import read_integer, read_number


def _table(*coeffs) -> tuple:
    """Coefficients as 0-d float64 arrays: a ufunc takes one without the
    scalar discovery it runs on a Python float operand (see reaction._ZERO),
    and the values, so every bit, are the same."""
    return tuple(np.array(c) for c in coeffs)


# AS241 (PPND16) coefficient tables.
_A = _table(3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
            1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
            3.3430575583588128105e4, 2.5090809287301226727e3)
_B = _table(1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
            2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
            5.2264952788528545610e3)
_C = _table(1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
            3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
            2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = _table(1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
            1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
            1.05075007164441684324e-9)
_E = _table(6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
            2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
            2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = _table(1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
            7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
            2.04426310338993978564e-15)


def _poly(coeffs, x):
    r = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        r *= x
        r += c  # bitwise r * x + c
    return r


def normal_inverse(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF (AS241 PPND16), max abs error < 1e-9."""
    p = np.asarray(p, dtype=np.float64)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if not np.all((p > 0.0) & (p < 1.0)):  # NaN is outside too
        raise ValueError("normal_inverse requires p strictly inside (0,1)")
    q = p - 0.5
    # the central rational function on every element (its denominator has
    # no zero for |q| < 0.5), then the |q| > 0.425 tails overwritten; each
    # in-place step is bitwise its out-of-place form
    r = np.square(q)  # q ** 2
    np.subtract(0.180625, r, out=r)
    out = _poly(_A, r)
    out *= q
    out /= _poly(_B, r)
    tail = np.abs(q) > 0.425
    qt = q[tail]
    r = np.sqrt(-np.log(np.where(qt < 0, p[tail], 1.0 - p[tail])))
    x = _poly(_C, r - 1.6)
    x /= _poly(_D, r - 1.6)
    far = r > 5.0
    if far.any():  # p below about 1.4e-11 or above 1 - 1.4e-11
        x[far] = _poly(_E, r[far] - 5.0) / _poly(_F, r[far] - 5.0)
    out[tail] = np.where(qt < 0, -x, x)
    return out[0] if scalar else out


MAX_MODE = 1 << 16
MAX_PATH = 1 << 32
MAX_SEED = 1 << 64


def _read_key(master_seed: int, path_index: int, component: int, mode: int) -> tuple:
    """(master_seed, path_index, component, mode) as ints, if the (component,
    mode) stream of the path, and so every stream below it, has a Philox
    key; else ValueError naming the first value that is not an integer or is
    out of range."""
    master_seed = read_integer("master_seed", master_seed, least=0, below=MAX_SEED)
    component = read_integer("component", component, least=0, below=MAX_MODE)
    mode = read_integer("mode", mode, least=0, below=MAX_MODE)
    path_index = read_integer("path_index", path_index, least=0, below=MAX_PATH)
    return master_seed, path_index, component, mode


_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def _raw_words(bg: np.random.Philox, master_seed: int, path_index: int,
               component: int, mode: int, n: int) -> np.ndarray:
    """Re-key ``bg`` to the start of the (seed, path, component, mode) stream,
    a key ``_read_key`` returned (counter zero, empty buffer: a fresh
    ``Philox(key=...)``), and return its first n raw 64-bit words."""
    lane = (path_index << 32) | (component << 16) | mode
    bg.state = {"bit_generator": "Philox",
                "state": {"counter": _ZERO_WORDS,
                          "key": np.array([master_seed, lane], dtype=np.uint64)},
                "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return bg.random_raw(n)


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """(n + 0.5) * 2^-52 of the top 52 bits n of each raw word; ``raw`` is
    overwritten."""
    raw >>= 12
    u = raw.astype(np.float64)
    u += 0.5
    u *= 2.0**-52
    return u


def uniform_stream(master_seed: int, path_index: int, component: int, mode: int,
                   n: int) -> np.ndarray:
    """First n uniforms of the (seed, path, component, mode) stream, in (0,1)."""
    n = read_integer("n", n, least=0)
    master_seed, path_index, component, mode = _read_key(master_seed, path_index,
                                                         component, mode)
    return _uniforms(_raw_words(np.random.Philox(0), master_seed, path_index,
                                component, mode, n))


def gaussian_entry(master_seed: int, path_index: int, component: int, mode: int,
                   step: int, dt_fine: float) -> float:
    """Regenerate the single increment at (component, mode, step)."""
    dt_fine = read_number("dt_fine", dt_fine, above=0)
    step = read_integer("step", step, least=0)
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
    components = read_integer("components", components, least=1)
    modes = read_integer("modes", modes, least=1)
    n_fine = read_integer("n_fine", n_fine, least=1)
    dt_fine = read_number("dt_fine", dt_fine, above=0)
    master_seed, path_index, _, _ = _read_key(master_seed, path_index, components - 1,
                                              modes - 1)
    # re-keyed per stream; a fixed seed spares the OS-entropy seeding
    bg = np.random.Philox(0)
    raw = np.empty((components, modes, n_fine), dtype=np.uint64)
    for l in range(components):
        for k in range(modes):
            raw[l, k] = _raw_words(bg, master_seed, path_index, l, k, n_fine)
    inc = normal_inverse(_uniforms(raw))
    inc *= np.sqrt(dt_fine)
    inc.setflags(write=False)
    return WienerPath(master_seed=master_seed, path_index=path_index,
                      components=components, modes=modes, n_fine=n_fine,
                      dt_fine=float(dt_fine), increments=inc)


# magic, format version, seed, path_index, r, K, n_fine (little-endian
# uint64), dt_fine (little-endian float64): 64 bytes
_MAGIC = b"SRDSPATH"
_VERSION = 1
_HEADER = struct.Struct("<8sQQQQQQd")


def save_path(path: WienerPath, file) -> None:
    """Binary export: header then raw little-endian float64 increments in
    (component, mode, step) C order, for cross-implementation replay."""
    with open(file, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, path.master_seed, path.path_index,
                              path.components, path.modes, path.n_fine, path.dt_fine))
        fh.write(np.ascontiguousarray(path.increments, dtype="<f8").tobytes())


def load_path(file) -> WienerPath:
    """Read a file written by ``save_path``.  A short or foreign file, another
    format version, or a size the header does not account for raises
    ValueError."""
    with open(file, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or not raw.startswith(_MAGIC):
        raise ValueError(f"{file} is not an srds path file "
                         f"({len(raw)} bytes, no {_MAGIC.decode()} header)")
    _, version, seed, path_index, r, K, n_fine, dt_fine = _HEADER.unpack_from(raw)
    if version != _VERSION:
        raise ValueError(f"{file}: path file version {version}, expected {_VERSION}")
    body = len(raw) - _HEADER.size
    if (min(r, K, n_fine) < 1 or body != 8 * r * K * n_fine
            or path_index >= MAX_PATH or not 0 < dt_fine < np.inf):
        raise ValueError(f"{file}: corrupt srds path file (r={r}, K={K}, "
                         f"n_fine={n_fine}, path_index={path_index}, dt_fine={dt_fine}, "
                         f"{body} bytes of increments)")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(r, K, n_fine)
    data = data.astype(np.float64)
    data.setflags(write=False)
    return WienerPath(master_seed=seed, path_index=path_index, components=r,
                      modes=K, n_fine=n_fine, dt_fine=dt_fine, increments=data)
