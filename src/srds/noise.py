"""Diagonal multiplicative spectral noise: g(u) * sum_k lambda_k e_k dbeta_k.

Each component carries its own orthonormal mode family e_k, spectral weights
lambda_k and scalar amplitude g.  The per-mode moduli sigma_k,m(s) =
c_m ||lambda_k e_k||_inf s^alpha of an alpha-Hölder g square-sum to
rho_m(s) = C_m s^(2 alpha) (`ComponentNoise.rho`): at alpha = 1/2 the linear
modulus whose Osgood divergence underpins the uniqueness machinery,
convergent below it.  The modulus type and its Osgood integral live in
`mollifier`.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AuditError
from .grid import DomainGrid
from .mollifier import PowerModulus
from .readers import read_integer


# ---------------------------------------------------------------------------
# spectral bases


@dataclass(frozen=True)
class SpectralBasis:
    """Mode table: values[k, cell] = e_k evaluated at the cell center."""

    kind: str
    grid: DomainGrid
    values: np.ndarray  # (K, n_total)
    sup_norms: np.ndarray  # (K,)

    @property
    def modes(self) -> int:
        return self.values.shape[0]

    def orthonormality_defect(self) -> float:
        gram = self.values @ self.values.T * self.grid.cell_volume
        return float(np.max(np.abs(gram - np.eye(self.modes))))

    def descriptor(self) -> bytes:
        return (self.kind.encode() + self.grid.descriptor() + self.values.tobytes())


def _cosine_modes_1d(grid: DomainGrid, axis: int, kmax: int) -> np.ndarray:
    L = grid.extents[axis]
    x = grid.axis_centers(axis)
    rows = np.empty((kmax, len(x)))
    rows[0] = 1.0 / math.sqrt(L)
    for k in range(1, kmax):
        rows[k] = math.sqrt(2.0 / L) * np.cos(k * np.pi * x / L)
    return rows


def cosine_neumann_basis(grid: DomainGrid, modes: int) -> SpectralBasis:
    """Neumann cosine family; sup norms uniformly bounded by prod sqrt(2/L_i).

    The sup norms are the exact function norms (1/sqrt(L) for the constant
    mode, sqrt(2/L) otherwise), not the cell-center sample maxima.  In 2D
    the modes are tensor products ordered by total frequency (k0 + k1, then
    k0), starting from the constant mode.  A frequency k >= n on an axis of
    n cells is sampled as zero or as a lower mode (aliased), so the family
    would not be orthonormal on the grid: such a mode raises ValueError.
    """
    modes = read_integer("modes", modes, least=1)

    def axis_sup(axis: int, k: int) -> float:
        L = grid.extents[axis]
        return 1.0 / math.sqrt(L) if k == 0 else math.sqrt(2.0 / L)

    def refuse(mode: str, axis: int):
        raise ValueError(f"noise mode {mode} aliases on axis {axis} of "
                         f"{grid.n_cells[axis]} cells: a frequency must be below "
                         "its axis's cell count")

    if grid.dim == 1:
        if modes > grid.n_cells[0]:
            refuse(str(grid.n_cells[0]), 0)
        vals = _cosine_modes_1d(grid, 0, modes)
        sup = np.array([axis_sup(0, k) for k in range(modes)])
    else:
        n0, n1 = grid.n_cells
        pairs = sorted((k0 + k1, k0, k1) for k0 in range(min(modes, n0))
                       for k1 in range(min(modes, n1)))[:modes]
        # the first aliased pair in that order, (n0, 0) or (0, n1), is
        # selected when fewer pairs than modes precede it
        first = min((n0, n0, 0), (n1, 0, n1))
        if len(pairs) < modes or pairs[-1] > first:
            refuse(str(first[1:]), 0 if first[1] == n0 else 1)
        rows0 = _cosine_modes_1d(grid, 0, min(modes, n0))
        rows1 = _cosine_modes_1d(grid, 1, min(modes, n1))
        vals = np.empty((modes, grid.n_total))
        sup = np.empty(modes)
        for i, (_, k0, k1) in enumerate(pairs):
            vals[i] = np.outer(rows0[k0], rows1[k1]).ravel()
            sup[i] = axis_sup(0, k0) * axis_sup(1, k1)
    return SpectralBasis(kind="cosine-neumann", grid=grid, values=vals, sup_norms=sup)


# ---------------------------------------------------------------------------
# scalar amplitudes


@dataclass(frozen=True)
class HolderFunction:
    """Scalar amplitude g with declared linear growth and alpha-Hölder moduli,
    alpha = ``exponent`` (1/2 unless given).

    ``holder_c`` maps a radius m to the constant c_m valid on [-m, m].  The
    declared constants are trusted but audited at build time: they must be
    finite, the exponent in (0, 1], and they are checked on seeded samples,
    4096 sample pairs on each of [-1, 1], [-10, 10] and [-100, 100], with
    absolute tolerance 1e-9.
    """

    fn: object  # elementwise vectorized callable: one call may cover several rows
    growth_a: float
    growth_b: float
    holder_c: object  # callable m -> c_m
    name: str = "custom"
    exponent: float = 0.5

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return self.fn(s)

    def audit(self) -> None:
        radii = (1.0, 10.0, 100.0)
        # a NaN bound is never exceeded: check the constants before sampling
        constants = [("growth_a", self.growth_a), ("growth_b", self.growth_b),
                     ("exponent", self.exponent)]
        constants += [(f"c_{m:g}", self.holder_c(m)) for m in radii]
        for key, value in constants:
            if not math.isfinite(value):
                raise AuditError("non-finite-constant", f"{key} = {value!r}")
        if not 0.0 < self.exponent <= 1.0:  # the modulus power 2 alpha
            raise AuditError("exponent", f"exponent = {self.exponent!r} outside (0, 1]")
        rng = np.random.default_rng(1234)
        for m in radii:
            s = rng.uniform(-m, m, size=4096)
            g = self.fn(s)
            bound = self.growth_a + self.growth_b * np.abs(s)
            bad = np.abs(g) > bound + 1e-9
            if np.any(bad):
                i = int(np.argmax(np.abs(g) - bound))
                raise AuditError(
                    "growth", f"|g({s[i]:.6g})|={abs(g[i]):.6g} exceeds "
                              f"{self.growth_a}+{self.growth_b}|s|")
            s2 = rng.uniform(-m, m, size=4096)
            cm = float(self.holder_c(m))
            lhs = np.abs(g - self.fn(s2))
            rhs = cm * np.abs(s - s2) ** self.exponent
            bad = lhs > rhs + 1e-9
            if np.any(bad):
                i = int(np.argmax(lhs - rhs))
                raise AuditError(
                    "holder", f"|g({s[i]:.6g})-g({s2[i]:.6g})|={lhs[i]:.6g} exceeds "
                              f"c_m|ds|^{self.exponent} with c_{m}={cm:.6g}")


# the amplitudes' constants, 0-d float64 arrays built once (see reaction._ZERO)
_ZERO = np.array(0.0)
_ONE = np.array(1.0)
_SHIFT = np.array(0.01)


def _sqrt_own(t):
    """sqrt of a temporary its caller made, in place when it is a float
    array."""
    try:
        return np.sqrt(t, t)
    except TypeError:  # a scalar, or an int array
        return np.sqrt(t)


def _sqrt_abs(s):
    return _sqrt_own(np.abs(s))


def _sqrt_pos(s):
    return _sqrt_own(np.maximum(s, _ZERO))


def _sqrt_clipped_01(s):
    t = np.clip(s, _ZERO, _ONE)
    p = _ONE - t
    p *= t  # (1 - t) * t, bitwise t * (1 - t)
    return _sqrt_own(p)


def _sqrt_abs_shifted(s):
    return _sqrt_own(np.abs(s) + _SHIFT)


class _Linear:
    def __init__(self, slope: float):
        self.slope = np.array(slope, dtype=float)  # 0-d, see _ZERO

    def __call__(self, s):
        return self.slope * np.asarray(s, dtype=float)


class _Power:
    """g(s) = |s|^alpha."""

    def __init__(self, alpha: float):
        self.alpha = np.array(alpha, dtype=float)  # 0-d, see _ZERO

    def __call__(self, s):
        t = np.abs(s)
        try:  # in place on the temporary when it is a float array
            return np.power(t, self.alpha, t)
        except TypeError:  # a scalar, or an int array
            return np.power(t, self.alpha)


def named_g(name: str) -> HolderFunction:
    """Built-in amplitudes addressable from run configs.

    "sqrt-abs":        g(s) = sqrt|s|
    "sqrt-pos":        g(s) = sqrt(s^+)            (g(0) = 0)
    "sqrt-clipped-01": g(s) = sqrt(s(1-s)) on [0,1], clipped outside
    "sqrt-abs-shifted": g(s) = sqrt(|s| + 0.01)    (g(0) != 0 control)
    "lipschitz:L":     g(s) = L*s
    "power:alpha":     g(s) = |s|^alpha, 0 < alpha <= 1 (alpha-Hölder, g(0) = 0)
    """
    if name == "sqrt-abs":
        return HolderFunction(_sqrt_abs, 1.0, 1.0, lambda m: 1.0, name=name)
    if name == "sqrt-pos":
        return HolderFunction(_sqrt_pos, 1.0, 1.0, lambda m: 1.0, name=name)
    if name == "sqrt-clipped-01":
        return HolderFunction(_sqrt_clipped_01, 0.5, 0.0, lambda m: 1.0, name=name)
    if name == "sqrt-abs-shifted":
        return HolderFunction(_sqrt_abs_shifted, 1.0, 1.0, lambda m: 1.0, name=name)
    if name.startswith("lipschitz:"):
        L = float(name.split(":", 1)[1])
        if not math.isfinite(L):
            raise ValueError(f"lipschitz constant must be finite, got {L!r}")
        return HolderFunction(_Linear(L), 0.0, abs(L),
                              lambda m, L=L: abs(L) * math.sqrt(2.0 * m), name=name)
    if name.startswith("power:"):
        alpha = float(name.split(":", 1)[1])
        if not 0.0 < alpha <= 1.0:  # NaN fails too; inf is above 1
            raise ValueError(f"power exponent must be finite and in (0, 1], "
                             f"got {alpha!r}")
        return HolderFunction(_Power(alpha), 1.0, 1.0, lambda m: 1.0, name=name,
                              exponent=alpha)
    raise ValueError(f"unknown amplitude name {name!r}")


# ---------------------------------------------------------------------------
# the noise model


# modal fields are built for whole blocks of steps, at most this many floats
# (512 KiB) at a time when a block is smaller
MODAL_BLOCK_FLOATS = 1 << 16
# a mode table is read in chunks of rows of at most this many floats
# (256 KiB), so that a chunk stays in cache while it serves every step and
# component of a block
MODAL_CHUNK_FLOATS = 1 << 15


def adjacent_runs(items, key) -> list:
    """(first item, slice) per run of adjacent items whose ``key`` is one
    object."""
    runs = []
    start = 0
    for i in range(1, len(items) + 1):
        if i == len(items) or key(items[i]) is not key(items[start]):
            runs.append((items[start], slice(start, i)))
            start = i
    return runs


def _row_chunks(n: int, K: int) -> list:
    """Row slices of an (n, K) mode table, about MODAL_CHUNK_FLOATS floats
    each: every chunk starts at a multiple of 64 rows (the matrix-vector
    kernel then groups rows as it does for the whole table, bit for bit),
    and a one-row tail joins the chunk before it."""
    step = max(64, MODAL_CHUNK_FLOATS // K // 64 * 64)
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


@dataclass(frozen=True)
class ComponentNoise:
    """One component's spectral noise: g(u) * sum_k lambda_k e_k dbeta_k."""

    basis: SpectralBasis
    lambdas: np.ndarray
    g: HolderFunction
    modes: int = field(init=False)  # K, read on every step
    mode_fields: np.ndarray = field(init=False)  # (n_total, K): lambda_k e_k columns
    sup_lambda_e: np.ndarray = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.shape != (self.basis.modes,):
            raise AuditError("noise-shape", f"lambdas of shape {lam.shape} for "
                                            f"{self.basis.modes} modes")
        bad = np.flatnonzero(~np.isfinite(lam))
        if bad.size:  # it would first show as a non-finite state at step 1
            raise ValueError(f"lambdas[{bad[0]}] is {lam[bad[0]]}; it must be finite")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "modes", self.basis.modes)
        object.__setattr__(self, "mode_fields",
                           np.multiply(self.basis.values.T, lam, order="C"))
        object.__setattr__(self, "sup_lambda_e", np.abs(lam) * self.basis.sup_norms)

    def rho_constant(self, m: float) -> float:
        cm = float(self.g.holder_c(m))
        return cm**2 * float(np.sum(self.sup_lambda_e**2))

    def rho(self, m: float) -> PowerModulus:
        """The modulus C_m s^(2 alpha) on [-m, m], alpha = ``g.exponent``:
        the linear C_m s at alpha = 1/2."""
        return PowerModulus(self.rho_constant(m), 2.0 * self.g.exponent)

    def is_zero(self) -> bool:
        return bool(np.all(self.lambdas == 0.0))

    def modal_field(self, increments: np.ndarray) -> np.ndarray:
        """sum_k lambda_k e_k(x) * db_k; independent of the state."""
        if increments.shape != (self.modes,):
            raise ValueError(f"expected {self.modes} increments, got {increments.shape}")
        return self.mode_fields @ increments

    def descriptor(self) -> bytes:
        return (self.basis.descriptor() + self.lambdas.tobytes()
                + self.g.name.encode()
                + repr((self.g.growth_a, self.g.growth_b)).encode())

    def _with_amplitude(self, g: HolderFunction) -> "ComponentNoise":
        """This component with amplitude g; basis, lambdas and the mode
        table are shared, not rebuilt."""
        twin = copy.copy(self)
        object.__setattr__(twin, "g", g)
        return twin


@dataclass(frozen=True)
class NoiseModel:
    """Diagonal noise: one independent ComponentNoise per equation."""

    components: tuple[ComponentNoise, ...]
    # (component, rows, row chunks) per run of components sharing a mode
    # table, as modal_fields reads them: built once
    table_runs: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "table_runs", [
            (comp, rows, _row_chunks(*comp.mode_fields.shape))
            for comp, rows in adjacent_runs(self.components, lambda c: c.mode_fields)])

    @property
    def r(self) -> int:
        return len(self.components)

    @property
    def modes(self) -> int:
        return max(c.modes for c in self.components)

    def modal_fields(self, increments: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """The modal fields of a block of m steps: ``increments`` is
        (m, r, K), the result (m, r, n_total), written into ``out`` if it is
        given and into a new array otherwise.  ``solver._advance`` builds a
        run's first chunk of steps here on the stepping thread, and each
        later chunk on the run's helper thread into an array the stepping
        thread allocated; that thread is the run's own and ends with it, so
        no thread is alive when ``ensemble`` forks its workers (see
        ``_advance``).  ``solver.mild_residual`` builds each of its chunks
        on the calling thread.

        Adjacent components that share one ``mode_fields`` table (as
        ``build_noise`` builds them from one basis object and bitwise-equal
        lambdas) form a run, and the table is read in chunks of rows
        (``_row_chunks``): one stacked matmul per chunk and run, which numpy
        runs as one matrix-vector product per step and component while the
        chunk stays in cache.  Chunks start at multiples of 64 rows and none
        is a single row (numpy would run it as a dot), so entry [i, l] is
        bitwise ``components[l].mode_fields @ increments[i, l, :K_l]`` for
        any strides of ``increments``, on one BLAS thread, whichever thread
        calls it.  (On several, OpenBLAS splits a large product among them,
        and a split that starts a thread off a row group changes the
        kernel's grouping; then neither product is bitwise its one-thread
        self.)"""
        if out is None:
            out = np.empty((increments.shape[0], self.r,
                            self.components[0].mode_fields.shape[0]))
        for comp, rows, chunks in self.table_runs:
            stacked = increments[:, rows, :comp.modes, None]
            for cells in chunks:
                np.matmul(comp.mode_fields[cells], stacked, out=out[:, rows, cells, None])
        return out

    def descriptor(self) -> bytes:
        return b"|".join(c.descriptor() for c in self.components)


def build_noise(bases, lambdas, gs, audit: bool = True) -> NoiseModel:
    """Assemble a NoiseModel from per-component bases, lambdas and amplitudes.

    The declared growth/Hölder constants of each amplitude object are
    audited once, on seeded samples, unless ``audit=False``.
    """
    if not len(bases) == len(lambdas) == len(gs):
        raise ValueError(f"need one basis, lambda vector and amplitude per component, "
                         f"got {len(bases)}, {len(lambdas)} and {len(gs)}")
    comps = []
    for b, lam, gg in zip(bases, lambdas, gs):
        if audit and all(c.g is not gg for c in comps):
            gg.audit()
        lam = np.asarray(lam, dtype=float)
        # an earlier component on the same basis object with bitwise-equal
        # lambdas has this component's mode table: share it
        twin = next((c for c in comps if c.basis is b and c.lambdas.shape == lam.shape
                     and c.lambdas.tobytes() == lam.tobytes()), None)
        comps.append(ComponentNoise(basis=b, lambdas=lam, g=gg) if twin is None
                     else twin._with_amplitude(gg))
    return NoiseModel(components=tuple(comps))
