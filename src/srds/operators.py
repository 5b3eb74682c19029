"""Divergence-form elliptic operators with conormal (zero-flux) boundaries.

The operator A = div(a grad .) - c is discretized with cell-centered finite
volumes on a uniform box grid.  Face diffusivities are harmonic averages of
the adjacent cell coefficients, boundary faces carry zero flux, and the
zeroth-order coefficient c subtracts from the diagonal.  This preserves,
exactly at the discrete level, the structure the analysis relies on:
symmetry of the bilinear form, constants in the kernel for c = 0,
nonpositive spectrum for c >= 0, and the M-matrix property of (I - dt*A).
"""

from __future__ import annotations

import csv
import functools
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import AuditError
from .grid import DomainGrid
from .linalg import ShiftedSolve, SpectralSolve
from .readers import read_integer, read_number


@dataclass(frozen=True)
class CoefficientField:
    """Per-cell diffusion tensor and zeroth-order coefficient.

    ``a`` has shape (n_total, dim, dim) and must be finite and symmetric
    with eigenvalues in [eta, m_bound] at every cell; ``c`` has shape
    (n_total,).  ``eta`` and ``m_bound`` are stored as the floats
    ``srds.readers`` reads, so an int bound describes as the equal float.
    When every cell's tensor is bitwise the first one (``uniform``), the
    checks run on that one tensor.
    Only grid-aligned (diagonal) tensors are accepted by the operator, see
    `EllipticOperator`.
    """

    grid: DomainGrid
    a: np.ndarray
    c: np.ndarray
    eta: float
    m_bound: float
    uniform: bool = field(init=False)  # every cell's tensor bitwise the first

    def __post_init__(self):
        n, d = self.grid.n_total, self.grid.dim
        if self.a.shape != (n, d, d):
            raise AuditError("shape", f"a has shape {self.a.shape}, expected {(n, d, d)}")
        if self.c.shape != (n,):
            raise AuditError("shape", f"c has shape {self.c.shape}, expected {(n,)}")
        object.__setattr__(self, "eta", read_number("eta", self.eta, above=0))
        if not np.isfinite(self.m_bound):  # NaN bounds nothing
            raise AuditError("ellipticity", f"need a finite M, got M={self.m_bound}")
        object.__setattr__(self, "m_bound", read_number("m_bound", self.m_bound))
        bits = np.ascontiguousarray(self.a, dtype=float).reshape(n, d * d).view(np.int64)
        object.__setattr__(self, "uniform", bool(np.all(bits == bits[0])))
        # on a uniform field one tensor gives the verdict, reason and detail
        # of checking every cell
        a = self.a[:1] if self.uniform else self.a
        if not np.all(np.isfinite(a)):
            raise AuditError("bounded-a", "diffusion tensor has non-finite entries")
        if not np.allclose(a, np.swapaxes(a, 1, 2), rtol=0, atol=1e-14):
            raise AuditError("symmetry", "diffusion tensor not symmetric")
        eigs = np.linalg.eigvalsh(a)
        lo, hi = float(eigs.min()), float(eigs.max())
        if lo < self.eta - 1e-12 or hi > self.m_bound + 1e-12:
            raise AuditError(
                "ellipticity",
                f"tensor eigenvalues in [{lo:.6g}, {hi:.6g}] outside [eta={self.eta}, M={self.m_bound}]",
            )
        if not np.all(np.isfinite(self.c)):
            raise AuditError("bounded-c", "c has non-finite entries")

    @classmethod
    def constant(cls, grid: DomainGrid, a: float = 1.0, c: float = 0.0,
                 eta: float | None = None, m_bound: float | None = None) -> "CoefficientField":
        """Isotropic constant coefficients a*I and scalar c, numbers as
        ``srds.readers`` reads them."""
        a, c = read_number("a", a), read_number("c", c)
        n, d = grid.n_total, grid.dim
        a_arr = np.tile(a * np.eye(d), (n, 1, 1))
        c_arr = np.full(n, c)
        return cls(grid, a_arr, c_arr,
                   eta=0.5 * a if eta is None else eta,
                   m_bound=2.0 * a if m_bound is None else m_bound)

    @classmethod
    def from_arrays(cls, grid: DomainGrid, a_diag: np.ndarray, c: np.ndarray,
                    eta: float, m_bound: float) -> "CoefficientField":
        """Diagonal tensor from per-cell per-axis values, shape (n_total, dim)."""
        n, d = grid.n_total, grid.dim
        a_diag = np.asarray(a_diag, dtype=float).reshape(n, d)
        a_arr = np.zeros((n, d, d))
        for i in range(d):
            a_arr[:, i, i] = a_diag[:, i]
        return cls(grid, a_arr, np.asarray(c, dtype=float).reshape(n), eta, m_bound)

    def descriptor(self) -> bytes:
        return (self.grid.descriptor() + self.a.tobytes() + self.c.tobytes()
                + repr((self.eta, self.m_bound)).encode())


def coefficient_field_from_csv(grid: DomainGrid, path, eta: float,
                               m_bound: float) -> CoefficientField:
    """Load a coefficient field from CSV: one row per cell with
    ``index, a_00, ..., a_{d-1,d-1} (row-major), c``.

    An index that is not an integer in range or that names a cell twice,
    and a row with other than ``2 + d*d`` entries, fail the ``shape`` audit.
    """
    d = grid.dim
    n = grid.n_total
    a = np.zeros((n, d, d))
    c = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    # a path, never a file descriptor: open(2) would read fd 2 and close it
    with open(os.fspath(path), newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            vals = [float(v) for v in row]
            if len(vals) != 2 + d * d:
                raise AuditError("shape", f"row for cell {row[0].strip()} has "
                                          f"{len(vals)} entries, expected {2 + d * d}")
            if not vals[0].is_integer():
                raise AuditError("shape", f"cell index {row[0].strip()} is not an integer")
            idx = int(vals[0])
            if idx < 0 or idx >= n:
                raise AuditError("shape", f"cell index {idx} out of range 0..{n-1}")
            if seen[idx]:
                raise AuditError("shape", f"cell index {idx} appears twice")
            a[idx] = np.array(vals[1:1 + d * d]).reshape(d, d)
            c[idx] = vals[1 + d * d]
            seen[idx] = True
    if not seen.all():
        raise AuditError("shape", f"{int((~seen).sum())} cells missing from CSV")
    return CoefficientField(grid, a, c, eta, m_bound)


def _face_cells(cells: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``cells`` (shaped like the grid) at the lower and the
    upper cell of each face normal to ``axis``, faces ordered by their lower
    cell."""
    lo = [slice(None)] * cells.ndim
    hi = list(lo)
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return cells[tuple(lo)].ravel(), cells[tuple(hi)].ravel()


class EllipticOperator:
    """Divergence-form operator on cell-centered fields.

    Each axis's face transmissibilities are computed once, at build
    (`transmissibilities`); `matrix` and `cosine_spectrum` read them.  The
    sparse matrix is assembled on its first read (a SuperLU factor,
    `dense_spectrum`, `apply_resolvent`, `verify operator`), so an operator
    solved by the DCT never builds it.

    A field built on another grid, and off-diagonal tensor entries, are
    rejected here, before any path runs: two-point fluxes cannot represent
    the latter and they would destroy the M-matrix property the positivity
    checks rest on.  So is a grid and field whose face transmissibility is
    not a finite float (ValueError, naming the axis).
    """

    def __init__(self, grid: DomainGrid, coeffs: CoefficientField):
        if coeffs.grid is not grid and coeffs.grid != grid:
            raise AuditError("shape", "coefficient field built on a different grid")
        if grid.dim == 2 and np.abs(coeffs.a[:, 0, 1]).max() > 0:
            raise AuditError("diagonal-tensor",
                             "off-diagonal diffusion entries are not supported by "
                             "the two-point flux assembler")
        # per axis, each face's transmissibility 2 a1 a2 / (a1 + a2) / h^2,
        # faces ordered by their lower cell (one value on a uniform field,
        # whose faces all have the first cell's entries); Python's h**2 may
        # raise and an infinite entry leaves a singular solve: refuse both
        faces = []
        with np.errstate(all="ignore"):
            for axis, h in enumerate(grid.spacing):
                a_ax = coeffs.a[:, axis, axis]
                if coeffs.uniform:
                    a1 = a2 = a_ax[:1]
                else:
                    a1, a2 = _face_cells(a_ax.reshape(grid.n_cells), axis)
                try:
                    t = 2.0 * a1 * a2 / (a1 + a2) / h**2
                except OverflowError:  # from h**2
                    t = np.array([np.inf])
                if not np.all(np.isfinite(t)):
                    raise ValueError(f"axis {axis}: a face transmissibility "
                                     "2 a1 a2 / (a1 + a2) / h^2, or h^2 itself, is "
                                     f"not finite (h = {h!r}); scale the extents "
                                     "or the coefficients")
                faces.append(t)
        self.transmissibilities = tuple(faces)
        self.grid = grid
        self.coeffs = coeffs
        self._steppers: dict[float, ShiftedSolve | SpectralSolve] = {}

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """A = div(a grad .) - c with zero-flux boundary faces.

        Face diffusivity along axis i between neighboring cells is the
        harmonic mean of their a_ii entries.
        """
        grid = self.grid
        n = grid.n_total
        ids = np.arange(n).reshape(grid.n_cells)
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for axis, t in enumerate(self.transmissibilities):
            i1, i2 = _face_cells(ids, axis)
            t = np.broadcast_to(t, i1.shape)
            rows += [i1, i2, i1, i2]
            cols += [i2, i1, i1, i2]
            vals += [t, t, -t, -t]
        rows.append(np.arange(n))
        cols.append(np.arange(n))
        vals.append(-self.coeffs.c)
        return sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsr()

    @functools.cached_property
    def cosine_spectrum(self) -> np.ndarray | None:
        """Eigenvalues of the assembled A per orthonormal DCT-II mode, shape
        ``grid.n_cells``, when the grid is 2D, the coefficient field is
        ``uniform`` and every cell has the same ``c``; otherwise None.

        Each axis contributes -2 t (1 - cos(pi k / n)) with t the
        assembler's face transmissibility.  1D grids return None: their
        tridiagonal LU factor has no fill and solves faster than a
        transform of the same length.
        """
        grid, coeffs = self.grid, self.coeffs
        if grid.dim != 2 or not (coeffs.uniform and np.all(coeffs.c == coeffs.c[0])):
            return None
        axes = [-2.0 * t[0] * (1.0 - np.cos(np.pi * np.arange(n) / n))
                for n, t in zip(grid.n_cells, self.transmissibilities)]
        return axes[0][:, None] + axes[1][None, :] - coeffs.c[0]

    def solver(self, dt: float) -> ShiftedSolve | SpectralSolve:
        """A new, uncached solver for (I - dt*A): the DCT-II diagonal solve
        when `cosine_spectrum` diagonalizes A, else a SuperLU factor.

        The one dt rule of every step solve: only 0 < dt < inf makes
        (I - dt*A) an M-matrix, so its inverse a positive sup contraction
        (a negative dt gives the indefinite I + |dt| A, an infinite one the
        singular -A, a NaN one nothing)."""
        dt = read_number("dt", dt, above=0)
        if self.cosine_spectrum is not None:
            return SpectralSolve(self.cosine_spectrum, dt)
        return ShiftedSolve(self.matrix, dt)

    def stepper(self, dt: float) -> ShiftedSolve | SpectralSolve:
        """Cached `solver` for (I - dt*A), one per dt; a dt that `solver`
        refuses is never cached."""
        key = read_number("dt", dt, above=0)
        st = self._steppers.get(key)
        if st is None:
            st = self.solver(key)
            self._steppers[key] = st
        return st

    def dense_spectrum(self) -> np.ndarray:
        """Eigenvalues of the assembled matrix, ascending (small grids only)."""
        if self.grid.n_total > 4096:
            raise ValueError("dense spectrum limited to grids with <= 4096 cells")
        return np.linalg.eigvalsh(self.matrix.toarray())

    def descriptor(self) -> bytes:
        return b"elliptic:" + self.coeffs.descriptor()


def apply_resolvent(op: EllipticOperator, lam: float, f: np.ndarray) -> np.ndarray:
    """Return lam*(lam*I - A)^{-1} f = (I - A/lam)^{-1} f.

    ``lam`` is a number above 0 (``srds.readers``), or +inf, the exact
    lam -> inf limit, which returns f.  For c >= 0 the output sup norm never
    exceeds that of f.  The factor is not cached, so a sweep over lam leaves
    none behind.
    """
    if lam != np.inf:
        lam = read_number("lambda", lam, above=0)
    return ShiftedSolve(op.matrix, 1.0 / lam).solve(np.asarray(f, dtype=float))


def evolve_semigroup(op: EllipticOperator, t: float, u: np.ndarray,
                     n_substeps: int = 32) -> np.ndarray:
    """Approximate S(t) u by n_substeps backward-Euler steps of size t/n.

    The steps share one uncached `op.solver`, so a sweep over t (as in
    `smoothing_profile`) leaves no factor in the operator's cache."""
    t = read_number("t", t, above=0)
    n_substeps = read_integer("n_substeps", n_substeps, least=1)
    st = op.solver(t / n_substeps)
    v = np.asarray(u, dtype=float)
    for _ in range(n_substeps):
        v = st.solve(v)
    return v


def smoothing_profile(op: EllipticOperator) -> dict:
    """Empirical ultracontractivity check for a unit-L1 spike.

    Evolves a delta-like initial field and tabulates ||S(t) spike||_inf * t^{d/2}
    over a dyadic sweep of times above the mesh-resolution time h^2.  The
    scaled quantity staying bounded is the smoothing surrogate.
    """
    grid = op.grid
    d = grid.dim
    h2 = max(s**2 for s in grid.spacing)
    n_dyadic = int(np.floor(np.log2(1.0 / h2))) + 1
    times = h2 * 2.0 ** np.arange(max(n_dyadic, 1))
    times = times[times <= 1.0 + 1e-12]
    spike = np.zeros(grid.n_total)
    center = grid.n_total // 2
    spike[center] = 1.0 / grid.cell_volume  # unit L1 mass
    scaled = []
    for t in times:
        v = evolve_semigroup(op, float(t), spike)
        scaled.append(float(np.max(np.abs(v))) * float(t) ** (d / 2.0))
    scaled = np.asarray(scaled)
    # Bounded verdict: no blow-up relative to the small-time plateau or the
    # long-time mean-value level t^{d/2}/|O|.
    ref = max(float(scaled.min()), float(times.max()) ** (d / 2.0) / grid.volume)
    bounded = bool(scaled.max() <= 10.0 * ref)
    return {"times": times, "scaled_sup": scaled, "bounded": bounded}
