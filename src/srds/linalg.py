"""Symmetric (I - dt*A) solves: prefactorized SuperLU, a DCT-II diagonal
solve for constant-coefficient 2D operators, and Jacobi-CG as a reference."""

from __future__ import annotations

import numpy as np
import scipy.fft as fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverFailure


def jacobi_cg(A: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Conjugate gradient with diagonal preconditioning for SPD ``A``.

    Not used by the library's solves; kept as the independent reference
    the tests check the SuperLU factor against.  Converges when
    ||r||_2 <= 1e-10 * ||b||_2 within 10 n + 100 iterations.
    Deterministic: fixed iteration order, no randomness.
    """
    maxiter = 10 * A.shape[0] + 100
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise SolverFailure("indefinite-diagonal", "matrix diagonal not positive")
    dinv = 1.0 / diag
    bnorm = float(np.sqrt(b @ b))
    if bnorm == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b)
    r = b.copy()
    z = dinv * r
    p = z.copy()
    rz = float(r @ z)
    for _ in range(maxiter):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise SolverFailure("cg-breakdown", "non-positive curvature (matrix not SPD?)")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if np.sqrt(r @ r) <= 1e-10 * bnorm:
            return x
        z = dinv * r
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise SolverFailure("cg-no-convergence", f"no convergence in {maxiter} iterations")


class ShiftedSolve:
    """Reusable solver for (I - dt*A) x = b with a prefactorized sparse LU.

    The factorization is computed once; `solve` is then a deterministic
    direct triangular solve, reused across all time steps of a simulation.
    """

    def __init__(self, A: sp.spmatrix, dt: float):
        self.dt = float(dt)
        n = A.shape[0]
        matrix = (sp.identity(n, format="csr") - dt * A).tocsr()
        self._lu = spla.splu(matrix.tocsc())

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for ``b`` of shape (n,) or a C-ordered block of right-hand
        side rows (m, n); each row's result is bitwise that of its own
        solve.  The block goes to SuperLU as its Fortran-ordered transpose,
        a view, and the result's transpose is C-ordered again."""
        return self._lu.solve(b.T).T


class SpectralSolve:
    """Solver for (I - dt*A) x = b where the orthonormal DCT-II diagonalizes A.

    ``spectrum`` holds the eigenvalue of A for each DCT-II mode, shape equal
    to the cell grid's (C order, the cells' numbering).  A solve is one
    forward and one inverse transform around a division by 1 - dt*spectrum;
    nothing is factorized.  It agrees with the SuperLU solve to rounding,
    not bitwise, and keeps the sign of a nonnegative right-hand side only
    to rounding (about 1e-16 relative).
    """

    def __init__(self, spectrum: np.ndarray, dt: float):
        self.dt = float(dt)
        self._shape = spectrum.shape
        self._denom = 1.0 - self.dt * spectrum

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for ``b`` of shape (n,) or a block of right-hand-side rows
        (m, n): one transform pair over the grid axes of the whole block.
        ``b`` is never written; the division and the inverse transform work
        in place on the forward transform's new array, bitwise
        ``idctn(dctn(b) / denom)``."""
        axes = tuple(range(-len(self._shape), 0))
        coef = fft.dctn(b.reshape(b.shape[:-1] + self._shape), type=2,
                        norm="ortho", axes=axes)
        coef /= self._denom
        return fft.idctn(coef, type=2, norm="ortho", axes=axes,
                         overwrite_x=True).reshape(b.shape)
