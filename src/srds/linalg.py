"""Sparse symmetric solves: Jacobi-preconditioned CG and cached direct factors."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverFailure


def jacobi_cg(A: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Conjugate gradient with diagonal preconditioning for SPD ``A``.

    Converges when ||r||_2 <= 1e-10 * ||b||_2 within 10 n + 100 iterations.
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
    A `cg` method with the same matrix is kept for cross-checking.
    """

    def __init__(self, A: sp.spmatrix, dt: float):
        self.dt = float(dt)
        n = A.shape[0]
        self.matrix = (sp.identity(n, format="csr") - dt * A).tocsr()
        self._lu = spla.splu(self.matrix.tocsc())

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(b)

    def cg(self, b: np.ndarray) -> np.ndarray:
        return jacobi_cg(self.matrix, b)
