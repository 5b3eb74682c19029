"""Divergence-form operator on a box: spectrum, resolvent, smoothing.

Assembles the zero-flux finite-volume operator for a = 1 on [0, 1],
compares its spectrum with the closed form -(2/h^2)(1 - cos(k pi / n)),
shows the resolvent converging to the identity, and tabulates the
ultracontractivity surrogate ||S(t) spike||_inf * t^(1/2).
"""

import numpy as np

import srds

n = 64
grid = srds.build_grid(1, [1.0], [n])
op = srds.EllipticOperator(grid, srds.CoefficientField.constant(grid, a=1.0, c=0.0))

ev = np.sort(op.dense_spectrum())
closed = np.sort(-(2.0 * n**2) * (1.0 - np.cos(np.arange(n) * np.pi / n)))
print(f"spectrum vs closed form: max rel err "
      f"{np.max(np.abs(ev - closed) / np.maximum(np.abs(closed), 1)):.2e}")
print(f"largest eigenvalue (constants in the kernel): {ev[-1]:.2e}")

x = grid.centers[:, 0]
f = np.cos(np.pi * x)
print("\nresolvent convergence  lam * (lam - A)^-1 f -> f:")
for lam in (10.0, 100.0, 1000.0, 10000.0):
    err = np.max(np.abs(srds.apply_resolvent(op, lam, f) - f))
    print(f"  lambda = {lam:>7.0f}   sup error = {err:.3e}")

prof = srds.smoothing_profile(op)
print("\nsmoothing sweep for a unit-L1 spike (bounded scaled sup = smoothing):")
print(f"  {'t':>12} {'||S(t)f||_inf * sqrt(t)':>24}")
for t, q in zip(prof["times"], prof["scaled_sup"]):
    print(f"  {t:12.6f} {q:24.6f}")
print(f"bounded: {prof['bounded']}")
