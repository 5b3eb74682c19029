"""Reproducible stochastic FHN paths with square-root spectral noise.

Demonstrates the counter-based increment streams: the same master seed
reproduces a run bitwise, coarsened increments are consistent views of one
path, and paths survive a binary export/import round trip.
"""

import tempfile
from pathlib import Path

import numpy as np

import srds

grid = srds.build_grid(1, [1.0], [32])
op = srds.EllipticOperator(grid, srds.CoefficientField.constant(grid, a=1.0))
basis = srds.cosine_neumann_basis(grid, 8)
lam = (np.arange(8) + 1.0) ** -2.0
noise = srds.build_noise([basis] * 2, [lam] * 2, [srds.named_g("sqrt-abs")] * 2)
problem = srds.Problem(grid=grid, operators=(op, op),
                       reaction=srds.fhn_system(1.0, 1.0), noise=noise)

dt, t_end = 1e-3, 0.5
path = srds.sample_path(master_seed=2024, components=2, modes=8,
                        n_fine=round(t_end / dt), dt_fine=dt)
cfg = srds.SolverConfig(dt=dt, t_end=t_end, sup_cap=8.0, store_stride=50)
init = np.full((2, 32), 0.2)

traj = srds.simulate(problem, cfg, path, init)
print("sup-norm history (every 0.05):")
for t, (nu, nv) in zip(traj.times, traj.sup_norms[::50]):
    print(f"  t = {t:4.2f}   ||u|| = {nu:.4f}   ||v|| = {nv:.4f}")

again = srds.simulate(problem, cfg, path, init)
print(f"\nrerun bitwise identical: {np.array_equal(traj.states, again.states)}")

entry = srds.gaussian_entry(2024, 0, 1, 3, 17, dt)
print(f"regenerated increment (l=1, k=3, i=17) matches the array: "
      f"{entry == path.increments[1, 3, 17]}")

coarse = path.coarse(1)
manual = path.increments[:, :, 0::2] + path.increments[:, :, 1::2]
print(f"coarsened view consistent: {np.array_equal(coarse, manual)}")

with tempfile.TemporaryDirectory() as tmp:
    file = Path(tmp) / "path.bin"
    srds.save_path(path, file)
    loaded = srds.load_path(file)
    print(f"binary round trip exact: "
          f"{np.array_equal(loaded.increments, path.increments)} "
          f"({file.stat().st_size} bytes)")
