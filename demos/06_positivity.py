"""Positivity preservation for quasi-positive reactions with g(0) = 0.

With g(s) = sqrt(s^+), noise quenches as the state approaches zero and the
M-matrix implicit step cannot create sign changes; the recorded minimum
stays above a tolerance that scales with dt.  A non-quasi-positive control
goes decisively negative, so a passing verdict is informative.
"""

import numpy as np

import srds

grid = srds.build_grid(1, [1.0], [32])
op = srds.EllipticOperator(grid, srds.CoefficientField.constant(grid, a=1.0))
basis = srds.cosine_neumann_basis(grid, 8)
lam = (np.arange(8) + 1.0) ** -2.0
noise = srds.build_noise([basis] * 2, [lam] * 2, [srds.named_g("sqrt-pos")] * 2)
problem = srds.Problem(grid=grid, operators=(op, op),
                       reaction=srds.fhn_system(1.0, 1.0), noise=noise)

cfg = srds.SolverConfig(dt=1e-3, t_end=0.5, sup_cap=8.0)
report = srds.positivity_experiment(problem, cfg, np.full((2, 32), 0.2),
                                    n_paths=24, master_seed=9)
report.print_summary()
print(f"\nglobal minimum over paths/cells/steps: "
      f"{report.aggregates['global_min']:.4e}")
print(f"tolerance (-c_tol * dt):              -{report.parameters['tolerance']:.4e}")
print(f"overshoot at dt:                       {report.aggregates['overshoot_dt']:.4e}")
print(f"overshoot at dt/2 (same paths):        {report.aggregates['overshoot_dt_half']:.4e}")
print(f"negative-control minimum:              {report.aggregates['control_min']:.4e}")
