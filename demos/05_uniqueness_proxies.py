"""Pathwise-uniqueness proxies on a small FHN ensemble.

Twin runs on identical noise from perturbed initials: the mean L1 gap must
stay below the Gronwall envelope D(0) exp(r L_m t) and vanish with the
perturbation; dt-refined trajectories on one path are Cauchy.
"""

import numpy as np

import srds

grid = srds.build_grid(1, [1.0], [32])
op = srds.EllipticOperator(grid, srds.CoefficientField.constant(grid, a=1.0))
basis = srds.cosine_neumann_basis(grid, 8)
lam = 0.1 * (np.arange(8) + 1.0) ** -2.0
noise = srds.build_noise([basis] * 2, [lam] * 2, [srds.named_g("sqrt-abs")] * 2)
problem = srds.Problem(grid=grid, operators=(op, op),
                       reaction=srds.fhn_system(1.0, 1.0), noise=noise)

cfg = srds.SolverConfig(dt=1.0 / 256, t_end=0.25, sup_cap=8.0, store_stride=16)
report = srds.uniqueness_experiment(
    problem, cfg, np.full((2, 32), 0.2), n_paths=24,
    eps_list=(1e-1, 1e-2, 1e-3), master_seed=7, cauchy_paths=12,
    cauchy_refinements=3)

report.print_summary()

print("\nGronwall table (eps = 0.01):")
headers, rows = report.tables["gap_series"]
print(f"  {'t':>6} {'mean gap':>12} {'upper 95%':>12} {'envelope':>12}")
for eps, t, mean, upper, env in rows:
    if eps == 1e-2:
        print(f"  {t:6.3f} {mean:12.5e} {upper:12.5e} {env:12.5e}")

print("\nterminal mean gaps by perturbation size:")
for eps, mean in report.aggregates["terminal_gap_means"].items():
    print(f"  eps = {float(eps):g}: mean D(T) = {mean:.4e}")
print(f"\nverdict: {'pass' if report.verdict else 'fail'}")
