"""Zero-noise FitzHugh-Nagumo run and its first-order self-convergence.

The reaction f1 = u - u^3 + v, f2 = a u - b v is certified at build time:
the script prints the sandwich constants of h1(s) = s - s^3 and then runs
a dyadic dt-refinement study on one spatial bump.
"""

import numpy as np

import srds

reaction = srds.fhn_system(a=1.0, b=1.0)
cert = reaction.certificates[0]
print("certified constants for h1(s) = s - s^3:")
print(f"  a2 = {cert.a2:.6f}, b2 = {cert.b2}, a1 = {cert.a1:.6f}, b1 = {cert.b1}")
print(f"  dissipativity margins use a' = {cert.a_prime:.4f}, "
      f"a'' = {cert.a_dd:.4f}, b'' = {cert.b_dd:.4f}")

grid = srds.build_grid(1, [1.0], [32])
op = srds.EllipticOperator(grid, srds.CoefficientField.constant(grid, a=1.0))
basis = srds.cosine_neumann_basis(grid, 4)
noise = srds.build_noise([basis] * 2, [np.zeros(4)] * 2,
                         [srds.named_g("sqrt-abs")] * 2)
problem = srds.Problem(grid=grid, operators=(op, op), reaction=reaction,
                       noise=noise)

x = grid.centers[:, 0]
init = np.stack([0.2 + 0.3 * np.cos(np.pi * x), 0.1 * np.ones_like(x)])
path = srds.sample_path(0, 2, 4, 512, 0.5 / 512)

finals = []
print("\nself-convergence at t = 0.5:")
for j in range(4):
    dt = (1.0 / 64) / (1 << j)
    cfg = srds.SolverConfig(dt=dt, t_end=0.5, store_stride=1 << 20)
    finals.append(srds.simulate(problem, cfg, path, init).final)
    print(f"  dt = 1/{round(1/dt):<5d} final sup norms "
          f"{np.max(np.abs(finals[-1]), axis=1)}")

gaps = [float(np.max(np.abs(a - b))) for a, b in zip(finals, finals[1:])]
print("\nconsecutive gaps and observed orders:")
for k, g in enumerate(gaps):
    line = f"  |u_dt - u_dt/2| = {g:.3e}"
    if k:
        line += f"   order = {np.log2(gaps[k-1] / g):.3f}"
    print(line)
