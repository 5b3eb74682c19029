"""The mollifier ladder behind the uniqueness argument.

For the linear modulus rho(s) = C s (`srds.PowerModulus(C)`, power 1 by
default), int_{a_n}^{a_{n-1}} ds/rho(s) = n gives a_n = a_{n-1} exp(-C n),
and phi_n squeezes |t| from below at rate a_{n-1}.  The one-sided variant
used for positivity increases to t^+.
"""

import numpy as np

import srds

for C in (0.5, 1.0, 2.0):
    fam = srds.build_mollifier(srds.PowerModulus(C), 5)
    idx = np.arange(6)
    analytic = np.exp(-C * idx * (idx + 1) / 2.0)
    print(f"rho(s) = {C} s:")
    for n in idx:
        print(f"  a_{n} = {fam.a_seq[n]:.10e}   analytic {analytic[n]:.10e}")

fam = srds.build_mollifier(srds.PowerModulus(1.0), 5)
probe = np.array([0.001, 0.01, 0.1, 0.5, 1.0, 2.0])
print("\nphi_n sandwich  |t| - a_(n-1) <= phi_n(t) <= |t|:")
for n in (1, 3, 5):
    phi = fam.phi(n, probe)
    lo = probe - fam.a_seq[n - 1]
    print(f"  n = {n}:")
    for t, l, p in zip(probe, lo, phi):
        print(f"    t = {t:6.3f}   {max(l,0):8.5f} <= {p:8.5f} <= {t:6.3f}")
    print(f"    int psi_{n} = {fam.psi_integral(n):.10f}")

pos = srds.positivity_mollifier(srds.PowerModulus(1.0), 3)
print("\none-sided family (positivity): phi(t) vs t^+")
for t in (-1.0, -0.1, 0.0, 0.1, 0.5, 1.0):
    print(f"  t = {t:5.2f}   phi = {float(pos.phi(np.array([t]))[0]):.6f}")
