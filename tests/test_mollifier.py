import numpy as np
import pytest

from srds import PowerModulus, build_mollifier, positivity_mollifier
from srds.errors import AuditError
from srds.mollifier import MollifierRangeError


def linear(C=1.0):
    return PowerModulus(C)


def test_levels_match_analytic_chain():
    # int_{a_n}^{a_{n-1}} ds/s = n  =>  a_n = a_{n-1} e^{-n}
    fam = build_mollifier(linear(1.0), 5)
    expected = np.exp(-np.arange(6) * (np.arange(6) + 1) / 2.0)
    assert np.max(np.abs(fam.a_seq - expected) / expected) < 1e-8
    assert fam.a_seq[1] == pytest.approx(np.exp(-1.0), rel=1e-10)
    assert fam.a_seq[2] == pytest.approx(np.exp(-3.0), rel=1e-10)


def test_levels_scaled_modulus():
    fam = build_mollifier(linear(2.0), 3)
    assert fam.a_seq[1] == pytest.approx(np.exp(-2.0), rel=1e-10)


def test_psi_normalization_by_construction():
    for C in (0.5, 1.0, 2.0):
        fam = build_mollifier(linear(C), 4)
        for n in range(1, 5):
            assert fam.psi_integral(n) == pytest.approx(1.0, abs=1e-8)


def test_psi_within_envelope():
    fam = build_mollifier(linear(1.0), 4)
    for n in range(1, 5):
        tab = fam._table(n)
        nodes = tab.s[1:-1]  # the table's nodes inside the support
        assert np.min(2.0 / (n * fam.rho(nodes)) - fam.psi(n, nodes)) >= 0.0
        t = np.linspace(fam.a_seq[n] * 1.001, fam.a_seq[n - 1] * 0.999, 1000)
        psi = fam.psi(n, t)
        assert np.all(psi >= 0.0)
        assert np.all(psi <= 2.0 / (n * fam.rho(t)) + 1e-15)
        # zero outside the support
        assert fam.psi(n, np.array([fam.a_seq[n] / 2]))[0] == 0.0
        assert fam.psi(n, np.array([1.5]))[0] == 0.0


def test_phi_sandwich_and_derivative_bounds():
    fam = build_mollifier(linear(1.0), 5)
    t = np.linspace(-3.0, 3.0, 10_001)
    for n in range(1, 6):
        phi = fam.phi(n, t)
        assert np.all(phi <= np.abs(t) + 1e-12)
        assert np.all(phi >= np.abs(t) - fam.a_seq[n - 1] - 1e-12)
        assert fam.phi(n, np.array([0.0]))[0] == 0.0
        dphi = fam.phi_prime(n, t)
        assert np.all(np.abs(dphi) <= 1.0 + 1e-12)
        assert np.all(dphi * t >= -1e-15)


def test_phi_nondecreasing_in_level():
    fam = build_mollifier(linear(1.0), 5)
    t = np.linspace(-2.0, 2.0, 2001)
    prev = fam.phi(1, t)
    for n in range(2, 6):
        cur = fam.phi(n, t)
        assert np.all(cur >= prev - 1e-12)
        prev = cur


def test_positivity_family_one_sided():
    pos = positivity_mollifier(linear(1.0), 2)
    assert pos.phi(np.array([-1.0]))[0] == 0.0
    t = np.linspace(-2.0, 2.0, 4001)
    phi = pos.phi(t)
    assert np.all(phi <= np.maximum(t, 0.0) + 1e-12)
    # quadrature bound restricted to t > 0: |t| - a_{n-1} <= phi_n(t)
    val = pos.phi(np.array([1.0]))[0]
    assert 1.0 - pos.a_seq[1] - 1e-12 <= val <= 1.0
    dphi = pos.phi_prime(t)
    assert np.all(dphi >= -1e-15)
    assert np.all(dphi <= 1.0 + 1e-12)
    assert np.all(dphi[t <= 0.0] == 0.0)


def test_phi_prime_increases_to_indicator():
    probe = np.array([0.05, 0.2, 1.0])
    prev = np.zeros_like(probe)
    for n in range(1, 6):
        pos = positivity_mollifier(linear(1.0), n)
        cur = pos.phi_prime(probe)
        assert np.all(cur >= prev - 1e-12)
        prev = cur
    assert np.all(prev <= 1.0 + 1e-12)
    assert prev[-1] == pytest.approx(1.0, abs=1e-8)


def test_underflow_reports_largest_feasible_level():
    with pytest.raises(MollifierRangeError) as err:
        build_mollifier(linear(1.0), 60)
    assert 30 <= err.value.max_feasible < 60


def test_decreasing_modulus_rejected():
    with pytest.raises(AuditError, match="modulus"):
        build_mollifier(lambda s: 1.0 / np.asarray(s, dtype=float), 2)


def test_nonlinear_modulus_against_analytic():
    # rho(s) = s^{3/2}: int_a^b s^{-3/2} ds = 2(a^{-1/2} - b^{-1/2}) = n
    rho = lambda s: np.asarray(s, dtype=float) ** 1.5
    fam = build_mollifier(rho, 3)
    a = 1.0
    for n in range(1, 4):
        a = (n / 2.0 + a**-0.5) ** -2.0
        assert fam.a_seq[n] == pytest.approx(a, rel=1e-9)
    t = np.linspace(-1.5, 1.5, 3001)
    for n in range(1, 4):
        phi = fam.phi(n, t)
        assert np.all(phi <= np.abs(t) + 1e-12)
        assert np.all(phi >= np.abs(t) - fam.a_seq[n - 1] - 1e-12)
