import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srds import (PolynomialDrift, ReactionSystem, check_f1_f2,
                  check_quasi_positive, coupling_linear, coupling_none,
                  dissipativity_gap, fhn_system)
from srds.errors import AuditError
from srds.reaction import CouplingTerm
from srds.solver import _truncate


def _bounds(level):
    """The 0-d (-n, n) that ``solver._step_runs`` builds at level n."""
    return np.array(-level), np.array(level)


def golden_max(f, lo, hi, iters=200):
    """Independent 1D maximization oracle: coarse grid + golden section."""
    grid = np.linspace(lo, hi, 20_001)
    vals = f(grid)
    i = int(np.argmax(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    for _ in range(iters):
        if f(np.asarray(c)) > f(np.asarray(d)):
            b = d
        else:
            a = c
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
    m = 0.5 * (a + b)
    return float(f(np.asarray(m)))


# --- evaluation -------------------------------------------------------------


def test_fhn_pointwise_values():
    sys = fhn_system(1.0, 1.0)
    u = np.array([[1.0], [0.0]])
    out = sys.evaluate(u)
    assert out[0, 0] == pytest.approx(0.0)  # 1 - 1 + 0
    u = np.array([[2.0], [1.0]])
    out = sys.evaluate(u)
    assert out[1, 0] == pytest.approx(1.0)  # 2 - 1


def test_zero_field_maps_to_zero():
    sys = fhn_system(1.0, 1.0)
    out = sys.evaluate(np.zeros((2, 16)))
    assert np.array_equal(out, np.zeros((2, 16)))


def test_component_count_mismatch():
    sys = fhn_system(1.0, 1.0)
    with pytest.raises(ValueError):
        sys.evaluate(np.zeros((3, 16)))


def test_evaluation_is_local():
    sys = fhn_system(1.0, 1.0)
    rng = np.random.default_rng(0)
    u = rng.uniform(-1, 1, size=(2, 32))
    base = sys.evaluate(u)
    v = u.copy()
    v[0, 7] += 0.5
    out = sys.evaluate(v)
    changed = np.any(out != base, axis=0)
    assert changed[7] and not np.any(changed[np.arange(32) != 7])


# --- (F1)/(F2) certification -------------------------------------------------


def test_pure_cubic_certificate():
    cert = check_f1_f2(PolynomialDrift([0.0, 0.0, -1.0], epsilon_lead=1.0))
    # b is half the leading magnitude; the auxiliary max is then exactly 0
    assert cert.b2 == pytest.approx(0.5)
    assert cert.b1 == pytest.approx(0.5)
    assert cert.a2 == pytest.approx(0.0, abs=1e-12)
    assert cert.a1 == pytest.approx(0.0, abs=1e-12)
    assert cert.a == pytest.approx(0.0, abs=1e-12)


def test_fhn_drift_certificate_against_golden_section():
    cert = check_f1_f2(PolynomialDrift([1.0, 0.0, -1.0], epsilon_lead=1.0))
    assert cert.b2 == pytest.approx(0.5)
    oracle = golden_max(lambda s: s - s**3 + 0.5 * s**3, 0.0, 10.0)
    assert cert.a2 == pytest.approx(oracle, rel=1e-9)
    assert cert.a2 == pytest.approx(0.5443310539518174, rel=1e-9)
    assert cert.a1 == pytest.approx(-cert.a2, rel=1e-9)  # odd drift
    # one-sided (F1) constant: max of s - s^3 on s >= 0
    oracle_f1 = golden_max(lambda s: s - s**3, 0.0, 10.0)
    assert cert.a == pytest.approx(oracle_f1, rel=1e-9)


def test_certified_sandwich_holds_one_sided():
    for coeffs in ([1.0, 0.0, -1.0], [0.3, -0.2, -0.7], [2.0, 0.0, 0.0, 0.0, -0.5]):
        drift = PolynomialDrift(coeffs)
        cert = check_f1_f2(drift)
        s_pos = np.linspace(0.0, 50.0, 20_001)
        s_neg = -s_pos
        q = cert.degree
        h_pos = drift.evaluate(s_pos)
        h_neg = drift.evaluate(s_neg)
        assert np.all(h_pos <= cert.a2 - cert.b2 * s_pos**q + 1e-9)
        assert np.all(h_neg >= cert.a1 - cert.b1 * s_neg**q - 1e-9)
        # (F1) in the one-sided reading plus the symmetric envelope
        assert np.all(h_pos <= cert.a + 1e-9)
        assert np.all(h_neg >= -cert.a - 1e-9)
        assert np.all(h_neg <= cert.a_sym * (1.0 + np.abs(s_neg) ** q) + 1e-9)
        assert np.all(h_pos >= -cert.a_sym * (1.0 + s_pos**q) - 1e-9)


def test_even_degree_rejected():
    with pytest.raises(AuditError, match="even-degree"):
        PolynomialDrift([0.0, -1.0])


def test_nonnegative_leading_rejected():
    with pytest.raises(AuditError, match="leading"):
        PolynomialDrift([1.0, 0.0, 1.0])


def test_per_cell_coefficients_certified_worst_case():
    coeffs = np.array([[1.0, 0.0, -1.0], [0.5, 0.0, -2.0]])
    cert = check_f1_f2(PolynomialDrift(coeffs, epsilon_lead=1.0))
    assert cert.b2 == pytest.approx(0.5)  # half of the *smallest* magnitude
    row_oracle = max(
        golden_max(lambda s: 1.0 * s - 1.0 * s**3 + 0.5 * s**3, 0.0, 10.0),
        golden_max(lambda s: 0.5 * s - 2.0 * s**3 + 0.5 * s**3, 0.0, 10.0))
    assert cert.a2 == pytest.approx(row_oracle, rel=1e-9)


# --- dissipativity margins ----------------------------------------------------


def test_cubic_margin_sign_argument():
    sys = ReactionSystem([PolynomialDrift([0.0, 0.0, -1.0], epsilon_lead=1.0)],
                         [coupling_none(1)])
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = rng.uniform(-5, 5, size=16)
        assert dissipativity_gap(sys, 0, u, np.zeros(16), mode=1) >= 0.0


def test_fhn_margins_randomized():
    sys = fhn_system(1.0, 1.0)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        u = rng.uniform(-10, 10, size=24)
        v = rng.uniform(-10, 10, size=24)
        assert dissipativity_gap(sys, 0, u, v, mode=1) >= -1e-9
        assert dissipativity_gap(sys, 0, u, v, mode=2) >= -1e-9


def test_margins_at_many_radii():
    sys = fhn_system(1.0, 1.0)
    rng = np.random.default_rng(3)
    for m in (1.0, 10.0, 100.0):
        for _ in range(200):
            u = rng.uniform(-m, m, size=8)
            v = rng.uniform(-m, m, size=8)
            for l in range(2):
                assert dissipativity_gap(sys, l, u, v, mode=1) >= -1e-9
                assert dissipativity_gap(sys, l, u, v, mode=2) >= -1e-9


def test_margins_for_quintic_drift():
    drift = PolynomialDrift([2.0, -0.3, 0.0, 0.1, -0.5], epsilon_lead=0.5)
    sys = ReactionSystem([drift], [coupling_none(1)])
    rng = np.random.default_rng(8)
    for m in (1.0, 10.0):
        for _ in range(300):
            u = rng.uniform(-m, m, size=12)
            v = rng.uniform(-m, m, size=12)
            assert dissipativity_gap(sys, 0, u, v, mode=1) >= -1e-9
            assert dissipativity_gap(sys, 0, u, v, mode=2) >= -1e-9


def test_degree_one_drift_certificate():
    cert = check_f1_f2(PolynomialDrift([-2.0], epsilon_lead=1.0))
    assert cert.degree == 1
    assert cert.b2 == pytest.approx(1.0)  # half of |-2|
    assert cert.a2 == pytest.approx(0.0, abs=1e-12)
    s = np.linspace(0, 20, 101)
    assert np.all(-2.0 * s <= cert.a2 - cert.b2 * s + 1e-12)


def test_argmax_tie_breaks_to_lowest_index():
    sys = fhn_system(1.0, 1.0)
    u = np.array([0.0, 2.0, -2.0, 2.0])
    v = np.array([0.1, 0.2, 0.3, 0.2])
    # lowest-index argmax is cell 1; the margin there must match a direct
    # evaluation at that cell, and any tied argmax gives the same margin
    margin = dissipativity_gap(sys, 0, u, v, mode=1)
    drift = sys.drifts[0]
    cert = sys.certificates[0]
    expected = cert.a_prime * (1 + 0.3) ** 3 - drift.evaluate(np.array([2.2]))[0]
    assert margin == pytest.approx(expected, rel=1e-12)
    u_swapped = u[[0, 3, 2, 1]]
    v_swapped = v[[0, 3, 2, 1]]
    assert dissipativity_gap(sys, 0, u_swapped, v_swapped, mode=1) == \
        pytest.approx(margin, rel=1e-12)


def test_zero_field_rejected():
    sys = fhn_system(1.0, 1.0)
    with pytest.raises(ValueError, match="zero"):
        dissipativity_gap(sys, 0, np.zeros(8), np.ones(8))


# --- quasi-positivity ---------------------------------------------------------


def test_fhn_quasi_positive():
    report = check_quasi_positive(fhn_system(1.0, 1.0), grid_samples=5000,
                                  range_m=5.0)
    assert report.passed
    assert report.audit_margin_min >= 0.0


def test_fhn_qpos_audit_with_analytic_lipschitz():
    sys = fhn_system(1.0, 1.0)
    report = check_quasi_positive(sys, grid_samples=10_000, range_m=5.0,
                                  lipschitz_m=max(1.0, 1.0, 1.0) * 2)
    assert report.passed
    assert report.audit_margin_min >= 0.0


def test_sign_counterexample_fails_with_witness():
    couplings = [coupling_linear([0.0, -1.0]), coupling_none(2)]
    sys = ReactionSystem([None, None], couplings)
    report = check_quasi_positive(sys, grid_samples=2000, range_m=1.0)
    assert not report.passed
    l, point, value = report.witness
    assert l == 0 and value < 0
    assert point[0] == 0.0 and point[1] > 0


def test_qpos_with_per_cell_drift():
    coeffs = np.linspace(1.0, 2.0, 16)[:, None] * np.array([[0.0, 0.0, -1.0]])
    sys = ReactionSystem([PolynomialDrift(coeffs, epsilon_lead=1.0), None],
                         [coupling_none(2), coupling_linear([1.0, 0.0])])
    report = check_quasi_positive(sys, grid_samples=2000, range_m=2.0)
    assert report.passed


def test_qpos_invariant_under_permutation_of_others():
    # three components, f_0 = s_1 + 2 s_2: swapping components 1,2 in the
    # sampled states must not change the verdict
    couplings = [coupling_linear([0.0, 1.0, 2.0]),
                 coupling_none(3), coupling_none(3)]
    sys = ReactionSystem([None, None, None], couplings)
    r1 = check_quasi_positive(sys, grid_samples=4000, range_m=2.0, seed=10)
    couplings_swapped = [coupling_linear([0.0, 2.0, 1.0]),
                         coupling_none(3), coupling_none(3)]
    sys2 = ReactionSystem([None, None, None], couplings_swapped)
    r2 = check_quasi_positive(sys2, grid_samples=4000, range_m=2.0, seed=10)
    assert r1.passed and r2.passed


# --- the FitzHugh-Nagumo builder ----------------------------------------------


def test_fhn_origin_fixed_point():
    sys = fhn_system(1.0, 1.0)
    assert np.array_equal(sys.evaluate(np.zeros((2, 4))),
                          np.zeros((2, 4)))


def test_fhn_rejects_nonpositive_parameters():
    with pytest.raises(AuditError):
        fhn_system(0.0, 1.0)
    with pytest.raises(AuditError):
        fhn_system(1.0, -2.0)


def test_fhn_general_parameters():
    sys = fhn_system(2.0, 0.5)
    u = np.array([[3.0], [2.0]])
    out = sys.evaluate(u)
    assert out[0, 0] == pytest.approx(3.0 - 27.0 + 2.0)
    assert out[1, 0] == pytest.approx(2.0 * 3.0 - 0.5 * 2.0)


# --- coupling audits -----------------------------------------------------------


def test_coupling_lipschitz_audit_randomized():
    sys = fhn_system(1.0, 1.0)
    rng = np.random.default_rng(4)
    for m in (1.0, 10.0, 100.0):
        s = rng.uniform(-m, m, size=(2, 10_000))
        t = rng.uniform(-m, m, size=(2, 10_000))
        for k in sys.couplings:
            lhs = np.abs(k(s) - k(t))
            rhs = k.lipschitz(m) * np.sum(np.abs(s - t), axis=0)
            assert np.all(lhs <= rhs + 1e-9)


def test_coupling_audit_catches_bad_constants():
    bad = CouplingTerm(lambda s: 10.0 * s[0], c1=0.0, c2=0.1, lipschitz=0.1,
                       name="bad")
    with pytest.raises(AuditError):
        bad.audit(r=1)


def test_truncated_evaluate_subnormal_norms_do_not_warn():
    # level / norm would overflow in cells whose l1 norm is subnormal; those
    # cells are inside the ball, where the state is read unchanged
    sys = fhn_system()
    # the third cell is outside the ball, so the clip moves it
    u = np.array([[1e-310, 0.0, 9.0], [0.0, 2e-320, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sys.evaluate(*_truncate(u, _bounds(4.0)))
    assert np.array_equal(out[:, :2], sys.evaluate(u)[:, :2])
    assert out[0, 2] == 4.0 - 4.0**3


_TINY_INTERIOR = [1.3302823026997865, -3.6445333157304613e-119, -1.2250470603341364]


def test_certificate_with_tiny_interior_coefficient():
    # the stationarity polynomial of -h/(1+s^3) has cancelling top
    # coefficients, so a spurious critical point near 1e118 overflows s^3;
    # the ratio there is evaluated in its rescaled form
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = check_f1_f2(PolynomialDrift(_TINY_INTERIOR))
    values = [getattr(cert, f) for f in ("a", "a_sym", "a1", "a2", "b1", "b2",
                                         "a_prime", "a_dd", "b_dd")]
    assert all(np.isfinite(values))
    # the t -> infinity limit of -h/(1+t^3) is the lead's magnitude
    assert cert.a_sym == -_TINY_INTERIOR[-1]


# --- the truncated reaction: F at the two points of solver._truncate ------------


def _clipped_evaluate(sys, u, level):
    """F^(n)(u) with the clip and the radial projection always applied."""
    drift_at = np.clip(u, -level, level)
    norms = np.sum(np.abs(u), axis=0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        coupling_at = u * np.where(norms > level, level / norms, 1.0)
    out = np.empty_like(u)
    for l, (h, k) in enumerate(zip(sys.drifts, sys.couplings)):
        out[l] = (0.0 if h is None else h.evaluate(drift_at[l])) + k(coupling_at)
    return out


_EIGHTHS = st.integers(-64, 64).map(lambda k: k / 8)


@settings(max_examples=200)
@given(r=st.integers(1, 3), n=st.integers(1, 12), degree=st.sampled_from([1, 3, 5]),
       per_cell=st.booleans(), where=st.sampled_from(["below", "at", "above"]),
       neg_zeros=st.booleans(), nan=st.booleans(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_truncated_evaluate_fast_path_matches_clipped(r, n, degree, per_cell, where,
                                                      neg_zeros, nan, seed, data):
    rng = np.random.default_rng(seed)
    shape = (n, degree) if per_cell else (degree,)
    coeffs = rng.uniform(-2.0, 2.0, size=shape)
    coeffs[..., -1] = -rng.uniform(0.5, 2.0, size=shape[:-1])
    sys = ReactionSystem(
        [None if l == 1 else PolynomialDrift(coeffs) for l in range(r)],
        [coupling_linear(rng.uniform(-1.0, 1.0, size=r)) for _ in range(r)], audit=False)
    u = np.reshape(data.draw(st.lists(_EIGHTHS, min_size=r * n, max_size=r * n),
                             label="state"), (r, n))
    if neg_zeros:
        u[u == 0.0] = -0.0
    if not np.any(u):
        u[0, 0] = 1.0
    top = float(np.sum(np.abs(u), axis=0).max())
    # the largest cell norm below the level, exactly at it or just above it
    level = {"below": 2.0 * top, "at": top, "above": np.nextafter(top, 0.0)}[where]
    if nan:
        u[rng.integers(r), rng.integers(n)] = np.nan
    got = sys.evaluate(*_truncate(u, _bounds(level)))
    assert got.tobytes() == _clipped_evaluate(sys, u, level).tobytes()
    if where != "above" and not nan:
        # inside the ball F^(n) = F, bit for bit
        assert got.tobytes() == sys.evaluate(u).tobytes()
