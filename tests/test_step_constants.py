"""Constants on the per-step path are 0-d float64 arrays, built once.  Each
expression that takes one must equal, byte for byte, the same expression
written with Python floats, on any float64 input: signed zeros, infinities,
NaN, subnormals and values near the largest float included.  How ``step``
combines the pieces is pinned by
``test_runs_match_the_reference[block-default]``."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from srds.noise import named_g
from srds.reaction import PolynomialDrift, ReactionSystem, fhn_couplings
from srds.solver import _ONE, _step_runs, _truncate, truncate_problem

from conftest import build_scalar_heat_problem

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           2.225073858507201e-308, -1e-310, 1e308, -1e308, 1.7976931348623157e308,
           0.5, -1.0, 1.0, 0.01, -0.01]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
finite = st.one_of(st.sampled_from([v for v in SPECIAL if math.isfinite(v)]),
                   st.floats(allow_nan=False, allow_infinity=False))
positive = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


def arrays(n=None, elements=values):
    """float64 arrays of n ``elements``, or of 1 to 24 when n is None."""
    return st.lists(elements, min_size=n or 1, max_size=n or 24).map(np.array)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _horner_reference(cols, s):
    """sum_j w_j s^j as the drift evaluated it with Python floats (or with
    strided column views for per-cell coefficients)."""
    r = np.multiply(s, cols[-1])
    for c in cols[-2::-1]:
        r += c
        r *= s
    return r


@st.composite
def constant_drifts(draw):
    # PolynomialDrift refuses a non-finite coefficient; states may be anything
    q = draw(st.sampled_from([1, 3, 5]))
    lower = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), finite),
                          min_size=q - 1, max_size=q - 1))
    lead = -draw(st.floats(min_value=1e-8, max_value=1e300))
    return lower + [lead]


@settings(max_examples=300)
@given(coeffs=constant_drifts(), s=arrays())
def test_constant_horner_matches_python_floats(coeffs, s):
    with np.errstate(all="ignore"):
        _same(PolynomialDrift(coeffs).evaluate(s),
              _horner_reference([float(c) for c in coeffs], s))


@settings(max_examples=200)
@given(data=st.data(), q=st.sampled_from([1, 3]), n=st.integers(1, 12))
def test_per_cell_horner_matches_strided_columns(data, q, n):
    lower = data.draw(st.lists(arrays(n, finite), min_size=q - 1, max_size=q - 1))
    lead = -np.array(data.draw(st.lists(st.floats(min_value=1e-8, max_value=1e300),
                                        min_size=n, max_size=n)))
    coeffs = np.column_stack(lower + [lead])
    s = data.draw(arrays(n))
    cells = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                        max_size=n)))
    drift = PolynomialDrift(coeffs)
    with np.errstate(all="ignore"):
        _same(drift.evaluate(s), _horner_reference(coeffs.T, s))
        _same(drift.evaluate(s[cells], cells),
              _horner_reference(coeffs[cells].T, s[cells]))


@settings(max_examples=300)
@given(a=positive, b=positive, u=arrays(12), v=arrays(12),
       level=st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e300)))
def test_fhn_reaction_matches_python_floats(a, b, u, v, level):
    k1, k2 = fhn_couplings(a, b)
    state = np.stack([u, v])
    reaction = ReactionSystem([PolynomialDrift([1.0, 0.0, -1.0], epsilon_lead=1.0),
                               None], [k1, k2], audit=False)
    with np.errstate(all="ignore"):
        k = a * u
        k -= b * v
        _same(k2.fn(state), k)
        _same(k1.fn(state), v)

        drift_at = coupling_at = state
        norms = np.abs(state).sum(axis=0)
        if level is not None and not norms.max() <= level:
            drift_at = np.minimum(np.maximum(state, -level), level)
            coupling_at = state * np.where(norms > level, level / norms, 1.0)
        want = np.empty_like(state)
        want[0] = _horner_reference([1.0, 0.0, -1.0], drift_at[0])
        want[0] += coupling_at[1]
        k = a * coupling_at[0]
        k -= b * coupling_at[1]
        want[1] = 0.0 + k
        _same(reaction.evaluate(state) if level is None else reaction.evaluate(
            *_truncate(state, (np.array(-level), np.array(level)))), want)


def _clipped_01(s):
    t = np.clip(s, 0.0, 1.0)
    return np.sqrt((1.0 - t) * t)


AMPLITUDES = {
    "sqrt-abs": lambda s: np.sqrt(np.abs(s)),
    "sqrt-pos": lambda s: np.sqrt(np.maximum(s, 0.0)),
    "sqrt-clipped-01": _clipped_01,
    "sqrt-abs-shifted": lambda s: np.sqrt(np.abs(s) + 0.01),
}


@settings(max_examples=300)
@given(s=arrays(), slope=finite,
       alpha=st.one_of(st.sampled_from([1.0, 0.5, 0.25, 5e-324]),
                       st.floats(min_value=5e-324, max_value=1.0)))
def test_named_amplitudes_match_python_floats(s, slope, alpha):
    given_s = s.copy()
    with np.errstate(all="ignore"):
        for name, expression in AMPLITUDES.items():
            _same(named_g(name)(s), expression(s))
        _same(named_g(f"lipschitz:{slope!r}")(s), slope * s)
        _same(named_g(f"power:{alpha!r}")(s), np.power(np.abs(s), alpha))
    _same(s, given_s)  # no amplitude writes its input


HEAT = build_scalar_heat_problem(n=4)


# dt is kept where (I - dt A) has a finite factor; each dt caches one
@settings(max_examples=300)
@given(x=arrays(), level=st.floats(min_value=1.0, max_value=1.7976931348623157e308),
       dt=st.floats(min_value=5e-324, max_value=1e6))
def test_step_bounds_and_tamed_division_match_python_floats(x, level, dt):
    constant, (lo, hi) = _step_runs(truncate_problem(HEAT, level), dt)[2:]
    assert _step_runs(HEAT, dt)[3] is None
    rhs = x[None, :]
    peak = np.abs(rhs).max(axis=1, keepdims=True)
    with np.errstate(all="ignore"):
        _same(_truncate(x[None, :], (lo, hi))[0][0],
              np.minimum(np.maximum(x, -level), level))
        tamed = rhs.copy()
        tamed /= _ONE + constant * peak
        _same(tamed, rhs / (1.0 + dt * peak))
        _same(x * constant, x * dt)
