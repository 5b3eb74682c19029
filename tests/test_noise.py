import numpy as np
import pytest

from srds import (HolderFunction, apply_noise, build_grid, build_noise,
                  cosine_neumann_basis, named_g, osgood_check,
                  osgood_check_model, sample_path)
from srds.errors import AuditError


def make_model(n=64, modes=8, lam=None, g_name="sqrt-abs", r=1):
    grid = build_grid(1, [1.0], [n])
    basis = cosine_neumann_basis(grid, modes)
    if lam is None:
        lam = (np.arange(modes) + 1.0) ** -2.0
    return build_noise([basis] * r, [np.asarray(lam, dtype=float)] * r,
                       [named_g(g_name)] * r)


def test_cosine_basis_closed_form():
    grid = build_grid(1, [2.0], [32])
    basis = cosine_neumann_basis(grid, 5)
    x = grid.centers[:, 0]
    assert np.allclose(basis.values[0], 1.0 / np.sqrt(2.0))
    assert np.allclose(basis.values[3], np.sqrt(2.0 / 2.0) * np.cos(3 * np.pi * x / 2.0))
    assert np.all(basis.sup_norms <= np.sqrt(2.0 / 2.0) + 1e-12)


@pytest.mark.parametrize("dim,n_cells,modes", [(1, [64], 8), (2, [24, 24], 6)])
def test_discrete_orthonormality(dim, n_cells, modes):
    grid = build_grid(dim, [1.0] * dim, n_cells)
    basis = cosine_neumann_basis(grid, modes)
    assert basis.orthonormality_defect() <= 1e-8


def test_alpha_beta_sequences():
    model = make_model(g_name="sqrt-abs")
    comp = model.components[0]
    # Example amplitude sqrt|s| declares growth (1, 1): alpha_k = ||lam_k e_k||
    assert np.allclose(comp.alpha, comp.sup_lambda_e)
    assert np.allclose(comp.beta, comp.sup_lambda_e)


def test_rho_constant_direct_sum():
    K = 6
    lam = 1.0 / (np.arange(K) + 1.0)
    model = make_model(modes=K, lam=lam, g_name="sqrt-abs")
    # direct finite sum: e_0 has sup 1, higher modes sup sqrt(2) on [0,1]
    expected = lam[0] ** 2 * 1.0 + np.sum((lam[1:] ** 2) * 2.0)
    assert model.components[0].rho_constant(3.0) == pytest.approx(expected, rel=1e-12)


def test_rho_adjustment_dominates_identity():
    model = make_model(lam=np.full(8, 1e-3))
    rho = model.components[0].rho(1.0)
    assert rho.constant < 1.0
    adj = rho.adjusted()
    s = np.linspace(1e-6, 1.0, 100)
    assert np.all(adj(s) >= s)


def test_zero_spectrum_is_zero_model():
    model = make_model(lam=np.zeros(8))
    assert model.components[0].is_zero()
    field = apply_noise(model, 0, np.full(64, 2.0), np.ones(8))
    assert np.array_equal(field, np.zeros(64))


def test_apply_noise_vanishes_at_zero_state():
    model = make_model(g_name="sqrt-abs")
    out = apply_noise(model, 0, np.zeros(64), np.full(8, 3.0))
    assert np.allclose(out, 0.0)


def test_apply_noise_single_mode_arithmetic():
    grid = build_grid(1, [1.0], [16])
    basis = cosine_neumann_basis(grid, 1)  # only the constant mode, e_0 = 1
    model = build_noise([basis], [np.array([1.0])], [named_g("sqrt-abs")])
    out = apply_noise(model, 0, np.full(16, 4.0), np.array([0.5]))
    assert np.allclose(out, 1.0, atol=1e-14)


def test_apply_noise_linear_in_increments():
    model = make_model()
    rng = np.random.default_rng(0)
    u = rng.uniform(0.0, 2.0, size=64)
    d1 = rng.standard_normal(8)
    d2 = rng.standard_normal(8)
    lhs = apply_noise(model, 0, u, 2.0 * d1 + 3.0 * d2)
    rhs = 2.0 * apply_noise(model, 0, u, d1) + 3.0 * apply_noise(model, 0, u, d2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_ito_isometry():
    n_draws = 100_000
    model = make_model(n=32, modes=4)
    comp = model.components[0]
    rng_u = np.random.default_rng(1)
    u = rng_u.uniform(0.5, 2.0, size=32)
    dt = 1e-2
    path = sample_path(314, 1, 4, n_draws, dt)
    modal = comp.mode_fields @ path.increments[0]  # (cells, draws)
    fields = comp.g(u)[:, None] * modal
    variances = fields.var(axis=1)
    expected = dt * comp.g(u) ** 2 * (comp.mode_fields ** 2).sum(axis=1)
    assert np.all(np.abs(variances - expected) <= 0.02 * expected)


def test_growth_audit_failure():
    bad = HolderFunction(lambda s: np.sqrt(np.abs(s)), growth_a=0.01,
                         growth_b=0.01, holder_c=lambda m: 1.0, name="bad")
    with pytest.raises(AuditError, match="growth"):
        bad.audit()


def test_holder_audit_failure():
    bad = HolderFunction(lambda s: np.asarray(s, dtype=float), growth_a=0.0,
                         growth_b=1.0, holder_c=lambda m: 0.01, name="bad")
    with pytest.raises(AuditError, match="holder"):
        bad.audit()


def test_named_amplitudes_pass_their_audits():
    for name in ("sqrt-abs", "sqrt-pos", "sqrt-clipped-01", "sqrt-abs-shifted",
                 "lipschitz:1", "lipschitz:0.5"):
        named_g(name).audit()


def test_named_amplitude_values():
    g = named_g("sqrt-clipped-01")
    s = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0])
    assert np.allclose(g(s), [0.0, 0.0, np.sqrt(0.1875), 0.5, 0.0, 0.0])
    gs = named_g("sqrt-abs-shifted")
    assert gs(np.array([0.0]))[0] == pytest.approx(0.1)


def test_mode_count_mismatch():
    grid = build_grid(1, [1.0], [16])
    basis = cosine_neumann_basis(grid, 4)
    with pytest.raises(AuditError, match="noise"):
        build_noise([basis], [np.ones(5)], [named_g("sqrt-abs")])


def test_component_count_mismatch_rejected():
    grid = build_grid(1, [1.0], [16])
    basis = cosine_neumann_basis(grid, 4)
    with pytest.raises(ValueError, match="per component"):
        build_noise([basis] * 2, [np.ones(4)] * 2, [named_g("sqrt-abs")])


# --- Osgood verdicts --------------------------------------------------------

EPS_GRID = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


def test_osgood_linear_matches_log():
    table = osgood_check(lambda s: np.asarray(s, dtype=float), EPS_GRID)
    assert table["verdict"] == "diverges"
    assert table["integral"][-1] == pytest.approx(np.log(1e6), rel=1e-6)


def test_osgood_scaled_linear():
    table = osgood_check(lambda s: 2.0 * np.asarray(s, dtype=float), EPS_GRID)
    assert table["verdict"] == "diverges"
    assert table["integral"][-1] == pytest.approx(np.log(1e6) / 2.0, rel=1e-6)


def test_osgood_power_three_halves():
    table = osgood_check(lambda s: np.asarray(s, dtype=float) ** 1.5, EPS_GRID)
    assert table["verdict"] == "diverges"
    # analytic: I(eps) = 2(eps^-1/2 - 1)
    assert table["integral"][-1] == pytest.approx(2.0 * (1e3 - 1.0), rel=1e-6)


def test_osgood_square():
    table = osgood_check(lambda s: np.asarray(s, dtype=float) ** 2, EPS_GRID)
    assert table["verdict"] == "diverges"
    assert table["integral"][-1] == pytest.approx(1e6 - 1.0, rel=1e-6)


def test_osgood_constant_converges():
    table = osgood_check(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                         EPS_GRID)
    assert table["verdict"] == "converges"
    assert table["integral"][-1] == pytest.approx(1.0 - 1e-6, rel=1e-9)


def test_osgood_sqrt_converges():
    table = osgood_check(lambda s: np.sqrt(np.asarray(s, dtype=float)), EPS_GRID)
    assert table["verdict"] == "converges"


def test_osgood_model_wrapper():
    model = make_model()
    table = osgood_check_model(model, 0, 1.0, EPS_GRID)
    assert table["verdict"] == "diverges"
    zero = make_model(lam=np.zeros(8))
    with pytest.raises(ValueError, match="positive"):
        osgood_check_model(zero, 0, 1.0, EPS_GRID)


def test_osgood_requires_decreasing_grid():
    with pytest.raises(ValueError):
        osgood_check(lambda s: np.asarray(s, dtype=float), [1e-3, 1e-2])
