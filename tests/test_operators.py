import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from srds import (CoefficientField, apply_resolvent, assemble_operator,
                  build_grid, coefficient_field_from_csv, dump_spectrum_csv,
                  evolve_semigroup, semigroup_step, smoothing_profile)
from srds.errors import AuditError
from srds.linalg import ShiftedSolve, SpectralSolve, jacobi_cg


def poisson_1d(n, a=1.0, c=0.0):
    g = build_grid(1, [1.0], [n])
    return assemble_operator(g, CoefficientField.constant(g, a=a, c=c))


def neumann_spectrum(n, h):
    """Closed-form spectrum of the 1D zero-flux finite-volume Laplacian."""
    k = np.arange(n)
    return -(2.0 / h**2) * (1.0 - np.cos(k * np.pi / n))


def test_interior_and_boundary_stencil():
    op = poisson_1d(8)
    h2 = 8.0**2
    A = op.matrix.toarray()
    assert np.allclose(A[3, 2:5], np.array([1.0, -2.0, 1.0]) * h2)
    assert np.allclose(A[0, :2], np.array([-1.0, 1.0]) * h2)
    assert np.allclose(A[-1, -2:], np.array([1.0, -1.0]) * h2)


def test_constants_in_kernel_and_top_eigenvalue():
    op = poisson_1d(16)
    ones = np.ones(16)
    assert np.max(np.abs(op.apply(ones))) <= 1e-12 * 16**2
    ev = op.dense_spectrum()
    assert ev.max() == pytest.approx(0.0, abs=1e-10 * 16**2)


def test_spectrum_matches_closed_form():
    n = 16
    op = poisson_1d(n)
    ev = np.sort(op.dense_spectrum())
    expected = np.sort(neumann_spectrum(n, 1.0 / n))
    assert np.max(np.abs(ev - expected) / np.maximum(np.abs(expected), 1.0)) < 1e-10


def test_symmetry_for_random_coefficients():
    rng = np.random.default_rng(0)
    g = build_grid(2, [1.0, 1.0], [6, 5])
    for _ in range(20):
        a_diag = rng.uniform(0.5, 2.0, size=(g.n_total, 2))
        c = rng.uniform(0.0, 1.0, size=g.n_total)
        cf = CoefficientField.from_arrays(g, a_diag, c, eta=0.5, m_bound=2.0)
        A = assemble_operator(g, cf).matrix
        defect = np.abs(A - A.T).max() / np.abs(A).max()
        assert defect <= 1e-12


def test_ellipticity_violation_rejected():
    g = build_grid(1, [1.0], [8])
    a = np.full((8, 1, 1), 0.1)
    with pytest.raises(AuditError, match="ellipticity"):
        CoefficientField(g, a, np.zeros(8), eta=0.5, m_bound=2.0)


def test_off_diagonal_tensor_rejected():
    g = build_grid(2, [1.0, 1.0], [4, 4])
    a = np.tile(np.array([[1.0, 0.3], [0.3, 1.0]]), (g.n_total, 1, 1))
    cf = CoefficientField(g, a, np.zeros(g.n_total), eta=0.5, m_bound=2.0)
    with pytest.raises(AuditError, match="diagonal"):
        assemble_operator(g, cf)


def test_dissipative_with_nonnegative_c():
    rng = np.random.default_rng(1)
    for n in (16, 64):
        g = build_grid(1, [1.0], [n])
        a_diag = rng.uniform(0.5, 2.0, size=(n, 1))
        c = rng.uniform(0.0, 0.5, size=n)
        op = assemble_operator(g, CoefficientField.from_arrays(g, a_diag, c, 0.5, 2.0))
        assert op.dense_spectrum().max() <= 1e-10 * n**2


def test_m_matrix_inverse_nonnegative():
    op = poisson_1d(12)
    dt = 0.3
    M = np.eye(12) - dt * op.matrix.toarray()
    inv = np.linalg.inv(M)
    assert inv.min() >= -1e-13


def test_contraction_and_positivity_randomized():
    op = poisson_1d(32)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        dt = rng.uniform(1e-4, 1.0)
        u = rng.uniform(-1.0, 1.0, size=32)
        v = op.stepper(dt).solve(u)
        assert np.max(np.abs(v)) <= np.max(np.abs(u)) * (1 + 1e-12)
        w = op.stepper(dt).solve(np.abs(u))
        assert w.min() >= -1e-13


def test_resolvent_constant_field():
    op = poisson_1d(16)
    out = apply_resolvent(op, 5.0, np.full(16, 3.0))
    assert np.allclose(out, 3.0, atol=1e-9)


def test_resolvent_on_eigenvector():
    n = 64
    op = poisson_1d(n)
    x = op.grid.centers[:, 0]
    f = np.cos(np.pi * x)
    # oracle: eigen-decomposition of the assembled matrix
    evals, evecs = np.linalg.eigh(op.matrix.toarray())
    overlap = np.argmax(np.abs(evecs.T @ f))
    mu1 = -evals[overlap]
    assert mu1 == pytest.approx(-neumann_spectrum(n, 1.0 / n)[1], rel=1e-12)
    lam = 50.0
    out = apply_resolvent(op, lam, f)
    assert np.allclose(out, lam / (lam + mu1) * f, atol=1e-8)


def test_resolvent_sweep_converges():
    op = poisson_1d(32)
    x = op.grid.centers[:, 0]
    f = np.cos(np.pi * x) + 0.5 * np.cos(2 * np.pi * x)
    errs = [np.max(np.abs(apply_resolvent(op, lam, f) - f))
            for lam in (10.0, 100.0, 1000.0)]
    assert errs[0] > errs[1] > errs[2]


def test_resolvent_requires_positive_lambda():
    op = poisson_1d(8)
    with pytest.raises(ValueError):
        apply_resolvent(op, -1.0, np.ones(8))


def test_semigroup_preserves_constants():
    op = poisson_1d(16)
    for dt in (1e-3, 0.1, 10.0):
        out = semigroup_step(op, dt, np.ones(16))
        assert np.allclose(out, 1.0, atol=1e-9)


def test_semigroup_spike_mass_and_sign():
    op = poisson_1d(32)
    g = op.grid
    u = np.zeros(32)
    u[10] = 1.0
    out = semigroup_step(op, 0.01, u)
    assert out.min() >= -1e-12
    assert np.sum(out) * g.cell_volume == pytest.approx(
        np.sum(u) * g.cell_volume, rel=1e-9)


def test_semigroup_maximum_principle():
    op = poisson_1d(32)
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = rng.uniform(0.0, 1.0, size=32)
        out = semigroup_step(op, rng.uniform(1e-3, 1.0), u)
        assert out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12


def test_cg_and_direct_agree():
    op = poisson_1d(48)
    eye = sp.identity(48, format="csr")
    rng = np.random.default_rng(5)
    u = rng.standard_normal(48)
    a = jacobi_cg((eye - 0.05 * op.matrix).tocsr(), u)
    b = semigroup_step(op, 0.05, u)
    assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.max(np.abs(b)))
    f = rng.standard_normal(48)
    rc = 7.0 * jacobi_cg((7.0 * eye - op.matrix).tocsr(), f)
    rd = apply_resolvent(op, 7.0, f)
    assert np.max(np.abs(rc - rd)) <= 1e-9 * max(1.0, np.max(np.abs(rd)))


def test_smoothing_scaled_sup_bounded():
    op = poisson_1d(64)
    prof = smoothing_profile(op)
    assert prof["bounded"]
    assert np.all(np.isfinite(prof["scaled_sup"]))


def test_semigroup_evolution_decays():
    op = poisson_1d(32)
    x = op.grid.centers[:, 0]
    u = np.cos(np.pi * x)
    v = evolve_semigroup(op, 0.2, u, n_substeps=64)
    assert np.max(np.abs(v)) < np.max(np.abs(u))


def test_coefficient_csv_roundtrip(tmp_path):
    g = build_grid(1, [1.0], [6])
    rng = np.random.default_rng(11)
    a = rng.uniform(0.6, 1.8, size=6)
    c = rng.uniform(0.0, 0.2, size=6)
    path = tmp_path / "coeffs.csv"
    with open(path, "w") as fh:
        fh.write("# index, a, c\n")
        for i in range(6):
            fh.write(f"{i},{float(a[i])!r},{float(c[i])!r}\n")
    cf = coefficient_field_from_csv(g, path, eta=0.5, m_bound=2.0)
    assert np.array_equal(cf.a[:, 0, 0], a)
    assert np.array_equal(cf.c, c)


def test_spectrum_dump(tmp_path):
    op = poisson_1d(16)
    path = tmp_path / "spec.csv"
    ev = dump_spectrum_csv(op, path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 17
    assert float(rows[1].split(",")[1]) == pytest.approx(ev[0])


def test_2d_operator_kernel_and_contraction():
    g = build_grid(2, [1.0, 2.0], [8, 8])
    op = assemble_operator(g, CoefficientField.constant(g, a=1.0, c=0.0))
    ones = np.ones(g.n_total)
    assert np.max(np.abs(op.apply(ones))) <= 1e-10 * 64**2
    rng = np.random.default_rng(13)
    u = rng.uniform(-1, 1, size=g.n_total)
    v = op.stepper(0.05).solve(u)
    assert np.max(np.abs(v)) <= np.max(np.abs(u)) * (1 + 1e-12)


# --- properties of the (I - dt A) solvers on random diagonal fields ----------------


@st.composite
def random_operators(draw):
    """1D or 2D grid of at most 16^2 cells, a in [eta, M] per axis, c >= 0,
    either drawn per cell or constant (the 2D constant case steps with the DCT)."""
    dim = draw(st.sampled_from([1, 2]))
    n_cells = draw(st.lists(st.integers(2, 16), min_size=dim, max_size=dim))
    extents = draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    eta = draw(st.floats(0.1, 1.0))
    m_bound = eta * draw(st.floats(1.0, 10.0))
    c_max = draw(st.sampled_from([0.0, 1.0, 10.0]))
    constant = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = build_grid(dim, extents, n_cells)
    n_drawn = 1 if constant else grid.n_total
    a = rng.uniform(eta, m_bound, size=(n_drawn, dim)).repeat(grid.n_total // n_drawn, 0)
    c = rng.uniform(0.0, c_max, size=n_drawn).repeat(grid.n_total // n_drawn)
    op = assemble_operator(grid, CoefficientField.from_arrays(grid, a, c, eta, m_bound))
    return op, rng


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=random_operators(), dt=st.floats(1e-4, 1.0))
def test_semigroup_step_is_sup_contractive_and_positive(case, dt):
    op, rng = case
    u = rng.uniform(-1.0, 1.0, size=op.grid.n_total)
    v = semigroup_step(op, dt, u)
    assert np.max(np.abs(v)) <= np.max(np.abs(u)) * (1 + 1e-12)
    w = semigroup_step(op, dt, np.abs(u))
    assert w.min() >= -1e-13


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=random_operators(), lam=st.floats(1.0, 1e3))
def test_resolvent_matches_cg_reference(case, lam):
    op, rng = case
    f = rng.uniform(-1.0, 1.0, size=op.grid.n_total)
    shifted = (lam * sp.identity(op.grid.n_total, format="csr") - op.matrix).tocsr()
    ref = lam * jacobi_cg(shifted, f)
    out = apply_resolvent(op, lam, f)
    assert np.max(np.abs(out - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=random_operators(), dt=st.floats(1e-4, 1.0))
def test_stepper_matches_lu_factor(case, dt):
    op, rng = case
    b = rng.uniform(-1.0, 1.0, size=op.grid.n_total)
    ref = ShiftedSolve(op.matrix, dt).solve(b)
    assert np.max(np.abs(op.stepper(dt).solve(b) - ref)) <= 1e-12 * np.max(np.abs(b))


def test_stepper_selection(tmp_path):
    g1 = build_grid(1, [1.0], [32])
    g2 = build_grid(2, [1.0, 2.0], [12, 10])
    const_1d = assemble_operator(g1, CoefficientField.constant(g1, a=1.5, c=0.5))
    anisotropic = assemble_operator(g2, CoefficientField.from_arrays(
        g2, np.tile([0.7, 1.9], (g2.n_total, 1)), np.full(g2.n_total, 0.3), 0.5, 2.0))
    assert isinstance(anisotropic.stepper(1e-3), SpectralSolve)
    assert isinstance(const_1d.stepper(1e-3), ShiftedSolve)

    a = np.ones((g2.n_total, 2))
    a[37, 1] = 1.5
    one_cell_a = CoefficientField.from_arrays(g2, a, np.zeros(g2.n_total), 0.5, 2.0)
    c = np.zeros(g2.n_total)
    c[37] = 0.1
    one_cell_c = CoefficientField.from_arrays(g2, np.ones((g2.n_total, 2)), c, 0.5, 2.0)
    path = tmp_path / "coeffs.csv"
    rng = np.random.default_rng(17)
    with open(path, "w") as fh:
        for i in range(g2.n_total):
            a_ii = rng.uniform(0.6, 1.8)
            fh.write(f"{i},{a_ii!r},0.0,0.0,{a_ii!r},0.0\n")
    from_csv = coefficient_field_from_csv(g2, path, eta=0.5, m_bound=2.0)
    for cf in (one_cell_a, one_cell_c, from_csv):
        assert isinstance(assemble_operator(g2, cf).stepper(1e-3), ShiftedSolve)
