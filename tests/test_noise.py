import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srds import (HolderFunction, PowerModulus, build_grid, build_noise,
                  cosine_neumann_basis, named_g, osgood_check, sample_path)
from srds.errors import AuditError
from srds.noise import MODAL_CHUNK_FLOATS, _row_chunks, adjacent_runs


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
    values = basis.table().T
    assert np.allclose(values[0], 1.0 / np.sqrt(2.0))
    assert np.allclose(values[3], np.sqrt(2.0 / 2.0) * np.cos(3 * np.pi * x / 2.0))
    assert np.all(basis.sup_norms <= np.sqrt(2.0 / 2.0) + 1e-12)


@pytest.mark.parametrize("dim,n_cells,modes", [(1, [64], 8), (2, [24, 24], 6)])
def test_discrete_orthonormality(dim, n_cells, modes):
    grid = build_grid(dim, [1.0] * dim, n_cells)
    basis = cosine_neumann_basis(grid, modes)
    assert basis.orthonormality_defect() <= 1e-8


@pytest.mark.parametrize("n_cells, modes, aliased", [
    ([32], 33, "32 aliases on axis 0 of 32"), ([32], 128, "32 aliases on axis 0 of 32"),
    ([8, 4], 11, r"\(0, 4\) aliases on axis 1 of 4"),
    ([8, 4], 32, r"\(0, 4\) aliases on axis 1 of 4"),
    ([4, 8], 15, r"\(4, 0\) aliases on axis 0 of 4"),
])
def test_aliased_modes_are_refused(n_cells, modes, aliased):
    # a frequency k >= n samples n cell centers as zero or as a lower mode:
    # 32 cells with 128 modes built a family with an orthonormality defect
    # of 1.41, an 8 x 4 grid with 32 modes one of 1.0.  The most modes each
    # grid resolves are orthonormal.
    grid = build_grid(len(n_cells), [1.0] * len(n_cells), n_cells)
    with pytest.raises(ValueError, match=f"noise mode {aliased} cells"):
        cosine_neumann_basis(grid, modes)
    most = {32: 32, 8: 10, 4: 14}[n_cells[0]]
    assert cosine_neumann_basis(grid, most).orthonormality_defect() <= 1e-8


def test_alpha_beta_sequences():
    model = make_model(g_name="sqrt-abs")
    comp = model.components[0]
    # Example amplitude sqrt|s| declares growth (1, 1): alpha_k = ||lam_k e_k||
    assert np.allclose(comp.g.growth_a * comp.sup_lambda_e, comp.sup_lambda_e)
    assert np.allclose(comp.g.growth_b * comp.sup_lambda_e, comp.sup_lambda_e)


def test_rho_constant_direct_sum():
    K = 6
    lam = 1.0 / (np.arange(K) + 1.0)
    model = make_model(modes=K, lam=lam, g_name="sqrt-abs")
    # direct finite sum: e_0 has sup 1, higher modes sup sqrt(2) on [0,1]
    expected = lam[0] ** 2 * 1.0 + np.sum((lam[1:] ** 2) * 2.0)
    assert model.components[0].rho_constant(3.0) == pytest.approx(expected, rel=1e-12)


def test_rho_adjustment_dominates_identity():
    # `verify mollifier` derives C from the modulus and adds the identity
    # when C < 1, so that C s >= s; its check names carry the C it built
    from srds.verify import suite_mollifier

    problem, initial, config = _power_problem(0.5)
    comps = problem.noise.components
    noise = build_noise([c.basis for c in comps], [0.5 * c.lambdas for c in comps],
                        [c.g for c in comps])
    rho = noise.components[0].rho(1.0)
    assert 0.0 < rho.constant < 1.0
    report = suite_mollifier(replace(problem, noise=noise), config, initial, 3,
                             n_max=2, probe_points=11)
    assert {c["name"].split("-")[0] for c in report.checks} == {
        f"C={rho.constant + 1.0:g}"}
    s = np.linspace(1e-6, 1.0, 100)
    assert np.all(PowerModulus(rho.constant + 1.0)(s) >= s)


def noise_field(model, component, u, increments):
    """x -> g(u(x)) * sum_k lambda_k e_k(x) db_k for one component."""
    comp = model.components[component]
    return comp.g(u) * comp.modal_field(np.asarray(increments, dtype=float))


def test_zero_spectrum_is_zero_model():
    model = make_model(lam=np.zeros(8))
    assert model.components[0].is_zero()
    field = noise_field(model, 0, np.full(64, 2.0), np.ones(8))
    assert np.array_equal(field, np.zeros(64))


def test_noise_field_vanishes_at_zero_state():
    model = make_model(g_name="sqrt-abs")
    out = noise_field(model, 0, np.zeros(64), np.full(8, 3.0))
    assert np.allclose(out, 0.0)


def test_noise_field_single_mode_arithmetic():
    grid = build_grid(1, [1.0], [16])
    basis = cosine_neumann_basis(grid, 1)  # only the constant mode, e_0 = 1
    model = build_noise([basis], [np.array([1.0])], [named_g("sqrt-abs")])
    out = noise_field(model, 0, np.full(16, 4.0), np.array([0.5]))
    assert np.allclose(out, 1.0, atol=1e-14)


def test_noise_field_linear_in_increments():
    model = make_model()
    rng = np.random.default_rng(0)
    u = rng.uniform(0.0, 2.0, size=64)
    d1 = rng.standard_normal(8)
    d2 = rng.standard_normal(8)
    lhs = noise_field(model, 0, u, 2.0 * d1 + 3.0 * d2)
    rhs = 2.0 * noise_field(model, 0, u, d1) + 3.0 * noise_field(model, 0, u, d2)
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


@pytest.mark.parametrize("growth_a,growth_b,c_100", [
    (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (1.0, math.nan, 1.0),
    (1.0, -math.inf, 1.0), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf)])
def test_audit_rejects_non_finite_constants(growth_a, growth_b, c_100):
    # a NaN bound is never exceeded and an inf one warns: the audit must
    # reject both before it samples, for amplitudes built past the parser
    g = HolderFunction(lambda s: np.sqrt(np.abs(s)), growth_a, growth_b,
                       lambda m: c_100 if m == 100.0 else 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AuditError, match="non-finite-constant"):
            g.audit()


def test_named_amplitudes_pass_their_audits():
    for name in ("sqrt-abs", "sqrt-pos", "sqrt-clipped-01", "sqrt-abs-shifted",
                 "lipschitz:1", "lipschitz:0.5", "power:0.25", "power:1"):
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


@pytest.mark.parametrize("k, bad", [(0, math.inf), (3, math.nan), (7, -math.inf)])
def test_a_non_finite_lambda_is_refused_by_mode(k, bad):
    # it would first show as a non-finite state at step 1
    basis = cosine_neumann_basis(build_grid(1, [1.0], [32]), 8)
    lam = np.ones(8)
    lam[k] = bad
    with pytest.raises(ValueError, match=rf"^lambdas\[{k}\] is {bad!r}; it must be finite$"):
        build_noise([basis], [lam], [named_g("sqrt-abs")])
    lam[k] = 1e308  # finite, however large
    assert build_noise([basis], [lam], [named_g("sqrt-abs")]).components[0].modes == 8


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


def test_osgood_component_modulus():
    model = make_model()
    table = osgood_check(model.components[0].rho(1.0), EPS_GRID)
    assert table["verdict"] == "diverges"
    zero = make_model(lam=np.zeros(8))
    with pytest.raises(ValueError, match="positive"):
        osgood_check(zero.components[0].rho(1.0), EPS_GRID)


def test_osgood_requires_decreasing_grid():
    with pytest.raises(ValueError):
        osgood_check(lambda s: np.asarray(s, dtype=float), [1e-3, 1e-2])


# --- block modal fields -------------------------------------------------------


@settings(max_examples=120)
@given(n=st.integers(2, 40), modes=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       n_steps=st.integers(1, 30), step_stride=st.integers(1, 3),
       contiguous=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_block_modal_fields_match_per_step(n, modes, n_steps, step_stride, contiguous,
                                           seed, data):
    # a stacked matmul runs one matrix-vector product per step; a fixed-order
    # sum over the K modes would differ in the last bit on most entries
    rng = np.random.default_rng(seed)
    grid = build_grid(1, [1.0], [n])
    modes = [min(k, n) for k in modes]  # n cells resolve n modes
    noise = build_noise([cosine_neumann_basis(grid, k) for k in modes],
                        [rng.uniform(-2.0, 2.0, size=k) for k in modes],
                        [named_g("sqrt-abs")] * len(modes), audit=False)
    K = noise.modes
    # (r, K', n_fine) increments as a path stores them, stepped with a stride
    raw = rng.standard_normal((len(modes), K + 2, n_steps * step_stride))
    inc = raw[:, :K, ::step_stride].transpose(2, 0, 1)  # (n_steps, r, K) view
    if contiguous:
        inc = np.ascontiguousarray(inc)
    a = data.draw(st.integers(0, n_steps - 1), label="block start")
    b = data.draw(st.integers(a + 1, n_steps), label="block end")
    fields = noise.modal_fields(inc[a:b])
    assert fields.shape == (b - a, len(modes), n)
    for i in range(b - a):
        for l, comp in enumerate(noise.components):
            assert np.array_equal(fields[i, l], comp.modal_field(inc[a + i, l, :comp.modes]))


# --- shared mode tables, read in row chunks -------------------------------------
# OpenBLAS splits a large matrix-vector product among its threads, and where a
# thread's share of the rows starts moves the kernel's row groups: the whole
# table's product is then not bitwise its one-thread self (n = 32769, K = 15
# differs in one entry at 2 threads).  The chunked products are compared with
# it in a child process on one BLAS thread.


def _chunk_rows(K):
    # the rows of a full chunk of an (n, K) table: a chunk holds at most
    # MODAL_CHUNK_FLOATS floats, so at most that many rows
    return _row_chunks(2 * MODAL_CHUNK_FLOATS, K)[0].stop


def _layout_model(layout, n, K, K_b, rng):
    """Components A and B on one 1D grid of n cells: every A shares one
    basis object and bitwise-equal lambdas, so one mode table; B has its own
    basis and lambdas."""
    grid = build_grid(1, [1.0], [n])
    spec = {"A": (cosine_neumann_basis(grid, K), rng.uniform(-2.0, 2.0, size=K)),
            "B": (cosine_neumann_basis(grid, K_b), rng.uniform(-2.0, 2.0, size=K_b))}
    # each A gets its own copy of the lambdas: they are compared by value
    noise = build_noise([spec[c][0] for c in layout],
                        [spec[c][1].copy() for c in layout],
                        [named_g("sqrt-abs")] * len(layout), audit=False)
    tables = {id(comp.mode_fields) for comp, c in zip(noise.components, layout)
              if c == "A"}
    assert len(tables) == 1  # one table, built once
    return noise


def _assert_per_component_products(noise, inc):
    fields = noise.modal_fields(inc)
    for i in range(len(inc)):
        for l, comp in enumerate(noise.components):
            assert np.array_equal(fields[i, l], comp.mode_fields @ inc[i, l, :comp.modes])


@settings(max_examples=60)
@given(K=st.integers(1, 40), chunks=st.integers(1, 3), tail=st.sampled_from([0, 1, 2, 65]),
       K_b=st.integers(1, 40), layout=st.sampled_from(["AAB", "ABA"]),
       n_steps=st.integers(1, 5), step_stride=st.integers(1, 3),
       contiguous=st.booleans(), seed=st.integers(0, 2**32 - 1))
def _chunked_fields_match_per_component_product(K, chunks, tail, K_b, layout, n_steps,
                                                 step_stride, contiguous, seed):
    # n spans one to three full chunks of the A table plus a tail; a run of
    # adjacent components sharing a table (A-A) is one stacked matmul per
    # chunk, a table shared apart (A-B-A) is read once per run
    rng = np.random.default_rng(seed)
    noise = _layout_model(layout, chunks * _chunk_rows(K) + tail, K, K_b, rng)
    raw = rng.standard_normal((3, noise.modes + 2, n_steps * step_stride))
    inc = raw[:, :noise.modes, ::step_stride].transpose(2, 0, 1)  # (n_steps, r, K) view
    if contiguous:
        inc = np.ascontiguousarray(inc)
    _assert_per_component_products(noise, inc)


def _one_row_tails_match_per_component_product():
    # numpy runs a one-row matmul as a dot, whose bits differ from the
    # matrix-vector product's, so a one-row tail joins the chunk before it
    for K, n in [(16, 2 * 2048 + 1), (40, 768 + 1), (16, 2049), (1, 32769), (7, 65)]:
        rng = np.random.default_rng(n)
        noise = _layout_model("AAB", n, K, 2, rng)
        _assert_per_component_products(noise, rng.standard_normal((3, 3, noise.modes)))


def _run_in_child(code: str, threads: int) -> str:
    """Run ``code`` after ``import test_noise as t`` in a child process on
    ``threads`` BLAS threads; return its stdout."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import srds

    # the child imports this file and the srds the tests run on
    paths = [str(Path(__file__).parent), str(Path(srds.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    done = subprocess.run([sys.executable, "-c", "import test_noise as t; " + code],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-4000:]
    return done.stdout


def test_chunked_modal_fields_match_per_component_product():
    _run_in_child("t._chunked_fields_match_per_component_product(); "
                  "t._one_row_tails_match_per_component_product()", threads=1)


# (K, rows) of mode tables read in several chunks, with one-row (joined to
# the chunk before) and 65-row tails
BLAS_THREAD_SHAPES = [(1, 65537), (3, 4097), (7, 16449), (15, 32769), (16, 4161),
                      (17, 8193), (31, 12353), (40, 20481)]


def _print_modal_field_digests():
    import hashlib

    for K, n in BLAS_THREAD_SHAPES:
        rng = np.random.default_rng(n)
        noise = _layout_model("AAB", n, K, K, rng)
        fields = noise.modal_fields(rng.standard_normal((3, 3, K)))
        print(K, n, hashlib.sha256(fields.tobytes()).hexdigest())


def test_modal_fields_do_not_depend_on_blas_threads():
    # OpenBLAS splits a large product among its threads; the chunked
    # products of NoiseModel.modal_fields keep their bits on one or two
    one, two = (_run_in_child("t._print_modal_field_digests()", threads)
                for threads in (1, 2))
    assert len(one.splitlines()) == len(BLAS_THREAD_SHAPES)
    assert one == two


@pytest.mark.parametrize("K, n", [(16, 2 * 2048 + 1), (40, 768 + 1), (16, 2049),
                                  (7, 65), (3, 2), (3, 1), (1, 32769)])
def test_chunks_start_at_64_row_multiples_and_none_is_one_row(K, n):
    chunks = _row_chunks(n, K)
    assert chunks[0].start == 0 and chunks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
    assert all(c.start % 64 == 0 for c in chunks)
    assert n == 1 or all(c.stop - c.start > 1 for c in chunks)
    assert _chunk_rows(K) % 64 == 0 and _chunk_rows(K) * K <= MODAL_CHUNK_FLOATS


# keys compared by identity: the first two are equal lists, yet distinct keys
_RUN_KEYS = ([0], [0], [1])


@settings(max_examples=300)
@given(picks=st.lists(st.integers(0, 2), max_size=16))
def test_adjacent_runs_split_only_at_key_changes(picks):
    items = [(i, _RUN_KEYS[p]) for i, p in enumerate(picks)]

    def key(item):
        return item[1]

    runs = adjacent_runs(items, key)
    # the runs partition the items in order, each led by its first item
    assert [x for _, rows in runs for x in items[rows]] == items
    assert all(rows.stop > rows.start and first is items[rows.start]
               for first, rows in runs)
    # every item of a run has the run's key object
    assert all(key(x) is key(first) for first, rows in runs for x in items[rows])
    # a run ends only where the key changes
    for (_, done), (_, rows) in zip(runs, runs[1:]):
        assert key(items[rows.start]) is not key(items[done.stop - 1])


def test_tables_are_shared_by_basis_identity_and_lambda_bits():
    grid = build_grid(1, [1.0], [16])
    basis = cosine_neumann_basis(grid, 4)
    twin = cosine_neumann_basis(grid, 4)  # equal values, another object
    lam = np.array([1.0, 0.5, 0.0, 0.25])
    signed = np.array([1.0, 0.5, -0.0, 0.25])  # equal, other bits
    gs = [named_g("sqrt-abs"), named_g("sqrt-pos"), named_g("sqrt-abs"),
          named_g("sqrt-abs")]
    noise = build_noise([basis, basis, twin, basis], [lam, lam.copy(), lam, signed],
                        gs, audit=False)
    c = noise.components
    assert c[1].mode_fields is c[0].mode_fields
    assert c[2].mode_fields is not c[0].mode_fields
    assert c[3].mode_fields is not c[0].mode_fields
    assert [comp.g for comp in c] == gs  # each keeps its own amplitude
    for comp in c:
        # C order: the bits of each field's matrix-vector product depend on it
        assert comp.mode_fields.flags.c_contiguous
        assert (comp.mode_fields.tobytes()
                == (comp.basis.table().T * comp.lambdas[:, None]).T.tobytes())


# --- the basis holds per-axis factors, and one table per distinct lambdas ---------


def _outer_loop_reference(grid, modes, lam):
    """(values, mode_fields) built as a per-mode table was: one np.outer row
    per 2D mode, then the lambda-scaled transpose in C order."""
    def rows(axis, kmax):
        L, x = grid.extents[axis], grid.axis_centers(axis)
        out = np.empty((kmax, len(x)))
        out[0] = 1.0 / math.sqrt(L)
        for k in range(1, kmax):
            out[k] = math.sqrt(2.0 / L) * np.cos(k * np.pi * x / L)
        return out

    if grid.dim == 1:
        values = rows(0, modes)
    else:
        n0, n1 = grid.n_cells
        pairs = sorted((k0 + k1, k0, k1) for k0 in range(min(modes, n0))
                       for k1 in range(min(modes, n1)))[:modes]
        rows0, rows1 = rows(0, min(modes, n0)), rows(1, min(modes, n1))
        values = np.empty((modes, grid.n_total))
        for i, (_, k0, k1) in enumerate(pairs):
            values[i] = np.outer(rows0[k0], rows1[k1]).ravel()
    return values, np.multiply(values.T, lam, order="C")


@pytest.mark.parametrize("n_cells,modes", [((32,), 8), ((128, 128), 16), ((32, 16), 40),
                                           ((7, 5), 10), ((64, 64), 1)])
def test_factored_basis_keeps_every_bit(n_cells, modes):
    grid = build_grid(len(n_cells), [1.0, 0.7][:len(n_cells)], list(n_cells))
    lams = [(np.arange(modes) + 1.0) ** -2.0, np.linspace(-1.0, 3.0, modes)]
    basis = cosine_neumann_basis(grid, modes)
    gs = [named_g("sqrt-pos"), named_g("sqrt-abs")]
    noise = build_noise([basis] * 2, lams, gs)
    parts = []
    for comp, lam, g in zip(noise.components, lams, gs):
        values, mode_fields = _outer_loop_reference(grid, modes, lam)
        assert comp.mode_fields.flags.c_contiguous
        assert comp.mode_fields.tobytes() == mode_fields.tobytes()
        parts.append(b"cosine-neumann" + grid.descriptor() + values.tobytes()
                     + lam.tobytes() + g.name.encode()
                     + repr((g.growth_a, g.growth_b)).encode())
    assert basis.table().T.tobytes() == values.tobytes()
    gram = values @ values.T * grid.cell_volume
    assert basis.orthonormality_defect() == float(np.max(np.abs(gram - np.eye(modes))))
    assert noise.descriptor() == b"|".join(parts)


def test_a_2d_noise_builds_one_mode_table():
    # 128 x 128 cells, K = 16: each (n_total, K) table is 2 MiB; the basis
    # holds per-axis factors, so building the noise allocates only the
    # lambda-scaled table its components share
    grid = build_grid(2, [1.0, 1.0], [128, 128])
    table_bytes = grid.n_total * 16 * 8
    tracemalloc.start()
    try:
        basis = cosine_neumann_basis(grid, 16)
        noise = build_noise([basis] * 2, [(np.arange(16) + 1.0) ** -2.0] * 2,
                            [named_g("sqrt-pos")] * 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table_bytes <= peak < 1.25 * table_bytes
    assert noise.components[1].mode_fields is noise.components[0].mode_fields

    def held(obj):
        if isinstance(obj, np.ndarray):
            return [obj]
        if isinstance(obj, tuple):
            return [a for item in obj for a in held(item)]
        return []

    def largest_held():
        return max(a.size for v in vars(basis).values() for a in held(v))

    assert not hasattr(basis, "values")
    assert largest_held() < grid.n_total
    assert basis.table().T.shape == (16, grid.n_total)  # a new table per call
    # the problem digest reads the basis descriptor: it keeps no table either
    noise.descriptor()
    assert largest_held() < grid.n_total


# --- the modulus follows the amplitude's Hölder exponent --------------------------


def _power_problem(alpha):
    """The FitzHugh-Nagumo preset with g(s) = |s|^alpha (Hölder constant 1 at
    exponent alpha) on both components, built through the API."""
    from srds import preset_fhn
    from srds.config import build_problem

    problem, initial, config = build_problem(preset_fhn(3))
    comp = problem.noise.components[0]
    g = named_g(f"power:{alpha}")
    assert (g.growth_a, g.growth_b, g.holder_c(10.0), g.exponent) == (1.0, 1.0, 1.0, alpha)
    noise = build_noise([comp.basis] * 2, [comp.lambdas] * 2, [g] * 2)
    return replace(problem, noise=noise), initial, config


@pytest.mark.parametrize("alpha, verdict, slope", [(0.25, "converges", 0.0016),
                                                   (0.5, "diverges", 0.86),
                                                   (0.75, "diverges", 510.0)])
def test_modulus_follows_the_holder_exponent(alpha, verdict, slope):
    # rho(s) = C s^(2 alpha) with C = c_1^2 sum (lambda ||e||)^2 = 1.164;
    # int_0 ds/rho diverges exactly when 2 alpha >= 1.  The six-decade table
    # has no sharp flip (alpha = 0.4 still reads as diverging), so `verify
    # noise` takes its verdict from the modulus's closed form
    problem, _, _ = _power_problem(alpha)
    rho = problem.noise.components[0].rho(1.0)
    assert rho.constant == pytest.approx(1.1636, abs=1e-4)
    assert rho(np.array([0.25]))[0] == pytest.approx(rho.constant * 0.25 ** (2 * alpha))
    table = osgood_check(rho, 10.0 ** -np.arange(1, 7))
    assert table["verdict"] == verdict
    assert table["tail_slope"] == pytest.approx(slope, rel=0.05)


def test_half_exponent_keeps_the_linear_modulus():
    # the named amplitudes are all 1/2-Hölder: presets keep the linear
    # modulus C s, bit for bit, as power 1
    s = np.random.default_rng(5).uniform(0.0, 1.0, 1000)
    s = np.concatenate([s, [0.0, -0.0, 5e-324, 1.0]])
    moduli = [make_model(g_name=name).components[0].rho(1.0)
              for name in ("sqrt-abs", "sqrt-pos", "lipschitz:2")]
    moduli.append(_power_problem(0.5)[0].noise.components[0].rho(1.0))
    for rho in moduli:
        assert rho.power == 1.0 and rho.osgood_diverges
        assert rho(s).tobytes() == (rho.constant * s).tobytes()
        assert rho(np.asarray(0.25)).tobytes() == (rho.constant * np.asarray(0.25)).tobytes()


def test_noise_suite_osgood_check_trips_below_one_half():
    from srds.verify import suite_noise

    # rho = C s^(2 alpha) is Osgood-divergent exactly from alpha = 1/2 on;
    # the numeric table alone reads 0.4 to 0.49 as diverging
    checks = {}
    for alpha in (0.25, 0.4, 0.45, 0.49, 0.5, 0.75):
        problem, initial, config = _power_problem(alpha)
        report = suite_noise(problem, config, initial, 3)
        checks[alpha] = {c["name"]: c["passed"] for c in report.checks}
    assert {alpha: c["comp0-osgood-diverges"] for alpha, c in checks.items()} == {
        0.25: False, 0.4: False, 0.45: False, 0.49: False, 0.5: True, 0.75: True}


def test_mollifier_suite_derives_c_only_from_a_linear_modulus():
    from srds.verify import suite_mollifier

    problem, initial, config = _power_problem(0.25)
    with pytest.raises(ValueError, match="component 0: the mollifier constant C is "
                                         "derived only from a linear modulus"):
        suite_mollifier(problem, config, initial, 3)
    report = suite_mollifier(problem, config, initial, 3, C=1.5)  # a stated C runs
    assert report.checks
