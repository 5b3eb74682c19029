import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from srds import (gaussian_entry, load_path, normal_inverse, sample_path,
                  save_path, uniform_stream)
import srds.rng
from srds.rng import MAX_MODE, MAX_PATH, _A, _B, _C, _D, _E, _F, _poly


def test_normal_inverse_accuracy():
    u = np.linspace(1e-10, 1 - 1e-10, 100_001)
    err = np.max(np.abs(normal_inverse(u) - norm.ppf(u)))
    assert err < 1e-9


def test_normal_inverse_rejects_boundary():
    with pytest.raises(ValueError):
        normal_inverse(np.array([0.0]))
    with pytest.raises(ValueError):
        normal_inverse(np.array([1.0]))
    with pytest.raises(ValueError):
        normal_inverse(np.array([0.5, np.nan]))


def test_entry_determinism():
    a = gaussian_entry(12345, 0, 1, 3, 17, 1e-3)
    b = gaussian_entry(12345, 0, 1, 3, 17, 1e-3)
    assert a == b


def test_entry_matches_sampled_array():
    path = sample_path(99, 2, 4, 32, 1e-2, path_index=5)
    for (l, k, i) in [(0, 0, 0), (1, 3, 31), (0, 2, 7)]:
        assert gaussian_entry(99, 5, l, k, i, 1e-2) == path.increments[l, k, i]


def test_prefix_stability():
    long = uniform_stream(7, 0, 0, 0, 1000)
    short = uniform_stream(7, 0, 0, 0, 100)
    assert np.array_equal(long[:100], short)


def test_streams_differ_across_keys():
    a = uniform_stream(7, 0, 0, 0, 64)
    assert not np.array_equal(a, uniform_stream(7, 0, 0, 1, 64))
    assert not np.array_equal(a, uniform_stream(7, 0, 1, 0, 64))
    assert not np.array_equal(a, uniform_stream(7, 1, 0, 0, 64))
    assert not np.array_equal(a, uniform_stream(8, 0, 0, 0, 64))


def test_sample_moments():
    dt = 1e-3
    n = 1_000_000
    path = sample_path(2024, 1, 1, n, dt)
    x = path.increments[0, 0]
    assert abs(x.mean()) <= 4.0 * np.sqrt(dt / n)
    assert abs(x.var() - dt) <= 0.01 * dt


@settings(max_examples=60)
@given(r=st.integers(1, 3), K=st.integers(1, 4), n_coarse=st.integers(1, 24),
       j=st.integers(0, 5), seed=st.integers(0, 2**16))
def test_coarsening_consistency(r, K, n_coarse, j, seed):
    n_fine = n_coarse << j
    path = sample_path(seed, r, K, n_fine, 1e-3)
    fine = path.increments
    c = path.coarse(j)
    assert c.shape == (r, K, n_fine >> j)
    assert np.array_equal(path.coarse(0), fine)
    for l, k, i in np.ndindex(c.shape):
        block = fine[l, k, i << j:(i + 1) << j]
        assert abs(c[l, k, i] - math.fsum(block)) <= 1e-12
    assert np.allclose(c.sum(axis=2), fine.sum(axis=2), rtol=0, atol=1e-12)
    # 2^(j + t + 1) does not divide n_fine when 2^t is n_coarse's largest
    # power-of-two factor
    t = (n_coarse & -n_coarse).bit_length() - 1
    with pytest.raises(ValueError, match="not divisible"):
        path.coarse(j + t + 1)


def test_coarsening_requires_divisibility():
    path = sample_path(5, 1, 1, 12, 1e-3)
    with pytest.raises(ValueError):
        path.coarse(3)


def test_mode_stream_independence():
    n = 100_000
    path = sample_path(77, 2, 2, n, 1.0)
    streams = path.increments.reshape(4, n)
    corr = np.corrcoef(streams)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) <= 0.02


def test_binary_roundtrip(tmp_path):
    path = sample_path(123456789, 2, 5, 40, 0.0625, path_index=(1 << 32) - 1)
    file = tmp_path / "path.bin"
    save_path(path, file)
    loaded = load_path(file)
    assert loaded.master_seed == path.master_seed
    assert loaded.path_index == (1 << 32) - 1
    assert loaded.components == 2 and loaded.modes == 5
    assert loaded.n_fine == 40 and loaded.dt_fine == 0.0625
    assert np.array_equal(loaded.increments, path.increments)
    assert not loaded.increments.flags.writeable


def test_binary_header_layout(tmp_path):
    path = sample_path(1, 1, 1, 2, 0.5, path_index=9)
    file = tmp_path / "p.bin"
    save_path(path, file)
    raw = file.read_bytes()
    # header: magic, then version, seed, path_index, r, K, n_fine as <u8,
    # then dt_fine as <f8
    assert raw[:8] == b"SRDSPATH"
    assert np.frombuffer(raw[8:56], dtype="<u8").tolist() == [1, 1, 9, 1, 1, 2]
    assert np.frombuffer(raw[56:64], dtype="<f8")[0] == 0.5
    assert len(raw) == 64 + 2 * 8
    assert raw[64:] == path.increments.astype("<f8").tobytes()


def _corrupt(raw, cut=None, at=None, value=None):
    if cut is not None:
        raw = raw[:cut]
    if at is not None:
        raw = raw[:at] + value + raw[at + len(value):]
    return raw


@pytest.mark.parametrize("edit,message", [
    ({"cut": -1}, "corrupt srds path file"),  # one increment byte short
    ({"cut": 63}, "not an srds path file"),  # short of a header
    ({"cut": 0}, "not an srds path file"),
    ({"at": 0, "value": b"SRDSPAT_"}, "not an srds path file"),
    ({"at": 8, "value": (2).to_bytes(8, "little")}, "version 2, expected 1"),
    ({"at": 48, "value": (3).to_bytes(8, "little")}, "corrupt srds path file"),
    ({"at": 24, "value": (1 << 32).to_bytes(8, "little")}, "corrupt srds path file"),
    ({"at": 56, "value": np.float64(-0.5).tobytes()}, "corrupt srds path file"),
])
def test_load_path_rejects_short_or_foreign_files(tmp_path, edit, message):
    file = tmp_path / "p.bin"
    save_path(sample_path(3, 2, 2, 4, 0.25), file)
    file.write_bytes(_corrupt(file.read_bytes(), **edit))
    with pytest.raises(ValueError, match=message):
        load_path(file)


@pytest.mark.parametrize("dt_fine", [0.0, -0.0, -1.0])
def test_every_reader_of_dt_fine_refuses_a_step_outside_0_inf(tmp_path, dt_fine):
    # the non-finite steps are rows of test_solver's non-finite table
    with pytest.raises(ValueError, match=f"dt_fine must be > 0, got {dt_fine!r}"):
        sample_path(0, 2, 8, 10, dt_fine)
    with pytest.raises(ValueError, match=f"dt_fine must be > 0, got {dt_fine!r}"):
        gaussian_entry(0, 0, 0, 0, 5, dt_fine)
    file = tmp_path / "p.bin"
    save_path(sample_path(3, 2, 2, 4, 0.25), file)
    file.write_bytes(_corrupt(file.read_bytes(), at=56, value=np.float64(dt_fine).tobytes()))
    with pytest.raises(ValueError, match="corrupt srds path file"):
        load_path(file)


def test_load_path_rejects_a_foreign_five_byte_file(tmp_path):
    file = tmp_path / "notes.txt"
    file.write_bytes(b"hello")
    with pytest.raises(ValueError, match=r"not an srds path file \(5 bytes"):
        load_path(file)


@pytest.mark.parametrize("seed", [-1, 1 << 64, 2.0, "7", True, None])
def test_master_seed_outside_key_range_rejected(seed):
    with pytest.raises(ValueError, match="master_seed"):
        sample_path(seed, 1, 1, 4, 1e-2)
    with pytest.raises(ValueError, match="master_seed"):
        uniform_stream(seed, 0, 0, 0, 4)


@pytest.mark.parametrize("args,message", [
    ((-5, 1, 8, 10, 1e-3), "master_seed must be >= 0, got -5"),
    ((1 << 64, 1, 3, 10, 1e-3),
     "master_seed must be < 18446744073709551616, got 18446744073709551616"),
    # counts of zero, named as given, not as the highest stream index -1
    ((1, 0, 3, 10, 1e-3), "components must be >= 1, got 0"),
    ((1, 2, 0, 10, 1e-3), "modes must be >= 1, got 0"),
    ((1, MAX_MODE + 1, 1, 4, 1e-3), "component must be < 65536, got 65536"),
    ((1, 1, MAX_MODE + 1, 4, 1e-3), "mode must be < 65536, got 65536"),
    ((1, 2, 3, 4, 1e-3, -1), "path_index must be >= 0, got -1"),
    ((1, 2, 3, 4, 1e-3, MAX_PATH), "path_index must be < 4294967296, got 4294967296"),
])
def test_sample_path_checks_its_key_before_any_draw(monkeypatch, args, message):
    # also when it would draw no stream (zero components or modes): a path
    # save_path cannot write is never returned
    def no_draw(*a, **k):
        raise AssertionError("a stream was drawn before the key was checked")

    monkeypatch.setattr(srds.rng.np.random, "Philox", no_draw)
    with pytest.raises(ValueError, match=message):
        sample_path(*args)


def test_largest_master_seed_accepted():
    top = sample_path((1 << 64) - 1, 1, 2, 4, 1e-2)
    assert top.master_seed == (1 << 64) - 1
    assert not np.array_equal(top.increments, sample_path(0, 1, 2, 4, 1e-2).increments)


# --- bits of the sampler ----------------------------------------------------------
# The reference draws each (component, mode) stream from its own fresh
# generator and evaluates AS241 branch by branch, once per stream; the
# sampler must reproduce it bit for bit.


def _reference_normal_inverse(p):
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))
    q = p - 0.5
    out = np.empty_like(p)
    central = np.abs(q) <= 0.425
    r = 0.180625 - q[central] ** 2
    out[central] = q[central] * _poly(_A, r) / _poly(_B, r)
    tail = ~central
    qt = q[tail]
    r = np.sqrt(-np.log(np.where(qt < 0, p[tail], 1.0 - p[tail])))
    near = r <= 5.0
    x = np.empty_like(r)
    x[near] = _poly(_C, r[near] - 1.6) / _poly(_D, r[near] - 1.6)
    x[~near] = _poly(_E, r[~near] - 5.0) / _poly(_F, r[~near] - 5.0)
    out[tail] = np.where(qt < 0, -x, x)
    return out


def _generator_uniforms(master_seed, path_index, component, mode, n):
    """The stream's uniforms through numpy's ``Generator.integers`` on a fresh
    Philox, a derivation independent of the sampler's raw words."""
    key = np.array([master_seed, (path_index << 32) | (component << 16) | mode],
                   dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    ints = gen.integers(0, 1 << 52, dtype=np.int64, size=n)
    return (ints.astype(np.float64) + 0.5) * 2.0**-52


def _reference_increments(master_seed, components, modes, n_fine, dt_fine, path_index):
    inc = np.empty((components, modes, n_fine))
    for l in range(components):
        for k in range(modes):
            u = _generator_uniforms(master_seed, path_index, l, k, n_fine)
            inc[l, k] = _reference_normal_inverse(u) * np.sqrt(dt_fine)
    return inc


def test_normal_inverse_bits_match_branchwise_reference():
    # |q| = 0.425 and r = 5 with their neighbours, the extreme 52-bit uniforms
    branches = np.array([0.075, 0.925, np.exp(-25.0), 1.0 - np.exp(-25.0)])
    draws = np.concatenate([uniform_stream(3, 0, 0, 0, 200_000),
                            np.random.default_rng(3).random(200_000) + 2.0**-60,
                            branches, np.nextafter(branches, 0.0),
                            np.nextafter(branches, 1.0),
                            [0.5 * 2.0**-52, (2.0**52 - 0.5) * 2.0**-52, 0.5]])
    assert normal_inverse(draws).tobytes() == _reference_normal_inverse(draws).tobytes()
    for p in (0.3, 0.075, np.exp(-25.0)):
        z = normal_inverse(p)
        assert np.ndim(z) == 0 and z == _reference_normal_inverse(p)[0]


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 8, 32), (2, 16, 250), (3, 5, 1),
                                   (1, 2, 2000)])
def test_sample_path_bits_match_per_stream_reference(shape):
    r, K, n_fine = shape
    path = sample_path(11, r, K, n_fine, 1e-3, path_index=4)
    assert (path.increments.tobytes()
            == _reference_increments(11, r, K, n_fine, 1e-3, 4).tobytes())
    assert not path.increments.flags.writeable


@settings(max_examples=60)
@given(seed=st.integers(0, (1 << 64) - 1), path_index=st.integers(0, (1 << 32) - 1),
       r=st.integers(1, 3), K=st.integers(1, 6), n_fine=st.integers(1, 300),
       data=st.data())
def test_sample_path_matches_per_stream_build(seed, path_index, r, K, n_fine, data):
    # one re-keyed generator per path draws what a fresh generator per
    # (component, mode) stream draws, and so does uniform_stream
    path = sample_path(seed, r, K, n_fine, 1e-3, path_index=path_index)
    assert (path.increments.tobytes()
            == _reference_increments(seed, r, K, n_fine, 1e-3, path_index).tobytes())
    l = data.draw(st.integers(0, r - 1), label="component")
    k = data.draw(st.integers(0, K - 1), label="mode")
    i = data.draw(st.integers(0, n_fine - 1), label="step")
    assert (uniform_stream(seed, path_index, l, k, n_fine).tobytes()
            == _generator_uniforms(seed, path_index, l, k, n_fine).tobytes())
    assert gaussian_entry(seed, path_index, l, k, i, 1e-3) == path.increments[l, k, i]
