import numpy as np
import pytest
from scipy.stats import norm

from srds import (gaussian_entry, load_path, normal_inverse, sample_path,
                  save_path, uniform_stream)


def test_normal_inverse_accuracy():
    u = np.linspace(1e-10, 1 - 1e-10, 100_001)
    err = np.max(np.abs(normal_inverse(u) - norm.ppf(u)))
    assert err < 1e-9


def test_normal_inverse_rejects_boundary():
    with pytest.raises(ValueError):
        normal_inverse(np.array([0.0]))
    with pytest.raises(ValueError):
        normal_inverse(np.array([1.0]))


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


def test_coarsening_consistency():
    path = sample_path(5, 2, 3, 64, 1e-3)
    c1 = path.coarse(1)
    manual = path.increments[:, :, 0::2] + path.increments[:, :, 1::2]
    assert np.array_equal(c1, manual)
    c3 = path.coarse(3)
    assert c3.shape == (2, 3, 8)
    assert np.allclose(c3.sum(axis=2), path.increments.sum(axis=2), atol=1e-12)


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
    path = sample_path(123456789, 2, 5, 40, 0.0625, path_index=0)
    file = tmp_path / "path.bin"
    save_path(path, file)
    loaded = load_path(file)
    assert loaded.master_seed == path.master_seed
    assert loaded.components == 2 and loaded.modes == 5
    assert loaded.n_fine == 40 and loaded.dt_fine == 0.0625
    assert np.array_equal(loaded.increments, path.increments)


def test_binary_header_layout(tmp_path):
    path = sample_path(1, 1, 1, 2, 0.5)
    file = tmp_path / "p.bin"
    save_path(path, file)
    raw = file.read_bytes()
    # header: seed, r, K, n_fine as <u8 then dt_fine as <f8
    assert np.frombuffer(raw[:32], dtype="<u8").tolist() == [1, 1, 1, 2]
    assert np.frombuffer(raw[32:40], dtype="<f8")[0] == 0.5
    assert len(raw) == 40 + 2 * 8


@pytest.mark.parametrize("seed", [-1, 1 << 64, 2.0, "7", True, None])
def test_master_seed_outside_key_range_rejected(seed):
    with pytest.raises(ValueError, match="master_seed"):
        sample_path(seed, 1, 1, 4, 1e-2)
    with pytest.raises(ValueError, match="master_seed"):
        uniform_stream(seed, 0, 0, 0, 4)


def test_largest_master_seed_accepted():
    top = sample_path((1 << 64) - 1, 1, 2, 4, 1e-2)
    assert top.master_seed == (1 << 64) - 1
    assert not np.array_equal(top.increments, sample_path(0, 1, 2, 4, 1e-2).increments)
