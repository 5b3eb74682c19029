import numpy as np
import pytest

from srds import DomainGrid, build_grid


def test_1d_uniform_partition():
    g = build_grid(1, [1.0], [4])
    assert g.spacing == (0.25,)
    assert np.allclose(g.centers[:, 0], [0.125, 0.375, 0.625, 0.875])


def test_2d_counts_and_spacings():
    g = build_grid(2, [1.0, 2.0], [2, 4])
    assert g.n_total == 8
    assert g.spacing == (0.5, 0.5)


def test_unsupported_dimension():
    with pytest.raises(ValueError, match="unsupported dimension"):
        build_grid(3, [1.0, 1.0, 1.0], [4, 4, 4])


def test_nonpositive_extent():
    with pytest.raises(ValueError, match="extent"):
        build_grid(1, [0.0], [4])


def test_count_below_two():
    with pytest.raises(ValueError, match=r"n_cells\[0\] must be >= 2, got 1"):
        build_grid(1, [1.0], [1])


def test_measure_equals_sum_of_cell_volumes():
    g = build_grid(2, [1.5, 2.0], [3, 5])
    assert g.volume == pytest.approx(g.cell_volume * g.n_total, rel=1e-14)


def test_centers_tile_the_domain():
    g = build_grid(1, [2.0], [8])
    edges = np.concatenate([g.centers[:, 0] - g.spacing[0] / 2,
                            [g.centers[-1, 0] + g.spacing[0] / 2]])
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(2.0, rel=1e-14)
    assert np.allclose(np.diff(edges), g.spacing[0])


def test_equal_grids_hash_compare_and_describe_alike():
    # lists, numpy integers and int extents are stored as the same tuples of
    # ints and floats, so the problem digest does not depend on how a grid
    # was given
    ref = build_grid(1, [1.0], [32])
    for g in (DomainGrid(1, [1.0], [32]), build_grid(np.int64(1), 1, np.int32(32)),
              build_grid(1, np.array([1.0]), np.array([32]))):
        assert g == ref and hash(g) == hash(ref)
        assert g.descriptor() == ref.descriptor() == b"(1, (1.0,), (32,))"
        assert type(g.dim) is int and type(g.n_cells[0]) is int
