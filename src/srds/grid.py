"""Uniform cell-centered grids on axis-aligned boxes in one or two dimensions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .readers import read_integer, read_list, read_number


@dataclass(frozen=True)
class DomainGrid:
    """Cell-centered tensor grid on the box [0, L_0] x ... x [0, L_{dim-1}].

    Cells are indexed in C order (axis 0 slowest).  ``centers`` has shape
    (n_total, dim), one row per cell.  ``dim`` and each ``n_cells`` entry must
    be an integer and each extent a positive number (see ``srds.readers``).
    ``dim`` is stored as an int, ``extents`` and ``n_cells`` as tuples of
    floats and ints, so equal grids hash, compare and describe alike however
    they were given.
    """

    dim: int
    extents: tuple[float, ...]
    n_cells: tuple[int, ...]
    spacing: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        dim = read_integer("dim", self.dim)
        if dim not in (1, 2):
            raise ValueError(f"unsupported dimension {dim} (expected 1 or 2)")
        if len(self.extents) != dim or len(self.n_cells) != dim:
            raise ValueError("extents/n_cells length must equal dim")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "extents", tuple(
            read_list("extents", tuple(self.extents), read_number, above=0)))
        object.__setattr__(self, "n_cells", tuple(
            read_list("n_cells", tuple(self.n_cells), read_integer, least=2)))
        object.__setattr__(
            self, "spacing", tuple(L / n for L, n in zip(self.extents, self.n_cells))
        )

    @property
    def n_total(self) -> int:
        return math.prod(self.n_cells)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.n_cells[axis]) + 0.5) * h

    @property
    def centers(self) -> np.ndarray:
        axes = [self.axis_centers(i) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def descriptor(self) -> bytes:
        return repr((self.dim, self.extents, self.n_cells)).encode()


def build_grid(dim: int, extents, n_cells) -> DomainGrid:
    """Build a uniform cell-centered grid; spacing = extent/count per axis.
    A scalar extent or count is a one-axis sequence."""
    def axes(x) -> tuple:
        return tuple(x) if np.ndim(x) else (x,)

    return DomainGrid(dim=dim, extents=axes(extents), n_cells=axes(n_cells))
