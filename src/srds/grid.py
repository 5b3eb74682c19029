"""Uniform cell-centered grids on axis-aligned boxes in one or two dimensions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DomainGrid:
    """Cell-centered tensor grid on the box [0, L_0] x ... x [0, L_{dim-1}].

    Cells are indexed in C order (axis 0 slowest).  ``centers`` has shape
    (n_total, dim), one row per cell.
    """

    dim: int
    extents: tuple[float, ...]
    n_cells: tuple[int, ...]
    spacing: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"unsupported dimension {self.dim} (expected 1 or 2)")
        if len(self.extents) != self.dim or len(self.n_cells) != self.dim:
            raise ValueError("extents/n_cells length must equal dim")
        for L in self.extents:
            if not 0 < L < math.inf:
                raise ValueError(f"extent {L} must be positive and finite")
        for n in self.n_cells:
            if n < 2:
                raise ValueError(f"cell count {n} < 2")
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
    """Build a uniform cell-centered grid; spacing = extent/count per axis."""
    extents = tuple(float(L) for L in np.atleast_1d(extents))
    n_cells = tuple(int(n) for n in np.atleast_1d(n_cells))
    return DomainGrid(dim=dim, extents=extents, n_cells=n_cells)
