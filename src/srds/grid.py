"""Uniform cell-centered grids on axis-aligned boxes in one or two dimensions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _check_integer(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an int or a numpy
    integer: int() would read 32.7 as 32 and True as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DomainGrid:
    """Cell-centered tensor grid on the box [0, L_0] x ... x [0, L_{dim-1}].

    Cells are indexed in C order (axis 0 slowest).  ``centers`` has shape
    (n_total, dim), one row per cell.  ``dim`` and each ``n_cells`` entry must
    be an integer (numpy integers too, not a bool).  ``dim`` is stored as an
    int, ``extents`` and ``n_cells`` as tuples of floats and ints, so equal
    grids hash, compare and describe alike however they were given.
    """

    dim: int
    extents: tuple[float, ...]
    n_cells: tuple[int, ...]
    spacing: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        _check_integer("dim", self.dim)
        if self.dim not in (1, 2):
            raise ValueError(f"unsupported dimension {self.dim} (expected 1 or 2)")
        if len(self.extents) != self.dim or len(self.n_cells) != self.dim:
            raise ValueError("extents/n_cells length must equal dim")
        for L in self.extents:
            if not 0 < L < math.inf:
                raise ValueError(f"extent {L} must be positive and finite")
        for i, n in enumerate(self.n_cells):
            _check_integer(f"n_cells[{i}]", n)
            if n < 2:
                raise ValueError(f"cell count {n} < 2")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "extents", tuple(float(L) for L in self.extents))
        object.__setattr__(self, "n_cells", tuple(int(n) for n in self.n_cells))
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
