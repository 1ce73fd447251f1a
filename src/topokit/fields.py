"""Density fields on regular grids.

A density field is stored as a flat float64 vector in row-major order:
element (ix, iy) lives at index ``iy * nx + ix``, so reshaping to
``(ny, nx)`` yields an image whose first row is the top of the domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DensityField:
    """Physical densities in [0, 1] on an nx-by-ny element grid."""

    values: np.ndarray
    nx: int
    ny: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "values", values)
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one element per axis")
        if values.size != self.nx * self.ny:
            raise ValueError(
                f"field has {values.size} entries, expected {self.nx * self.ny}"
            )
        if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
            raise ValueError("density values must lie in [0, 1]")

    @classmethod
    def from_image(cls, image: np.ndarray) -> "DensityField":
        image = np.asarray(image, dtype=float)
        ny, nx = image.shape
        return cls(image.ravel(), nx, ny)

