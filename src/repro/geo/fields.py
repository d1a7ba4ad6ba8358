"""Spatially correlated random fields on city grids.

The socioeconomic structure of real cities is spatially autocorrelated:
wealthy and poor neighborhoods come in contiguous clusters, not salt-and-
pepper noise.  The paper's income analysis (Section 5.5) and spatial
clustering results (Table 3) both depend on this structure, so our synthetic
ACS substrate generates block-group attributes from smoothed Gaussian
fields rather than i.i.d. draws.

The generator is a simple separable box-smoother applied repeatedly to white
noise on the grid, then re-standardized.  Three smoothing passes with radius
2 give empirical Moran's I around 0.6-0.8 on mid-size grids, comfortably in
the range needed to drive the paper's observations.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .grid import CityGrid

__all__ = ["smoothed_gaussian_field", "field_to_grid_values", "correlated_uniform_field"]


def _box_smooth_1d(array: np.ndarray, radius: int, axis: int) -> np.ndarray:
    """Moving-average smooth along one axis with edge clamping."""
    if radius < 1:
        return array
    kernel = np.ones(2 * radius + 1, dtype=float)
    kernel /= kernel.sum()
    padded = np.apply_along_axis(
        lambda row: np.convolve(
            np.pad(row, radius, mode="edge"), kernel, mode="valid"
        ),
        axis,
        array,
    )
    return padded


def smoothed_gaussian_field(
    rows: int,
    cols: int,
    rng: np.random.Generator,
    smoothing_radius: int = 2,
    passes: int = 3,
) -> np.ndarray:
    """Return a standardized (mean 0, std 1) correlated field of shape (rows, cols).

    Args:
        rows / cols: Grid shape.
        rng: Source of randomness.
        smoothing_radius: Box-filter radius in cells; larger values produce
            longer-range correlation.
        passes: Number of smoothing passes; three passes approximate a
            Gaussian kernel (central limit of box filters).
    """
    if rows < 1 or cols < 1:
        raise ConfigurationError("field shape must be at least 1x1")
    field = rng.standard_normal((rows, cols))
    for _ in range(max(0, passes)):
        field = _box_smooth_1d(field, smoothing_radius, axis=0)
        field = _box_smooth_1d(field, smoothing_radius, axis=1)
    std = float(field.std())
    if std > 0:
        field = (field - field.mean()) / std
    return field


def correlated_uniform_field(
    rows: int,
    cols: int,
    rng: np.random.Generator,
    smoothing_radius: int = 2,
    passes: int = 3,
) -> np.ndarray:
    """Correlated field mapped through the normal CDF to Uniform(0, 1).

    Useful for thresholding: selecting cells where the field exceeds ``1-p``
    yields a spatially clustered subset containing roughly a ``p`` fraction
    of cells.
    """
    from scipy.special import ndtr  # norm.cdf without importing scipy.stats

    gaussian = smoothed_gaussian_field(rows, cols, rng, smoothing_radius, passes)
    return ndtr(gaussian)


def field_to_grid_values(field: np.ndarray, grid: CityGrid) -> np.ndarray:
    """Flatten a (rows, cols) field into per-block-group values.

    The last grid row may be partial (the grid covers ``n`` cells of a
    ``rows x cols`` rectangle), so we index the field by each block group's
    grid coordinates rather than reshaping.
    """
    if field.shape != (grid.rows, grid.cols):
        raise ConfigurationError(
            f"field shape {field.shape} does not match grid "
            f"({grid.rows}, {grid.cols})"
        )
    values = np.empty(len(grid), dtype=float)
    for bg in grid:
        values[bg.index] = field[bg.row, bg.col]
    return values
