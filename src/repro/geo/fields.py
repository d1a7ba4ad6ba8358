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

The uniform field maps the Gaussian one through :func:`ndtr`, a port of
cephes' normal CDF that equals ``scipy.special.ndtr`` bit for bit, so that
building a world imports no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from .grid import CityGrid

__all__ = [
    "smoothed_gaussian_field",
    "field_to_grid_values",
    "correlated_uniform_field",
    "ndtr",
]


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
    gaussian = smoothed_gaussian_field(rows, cols, rng, smoothing_radius, passes)
    uniform = [ndtr(value) for value in gaussian.ravel().tolist()]
    return np.array(uniform, dtype=float).reshape(gaussian.shape)


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


# Cephes' ndtr.c (Stephen L. Moshier), the code scipy.special.ndtr runs
# for real arguments.  The coefficients, branch points and evaluation
# order are cephes' own, so every result equals scipy's bit for bit.
# erf and erfc keep only the branches ndtr reaches.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2

_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)


def _polevl(x: float, coefs: tuple[float, ...]) -> float:
    """Horner evaluation, leading coefficient first (cephes ``polevl``)."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coefs: tuple[float, ...]) -> float:
    """Horner evaluation with an implied leading 1.0 (cephes ``p1evl``)."""
    ans = x + coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes ``erf`` for |x| < 1, the only arguments it gets here."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(x: float) -> float:
    """Cephes ``erfc`` for x >= √½, the only arguments it gets here."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0  # underflow
    z = math.exp(z)
    if x < 8.0:
        return (z * _polevl(x, _P)) / _p1evl(x, _Q)
    return (z * _polevl(x, _R)) / _p1evl(x, _S)


def ndtr(a: float) -> float:
    """Standard normal CDF of one float, equal bit for bit to
    ``scipy.special.ndtr(a)``, without importing scipy."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y
