"""Transformations between raw design variables and physical densities.

Covers the cone density filter, exact volume projection through a shifted
sigmoid, and black-and-white thresholding. Every differentiable operation
comes with its exact vector-Jacobian product so gradients can be chained
through the whole pipeline.

The cone filter's weights depend only on the offset between two elements,
so the filter is a correlation of the field with one (2r+1)-square kernel
divided by per-element row sums (Andreassen et al. 2011, top88). It is
computed here with numpy slices instead of an n-by-n sparse matrix, whose
index-loop build took 0.9-1.5 s at 320x160. ``scipy.ndimage.correlate``
would do the same work, but importing it costs 60-70 ms, which every run
would pay at start-up; the slice loop needs nothing beyond numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

#: Bisection interval tolerance on the sigmoid shift.
SHIFT_TOL = 1e-12


@dataclass(frozen=True)
class VolumeBudget:
    """Volume fraction target V0 with uniform element volumes."""

    target: float

    def __post_init__(self):
        if not 0.0 < self.target <= 1.0:
            raise ValueError("volume target must lie in (0, 1]")


@dataclass(frozen=True)
class FilterKernel:
    """A correlation kernel as taps on images of one width.

    ``taps`` lists every positive kernel entry in row-major order (dy, then
    dx, ascending) as the flat shift ``dy * width + dx`` of its term in the
    zero-padded, flattened image, and its weight. ``reach`` is the padding
    on each side of the image; ``width`` is the padded row length.
    """

    reach: int
    width: int
    taps: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class FilterOperator:
    """Row-normalized cone filter on an nx-by-ny grid.

    ``kernel`` holds the cone weights ``max(0, rmin - hypot(dy, dx))`` for
    offsets in [-reach, reach] on both axes, as taps; ``row_sums`` is the
    kernel correlated with a field of ones, as an (ny, nx) image. Filtering
    divides the correlation by the row sums, so a uniform field passes
    through unchanged.
    """

    kernel: FilterKernel
    row_sums: np.ndarray

    @property
    def size(self) -> int:
        return self.row_sums.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.size:
            raise ValueError(f"field has {x.size} entries, expected {self.size}")
        return (_correlate(self.kernel, x.reshape(self.row_sums.shape)) / self.row_sums).ravel()

    def vjp(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float).ravel()
        if w.size != self.size:
            raise ValueError(f"vector has {w.size} entries, expected {self.size}")
        # H = D^-1 W with W symmetric, so H^T w = W (w / row_sums).
        return _correlate(self.kernel, w.reshape(self.row_sums.shape) / self.row_sums).ravel()


def _correlate(kernel: FilterKernel, image: np.ndarray) -> np.ndarray:
    """Zero-padded correlation of an (ny, nx) image with the kernel's taps.

    Terms are added one tap at a time, offsets in row-major order (dy, then
    dx, ascending): the order in which a CSR matrix of the same weights sums
    each row, so the result matches its matrix-vector product bit for bit.
    Each term is one contiguous slice of the flattened padded image; the
    output is computed at the padded width and its padding columns are
    dropped.
    """
    reach, width = kernel.reach, kernel.width
    ny, nx = image.shape
    # One spare row of zeros keeps the largest shift's slice in bounds.
    padded = np.zeros((ny + 2 * reach + 1, width))
    padded[reach : reach + ny, reach : reach + nx] = image
    flat = padded.ravel()
    m = ny * width
    out = np.zeros(m)
    term = np.empty(m)
    for shift, weight in kernel.taps:
        out += np.multiply(flat[shift : shift + m], weight, out=term)
    return out.reshape(ny, width)[:, :nx]


def build_filter(nx: int, ny: int, rmin: float) -> FilterOperator:
    """Cone filter: weight of element j on i is max(0, rmin - dist(centers))."""
    if rmin <= 0.0:
        raise ValueError("filter radius must be positive")
    reach = int(np.ceil(rmin)) - 1
    offsets = np.arange(-reach, reach + 1)
    weights = np.maximum(0.0, rmin - np.hypot(offsets[:, None], offsets[None, :]))
    width = nx + 2 * reach
    taps = tuple(
        (int(dy * width + dx), float(weights[dy, dx])) for dy, dx in zip(*np.nonzero(weights > 0.0))
    )
    kernel = FilterKernel(reach=reach, width=width, taps=taps)
    row_sums = np.ascontiguousarray(_correlate(kernel, np.ones((ny, nx))))
    return FilterOperator(kernel=kernel, row_sums=row_sums)


def check_projection_target(target: float) -> None:
    """The exact-volume projection needs a target strictly inside (0, 1).

    Its densities are sigmoids, which average to 1 only at an infinite
    shift, so it is stricter than :class:`VolumeBudget`, which admits 1.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("volume target must lie strictly in (0, 1) for projection")


def find_volume_shift(raw: np.ndarray, target: float) -> float:
    """Bisection for b such that mean(sigmoid(raw + b)) equals the target.

    The mean is monotone increasing in b, so the bracket below always
    contains the root for finite input and target in (0, 1). The interval is
    shrunk to SHIFT_TOL, which bounds the volume error by 0.25 * SHIFT_TOL.
    """
    raw = np.asarray(raw, dtype=float).ravel()
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw field must be finite")
    check_projection_target(target)
    lo = -float(raw.max()) - 40.0
    hi = -float(raw.min()) + 40.0
    if expit(raw + lo).mean() > target or expit(raw + hi).mean() < target:
        raise RuntimeError("bisection bracket failure in volume projection")
    while hi - lo > SHIFT_TOL:
        mid = 0.5 * (lo + hi)
        if expit(raw + mid).mean() < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def shifted_sigmoid_project(raw: np.ndarray, budget: VolumeBudget) -> np.ndarray:
    """Map an unbounded field to densities with mean exactly at the target."""
    raw = np.asarray(raw, dtype=float).ravel()
    shift = find_volume_shift(raw, budget.target)
    return expit(raw + shift)


def shifted_sigmoid_vjp(
    raw: np.ndarray,
    budget: VolumeBudget,
    w: np.ndarray,
    shift: float | None = None,
) -> np.ndarray:
    """VJP of the projection, including the implicit shift sensitivity.

    With rho_i = s(raw_i + b(raw)) and the volume constraint pinning b, the
    implicit function theorem gives db/draw_j = -s'_j / sum_k s'_k, hence
    (w^T drho/draw)_j = w_j s'_j - s'_j * sum_i(w_i s'_i) / sum_i s'_i.
    """
    raw = np.asarray(raw, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    if w.size != raw.size:
        raise ValueError("vector length mismatch")
    if shift is None:
        shift = find_volume_shift(raw, budget.target)
    rho = expit(raw + shift)
    ds = rho * (1.0 - rho)
    total = ds.sum()
    return w * ds - ds * np.einsum("i,i->", w, ds) / total


def threshold_count(n: int, target: float) -> int:
    """Number of solid elements kept by thresholding (round half up)."""
    return int(np.floor(n * (target - 0.001) / (1.0 - 0.001) + 0.5))


def threshold(rho: np.ndarray, budget: VolumeBudget) -> np.ndarray:
    """Project a gray design to black-and-white.

    The densest n_p elements become 1 and the rest 0.001, with ties broken
    in favor of lower element indices.
    """
    rho = np.asarray(rho, dtype=float).ravel()
    n_p = threshold_count(rho.size, budget.target)
    n_p = min(max(n_p, 0), rho.size)
    out = np.full(rho.size, 0.001)
    if n_p > 0:
        order = np.argsort(-rho, kind="stable")
        out[order[:n_p]] = 1.0
    return out


def rescale_thresholded_compliance(c_th: float, v_th: float, v0: float) -> float:
    """Compare thresholded compliance at a slightly different volume fraction."""
    if v0 <= 0.0:
        raise ValueError("target volume fraction must be positive")
    return c_th * v_th / v0


def volume_fraction(rho: np.ndarray) -> float:
    """Material volume fraction of a density field (uniform element volumes)."""
    return float(np.asarray(rho, dtype=float).mean())
