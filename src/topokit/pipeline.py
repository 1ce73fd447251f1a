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

The logistic sigmoid is :func:`logistic` here, for the same reason:
``scipy.special.expit`` was the only use of ``scipy.special``, whose import
cost 33-91 ms on top of numpy and ``scipy.sparse(.linalg)`` and about 3.6 MB
of peak RSS in every run (fresh processes on one 2-core x86-64 machine,
whose speed drifts about 2x between sessions). The
exact-volume shift is found by safeguarded Newton (:func:`find_volume_shift`)
in 3-5 passes on the fields of an Adam run, where bisection to a fixed
interval took 47 and never ended above |b| = 8192, whose float spacing
exceeds that interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

#: The volume projection stops once its mean density is this close to the target.
VOLUME_TOL = 4.0 * np.finfo(float).eps
#: Largest |raw| the volume projection accepts. Up to it, the bracket ends
#: -max(raw) - 40 and -min(raw) + 40 round by at most 0.5 and no sum overflows.
RAW_LIMIT = 2.0**52
#: Least volume target of the projection. Every density at the lower bracket
#: end is at most logistic(-39.5) = 7.0e-18, so the mean there lies below it.
MIN_PROJECTION_TARGET = 1e-17
#: Round-off by which a density may leave [0, 1]; it is clipped before use.
#: Every density read or evaluated is checked by :func:`first_bad_density`.
DENSITY_TOL = 1e-12


@dataclass(frozen=True)
class FilterOperator:
    """Row-normalized cone filter on an nx-by-ny grid.

    The cone weights ``max(0, rmin - hypot(dy, dx))`` for offsets in
    [-reach, reach] on both axes form a correlation kernel. ``taps`` holds
    its positive weights in row-major order (dy, then dx, ascending) as
    (shift, weight) pairs, the shift ``dy * width + dx`` locating the term in
    the zero-padded, flattened image; ``reach`` is the padding on each side
    and ``width`` the padded row length. ``row_sums`` is the kernel
    correlated with a field of ones, as an (ny, nx) image. Filtering divides
    by it, so a uniform field passes through unchanged.
    """

    reach: int
    width: int
    taps: tuple[tuple[int, float], ...]
    row_sums: np.ndarray

    @property
    def size(self) -> int:
        return self.row_sums.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.size:
            raise ValueError(f"field has {x.size} entries, expected {self.size}")
        return (_correlate(self, x.reshape(self.row_sums.shape)) / self.row_sums).ravel()

    def vjp(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float).ravel()
        if w.size != self.size:
            raise ValueError(f"vector has {w.size} entries, expected {self.size}")
        # H = D^-1 W with W symmetric, so H^T w = W (w / row_sums).
        return _correlate(self, w.reshape(self.row_sums.shape) / self.row_sums).ravel()


def _correlate(filt: FilterOperator, image: np.ndarray) -> np.ndarray:
    """Zero-padded correlation of an (ny, nx) image with the filter's taps.

    Terms are added one tap at a time, offsets in row-major order (dy, then
    dx, ascending): the order in which a CSR matrix of the same weights sums
    each row, so the result matches its matrix-vector product bit for bit.
    Each term is one contiguous slice of the flattened padded image; the
    output is computed at the padded width and its padding columns are
    dropped.
    """
    reach, width = filt.reach, filt.width
    ny, nx = image.shape
    # One spare row of zeros keeps the largest shift's slice in bounds.
    padded = np.zeros((ny + 2 * reach + 1, width))
    padded[reach : reach + ny, reach : reach + nx] = image
    flat = padded.ravel()
    m = ny * width
    out = np.zeros(m)
    term = np.empty(m)
    for shift, weight in filt.taps:
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
    ones = np.ones((ny, nx))
    filt = FilterOperator(reach=reach, width=width, taps=taps, row_sums=ones)
    return replace(filt, row_sums=np.ascontiguousarray(_correlate(filt, ones)))


def first_bad_density(values) -> float | None:
    """The first of ``values`` that is not finite or lies outside [0, 1] by
    more than :data:`DENSITY_TOL`; None if there is none."""
    values = np.asarray(values, dtype=float).ravel()
    if values.min() >= -DENSITY_TOL and values.max() <= 1.0 + DENSITY_TOL:  # NaN fails both
        return None
    return float(values[~((values >= -DENSITY_TOL) & (values <= 1.0 + DENSITY_TOL))][0])


def check_projection_target(target: float) -> None:
    """The exact-volume projection needs a target in [MIN_PROJECTION_TARGET, 1).

    Its densities are sigmoids, which average to 1 only at an infinite
    shift, so it is stricter than a problem's volume target, which may be 1.
    The lower end is the least target that :func:`find_volume_shift`'s
    bracket is known to contain.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("volume target must lie strictly in (0, 1) for projection")
    if target < MIN_PROJECTION_TARGET:
        raise ValueError(f"volume target must be at least {MIN_PROJECTION_TARGET:g} for projection")


def logistic(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)), elementwise, in float64.

    Below x = -709.78, exp(-x) overflows to inf and the result is exactly 0,
    as from ``scipy.special.expit``, which evaluates the same formula; that
    overflow is expected and not reported. NaN maps to NaN.
    """
    z = np.negative(x, out=np.empty(np.shape(x)))
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def find_volume_shift(raw: np.ndarray, target: float) -> float:
    """Safeguarded Newton for b such that mean(logistic(raw + b)) equals the target.

    The mean density V(b) increases with b, with slope mean(rho (1 - rho)).
    The bracket [-max(raw) - 40, -min(raw) + 40] contains the root for |raw|
    up to RAW_LIMIT and a target allowed by :func:`check_projection_target`:
    its ends round by at most 0.5, so every density is at most
    logistic(-39.5) at the lower end and exactly 1 at the upper end. A field
    beyond RAW_LIMIT, or not finite, raises ``ValueError`` before any
    arithmetic that could overflow.

    Newton runs on logit(V(b)) = logit(target), which has the same root and
    is linear in b on a uniform field. It starts from logit(target) -
    mean(raw), clipped into the bracket, and each pass moves one end of
    the bracket to b by the sign of V - target. A pass bisects instead when
    the slope is 0, or when the Newton step leaves the bracket or is longer
    than half the previous step, as in ``rtsafe`` (Press et al., Numerical
    Recipes); without that rule Newton cycled between two points on some
    small wide fields. Over N(0, s^2) fields with s <= 10 and 64 <= n <=
    51 200, the logit form took 4.7 evaluations on average and Newton on
    V - target 5.1.

    It stops once |V - target| <= VOLUME_TOL, or once the bracket is two
    adjacent floats, and then returns the end with the smaller
    |V - target|: from |b| = 32 on, one float step of b can move V by more
    than twice VOLUME_TOL.
    """
    raw = np.asarray(raw, dtype=float).ravel()
    check_projection_target(target)
    top, bottom = float(raw.max()), float(raw.min())
    if not (top <= RAW_LIMIT and -bottom <= RAW_LIMIT):  # nan fails both comparisons
        raise ValueError(f"raw field must be finite with |raw| <= {RAW_LIMIT:g}")
    lo = -top - 40.0
    hi = -bottom + 40.0
    # Each end's V - target is evaluated only if the adjacent-floats exit needs it.
    f_lo = f_hi = None
    b = min(max(math.log(target / (1.0 - target)) - float(raw.mean()), lo), hi)
    step = hi - lo
    while True:
        rho = logistic(raw + b)
        volume = float(rho.mean())
        f = volume - target
        if abs(f) <= VOLUME_TOL:
            return b
        if f < 0.0:
            lo, f_lo = b, f
        else:
            hi, f_hi = b, f
        if math.nextafter(lo, hi) == hi:
            if f_lo is None:
                f_lo = float(logistic(raw + lo).mean()) - target
            if f_hi is None:
                f_hi = float(logistic(raw + hi).mean()) - target
            return lo if -f_lo <= f_hi else hi
        slope = float((rho * (1.0 - rho)).mean())
        newton = math.inf
        if slope > 0.0 and 0.0 < volume < 1.0:
            gap = math.log(volume / target) - math.log((1.0 - volume) / (1.0 - target))
            newton = gap * volume * (1.0 - volume) / slope
        if lo < b - newton < hi and abs(newton) <= 0.5 * abs(step):
            step = newton
            b -= step
        else:
            step = 0.5 * (hi - lo)
            b = 0.5 * (lo + hi)


def shifted_sigmoid_project(raw: np.ndarray, target: float) -> np.ndarray:
    """Map an unbounded field to densities with mean exactly at the volume target."""
    raw = np.asarray(raw, dtype=float).ravel()
    shift = find_volume_shift(raw, target)
    return logistic(raw + shift)


def shifted_sigmoid_vjp(rho: np.ndarray, w: np.ndarray) -> np.ndarray:
    """VJP of the projection at its output ``rho``, with the implicit shift sensitivity.

    With rho_i = s(raw_i + b(raw)) and the volume constraint pinning b, the
    implicit function theorem gives db/draw_j = -s'_j / sum_k s'_k, hence
    (w^T drho/draw)_j = w_j s'_j - s'_j * sum_i(w_i s'_i) / sum_i s'_i,
    where s'_i = rho_i (1 - rho_i). On a saturated field every s'_i is 0 and
    so is the VJP, the limit of the formula.
    """
    rho = np.asarray(rho, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    if w.size != rho.size:
        raise ValueError("vector length mismatch")
    ds = rho * (1.0 - rho)
    total = ds.sum()
    if total == 0.0:
        return w * ds
    return w * ds - ds * np.einsum("i,i->", w, ds) / total


def threshold_count(n: int, target: float) -> int:
    """Number of solid elements kept by thresholding (round half up)."""
    return int(np.floor(n * (target - 0.001) / (1.0 - 0.001) + 0.5))


def threshold(rho: np.ndarray, target: float) -> np.ndarray:
    """Project a gray design to black-and-white at a volume target.

    The densest n_p elements become 1 and the rest 0.001, with ties broken
    in favor of lower element indices.
    """
    rho = np.asarray(rho, dtype=float).ravel()
    n_p = threshold_count(rho.size, target)
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
