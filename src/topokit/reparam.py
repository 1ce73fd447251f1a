"""Reparameterizations h mapping decision variables to density fields.

Four mappings are provided: ``direct`` (the baseline, densities are the
decision variables), a coordinate MLP with batch normalization and
Leaky-ReLU, a sinusoidal coordinate network (SIREN), and a convolutional
decoder that upsamples a small trainable seed into the full field. Each
mapping returns its raw, unbounded field together with its exact
reverse-mode vector-Jacobian product, written out layer by layer, so
gradient checks against finite differences stay tight in double precision.
``direct`` is the identity.

:class:`DesignMap` is the one place the raw field is bounded. For MMA it
applies a sigmoid and then the density filter; for Adam it filters and then
applies the shifted-sigmoid exact-volume projection (Hoyer et al. 2019).
Direct densities get no sigmoid: the [0, 1] MMA box bounds them. Pretraining
and least-squares fitting train through a map without a filter.

Coordinate networks are evaluated on all element centers at once; batch and
image normalizations therefore use the statistics of the full grid. Their
activations are carried feature-major, as (width, n_elements) arrays: every
layer is one ``w @ z`` GEMM and every per-neuron batch statistic reduces
along the contiguous axis. The CNN's bilinear upsampling of a (c, h, w)
stack is two matrix products, ``ry @ t @ rx.T``, with the adjoint
``ry.T @ du @ rx``; the interpolation matrices are cached per size.

The MLP and SIREN write their tapes into the workspace of their network
shape and grid size, cached like the interpolation matrices but one at a
time: every layer's activations go into preallocated (width, n) arrays
through ``out=`` and in-place ufuncs, and the VJP alternates between two
more. Allocating them per call cost about 5 MB of fresh arrays per forward
at 64x32, which the allocator maps from and returns to the OS on every
call: on a 2-core x86-64 machine the 210 Adam steps of one MLP pretraining
took 96k to 313k minor page faults and 0.3 to 0.9 s of system time in a
fresh process, against under 1k faults and 0.01 s with the workspace. The
Leaky-ReLU slope (1 where the pre-activation is positive, LEAKY_SLOPE
elsewhere) is kept on the tape, so the activation is ``pre*slope`` and its
VJP ``g*slope``, bit for bit what ``np.maximum`` and ``np.where`` give.
Every reduction keeps its operands and its order, so the workspace changes
no bit of a field or gradient.

Because the workspace is shared, a VJP closure from :func:`forward_with_vjp`
is valid only until the next ``forward_with_vjp`` of the same network shape
on the same grid; called after that, it raises instead of differentiating
the newer forward. The optimization loop takes every VJP of an evaluation
before the next evaluation. :func:`forward` and :meth:`DesignMap.forward`
run in a private workspace and leave closures valid.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import expit

from . import optimizers, pipeline

LEAKY_SLOPE = 0.01
#: Epsilon inside the batch/image normalization square roots. Kept at a
#: double-precision guard level so normalized statistics are exact to ~1e-12.
NORM_EPS = 1e-12

KINDS = ("direct", "mlp", "siren", "cnn")


class NumericError(RuntimeError):
    """Non-finite values appeared during a network evaluation."""


@dataclass(frozen=True)
class ArchitectureSpec:
    """Configuration of one reparameterization.

    For the CNN decoder, the dense layer output is reshaped to
    ``cnn_channels`` images of shape (ny / prod(upsample), nx / prod(upsample))
    and each hidden layer runs tanh -> bilinear upsample -> normalize ->
    3x3 convolution -> trainable offset. ``cnn_filters`` gives the
    convolution filter count per layer; the last entry must be 1 so the
    decoder emits a single-channel field.

    The spec describes the network only. How its field is bounded follows
    from the optimizer and is composed by :class:`DesignMap`.
    """

    kind: str
    hidden_layers: int = 5
    width: int = 20
    omega0: float = 10.0
    cnn_input_size: int = 1
    cnn_channels: int = 1
    cnn_filters: tuple[int, ...] = (2, 1)
    cnn_upsample: tuple[int, ...] = (4, 8)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown reparameterization kind {self.kind!r}")
        if self.kind in ("mlp", "siren") and (self.width < 1 or self.hidden_layers < 1):
            raise ValueError("coordinate networks need width >= 1 and hidden_layers >= 1")
        if self.kind == "cnn":
            if len(self.cnn_filters) != len(self.cnn_upsample):
                raise ValueError("cnn_filters and cnn_upsample must have equal length")
            if self.cnn_filters[-1] != 1:
                raise ValueError("the last CNN layer must have a single filter")
            if min(self.cnn_filters) < 1 or min(self.cnn_upsample) < 1:
                raise ValueError("CNN filter and upsample entries must be >= 1")


@dataclass(frozen=True)
class CoordinateGrid:
    """Element-center coordinates normalized to (-1, 1)^2, row-major."""

    nx: int
    ny: int
    coords: np.ndarray

    @property
    def size(self) -> int:
        return self.nx * self.ny


def coordinate_grid(nx: int, ny: int) -> CoordinateGrid:
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    x = -1.0 + 2.0 * (ix.ravel() + 0.5) / nx
    y = -1.0 + 2.0 * (iy.ravel() + 0.5) / ny
    coords = np.column_stack([x, y])
    coords.setflags(write=False)
    return CoordinateGrid(nx=nx, ny=ny, coords=coords)


Layout = tuple[tuple[str, tuple[int, ...]], ...]


@dataclass(frozen=True)
class ParamVector:
    """Flat decision-variable vector with a named-segment layout."""

    values: np.ndarray
    layout: Layout

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "values", values)
        expected = layout_size(self.layout)
        if values.size != expected:
            raise ValueError(f"parameter vector has {values.size} entries, layout needs {expected}")

    def __len__(self) -> int:
        return self.values.size

    def segment(self, name: str) -> np.ndarray:
        return unpack(self.values, self.layout)[name]

    def replace_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values=np.asarray(values, dtype=float), layout=self.layout)


@lru_cache(maxsize=None)
def _segments(layout: Layout) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """``(name, start, stop, shape)`` of every segment, in packing order."""
    segments = []
    start = 0
    for name, shape in layout:
        stop = start + math.prod(shape)
        segments.append((name, start, stop, shape))
        start = stop
    return tuple(segments)


def layout_size(layout: Layout) -> int:
    segments = _segments(layout)
    return segments[-1][2] if segments else 0


def unpack(values: np.ndarray, layout: Layout) -> dict[str, np.ndarray]:
    return {name: values[start:stop].reshape(shape) for name, start, stop, shape in _segments(layout)}


def pack(segments: dict[str, np.ndarray], layout: Layout) -> np.ndarray:
    return np.concatenate([np.asarray(segments[name], dtype=float).ravel() for name, _ in layout])


def _cnn_spatial(spec: ArchitectureSpec, nx: int, ny: int) -> tuple[int, int]:
    factor = int(np.prod(spec.cnn_upsample))
    h0, w0 = ny // factor, nx // factor
    if h0 * factor != ny or w0 * factor != nx or h0 < 1 or w0 < 1:
        raise ValueError(
            f"upsample factors {spec.cnn_upsample} do not tile a {nx}x{ny} grid"
        )
    return h0, w0


@lru_cache(maxsize=None)
def param_layout(spec: ArchitectureSpec, nx: int, ny: int) -> Layout:
    """Named parameter segments, in packing order."""
    if spec.kind == "direct":
        return (("rho", (nx * ny,)),)
    if spec.kind in ("mlp", "siren"):
        layout: list[tuple[str, tuple[int, ...]]] = []
        in_dim = 2
        for i in range(spec.hidden_layers):
            layout.append((f"w{i}", (spec.width, in_dim)))
            layout.append((f"b{i}", (spec.width,)))
            if spec.kind == "mlp":
                layout.append((f"bn_scale{i}", (spec.width,)))
                layout.append((f"bn_shift{i}", (spec.width,)))
            in_dim = spec.width
        layout.append(("w_out", (1, spec.width)))
        layout.append(("b_out", (1,)))
        return tuple(layout)
    # cnn
    h0, w0 = _cnn_spatial(spec, nx, ny)
    c = spec.cnn_channels
    layout = [
        ("z", (spec.cnn_input_size,)),
        ("dense_w", (c * h0 * w0, spec.cnn_input_size)),
        ("dense_b", (c * h0 * w0,)),
    ]
    h, w = h0, w0
    c_in = c
    for l, (factor, f_out) in enumerate(zip(spec.cnn_upsample, spec.cnn_filters)):
        h, w = h * factor, w * factor
        layout.append((f"conv_w{l}", (f_out, c_in, 3, 3)))
        layout.append((f"conv_b{l}", (f_out,)))
        layout.append((f"offset{l}", (f_out, h, w)))
        c_in = f_out
    return tuple(layout)


def param_count(spec: ArchitectureSpec, nx: int, ny: int) -> int:
    """Exact trainable-parameter total for the given grid."""
    return layout_size(param_layout(spec, nx, ny))


def init_params(spec: ArchitectureSpec, nx: int, ny: int, seed: int) -> ParamVector:
    """Deterministic parameter initialization for a given seed."""
    layout = param_layout(spec, nx, ny)
    rng = np.random.default_rng(seed)
    segments: dict[str, np.ndarray] = {}
    for name, shape in layout:
        if spec.kind == "direct":
            segments[name] = rng.uniform(0.0, 1.0, size=shape)
        elif name.startswith("w") and name != "w_out":
            fan_in = shape[1]
            if spec.kind == "siren" and name == "w0":
                bound = 1.0 / fan_in
            else:
                bound = np.sqrt(6.0 / fan_in)
            segments[name] = rng.uniform(-bound, bound, size=shape)
        elif name == "w_out":
            bound = np.sqrt(6.0 / shape[1])
            segments[name] = rng.uniform(-bound, bound, size=shape)
        elif name.startswith("bn_scale"):
            segments[name] = np.ones(shape)
        elif name == "z":
            segments[name] = rng.standard_normal(shape)
        elif name == "dense_w":
            segments[name] = rng.standard_normal(shape) / np.sqrt(shape[1])
        elif name.startswith("conv_w"):
            fan_in = shape[1] * shape[2] * shape[3]
            segments[name] = rng.standard_normal(shape) / np.sqrt(fan_in)
        else:
            # biases, batch-norm shifts, offsets, dense bias
            segments[name] = np.zeros(shape)
    return ParamVector(values=pack(segments, layout), layout=layout)


def _check_finite(array: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(array)):
        raise NumericError(f"non-finite activations in {where}")


def _values(theta: ParamVector | np.ndarray) -> np.ndarray:
    if isinstance(theta, ParamVector):
        return theta.values
    return np.asarray(theta, dtype=float).ravel()


# ---------------------------------------------------------------------------
# direct


def _direct_forward_vjp(spec, values, grid, ws):
    return values.copy(), lambda d_raw: {"rho": d_raw}


# ---------------------------------------------------------------------------
# coordinate networks (MLP / SIREN)


class _Workspace:
    """The tape buffers of one coordinate-network shape on one grid.

    ``layers[i]`` holds hidden layer i's (width, n) tape arrays: for the MLP
    its standardized activations, its Leaky-ReLU slope and its output, for
    SIREN its phase and its output. ``work`` is two (width, n) buffers the
    VJP alternates between; the forward uses the first as scratch.
    ``generation`` counts the forwards written into the workspace, so a VJP
    closure can tell whether its tape has been overwritten since.
    """

    def __init__(self, kind: str, hidden_layers: int, width: int, n: int):
        per_layer = 3 if kind == "mlp" else 2
        self.layers = np.empty((hidden_layers, per_layer, width, n))
        self.work = np.empty((2, width, n))
        self.generation = 0


@lru_cache(maxsize=1)
def _shared_workspace(kind: str, hidden_layers: int, width: int, n: int) -> _Workspace:
    # One at a time: runs and fits use one network shape on one grid, and a
    # workspace reaches 1.7 GB for the widest sweep network at 320x160.
    return _Workspace(kind, hidden_layers, width, n)


def _workspace(spec: ArchitectureSpec, grid: CoordinateGrid, shared: bool) -> _Workspace:
    """The cached workspace of the spec's shape and grid, or a private one."""
    key = (spec.kind, spec.hidden_layers, spec.width, grid.size)
    ws = _shared_workspace(*key) if shared else _Workspace(*key)
    ws.generation += 1
    return ws


def _check_current(ws: _Workspace, generation: int) -> None:
    if ws.generation != generation:
        raise RuntimeError(
            "stale VJP closure: a later forward of the same network shape and grid "
            "has overwritten its tape"
        )


def _mlp_hidden(spec, params, grid, ws):
    """Run the MLP's hidden layers into the workspace; return (tape, last activations).

    Each layer's tape entry holds its (fan_in, n) input, the standardized
    activations, the per-neuron inverse batch standard deviation and the
    Leaky-ReLU slope: 1 where the pre-activation is positive, LEAKY_SLOPE
    elsewhere, so the activation and its VJP are both products with it.
    """
    z = grid.coords.T
    square = ws.work[0]
    tape = []
    for i in range(spec.hidden_layers):
        scale, shift = params[f"bn_scale{i}"], params[f"bn_shift{i}"]
        xhat, slope, out = ws.layers[i]
        np.matmul(params[f"w{i}"], z, out=xhat)
        xhat += params[f"b{i}"][:, None]
        xhat -= xhat.mean(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(np.multiply(xhat, xhat, out=square).mean(axis=1) + NORM_EPS)
        xhat *= inv_std[:, None]
        pre = np.multiply(scale[:, None], xhat, out=out)
        pre += shift[:, None]
        np.greater(pre, 0.0, out=slope)
        slope *= 1.0 - LEAKY_SLOPE
        slope += LEAKY_SLOPE
        out *= slope
        _check_finite(out, f"mlp hidden layer {i}")
        tape.append((z, xhat, inv_std, slope))
        z = out
    return tape, z


def _mlp_forward_vjp(spec, values, grid, ws):
    params = unpack(values, param_layout(spec, grid.nx, grid.ny))
    tape, z = _mlp_hidden(spec, params, grid, ws)
    raw = (params["w_out"] @ z + params["b_out"][:, None]).ravel()
    _check_finite(raw, "mlp output layer")
    generation = ws.generation

    def vjp_fun(d_raw):
        _check_current(ws, generation)
        grads: dict[str, np.ndarray] = {}
        g_out = np.asarray(d_raw, dtype=float).reshape(1, -1)
        grads["w_out"] = g_out @ z.T
        grads["b_out"] = g_out.sum(axis=1)
        gz, scratch = ws.work
        np.multiply(params["w_out"].T, g_out, out=gz)
        for i in reversed(range(spec.hidden_layers)):
            z_in, xhat, inv_std, slope = tape[i]
            gz *= slope
            g_scale = np.multiply(gz, xhat, out=scratch).sum(axis=1)
            g_shift = gz.sum(axis=1)
            grads[f"bn_scale{i}"] = g_scale
            grads[f"bn_shift{i}"] = g_shift
            # backprop through batch statistics of the full grid
            gz -= (g_shift / grid.size)[:, None]
            gz -= np.multiply(xhat, (g_scale / grid.size)[:, None], out=scratch)
            gz *= (params[f"bn_scale{i}"] * inv_std)[:, None]
            grads[f"w{i}"] = gz @ z_in.T
            grads[f"b{i}"] = gz.sum(axis=1)
            if i:  # the input coordinates need no gradient
                gz, scratch = np.matmul(params[f"w{i}"].T, gz, out=scratch), gz
        return grads

    return raw, vjp_fun


def _siren_forward_vjp(spec, values, grid, ws):
    params = unpack(values, param_layout(spec, grid.nx, grid.ny))
    z = grid.coords.T
    tape = []
    for i in range(spec.hidden_layers):
        freq = spec.omega0 if i == 0 else 1.0
        phase, out = ws.layers[i]
        np.matmul(params[f"w{i}"], z, out=phase)
        phase += params[f"b{i}"][:, None]
        phase *= freq
        np.sin(phase, out=out)
        _check_finite(out, f"siren hidden layer {i}")
        tape.append((z, phase, freq))
        z = out
    raw = (params["w_out"] @ z + params["b_out"][:, None]).ravel()
    _check_finite(raw, "siren output layer")
    generation = ws.generation

    def vjp_fun(d_raw):
        _check_current(ws, generation)
        grads: dict[str, np.ndarray] = {}
        g_out = np.asarray(d_raw, dtype=float).reshape(1, -1)
        grads["w_out"] = g_out @ z.T
        grads["b_out"] = g_out.sum(axis=1)
        gz, scratch = ws.work
        np.multiply(params["w_out"].T, g_out, out=gz)
        for i in reversed(range(spec.hidden_layers)):
            z_in, phase, freq = tape[i]
            gz *= freq
            gz *= np.cos(phase, out=scratch)
            grads[f"w{i}"] = gz @ z_in.T
            grads[f"b{i}"] = gz.sum(axis=1)
            if i:  # the input coordinates need no gradient
                gz, scratch = np.matmul(params[f"w{i}"].T, gz, out=scratch), gz
        return grads

    return raw, vjp_fun


# ---------------------------------------------------------------------------
# CNN decoder


@lru_cache(maxsize=None)
def _upsample_matrix(n_in: int, factor: int) -> np.ndarray:
    """Half-pixel bilinear interpolation matrix of shape (n_in*factor, n_in), read-only."""
    n_out = n_in * factor
    src = (np.arange(n_out) + 0.5) / factor - 0.5
    i0 = np.floor(src).astype(int)
    frac = src - i0
    lo = np.clip(i0, 0, n_in - 1)
    hi = np.clip(i0 + 1, 0, n_in - 1)
    mat = np.zeros((n_out, n_in))
    np.add.at(mat, (np.arange(n_out), lo), 1.0 - frac)
    np.add.at(mat, (np.arange(n_out), hi), frac)
    mat.setflags(write=False)
    return mat


def _upsample(t: np.ndarray, factor: int) -> np.ndarray:
    """Bilinear upsampling of a (c, h, w) stack, ``ry @ t @ rx.T`` per channel."""
    ry = _upsample_matrix(t.shape[1], factor)
    rx = _upsample_matrix(t.shape[2], factor)
    return ry @ t @ rx.T


def _upsample_adjoint(du: np.ndarray, factor: int) -> np.ndarray:
    """Adjoint of :func:`_upsample`: ``ry.T @ du @ rx`` per channel."""
    ry = _upsample_matrix(du.shape[1] // factor, factor)
    rx = _upsample_matrix(du.shape[2] // factor, factor)
    return ry.T @ du @ rx


def _conv3x3(v: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padding 3x3 convolution; v is (c_in, h, w), weights (f, c_in, 3, 3)."""
    _, h, w = v.shape
    vpad = np.pad(v, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((weights.shape[0], h, w))
    for i in range(3):
        for j in range(3):
            out += np.einsum("fc,chw->fhw", weights[:, :, i, j], vpad[:, i : i + h, j : j + w])
    return out + bias[:, None, None]


def _conv3x3_backward(
    g: np.ndarray, v: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    _, h, w = v.shape
    vpad = np.pad(v, ((0, 0), (1, 1), (1, 1)))
    d_vpad = np.zeros_like(vpad)
    d_weights = np.zeros_like(weights)
    for i in range(3):
        for j in range(3):
            d_weights[:, :, i, j] = np.einsum("fhw,chw->fc", g, vpad[:, i : i + h, j : j + w])
            d_vpad[:, i : i + h, j : j + w] += np.einsum("fc,fhw->chw", weights[:, :, i, j], g)
    d_bias = g.sum(axis=(1, 2))
    return d_vpad[:, 1 : 1 + h, 1 : 1 + w], d_weights, d_bias


def _cnn_forward_vjp(spec, values, grid, ws):
    layout = param_layout(spec, grid.nx, grid.ny)
    params = unpack(values, layout)
    h0, w0 = _cnn_spatial(spec, grid.nx, grid.ny)
    dense = params["dense_w"] @ params["z"] + params["dense_b"]
    x = dense.reshape(spec.cnn_channels, h0, w0)
    tape = []
    for l, (factor, _) in enumerate(zip(spec.cnn_upsample, spec.cnn_filters)):
        t = np.tanh(x)
        u = _upsample(t, factor)
        mu = u.mean()
        inv_std = 1.0 / np.sqrt(u.var() + NORM_EPS)
        v = (u - mu) * inv_std
        conv_w, conv_b = params[f"conv_w{l}"], params[f"conv_b{l}"]
        y = _conv3x3(v, conv_w, conv_b)
        x = y + params[f"offset{l}"]
        _check_finite(x, f"cnn hidden layer {l}")
        tape.append((t, v, inv_std, conv_w))
    raw = x[0].ravel()

    def vjp_fun(d_raw):
        grads: dict[str, np.ndarray] = {}
        gx = np.asarray(d_raw, dtype=float).reshape(1, grid.ny, grid.nx)
        for l in reversed(range(len(spec.cnn_upsample))):
            t, v, inv_std, conv_w = tape[l]
            grads[f"offset{l}"] = gx.copy()
            dv, dw, db = _conv3x3_backward(gx, v, conv_w)
            grads[f"conv_w{l}"] = dw
            grads[f"conv_b{l}"] = db
            # backprop through whole-image normalization
            du = inv_std * (dv - dv.mean() - v * (dv * v).mean())
            dt = _upsample_adjoint(du, spec.cnn_upsample[l])
            gx = dt * (1.0 - t**2)
        dd = gx.ravel()
        grads["dense_w"] = np.outer(dd, params["z"])
        grads["dense_b"] = dd
        grads["z"] = params["dense_w"].T @ dd
        return grads

    return raw, vjp_fun


def batchnorm_standardized_stats(
    spec: ArchitectureSpec, theta: ParamVector | np.ndarray, grid: CoordinateGrid
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (mean, variance) of the standardized MLP pre-activations.

    Batch normalization standardizes each hidden neuron over the coordinate
    grid, so the returned means should vanish and the variances should be 1
    up to the normalization epsilon, for any parameter vector. The
    activations come from the same hidden-layer pass the MLP forward runs.
    """
    if spec.kind != "mlp":
        raise ValueError("batch statistics exist only for the mlp kind")
    params = unpack(_values(theta), param_layout(spec, grid.nx, grid.ny))
    tape, _ = _mlp_hidden(spec, params, grid, _workspace(spec, grid, shared=False))
    return [(xhat.mean(axis=1), xhat.var(axis=1)) for _, xhat, _, _ in tape]


# ---------------------------------------------------------------------------
# public surface

#: Each takes (spec, values, grid, workspace); only the coordinate networks
#: use the workspace.
_FORWARD_VJP = {
    "direct": _direct_forward_vjp,
    "mlp": _mlp_forward_vjp,
    "siren": _siren_forward_vjp,
    "cnn": _cnn_forward_vjp,
}


def _segment_owner(kind: str, name: str) -> str:
    """The layer a parameter segment belongs to, for error messages."""
    if kind == "direct":
        return "density field"
    if name in ("w_out", "b_out"):
        return f"{kind} output layer"
    if name in ("z", "dense_w", "dense_b"):
        return "cnn dense layer"
    return f"{kind} hidden layer {name[len(name.rstrip('0123456789')):]}"


def _evaluate(spec, theta, grid, shared: bool):
    """Validated forward of the spec's mapping; returns (raw field, segment-dict vjp)."""
    values = _values(theta)
    layout = param_layout(spec, grid.nx, grid.ny)
    expected = layout_size(layout)
    if values.size != expected:
        raise ValueError(f"theta has {values.size} entries, spec needs {expected}")
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        name = next(name for name, start, stop, _ in _segments(layout) if start <= bad < stop)
        raise NumericError(
            f"non-finite parameter in segment {name!r} of the {_segment_owner(spec.kind, name)}"
        )
    ws = _workspace(spec, grid, shared) if spec.kind in ("mlp", "siren") else None
    return _FORWARD_VJP[spec.kind](spec, values, grid, ws)


def forward_with_vjp(
    spec: ArchitectureSpec,
    theta: ParamVector | np.ndarray,
    grid: CoordinateGrid,
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Evaluate the mapping's raw field and return (field, vjp) sharing one tape.

    The field is unbounded; :class:`DesignMap` bounds it. The vjp closure
    maps a cotangent on the field to a flat gradient w.r.t. the parameters.
    A coordinate network's tape lives in the workspace of its shape and
    grid, so the closure raises once a later call has overwritten it.
    """
    raw, net_vjp = _evaluate(spec, theta, grid, shared=True)
    layout = param_layout(spec, grid.nx, grid.ny)

    def vjp_fun(w):
        return pack(net_vjp(np.asarray(w, dtype=float).ravel()), layout)

    return raw, vjp_fun


def forward(
    spec: ArchitectureSpec, theta: ParamVector | np.ndarray, grid: CoordinateGrid
) -> np.ndarray:
    """Map decision variables to the mapping's raw field.

    Runs in a private workspace, so it leaves every VJP closure valid.
    """
    raw, _ = _evaluate(spec, theta, grid, shared=False)
    return raw


def vjp(
    spec: ArchitectureSpec,
    theta: ParamVector | np.ndarray,
    grid: CoordinateGrid,
    w: np.ndarray,
) -> np.ndarray:
    """w^T (d raw field / d theta) by reverse-mode accumulation."""
    w = np.asarray(w, dtype=float).ravel()
    if not np.all(np.isfinite(w)):
        raise ValueError("cotangent vector must be finite")
    _, vjp_fun = forward_with_vjp(spec, theta, grid)
    return vjp_fun(w)


class DesignMap:
    """Composite map from decision variables to physical densities.

    Without a projection (the MMA pipeline) a network's raw field passes a
    sigmoid and then the filter; with one (the Adam pipeline) it is filtered
    and then projected onto the exact volume by the shifted sigmoid. Direct
    densities get no sigmoid. The filter is optional.
    """

    def __init__(
        self,
        spec: ArchitectureSpec,
        grid: CoordinateGrid,
        filter_op: pipeline.FilterOperator | None = None,
        projection: pipeline.VolumeBudget | None = None,
    ):
        self.spec = spec
        self.grid = grid
        self.filter_op = filter_op
        self.projection = projection
        self.sigmoid = projection is None and spec.kind != "direct"

    def forward_with_vjp(self, theta_values: np.ndarray):
        return self._bound(*forward_with_vjp(self.spec, theta_values, self.grid))

    def forward(self, theta_values: np.ndarray) -> np.ndarray:
        """The densities alone; leaves every VJP closure valid."""
        rho, _ = self._bound(forward(self.spec, theta_values, self.grid), None)
        return rho

    def _bound(self, field, net_vjp):
        if self.sigmoid:
            field = bounded = expit(field)
        if self.filter_op is not None:
            field = self.filter_op.apply(field)
        rho = field
        if self.projection is not None:
            shift = pipeline.find_volume_shift(field, self.projection.target)
            rho = expit(field + shift)

        def vjp_fun(w):
            if self.projection is not None:
                w = pipeline.shifted_sigmoid_vjp(field, self.projection, w, shift=shift)
            if self.filter_op is not None:
                w = self.filter_op.vjp(w)
            if self.sigmoid:
                w = np.asarray(w, dtype=float).ravel() * bounded * (1.0 - bounded)
            return net_vjp(w)

        return rho, vjp_fun


# ---------------------------------------------------------------------------
# pretraining and least-squares fitting

#: Adam learning rate of the uniform-gray pretraining.
PRETRAIN_LEARNING_RATE = 1e-3
#: Pretraining stops once the mean squared error falls below this.
PRETRAIN_TARGET_MSE = 1e-4
#: Pretraining iterations after which it stops with a warning.
PRETRAIN_ITERATION_CAP = 2000


@dataclass(frozen=True)
class PretrainResult:
    theta: ParamVector
    mse: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class FitResult:
    theta: ParamVector
    mse: float
    iterations: int


class PretrainWarning(UserWarning):
    pass


def _mse_and_grad(design_map: DesignMap, theta_values, target):
    rho, vjp_fun = design_map.forward_with_vjp(theta_values)
    err = rho - target
    mse = float(np.einsum("i,i->", err, err)) / err.size
    grad = vjp_fun(2.0 * err / err.size)
    return mse, grad


def pretrain_uniform(design_map: DesignMap, theta0: ParamVector, v0: float) -> PretrainResult:
    """Train the mapping to emit a uniform gray field of density v0.

    The error is taken on the output of ``design_map``, a map without a
    filter, so it follows the pipeline: a sigmoid-bounded field is regressed
    on the uniform field directly, while under the exact-volume projection
    the shift supplies the mean and only the spatial variation must be
    trained away. Adam runs at PRETRAIN_LEARNING_RATE until the error falls
    below PRETRAIN_TARGET_MSE, for at most PRETRAIN_ITERATION_CAP
    iterations; when the cap comes first it warns and still returns the
    best parameters.
    """
    if design_map.spec.kind == "direct":
        theta = theta0.replace_values(np.full(len(theta0), v0))
        return PretrainResult(theta=theta, mse=0.0, iterations=0, converged=True)

    target = np.full(design_map.grid.size, float(v0))
    values = theta0.values.copy()
    state = optimizers.AdamState.zeros(values.size)
    cfg = optimizers.AdamConfig(learning_rate=PRETRAIN_LEARNING_RATE)
    best_values, best_mse = values.copy(), np.inf
    iterations = 0
    for iterations in range(1, PRETRAIN_ITERATION_CAP + 1):
        mse, grad = _mse_and_grad(design_map, values, target)
        if mse < best_mse:
            best_mse, best_values = mse, values.copy()
        if best_mse < PRETRAIN_TARGET_MSE:
            break
        values = optimizers.adam_step(state, values, grad, cfg)
    converged = best_mse < PRETRAIN_TARGET_MSE
    if not converged:
        warnings.warn(
            f"pretraining stalled at MSE {best_mse:.3e} after {iterations} iterations",
            PretrainWarning,
        )
    return PretrainResult(
        theta=theta0.replace_values(best_values),
        mse=best_mse,
        iterations=iterations,
        converged=converged,
    )


def fit_to_density(
    design_map: DesignMap,
    theta0: ParamVector,
    target: np.ndarray,
    learning_rate: float = 0.02,
    iteration_cap: int = 4000,
    plateau_iters: int = 100,
    plateau_rtol: float = 1e-10,
    lr_decay: float = 0.5,
    min_learning_rate: float = 1e-4,
) -> FitResult:
    """Least-squares fit of a map's output to a target density field.

    ``design_map`` has no filter. Adam with a plateau-triggered
    learning-rate ladder: whenever the best error has not improved by a
    relative ``plateau_rtol`` within ``plateau_iters`` iterations, training
    restarts from the best parameters at a reduced rate, stopping once the
    rate falls below ``min_learning_rate`` or the iteration cap is hit.
    Reports the best mean squared pixel error seen.
    """
    target = np.asarray(target, dtype=float).ravel()
    if target.size != design_map.grid.size:
        raise ValueError("target field does not match the grid")
    if design_map.spec.kind == "direct":
        theta = theta0.replace_values(np.clip(target, 0.0, 1.0))
        out = design_map.forward(theta.values)
        mse = float(np.mean((out - target) ** 2))
        return FitResult(theta=theta, mse=mse, iterations=0)

    values = theta0.values.copy()
    state = optimizers.AdamState.zeros(values.size)
    cfg = optimizers.AdamConfig(learning_rate=learning_rate)
    best_values, best_mse = values.copy(), np.inf
    window_best = np.inf
    since_improvement = 0
    iterations = 0
    while iterations < iteration_cap:
        iterations += 1
        mse, grad = _mse_and_grad(design_map, values, target)
        if mse < best_mse:
            best_mse, best_values = mse, values.copy()
        if mse < window_best * (1.0 - plateau_rtol):
            window_best = mse
            since_improvement = 0
        else:
            since_improvement += 1
        if since_improvement >= plateau_iters:
            new_rate = cfg.learning_rate * lr_decay
            if new_rate < min_learning_rate:
                break
            cfg = dataclasses.replace(cfg, learning_rate=new_rate)
            state = optimizers.AdamState.zeros(values.size)
            values = best_values.copy()
            window_best = best_mse
            since_improvement = 0
            continue
        values = optimizers.adam_step(state, values, grad, cfg)
    return FitResult(theta=theta0.replace_values(best_values), mse=best_mse, iterations=iterations)
