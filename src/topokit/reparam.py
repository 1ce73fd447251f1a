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
applies a sigmoid and then the density filter; for Adam, given the volume
target as a float, it filters and then applies the shifted-sigmoid
exact-volume projection (Hoyer et al. 2019).
Direct densities get no sigmoid: the [0, 1] MMA box bounds them. Pretraining
and least-squares fitting are one Adam trainer, :func:`fit_to_density`, run
through a map without a filter; :func:`pretrain_uniform` is that trainer
with the pretraining constants and a uniform target. Both sigmoids are
:func:`pipeline.logistic`, so no run imports ``scipy.special`` (33-91 ms
and about 3.6 MB of peak RSS per process, see :mod:`pipeline`).

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
fresh process, against under 1k faults and 0.01 s with the workspace. An
MLP layer keeps two tapes, its standardized activations and its Leaky-ReLU
output ``max(pre, LEAKY_SLOPE*pre)``; the VJP rebuilds the slope (1 where
the output is positive, LEAKY_SLOPE elsewhere) in its scratch buffer, so
an L-layer network holds 2L + 2 (width, n) arrays. Every reduction keeps
its operands and its order, so the workspace changes no bit of a field or
gradient.

The parameters θ are one flat float array. :func:`param_layout` names its
segments in packing order, and :func:`unpack` views them by name.

:func:`forward_with_vjp` is the one way from parameters to a field, and
every forward of a coordinate network writes into that one cached
workspace: :meth:`DesignMap.forward` is the densities of
:meth:`DesignMap.forward_with_vjp`. Each network VJP returns the flat
parameter gradient itself, written segment by segment into one array. A VJP
closure is valid until the next forward of the same network shape on the
same grid, :meth:`DesignMap.forward` included; called after that, it raises
instead of differentiating the newer forward. The optimization loop takes
every VJP of an evaluation before the next evaluation.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

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
        # numpy integers are stored as ints, so layouts built from the spec
        # serialize to JSON.
        for name in ("hidden_layers", "width", "cnn_input_size", "cnn_channels"):
            value = getattr(self, name)
            if not pipeline.is_integer(value):
                raise ValueError(f"{name!r} must be an integer, got {value!r:.60}")
            object.__setattr__(self, name, int(value))
        if not pipeline.is_number(self.omega0):
            raise ValueError(f"'omega0' must be a number, got {self.omega0!r:.60}")
        for name in ("cnn_filters", "cnn_upsample"):
            value = getattr(self, name)
            if not (isinstance(value, tuple) and all(map(pipeline.is_integer, value))):
                raise ValueError(f"{name!r} must be a tuple of integers, got {value!r:.60}")
            object.__setattr__(self, name, tuple(map(int, value)))
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


def init_params(spec: ArchitectureSpec, nx: int, ny: int, seed: int) -> np.ndarray:
    """Deterministic flat parameter vector for a given seed, packed in
    :func:`param_layout` order."""
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
    return pack(segments, layout)


def _check_finite(array: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(array)):
        raise NumericError(f"non-finite activations in {where}")


# ---------------------------------------------------------------------------
# direct


def _direct_forward_vjp(spec, values, grid, ws):
    return values.copy(), lambda d_raw: d_raw.copy()


# ---------------------------------------------------------------------------
# coordinate networks (MLP / SIREN)


class _Workspace:
    """The tape buffers of one coordinate-network shape on one grid.

    ``layers[i]`` holds hidden layer i's two (width, n) tape arrays: for the
    MLP its standardized activations and its output, for SIREN its phase
    (overwritten by its cosine on the first VJP of a forward) and its
    output. ``work`` is two (width, n) buffers the VJP alternates
    between; the forward uses the first as scratch. ``generation`` counts
    the forwards written into the workspace, so a VJP closure can tell
    whether its tape has been overwritten since.
    """

    def __init__(self, hidden_layers: int, width: int, n: int):
        self.layers = np.empty((hidden_layers, 2, width, n))
        self.work = np.empty((2, width, n))
        self.generation = 0


@lru_cache(maxsize=1)
def _shared_workspace(hidden_layers: int, width: int, n: int) -> _Workspace:
    # One at a time: runs and fits use one network shape on one grid, and a
    # workspace reaches 1.2 GB for the widest sweep network at 320x160.
    return _Workspace(hidden_layers, width, n)


def _workspace(spec: ArchitectureSpec, grid: CoordinateGrid) -> _Workspace:
    """The cached workspace of the spec's shape and grid, for one more forward."""
    ws = _shared_workspace(spec.hidden_layers, spec.width, grid.size)
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
    Leaky-ReLU output, which is positive exactly where the pre-activation is.
    """
    z = grid.coords.T
    square = ws.work[0]
    tape = []
    for i in range(spec.hidden_layers):
        scale, shift = params[f"bn_scale{i}"], params[f"bn_shift{i}"]
        xhat, out = ws.layers[i]
        np.matmul(params[f"w{i}"], z, out=xhat)
        xhat += params[f"b{i}"][:, None]
        xhat -= xhat.mean(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(np.multiply(xhat, xhat, out=square).mean(axis=1) + NORM_EPS)
        xhat *= inv_std[:, None]
        pre = np.multiply(scale[:, None], xhat, out=out)
        pre += shift[:, None]
        np.maximum(pre, np.multiply(pre, LEAKY_SLOPE, out=square), out=out)
        _check_finite(out, f"mlp hidden layer {i}")
        tape.append((z, xhat, inv_std, out))
        z = out
    return tape, z


def _mlp_forward_vjp(spec, values, grid, ws):
    layout = param_layout(spec, grid.nx, grid.ny)
    params = unpack(values, layout)
    tape, z = _mlp_hidden(spec, params, grid, ws)
    raw = (params["w_out"] @ z + params["b_out"][:, None]).ravel()
    _check_finite(raw, "mlp output layer")
    generation = ws.generation

    def vjp_fun(d_raw):
        _check_current(ws, generation)
        grad = np.empty(values.size)
        grads = unpack(grad, layout)  # views that each segment's gradient fills
        g_out = d_raw.reshape(1, -1)
        grads["w_out"][...] = g_out @ z.T
        grads["b_out"][...] = g_out.sum(axis=1)
        gz, scratch = ws.work
        np.multiply(params["w_out"].T, g_out, out=gz)
        for i in reversed(range(spec.hidden_layers)):
            z_in, xhat, inv_std, out = tape[i]
            slope = np.greater(out, 0.0, out=scratch)
            slope *= 1.0 - LEAKY_SLOPE
            slope += LEAKY_SLOPE
            gz *= slope
            g_scale = np.multiply(gz, xhat, out=scratch).sum(axis=1)
            g_shift = gz.sum(axis=1)
            grads[f"bn_scale{i}"][...] = g_scale
            grads[f"bn_shift{i}"][...] = g_shift
            # backprop through batch statistics of the full grid
            gz -= (g_shift / grid.size)[:, None]
            gz -= np.multiply(xhat, (g_scale / grid.size)[:, None], out=scratch)
            gz *= (params[f"bn_scale{i}"] * inv_std)[:, None]
            grads[f"w{i}"][...] = gz @ z_in.T
            grads[f"b{i}"][...] = gz.sum(axis=1)
            if i:  # the input coordinates need no gradient
                gz, scratch = np.matmul(params[f"w{i}"].T, gz, out=scratch), gz
        return grad

    return raw, vjp_fun


def _siren_forward_vjp(spec, values, grid, ws):
    layout = param_layout(spec, grid.nx, grid.ny)
    params = unpack(values, layout)
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
    cosines_taped = False

    def vjp_fun(d_raw):
        nonlocal cosines_taped
        _check_current(ws, generation)
        if not cosines_taped:  # MMA takes two VJPs per forward; take the cosines once
            for _, phase, _ in tape:
                np.cos(phase, out=phase)
            cosines_taped = True
        grad = np.empty(values.size)
        grads = unpack(grad, layout)  # views that each segment's gradient fills
        g_out = d_raw.reshape(1, -1)
        grads["w_out"][...] = g_out @ z.T
        grads["b_out"][...] = g_out.sum(axis=1)
        gz, scratch = ws.work
        np.multiply(params["w_out"].T, g_out, out=gz)
        for i in reversed(range(spec.hidden_layers)):
            z_in, cos_phase, freq = tape[i]
            gz *= freq
            gz *= cos_phase
            grads[f"w{i}"][...] = gz @ z_in.T
            grads[f"b{i}"][...] = gz.sum(axis=1)
            if i:  # the input coordinates need no gradient
                gz, scratch = np.matmul(params[f"w{i}"].T, gz, out=scratch), gz
        return grad

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
        grad = np.empty(values.size)
        grads = unpack(grad, layout)  # views that each segment's gradient fills
        gx = d_raw.reshape(1, grid.ny, grid.nx)
        for l in reversed(range(len(spec.cnn_upsample))):
            t, v, inv_std, conv_w = tape[l]
            grads[f"offset{l}"][...] = gx
            dv, dw, db = _conv3x3_backward(gx, v, conv_w)
            grads[f"conv_w{l}"][...] = dw
            grads[f"conv_b{l}"][...] = db
            # backprop through whole-image normalization
            du = inv_std * (dv - dv.mean() - v * (dv * v).mean())
            dt = _upsample_adjoint(du, spec.cnn_upsample[l])
            gx = dt * (1.0 - t**2)
        dd = gx.ravel()
        grads["dense_w"][...] = np.outer(dd, params["z"])
        grads["dense_b"][...] = dd
        grads["z"][...] = params["dense_w"].T @ dd
        return grad

    return raw, vjp_fun


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


def forward_with_vjp(
    spec: ArchitectureSpec,
    theta: np.ndarray,
    grid: CoordinateGrid,
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Evaluate the mapping's raw field and return (field, vjp) sharing one tape.

    ``theta`` is the flat parameter vector in :func:`param_layout` order.
    The field is unbounded; :class:`DesignMap` bounds it. The vjp closure
    maps a flat float cotangent on the field to the flat gradient w.r.t. the
    parameters. A coordinate network's tape lives in the workspace of its
    shape and grid, so the closure raises once a later forward has
    overwritten it.
    """
    values = np.asarray(theta, dtype=float)
    layout = param_layout(spec, grid.nx, grid.ny)
    expected = layout_size(layout)
    if values.shape != (expected,):
        raise ValueError(f"theta has shape {values.shape}, spec needs ({expected},)")
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        name = next(name for name, start, stop, _ in _segments(layout) if start <= bad < stop)
        raise NumericError(
            f"non-finite parameter in segment {name!r} of the {_segment_owner(spec.kind, name)}"
        )
    ws = _workspace(spec, grid) if spec.kind in ("mlp", "siren") else None
    return _FORWARD_VJP[spec.kind](spec, values, grid, ws)


class DesignMap:
    """Composite map from decision variables to physical densities.

    Without a volume target (the MMA pipeline) a network's raw field passes
    a sigmoid and then the filter; with one (the Adam pipeline) it is
    filtered and then projected by the shifted sigmoid onto a mean density
    of exactly ``volume_target``. Direct densities get no sigmoid. The
    filter is optional.
    """

    def __init__(
        self,
        spec: ArchitectureSpec,
        grid: CoordinateGrid,
        filter_op: pipeline.FilterOperator | None = None,
        volume_target: float | None = None,
    ):
        self.spec = spec
        self.grid = grid
        self.filter_op = filter_op
        self.volume_target = volume_target
        self.sigmoid = volume_target is None and spec.kind != "direct"

    def forward_with_vjp(self, theta: np.ndarray):
        """The densities and their VJP closure, valid until the next forward
        of the same network shape and grid."""
        field, net_vjp = forward_with_vjp(self.spec, theta, self.grid)
        if self.sigmoid:
            field = bounded = pipeline.logistic(field)
        if self.filter_op is not None:
            field = self.filter_op.apply(field)
        rho = field
        if self.volume_target is not None:
            rho = pipeline.shifted_sigmoid_project(field, self.volume_target)

        def vjp_fun(w):
            w = np.asarray(w, dtype=float).ravel()
            if self.volume_target is not None:
                w = pipeline.shifted_sigmoid_vjp(rho, w)
            if self.filter_op is not None:
                w = self.filter_op.vjp(w)
            if self.sigmoid:
                w = w * bounded * (1.0 - bounded)
            return net_vjp(w)

        return rho, vjp_fun

    def forward(self, theta: np.ndarray) -> np.ndarray:
        """The densities of :meth:`forward_with_vjp`."""
        rho, _ = self.forward_with_vjp(theta)
        return rho


# ---------------------------------------------------------------------------
# pretraining and least-squares fitting

#: Adam learning rate of the uniform-gray pretraining.
PRETRAIN_LEARNING_RATE = 1e-3
#: Pretraining stops once the mean squared error falls below this.
PRETRAIN_TARGET_MSE = 1e-4
#: Pretraining iterations after which it stops with a warning.
PRETRAIN_ITERATION_CAP = 2000
#: A least-squares fit's default iteration budget, and its learning-rate ladder:
#: the relative improvement that ends a plateau, the rate decay per plateau
#: and the least rate.
FIT_ITERATION_CAP = 4000
FIT_PLATEAU_RTOL = 1e-10
FIT_LR_DECAY = 0.5
FIT_MIN_LEARNING_RATE = 1e-4


@dataclass(frozen=True)
class FitResult:
    theta: np.ndarray
    mse: float
    iterations: int


class PretrainWarning(UserWarning):
    pass


def pretrain_uniform(design_map: DesignMap, theta0: np.ndarray, v0: float) -> FitResult:
    """Train the mapping to emit a uniform gray field of density v0.

    The error is taken on the output of ``design_map``, a map without a
    filter, so it follows the pipeline: a sigmoid-bounded field is regressed
    on the uniform field directly, while under the exact-volume projection
    the shift supplies the mean and only the spatial variation must be
    trained away. This is :func:`fit_to_density` at PRETRAIN_LEARNING_RATE,
    stopping once the error falls below PRETRAIN_TARGET_MSE, for at most
    PRETRAIN_ITERATION_CAP iterations and with no learning-rate ladder
    within them; when the cap comes first it warns and still returns the
    best parameters.
    """
    if design_map.spec.kind == "direct":
        return FitResult(theta=np.full(theta0.size, float(v0)), mse=0.0, iterations=0)
    cap = PRETRAIN_ITERATION_CAP
    result = fit_to_density(
        design_map,
        theta0,
        np.full(design_map.grid.size, float(v0)),
        learning_rate=PRETRAIN_LEARNING_RATE,
        iteration_cap=cap,
        plateau_iters=cap,  # reset at iteration 1, the plateau count stays below the cap
        target_mse=PRETRAIN_TARGET_MSE,
    )
    if not result.mse < PRETRAIN_TARGET_MSE:
        warnings.warn(
            f"pretraining stalled at MSE {result.mse:.3e} after {result.iterations} iterations",
            PretrainWarning,
        )
    return result


def fit_to_density(
    design_map: DesignMap,
    theta0: np.ndarray,
    target: np.ndarray,
    learning_rate: float = 0.02,
    iteration_cap: int = FIT_ITERATION_CAP,
    plateau_iters: int = 100,
    target_mse: float = 0.0,
) -> FitResult:
    """Least-squares fit of a map's output to a target density field.

    ``design_map`` has no filter. Adam with a plateau-triggered
    learning-rate ladder: whenever the best error has not improved by a
    relative FIT_PLATEAU_RTOL within ``plateau_iters`` iterations, training
    restarts from the best parameters at FIT_LR_DECAY times the rate,
    stopping once the rate would fall below FIT_MIN_LEARNING_RATE, the best
    error falls below ``target_mse`` or the iteration cap is hit. Reports
    the best mean squared pixel error seen.
    """
    target = np.asarray(target, dtype=float).ravel()
    if target.size != design_map.grid.size:
        raise ValueError("target field does not match the grid")
    if design_map.spec.kind == "direct":
        theta = np.clip(target, 0.0, 1.0)
        out = design_map.forward(theta)
        mse = float(np.mean((out - target) ** 2))
        return FitResult(theta=theta, mse=mse, iterations=0)

    values = np.array(theta0, dtype=float)
    state = optimizers.AdamState.zeros(values.size)
    cfg = optimizers.AdamConfig(learning_rate=learning_rate)
    best_values, best_mse = values.copy(), np.inf
    window_best = np.inf
    since_improvement = 0
    iterations = 0
    while iterations < iteration_cap:
        iterations += 1
        rho, vjp_fun = design_map.forward_with_vjp(values)
        err = rho - target
        mse = float(np.einsum("i,i->", err, err)) / err.size
        if mse < best_mse:
            best_mse, best_values = mse, values.copy()
        if best_mse < target_mse:
            break
        if mse < window_best * (1.0 - FIT_PLATEAU_RTOL):
            window_best = mse
            since_improvement = 0
        else:
            since_improvement += 1
        if since_improvement >= plateau_iters:
            new_rate = cfg.learning_rate * FIT_LR_DECAY
            if new_rate < FIT_MIN_LEARNING_RATE:
                break
            cfg = dataclasses.replace(cfg, learning_rate=new_rate)
            state = optimizers.AdamState.zeros(values.size)
            values = best_values.copy()
            window_best = best_mse
            since_improvement = 0
            continue
        values = optimizers.adam_step(state, values, vjp_fun(2.0 * err / err.size), cfg)
    return FitResult(theta=best_values, mse=best_mse, iterations=iterations)
