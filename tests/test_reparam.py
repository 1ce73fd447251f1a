"""Reparameterization forwards, VJPs, initialization, pretraining, fitting.

VJPs are validated against central finite differences of directional
derivatives. The Leaky-ReLU network is piecewise linear, so a direction
whose stencil straddles an activation kink invalidates the difference
quotient; such directions are detected by comparing two stencil widths and
resampled deterministically.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import topokit as tk
from topokit import optimizers, presets, reparam
from topokit.reparam import ArchitectureSpec, DesignMap, NumericError


def all_specs(small_grid=False):
    cnn = (
        ArchitectureSpec(kind="cnn", upsample=(2, 2), filters=(2, 1))
        if small_grid
        else ArchitectureSpec(kind="cnn")
    )
    return [
        ArchitectureSpec(kind="direct"),
        ArchitectureSpec(kind="mlp", width=20),
        ArchitectureSpec(kind="siren", width=22, omega0=10.0),
        cnn,
    ]


def directional_fd(func, x, delta, eps=1e-6, rtol=1e-6):
    """Central difference along delta, None when a kink contaminates it."""
    def central(h):
        return (func(x + h * delta) - func(x - h * delta)) / (2 * h)

    wide, narrow = central(eps), central(0.5 * eps)
    if abs(wide - narrow) > rtol * max(abs(wide), abs(narrow), 1e-9):
        return None
    return narrow


def check_vjp(spec, nx=64, ny=32, trials=20, seed=0, tol=1e-4):
    rng = np.random.default_rng(seed)
    base = reparam.init_params(spec, nx, ny, seed=seed)
    checked = 0
    attempts = 0
    while checked < trials:
        attempts += 1
        assert attempts < 20 * trials, "too many kink-contaminated directions"
        theta = base + 0.1 * rng.standard_normal(base.size)
        w = rng.standard_normal(nx * ny)
        delta = rng.standard_normal(base.size)
        delta /= np.linalg.norm(delta)
        analytic = reparam.forward_with_vjp(spec, theta, nx, ny)[1](w) @ delta
        fd = directional_fd(lambda t: reparam.forward_with_vjp(spec, t, nx, ny)[0] @ w, theta, delta)
        if fd is None:
            continue
        assert analytic == pytest.approx(fd, rel=tol, abs=1e-10), spec.kind
        checked += 1


def test_param_counts_match_published_architectures():
    assert reparam.param_count(ArchitectureSpec(kind="mlp", width=20), 64, 32) == 1961
    assert reparam.param_count(ArchitectureSpec(kind="siren", width=22), 64, 32) == 2113
    assert reparam.param_count(ArchitectureSpec(kind="cnn"), 64, 32) == 2156
    assert reparam.param_count(ArchitectureSpec(kind="direct"), 64, 32) == 2048


def test_param_count_equals_init_length():
    for spec in all_specs():
        theta = reparam.init_params(spec, 64, 32, seed=1)
        assert len(theta) == reparam.param_count(spec, 64, 32)


def test_cnn_runs_on_an_untiled_grid():
    # The default upsampling (4, 8) tiles only multiples of 32; 60x32 used to
    # raise. The decoder covers it with a 64x32 image and crops its centre.
    spec = ArchitectureSpec(kind="cnn")
    assert reparam.param_count(spec, 60, 32) == reparam.param_count(spec, 64, 32)
    theta = reparam.init_params(spec, 60, 32, seed=0)
    raw, vjp_fun = reparam.forward_with_vjp(spec, theta, 60, 32)
    full, _ = reparam.forward_with_vjp(spec, theta, 64, 32)
    assert np.array_equal(raw.reshape(32, 60), full.reshape(32, 64)[:, 2:62])
    grad = vjp_fun(np.ones(raw.size))
    offsets = reparam.unpack(grad, reparam.param_layout(spec, 60, 32))["offset1"]
    assert np.all(offsets[0, :, :2] == 0.0) and np.all(offsets[0, :, 62:] == 0.0)
    assert np.all(offsets[0, :, 2:62] == 1.0)


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"kind": "siren", "omega0": False}, "'omega0'"),
        ({"kind": "cnn", "channels": 1.0}, "'channels'"),
        ({"kind": "cnn", "input_size": "1"}, "'input_size'"),
        ({"kind": "cnn", "filters": [2, 1]}, "'filters'"),
    ],
    ids=["omega0-bool", "channels-float", "input-size-string", "filters-list"],
)
def test_ill_typed_spec_rejected(fields, named):
    # The CLI rows of test_io_cli.py cover width, hidden_layers, a string
    # omega0 and the upsample entries. These four used to be accepted: false
    # ran as omega0 = 0, the others failed later, in the layout or a forward.
    with pytest.raises(ValueError, match=named):
        ArchitectureSpec(**fields)


@pytest.mark.parametrize("kind", reparam.KINDS)
def test_config_reader_builds_the_library_default(kind):
    # A SIREN's width was 22 from a config and 20 from the library.
    assert presets.spec_from_config({"kind": kind}) == ArchitectureSpec(kind=kind)


def test_numpy_integers_accepted_by_spec_as_ints():
    spec = ArchitectureSpec(kind="cnn", channels=np.int64(2), upsample=(np.int32(4), 8))
    assert spec == ArchitectureSpec(kind="cnn", channels=2)
    assert type(spec.channels) is int and all(type(f) is int for f in spec.upsample)
    json.dumps(reparam.param_layout(spec, 64, 32))


def test_direct_forward_is_the_identity():
    theta = np.array([0.0, 0.1, 0.3, 0.7, 1.0, 0.5, 0.2, 0.9])
    out, _ = reparam.forward_with_vjp(ArchitectureSpec(kind="direct"), theta, 4, 2)
    assert np.array_equal(out, theta) and out is not theta


def test_direct_vjp_is_the_identity():
    theta = np.array([0.0, 0.1, 0.3, 0.7, 1.0, 0.5, 0.2, 0.9])
    w = np.arange(8.0)
    _, vjp_fun = reparam.forward_with_vjp(ArchitectureSpec(kind="direct"), theta, 4, 2)
    assert np.array_equal(vjp_fun(w), w)


def test_sigmoid_bounded_output_strictly_inside_unit_interval():
    for spec in all_specs(small_grid=True):
        if spec.kind == "direct":
            continue
        theta = reparam.init_params(spec, 16, 8, seed=2)
        out = DesignMap(spec, 16, 8).forward(theta)
        assert out.min() > 0.0 and out.max() < 1.0


def test_forward_deterministic_and_pure():
    for spec in all_specs(small_grid=True):
        theta = reparam.init_params(spec, 16, 8, seed=3)
        values_before = theta.copy()
        out1, _ = reparam.forward_with_vjp(spec, theta, 16, 8)
        out2, _ = reparam.forward_with_vjp(spec, theta, 16, 8)
        assert np.array_equal(out1, out2)
        assert np.array_equal(theta, values_before)


@pytest.mark.parametrize("kind", ["direct", "mlp", "siren", "cnn", "cnn-multichannel"])
def test_vjp_matches_directional_finite_differences(kind):
    spec, nx, ny = {
        "direct": (ArchitectureSpec(kind="direct"), 64, 32),
        "mlp": (ArchitectureSpec(kind="mlp", width=20), 64, 32),
        "siren": (ArchitectureSpec(kind="siren", width=22, omega0=10.0), 64, 32),
        "cnn": (ArchitectureSpec(kind="cnn"), 64, 32),
        "cnn-multichannel": (
            ArchitectureSpec(kind="cnn", channels=3, filters=(3, 1), upsample=(2, 4)),
            32,
            16,
        ),
    }[kind]
    check_vjp(spec, nx=nx, ny=ny, trials=5, seed=11)


def test_vjp_raw_output_mode():
    spec = ArchitectureSpec(kind="siren", width=8, hidden_layers=2)
    check_vjp(spec, nx=16, ny=8, trials=5, seed=12)


def test_vjp_of_zero_cotangent_is_zero():
    for spec in all_specs(small_grid=True):
        theta = reparam.init_params(spec, 16, 8, seed=4)
        _, vjp_fun = reparam.forward_with_vjp(spec, theta, 16, 8)
        assert np.all(vjp_fun(np.zeros(128)) == 0.0)


def test_init_deterministic_per_seed():
    for spec in all_specs(small_grid=True):
        a = reparam.init_params(spec, 16, 8, seed=5)
        b = reparam.init_params(spec, 16, 8, seed=5)
        c = reparam.init_params(spec, 16, 8, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_siren_init_bounds():
    spec = ArchitectureSpec(kind="siren", width=22)
    theta = reparam.init_params(spec, 64, 32, seed=7)
    segments = reparam.unpack(theta, reparam.param_layout(spec, 64, 32))
    first = segments["w0"]
    assert np.abs(first).max() <= 1.0 / 2
    for i in range(1, 5):
        hidden = segments[f"w{i}"]
        assert np.abs(hidden).max() <= np.sqrt(6.0 / 22)


def test_upsampling_and_adjoint_match_einsum_contraction():
    rng = np.random.default_rng(17)
    t = rng.standard_normal((3, 5, 7))
    for factor in (1, 2, 4, 8):
        ry = reparam._upsample_matrix(5, factor)
        rx = reparam._upsample_matrix(7, factor)
        u = reparam._upsample(t, factor)
        ref = np.einsum("ab,cbd,ed->cae", ry, t, rx)
        assert u.shape == (3, 5 * factor, 7 * factor)
        assert np.abs(u - ref).max() <= 1e-14 * np.abs(ref).max()
        du = rng.standard_normal(u.shape)
        dt = reparam._upsample_adjoint(du, factor)
        ref = np.einsum("ab,cae,ed->cbd", ry, du, rx)
        assert dt.shape == t.shape
        assert np.abs(dt - ref).max() <= 1e-14 * np.abs(ref).max()
        # the adjoint identity <U t, du> = <t, U^T du>
        assert np.vdot(u, du) == pytest.approx(np.vdot(t, dt), rel=1e-13)


def sample_major_mlp(spec, params, coords, d_raw):
    """Reference MLP on (n, width) activations: raw output and parameter grads."""
    z, tape = coords, []
    for i in range(spec.hidden_layers):
        w, b = params[f"w{i}"], params[f"b{i}"]
        scale, shift = params[f"bn_scale{i}"], params[f"bn_shift{i}"]
        act = z @ w.T + b
        inv_std = 1.0 / np.sqrt(act.var(axis=0) + reparam.NORM_EPS)
        xhat = (act - act.mean(axis=0)) * inv_std
        pre = scale * xhat + shift
        tape.append((z, xhat, inv_std, pre, w, scale))
        z = np.where(pre > 0.0, pre, reparam.LEAKY_SLOPE * pre)
    raw = (z @ params["w_out"].T + params["b_out"]).ravel()
    g_out = d_raw.reshape(-1, 1)
    grads = {"w_out": g_out.T @ z, "b_out": g_out.sum(axis=0)}
    gz = g_out @ params["w_out"]
    for i in reversed(range(spec.hidden_layers)):
        z_in, xhat, inv_std, pre, w, scale = tape[i]
        ga = np.where(pre > 0.0, 1.0, reparam.LEAKY_SLOPE) * gz
        grads[f"bn_scale{i}"] = (ga * xhat).sum(axis=0)
        grads[f"bn_shift{i}"] = ga.sum(axis=0)
        dxhat = ga * scale
        da = inv_std * (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0))
        grads[f"w{i}"] = da.T @ z_in
        grads[f"b{i}"] = da.sum(axis=0)
        gz = da @ w
    return raw, grads


def sample_major_siren(spec, params, coords, d_raw):
    """Reference SIREN on (n, width) activations: raw output and parameter grads."""
    z, tape = coords, []
    for i in range(spec.hidden_layers):
        w, b = params[f"w{i}"], params[f"b{i}"]
        freq = spec.omega0 if i == 0 else 1.0
        pre = z @ w.T + b
        tape.append((z, pre, w, freq))
        z = np.sin(freq * pre)
    raw = (z @ params["w_out"].T + params["b_out"]).ravel()
    g_out = d_raw.reshape(-1, 1)
    grads = {"w_out": g_out.T @ z, "b_out": g_out.sum(axis=0)}
    gz = g_out @ params["w_out"]
    for i in reversed(range(spec.hidden_layers)):
        z_in, pre, w, freq = tape[i]
        dpre = gz * freq * np.cos(freq * pre)
        grads[f"w{i}"] = dpre.T @ z_in
        grads[f"b{i}"] = dpre.sum(axis=0)
        gz = dpre @ w
    return raw, grads


@pytest.mark.parametrize("nx, ny", [(64, 32), (7, 3)])
@pytest.mark.parametrize("kind", ["mlp", "siren"])
def test_feature_major_networks_match_sample_major_reference(kind, nx, ny):
    spec = ArchitectureSpec(kind=kind, width=20)
    reference = {"mlp": sample_major_mlp, "siren": sample_major_siren}[kind]
    layout = reparam.param_layout(spec, nx, ny)
    rng = np.random.default_rng(18)
    for seed in range(3):
        theta = reparam.init_params(spec, nx, ny, seed=seed)
        theta = theta + 0.3 * rng.standard_normal(theta.size)
        d_raw = rng.standard_normal(nx * ny)
        raw, vjp_fun = reparam.forward_with_vjp(spec, theta, nx, ny)
        ref_raw, ref_grads = reference(
            spec, reparam.unpack(theta, layout), reparam._element_centres(nx, ny), d_raw
        )
        assert np.abs(raw - ref_raw).max() <= 1e-12 * np.abs(ref_raw).max()
        # normwise over the whole gradient: the MLP's hidden biases feed batch
        # normalization, so their exact gradient is 0 and both sides are round-off
        grad, ref_grad = vjp_fun(d_raw), reparam.pack(ref_grads, layout)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()


def allocating_mlp(spec, params, coords, d_raw):
    """Reference feature-major MLP with fresh arrays per layer: raw output and grads.

    Leaky-ReLU is ``np.maximum`` forward and ``np.where`` backward, and the
    first layer's input gradient is computed; shares nothing with ``reparam``
    but the constants.
    """
    z, tape = coords.T, []
    for i in range(spec.hidden_layers):
        scale, shift = params[f"bn_scale{i}"], params[f"bn_shift{i}"]
        act = params[f"w{i}"] @ z + params[f"b{i}"][:, None]
        xhat = act - act.mean(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(np.mean(xhat * xhat, axis=1) + reparam.NORM_EPS)
        xhat *= inv_std[:, None]
        pre = scale[:, None] * xhat + shift[:, None]
        tape.append((z, xhat, inv_std, pre))
        z = np.maximum(pre, reparam.LEAKY_SLOPE * pre)
    raw = (params["w_out"] @ z + params["b_out"][:, None]).ravel()
    g_out = d_raw.reshape(1, -1)
    grads = {"w_out": g_out @ z.T, "b_out": g_out.sum(axis=1)}
    gz = params["w_out"].T * g_out
    for i in reversed(range(spec.hidden_layers)):
        z_in, xhat, inv_std, pre = tape[i]
        ga = np.where(pre > 0.0, gz, reparam.LEAKY_SLOPE * gz)
        g_scale = (ga * xhat).sum(axis=1)
        g_shift = ga.sum(axis=1)
        grads[f"bn_scale{i}"], grads[f"bn_shift{i}"] = g_scale, g_shift
        da = ga - (g_shift / len(coords))[:, None] - xhat * (g_scale / len(coords))[:, None]
        da *= (params[f"bn_scale{i}"] * inv_std)[:, None]
        grads[f"w{i}"] = da @ z_in.T
        grads[f"b{i}"] = da.sum(axis=1)
        gz = params[f"w{i}"].T @ da
    return raw, grads


def allocating_siren(spec, params, coords, d_raw):
    """Reference feature-major SIREN with fresh arrays per layer: raw output and grads."""
    z, tape = coords.T, []
    for i in range(spec.hidden_layers):
        freq = spec.omega0 if i == 0 else 1.0
        phase = freq * (params[f"w{i}"] @ z + params[f"b{i}"][:, None])
        tape.append((z, phase, freq))
        z = np.sin(phase)
    raw = (params["w_out"] @ z + params["b_out"][:, None]).ravel()
    g_out = d_raw.reshape(1, -1)
    grads = {"w_out": g_out @ z.T, "b_out": g_out.sum(axis=1)}
    gz = params["w_out"].T * g_out
    for i in reversed(range(spec.hidden_layers)):
        z_in, phase, freq = tape[i]
        dpre = gz * freq * np.cos(phase)
        grads[f"w{i}"] = dpre @ z_in.T
        grads[f"b{i}"] = dpre.sum(axis=1)
        gz = params[f"w{i}"].T @ dpre
    return raw, grads


def with_zero_preactivations(spec, theta, layout):
    """Give one neuron per hidden layer pre-activations of exactly +0 and -0."""
    params = {name: segment.copy() for name, segment in reparam.unpack(theta, layout).items()}
    for i in range(spec.hidden_layers):
        if spec.kind == "mlp":
            # 0 * xhat is +0 or -0 by the sign of xhat, and -0 keeps it
            params[f"bn_scale{i}"][0], params[f"bn_shift{i}"][0] = 0.0, -0.0
        else:
            params[f"w{i}"][0], params[f"b{i}"][0] = 0.0, -0.0
    return reparam.pack(params, layout)


@pytest.mark.parametrize("nx, ny", [(64, 32), (7, 3)])
@pytest.mark.parametrize("kind", ["mlp", "siren"])
def test_workspace_networks_are_bit_equal_to_allocating_reference(kind, nx, ny):
    spec = ArchitectureSpec(kind=kind, width=20)
    reference = {"mlp": allocating_mlp, "siren": allocating_siren}[kind]
    layout = reparam.param_layout(spec, nx, ny)
    rng = np.random.default_rng(19)
    for seed in range(4):
        theta = reparam.init_params(spec, nx, ny, seed=seed)
        theta = theta + 0.3 * rng.standard_normal(theta.size)
        if seed % 2:
            theta = with_zero_preactivations(spec, theta, layout)
        raw, vjp_fun = reparam.forward_with_vjp(spec, theta, nx, ny)
        for d_raw in (rng.standard_normal(nx * ny), np.full(nx * ny, -0.5)):
            coords = reparam._element_centres(nx, ny)
            ref_raw, ref_grads = reference(spec, reparam.unpack(theta, layout), coords, d_raw)
            assert raw.tobytes() == ref_raw.tobytes()
            assert vjp_fun(d_raw).tobytes() == reparam.pack(ref_grads, layout).tobytes()
        assert np.array_equal(reparam.forward_with_vjp(spec, theta, nx, ny)[0], raw)


@pytest.mark.parametrize("kind", ["mlp", "siren"])
def test_stale_vjp_closure_raises(kind):
    spec = ArchitectureSpec(kind=kind, width=6, hidden_layers=2)
    theta = reparam.init_params(spec, 8, 4, seed=20)
    w = np.ones(32)
    _, first = reparam.forward_with_vjp(spec, theta, 8, 4)
    expected = first(w)
    _, second = reparam.forward_with_vjp(spec, 2.0 * theta, 8, 4)
    with pytest.raises(RuntimeError, match="stale"):
        first(w)
    assert not np.array_equal(second(w), expected)
    # a design map's forward writes the same workspace
    DesignMap(spec, 8, 4).forward(theta)
    with pytest.raises(RuntimeError, match="stale"):
        second(w)


@pytest.mark.parametrize("kind", ["mlp", "siren"])
def test_repeated_vjp_calls_match_a_fresh_forward(kind):
    # MMA takes two VJPs per forward; SIREN's first one turns its phase tape into cosines.
    spec = ArchitectureSpec(kind=kind, width=6, hidden_layers=2)
    theta = reparam.init_params(spec, 8, 4, seed=21)
    w1, w2 = np.random.default_rng(21).standard_normal((2, 32))
    _, vjp_fun = reparam.forward_with_vjp(spec, theta, 8, 4)
    first, second, again = vjp_fun(w1), vjp_fun(w2), vjp_fun(w1)
    assert first.tobytes() == again.tobytes()
    for w, grad in ((w1, first), (w2, second)):
        assert reparam.forward_with_vjp(spec, theta, 8, 4)[1](w).tobytes() == grad.tobytes()
    with pytest.raises(RuntimeError, match="stale"):
        vjp_fun(w1)


def test_maps_sharing_a_workspace_match_fresh_maps():
    spec = ArchitectureSpec(kind="mlp", width=8, hidden_layers=3)
    filter_op = tk.pipeline.build_filter(16, 8, 1.5)
    maps = {"pretrain": (None, None), "filtered": (filter_op, None)}
    rng = np.random.default_rng(21)
    theta0 = reparam.init_params(spec, 16, 8, seed=21)
    steps = [
        (name, theta0 + 0.2 * rng.standard_normal(theta0.size), rng.standard_normal((2, 128)))
        for _ in range(3)
        for name in maps
    ]

    def evaluate(design_map, theta, cotangents):
        rho, vjp_fun = design_map.forward_with_vjp(theta)
        return [rho] + [vjp_fun(w) for w in cotangents]

    shared = {name: DesignMap(spec, 16, 8, *maps[name]) for name in maps}
    alternating = [evaluate(shared[name], theta, w) for name, theta, w in steps]
    for (name, theta, w), got in zip(steps, alternating):
        reparam._shared_workspace.cache_clear()
        expected = evaluate(DesignMap(spec, 16, 8, *maps[name]), theta, w)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["mlp", "siren", "cnn"])
def test_nonfinite_parameter_names_its_layer(kind):
    spec = ArchitectureSpec(kind=kind, width=6, hidden_layers=3, upsample=(2, 2))
    theta = reparam.init_params(spec, 8, 4, seed=22)
    layout = reparam.param_layout(spec, 8, 4)
    for name, _ in layout:
        digits = name[len(name.rstrip("0123456789")):]
        if not digits:
            continue
        for bad in (np.inf, -np.inf, np.nan):
            values = theta.copy()
            segment = reparam.unpack(values, layout)[name]
            segment.flat[-1] = bad
            with pytest.raises(NumericError, match=rf"{name!r} of the {kind} hidden layer {digits}$"):
                reparam.forward_with_vjp(spec, values, 8, 4)
    values = theta.copy()
    values[-1] = np.inf
    last = "offset1" if kind == "cnn" else "b_out"
    owner = "cnn hidden layer 1" if kind == "cnn" else f"{kind} output layer"
    with pytest.raises(NumericError, match=rf"{last!r} of the {owner}$"):
        reparam.forward_with_vjp(spec, values, 8, 4)


def test_finite_activations_with_overflowing_sum_do_not_raise():
    spec = ArchitectureSpec(kind="mlp", width=20, hidden_layers=2)
    layout = reparam.param_layout(spec, 16, 8)
    segments = reparam.unpack(reparam.init_params(spec, 16, 8, seed=23), layout)
    # the last hidden layer emits about 1e307 for all 20 x 128 activations,
    # whose sum exceeds the largest double; the output layer scales them back
    segments["bn_shift1"][:] = 1e307
    segments["w_out"] *= 1e-10
    values = reparam.pack(segments, layout)
    raw, _ = reparam.forward_with_vjp(spec, values, 16, 8)
    assert np.all(np.isfinite(raw)) and np.abs(raw).max() > 1e290


def batchnorm_standardized_stats(spec, values, nx, ny):
    """Per-layer (mean, variance) of the standardized MLP pre-activations.

    The activations are the ones the MLP forward tapes in its workspace.
    """
    reparam.forward_with_vjp(spec, values, nx, ny)
    layers = reparam._shared_workspace(spec.hidden_layers, spec.width, nx * ny).layers
    return [(xhat.mean(axis=1), xhat.var(axis=1)) for xhat, _ in layers]


def test_batchnorm_standardizes_every_hidden_layer():
    # Batch normalization standardizes each hidden neuron over the coordinate
    # grid: zero mean and unit variance, up to its epsilon, for any parameters.
    spec = ArchitectureSpec(kind="mlp", width=20)
    rng = np.random.default_rng(8)
    for trial in range(3):
        theta = reparam.init_params(spec, 64, 32, seed=trial)
        theta += 0.5 * rng.standard_normal(theta.size)
        for mean, var in batchnorm_standardized_stats(spec, theta, 64, 32):
            assert np.abs(mean).max() < 1e-6
            assert np.abs(var - 1.0).max() < 1e-6


def test_nonfinite_parameters_raise_numeric_error():
    spec = ArchitectureSpec(kind="mlp", width=8, hidden_layers=2)
    theta = reparam.init_params(spec, 8, 4, seed=9)
    theta[0] = np.inf
    with pytest.raises(NumericError, match="layer"):
        reparam.forward_with_vjp(spec, theta, 8, 4)


def test_pretrain_direct_is_exact_and_immediate():
    spec = ArchitectureSpec(kind="direct")
    theta0 = reparam.init_params(spec, 8, 4, seed=10)
    result = reparam.pretrain_uniform(DesignMap(spec, 8, 4), theta0, 0.3)
    assert result.iterations == 0
    assert result.mse == 0.0
    assert np.all(result.theta == 0.3)


def test_pretrain_projected_mode_reaches_target():
    spec = ArchitectureSpec(kind="mlp", width=8, hidden_layers=2)
    design_map = DesignMap(spec, 16, 8, volume_target=0.3)
    theta0 = reparam.init_params(spec, 16, 8, seed=11)
    result = reparam.pretrain_uniform(design_map, theta0, 0.3)
    assert result.mse < reparam.PRETRAIN_TARGET_MSE


def test_pretrain_sigmoid_mode_reaches_target():
    spec = ArchitectureSpec(kind="mlp", width=8, hidden_layers=2)
    design_map = DesignMap(spec, 16, 8)
    theta0 = reparam.init_params(spec, 16, 8, seed=11)
    result = reparam.pretrain_uniform(design_map, theta0, 0.6)
    assert result.mse < reparam.PRETRAIN_TARGET_MSE
    assert np.sqrt(np.mean((design_map.forward(result.theta) - 0.6) ** 2)) < 1e-2


def test_pretrain_warns_when_cap_insufficient(monkeypatch):
    monkeypatch.setattr(reparam, "PRETRAIN_ITERATION_CAP", 2)
    spec = ArchitectureSpec(kind="siren", width=8, hidden_layers=2)
    theta0 = reparam.init_params(spec, 16, 8, seed=12)
    with pytest.warns(reparam.PretrainWarning):
        result = reparam.pretrain_uniform(DesignMap(spec, 16, 8), theta0, 0.3)
    assert result.iterations == 2
    assert result.mse >= reparam.PRETRAIN_TARGET_MSE


def _pretrain_reference(design_map, theta0, v0):
    """Pretraining as its own Adam loop, with its loss inlined: the reference
    the shared trainer must reproduce bit for bit."""
    target = np.full(design_map.nx * design_map.ny, float(v0))
    values = theta0.copy()
    state = optimizers.AdamState.zeros(values.size)
    cfg = optimizers.AdamConfig(learning_rate=reparam.PRETRAIN_LEARNING_RATE)
    best_values, best_mse = values.copy(), np.inf
    iterations = 0
    for iterations in range(1, reparam.PRETRAIN_ITERATION_CAP + 1):
        rho, vjp_fun = design_map.forward_with_vjp(values)
        err = rho - target
        mse = float(np.einsum("i,i->", err, err)) / err.size
        grad = vjp_fun(2.0 * err / err.size)
        if mse < best_mse:
            best_mse, best_values = mse, values.copy()
        if best_mse < reparam.PRETRAIN_TARGET_MSE:
            break
        values = optimizers.adam_step(state, values, grad, cfg)
    return best_values, best_mse, iterations


@pytest.mark.parametrize("projected", [False, True], ids=["sigmoid", "projection"])
@pytest.mark.parametrize(
    "spec",
    [
        ArchitectureSpec(kind="mlp"),
        ArchitectureSpec(kind="siren", width=22, omega0=15.0),
        ArchitectureSpec(kind="cnn", upsample=(2, 2)),
    ],
    ids=["mlp", "siren", "cnn"],
)
def test_pretrain_matches_the_dedicated_loop_bit_for_bit(spec, projected):
    design_map = DesignMap(spec, 16, 8, volume_target=0.6 if projected else None)
    theta0 = reparam.init_params(spec, 16, 8, seed=3)
    values, mse, iterations = _pretrain_reference(design_map, theta0, 0.6)
    result = reparam.pretrain_uniform(design_map, theta0, 0.6)
    assert result.iterations == iterations
    assert result.theta.tobytes() == values.tobytes()
    assert result.mse == mse


def test_fit_direct_is_exact():
    spec = ArchitectureSpec(kind="direct")
    design_map = DesignMap(spec, 8, 4)
    target = np.random.default_rng(13).uniform(0, 1, 32)
    fit = reparam.fit_to_density(design_map, reparam.init_params(spec, 8, 4, seed=0), target)
    assert fit.mse == 0.0
    assert fit.iterations == 0


def test_fit_reduces_error_below_initial():
    spec = ArchitectureSpec(kind="siren", width=8, hidden_layers=2)
    design_map = DesignMap(spec, 16, 8)
    target = np.clip(0.5 + 0.3 * np.sin(4 * reparam._element_centres(16, 8)[:, 0]), 0, 1)
    theta0 = reparam.init_params(spec, 16, 8, seed=15)
    initial = float(np.mean((design_map.forward(theta0) - target) ** 2))
    fit = reparam.fit_to_density(design_map, theta0, target, iteration_cap=500)
    assert fit.mse < 0.1 * initial


def load_params(path):
    """The (values, layout) of a checkpoint written by ``io.save_params``."""
    path = Path(path)
    header = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    values = np.frombuffer(path.with_suffix(".bin").read_bytes(), dtype=header["dtype"]).astype(float)
    layout = tuple((name, tuple(shape)) for name, shape in header["segments"])
    assert values.size == header["count"] == reparam.layout_size(layout)
    return values, layout


def test_checkpoint_roundtrip(tmp_path):
    from topokit import io

    spec = ArchitectureSpec(kind="cnn")
    theta = reparam.init_params(spec, 64, 32, seed=16)
    layout = reparam.param_layout(spec, 64, 32)
    io.save_params(tmp_path / "theta", theta, layout)
    values, loaded_layout = load_params(tmp_path / "theta")
    assert np.array_equal(values, theta)
    assert loaded_layout == layout
