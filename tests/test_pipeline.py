"""Density filter, exact volume projection, and thresholding."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import topokit
from topokit import pipeline


def dense_cone_weights(nx, ny, rmin):
    """Independent dense construction: explicit double loop over elements."""
    n = nx * ny
    weights = np.zeros((n, n))
    for iy in range(ny):
        for ix in range(nx):
            i = iy * nx + ix
            for jy in range(ny):
                for jx in range(nx):
                    j = jy * nx + jx
                    w = rmin - np.sqrt((ix - jx) ** 2 + (iy - jy) ** 2)
                    if w > 0:
                        weights[i, j] = w
    return weights


def dense_cone_filter(nx, ny, rmin):
    weights = dense_cone_weights(nx, ny, rmin)
    return weights / weights.sum(axis=1, keepdims=True)


def test_radius_one_is_identity():
    filt = pipeline.build_filter(5, 4, 1.0)
    x = np.random.default_rng(0).uniform(0, 1, 20)
    assert np.allclose(filt.apply(x), x, atol=1e-15)
    assert np.allclose(filt.vjp(x), x, atol=1e-15)


def test_uniform_field_preserved():
    filt = pipeline.build_filter(9, 6, 2.4)
    out = filt.apply(np.full(54, 0.37))
    assert np.abs(out - 0.37).max() < 1e-14


def test_spike_response_matches_dense_construction():
    # 3x3 grid, rmin = 1.5: cone weights are 1.5 (self), 0.5 (edge), and
    # 1.5 - sqrt(2) (diagonal); the response of a center spike follows from
    # the row-normalized weight matrix.
    h_dense = dense_cone_filter(3, 3, 1.5)
    filt = pipeline.build_filter(3, 3, 1.5)
    spike = np.zeros(9)
    spike[4] = 1.0
    expected = h_dense @ spike
    assert np.allclose(filt.apply(spike), expected, atol=1e-14)
    diag_w = 1.5 - np.sqrt(2.0)
    center_row_sum = 1.5 + 4 * 0.5 + 4 * diag_w
    assert expected[4] == pytest.approx(1.5 / center_row_sum, abs=1e-14)


def test_filter_matches_dense_on_random_fields():
    # Besides a regular grid: grids narrower than the kernel along one or
    # both axes, where every padded shift reaches past the field, and a
    # radius below one element, where the kernel is a single entry.
    rng = np.random.default_rng(1)
    for nx, ny, rmin in ((6, 5, 2.0), (1, 7, 3.5), (7, 1, 3.5), (3, 2, 3.5), (6, 5, 0.5)):
        h_dense = dense_cone_filter(nx, ny, rmin)
        filt = pipeline.build_filter(nx, ny, rmin)
        n = nx * ny
        for _ in range(3):
            x = rng.uniform(0, 1, n)
            assert np.allclose(filt.apply(x), h_dense @ x, atol=1e-13)
            w = rng.standard_normal(n)
            assert np.allclose(filt.vjp(w), h_dense.T @ w, atol=1e-13)


def test_filter_correlation_sums_in_sparse_row_order():
    # The unnormalized correlation adds one kernel entry at a time in the
    # order a CSR matrix of the weights sums each row, so the two agree
    # bit for bit. build_filter scales the kernel by a power of two into
    # [0.5, 1), which is exact.
    rng = np.random.default_rng(9)
    for nx, ny, rmin in ((13, 7, 3.2), (2, 9, 2.5)):
        dense = dense_cone_weights(nx, ny, rmin)
        weights = sparse.csr_matrix(np.ldexp(dense, -np.frexp(dense.max())[1]))
        filt = pipeline.build_filter(nx, ny, rmin)
        x = rng.uniform(0, 1, nx * ny)
        assert np.array_equal(pipeline._correlate(filt, x.reshape(ny, nx)).ravel(), weights @ x)


def test_filter_adjoint_identity():
    filt = pipeline.build_filter(8, 4, 2.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(0, 1, 32)
        w = rng.standard_normal(32)
        assert filt.apply(x) @ w == pytest.approx(x @ filt.vjp(w), abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    nx=st.integers(1, 40),
    ny=st.integers(1, 40),
    rmin=st.floats(0.0, 6.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_filter_is_adjoint_on_any_grid(nx, ny, rmin, seed):
    filt = pipeline.build_filter(nx, ny, rmin)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, nx * ny)
    w = rng.standard_normal(nx * ny)
    forward, adjoint = filt.apply(x), filt.vjp(w)
    scale = np.abs(forward) @ np.abs(w)
    assert abs(forward @ w - x @ adjoint) <= 1e-12 * scale


def test_filter_shape_mismatch_rejected():
    filt = pipeline.build_filter(4, 4, 1.5)
    with pytest.raises(ValueError):
        filt.apply(np.zeros(15))
    with pytest.raises(ValueError):
        filt.vjp(np.zeros(17))


def test_projection_uniform_input():
    rho = pipeline.shifted_sigmoid_project(np.full(64, 1.7), 0.3)
    assert np.abs(rho - 0.3).max() < 1e-9


def test_projection_two_point_example():
    rho = pipeline.shifted_sigmoid_project(np.array([-10.0, 10.0]), 0.5)
    shift = pipeline.find_volume_shift(np.array([-10.0, 10.0]), 0.5)
    assert rho[0] == pytest.approx(0.0, abs=1e-4)
    assert rho[1] == pytest.approx(1.0, abs=1e-4)
    assert shift == pytest.approx(0.0, abs=1e-9)


def test_projection_negation_antisymmetry():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal(50)
    v0 = 0.5
    rho = pipeline.shifted_sigmoid_project(raw, v0)
    rho_neg = pipeline.shifted_sigmoid_project(-raw, v0)
    assert np.allclose(rho_neg, 1.0 - rho, atol=1e-9)


def test_projection_volume_exact_on_random_fields():
    rng = np.random.default_rng(4)
    for _ in range(50):
        raw = rng.standard_normal(128) * rng.uniform(0.5, 5.0)
        v0 = rng.uniform(0.05, 0.95)
        rho = pipeline.shifted_sigmoid_project(raw, v0)
        assert abs(rho.mean() - v0) <= 1e-9


def test_projection_preserves_ordering():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal(100)
    rho = pipeline.shifted_sigmoid_project(raw, 0.4)
    order = np.argsort(raw)
    assert np.all(np.diff(rho[order]) >= 0)


def test_projection_vjp_matches_finite_differences():
    rng = np.random.default_rng(6)
    raw = rng.standard_normal(64)
    v0 = 0.35
    w = rng.standard_normal(64)
    delta = rng.standard_normal(64)
    grad = pipeline.shifted_sigmoid_vjp(pipeline.shifted_sigmoid_project(raw, v0), w)
    eps = 1e-6
    fd = (
        pipeline.shifted_sigmoid_project(raw + eps * delta, v0) @ w
        - pipeline.shifted_sigmoid_project(raw - eps * delta, v0) @ w
    ) / (2 * eps)
    assert grad @ delta == pytest.approx(fd, rel=1e-6)


def test_projection_rejects_bad_target():
    with pytest.raises(ValueError):
        pipeline.shifted_sigmoid_project(np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        pipeline.shifted_sigmoid_project(np.zeros(4), 0.0)
    with pytest.raises(ValueError):
        pipeline.shifted_sigmoid_project(np.array([np.inf, 0.0]), 0.5)


def test_logistic_matches_expit():
    from scipy.special import expit

    x = np.linspace(-750.0, 750.0, 3_000_001)
    ulps = np.abs(pipeline.logistic(x).view(np.int64) - expit(x).view(np.int64))
    assert (ulps == 0).mean() >= 0.95
    # Both evaluate 1 / (1 + exp(-x)); numpy's exp and libm's differ by an
    # ulp at most. Near x = -37, 1 + exp(-x) is about 2**53 and rounds to an
    # even integer, which makes that up to 4 ulp of the result.
    assert ulps.max() <= 4
    assert ulps[np.abs(x + 37.0) > 1.0].max() <= 2


def test_logistic_special_values():
    x = np.array([0.0, -0.0, -750.0, -1e308, -np.inf, 750.0, 1e308, np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pipeline.logistic(x)
    assert np.array_equal(got[:2], [0.5, 0.5])
    assert np.array_equal(got[2:5], [0.0, 0.0, 0.0])
    assert np.array_equal(got[5:8], [1.0, 1.0, 1.0])
    assert np.isnan(got[8])
    assert pipeline.logistic(0.0) == 0.5


def shift_error_bound(shift):
    """How far the projected volume may miss its target at this shift.

    VOLUME_TOL, unless one float step of the shift moves a density by more:
    then the root-find ends on two adjacent shifts and returns the closer.
    """
    return max(pipeline.VOLUME_TOL, 0.25 * np.spacing(abs(shift)))


@settings(max_examples=80, deadline=None)
@given(
    log_scale=st.floats(-6.0, 1.0),
    n=st.integers(1, 51_200),
    v0=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_projection_volume_is_exact_in_few_passes(log_scale, n, v0, seed):
    raw = 10.0**log_scale * np.random.default_rng(seed).standard_normal(n)
    passes = 0
    logistic = pipeline.logistic

    def counted(x):
        nonlocal passes
        passes += 1
        return logistic(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "logistic", counted)
        shift = pipeline.find_volume_shift(raw, v0)
    error = abs(pipeline.shifted_sigmoid_project(raw, v0).mean() - v0)
    assert error <= shift_error_bound(shift)
    if abs(shift) < 16.0:
        assert error <= 4 * np.finfo(float).eps
    # The bracket costs no pass. A field of a few elements spread wider than
    # the sigmoid has a mean volume like a staircase, whose flat steps leave
    # Newton nothing to follow: below n = 256 up to 15 passes were seen,
    # above it at most 8.
    assert passes <= (10 if n >= 256 else 18)


def test_volume_shift_returns_at_large_shifts():
    # Above |b| = 8192 the float spacing of the shift exceeds 1e-12, where a
    # fixed-width bisection never ended; run in a child so a hang fails.
    code = (
        "import json, numpy as np; from topokit import pipeline; "
        "cases = [(np.full(64, 8200.0), 0.3), (np.array([-1e4] * 4 + [1e4] * 6), 0.6), "
        "(np.full(64, -3e5), 0.7), (np.full(64, 8000.0), 0.3)]; "
        "shifts = [pipeline.find_volume_shift(raw, v0) for raw, v0 in cases]; "
        "vols = [pipeline.logistic(raw + b).mean() for (raw, _), b in zip(cases, shifts)]; "
        "print(json.dumps([shifts, vols]))"
    )
    src = str(Path(topokit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    shifts, vols = json.loads(done.stdout)
    for shift, vol, v0 in zip(shifts, vols, (0.3, 0.6, 0.7, 0.3)):
        assert abs(vol - v0) <= shift_error_bound(shift)
    assert shifts[0] == pytest.approx(np.log(0.3 / 0.7) - 8200.0, abs=1e-9)
    assert shifts[2] == pytest.approx(np.log(0.7 / 0.3) + 3e5, abs=1e-9)
    assert vols[1] == 0.6


@pytest.mark.parametrize("raw", [np.array([1e308, -1e308]), np.full(4, 1.7e308), np.array([0.0, 2.0**53])])
def test_volume_shift_rejects_fields_beyond_the_limit(raw):
    # Their bracket ends or their mean would overflow, or round by more than 0.5.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="4.5036e\\+15"):
            pipeline.find_volume_shift(raw, 0.5)


def test_volume_shift_at_the_limit_and_the_least_target():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pipeline.find_volume_shift(np.array([pipeline.RAW_LIMIT, -pipeline.RAW_LIMIT]), 0.5) == 0.0
        least = pipeline.MIN_PROJECTION_TARGET
        raw = np.linspace(-3.0, 3.0, 64)
        shift = pipeline.find_volume_shift(raw, least)
        assert abs(pipeline.logistic(raw + shift).mean() - least) <= pipeline.VOLUME_TOL


def test_volume_shift_rejects_a_target_below_the_bracket():
    # The lower bracket end holds every density at or below about logistic(-40).
    below = float(pipeline.logistic(np.array(-40.0))) * 0.5
    for target in (below, float(pipeline.logistic(np.array(-40.0)))):
        with pytest.raises(ValueError, match="1e-17"):
            pipeline.find_volume_shift(np.zeros(8), target)


def test_projection_vjp_is_zero_on_saturated_field():
    raw = np.array([-1000.0] * 4 + [1000.0] * 6)
    rho = pipeline.shifted_sigmoid_project(raw, 0.6)
    assert np.array_equal(rho, [0.0] * 4 + [1.0] * 6)
    grad = pipeline.shifted_sigmoid_vjp(rho, np.arange(1.0, 11.0))
    assert np.array_equal(grad, np.zeros(10))


def test_threshold_count_formula():
    assert pipeline.threshold_count(2048, 0.3) == 613
    assert pipeline.threshold_count(2048, 1.0) == 2048


def test_threshold_solid_count_and_floor():
    rng = np.random.default_rng(7)
    rho = rng.uniform(0, 1, 2048)
    out = pipeline.threshold(rho, 0.3)
    assert (out == 1.0).sum() == 613
    assert (out == 0.001).sum() == 2048 - 613
    # volume lands within one element of the target
    assert abs(out.mean() - 0.3) <= 1.0 / 2048


def test_threshold_full_budget_all_solid():
    out = pipeline.threshold(np.random.default_rng(8).uniform(0, 1, 100), 1.0)
    assert np.all(out == 1.0)


def test_threshold_tie_break_prefers_low_indices():
    out = pipeline.threshold(np.full(2048, 0.5), 0.3)
    assert np.all(out[:613] == 1.0)
    assert np.all(out[613:] == 0.001)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 3000),
    target=st.floats(-0.5, 1.5),
    levels=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_threshold_keeps_the_counted_densest_elements(n, target, levels, seed):
    # Few distinct levels make ties common.
    rho = np.random.default_rng(seed).integers(0, levels, n) / levels
    out = pipeline.threshold(rho, target)
    kept = min(max(pipeline.threshold_count(n, target), 0), n)
    solid = np.flatnonzero(out == 1.0)
    assert solid.size == kept
    assert np.count_nonzero(out == 0.001) == n - kept
    # The kept set is the first ``kept`` of a sort by density, descending,
    # with ties toward lower indices.
    assert np.array_equal(solid, np.sort(sorted(range(n), key=lambda i: (-rho[i], i))[:kept]))


def test_rescale_thresholded_compliance():
    assert pipeline.rescale_thresholded_compliance(100.0, 0.31, 0.30) == pytest.approx(
        103.3333333333, rel=1e-10
    )
    assert pipeline.rescale_thresholded_compliance(57.0, 0.3, 0.3) == pytest.approx(57.0, rel=1e-15)
    assert pipeline.rescale_thresholded_compliance(0.0, 0.31, 0.3) == 0.0
    with pytest.raises(ValueError):
        pipeline.rescale_thresholded_compliance(1.0, 0.3, 0.0)


@pytest.mark.parametrize(
    "value, accepted",
    [
        (-1e-12, True),
        (1.0 + 1e-12, True),
        (-3e-12, False),
        (1.0 + 3e-12, False),
        (np.nan, False),
        (np.inf, False),
    ],
)
def test_every_density_reader_applies_one_range_rule(tmp_path, value, accepted):
    # The FE evaluation, the density CSV reader and the analysis studies
    # accept and reject the same densities.
    from topokit import analysis, fem, io
    from topokit.problems import make_problem

    field = np.full(8, 0.5)
    field[5] = value
    assert (pipeline.first_bad_density(field) is None) == accepted
    path = tmp_path / "field.csv"
    io.write_density_csv(path, field, 4, 2)
    problem = make_problem("mbb", 4, 2, 0.5)
    calls = [
        lambda: fem.evaluate_objective(problem.domain, field, problem.penalty),
        lambda: io.read_field_csv(path),
        lambda: analysis._field_values(field, 8, "field"),
    ]
    for call in calls:
        if accepted:
            call()
        else:
            with pytest.raises(ValueError, match=repr(float(value))):
                call()
