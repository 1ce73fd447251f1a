"""Density filter, exact volume projection, and thresholding."""

import numpy as np
import pytest
import scipy.sparse as sparse

from topokit import pipeline
from topokit.pipeline import VolumeBudget


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
    # bit for bit.
    rng = np.random.default_rng(9)
    for nx, ny, rmin in ((13, 7, 3.2), (2, 9, 2.5)):
        weights = sparse.csr_matrix(dense_cone_weights(nx, ny, rmin))
        kernel = pipeline.build_filter(nx, ny, rmin).kernel
        x = rng.uniform(0, 1, nx * ny)
        assert np.array_equal(pipeline._correlate(kernel, x.reshape(ny, nx)).ravel(), weights @ x)


def test_filter_adjoint_identity():
    filt = pipeline.build_filter(8, 4, 2.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(0, 1, 32)
        w = rng.standard_normal(32)
        assert filt.apply(x) @ w == pytest.approx(x @ filt.vjp(w), abs=1e-12)


def test_filter_shape_mismatch_rejected():
    filt = pipeline.build_filter(4, 4, 1.5)
    with pytest.raises(ValueError):
        filt.apply(np.zeros(15))
    with pytest.raises(ValueError):
        filt.vjp(np.zeros(17))


def test_projection_uniform_input():
    rho = pipeline.shifted_sigmoid_project(np.full(64, 1.7), VolumeBudget(0.3))
    assert np.abs(rho - 0.3).max() < 1e-9


def test_projection_two_point_example():
    rho = pipeline.shifted_sigmoid_project(np.array([-10.0, 10.0]), VolumeBudget(0.5))
    shift = pipeline.find_volume_shift(np.array([-10.0, 10.0]), 0.5)
    assert rho[0] == pytest.approx(0.0, abs=1e-4)
    assert rho[1] == pytest.approx(1.0, abs=1e-4)
    assert shift == pytest.approx(0.0, abs=1e-9)


def test_projection_negation_antisymmetry():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal(50)
    budget = VolumeBudget(0.5)
    rho = pipeline.shifted_sigmoid_project(raw, budget)
    rho_neg = pipeline.shifted_sigmoid_project(-raw, budget)
    assert np.allclose(rho_neg, 1.0 - rho, atol=1e-9)


def test_projection_volume_exact_on_random_fields():
    rng = np.random.default_rng(4)
    for _ in range(50):
        raw = rng.standard_normal(128) * rng.uniform(0.5, 5.0)
        v0 = rng.uniform(0.05, 0.95)
        rho = pipeline.shifted_sigmoid_project(raw, VolumeBudget(v0))
        assert abs(rho.mean() - v0) <= 1e-9


def test_projection_preserves_ordering():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal(100)
    rho = pipeline.shifted_sigmoid_project(raw, VolumeBudget(0.4))
    order = np.argsort(raw)
    assert np.all(np.diff(rho[order]) >= 0)


def test_projection_vjp_matches_finite_differences():
    rng = np.random.default_rng(6)
    raw = rng.standard_normal(64)
    budget = VolumeBudget(0.35)
    w = rng.standard_normal(64)
    delta = rng.standard_normal(64)
    grad = pipeline.shifted_sigmoid_vjp(pipeline.shifted_sigmoid_project(raw, budget), w)
    eps = 1e-6
    fd = (
        pipeline.shifted_sigmoid_project(raw + eps * delta, budget) @ w
        - pipeline.shifted_sigmoid_project(raw - eps * delta, budget) @ w
    ) / (2 * eps)
    assert grad @ delta == pytest.approx(fd, rel=1e-6)


def test_projection_rejects_bad_target():
    with pytest.raises(ValueError):
        pipeline.shifted_sigmoid_project(np.zeros(4), VolumeBudget(1.0))
    with pytest.raises(ValueError):
        VolumeBudget(0.0)
    with pytest.raises(ValueError):
        pipeline.shifted_sigmoid_project(np.array([np.inf, 0.0]), VolumeBudget(0.5))


def test_threshold_count_formula():
    assert pipeline.threshold_count(2048, 0.3) == 613
    assert pipeline.threshold_count(2048, 1.0) == 2048


def test_threshold_solid_count_and_floor():
    rng = np.random.default_rng(7)
    rho = rng.uniform(0, 1, 2048)
    out = pipeline.threshold(rho, VolumeBudget(0.3))
    assert (out == 1.0).sum() == 613
    assert (out == 0.001).sum() == 2048 - 613
    # volume lands within one element of the target
    assert abs(out.mean() - 0.3) <= 1.0 / 2048


def test_threshold_full_budget_all_solid():
    out = pipeline.threshold(np.random.default_rng(8).uniform(0, 1, 100), VolumeBudget(1.0))
    assert np.all(out == 1.0)


def test_threshold_tie_break_prefers_low_indices():
    out = pipeline.threshold(np.full(2048, 0.5), VolumeBudget(0.3))
    assert np.all(out[:613] == 1.0)
    assert np.all(out[613:] == 0.001)


def test_rescale_thresholded_compliance():
    assert pipeline.rescale_thresholded_compliance(100.0, 0.31, 0.30) == pytest.approx(
        103.3333333333, rel=1e-10
    )
    assert pipeline.rescale_thresholded_compliance(57.0, 0.3, 0.3) == pytest.approx(57.0, rel=1e-15)
    assert pipeline.rescale_thresholded_compliance(0.0, 0.31, 0.3) == 0.0
    with pytest.raises(ValueError):
        pipeline.rescale_thresholded_compliance(1.0, 0.3, 0.0)
