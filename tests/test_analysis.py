"""Landscape slices, trajectory metrics, PSNR, profiles, convergence."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from topokit import analysis, reparam
from topokit.analysis import CONVERGENCE_TOL_FRACTION, convergence_iteration, performance_profile, psnr
from topokit.optimizers import Evaluation, Trajectory
from topokit.problems import make_problem
from topokit.reparam import ArchitectureSpec


@pytest.fixture(scope="module")
def small_problem():
    return make_problem("mbb", 16, 8, 0.5, penalty=1.0)


def test_landscape_two_alphas_are_the_endpoints(small_problem):
    n = small_problem.n_elements
    rho1 = np.full(n, 0.5)
    rho2 = np.clip(np.full(n, 0.5) + 0.1 * np.sin(np.arange(n)), 0, 1) * 0.8
    result = analysis.landscape_1d(ArchitectureSpec(kind="direct"), rho1, rho2, 2, small_problem)
    assert result.alpha.tolist() == [0.0, 1.0]
    from topokit.runner import evaluate_design

    assert result.objective[0] == pytest.approx(
        evaluate_design(small_problem, rho1).value, abs=1e-10
    )
    assert result.objective[1] == pytest.approx(
        evaluate_design(small_problem, rho2).value, abs=1e-10
    )


def test_landscape_identical_references_is_flat(small_problem):
    rho = np.full(small_problem.n_elements, 0.5)
    result = analysis.landscape_1d(ArchitectureSpec(kind="direct"), rho, rho, 11, small_problem)
    objectives = result.objective
    assert np.allclose(objectives, objectives[0], rtol=1e-12)
    assert analysis.count_interior_maxima(objectives) == 0


def test_landscape_direct_slice_feasible_when_endpoints_feasible(small_problem):
    n = small_problem.n_elements
    rho1 = np.full(n, 0.5)
    rng = np.random.default_rng(0)
    rho2 = rng.uniform(0, 1, n)
    rho2 *= 0.5 / rho2.mean()  # volume exactly at the target
    rho2 = np.clip(rho2, 0, 1)
    result = analysis.landscape_1d(
        ArchitectureSpec(kind="direct"), rho1, rho2, 21, small_problem
    )
    assert result.violation.sum() == 0
    assert result.fit_mse == (0.0, 0.0)


def test_landscape_warns_on_poor_fit(small_problem):
    # A one-hidden-unit network cannot represent a random field.
    spec = ArchitectureSpec(kind="mlp", width=1, hidden_layers=1)
    rng = np.random.default_rng(1)
    rho1 = np.full(small_problem.n_elements, 0.5)
    rho2 = (rng.uniform(0, 1, small_problem.n_elements) > 0.5).astype(float)
    result = analysis.landscape_1d(spec, rho1, rho2, 3, small_problem, iteration_cap=50)
    assert any("rho_ref_2" in w for w in result.warnings)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5, -0.1])
@pytest.mark.parametrize("which", [1, 2])
def test_landscape_rejects_a_reference_outside_the_unit_interval(small_problem, which, bad):
    refs = [np.full(small_problem.n_elements, 0.5) for _ in range(2)]
    refs[which - 1][3] = bad
    with pytest.raises(ValueError, match=f"rho_ref_{which} must hold finite densities"):
        analysis.landscape_1d(ArchitectureSpec(kind="direct"), *refs, 3, small_problem)


def test_count_interior_maxima_with_noise_floor():
    flat = np.zeros(11)
    assert analysis.count_interior_maxima(flat) == 0
    bump = np.array([0.0, 1.0, 0.0, 5.0, 0.0])
    assert analysis.count_interior_maxima(bump) == 2
    # sub-floor jitter is ignored
    jitter = np.array([0.0, 1e-5, 0.0, 10.0, 0.0, 10.0])
    assert analysis.count_interior_maxima(jitter) == 1


#: Slices with plateaus and ties (small integers) and without (floats).
_SLICES = st.integers(3, 59).flatmap(
    lambda n: st.one_of(
        hnp.arrays(float, n, elements=st.integers(0, 4).map(float)),
        hnp.arrays(float, n, elements=st.floats(-3.0, 3.0)),
    )
)


@pytest.mark.parametrize("fraction", [0.0, 0.01, 0.2])
@settings(max_examples=150, deadline=None)
@given(objectives=_SLICES)
def test_count_interior_maxima_matches_find_peaks(fraction, objectives):
    # The count follows scipy.signal.find_peaks, which the package no longer
    # imports: plateau midpoints and prominences as find_peaks defines them.
    from scipy.signal import find_peaks

    value_range = objectives.max() - objectives.min()
    expected = 0
    if value_range > 0.0:
        expected = find_peaks(objectives, prominence=fraction * value_range)[0].size
    with mock.patch.object(analysis, "NOISE_FLOOR_FRACTION", fraction):
        assert analysis.count_interior_maxima(objectives) == expected


def test_trajectory_metrics_reference_angles():
    traj = Trajectory()
    gradients = [
        np.array([1.0, 0.0]),
        np.array([2.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([0.0, -3.0]),
        np.zeros(2),
    ]
    for g in gradients:
        traj.record(Evaluation(1.0, 0.5, 0.0, g, np.zeros(2)))
    norms, angles = traj.grad_norm, traj.grad_angle
    assert np.allclose(norms, [1, 2, 1, 3, 0])
    assert np.isnan(angles[0])
    assert angles[1] == pytest.approx(0.0, abs=1e-12)
    assert angles[2] == pytest.approx(np.pi / 2, abs=1e-12)
    assert angles[3] == pytest.approx(np.pi, abs=1e-12)
    assert np.isnan(angles[4])


def test_psnr_reference_values():
    base = np.zeros(100)
    off = np.full(100, 1e-3)  # MSE 1e-6
    assert psnr(base, off) == pytest.approx(60.0, abs=1e-9)
    half = np.full(100, 0.5)  # MSE 0.25
    assert psnr(base, half) == pytest.approx(10 * np.log10(4.0), abs=1e-9)
    assert psnr(base, half) == pytest.approx(6.0206, abs=1e-3)
    assert np.isinf(psnr(base, base))


def test_psnr_symmetry():
    rng = np.random.default_rng(2)
    a, b = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
    assert psnr(a, b) == psnr(b, a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["fit", "target"])
def test_psnr_rejects_non_finite_fields(which, bad):
    fields = {"fit": np.full(10, 0.5), "target": np.full(10, 0.5)}
    fields[which][4] = bad
    with pytest.raises(ValueError, match="finite"):
        psnr(**fields)


def test_expressivity_direct_is_exact():
    rng = np.random.default_rng(3)
    targets = [rng.uniform(0, 1, (4, 8)) for _ in range(2)]
    rows = analysis.expressivity_study([ArchitectureSpec(kind="direct")], targets)
    assert np.isinf(rows[0].worst_psnr[0])
    assert np.isinf(rows[0].mean_psnr)


def test_expressivity_reports_worst_case_across_targets():
    rng = np.random.default_rng(4)
    easy = np.full((4, 8), 0.5)
    hard = (rng.uniform(0, 1, (4, 8)) > 0.5).astype(float)
    spec = ArchitectureSpec(kind="mlp", width=4, hidden_layers=1)
    rows = analysis.expressivity_study([spec], [easy, hard], repeats=2, seed=0, iteration_cap=150)
    row = rows[0]
    assert len(row.worst_psnr) == 2
    design_map = reparam.DesignMap(row.spec, 8, 4)
    for repeat, worst in enumerate(row.worst_psnr):
        theta0 = reparam.init_params(row.spec, 8, 4, seed=0 + 1000 * repeat)
        fits = [
            reparam.fit_to_density(design_map, theta0, t, iteration_cap=150)
            for t in (easy, hard)
        ]
        scores = [
            psnr(design_map.forward(f.theta), t)
            for f, t in zip(fits, (easy, hard))
        ]
        assert worst == pytest.approx(min(scores), rel=1e-9)


def test_expressivity_rejects_targets_on_another_grid_before_any_fit(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the grid check")

    monkeypatch.setattr(reparam, "fit_to_density", no_fit)
    wide = np.full((8, 16), 0.5)
    tall = np.full((16, 8), 0.5)
    with pytest.raises(ValueError, match="target 2 is 8x16, but target 0 is 16x8"):
        analysis.expressivity_study([ArchitectureSpec(kind="direct")], [wide, wide, tall])
    with pytest.raises(ValueError, match="target 1 is 128, but target 0 is 16x8"):
        analysis.expressivity_study([ArchitectureSpec(kind="direct")], [wide, wide.ravel()])


@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1.5])
def test_expressivity_rejects_a_bad_target_before_any_fit(monkeypatch, bad):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the targets were checked")

    monkeypatch.setattr(reparam, "fit_to_density", no_fit)
    targets = [np.full((4, 8), 0.5) for _ in range(3)]
    targets[2][1, 5] = bad
    with pytest.raises(ValueError, match="target 2 must hold finite densities"):
        analysis.expressivity_study([ArchitectureSpec(kind="direct")], targets)


def test_analysis_tools_build_one_network_workspace(monkeypatch, small_problem):
    """Fits, slice forwards and scoring forwards all share one tape workspace."""
    built = []

    class CountingWorkspace(reparam._Workspace):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(reparam, "_Workspace", CountingWorkspace)
    spec = ArchitectureSpec(kind="mlp", width=4, hidden_layers=1)
    rng = np.random.default_rng(5)
    targets = [rng.uniform(0, 1, (8, 16)) for _ in range(2)]

    reparam._shared_workspace.cache_clear()
    analysis.expressivity_study([spec], targets, iteration_cap=5)
    assert len(built) == 1

    built.clear()
    reparam._shared_workspace.cache_clear()
    analysis.landscape_1d(spec, targets[0], targets[1], 5, small_problem, iteration_cap=5)
    assert len(built) == 1


def test_performance_profile_single_solver():
    curves = performance_profile(np.array([[3.0, 5.0, 1.0]]), ("a", "b", "c"), np.array([1.0, 2.0, 10.0]))
    assert np.all(curves == 1.0)


def test_performance_profile_hand_example():
    curves = performance_profile(np.array([[1.0, 2.0], [2.0, 1.0]]), ("a", "b"), np.array([1.0, 1.5, 2.0]))
    assert np.allclose(curves[:, 0], [0.5, 0.5])
    assert np.allclose(curves[:, 2], [1.0, 1.0])


def test_performance_profile_ties_share_the_win():
    curves = performance_profile(np.array([[1.0], [1.0]]), ("a",), np.array([1.0]))
    assert np.all(curves == 1.0)


def test_performance_profile_failures_and_monotonicity():
    values = np.array([[1.0, np.inf, 2.0], [1.5, 1.0, np.inf], [3.0, 4.0, 1.0]])
    tau = np.linspace(1, 10, 40)
    curves = performance_profile(values, ("x", "y", "z"), tau)
    assert np.all(np.diff(curves, axis=1) >= 0)
    assert np.all(curves <= 1.0) and np.all(curves >= 0.0)
    # solver c has finite entries everywhere, so it must reach 1
    assert curves[2, -1] == 1.0


def test_performance_profile_rejects_dead_case():
    with pytest.raises(ValueError, match="y"):
        performance_profile(np.array([[1.0, np.inf], [2.0, np.inf]]), ("x", "y"), np.array([1.0]))


def test_performance_profile_validation():
    # An empty, NaN or descending tau grid gave a header-only, zero or
    # descending profile.
    for values, tau_grid, match in (
        ([[-1.0, 1.0]], [1.0], "non-negative"),
        ([[np.nan, 1.0]], [1.0], "non-negative"),
        (np.ones((2, 3)), [1.0], "one column per case"),
        ([1.0, 1.0], [1.0], "one column per case"),
        ([[1.0, 1.0]], [], "tau grid"),
        ([[1.0, 1.0]], [1.0, np.nan], "tau grid"),
        ([[1.0, 1.0]], [1.0, np.inf], "tau grid"),
        ([[1.0, 1.0]], [0.5, 1.0], "tau grid"),
        ([[1.0, 1.0]], [1.0, 0.75, 0.5], "tau grid"),
        ([[1.0, 1.0]], [[1.0, 2.0]], "tau grid"),
    ):
        with pytest.raises(ValueError, match=match):
            performance_profile(values, ("x", "y"), np.array(tau_grid))


def test_convergence_iteration_examples():
    assert convergence_iteration([5.0, 5.0, 5.0]) == 0
    assert convergence_iteration([10.0, 5.0, 4.0, 4.001, 4.0]) == 2
    tol = CONVERGENCE_TOL_FRACTION
    assert convergence_iteration([10.0, 4.0 * (1 + 2 * tol), 4.0 * (1 + tol / 2), 4.0]) == 2
    decreasing = [10.0, 8.0, 6.0, 5.0, 4.5]
    assert convergence_iteration(decreasing) == len(decreasing) - 1
    with pytest.raises(ValueError):
        convergence_iteration([])
