"""Outer optimization loop: pipelines, budgets, determinism."""

import numpy as np
import pytest

from topokit import pipeline, reparam
from topokit.optimizers import AdamConfig, MmaConfig
from topokit.problems import make_problem
from topokit.reparam import ArchitectureSpec
from topokit.runner import DesignMap, run_optimization, threshold_and_rescale


@pytest.fixture(scope="module")
def small_problem():
    return make_problem("mbb", (16, 8), 0.5)


def test_zero_budget_records_only_initial_evaluation(small_problem):
    result = run_optimization(
        small_problem,
        ArchitectureSpec(kind="direct"),
        MmaConfig(move_limit=0.2, asyinit=0.5),
        budget=0,
    )
    assert result.trajectory.iterations == 1
    assert result.trajectory.volume[0] == pytest.approx(0.5, abs=1e-12)


def test_runs_are_deterministic_per_seed(small_problem):
    spec = ArchitectureSpec(kind="siren", width=6, hidden_layers=2)
    settings = AdamConfig(learning_rate=0.01, grad_clip=0.1)
    a = run_optimization(small_problem, spec, settings, budget=5, seed=3)
    b = run_optimization(small_problem, spec, settings, budget=5, seed=3)
    assert a.trajectory.objective == b.trajectory.objective
    assert np.array_equal(a.design, b.design)
    c = run_optimization(small_problem, spec, settings, budget=5, seed=4)
    assert a.trajectory.objective != c.trajectory.objective


def test_adam_run_holds_volume_exactly(small_problem):
    spec = ArchitectureSpec(kind="mlp", width=6, hidden_layers=2)
    result = run_optimization(
        small_problem, spec, AdamConfig(learning_rate=0.02), budget=10, seed=0
    )
    assert np.abs(np.asarray(result.trajectory.volume) - 0.5).max() <= 1e-9
    assert max(result.trajectory.constraint_violation) <= 1e-9


def test_mma_baseline_respects_volume_and_improves(small_problem):
    result = run_optimization(
        small_problem,
        ArchitectureSpec(kind="direct"),
        MmaConfig(move_limit=0.1, asyinit=0.3),
        budget=30,
    )
    traj = result.trajectory
    assert traj.best_feasible_objective < traj.objective[0]
    assert traj.best_feasible_design is not None
    # MMA keeps the volume constraint essentially active
    assert traj.volume[-1] <= 0.5 * (1 + 1e-6)


def test_mma_network_iterates_stay_in_theta_box(small_problem):
    spec = ArchitectureSpec(kind="siren", width=6, hidden_layers=2)
    result = run_optimization(
        small_problem,
        spec,
        MmaConfig(move_limit=0.05, asyinit=0.2, theta_bound=1.5),
        budget=15,
        seed=1,
    )
    assert np.abs(result.theta.values).max() <= 1.5 + 1e-12


def test_design_map_chains_filter_and_projection_vjps(small_problem):
    spec = ArchitectureSpec(
        kind="siren", width=6, hidden_layers=2, output_bounding="shifted_sigmoid"
    )
    grid = reparam.coordinate_grid(16, 8)
    filt = pipeline.build_filter(16, 8, 1.6)
    dm = DesignMap(spec, grid, filt, pipeline.VolumeBudget(0.4))
    rng = np.random.default_rng(5)
    theta = reparam.init_params(spec, 16, 8, seed=5).values
    rho, vjp_fun = dm.forward_with_vjp(theta)
    assert rho.mean() == pytest.approx(0.4, abs=1e-9)
    w = rng.standard_normal(rho.size)
    delta = rng.standard_normal(theta.size)
    delta /= np.linalg.norm(delta)
    eps = 1e-6
    fd = (dm.forward(theta + eps * delta) @ w - dm.forward(theta - eps * delta) @ w) / (2 * eps)
    assert vjp_fun(w) @ delta == pytest.approx(fd, rel=1e-5)


def test_twobar_requires_mma():
    with pytest.raises(ValueError, match="MMA"):
        run_optimization(
            make_problem("twobar"),
            ArchitectureSpec(kind="siren"),
            AdamConfig(learning_rate=0.1),
            budget=1,
        )


def test_threshold_and_rescale_consistency(small_problem):
    rng = np.random.default_rng(6)
    rho = rng.uniform(0, 1, small_problem.n_elements)
    rho_bw, c_th, c_rescaled, v_th = threshold_and_rescale(small_problem, rho)
    assert set(np.unique(rho_bw)) <= {0.001, 1.0}
    assert c_rescaled == c_th * v_th / small_problem.volume_target


def test_pretrained_network_starts_near_uniform(small_problem):
    spec = ArchitectureSpec(kind="mlp", width=6, hidden_layers=2)
    result = run_optimization(
        small_problem, spec, AdamConfig(learning_rate=0.01), budget=0, seed=0, pretrain=True
    )
    design = result.trajectory.designs[0]
    assert np.sqrt(np.mean((design - 0.5) ** 2)) < 1e-2
