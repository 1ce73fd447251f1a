"""Outer optimization loop: pipelines, budgets, determinism."""

import numpy as np
import pytest

from topokit import pipeline, reparam, runner
from topokit.optimizers import AdamConfig, MmaConfig
from topokit.problems import TWOBAR_THETA0, make_problem
from topokit.reparam import ArchitectureSpec, DesignMap
from topokit.runner import run_optimization, threshold_and_rescale


@pytest.fixture(scope="module")
def small_problem():
    return make_problem("mbb", 16, 8, 0.5)


def test_zero_budget_records_only_initial_evaluation(small_problem):
    traj = run_optimization(
        small_problem,
        ArchitectureSpec(kind="direct"),
        MmaConfig(move_limit=0.2, asyinit=0.5),
        budget=0,
    )
    assert traj.iterations == 1
    assert traj.volume[0] == pytest.approx(0.5, abs=1e-12)


def test_runs_are_deterministic_per_seed(small_problem):
    spec = ArchitectureSpec(kind="siren", width=6, hidden_layers=2)
    settings = AdamConfig(learning_rate=0.01, grad_clip=0.1)
    a = run_optimization(small_problem, spec, settings, budget=5, seed=3)
    b = run_optimization(small_problem, spec, settings, budget=5, seed=3)
    assert a.objective == b.objective
    assert np.array_equal(a.designs[-1], b.designs[-1])
    c = run_optimization(small_problem, spec, settings, budget=5, seed=4)
    assert a.objective != c.objective


def test_adam_run_holds_volume_exactly(small_problem):
    spec = ArchitectureSpec(kind="mlp", width=6, hidden_layers=2)
    traj = run_optimization(
        small_problem, spec, AdamConfig(learning_rate=0.02), budget=10, seed=0
    )
    assert np.abs(np.asarray(traj.volume) - 0.5).max() <= 1e-9
    assert max(traj.constraint_violation) <= 1e-9


def test_mma_baseline_respects_volume_and_improves(small_problem):
    traj = run_optimization(
        small_problem,
        ArchitectureSpec(kind="direct"),
        MmaConfig(move_limit=0.1, asyinit=0.3),
        budget=30,
    )
    assert traj.best_feasible_objective < traj.objective[0]
    assert traj.best_feasible_design is not None
    # MMA keeps the volume constraint essentially active
    assert traj.volume[-1] <= 0.5 * (1 + 1e-6)


def test_mma_network_iterates_stay_in_theta_box(small_problem):
    # Direct densities are not clipped by their mapping: the [0, 1] box is
    # their only bound, so every iterate must stay inside it.
    for spec, (lo, hi) in (
        (ArchitectureSpec(kind="siren", width=6, hidden_layers=2), (-1.5, 1.5)),
        (ArchitectureSpec(kind="direct"), (0.0, 1.0)),
    ):
        traj = run_optimization(
            small_problem,
            spec,
            MmaConfig(move_limit=0.2, asyinit=0.2, theta_bound=1.5),
            budget=15,
            seed=1,
            theta0=np.linspace(-0.5, 1.5, 128) if spec.kind == "direct" else None,
        )
        assert traj.theta.min() >= lo and traj.theta.max() <= hi
        assert all(design.min() >= 0.0 and design.max() <= 1.0 for design in traj.designs)


def test_design_map_chains_filter_and_projection_vjps(small_problem):
    spec = ArchitectureSpec(kind="siren", width=6, hidden_layers=2)
    grid = reparam.coordinate_grid(16, 8)
    filt = pipeline.build_filter(16, 8, 1.6)
    dm = DesignMap(spec, grid, filt, 0.4)
    rng = np.random.default_rng(5)
    theta = reparam.init_params(spec, 16, 8, seed=5)
    rho, vjp_fun = dm.forward_with_vjp(theta)
    assert rho.mean() == pytest.approx(0.4, abs=1e-9)
    w = rng.standard_normal(rho.size)
    delta = rng.standard_normal(theta.size)
    delta /= np.linalg.norm(delta)
    analytic = vjp_fun(w) @ delta  # before the forwards below overwrite the tape
    eps = 1e-6
    fd = (dm.forward(theta + eps * delta) @ w - dm.forward(theta - eps * delta) @ w) / (2 * eps)
    assert analytic == pytest.approx(fd, rel=1e-5)


def test_twobar_requires_mma():
    with pytest.raises(ValueError, match="MMA"):
        run_optimization(
            make_problem("twobar"),
            ArchitectureSpec(kind="siren"),
            AdamConfig(learning_rate=0.1),
            budget=1,
        )


def test_adam_at_full_volume_fails_before_initialisation(monkeypatch):
    # The projection's check used to fire in the first pretraining forward.
    def no_init(*args, **kwargs):
        raise AssertionError("the parameters were initialised before the check")

    monkeypatch.setattr(reparam, "init_params", no_init)
    with pytest.raises(ValueError, match="strictly in"):
        run_optimization(
            make_problem("mbb", 8, 4, 1.0),
            ArchitectureSpec(kind="mlp", width=4, hidden_layers=1),
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
    traj = run_optimization(
        small_problem, spec, AdamConfig(learning_rate=0.01), budget=0, seed=0, pretrain=True
    )
    design = traj.designs[0]
    assert np.sqrt(np.mean((design - 0.5) ** 2)) < 1e-2


def _twobar_run(kind="siren", **kwargs):
    return run_optimization(
        make_problem("twobar"),
        ArchitectureSpec(kind=kind, omega0=88.0),
        MmaConfig(move_limit=0.31, asyinit=0.1, theta_bound=3.0, c_const=3.0),
        **kwargs,
    )


def test_twobar_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        _twobar_run(budget=-1)


@pytest.mark.parametrize(
    "kind, theta0, size", [("siren", [0.0, 0.0], 3), ("direct", [1.0, 1.0, 1.0], 2)]
)
def test_twobar_rejects_theta0_of_wrong_length_before_any_step(monkeypatch, kind, theta0, size):
    def no_step(*args, **kwargs):
        raise AssertionError("an MMA step ran")

    monkeypatch.setattr(runner, "mma_step", no_step)
    with pytest.raises(ValueError, match=f"layout needs {size}"):
        _twobar_run(kind, budget=3, theta0=theta0)


@pytest.mark.parametrize("kind, start", [("direct", (1.0, 1.0)), ("siren", TWOBAR_THETA0)])
def test_twobar_start_point_is_its_default_and_never_pretrains(kind, start):
    spec = ArchitectureSpec(kind=kind, omega0=88.0)
    theta, mse = runner.start_point(make_problem("twobar"), spec, True, 0, True, None)
    assert np.array_equal(theta, start) and mse is None


@pytest.mark.parametrize("problem", [("twobar",), ("mbb", 8, 4, 0.5)], ids=["twobar", "grid"])
def test_start_point_rejects_theta0_of_wrong_length_before_any_work(monkeypatch, problem):
    def no_work(*args, **kwargs):
        raise AssertionError("the start was initialized or pretrained")

    monkeypatch.setattr(reparam, "init_params", no_work)
    monkeypatch.setattr(reparam, "pretrain_uniform", no_work)
    spec = ArchitectureSpec(kind="siren", width=4, hidden_layers=1)
    with pytest.raises(ValueError, match="theta0 has shape \\(5,\\), layout needs"):
        runner.start_point(make_problem(*problem), spec, True, 0, True, np.zeros(5))


def test_twobar_clips_theta0_into_the_box():
    traj = _twobar_run(budget=5, theta0=[0.0, 0.0, -5.0])
    assert traj.iterations == 6
    assert np.abs(traj.theta).max() <= 3.0


@pytest.mark.parametrize(
    "optimizer, vjps",
    [
        (MmaConfig(move_limit=0.05, asyinit=0.2, theta_bound=2.0), lambda budget: 2 * budget + 1),
        (AdamConfig(learning_rate=0.01), lambda budget: budget + 1),
    ],
    ids=["mma", "adam"],
)
def test_network_vjp_runs_once_per_gradient(small_problem, monkeypatch, optimizer, vjps):
    # One VJP per objective gradient, plus one per MMA step for the volume
    # constraint; none for a constraint gradient no step consumes.
    calls = []
    forward_with_vjp = reparam.forward_with_vjp

    def counting_forward_with_vjp(*args, **kwargs):
        field, vjp_fun = forward_with_vjp(*args, **kwargs)

        def counted(w):
            calls.append(1)
            return vjp_fun(w)

        return field, counted

    monkeypatch.setattr(reparam, "forward_with_vjp", counting_forward_with_vjp)
    spec = ArchitectureSpec(kind="mlp", width=6, hidden_layers=2)
    run_optimization(small_problem, spec, optimizer, budget=4, pretrain=False)
    assert len(calls) == vjps(4)
