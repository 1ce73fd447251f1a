"""MMA and Adam step behavior, plus trajectory bookkeeping."""

import numpy as np
import pytest

from topokit.optimizers import (
    AdamConfig,
    AdamState,
    MmaConfig,
    MmaState,
    Trajectory,
    adam_step,
    clip_by_global_norm,
    gradient_angle,
    mma_step,
)


def test_mma_respects_move_limit_and_bounds():
    rng = np.random.default_rng(0)
    n = 12
    cfg = MmaConfig(move_limit=0.15, asyinit=0.4)
    state = MmaState(lower=np.full(n, -1.0), upper=np.full(n, 2.0))
    x = rng.uniform(-1, 2, n)
    for _ in range(25):
        dfdx = rng.standard_normal(n) * rng.uniform(0.1, 50)
        g = np.array([rng.uniform(-0.5, 0.5)])
        dgdx = rng.standard_normal((1, n))
        x_next = mma_step(state, x, dfdx, g, dgdx, cfg)
        assert np.abs(x_next - x).max() <= 0.15 * 3.0 + 1e-12
        assert np.all(x_next >= -1.0 - 1e-12) and np.all(x_next <= 2.0 + 1e-12)
        x = x_next


def test_mma_converges_on_convex_quadratic():
    # Unconstrained 1-D quadratic: the minimizer is known analytically. The
    # objective decreases monotonically through the descent phase; once the
    # minimizer is reached the iterates enter the usual small limit cycle
    # (the reference implementations oscillate identically), so strict
    # monotonicity is only asserted until the neighborhood is first hit.
    cfg = MmaConfig(move_limit=0.05, asyinit=0.1)
    state = MmaState(lower=np.zeros(1), upper=np.ones(1))
    x = np.array([0.9])
    history = []
    for _ in range(50):
        history.append((x[0] - 0.3) ** 2)
        x = mma_step(state, x, np.array([2 * (x[0] - 0.3)]), np.zeros(0), np.zeros((0, 1)), cfg)
    assert abs(x[0] - 0.3) < 1e-4
    descent_end = next(i for i, f in enumerate(history) if f < 1e-8)
    assert all(history[i + 1] <= history[i] + 1e-14 for i in range(descent_end))


def test_mma_descends_on_linear_objective_with_inactive_constraints():
    # Mass-like linear objective: with slack constraints both variables must
    # move downward on the first step.
    cfg = MmaConfig(move_limit=0.1, asyinit=0.3)
    state = MmaState(lower=np.zeros(2), upper=np.full(2, 2.0))
    x = np.array([1.0, 1.0])
    g = np.array([-0.3, -0.2])
    dgdx = np.array([[-0.1, 0.05], [0.02, -0.1]])
    x_next = mma_step(state, x, np.array([0.6, 0.8]), g, dgdx, cfg)
    assert np.all(x_next < x)


def test_adam_zero_gradient_is_identity():
    state = AdamState.zeros(4)
    theta = np.array([1.0, -2.0, 3.0, 0.5])
    cfg = AdamConfig(learning_rate=0.1)
    assert np.array_equal(adam_step(state, theta, np.zeros(4), cfg), theta)


def test_adam_first_step_magnitude_approaches_learning_rate():
    # With bias correction the first step is lr * g / (|g| + eps'), close to
    # lr for gradients far above the epsilon floor.
    state = AdamState.zeros(3)
    theta = np.zeros(3)
    grad = np.array([5.0, -0.5, 100.0])
    cfg = AdamConfig(learning_rate=0.01)
    step = adam_step(state, theta, grad, cfg) - theta
    assert np.allclose(np.abs(step), 0.01, rtol=1e-6)
    assert np.all(np.sign(step) == -np.sign(grad))


def test_adam_clip_rescales_to_threshold():
    grad = np.array([3.0, 4.0])  # norm 5
    clipped = clip_by_global_norm(grad, 0.5)
    assert np.allclose(clipped, grad * 0.1)
    assert np.allclose(clip_by_global_norm(grad, 10.0), grad)
    # norm 10 clipped at 1 scales by 0.1
    g10 = np.array([10.0])
    assert np.allclose(clip_by_global_norm(g10, 1.0), np.array([1.0]))


def test_adam_step_linear_in_learning_rate():
    theta = np.array([0.3, -0.7])
    grad = np.array([1.0, 2.0])
    steps = {}
    for lr in (1e-3, 5e-4):
        state = AdamState.zeros(2)
        steps[lr] = adam_step(state, theta, grad, AdamConfig(learning_rate=lr)) - theta
    assert np.allclose(steps[1e-3], 2.0 * steps[5e-4], rtol=1e-12)


def test_gradient_angle_reference_values():
    a = np.array([1.0, 0.0])
    assert gradient_angle(a, a) == pytest.approx(0.0, abs=1e-12)
    assert gradient_angle(a, -a) == pytest.approx(np.pi, abs=1e-12)
    assert gradient_angle(a, np.array([0.0, 2.0])) == pytest.approx(np.pi / 2, abs=1e-12)
    assert np.isnan(gradient_angle(a, np.zeros(2)))


def test_trajectory_angles_lie_in_range_and_best_feasible_tracked():
    rng = np.random.default_rng(1)
    traj = Trajectory()
    for i in range(10):
        traj.record(
            objective=10.0 - i,
            volume=0.5,
            violation=0.0 if i % 2 == 0 else 1e-3,
            gradient=rng.standard_normal(6),
            design=rng.uniform(0, 1, 4),
        )
    angles = np.array(traj.grad_angle[1:])
    assert np.all((angles >= 0.0) & (angles <= np.pi))
    assert np.isnan(traj.grad_angle[0])
    # only even iterations were feasible; the best is the last even one
    assert traj.best_feasible_iteration == 8
    assert traj.best_feasible_objective == 2.0


def test_config_validation():
    with pytest.raises(ValueError):
        MmaConfig(move_limit=0.0, asyinit=0.1)
    with pytest.raises(ValueError):
        MmaConfig(move_limit=0.1, asyinit=0.1, theta_bound=0.0)
    with pytest.raises(ValueError):
        MmaConfig(move_limit=0.1, asyinit=0.1, c_const=-1.0)
    with pytest.raises(ValueError):
        MmaState(lower=np.ones(2), upper=np.ones(2))
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=float("nan"))
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=0.1, grad_clip=0.0)
