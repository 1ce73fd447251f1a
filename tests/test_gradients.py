"""End-to-end gradients: theta -> DesignMap -> FE objective.

Every gradient an optimizer consumes is checked against central finite
differences along random directions, for each physics, mapping and
pipeline on a 16x8 grid. The ``mma`` pipeline bounds a network's field
with a sigmoid and then filters it (direct densities are only filtered);
the ``adam`` pipeline filters and then applies the shifted-sigmoid volume
projection.

The stencil is 1e-5. The projection's shift is found to a few ulp of the
volume; while it was bisected to a 1e-12 interval, its noise made two
``adam`` cases fail at 1e-5 and the stencil had to be 1e-4. At 1e-6 one
case (mechanism, CNN, adam) fails on round-off in the objective. A
direction whose stencil straddles a Leaky-ReLU kink gives a useless
difference quotient; it is detected by comparing two stencil widths and
skipped.
"""

import numpy as np
import pytest

from topokit import pipeline, reparam
from topokit.problems import make_problem
from topokit.reparam import ArchitectureSpec, DesignMap
from topokit.runner import evaluate_design

NX, NY = 16, 8
PROBLEMS = {"compliance": "michell", "thermal": "thermal", "mechanism": "mechanism"}
SPECS = {
    "direct": ArchitectureSpec(kind="direct"),
    "mlp": ArchitectureSpec(kind="mlp", width=6, hidden_layers=2),
    "siren": ArchitectureSpec(kind="siren", width=6, hidden_layers=2),
    "cnn": ArchitectureSpec(kind="cnn", upsample=(2, 4)),
}
DIRECTIONS = 3


def directional_fd(func, x, delta, eps=1e-5, rtol=1e-5):
    """Central difference along delta, None when a kink contaminates it."""
    def central(h):
        return (func(x + h * delta) - func(x - h * delta)) / (2 * h)

    wide, narrow = central(eps), central(0.5 * eps)
    if abs(wide - narrow) > rtol * max(abs(wide), abs(narrow), 1e-9):
        return None
    return narrow


@pytest.mark.parametrize("path", ["mma", "adam"])
@pytest.mark.parametrize("kind", list(SPECS))
@pytest.mark.parametrize("physics", list(PROBLEMS))
def test_objective_gradient_matches_finite_differences(physics, kind, path):
    _assert_gradient_matches_finite_differences(physics, kind, path, NX, NY)


@pytest.mark.parametrize("path", ["mma", "adam"])
@pytest.mark.parametrize("physics", list(PROBLEMS))
def test_cnn_gradient_on_an_untiled_grid(physics, path):
    # The (2, 4) upsampling tiles multiples of 8: the decoder covers 20x12
    # with a 24x16 image and crops its centre.
    _assert_gradient_matches_finite_differences(physics, "cnn", path, 20, 12)


def _assert_gradient_matches_finite_differences(physics, kind, path, nx, ny):
    problem = make_problem(PROBLEMS[physics], nx, ny)
    spec = SPECS[kind]
    filter_op = pipeline.build_filter(nx, ny, problem.filter_radius)
    volume_target = problem.volume_target if path == "adam" else None
    design_map = DesignMap(spec, nx, ny, filter_op, volume_target)
    rng = np.random.default_rng(sorted(PROBLEMS).index(physics) * 8 + sorted(SPECS).index(kind))
    theta = reparam.init_params(spec, nx, ny, seed=1)
    if kind == "direct":
        theta = rng.uniform(0.2, 0.8, theta.size)  # inside the MMA box
    else:
        theta = theta + 0.1 * rng.standard_normal(theta.size)

    rho, vjp_fun = design_map.forward_with_vjp(theta)
    if volume_target is not None:
        assert rho.mean() == pytest.approx(problem.volume_target, abs=1e-14)
    elif kind != "direct":
        assert rho.min() > 0.0 and rho.max() < 1.0
    grad = vjp_fun(evaluate_design(problem, rho).grad_wrt_density)

    def objective(values):
        return evaluate_design(problem, design_map.forward(values)).value

    checked = 0
    for _ in range(4 * DIRECTIONS):
        delta = rng.standard_normal(theta.size)
        delta /= np.linalg.norm(delta)
        fd = directional_fd(objective, theta, delta)
        if fd is None:
            continue
        assert grad @ delta == pytest.approx(fd, rel=1e-5, abs=1e-9 * np.linalg.norm(grad))
        checked += 1
        if checked == DIRECTIONS:
            break
    assert checked == DIRECTIONS, "too many kink-contaminated directions"
