"""End-to-end gradients: theta -> DesignMap -> FE objective.

Every gradient an optimizer consumes is checked against central finite
differences along random directions, for each physics, mapping and
pipeline on a 16x8 grid. The ``mma`` pipeline bounds a network's field
with a sigmoid and then filters it (direct densities are only filtered);
the ``adam`` pipeline filters and then applies the shifted-sigmoid volume
projection.

The stencil is wide, 1e-4: the projection's shift is bisected to 1e-12,
which puts noise of about 1e-5 relative into quotients at 1e-6. A
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
    "cnn": ArchitectureSpec(kind="cnn", cnn_upsample=(2, 4)),
}
DIRECTIONS = 3


def directional_fd(func, x, delta, eps=1e-4, rtol=1e-5):
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
    problem = make_problem(PROBLEMS[physics], (NX, NY))
    spec = SPECS[kind]
    filter_op = pipeline.build_filter(NX, NY, problem.filter_radius)
    projection = pipeline.VolumeBudget(problem.volume_target) if path == "adam" else None
    design_map = DesignMap(spec, reparam.coordinate_grid(NX, NY), filter_op, projection)
    rng = np.random.default_rng(sorted(PROBLEMS).index(physics) * 8 + sorted(SPECS).index(kind))
    theta = reparam.init_params(spec, NX, NY, seed=1).values
    if kind == "direct":
        theta = rng.uniform(0.2, 0.8, theta.size)  # inside the MMA box
    else:
        theta = theta + 0.1 * rng.standard_normal(theta.size)

    rho, vjp_fun = design_map.forward_with_vjp(theta)
    if projection is not None:
        assert rho.mean() == pytest.approx(problem.volume_target, abs=1e-9)
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
