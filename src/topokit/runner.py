"""The optimization loop composing reparameterizations with the physics.

Each problem kind has a setup that returns the start point, the bounds of
the MMA box and an evaluator ``evaluate(x)``. The evaluator returns the
objective, volume, violation and objective gradient, the constraint values,
a zero-argument callable giving the constraint Jacobian, and the design.
One loop in ``run_optimization`` drives MMA or Adam over any evaluator. It
calls the Jacobian only right before an MMA step, so no constraint gradient
is taken after the final evaluation. A run returns its
:class:`optimizers.Trajectory`, which is the one run record: every
evaluation, the final point θ and the pretraining error.

Grid problems run one of two pipelines, both composed by
:class:`reparam.DesignMap`. With MMA the volume constraint is handed to the
optimizer explicitly and a network's raw field is sigmoid-bounded:

    theta -> network -> sigmoid -> density filter -> FE analysis

With Adam the problem is unconstrained because the filtered field passes
through the shifted-sigmoid projection, which pins the volume exactly at
the problem's volume target, a float:

    theta -> network -> density filter -> projection -> FE analysis

Direct densities skip the sigmoid: the MMA box [0, 1] bounds them.

The decision variables θ are one flat float array, laid out by
:func:`theta_layout`. The two-bar truss's are either the bar areas or the
three weights of the sinusoidal micro-net. Its constraints are the relaxed
stress constraints with their analytic Jacobian, and it runs under MMA only.
"""

from __future__ import annotations

import numpy as np

from . import fem, pipeline, reparam
from .optimizers import AdamConfig, AdamState, MmaConfig, MmaState, Trajectory, adam_step, mma_step
from .problems import (
    TWOBAR_AREA_BOX,
    TWOBAR_THETA0,
    ProblemSpec,
    TwoBarProblem,
    twobar_eval,
    twobar_siren_forward,
)
from .reparam import ArchitectureSpec, DesignMap


def evaluate_design(problem: ProblemSpec, rho_phys: np.ndarray) -> fem.ObjectiveEval:
    """Objective of a physical density field under the problem's physics."""
    return fem.evaluate_objective(problem.domain, rho_phys, problem.penalty)


def threshold_and_rescale(problem: ProblemSpec, rho_phys: np.ndarray):
    """Black-and-white projection plus volume-corrected compliance.

    Returns (thresholded field, its objective, rescaled objective, its
    volume fraction).
    """
    rho_bw = pipeline.threshold(rho_phys, problem.volume_target)
    value = evaluate_design(problem, rho_bw).value
    v_th = pipeline.volume_fraction(rho_bw)
    rescaled = pipeline.rescale_thresholded_compliance(value, v_th, problem.volume_target)
    return rho_bw, value, rescaled, v_th


def theta_layout(problem, spec: ArchitectureSpec) -> reparam.Layout:
    """The named segments of θ for a problem and reparameterization.

    A grid problem's layout is :func:`reparam.param_layout` on its grid. The
    two-bar's θ is its two bar areas (direct) or the micro-net's three
    weights (siren); it refuses the other kinds.
    """
    if not isinstance(problem, TwoBarProblem):
        return reparam.param_layout(spec, problem.nx, problem.ny)
    if spec.kind == "direct":
        return (("areas", (2,)),)
    if spec.kind == "siren":
        return (("weights", (3,)),)
    raise ValueError("two-bar supports the direct and siren reparameterizations")


def check_optimizer(problem, kind: str) -> None:
    """The problem × optimizer rules for an optimizer of ``kind``, ``mma``
    or ``adam``: the two-bar runs under MMA only, and Adam on a grid needs a
    volume target the exact-volume projection reaches."""
    if isinstance(problem, TwoBarProblem) and kind != "mma":
        raise ValueError("the two-bar problem is optimized with MMA")
    if isinstance(problem, ProblemSpec) and kind == "adam":
        pipeline.check_projection_target(problem.volume_target)


def _grid_setup(problem: ProblemSpec, spec, optimizer, seed, pretrain, theta0):
    use_mma = isinstance(optimizer, MmaConfig)
    grid = reparam.coordinate_grid(problem.nx, problem.ny)
    theta = reparam.init_params(spec, problem.nx, problem.ny, seed) if theta0 is None else theta0
    v0 = problem.volume_target
    volume_target = None if use_mma else v0  # Adam projects onto it
    pretrain_mse = None
    if pretrain:
        result = reparam.pretrain_uniform(DesignMap(spec, grid, None, volume_target), theta, v0)
        theta, pretrain_mse = result.theta, result.mse

    filter_op = pipeline.build_filter(problem.nx, problem.ny, problem.filter_radius)
    design_map = DesignMap(spec, grid, filter_op, volume_target)
    n = problem.n_elements
    if use_mma:
        b = optimizer.theta_bound
        box = (0.0, 1.0) if spec.kind == "direct" else (-b, b)
        cotangent = np.full(n, 1.0 / (n * v0))  # of the volume constraint
    else:
        box = cotangent = None

    def evaluate(values):
        rho, vjp_fun = design_map.forward_with_vjp(values)
        ev = evaluate_design(problem, rho)
        grad = vjp_fun(ev.grad_wrt_density)
        vol = pipeline.volume_fraction(rho)
        violation = max(0.0, vol / v0 - 1.0)
        if cotangent is None:  # Adam: the projection pins the volume
            return ev.value, vol, violation, grad, None, None, rho
        g = np.array([vol / v0 - 1.0])
        return ev.value, vol, violation, grad, g, lambda: vjp_fun(cotangent).reshape(1, -1), rho

    return theta, box, evaluate, pretrain_mse


def _twobar_setup(reparam_spec: ArchitectureSpec, optimizer, theta0):
    if reparam_spec.kind == "direct":  # theta_layout admits direct and siren only
        start, box = (1.0, 1.0), TWOBAR_AREA_BOX

        def areas_and_jacobian(values):
            return np.clip(values, *TWOBAR_AREA_BOX), np.eye(2)

    else:
        b = optimizer.theta_bound
        start, box = TWOBAR_THETA0, (-b, b)

        def areas_and_jacobian(values):
            return twobar_siren_forward(values, reparam_spec.omega0)

    theta = np.array(start, dtype=float) if theta0 is None else theta0

    def evaluate(values):
        areas, jac = areas_and_jacobian(values)
        ev = twobar_eval(areas[0], areas[1])
        violation = max(0.0, float(ev.gbar.max()))
        return (
            ev.mass, float("nan"), violation, ev.dmass @ jac, ev.gbar, lambda: ev.dgbar @ jac, areas
        )

    return theta, box, evaluate, None


def run_optimization(
    problem,
    reparam_spec: ArchitectureSpec,
    optimizer: MmaConfig | AdamConfig,
    budget: int,
    seed: int = 0,
    pretrain: bool = True,
    theta0=None,
) -> Trajectory:
    """Run one optimization for ``budget`` function evaluations past the
    initial one and return its trajectory, the final point and the
    pretraining error included. Deterministic for fixed seed. ``theta0``, if
    given, is the flat start point in :func:`theta_layout` order; one
    outside the MMA box is clipped into it.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if not isinstance(problem, (TwoBarProblem, ProblemSpec)):
        raise TypeError(f"unsupported problem type {type(problem)!r}")
    use_mma = isinstance(optimizer, MmaConfig)
    check_optimizer(problem, "mma" if use_mma else "adam")
    size = reparam.layout_size(theta_layout(problem, reparam_spec))
    if theta0 is not None:
        theta0 = np.array(theta0, dtype=float)
        if theta0.shape != (size,):
            raise ValueError(f"theta0 has shape {theta0.shape}, layout needs {size}")
    if isinstance(problem, TwoBarProblem):
        theta, box, evaluate, pretrain_mse = _twobar_setup(reparam_spec, optimizer, theta0)
    else:
        theta, box, evaluate, pretrain_mse = _grid_setup(
            problem, reparam_spec, optimizer, seed, pretrain, theta0
        )

    if use_mma:
        lo, hi = box
        state = MmaState(lower=np.full(size, lo), upper=np.full(size, hi))
        x = np.clip(theta, lo, hi)
    else:
        state = AdamState.zeros(size)
        x = theta
    trajectory = Trajectory(pretrain_mse=pretrain_mse)
    for it in range(budget + 1):
        if it:
            if use_mma:
                x = mma_step(state, x, grad, g, jacobian(), optimizer)
            else:
                x = adam_step(state, x, grad, optimizer)
        objective, volume, violation, grad, g, jacobian, design = evaluate(x)
        trajectory.record(objective, volume, violation, grad, design)
    trajectory.theta = x
    return trajectory
