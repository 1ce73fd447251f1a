"""The optimization loop composing reparameterizations with the physics.

:func:`start_point` decides every run's start θ, grid or two-bar. Each
problem kind has an evaluator ``evaluate(x)`` returning an
:class:`optimizers.Evaluation`: objective, volume, violation, gradient and
design, and under MMA the constraint values and a zero-argument callable
giving their Jacobian. One loop in ``run_optimization`` drives MMA or Adam
over any evaluator. It calls the Jacobian only right before an MMA step, so
no constraint gradient is taken after the final evaluation. A run returns
its :class:`optimizers.Trajectory`, which is the one run record: every
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
from .optimizers import (
    AdamConfig, AdamState, Evaluation, MmaConfig, MmaState, Trajectory, adam_step, mma_step
)
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


def start_point(problem, spec: ArchitectureSpec, use_mma: bool, seed, pretrain, theta0):
    """The start θ of a run and its pretraining error (None without pretraining).

    θ is ``theta0`` if given, checked against :func:`theta_layout` first.
    Otherwise it is the two-bar's unit areas (direct) or ``TWOBAR_THETA0``
    (siren), or a grid network's seeded initialization. On a grid,
    ``pretrain`` then fits θ to the uniform field at the volume target
    through the run's pipeline without the filter: sigmoid-bounded under MMA
    (``use_mma``), the exact-volume projection under Adam. The start depends
    on nothing else, so a sweep computes it once and passes it to every run
    as ``theta0`` with ``pretrain=False``.
    """
    size = reparam.layout_size(theta_layout(problem, spec))
    if theta0 is not None:
        theta = np.array(theta0, dtype=float)
        if theta.shape != (size,):
            raise ValueError(f"theta0 has shape {theta.shape}, layout needs {size}")
    elif isinstance(problem, TwoBarProblem):
        theta = np.array((1.0, 1.0) if spec.kind == "direct" else TWOBAR_THETA0, dtype=float)
    else:
        theta = reparam.init_params(spec, problem.nx, problem.ny, seed)
    if not pretrain or isinstance(problem, TwoBarProblem):
        return theta, None
    v0 = problem.volume_target
    grid = reparam.coordinate_grid(problem.nx, problem.ny)
    result = reparam.pretrain_uniform(DesignMap(spec, grid, None, None if use_mma else v0), theta, v0)
    return result.theta, result.mse


def _grid_evaluator(problem: ProblemSpec, spec: ArchitectureSpec, use_mma: bool):
    v0 = problem.volume_target
    grid = reparam.coordinate_grid(problem.nx, problem.ny)
    filter_op = pipeline.build_filter(problem.nx, problem.ny, problem.filter_radius)
    design_map = DesignMap(spec, grid, filter_op, None if use_mma else v0)  # Adam projects onto v0
    cotangent = np.full(problem.n_elements, 1.0 / (problem.n_elements * v0))  # of the volume constraint

    def evaluate(values) -> Evaluation:
        rho, vjp_fun = design_map.forward_with_vjp(values)
        ev = evaluate_design(problem, rho)
        grad = vjp_fun(ev.grad_wrt_density)
        vol = pipeline.volume_fraction(rho)
        violation = max(0.0, vol / v0 - 1.0)
        if not use_mma:  # the projection pins the volume
            return Evaluation(ev.value, vol, violation, grad, rho)
        g = np.array([vol / v0 - 1.0])
        return Evaluation(
            ev.value, vol, violation, grad, rho, g, lambda: vjp_fun(cotangent).reshape(1, -1)
        )

    return evaluate


def _twobar_evaluator(spec: ArchitectureSpec):
    def evaluate(values) -> Evaluation:
        if spec.kind == "direct":  # theta_layout admits direct and siren only
            areas, jac = np.clip(values, *TWOBAR_AREA_BOX), np.eye(2)
        else:
            areas, jac = twobar_siren_forward(values, spec.omega0)
        ev = twobar_eval(areas[0], areas[1])
        violation = max(0.0, float(ev.gbar.max()))
        return Evaluation(
            ev.mass, float("nan"), violation, ev.dmass @ jac, areas, ev.gbar, lambda: ev.dgbar @ jac
        )

    return evaluate


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
    x, pretrain_mse = start_point(problem, reparam_spec, use_mma, seed, pretrain, theta0)
    if isinstance(problem, TwoBarProblem):
        evaluate = _twobar_evaluator(reparam_spec)
    else:
        evaluate = _grid_evaluator(problem, reparam_spec, use_mma)

    if use_mma:  # direct variables keep their physical box, network weights get ±theta_bound
        b = optimizer.theta_bound
        physical = TWOBAR_AREA_BOX if isinstance(problem, TwoBarProblem) else (0.0, 1.0)
        lo, hi = physical if reparam_spec.kind == "direct" else (-b, b)
        state = MmaState(lower=np.full(x.size, lo), upper=np.full(x.size, hi))
        x = np.clip(x, lo, hi)
    else:
        state = AdamState.zeros(x.size)
    trajectory = Trajectory(pretrain_mse=pretrain_mse)
    for it in range(budget + 1):
        if it:
            if use_mma:
                x = mma_step(state, x, last.gradient, last.constraints, last.jacobian(), optimizer)
            else:
                x = adam_step(state, x, last.gradient, optimizer)
        last = evaluate(x)
        trajectory.record(last)
    trajectory.theta = x
    return trajectory
