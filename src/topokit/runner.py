"""The optimization loop composing reparameterizations with the physics.

Each problem kind has a setup that returns the start point, the bounds of
the MMA box and an evaluator ``evaluate(x)``. The evaluator returns the
objective, volume, violation and objective gradient, the constraint values,
a zero-argument callable giving the constraint Jacobian, and the design.
One loop in ``run_optimization`` drives MMA or Adam over any evaluator. It
calls the Jacobian only right before an MMA step, so no constraint gradient
is taken after the final evaluation.

Grid problems run one of two pipelines. With MMA the volume constraint is
handed to the optimizer explicitly and network outputs are sigmoid-bounded:

    theta -> network -> sigmoid -> density filter -> FE analysis

With Adam the problem is unconstrained because the filtered field passes
through the shifted-sigmoid projection, which pins the volume exactly:

    theta -> network (raw) -> density filter -> projection -> FE analysis

The two-bar truss's decision variables are either the bar areas or the
three weights of the sinusoidal micro-net. Its constraints are the relaxed
stress constraints with their analytic Jacobian, and it runs under MMA only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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
from .reparam import ArchitectureSpec, CoordinateGrid, ParamVector


@dataclass
class RunResult:
    trajectory: Trajectory
    theta: ParamVector
    design: np.ndarray
    pretrain_mse: float | None = None


class DesignMap:
    """Composite map from decision variables to physical densities."""

    def __init__(
        self,
        spec: ArchitectureSpec,
        grid: CoordinateGrid,
        filter_op: pipeline.FilterOperator | None = None,
        projection: pipeline.VolumeBudget | None = None,
    ):
        self.spec = spec
        self.grid = grid
        self.filter_op = filter_op
        self.projection = projection

    def forward_with_vjp(self, theta_values: np.ndarray):
        field, net_vjp = reparam.forward_with_vjp(self.spec, theta_values, self.grid)
        if self.filter_op is not None:
            field = self.filter_op.apply(field)
        if self.projection is None:
            def vjp_fun(w):
                if self.filter_op is not None:
                    w = self.filter_op.vjp(w)
                return net_vjp(w)

            return field, vjp_fun

        shift = pipeline.find_volume_shift(field, self.projection.target)
        rho = expit(field + shift)

        def vjp_fun(w, field=field, shift=shift):
            w = pipeline.shifted_sigmoid_vjp(field, self.projection, w, shift=shift)
            if self.filter_op is not None:
                w = self.filter_op.vjp(w)
            return net_vjp(w)

        return rho, vjp_fun

    def forward(self, theta_values: np.ndarray) -> np.ndarray:
        rho, _ = self.forward_with_vjp(theta_values)
        return rho


def evaluate_design(problem: ProblemSpec, rho_phys: np.ndarray) -> fem.ObjectiveEval:
    """Objective of a physical density field under the problem's physics."""
    return fem.evaluate_objective(problem.domain, problem.physics, rho_phys, problem.penalty)


def threshold_and_rescale(problem: ProblemSpec, rho_phys: np.ndarray):
    """Black-and-white projection plus volume-corrected compliance.

    Returns (thresholded field, its objective, rescaled objective, its
    volume fraction).
    """
    budget = pipeline.VolumeBudget(target=problem.volume_target)
    rho_bw = pipeline.threshold(rho_phys, budget)
    value = evaluate_design(problem, rho_bw).value
    v_th = pipeline.volume_fraction(rho_bw)
    rescaled = pipeline.rescale_thresholded_compliance(value, v_th, problem.volume_target)
    return rho_bw, value, rescaled, v_th


def _grid_setup(problem: ProblemSpec, reparam_spec, optimizer, seed, pretrain, theta0):
    use_mma = isinstance(optimizer, MmaConfig)
    bounding = "sigmoid" if use_mma else "shifted_sigmoid"
    spec = dataclasses.replace(reparam_spec, output_bounding=bounding)
    grid = reparam.coordinate_grid(problem.nx, problem.ny)
    if theta0 is None:
        theta = reparam.init_params(spec, problem.nx, problem.ny, seed)
    elif isinstance(theta0, ParamVector):
        theta = theta0
    else:
        layout = reparam.param_layout(spec, problem.nx, problem.ny)
        theta = ParamVector(values=np.asarray(theta0, dtype=float), layout=layout)
    pretrain_mse = None
    if pretrain:
        result = reparam.pretrain_uniform(spec, theta, grid, problem.volume_target)
        theta, pretrain_mse = result.theta, result.mse

    filter_op = pipeline.build_filter(problem.nx, problem.ny, problem.filter_radius)
    v0 = problem.volume_target
    n = problem.n_elements
    if use_mma:
        design_map = DesignMap(spec, grid, filter_op, None)
        b = optimizer.theta_bound
        box = (0.0, 1.0) if spec.kind == "direct" else (-b, b)
        cotangent = np.full(n, 1.0 / (n * v0))  # of the volume constraint
    else:
        design_map = DesignMap(spec, grid, filter_op, pipeline.VolumeBudget(target=v0))
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
    if not isinstance(optimizer, MmaConfig):
        raise ValueError("the two-bar problem is optimized with MMA")
    if reparam_spec.kind == "direct":
        layout, start, box = (("areas", (2,)),), (1.0, 1.0), TWOBAR_AREA_BOX

        def areas_and_jacobian(values):
            return np.clip(values, *TWOBAR_AREA_BOX), np.eye(2)

    elif reparam_spec.kind == "siren":
        b = optimizer.theta_bound
        layout, start, box = (("weights", (3,)),), TWOBAR_THETA0, (-b, b)

        def areas_and_jacobian(values):
            return twobar_siren_forward(values, reparam_spec.omega0)

    else:
        raise ValueError("two-bar supports the direct and siren reparameterizations")
    values = start if theta0 is None else theta0
    theta = ParamVector(values=np.asarray(values, dtype=float), layout=layout)

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
) -> RunResult:
    """Run one optimization for ``budget`` function evaluations past the
    initial one, recording a full trajectory. Deterministic for fixed seed.
    A start point outside the MMA box is clipped into it.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if isinstance(problem, TwoBarProblem):
        theta, box, evaluate, pretrain_mse = _twobar_setup(reparam_spec, optimizer, theta0)
    elif isinstance(problem, ProblemSpec):
        theta, box, evaluate, pretrain_mse = _grid_setup(
            problem, reparam_spec, optimizer, seed, pretrain, theta0
        )
    else:
        raise TypeError(f"unsupported problem type {type(problem)!r}")

    use_mma = isinstance(optimizer, MmaConfig)
    if use_mma:
        lo, hi = box
        state = MmaState(lower=np.full(len(theta), lo), upper=np.full(len(theta), hi))
        x = np.clip(theta.values, lo, hi)
    else:
        state = AdamState.zeros(len(theta))
        x = theta.values
    trajectory = Trajectory()
    for it in range(budget + 1):
        if it:
            if use_mma:
                x = mma_step(state, x, grad, g, jacobian(), optimizer)
            else:
                x = adam_step(state, x, grad, optimizer)
        objective, volume, violation, grad, g, jacobian, design = evaluate(x)
        trajectory.record(objective, volume, violation, grad, design)

    return RunResult(
        trajectory=trajectory,
        theta=theta.replace_values(x),
        design=design,
        pretrain_mse=pretrain_mse,
    )
