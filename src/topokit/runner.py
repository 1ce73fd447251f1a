"""Outer optimization loops composing reparameterizations with the physics.

Two pipelines are wired here. With MMA the volume constraint is handed to
the optimizer explicitly and network outputs are sigmoid-bounded:

    theta -> network -> sigmoid -> density filter -> FE analysis

With Adam the problem is unconstrained because the filtered field passes
through the shifted-sigmoid projection, which pins the volume exactly:

    theta -> network (raw) -> density filter -> projection -> FE analysis

The two-bar truss bypasses the grid pipeline entirely; its decision
variables are either the bar areas or the three weights of the sinusoidal
micro-net.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import fem, pipeline, reparam
from .optimizers import AdamConfig, AdamState, MmaConfig, MmaState, Trajectory, adam_step, mma_step
from .problems import TWOBAR_AREA_BOX, ProblemSpec, TwoBarProblem, twobar_eval, twobar_siren_forward
from .reparam import ArchitectureSpec, CoordinateGrid, ParamVector

#: Relative volume violation below which an iterate counts as feasible.
FEASIBLE_TOL = 1e-6

#: Default starting weights of the two-bar micro-net. The hidden activation
#: is exactly zero here, so the areas start at (1, 1) like the baseline
#: while theta3 already selects the descending branch of the output sine.
TWOBAR_THETA0 = (0.0, 0.0, -2.9)

#: MMA feasibility-penalty constant for the two-bar presets. It must exceed
#: the active constraint multipliers (about 1.2 at the optima) but stay
#: moderate: a stiff penalty pins the iterates to the feasible boundary and
#: the relaxed near-feasible band around the stress-constrained optimum
#: becomes untraversable.
TWOBAR_MMA_C = 3.0


@dataclass
class RunResult:
    trajectory: Trajectory
    theta: ParamVector
    design: np.ndarray
    problem: object
    reparam_spec: ArchitectureSpec | None
    pretrain_mse: float | None = None

    @property
    def final_objective(self) -> float:
        return self.trajectory.objective[-1]


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


def _prepare_theta(problem, spec, seed, pretrain, theta0):
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
        theta = result.theta
        pretrain_mse = result.mse
    return grid, theta, pretrain_mse


def run_optimization(
    problem,
    reparam_spec: ArchitectureSpec,
    optimizer: MmaConfig | AdamConfig,
    budget: int,
    seed: int = 0,
    pretrain: bool = True,
    theta0=None,
    feasible_tol: float = FEASIBLE_TOL,
) -> RunResult:
    """Run one optimization for ``budget`` function evaluations past the
    initial one, recording a full trajectory. Deterministic for fixed seed.
    """
    if isinstance(problem, TwoBarProblem):
        return _run_twobar(problem, reparam_spec, optimizer, budget, theta0, feasible_tol)
    if not isinstance(problem, ProblemSpec):
        raise TypeError(f"unsupported problem type {type(problem)!r}")
    if budget < 0:
        raise ValueError("budget must be non-negative")

    use_mma = isinstance(optimizer, MmaConfig)
    bounding = "sigmoid" if use_mma else "shifted_sigmoid"
    spec = dataclasses.replace(reparam_spec, output_bounding=bounding)
    grid, theta, pretrain_mse = _prepare_theta(problem, spec, seed, pretrain, theta0)

    filter_op = pipeline.build_filter(problem.nx, problem.ny, problem.filter_radius)
    v0 = problem.volume_target
    n = problem.n_elements

    if use_mma:
        design_map = DesignMap(spec, grid, filter_op, None)
        if spec.kind == "direct":
            lower, upper = np.zeros(len(theta)), np.ones(len(theta))
        else:
            b = optimizer.theta_bound
            lower, upper = np.full(len(theta), -b), np.full(len(theta), b)
        mma_state = MmaState(lower=lower, upper=upper)
        x = np.clip(theta.values.copy(), lower, upper)
    else:
        design_map = DesignMap(spec, grid, filter_op, pipeline.VolumeBudget(target=v0))
        adam_state = AdamState.zeros(len(theta))
        x = theta.values.copy()

    trajectory = Trajectory()

    def evaluate(values):
        rho, vjp_fun = design_map.forward_with_vjp(values)
        ev = evaluate_design(problem, rho)
        grad = vjp_fun(ev.grad_wrt_density)
        vol = pipeline.volume_fraction(rho)
        return rho, ev.value, vol, grad, vjp_fun

    rho, value, vol, grad, vjp_fun = evaluate(x)
    violation = max(0.0, vol / v0 - 1.0)
    trajectory.record(value, vol, violation, grad, rho, feasible_tol)

    for _ in range(budget):
        if use_mma:
            gval = np.array([vol / v0 - 1.0])
            dg = vjp_fun(np.full(n, 1.0 / (n * v0))).reshape(1, -1)
            x = mma_step(mma_state, x, grad, gval, dg, optimizer)
        else:
            x = adam_step(adam_state, x, grad, optimizer)
        rho, value, vol, grad, vjp_fun = evaluate(x)
        violation = max(0.0, vol / v0 - 1.0)
        trajectory.record(value, vol, violation, grad, rho, feasible_tol)

    return RunResult(
        trajectory=trajectory,
        theta=theta.replace_values(x),
        design=rho,
        problem=problem,
        reparam_spec=spec,
        pretrain_mse=pretrain_mse,
    )


def _run_twobar(problem, reparam_spec, optimizer, budget, theta0, feasible_tol) -> RunResult:
    if not isinstance(optimizer, MmaConfig):
        raise ValueError("the two-bar problem is optimized with MMA")
    kind = reparam_spec.kind
    if kind not in ("direct", "siren"):
        raise ValueError("two-bar supports the direct and siren reparameterizations")

    if kind == "direct":
        x = np.array([1.0, 1.0]) if theta0 is None else np.asarray(theta0, dtype=float).ravel()
        lower, upper = np.full(2, TWOBAR_AREA_BOX[0]), np.full(2, TWOBAR_AREA_BOX[1])
        layout = (("areas", (2,)),)
    else:
        x = (
            np.array(TWOBAR_THETA0)
            if theta0 is None
            else np.asarray(theta0, dtype=float).ravel()
        )
        b = optimizer.theta_bound
        lower, upper = np.full(3, -b), np.full(3, b)
        layout = (("weights", (3,)),)

    def evaluate(values):
        if kind == "direct":
            areas = np.clip(values, *TWOBAR_AREA_BOX)
            jac = np.eye(2)
        else:
            areas, jac = twobar_siren_forward(values, reparam_spec.omega0)
        ev = twobar_eval(areas[0], areas[1])
        dmass = ev.dmass @ jac
        dgbar = ev.dgbar @ jac
        return areas, ev, dmass, dgbar

    state = MmaState(lower=lower, upper=upper)
    trajectory = Trajectory()

    areas, ev, dmass, dgbar = evaluate(x)
    trajectory.record(
        ev.mass, float("nan"), max(0.0, float(ev.gbar.max())), dmass, areas, feasible_tol
    )
    for _ in range(budget):
        x = mma_step(state, x, dmass, ev.gbar, dgbar, optimizer)
        areas, ev, dmass, dgbar = evaluate(x)
        trajectory.record(
            ev.mass, float("nan"), max(0.0, float(ev.gbar.max())), dmass, areas, feasible_tol
        )

    return RunResult(
        trajectory=trajectory,
        theta=ParamVector(values=x, layout=layout),
        design=areas,
        problem=problem,
        reparam_spec=reparam_spec,
    )
