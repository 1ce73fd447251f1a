"""Analysis protocols: 1-D objective landscapes between density-space
reference points, PSNR expressivity studies, performance profiles, and
post-hoc convergence detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import pipeline, reparam
from .problems import ProblemSpec
from .runner import evaluate_design

#: Volume overshoot flagged as a constraint violation on landscape slices.
VIOLATION_TOL = 1e-9
#: Fit error above which a landscape endpoint gets a warning attached.
FIT_WARN_THRESHOLD = 1e-2
#: Fraction of the slice's objective range treated as numerical jitter when
#: counting interior local maxima.
NOISE_FLOOR_FRACTION = 1e-3
#: A run has converged at its first objective within this fraction of the
#: best objective's magnitude above the best.
CONVERGENCE_TOL_FRACTION = 0.01


@dataclass(frozen=True)
class LandscapeSample:
    alpha: float
    objective: float
    constraint: float
    violation: bool


@dataclass
class LandscapeResult:
    samples: list[LandscapeSample]
    fit_mse: tuple[float, float]
    warnings: list[str] = field(default_factory=list)

    @property
    def objectives(self) -> np.ndarray:
        return np.array([s.objective for s in self.samples])

    @property
    def n_violations(self) -> int:
        return sum(s.violation for s in self.samples)


def _field_values(field, n_expected: int, name: str) -> np.ndarray:
    """``field`` flattened, checked by :func:`pipeline.first_bad_density`."""
    values = np.asarray(field, dtype=float).ravel()
    if values.size != n_expected:
        raise ValueError(f"{name} has {values.size} entries, expected {n_expected}")
    bad = pipeline.first_bad_density(values)
    if bad is not None:
        raise ValueError(f"{name} must hold finite densities in [0, 1]; {bad!r} is not")
    return values


def landscape_1d(
    reparam_spec: reparam.ArchitectureSpec,
    rho_ref_1,
    rho_ref_2,
    n_alpha: int,
    problem: ProblemSpec,
    seed: int = 0,
    iteration_cap: int = reparam.FIT_ITERATION_CAP,
) -> LandscapeResult:
    """Objective and constraint along the decision-space line between two
    density-space reference points.

    Both reference points are regressed into decision space through the
    sigmoid-bounded, unfiltered design map in at most ``iteration_cap`` Adam
    iterations; F(h(theta_alpha)) and the volume constraint are then evaluated
    on a uniform alpha grid including both endpoints.
    """
    if n_alpha < 2:
        raise ValueError("need at least the two endpoint samples")
    rho1 = _field_values(rho_ref_1, problem.n_elements, "rho_ref_1")
    rho2 = _field_values(rho_ref_2, problem.n_elements, "rho_ref_2")
    design_map = reparam.DesignMap(reparam_spec, reparam.coordinate_grid(problem.nx, problem.ny))

    theta0 = reparam.init_params(reparam_spec, problem.nx, problem.ny, seed)
    fit1 = reparam.fit_to_density(design_map, theta0, rho1, iteration_cap=iteration_cap)
    fit2 = reparam.fit_to_density(design_map, theta0, rho2, iteration_cap=iteration_cap)
    warnings_list = []
    for label, fit in (("rho_ref_1", fit1), ("rho_ref_2", fit2)):
        if fit.mse > FIT_WARN_THRESHOLD:
            warnings_list.append(f"fit of {label} reached MSE {fit.mse:.3e} above threshold")

    samples = []
    for alpha in np.linspace(0.0, 1.0, n_alpha):
        theta_alpha = fit1.theta + alpha * (fit2.theta - fit1.theta)
        rho = design_map.forward(theta_alpha)
        objective = evaluate_design(problem, rho).value
        constraint = float(rho.mean()) - problem.volume_target
        samples.append(
            LandscapeSample(
                alpha=float(alpha),
                objective=objective,
                constraint=constraint,
                violation=constraint > VIOLATION_TOL,
            )
        )
    return LandscapeResult(samples=samples, fit_mse=(fit1.mse, fit2.mse), warnings=warnings_list)


def count_interior_maxima(objectives: np.ndarray) -> int:
    """Strict interior local maxima with prominence above the noise floor.

    The rules are ``scipy.signal.find_peaks``' with only a prominence bound,
    counted here because importing ``scipy.signal`` cost a landscape run
    0.7-0.8 s and 46 MB: a flat top counts once, at its middle sample, and
    a peak's prominence is its height above the higher of the lowest
    samples on either side before a higher one.
    """
    objectives = np.asarray(objectives, dtype=float)
    value_range = objectives.max() - objectives.min()
    if value_range <= 0.0:
        return 0
    floor = NOISE_FLOOR_FRACTION * value_range
    values = objectives.tolist()
    count = 0
    i = 1
    while i < len(values) - 1:
        if values[i - 1] < values[i]:
            ahead = i + 1
            while ahead < len(values) - 1 and values[ahead] == values[i]:
                ahead += 1
            if values[ahead] < values[i]:  # a top from i to ahead - 1
                if _prominence(values, (i + ahead - 1) // 2) >= floor:
                    count += 1
                i = ahead
        i += 1
    return count


def _prominence(values: list[float], peak: int) -> float:
    top = values[peak]
    side_minima = []
    for direction in (-1, 1):
        i, lowest = peak, top
        while 0 <= i < len(values) and values[i] <= top:
            lowest = min(lowest, values[i])
            i += direction
        side_minima.append(lowest)
    return top - max(side_minima)


def psnr(fit, target) -> float:
    """Peak signal-to-noise ratio in decibels for unit-range images."""
    a = np.asarray(fit, dtype=float).ravel()
    b = np.asarray(target, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError("field sizes differ")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("psnr needs finite fields")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


@dataclass(frozen=True)
class ExpressivityRow:
    spec: reparam.ArchitectureSpec
    param_count: int
    worst_psnr: tuple[float, ...]
    mean_psnr: float
    std_psnr: float


def _grid_name(shape: tuple[int, ...]) -> str:
    """``nx x ny`` of an (ny, nx) image shape."""
    return "x".join(map(str, reversed(shape)))


def expressivity_study(
    specs: Sequence[reparam.ArchitectureSpec],
    targets: Sequence[np.ndarray],
    repeats: int = 1,
    seed: int = 0,
    iteration_cap: int = reparam.FIT_ITERATION_CAP,
) -> list[ExpressivityRow]:
    """Worst-case reconstruction quality of each architecture.

    Every spec fits every target within ``iteration_cap`` iterations; the
    per-repeat score is the minimum PSNR across targets, and repeats
    restart from fresh seeds. Targets are (ny, nx) density images, all on
    the first target's grid; every target is checked before the first fit.
    """
    if not targets:
        raise ValueError("need at least one target design")
    shape = np.shape(targets[0])
    if len(shape) != 2:
        raise ValueError(f"target 0 has shape {shape}; targets are (ny, nx) images")
    ny, nx = shape
    for index, target in enumerate(targets):
        if np.shape(target) != shape:
            raise ValueError(
                f"target {index} is {_grid_name(np.shape(target))}, but target 0 is "
                f"{_grid_name(shape)}: every target must share one grid"
            )
        _field_values(target, nx * ny, f"target {index}")
    grid = reparam.coordinate_grid(nx, ny)
    rows = []
    for spec in specs:
        design_map = reparam.DesignMap(spec, grid)
        worst_scores = []
        for repeat in range(repeats):
            theta0 = reparam.init_params(spec, nx, ny, seed + 1000 * repeat)
            scores = []
            for target in targets:
                fit = reparam.fit_to_density(design_map, theta0, target, iteration_cap=iteration_cap)
                scores.append(psnr(design_map.forward(fit.theta), target))
            worst_scores.append(min(scores))
        finite = [s for s in worst_scores if np.isfinite(s)]
        rows.append(
            ExpressivityRow(
                spec=spec,
                param_count=reparam.param_count(spec, nx, ny),
                worst_psnr=tuple(worst_scores),
                mean_psnr=float(np.mean(worst_scores)),
                std_psnr=float(np.std(finite)) if len(finite) == len(worst_scores) else float("nan"),
            )
        )
    return rows


def performance_profile(values, cases: Sequence[str], tau_grid) -> np.ndarray:
    """Fraction of cases each solver wins within tolerance tau.

    ``values`` is the solver-by-case metric matrix, one column per name in
    ``cases``, with +inf for a failed run. Returns an array of shape
    (n_solvers, len(tau_grid)); curves are monotone non-decreasing and reach
    1 for solvers with all-finite rows. ``tau_grid`` is a non-empty,
    finite, non-decreasing sequence of ratios >= 1.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(cases):
        raise ValueError(f"metric matrix has shape {values.shape}, expected one column per case")
    if np.any(values < 0.0) or np.any(np.isnan(values)):
        raise ValueError("metric entries must be non-negative (or +inf for failures)")
    tau_grid = np.asarray(tau_grid, dtype=float)
    if not (
        tau_grid.ndim == 1 and tau_grid.size and np.all(np.isfinite(tau_grid))
        and tau_grid[0] >= 1.0 and np.all(np.diff(tau_grid) >= 0.0)
    ):
        raise ValueError(
            f"tau grid must be non-empty, finite, non-decreasing and >= 1, got {tau_grid.tolist()!r:.60}"
        )
    col_min = values.min(axis=0)
    if np.any(~np.isfinite(col_min)):
        bad = [cases[j] for j in np.nonzero(~np.isfinite(col_min))[0]]
        raise ValueError(f"every solver failed on case(s): {', '.join(bad)}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(
            col_min[None, :] > 0.0,
            values / col_min[None, :],
            np.where(values == 0.0, 1.0, np.inf),
        )
    return (ratios[:, None, :] <= tau_grid[None, :, None]).mean(axis=2)


def convergence_iteration(objective_history: Sequence[float]) -> int:
    """First iteration whose objective is within CONVERGENCE_TOL_FRACTION of the best."""
    history = np.asarray(objective_history, dtype=float)
    if history.size == 0:
        raise ValueError("objective history is empty")
    best = history.min()
    threshold = best + CONVERGENCE_TOL_FRACTION * abs(best)
    return int(np.nonzero(history <= threshold)[0][0])
