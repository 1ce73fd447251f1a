"""Analysis protocols: 1-D objective landscapes between density-space
reference points, PSNR expressivity studies, performance profiles, and
post-hoc convergence detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import reparam
from .fields import DensityField
from .problems import ProblemSpec
from .runner import evaluate_design

#: Volume overshoot flagged as a constraint violation on landscape slices.
VIOLATION_TOL = 1e-9
#: Fit error above which a landscape endpoint gets a warning attached.
FIT_WARN_THRESHOLD = 1e-2
#: Fraction of the slice's objective range treated as numerical jitter when
#: counting interior local maxima.
NOISE_FLOOR_FRACTION = 1e-3


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
    def alphas(self) -> np.ndarray:
        return np.array([s.alpha for s in self.samples])

    @property
    def n_violations(self) -> int:
        return sum(s.violation for s in self.samples)


def _field_values(target, n_expected: int) -> np.ndarray:
    values = target.values if isinstance(target, DensityField) else np.asarray(target, dtype=float).ravel()
    if values.size != n_expected:
        raise ValueError(f"field has {values.size} entries, expected {n_expected}")
    return values


def landscape_1d(
    reparam_spec: reparam.ArchitectureSpec,
    rho_ref_1,
    rho_ref_2,
    n_alpha: int,
    problem: ProblemSpec,
    seed: int = 0,
    fit_kwargs: dict | None = None,
    fit_warn_threshold: float = FIT_WARN_THRESHOLD,
    violation_tol: float = VIOLATION_TOL,
) -> LandscapeResult:
    """Objective and constraint along the decision-space line between two
    density-space reference points.

    Both reference points are regressed into the reparameterization's
    decision space through its sigmoid-bounded, unfiltered design map, then
    the objective F(h(theta_alpha)) and volume constraint are evaluated on a
    uniform alpha grid including both endpoints.
    """
    if n_alpha < 2:
        raise ValueError("need at least the two endpoint samples")
    rho1 = _field_values(rho_ref_1, problem.n_elements)
    rho2 = _field_values(rho_ref_2, problem.n_elements)
    design_map = reparam.DesignMap(reparam_spec, reparam.coordinate_grid(problem.nx, problem.ny))
    kwargs = fit_kwargs or {}

    theta0 = reparam.init_params(reparam_spec, problem.nx, problem.ny, seed)
    fit1 = reparam.fit_to_density(design_map, theta0, rho1, **kwargs)
    fit2 = reparam.fit_to_density(design_map, theta0, rho2, **kwargs)
    warnings_list = []
    for label, fit in (("rho_ref_1", fit1), ("rho_ref_2", fit2)):
        if fit.mse > fit_warn_threshold:
            warnings_list.append(f"fit of {label} reached MSE {fit.mse:.3e} above threshold")

    samples = []
    for alpha in np.linspace(0.0, 1.0, n_alpha):
        theta_alpha = fit1.theta.values + alpha * (fit2.theta.values - fit1.theta.values)
        rho = design_map.forward(theta_alpha)
        objective = evaluate_design(problem, rho).value
        constraint = float(rho.mean()) - problem.volume_target
        samples.append(
            LandscapeSample(
                alpha=float(alpha),
                objective=objective,
                constraint=constraint,
                violation=constraint > violation_tol,
            )
        )
    return LandscapeResult(samples=samples, fit_mse=(fit1.mse, fit2.mse), warnings=warnings_list)


def count_interior_maxima(objectives: np.ndarray, noise_floor: float = NOISE_FLOOR_FRACTION) -> int:
    """Strict interior local maxima with prominence above the noise floor."""
    # scipy.signal costs most of a second to import; only this function needs it.
    from scipy.signal import find_peaks

    objectives = np.asarray(objectives, dtype=float)
    value_range = objectives.max() - objectives.min()
    if value_range <= 0.0:
        return 0
    peaks, _ = find_peaks(objectives, prominence=noise_floor * value_range)
    return int(peaks.size)


def psnr(fit, target) -> float:
    """Peak signal-to-noise ratio in decibels for unit-range images."""
    a = fit.values if isinstance(fit, DensityField) else np.asarray(fit, dtype=float).ravel()
    b = target.values if isinstance(target, DensityField) else np.asarray(target, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError("field sizes differ")
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


def expressivity_study(
    specs: Sequence[reparam.ArchitectureSpec],
    targets: Sequence[DensityField],
    repeats: int = 1,
    seed: int = 0,
    fit_kwargs: dict | None = None,
) -> list[ExpressivityRow]:
    """Worst-case reconstruction quality of each architecture.

    Every spec fits every target; the per-repeat score is the minimum PSNR
    across targets, and repeats restart from fresh seeds.
    """
    if not targets:
        raise ValueError("need at least one target design")
    nx, ny = targets[0].nx, targets[0].ny
    grid = reparam.coordinate_grid(nx, ny)
    kwargs = fit_kwargs or {}
    rows = []
    for spec in specs:
        design_map = reparam.DesignMap(spec, grid)
        worst_scores = []
        for repeat in range(repeats):
            theta0 = reparam.init_params(spec, nx, ny, seed + 1000 * repeat)
            scores = []
            for target in targets:
                fit = reparam.fit_to_density(design_map, theta0, target.values, **kwargs)
                scores.append(psnr(design_map.forward(fit.theta.values), target.values))
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


@dataclass(frozen=True)
class MetricTable:
    """Solver-by-case metric matrix; failed runs are +inf entries."""

    values: np.ndarray
    solvers: tuple[str, ...]
    cases: tuple[str, ...]
    metric: str = "best_objective"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.solvers), len(self.cases)):
            raise ValueError("metric matrix shape does not match solver/case names")
        if np.any(values < 0.0) or np.any(np.isnan(values)):
            raise ValueError("metric entries must be non-negative (or +inf for failures)")


def performance_profile(table: MetricTable, tau_grid: np.ndarray) -> np.ndarray:
    """Fraction of cases each solver wins within tolerance tau.

    Returns an array of shape (n_solvers, len(tau_grid)); curves are
    monotone non-decreasing and reach 1 for solvers with all-finite rows.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    values = table.values
    col_min = values.min(axis=0)
    if np.any(~np.isfinite(col_min)):
        bad = [table.cases[j] for j in np.nonzero(~np.isfinite(col_min))[0]]
        raise ValueError(f"every solver failed on case(s): {', '.join(bad)}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(
            col_min[None, :] > 0.0,
            values / col_min[None, :],
            np.where(values == 0.0, 1.0, np.inf),
        )
    return (ratios[:, None, :] <= tau_grid[None, :, None]).mean(axis=2)


def convergence_iteration(objective_history: Sequence[float], tol_fraction: float = 0.01) -> int:
    """First iteration whose objective is within the tolerance of the best."""
    history = np.asarray(objective_history, dtype=float)
    if history.size == 0:
        raise ValueError("objective history is empty")
    best = history.min()
    threshold = best + tol_fraction * abs(best)
    return int(np.nonzero(history <= threshold)[0][0])
