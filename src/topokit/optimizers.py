"""First-order optimizers: the method of moving asymptotes and Adam.

The MMA step builds Svanberg's separable convex approximation around the
current iterate (Svanberg 1987) and solves the subproblem with a
primal-dual interior-point Newton scheme (Svanberg 2002). Asymptotes start
at ``x -/+ asyinit * (upper - lower)`` and afterwards expand or contract
depending on the oscillation sign of each variable. The per-step move limit
and the variable box are both enforced exactly by the subproblem bounds.

The subsolve computes its n-long products with ``np.einsum`` and
elementwise reductions, never with BLAS (``@``, ``np.linalg.norm``). Its
products are m-by-n with m of 1 to 3, too thin for BLAS to gain anything,
and at n of 10k and more OpenBLAS hands them to its worker threads. On a
2-core VM, the first MMA step on 12 800 direct densities took 0.87 s in
1 of 12 fresh processes with BLAS products (42-67 ms in the other 11);
without them it took 23-36 ms in all 12. Adam's global-norm clip and the
trajectory's gradient norms and angles reduce without BLAS for the same
reason.

For the same thinness the subsolve holds its m-long state (multipliers,
slacks, their Newton steps and the m-long residual and step-ratio terms)
as lists of Python floats, updated in one loop over the constraints, and
solves the m-by-m Newton system, which is symmetric positive definite by
construction, with a small LDL^T. Every grid run has m = 1: there each of
the dozens of numpy calls per Newton step on a 1-element array cost
0.4-2 us and ``np.linalg.solve`` 15-20 us, while the float arithmetic is
the same operation for operation, and at m = 1 the LDL^T is rhs / a, which
is what LAPACK returned. So grid runs are bit-identical to the array
version. Per subsolve on the 39 subproblems of the three MMA benchmark
configs (2-core x86-64 VM, median of 21 rounds) the time fell from 6.2 to
4.6 ms at n = 1961, 13.8 to 12.2 ms at n = 8504 and 23.7 to 21.0 ms at
n = 12 800.

Adam is the standard bias-corrected variant, preceded by global-norm
gradient clipping.

Each optimizer has one config type, ``MmaConfig`` or ``AdamConfig``,
holding only the values runs set differently. Values no run changes are
module constants: ``ASY_INCR``/``ASY_DECR``, ``A0``, ``D_CONST`` and
``ADAM_BETA1``/``ADAM_BETA2``/``ADAM_EPS``. The variable box of an MMA run
belongs to its decision vector and lives in ``MmaState``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from . import pipeline

# Subproblem constants. The minimum asymptote gap is tighter than
# Svanberg's 0.01 so that late iterations can localize an unconstrained
# minimizer below 1e-4; the remaining constants are the published ones.
ASY_SHRINK_MIN = 1e-4
ASY_GROW_MAX = 10.0
ALBEFA = 0.1
RAA0 = 1e-5
SUBPROBLEM_EPSILON = 1e-7
MAX_INNER_ITERS = 200
#: Asymptote expansion / contraction factors for non-oscillating /
#: oscillating variables.
ASY_INCR = 1.2
ASY_DECR = 0.7
#: Artificial-variable constants: the objective weight of z, and the
#: quadratic weight of each y_i (the linear weight is ``MmaConfig.c_const``).
A0 = 1.0
D_CONST = 1.0
#: Adam's moment decay rates and denominator floor (the published defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class SubproblemError(RuntimeError):
    """The MMA subproblem solver failed: its Newton system was not positive
    definite, or it stalled above its target residual."""


def _require_numbers(config) -> None:
    """Reject a config value that is not a number; a bool is not one."""
    for item in fields(config):
        value = getattr(config, item.name)
        if not pipeline.is_number(value):
            raise ValueError(f"{item.name!r} must be a number, got {value!r:.60}")


@dataclass(frozen=True)
class MmaConfig:
    """MMA hyperparameters of one run.

    Network parameters live in the box [-theta_bound, theta_bound]; direct
    variables keep their physical box. ``c_const`` is the linear penalty on
    Svanberg's artificial variables y_i; it must exceed the active
    constraint multipliers.
    """

    move_limit: float
    asyinit: float
    theta_bound: float = 1.0
    c_const: float = 1000.0

    def __post_init__(self):
        _require_numbers(self)
        if not (self.move_limit > 0.0 and self.asyinit > 0.0):
            raise ValueError("move limit and asymptote initialization must be positive")
        if not self.theta_bound > 0.0:
            raise ValueError("theta bound must be positive")
        if not self.c_const > 0.0:
            raise ValueError("MMA penalty c_const must be positive")


@dataclass
class MmaState:
    """Variable box plus the iteration history MMA needs: previous iterates
    and asymptotes."""

    lower: np.ndarray
    upper: np.ndarray
    xold1: np.ndarray | None = None
    xold2: np.ndarray | None = None
    low: np.ndarray | None = None
    upp: np.ndarray | None = None

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float).ravel()
        self.upper = np.asarray(self.upper, dtype=float).ravel()
        if self.lower.shape != self.upper.shape or np.any(self.lower >= self.upper):
            raise ValueError("need lower < upper elementwise")


def _require_finite(name: str, values: np.ndarray) -> None:
    """Raise ValueError naming ``name`` and its first non-finite entry."""
    finite = np.isfinite(values)
    if not finite.all():
        index = np.unravel_index(int(np.argmin(finite)), values.shape)
        where = ", ".join(map(str, index))
        raise ValueError(f"{name}[{where}] is {float(values[index])}, not a finite value")


def mma_step(
    state: MmaState,
    x: np.ndarray,
    dfdx: np.ndarray,
    g: np.ndarray,
    dgdx: np.ndarray,
    cfg: MmaConfig,
) -> np.ndarray:
    """One MMA iteration; returns the subproblem minimizer.

    ``g`` holds the constraint values (g_i <= 0 feasible) and ``dgdx`` their
    gradients, one row per constraint. The state is updated in place.
    Raises ValueError if any of them holds a NaN or an infinity.
    """
    x = np.asarray(x, dtype=float).ravel()
    dfdx = np.asarray(dfdx, dtype=float).ravel()
    g = np.atleast_1d(np.asarray(g, dtype=float))
    dgdx = np.asarray(dgdx, dtype=float).reshape(g.size, x.size)
    for name, values in (("x", x), ("dfdx", dfdx), ("g", g), ("dgdx", dgdx)):
        _require_finite(name, values)
    n = x.size
    xmin, xmax = state.lower, state.upper
    xrange = xmax - xmin

    if state.xold2 is None:  # the first two steps
        low = x - cfg.asyinit * xrange
        upp = x + cfg.asyinit * xrange
    else:
        osc = (x - state.xold1) * (state.xold1 - state.xold2)
        factor = np.ones(n)
        factor[osc > 0.0] = ASY_INCR
        factor[osc < 0.0] = ASY_DECR
        low = x - factor * (state.xold1 - state.low)
        upp = x + factor * (state.upp - state.xold1)
        low = np.clip(low, x - ASY_GROW_MAX * xrange, x - ASY_SHRINK_MIN * xrange)
        upp = np.clip(upp, x + ASY_SHRINK_MIN * xrange, x + ASY_GROW_MAX * xrange)

    # Subproblem bounds: move limit intersected with the variable box and a
    # fixed fraction of the asymptote gap.
    alfa = np.maximum.reduce([xmin, low + ALBEFA * (x - low), x - cfg.move_limit * xrange])
    beta = np.minimum.reduce([xmax, upp - ALBEFA * (upp - x), x + cfg.move_limit * xrange])

    ux1 = upp - x
    xl1 = x - low
    xmami_inv = 1.0 / np.maximum(xrange, 1e-5)
    p0 = np.maximum(dfdx, 0.0)
    q0 = np.maximum(-dfdx, 0.0)
    pq0 = 0.001 * (p0 + q0) + RAA0 * xmami_inv
    p0 = (p0 + pq0) * ux1**2
    q0 = (q0 + pq0) * xl1**2

    m = g.size
    if m:
        p_mat = np.maximum(dgdx, 0.0)
        q_mat = np.maximum(-dgdx, 0.0)
        pq = 0.001 * (p_mat + q_mat) + RAA0 * xmami_inv[None, :]
        p_mat = (p_mat + pq) * ux1[None, :] ** 2
        q_mat = (q_mat + pq) * xl1[None, :] ** 2
        b = np.einsum("ij,j->i", p_mat, 1.0 / ux1) + np.einsum("ij,j->i", q_mat, 1.0 / xl1) - g
        x_new = _subsolve(low, upp, alfa, beta, p0, q0, p_mat, q_mat, b, cfg.c_const)
    else:
        # Without constraints the subproblem is separable with the closed
        # form x = (sqrt(p0) low + sqrt(q0) upp) / (sqrt(p0) + sqrt(q0)).
        sp, sq = np.sqrt(p0), np.sqrt(q0)
        x_new = np.clip((sp * low + sq * upp) / (sp + sq), alfa, beta)

    state.xold2 = state.xold1
    state.xold1 = x.copy()
    state.low = low
    state.upp = upp
    return x_new


def _subsolve(low, upp, alfa, beta, p0, q0, p_mat, q_mat, b, c_const) -> np.ndarray:
    """Primal-dual interior-point solve of the MMA subproblem.

    Solves
        min  sum(p0/(upp-x) + q0/(x-low)) + a0 z + sum(c y + 0.5 d y^2)
        s.t. sum(P_i/(upp-x) + Q_i/(x-low)) - y_i <= b_i,
             alfa <= x <= beta, y >= 0, z >= 0,
    following the standard Newton iteration on the relaxed KKT system with a
    decreasing barrier parameter. The constraints carry no z term (a_i = 0),
    so each Newton step solves an m-by-m system for the multipliers and
    finds the z step on its own. The n-long terms of a point are computed
    once, when the line search visits it, and reused by the Newton step
    taken from it; every n-long product is an ``np.einsum`` or an
    elementwise reduction, and the m-long state is held in lists of floats
    (see the module docstring for both).
    """
    m = p_mat.shape[0]
    c_const = float(c_const)
    b = b.tolist()
    epsi = 1.0
    x = 0.5 * (alfa + beta)
    y = [1.0] * m
    z = 1.0
    lam = [1.0] * m
    xsi = np.maximum(1.0 / (x - alfa), 1.0)
    eta = np.maximum(1.0 / (beta - x), 1.0)
    mu = [max(1.0, 0.5 * c_const)] * m
    zet = 1.0
    s = [1.0] * m

    def terms(x, lam):
        """The n-long terms at (x, lam): gaps to the bounds, reciprocal
        asymptote gaps and their squares, p0 + P^T lam, q0 + Q^T lam, the
        constraint sums and the x-gradient of the separable terms."""
        uxinv = 1.0 / (upp - x)
        xlinv = 1.0 / (x - low)
        uxinv2 = uxinv * uxinv
        xlinv2 = xlinv * xlinv
        plam = p0 + np.einsum("i,ij->j", lam, p_mat)
        qlam = q0 + np.einsum("i,ij->j", lam, q_mat)
        gvec = (np.einsum("ij,j->i", p_mat, uxinv) + np.einsum("ij,j->i", q_mat, xlinv)).tolist()
        dpsi = plam * uxinv2 - qlam * xlinv2
        return x - alfa, beta - x, uxinv, xlinv, uxinv2, xlinv2, plam, qlam, gvec, dpsi

    def residual(point, y, z, lam, xsi, eta, mu, zet, s, epsi):
        """2-norm and max-abs of the relaxed KKT residual."""
        xa, bx, *_, gvec, dpsi = point
        square_sum = 0.0
        res_max = 0.0
        for r in (dpsi - xsi + eta, xsi * xa - epsi, eta * bx - epsi):
            square_sum += float(np.einsum("i,i->", r, r))
            res_max = max(res_max, float(np.maximum.reduce(r)), -float(np.minimum.reduce(r)))
        for i in range(m):
            for r in (
                c_const + D_CONST * y[i] - mu[i] - lam[i],
                gvec[i] - y[i] + s[i] - b[i],
                mu[i] * y[i] - epsi,
                lam[i] * s[i] - epsi,
            ):
                square_sum += r * r
                res_max = max(res_max, abs(r))
        for r in (A0 - zet, zet * z - epsi):
            square_sum += r * r
            res_max = max(res_max, abs(r))
        return math.sqrt(square_sum), res_max

    point = terms(x, lam)
    while epsi > SUBPROBLEM_EPSILON:
        res_norm, res_max = residual(point, y, z, lam, xsi, eta, mu, zet, s, epsi)
        inner = 0
        while res_max > 0.9 * epsi and inner < MAX_INNER_ITERS:
            inner += 1
            xa, bx, uxinv, xlinv, uxinv2, xlinv2, plam, qlam, gvec, dpsi = point
            xa_inv = 1.0 / xa
            bx_inv = 1.0 / bx
            gg = p_mat * uxinv2 - q_mat * xlinv2
            delx = dpsi - epsi * xa_inv + epsi * bx_inv
            delz = A0 - epsi / z
            diagx = 2.0 * (plam * uxinv2 * uxinv + qlam * xlinv2 * xlinv)
            diagx_inv = 1.0 / (diagx + xsi * xa_inv + eta * bx_inv)

            # m-by-m system in dlam; n is usually much larger than m.
            gg_delx = np.einsum("ij,j->i", gg, delx * diagx_inv).tolist()
            aa = np.einsum("ij,kj->ik", gg * diagx_inv, gg).tolist()
            dely, diagy, blam = [], [], []
            for i in range(m):
                dely.append(c_const + D_CONST * y[i] - lam[i] - epsi / y[i])
                diagy.append(D_CONST + mu[i] / y[i])
                aa[i][i] += s[i] / lam[i] + 1.0 / diagy[i]
                dellam = gvec[i] - y[i] - b[i] + epsi / lam[i]
                blam.append(dellam + dely[i] / diagy[i] - gg_delx[i])
            dlam = _solve_spd(aa, blam)
            dz = -delz * z / zet
            dx = -(delx + np.einsum("i,ij->j", dlam, gg)) * diagx_inv
            dxsi = -xsi + (epsi - xsi * dx) * xa_inv
            deta = -eta + (epsi + eta * dx) * bx_inv
            dzet = -zet + (epsi - zet * dz) / z

            # Largest step that keeps every variable and gap positive, with
            # a 1% margin.
            ratio = max(
                -float(np.minimum.reduce(dx * xa_inv)),
                float(np.maximum.reduce(dx * bx_inv)),
                -float(np.minimum.reduce(dxsi / xsi)),
                -float(np.minimum.reduce(deta / eta)),
                -dz / z,
                -dzet / zet,
            )
            dy, dmu, ds = [], [], []
            for i in range(m):
                dy.append((dlam[i] - dely[i]) / diagy[i])
                dmu.append(-mu[i] + (epsi - mu[i] * dy[i]) / y[i])
                ds.append(-s[i] + (epsi - s[i] * dlam[i]) / lam[i])
                ratio = max(ratio, -dy[i] / y[i], -dlam[i] / lam[i], -dmu[i] / mu[i], -ds[i] / s[i])
            step = 1.0 / max(1.01 * ratio, 1.0)

            res_old = res_norm
            for _ in range(50):
                trial = (
                    x + step * dx,
                    [v + step * dv for v, dv in zip(y, dy)],
                    z + step * dz,
                    [v + step * dv for v, dv in zip(lam, dlam)],
                    xsi + step * dxsi,
                    eta + step * deta,
                    [v + step * dv for v, dv in zip(mu, dmu)],
                    zet + step * dzet,
                    [v + step * dv for v, dv in zip(s, ds)],
                )
                trial_point = terms(trial[0], trial[3])
                res_norm, res_max = residual(trial_point, *trial[1:], epsi)
                if res_norm < 2.0 * res_old:
                    break
                step *= 0.5
            x, y, z, lam, xsi, eta, mu, zet, s = trial
            point = trial_point
        if inner >= MAX_INNER_ITERS and res_max > 0.9 * epsi:
            raise SubproblemError(
                f"subproblem stalled at dual residual {res_max:.3e} (barrier {epsi:.1e})"
            )
        epsi *= 0.1
    return x


def _solve_spd(a: list[list[float]], rhs: list[float]) -> list[float]:
    """Solve ``a @ x = rhs`` by LDL^T for a small symmetric positive definite
    ``a`` given as rows of floats; at m = 1 the result is rhs / a exactly.

    Raises :class:`SubproblemError` on a pivot that is not positive.
    """
    m = len(rhs)
    lower = [[0.0] * m for _ in range(m)]  # L below its unit diagonal
    pivots = []
    for j in range(m):
        pivot = a[j][j] - sum(lower[j][k] * lower[j][k] * pivots[k] for k in range(j))
        if not pivot > 0.0:
            raise SubproblemError(f"Newton system is not positive definite: pivot {j} is {pivot:.3e}")
        pivots.append(pivot)
        for i in range(j + 1, m):
            lower[i][j] = (a[i][j] - sum(lower[i][k] * lower[j][k] * pivots[k] for k in range(j))) / pivot
    w = []
    for i in range(m):
        w.append(rhs[i] - sum(lower[i][k] * w[k] for k in range(i)))
    x = [0.0] * m
    for i in reversed(range(m)):
        x[i] = w[i] / pivots[i] - sum(lower[k][i] * x[k] for k in range(i + 1, m))
    return x


@dataclass(frozen=True)
class AdamConfig:
    """Adam hyperparameters of one run; ``grad_clip`` bounds the global
    gradient norm (infinite: no clipping)."""

    learning_rate: float
    grad_clip: float = np.inf

    def __post_init__(self):
        _require_numbers(self)
        if not self.learning_rate > 0.0:
            raise ValueError("learning rate must be positive")
        if not self.grad_clip > 0.0:
            raise ValueError("gradient clip threshold must be positive")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector without BLAS."""
    return float(np.sqrt(np.einsum("i,i->", x, x)))


def clip_by_global_norm(grad: np.ndarray, threshold: float) -> np.ndarray:
    """``grad`` scaled to norm ``threshold`` if it is longer; raises
    ValueError on a NaN or infinite entry, or on an entry of the result whose
    square overflows (above about 1.3e154, left when ``threshold`` is
    infinite or above that)."""
    norm = _norm(grad)
    if math.isfinite(norm):
        if np.isfinite(threshold) and norm > threshold:
            return grad * (threshold / norm)
        return grad
    _require_finite("gradient", grad)
    # The squares passed the float range: the norm is scale times that of
    # grad / scale, whose squares are at most 1.
    scale = float(np.maximum.reduce(np.abs(grad)))
    unit = grad / scale
    norm = _norm(unit)
    if np.isfinite(threshold) and norm > threshold / scale:
        grad = unit * (threshold / norm)
    with np.errstate(over="ignore"):
        overflows = ~np.isfinite(grad**2)
    if overflows.any():
        index = int(np.argmax(overflows))
        raise ValueError(f"gradient[{index}] is {float(grad[index])}, whose square overflows")
    return grad


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray, cfg: AdamConfig) -> np.ndarray:
    """One bias-corrected Adam update after global-norm clipping; raises
    ValueError on a non-finite gradient, or on an entry whose square
    overflows after clipping (``grad_clip`` infinite or above about 1.3e154)."""
    theta = np.asarray(theta, dtype=float)
    grad = clip_by_global_norm(np.asarray(grad, dtype=float), cfg.grad_clip)
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad**2
    m_hat = state.m / (1.0 - ADAM_BETA1**state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.t)
    return theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# trajectory record

#: Constraint violation at or below which an iterate counts as feasible.
FEASIBLE_TOL = 1e-6


def gradient_angle(current: np.ndarray, previous: np.ndarray) -> float:
    """Angle in [0, pi] between successive gradients; NaN if either is zero."""
    norm_c = _norm(current)
    norm_p = _norm(previous)
    if norm_c == 0.0 or norm_p == 0.0:
        return float("nan")
    cosine = float(np.einsum("i,i->", current, previous)) / (norm_c * norm_p)
    return float(np.arccos(np.clip(cosine, -1.0, 1.0)))


@dataclass(frozen=True)
class Evaluation:
    """One evaluation of a run's θ: the objective, the volume (NaN on the
    two-bar), the violation (0 when feasible), the objective's gradient in θ
    and the design. Under MMA it also holds the constraint values (g_i <= 0
    feasible) and ``jacobian``, a zero-argument callable giving their
    gradients, one row per constraint; Adam leaves both None."""

    objective: float
    volume: float
    violation: float
    gradient: np.ndarray
    design: np.ndarray
    constraints: np.ndarray | None = None
    jacobian: Callable[[], np.ndarray] | None = None


@dataclass
class Trajectory:
    """Per-iteration record of one optimization run: :meth:`record` takes
    each :class:`Evaluation` and keeps copies of its gradient and design.

    ``theta`` is the run's final point and ``pretrain_mse`` the error its
    pretraining reached, None for a run that did not pretrain.
    """

    objective: list[float] = field(default_factory=list)
    volume: list[float] = field(default_factory=list)
    constraint_violation: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    grad_angle: list[float] = field(default_factory=list)
    gradients: list[np.ndarray] = field(default_factory=list)
    designs: list[np.ndarray] = field(default_factory=list)
    best_feasible_objective: float = np.inf
    best_feasible_design: np.ndarray | None = None
    best_feasible_iteration: int = -1
    theta: np.ndarray | None = None
    pretrain_mse: float | None = None

    def record(self, evaluation: Evaluation) -> None:
        objective, violation = evaluation.objective, evaluation.violation
        gradient = np.asarray(evaluation.gradient, dtype=float).copy()
        if self.gradients:
            angle = gradient_angle(gradient, self.gradients[-1])
        else:
            angle = float("nan")
        self.objective.append(float(objective))
        self.volume.append(float(evaluation.volume))
        self.constraint_violation.append(float(violation))
        self.grad_norm.append(_norm(gradient))
        self.grad_angle.append(angle)
        self.gradients.append(gradient)
        design = np.asarray(evaluation.design, dtype=float).copy()
        self.designs.append(design)
        if violation <= FEASIBLE_TOL and objective < self.best_feasible_objective:
            self.best_feasible_objective = float(objective)
            self.best_feasible_design = design
            self.best_feasible_iteration = len(self.objective) - 1

    @property
    def iterations(self) -> int:
        return len(self.objective)
