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

Adam is the standard bias-corrected variant, preceded by global-norm
gradient clipping.

Each optimizer has one config type, ``MmaConfig`` or ``AdamConfig``,
holding only the values runs set differently. Values no run changes are
module constants: ``ASY_INCR``/``ASY_DECR``, ``A0``, ``D_CONST`` and
``ADAM_BETA1``/``ADAM_BETA2``/``ADAM_EPS``. The variable box of an MMA run
belongs to its decision vector and lives in ``MmaState``.
"""

from __future__ import annotations

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
    """The MMA subproblem solver failed to reach its target residual."""


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
    """
    x = np.asarray(x, dtype=float).ravel()
    dfdx = np.asarray(dfdx, dtype=float).ravel()
    g = np.atleast_1d(np.asarray(g, dtype=float))
    dgdx = np.asarray(dgdx, dtype=float).reshape(g.size, x.size)
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
    elementwise reduction (see the module docstring for why not BLAS).
    """
    m = p_mat.shape[0]
    c_vec = np.full(m, c_const)
    epsi = 1.0
    x = 0.5 * (alfa + beta)
    y = np.ones(m)
    z = 1.0
    lam = np.ones(m)
    xsi = np.maximum(1.0 / (x - alfa), 1.0)
    eta = np.maximum(1.0 / (beta - x), 1.0)
    mu = np.maximum(1.0, 0.5 * c_vec)
    zet = 1.0
    s = np.ones(m)

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
        gvec = np.einsum("ij,j->i", p_mat, uxinv) + np.einsum("ij,j->i", q_mat, xlinv)
        dpsi = plam * uxinv2 - qlam * xlinv2
        return x - alfa, beta - x, uxinv, xlinv, uxinv2, xlinv2, plam, qlam, gvec, dpsi

    def residual(point, y, z, lam, xsi, eta, mu, zet, s, epsi):
        """2-norm and max-abs of the relaxed KKT residual."""
        xa, bx, *_, gvec, dpsi = point
        long_parts = (dpsi - xsi + eta, xsi * xa - epsi, eta * bx - epsi)
        short_parts = (
            c_vec + D_CONST * y - mu - lam,
            gvec - y + s - b,
            mu * y - epsi,
            lam * s - epsi,
        )
        scalars = (A0 - zet, zet * z - epsi)
        square_sum = sum(float(np.einsum("i,i->", r, r)) for r in long_parts + short_parts)
        square_sum += sum(r * r for r in scalars)
        res_max = max(max(float(r.max()), -float(r.min())) for r in long_parts + short_parts)
        res_max = max(res_max, *(abs(r) for r in scalars))
        return np.sqrt(square_sum), res_max

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
            dely = c_vec + D_CONST * y - lam - epsi / y
            delz = A0 - epsi / z
            dellam = gvec - y - b + epsi / lam
            diagx = 2.0 * (plam * uxinv2 * uxinv + qlam * xlinv2 * xlinv)
            diagx_inv = 1.0 / (diagx + xsi * xa_inv + eta * bx_inv)
            diagy = D_CONST + mu / y
            diaglam = s / lam + 1.0 / diagy

            # m-by-m system in dlam; n is usually much larger than m.
            blam = dellam + dely / diagy - np.einsum("ij,j->i", gg, delx * diagx_inv)
            aa = np.einsum("ij,kj->ik", gg * diagx_inv, gg)
            aa[np.diag_indices(m)] += diaglam
            try:
                dlam = np.linalg.solve(aa, blam)
            except np.linalg.LinAlgError as exc:
                raise SubproblemError(f"Newton system is singular: {exc}") from exc
            dz = -delz * z / zet
            dx = -(delx + np.einsum("i,ij->j", dlam, gg)) * diagx_inv
            dy = (dlam - dely) / diagy
            dxsi = -xsi + (epsi - xsi * dx) * xa_inv
            deta = -eta + (epsi + eta * dx) * bx_inv
            dmu = -mu + (epsi - mu * dy) / y
            dzet = -zet + (epsi - zet * dz) / z
            ds = -s + (epsi - s * dlam) / lam

            # Largest step that keeps every variable and gap positive, with
            # a 1% margin.
            ratio = max(
                -float((dx * xa_inv).min()),
                float((dx * bx_inv).max()),
                -float((dxsi / xsi).min()),
                -float((deta / eta).min()),
                -float((dy / y).min()),
                -float((dlam / lam).min()),
                -float((dmu / mu).min()),
                -float((ds / s).min()),
                -dz / z,
                -dzet / zet,
            )
            step = 1.0 / max(1.01 * ratio, 1.0)

            res_old = res_norm
            for _ in range(50):
                trial = (
                    x + step * dx,
                    y + step * dy,
                    z + step * dz,
                    lam + step * dlam,
                    xsi + step * dxsi,
                    eta + step * deta,
                    mu + step * dmu,
                    zet + step * dzet,
                    s + step * ds,
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
    norm = _norm(grad)
    if np.isfinite(threshold) and norm > threshold:
        return grad * (threshold / norm)
    return grad


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray, cfg: AdamConfig) -> np.ndarray:
    """One bias-corrected Adam update after global-norm clipping."""
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


@dataclass
class Trajectory:
    """Per-iteration record of one optimization run.

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

    def record(
        self,
        objective: float,
        volume: float,
        violation: float,
        gradient: np.ndarray,
        design: np.ndarray,
    ) -> None:
        gradient = np.asarray(gradient, dtype=float).copy()
        if self.gradients:
            angle = gradient_angle(gradient, self.gradients[-1])
        else:
            angle = float("nan")
        self.objective.append(float(objective))
        self.volume.append(float(volume))
        self.constraint_violation.append(float(violation))
        self.grad_norm.append(_norm(gradient))
        self.grad_angle.append(angle)
        self.gradients.append(gradient)
        design = np.asarray(design, dtype=float).copy()
        self.designs.append(design)
        if violation <= FEASIBLE_TOL and objective < self.best_feasible_objective:
            self.best_feasible_objective = float(objective)
            self.best_feasible_design = design
            self.best_feasible_iteration = len(self.objective) - 1

    @property
    def iterations(self) -> int:
        return len(self.objective)
