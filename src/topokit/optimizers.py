"""First-order optimizers: the method of moving asymptotes and Adam.

The MMA step builds Svanberg's separable convex approximation around the
current iterate and solves the subproblem with a primal-dual interior-point
Newton scheme. Asymptotes start at ``x -/+ asyinit * (upper - lower)`` and
afterwards expand or contract depending on the oscillation sign of each
variable. The per-step move limit and the variable box are both enforced
exactly by the subproblem bounds.

Adam is the standard bias-corrected variant, preceded by global-norm
gradient clipping.

Each optimizer has one config type, ``MmaConfig`` or ``AdamConfig``,
holding only the values runs set differently. Values no run changes are
module constants: ``ASY_INCR``/``ASY_DECR``, ``A0``, ``D_CONST`` and
``ADAM_BETA1``/``ADAM_BETA2``/``ADAM_EPS``. The variable box of an MMA run
belongs to its decision vector and lives in ``MmaState``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    iteration: int = 0

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
    state.iteration += 1

    if state.iteration <= 2 or state.xold2 is None:
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
        b = p_mat @ (1.0 / ux1) + q_mat @ (1.0 / xl1) - g
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
        s.t. sum(P_i/(upp-x) + Q_i/(x-low)) - a_i z - y_i <= b_i,
             alfa <= x <= beta, y >= 0, z >= 0,
    following the standard Newton iteration on the relaxed KKT system with a
    decreasing barrier parameter.
    """
    m, n = p_mat.shape
    a_vec = np.zeros(m)
    c_vec = np.full(m, c_const)
    d_vec = np.full(m, D_CONST)
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

    def residuals(x, y, z, lam, xsi, eta, mu, zet, s, epsi):
        ux1 = upp - x
        xl1 = x - low
        plam = p0 + lam @ p_mat
        qlam = q0 + lam @ q_mat
        gvec = p_mat @ (1.0 / ux1) + q_mat @ (1.0 / xl1)
        rex = plam / ux1**2 - qlam / xl1**2 - xsi + eta
        rey = c_vec + d_vec * y - mu - lam
        rez = A0 - zet - a_vec @ lam
        relam = gvec - a_vec * z - y + s - b
        rexsi = xsi * (x - alfa) - epsi
        reeta = eta * (beta - x) - epsi
        remu = mu * y - epsi
        rezet = zet * z - epsi
        res = lam * s - epsi
        parts = np.concatenate(
            [rex, rey, [rez], relam, rexsi, reeta, remu, [rezet], res]
        )
        return parts

    while epsi > SUBPROBLEM_EPSILON:
        res_vec = residuals(x, y, z, lam, xsi, eta, mu, zet, s, epsi)
        res_norm = np.linalg.norm(res_vec)
        res_max = np.abs(res_vec).max()
        inner = 0
        while res_max > 0.9 * epsi and inner < MAX_INNER_ITERS:
            inner += 1
            ux1 = upp - x
            xl1 = x - low
            ux2 = ux1**2
            xl2 = xl1**2
            plam = p0 + lam @ p_mat
            qlam = q0 + lam @ q_mat
            gvec = p_mat @ (1.0 / ux1) + q_mat @ (1.0 / xl1)
            gg = p_mat / ux2[None, :] - q_mat / xl2[None, :]
            delx = plam / ux2 - qlam / xl2 - epsi / (x - alfa) + epsi / (beta - x)
            dely = c_vec + d_vec * y - lam - epsi / y
            delz = A0 - a_vec @ lam - epsi / z
            dellam = gvec - a_vec * z - y - b + epsi / lam
            diagx = 2.0 * (plam / (ux2 * ux1) + qlam / (xl2 * xl1))
            diagx = diagx + xsi / (x - alfa) + eta / (beta - x)
            diagy = d_vec + mu / y
            diaglam = s / lam + 1.0 / diagy

            # Dense m+1 system in (dlam, dz); n is usually much larger than m.
            blam = dellam + dely / diagy - gg @ (delx / diagx)
            aa = np.zeros((m + 1, m + 1))
            aa[:m, :m] = np.diag(diaglam) + (gg / diagx[None, :]) @ gg.T
            aa[:m, m] = a_vec
            aa[m, :m] = a_vec
            aa[m, m] = -zet / z
            rhs = np.concatenate([blam, [delz]])
            try:
                solution = np.linalg.solve(aa, rhs)
            except np.linalg.LinAlgError as exc:
                raise SubproblemError(f"Newton system is singular: {exc}") from exc
            dlam = solution[:m]
            dz = solution[m]
            dx = -delx / diagx - (dlam @ gg) / diagx
            dy = dlam / diagy - dely / diagy
            dxsi = -xsi + epsi / (x - alfa) - (xsi * dx) / (x - alfa)
            deta = -eta + epsi / (beta - x) + (eta * dx) / (beta - x)
            dmu = -mu + epsi / y - (mu * dy) / y
            dzet = -zet + epsi / z - zet * dz / z
            ds = -s + epsi / lam - (s * dlam) / lam

            step_vars = np.concatenate([dy, [dz], dlam, dxsi, deta, dmu, [dzet], ds])
            cur_vars = np.concatenate([y, [z], lam, xsi, eta, mu, [zet], s])
            ratios = np.concatenate(
                [
                    -1.01 * step_vars / cur_vars,
                    -1.01 * dx / (x - alfa),
                    1.01 * dx / (beta - x),
                ]
            )
            step = 1.0 / max(float(ratios.max()), 1.0)

            old = (x, y, z, lam, xsi, eta, mu, zet, s)
            res_old = res_norm
            for _ in range(50):
                x_t = old[0] + step * dx
                y_t = old[1] + step * dy
                z_t = old[2] + step * dz
                lam_t = old[3] + step * dlam
                xsi_t = old[4] + step * dxsi
                eta_t = old[5] + step * deta
                mu_t = old[6] + step * dmu
                zet_t = old[7] + step * dzet
                s_t = old[8] + step * ds
                res_vec = residuals(x_t, y_t, z_t, lam_t, xsi_t, eta_t, mu_t, zet_t, s_t, epsi)
                res_norm = np.linalg.norm(res_vec)
                if res_norm < 2.0 * res_old:
                    break
                step *= 0.5
            x, y, z, lam, xsi, eta, mu, zet, s = (
                x_t, y_t, z_t, lam_t, xsi_t, eta_t, mu_t, zet_t, s_t,
            )
            res_max = np.abs(res_vec).max()
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


def clip_by_global_norm(grad: np.ndarray, threshold: float) -> np.ndarray:
    norm = float(np.linalg.norm(grad))
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


def gradient_angle(current: np.ndarray, previous: np.ndarray) -> float:
    """Angle in [0, pi] between successive gradients; NaN if either is zero."""
    norm_c = np.linalg.norm(current)
    norm_p = np.linalg.norm(previous)
    if norm_c == 0.0 or norm_p == 0.0:
        return float("nan")
    cosine = float(current @ previous) / (norm_c * norm_p)
    return float(np.arccos(np.clip(cosine, -1.0, 1.0)))


@dataclass
class Trajectory:
    """Per-iteration record of one optimization run."""

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

    def record(
        self,
        objective: float,
        volume: float,
        violation: float,
        gradient: np.ndarray,
        design: np.ndarray,
        feasible_tol: float = 1e-6,
    ) -> None:
        gradient = np.asarray(gradient, dtype=float).copy()
        if self.gradients:
            angle = gradient_angle(gradient, self.gradients[-1])
        else:
            angle = float("nan")
        self.objective.append(float(objective))
        self.volume.append(float(volume))
        self.constraint_violation.append(float(violation))
        self.grad_norm.append(float(np.linalg.norm(gradient)))
        self.grad_angle.append(angle)
        self.gradients.append(gradient)
        self.designs.append(np.asarray(design, dtype=float).copy())
        if violation <= feasible_tol and objective < self.best_feasible_objective:
            self.best_feasible_objective = float(objective)
            self.best_feasible_design = np.asarray(design, dtype=float).copy()
            self.best_feasible_iteration = len(self.objective) - 1

    @property
    def iterations(self) -> int:
        return len(self.objective)
