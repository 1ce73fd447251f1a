"""MMA and Adam step behavior, plus trajectory bookkeeping."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from topokit import optimizers, presets, runner
from topokit.optimizers import (
    AdamConfig,
    AdamState,
    Evaluation,
    MmaConfig,
    MmaState,
    SubproblemError,
    Trajectory,
    adam_step,
    clip_by_global_norm,
    gradient_angle,
    mma_step,
)


def test_mma_respects_move_limit_and_bounds():
    rng = np.random.default_rng(0)
    n = 12
    cfg = MmaConfig(move_limit=0.15, asyinit=0.4)
    state = MmaState(lower=np.full(n, -1.0), upper=np.full(n, 2.0))
    x = rng.uniform(-1, 2, n)
    for _ in range(25):
        dfdx = rng.standard_normal(n) * rng.uniform(0.1, 50)
        g = np.array([rng.uniform(-0.5, 0.5)])
        dgdx = rng.standard_normal((1, n))
        x_next = mma_step(state, x, dfdx, g, dgdx, cfg)
        assert np.abs(x_next - x).max() <= 0.15 * 3.0 + 1e-12
        assert np.all(x_next >= -1.0 - 1e-12) and np.all(x_next <= 2.0 + 1e-12)
        x = x_next


def test_mma_converges_on_convex_quadratic():
    # Unconstrained 1-D quadratic: the minimizer is known analytically. The
    # objective decreases monotonically through the descent phase; once the
    # minimizer is reached the iterates enter the usual small limit cycle
    # (the reference implementations oscillate identically), so strict
    # monotonicity is only asserted until the neighborhood is first hit.
    cfg = MmaConfig(move_limit=0.05, asyinit=0.1)
    state = MmaState(lower=np.zeros(1), upper=np.ones(1))
    x = np.array([0.9])
    history = []
    for _ in range(50):
        history.append((x[0] - 0.3) ** 2)
        x = mma_step(state, x, np.array([2 * (x[0] - 0.3)]), np.zeros(0), np.zeros((0, 1)), cfg)
    assert abs(x[0] - 0.3) < 1e-4
    descent_end = next(i for i, f in enumerate(history) if f < 1e-8)
    assert all(history[i + 1] <= history[i] + 1e-14 for i in range(descent_end))


def test_mma_descends_on_linear_objective_with_inactive_constraints():
    # Mass-like linear objective: with slack constraints both variables must
    # move downward on the first step.
    cfg = MmaConfig(move_limit=0.1, asyinit=0.3)
    state = MmaState(lower=np.zeros(2), upper=np.full(2, 2.0))
    x = np.array([1.0, 1.0])
    g = np.array([-0.3, -0.2])
    dgdx = np.array([[-0.1, 0.05], [0.02, -0.1]])
    x_next = mma_step(state, x, np.array([0.6, 0.8]), g, dgdx, cfg)
    assert np.all(x_next < x)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name, index", [("x", (3,)), ("dfdx", (2,)), ("g", (0,)), ("dgdx", (0, 4))])
def test_mma_step_rejects_non_finite_input(name, index, bad):
    # A NaN in dfdx used to end the subsolve at its start point (the middle
    # of every move box), and a NaN in g returned an all-NaN x.
    args = {
        "x": np.full(5, 0.5),
        "dfdx": np.linspace(-1.0, 1.0, 5),
        "g": np.array([0.1]),
        "dgdx": np.ones((1, 5)),
    }
    args[name][index] = bad
    state = MmaState(lower=np.zeros(5), upper=np.ones(5))
    where = ", ".join(map(str, index))
    with pytest.raises(ValueError, match=rf"^{name}\[{where}\] is {bad}, not a finite value"):
        mma_step(state, cfg=MmaConfig(move_limit=0.1, asyinit=0.2), **args)
    assert state.xold1 is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_step_rejects_non_finite_gradient(bad):
    # The NaN used to reach theta, and the next forward blamed a parameter.
    state = AdamState.zeros(3)
    with pytest.raises(ValueError, match=rf"^gradient\[1\] is {bad}, not a finite value"):
        adam_step(state, np.zeros(3), np.array([0.5, bad, 0.0]), AdamConfig(learning_rate=0.1))
    assert state.t == 0


def test_adam_zero_gradient_is_identity():
    state = AdamState.zeros(4)
    theta = np.array([1.0, -2.0, 3.0, 0.5])
    cfg = AdamConfig(learning_rate=0.1)
    assert np.array_equal(adam_step(state, theta, np.zeros(4), cfg), theta)


def test_adam_first_step_magnitude_approaches_learning_rate():
    # With bias correction the first step is lr * g / (|g| + eps'), close to
    # lr for gradients far above the epsilon floor.
    state = AdamState.zeros(3)
    theta = np.zeros(3)
    grad = np.array([5.0, -0.5, 100.0])
    cfg = AdamConfig(learning_rate=0.01)
    step = adam_step(state, theta, grad, cfg) - theta
    assert np.allclose(np.abs(step), 0.01, rtol=1e-6)
    assert np.all(np.sign(step) == -np.sign(grad))


def test_adam_clip_rescales_to_threshold():
    grad = np.array([3.0, 4.0])  # norm 5
    clipped = clip_by_global_norm(grad, 0.5)
    assert np.allclose(clipped, grad * 0.1)
    assert np.allclose(clip_by_global_norm(grad, 10.0), grad)
    # norm 10 clipped at 1 scales by 0.1
    g10 = np.array([10.0])
    assert np.allclose(clip_by_global_norm(g10, 1.0), np.array([1.0]))


@pytest.mark.parametrize(
    "grad, threshold, clipped",
    [
        ([1e200, 1.0, 0.0], 1.0, [1.0, 1e-200, 0.0]),
        ([1e308, -1e308, 0.0], 1.0, [0.5**0.5, -(0.5**0.5), 0.0]),
        ([1e300, 1.0, 0.0], 1e-30, [1e-30, 0.0, 0.0]),
        ([1e308, 0.0, 0.0], 1e-3, [1e-3, 0.0, 0.0]),
    ],
    ids=["squares-overflow", "norm-past-float-max", "small-clip", "subnormal-factor"],
)
def test_adam_clips_a_gradient_whose_squares_overflow(grad, threshold, clipped):
    # The norm overflowed to inf and scaled the gradient by 1/inf: a silent zero step.
    # A factor threshold / max|g| would underflow (small-clip) or lose digits (subnormal-factor).
    assert np.allclose(clip_by_global_norm(np.array(grad), threshold), clipped, rtol=1e-15, atol=0.0)
    cfg = AdamConfig(learning_rate=0.1, grad_clip=threshold)
    step = adam_step(AdamState.zeros(3), np.zeros(3), np.array(grad), cfg)
    assert step[0] == pytest.approx(-0.1 * threshold / (threshold + optimizers.ADAM_EPS)) and step[2] == 0.0


@pytest.mark.parametrize("grad_clip", [np.inf, 1e300])
def test_adam_step_names_the_entry_whose_square_overflows(grad_clip):
    # Without a clip that reaches it, grad**2 overflowed to inf (a RuntimeWarning)
    # and that coordinate never moved again.
    state = AdamState.zeros(3)
    cfg = AdamConfig(learning_rate=0.1, grad_clip=grad_clip)
    with pytest.raises(ValueError, match=r"^gradient\[1\] is 1e\+200, whose square overflows$"):
        adam_step(state, np.zeros(3), np.array([1.0, 1e200, 0.0]), cfg)
    assert state.t == 0


def test_adam_step_linear_in_learning_rate():
    theta = np.array([0.3, -0.7])
    grad = np.array([1.0, 2.0])
    steps = {}
    for lr in (1e-3, 5e-4):
        state = AdamState.zeros(2)
        steps[lr] = adam_step(state, theta, grad, AdamConfig(learning_rate=lr)) - theta
    assert np.allclose(steps[1e-3], 2.0 * steps[5e-4], rtol=1e-12)


def test_gradient_angle_reference_values():
    a = np.array([1.0, 0.0])
    assert gradient_angle(a, a) == pytest.approx(0.0, abs=1e-12)
    assert gradient_angle(a, -a) == pytest.approx(np.pi, abs=1e-12)
    assert gradient_angle(a, np.array([0.0, 2.0])) == pytest.approx(np.pi / 2, abs=1e-12)
    assert np.isnan(gradient_angle(a, np.zeros(2)))


def test_trajectory_angles_lie_in_range_and_best_feasible_tracked():
    rng = np.random.default_rng(1)
    traj = Trajectory()
    for i in range(10):
        traj.record(
            Evaluation(
                objective=10.0 - i,
                volume=0.5,
                violation=0.0 if i % 2 == 0 else 1e-3,
                gradient=rng.standard_normal(6),
                design=rng.uniform(0, 1, 4),
            )
        )
    angles = np.array(traj.grad_angle[1:])
    assert np.all((angles >= 0.0) & (angles <= np.pi))
    assert np.isnan(traj.grad_angle[0])
    # only even iterations were feasible; the best is the last even one
    assert traj.best_feasible_iteration == 8
    assert traj.best_feasible_objective == 2.0


def test_trajectory_keeps_the_last_gradient_and_the_reported_designs():
    traj = Trajectory(snapshot_every=2)
    for i, violation in enumerate((0.3, 0.1, 0.2, 0.1, 0.4)):
        traj.record(Evaluation(1.0, 0.5, violation, np.full(3, i + 1.0), np.full(2, float(i))))
    assert traj.best_feasible_design is None
    assert traj.least_violating_design.tolist() == [1.0, 1.0]  # the first of the two at 0.1
    assert traj.final_design.tolist() == [4.0, 4.0]
    assert [design[0] for design in traj.designs] == [0.0, 2.0, 4.0]
    assert traj.designs[-1] is traj.final_design
    assert [gradient.tolist() for gradient in traj.gradients] == [[5.0] * 3]
    assert traj.iterations == 5


def test_config_validation():
    with pytest.raises(ValueError):
        MmaConfig(move_limit=0.0, asyinit=0.1)
    with pytest.raises(ValueError):
        MmaConfig(move_limit=0.1, asyinit=0.1, theta_bound=0.0)
    with pytest.raises(ValueError):
        MmaConfig(move_limit=0.1, asyinit=0.1, c_const=-1.0)
    with pytest.raises(ValueError):
        MmaState(lower=np.ones(2), upper=np.ones(2))
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=float("nan"))
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=0.1, grad_clip=0.0)
    with pytest.raises(ValueError, match="'move_limit' must be a number"):
        MmaConfig(move_limit=True, asyinit=0.1)
    with pytest.raises(ValueError, match="'c_const' must be a number"):
        MmaConfig(move_limit=0.1, asyinit=0.1, c_const=None)
    with pytest.raises(ValueError, match="'learning_rate' must be a number"):
        AdamConfig(learning_rate="0.1")
    assert AdamConfig(learning_rate=np.float32(0.1), grad_clip=1).grad_clip == 1


def reference_subsolve(low, upp, alfa, beta, p0, q0, p_mat, q_mat, b, c_const):
    """Reference MMA subsolve: the same Newton iteration on the full
    (m+1)-square system in (dlam, dz) with a_i = 0 kept explicit, every
    residual, step and ratio vector concatenated, and matrix products."""
    m, n = p_mat.shape
    a_vec = np.zeros(m)
    c_vec = np.full(m, c_const)
    d_vec = np.full(m, optimizers.D_CONST)
    a0 = optimizers.A0
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
        rez = a0 - zet - a_vec @ lam
        relam = gvec - a_vec * z - y + s - b
        rexsi = xsi * (x - alfa) - epsi
        reeta = eta * (beta - x) - epsi
        remu = mu * y - epsi
        rezet = zet * z - epsi
        res = lam * s - epsi
        return np.concatenate([rex, rey, [rez], relam, rexsi, reeta, remu, [rezet], res])

    while epsi > optimizers.SUBPROBLEM_EPSILON:
        res_vec = residuals(x, y, z, lam, xsi, eta, mu, zet, s, epsi)
        res_norm = np.linalg.norm(res_vec)
        res_max = np.abs(res_vec).max()
        inner = 0
        while res_max > 0.9 * epsi and inner < optimizers.MAX_INNER_ITERS:
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
            delz = a0 - a_vec @ lam - epsi / z
            dellam = gvec - a_vec * z - y - b + epsi / lam
            diagx = 2.0 * (plam / (ux2 * ux1) + qlam / (xl2 * xl1))
            diagx = diagx + xsi / (x - alfa) + eta / (beta - x)
            diagy = d_vec + mu / y
            diaglam = s / lam + 1.0 / diagy

            blam = dellam + dely / diagy - gg @ (delx / diagx)
            aa = np.zeros((m + 1, m + 1))
            aa[:m, :m] = np.diag(diaglam) + (gg / diagx[None, :]) @ gg.T
            aa[:m, m] = a_vec
            aa[m, :m] = a_vec
            aa[m, m] = -zet / z
            solution = np.linalg.solve(aa, np.concatenate([blam, [delz]]))
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
                [-1.01 * step_vars / cur_vars, -1.01 * dx / (x - alfa), 1.01 * dx / (beta - x)]
            )
            step = 1.0 / max(float(ratios.max()), 1.0)

            old = (x, y, z, lam, xsi, eta, mu, zet, s)
            deltas = (dx, dy, dz, dlam, dxsi, deta, dmu, dzet, ds)
            res_old = res_norm
            for _ in range(50):
                trial = tuple(v + step * dv for v, dv in zip(old, deltas))
                res_vec = residuals(*trial, epsi)
                res_norm = np.linalg.norm(res_vec)
                if res_norm < 2.0 * res_old:
                    break
                step *= 0.5
            x, y, z, lam, xsi, eta, mu, zet, s = trial
            res_max = np.abs(res_vec).max()
        assert res_max <= 0.9 * epsi, "reference subsolve stalled"
        epsi *= 0.1
    return x


def _compare_subsolves(monkeypatch):
    """Route mma_step's subsolve through one that also runs the reference;
    returns the list of (new, reference) result pairs."""
    calls = []
    subsolve = optimizers._subsolve

    def both(low, upp, alfa, beta, *rest):
        x_new = subsolve(low, upp, alfa, beta, *rest)
        calls.append((x_new, reference_subsolve(low, upp, alfa, beta, *rest)))
        return x_new

    monkeypatch.setattr(optimizers, "_subsolve", both)
    return calls


@pytest.mark.parametrize("n", [1, 2, 50, 2000])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_subsolve_matches_reference(monkeypatch, m, n):
    calls = _compare_subsolves(monkeypatch)
    rng = np.random.default_rng(100 * m + n)
    lower = rng.uniform(-1.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 2.0, n)
    state = MmaState(lower=lower, upper=upper)
    cfg = MmaConfig(move_limit=0.2, asyinit=0.3, c_const=float(rng.choice([10.0, 1000.0])))
    x = rng.uniform(lower, upper)
    steps = []
    # Four steps, so that the third and fourth adapt their asymptotes.
    for _ in range(4):
        dfdx = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
        g = rng.uniform(-0.5, 0.5, m)
        dgdx = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-2, 1, (m, 1))
        x_next = mma_step(state, x, dfdx, g, dgdx, cfg)
        steps.append(np.abs(x_next - x).max())
        x = x_next
    assert len(calls) == 4
    for (x_new, x_ref), step in zip(calls, steps):
        assert step > 0.0
        assert np.abs(x_new - x_ref).max() <= 1e-12 * step


@pytest.mark.parametrize("name", ["twobar-baseline", "twobar-siren"])
def test_twobar_presets_match_reference_subsolve(monkeypatch, name):
    # Every subproblem of the run is also solved by the reference. The
    # comparison is per subproblem: the SIREN presets end in a limit cycle
    # around the optimum that amplifies any round-off difference over the
    # run, so whole trajectories are not compared.
    calls = _compare_subsolves(monkeypatch)
    cfg = presets.preset_config(name)
    runner.run_optimization(
        presets.problem_from_config(cfg["problem"]),
        presets.spec_from_config(cfg["reparam"]),
        presets.optimizer_from_config(cfg["optimizer"]),
        budget=cfg["budget"],
        seed=cfg["seed"],
        theta0=cfg.get("theta0"),
    )
    assert len(calls) == cfg["budget"]
    for x_new, x_ref in calls:
        assert x_ref.size == (2 if name == "twobar-baseline" else 3)
        assert np.abs(x_new - x_ref).max() <= 1e-12 * np.abs(x_ref).max()


def _spd(factor, shift):
    return factor @ factor.T + shift * np.eye(len(factor))


@settings(max_examples=200, deadline=None)
@given(
    system=st.integers(1, 3).flatmap(
        lambda m: st.tuples(
            hnp.arrays(float, (m, m), elements=st.floats(-10.0, 10.0)),
            st.floats(1e-3, 10.0),
            hnp.arrays(float, m, elements=st.floats(-1e3, 1e3)),
        )
    )
)
# a = [[2]] and rhs = 5e-324: x = rhs / 2 underflows to 0, a residual of one subnormal unit
@example(system=(np.array([[1.0]]), 1.0, np.array([5e-324])))
def test_solve_spd_solves_spd_systems(system):
    factor, shift, rhs = system
    a = _spd(factor, shift)
    x = np.array(optimizers._solve_spd(a.tolist(), rhs.tolist()))
    # LDL^T of an SPD matrix is backward stable, so the residual is bounded
    # by a small multiple of eps * |a| |x| <= eps * cond(a) * |rhs|, plus a
    # few subnormal units where x or a @ x underflows.
    residual = np.abs(a @ x - rhs).max()
    underflow = 4 * np.finfo(float).smallest_subnormal
    assert residual <= 1e-12 * np.linalg.cond(a) * np.abs(rhs).max() + underflow


@settings(max_examples=200, deadline=None)
@given(a=st.floats(1e-300, 1e300), b=st.floats(-1e300, 1e300))
def test_solve_spd_of_one_constraint_is_the_quotient(a, b):
    assert optimizers._solve_spd([[a]], [b]) == [b / a]


@pytest.mark.parametrize(
    "a, pivot",
    [
        ([[0.0]], 0),
        ([[-1.0]], 0),
        ([[np.nan]], 0),
        ([[1.0, 2.0], [2.0, 1.0]], 1),
        ([[1.0, 1.0], [1.0, 1.0]], 1),
        ([[4.0, 2.0, 0.0], [2.0, 2.0, 1.0], [0.0, 1.0, 0.25]], 2),
    ],
    ids=["zero", "negative", "nan", "indefinite", "singular", "indefinite-third-pivot"],
)
def test_solve_spd_names_the_failing_pivot(a, pivot):
    with pytest.raises(SubproblemError, match=f"pivot {pivot} is"):
        optimizers._solve_spd(a, [1.0] * len(a))
