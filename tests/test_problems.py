"""Benchmark catalog and the analytic two-bar truss."""

import numpy as np
import pytest

from topokit import fem, problems
from topokit.problems import (
    TwoBarProblem,
    make_problem,
    twobar_eval,
    twobar_siren_forward,
)


def test_michell_spec_constants():
    spec = make_problem("michell", (64, 32), 0.6)
    assert spec.domain.physics == "compliance"
    assert fem.MODULUS_SOLID["compliance"] == 10.0
    assert fem.MODULUS_VOID["compliance"] == 1e-9
    assert (spec.nx, spec.ny, spec.n_elements) == (64, 32, 64 * 32)
    assert spec.penalty == 3.0
    assert spec.volume_target == 0.6
    assert spec.filter_radius == pytest.approx(2.0)


def test_thermal_spec_constants():
    spec = make_problem("thermal", (64, 64), 0.3)
    assert spec.domain.physics == "thermal"
    assert fem.MODULUS_SOLID["thermal"] == 1.0
    assert fem.MODULUS_VOID["thermal"] == 0.001
    assert spec.domain.dofs_per_node == 1
    # unit heat load distributed over the whole domain
    assert spec.domain.load.sum() == pytest.approx(1.0, rel=1e-12)


def test_bridge_has_passive_deck():
    spec = make_problem("bridge", (64, 32), 0.3)
    assert spec.domain.passive_solid.size == 2 * 64
    assert np.all(spec.domain.passive_solid < 2 * 64)


def test_mechanism_springs_and_output_vector():
    spec = make_problem("mechanism", (64, 32))
    assert spec.domain.physics == "mechanism"
    assert (fem.MODULUS_SOLID["mechanism"], fem.MODULUS_VOID["mechanism"]) == (10.0, 1e-9)
    assert spec.volume_target == 0.4
    springs = dict(spec.domain.springs)
    assert set(springs.values()) == {1.0, 0.001}
    assert spec.domain.output_vector is not None
    assert spec.domain.output_vector.sum() == 1.0


def test_unknown_problem_lists_catalog():
    with pytest.raises(ValueError, match="mbb.*michell.*twobar"):
        make_problem("nonsense")


def test_default_volume_targets():
    assert make_problem("thermal", (8, 8)).volume_target == 0.3
    assert make_problem("mechanism", (8, 4)).volume_target == 0.4
    assert make_problem("mbb", (8, 4)).volume_target == 0.3


@pytest.mark.parametrize("v0", [1.5, -0.2, 0.0, float("nan")])
def test_volume_target_outside_unit_interval_rejected(v0):
    with pytest.raises(ValueError, match=r"volume target must lie in \(0, 1\]"):
        make_problem("michell", (16, 8), v0=v0)


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"resolution": (8.0, 4)}, "'nx'"),
        ({"resolution": (8, True)}, "'ny'"),
        ({"v0": "0.5"}, "'v0'"),
        ({"penalty": True}, "'penalty'"),
        ({"penalty": None}, "'penalty'"),
        ({"filter_radius": "2"}, "'filter_radius'"),
        ({"filter_radius": False}, "'filter_radius'"),
    ],
    ids=[
        "nx-integral-float", "ny-bool", "v0-string", "penalty-bool", "penalty-none",
        "filter-radius-string", "filter-radius-bool",
    ],
)
def test_ill_typed_values_rejected(kwargs, named):
    # 8.0 ran as 8, true as 1 and "2" as 2.0; a false filter radius failed
    # only when the filter was built; "0.5" and None died in a TypeError.
    # The CLI rows of test_io_cli.py cover "8", 8.5, true for v0 and "3"
    # for the penalty.
    with pytest.raises(ValueError, match=named):
        make_problem("michell", **{"resolution": (8, 4), **kwargs})


def test_numpy_numbers_accepted():
    spec = make_problem("michell", (np.int64(8), np.int32(4)), v0=np.float64(0.5), penalty=np.int64(3))
    assert (spec.nx, spec.ny, spec.volume_target, spec.penalty) == (8, 4, 0.5, 3.0)
    assert type(spec.nx) is int


def test_full_volume_target_accepted():
    assert make_problem("michell", (16, 8), v0=1.0).volume_target == 1.0


def test_every_catalog_problem_feasible_at_uniform_density():
    for name in problems.CATALOG:
        res = (16, 16) if name == "thermal" else (16, 8)
        spec = make_problem(name, res)
        uniform = np.full(spec.n_elements, spec.volume_target)
        assert uniform.mean() == pytest.approx(spec.volume_target, abs=1e-15)


def test_loads_are_distributed_patches():
    for name in ("mbb", "michell", "cantilever", "tensile"):
        spec = make_problem(name, (64, 32))
        loaded = np.nonzero(spec.domain.load)[0]
        assert loaded.size == 5  # four element edges -> five nodes
        assert abs(spec.domain.load).sum() == pytest.approx(1.0, rel=1e-12)


def test_twobar_eval_hand_values():
    ev = twobar_eval(1.0, 1.0)
    assert ev.mass == pytest.approx(1.4)
    assert np.allclose(ev.stresses, [0.4, -0.6])
    assert np.allclose(ev.gbar, [-0.3, -0.2])

    global_opt = twobar_eval(1.0, 0.0)
    assert global_opt.mass == pytest.approx(0.6)
    assert np.allclose(global_opt.gbar, [0.0, 0.0], atol=1e-15)

    local_opt = twobar_eval(0.0, 1.0)
    assert local_opt.mass == pytest.approx(0.8)
    assert np.allclose(local_opt.gbar, [0.0, 0.0], atol=1e-15)


def test_twobar_stress_ratio_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ev = twobar_eval(rng.uniform(0.05, 2), rng.uniform(0.05, 2))
        assert abs(ev.stresses[1]) / abs(ev.stresses[0]) == pytest.approx(1.5, rel=1e-12)


def test_twobar_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    step = 1e-7
    for _ in range(10):
        a = rng.uniform(0.1, 1.9, 2)
        ev = twobar_eval(a[0], a[1])
        for j in range(2):
            plus, minus = a.copy(), a.copy()
            plus[j] += step
            minus[j] -= step
            evp = twobar_eval(plus[0], plus[1])
            evm = twobar_eval(minus[0], minus[1])
            assert ev.dmass[j] == pytest.approx((evp.mass - evm.mass) / (2 * step), rel=1e-6)
            for i in range(2):
                fd = (evp.gbar[i] - evm.gbar[i]) / (2 * step)
                assert ev.dgbar[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_twobar_zero_denominator_rejected():
    with pytest.raises(ValueError, match="positive"):
        twobar_eval(0.0, 0.0)


def test_twobar_areas_outside_box_rejected():
    for a1, a2 in ((-0.1, 1.0), (1.0, 2.1), (2.5, -1.0)):
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            twobar_eval(a1, a2)


def test_twobar_constraint_gradient_at_zero_area():
    # one-sided derivative d gbar_i / d a_i = g_i / 2 on the boundary
    ev = twobar_eval(0.0, 1.0)
    g1 = abs(ev.stresses[0]) - 1.0
    assert ev.dgbar[0, 0] == pytest.approx(0.5 * g1, rel=1e-12)


def test_micro_net_constant_at_zero_outer_weights():
    for t in (-2.0, -0.3, 0.4, 1.7):
        areas, _ = twobar_siren_forward(np.array([t, 0.0, 0.0]), omega0=88.0)
        assert np.allclose(areas, [1.0, 1.0], atol=1e-15)


def test_micro_net_at_published_optimum():
    areas, _ = twobar_siren_forward(np.array([-1.272, 0.0, -2.901]), omega0=88.0)
    assert areas[0] == pytest.approx(1.0, abs=1e-12)
    assert areas[1] == pytest.approx(0.0, abs=1e-3)


def test_micro_net_outputs_bounded():
    rng = np.random.default_rng(2)
    for _ in range(50):
        areas, _ = twobar_siren_forward(rng.uniform(-11, 11, 3), omega0=rng.uniform(1, 100))
        assert np.all(areas >= 0.0) and np.all(areas <= 2.0)


def test_micro_net_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    step = 1e-6
    for _ in range(10):
        theta = rng.uniform(-3, 3, 3)
        _, jac = twobar_siren_forward(theta, omega0=88.0)
        for j in range(3):
            plus, minus = theta.copy(), theta.copy()
            plus[j] += step
            minus[j] -= step
            fd = (
                twobar_siren_forward(plus, omega0=88.0)[0]
                - twobar_siren_forward(minus, omega0=88.0)[0]
            ) / (2 * step)
            assert np.allclose(jac[:, j], fd, rtol=1e-6, atol=1e-6)


def test_make_problem_twobar():
    problem = make_problem("twobar")
    assert isinstance(problem, TwoBarProblem)
    assert problems.TWOBAR_LENGTHS == (0.6, 0.4)


def test_twobar_problem_has_no_settable_fields():
    # The truss data are module constants; a field that nothing would read
    # must not be accepted silently.
    with pytest.raises(TypeError):
        TwoBarProblem(sigma_max=2.0)


@pytest.mark.parametrize("resolution", [(1, 1), (7, 3), (64, 32)])
def test_thermal_load_is_the_element_loop_sum(resolution):
    # A quarter of each element's heat on each corner, summed element by
    # element and corner by corner: bit-identical to the plain loop.
    nx, ny = resolution
    expected = np.zeros((nx + 1) * (ny + 1))
    for iy in range(ny):
        for ix in range(nx):
            n_a = iy * (nx + 1) + ix
            for node in (n_a, n_a + 1, n_a + nx + 2, n_a + nx + 1):
                expected[node] += 1.0 / (nx * ny) / 4.0
    assert np.array_equal(make_problem("thermal", resolution).domain.load, expected)
