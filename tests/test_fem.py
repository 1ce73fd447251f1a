"""Element matrices, assembly/solve, and adjoint sensitivities.

The element oracle is the closed-form stiffness of the bilinear square
element (obtained by symbolic integration and cross-checked against the
widely published coefficient vector); solves are checked against dense
hand assemblies and sensitivities against central finite differences.
"""

import ctypes.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import topokit
from topokit import fem
from topokit.fem import GridDomain, SingularSystemError
from topokit.problems import CATALOG, make_problem

# Closed-form entries of the unit-modulus plane-stress element: k-vector and
# the symmetric sign pattern (result of symbolic integration).
_PATTERN = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 7, 6, 5, 4, 3, 2],
    [2, 7, 0, 5, 6, 3, 4, 1],
    [3, 6, 5, 0, 7, 2, 1, 4],
    [4, 5, 6, 7, 0, 1, 2, 3],
    [5, 4, 3, 2, 1, 0, 7, 6],
    [6, 3, 4, 1, 2, 7, 0, 5],
    [7, 2, 1, 4, 3, 6, 5, 0],
]


def reference_stiffness(nu):
    k = np.array(
        [
            1 / 2 - nu / 6,
            1 / 8 + nu / 8,
            -1 / 4 - nu / 12,
            -1 / 8 + 3 * nu / 8,
            -1 / 4 + nu / 12,
            -1 / 8 - nu / 8,
            nu / 6,
            1 / 8 - 3 * nu / 8,
        ]
    )
    return np.array([[k[_PATTERN[i][j]] for j in range(8)] for i in range(8)]) / (1 - nu**2)


def test_elastic_element_matches_closed_form():
    ke = fem.element_stiffness_elastic()
    assert np.allclose(ke, reference_stiffness(fem.POISSON), atol=1e-14)


def test_elastic_element_corner_entry():
    ke = fem.element_stiffness_elastic()
    assert ke[0, 0] == pytest.approx((1 / (1 - 0.09)) * (1 / 2 - 0.3 / 6), abs=1e-12)
    assert ke[0, 0] == pytest.approx(0.494505, abs=1e-6)


def test_elastic_element_symmetry_and_rigid_modes():
    ke = fem.element_stiffness_elastic()
    assert np.array_equal(ke, ke.T)
    tx = np.array([1.0, 0, 1, 0, 1, 0, 1, 0])
    ty = np.array([0.0, 1, 0, 1, 0, 1, 0, 1])
    assert np.abs(ke @ tx).max() < 1e-13
    assert np.abs(ke @ ty).max() < 1e-13
    # three rigid-body modes: two translations and one rotation
    eigenvalues = np.linalg.eigvalsh(ke)
    assert (np.abs(eigenvalues) < 1e-12).sum() == 3


def test_conduction_element_closed_form():
    expected = (
        np.array(
            [
                [4, -1, -2, -1],
                [-1, 4, -1, -2],
                [-2, -1, 4, -1],
                [-1, -2, -1, 4],
            ]
        )
        / 6.0
    )
    assert np.allclose(fem.element_conduction(), expected, atol=1e-14)


def _single_element_domain():
    # 1x1 mesh, left edge fixed, unit x-load at the bottom-right node.
    load = np.zeros(8)
    load[2 * 1] = 1.0  # node (1, 0), x DOF
    return GridDomain(
        nx=1, ny=1, physics="compliance", fixed_dofs=np.array([0, 1, 4, 5]), load=load
    )


def test_domain_checks_its_physics_at_construction():
    # A mechanism domain without an output vector used to fail only after
    # its first factor and solve.
    with pytest.raises(ValueError, match="unknown physics kind 'elastic'"):
        GridDomain(nx=1, ny=1, physics="elastic", fixed_dofs=[], load=np.zeros(8))
    with pytest.raises(ValueError, match="require an output vector"):
        GridDomain(nx=1, ny=1, physics="mechanism", fixed_dofs=[0, 1], load=np.zeros(8))
    thermal = GridDomain(nx=1, ny=1, physics="thermal", fixed_dofs=[0], load=np.zeros(4))
    assert thermal.dofs_per_node == 1 and thermal.n_dofs == 4
    assert fem.element_matrix(thermal) is fem.element_conduction()


def test_single_element_solve_against_hand_reduction():
    domain = _single_element_domain()
    u = fem.assemble_and_solve(domain, np.array([1.0]))

    # Hand assembly: element local nodes (a, b, c, d) own global DOFs
    # (0,1), (2,3), (6,7), (4,5); fixed global DOFs are 0,1,4,5.
    ke = reference_stiffness(0.3)
    local_of_global = {0: 0, 1: 1, 2: 2, 3: 3, 6: 4, 7: 5, 4: 6, 5: 7}
    free = [2, 3, 6, 7]
    idx = [local_of_global[g] for g in free]
    k_red = ke[np.ix_(idx, idx)]
    u_free = np.linalg.solve(k_red, np.array([1.0, 0.0, 0.0, 0.0]))
    expected = np.zeros(8)
    expected[free] = u_free
    assert np.allclose(u, expected, atol=1e-12)


def test_solve_linearity_in_modulus():
    domain = _single_element_domain()
    u1 = fem.assemble_and_solve(domain, np.array([1.0]))
    u2 = fem.assemble_and_solve(domain, np.array([2.0]))
    assert np.allclose(u2, 0.5 * u1, rtol=1e-12)


def test_thermal_2x2_symmetric_and_matches_dense_solve():
    # Uniform source, sink at the corner node: the temperature field must be
    # symmetric under swapping x and y.
    nx = ny = 2
    n_nodes = (nx + 1) * (ny + 1)
    load = np.zeros(n_nodes)
    edof = fem.element_dof_matrix(nx, ny, 1)
    for elem in edof:
        load[elem] += 0.25
    domain = GridDomain(nx=nx, ny=ny, physics="thermal", fixed_dofs=np.array([0]), load=load)
    u = fem.assemble_and_solve(domain, np.ones(4))

    temp = u.reshape(ny + 1, nx + 1)
    assert np.allclose(temp, temp.T, atol=1e-12)

    # brute-force dense assembly
    k_dense = np.zeros((n_nodes, n_nodes))
    ke = fem.element_conduction()
    for elem in edof:
        k_dense[np.ix_(elem, elem)] += ke
    free = np.arange(1, n_nodes)
    expected = np.zeros(n_nodes)
    expected[free] = np.linalg.solve(k_dense[np.ix_(free, free)], load[free])
    assert np.allclose(u, expected, atol=1e-12)


def _dense_system(domain, modulus):
    """Full global matrix assembled element by element, springs included."""
    k_dense = np.zeros((domain.n_dofs, domain.n_dofs))
    ke = fem.element_matrix(domain)
    for e, dofs in enumerate(domain.element_dofs()):
        k_dense[np.ix_(dofs, dofs)] += modulus[e] * ke
    for dof, stiffness in domain.springs:
        k_dense[dof, dof] += stiffness
    return k_dense


def _free_mask(domain):
    free = np.ones(domain.n_dofs, dtype=bool)
    free[domain.fixed_dofs] = False
    return free


def test_reduced_system_is_positive_definite():
    problem = make_problem("michell", 8, 4, 0.5)
    rng = np.random.default_rng(0)
    modulus = fem.simp_modulus(problem.domain, rng.uniform(0.05, 1.0, 32), 3.0)
    k_red = fem.assemble_system(problem.domain, modulus).toarray()
    order = fem.solve_plan(problem.domain).order
    k_dense = _dense_system(problem.domain, modulus)
    assert np.allclose(k_red, k_dense[np.ix_(order, order)], rtol=0.0, atol=1e-12)
    assert np.allclose(k_red, k_red.T, atol=1e-12)
    assert np.linalg.eigvalsh(k_red).min() > 0.0


def test_solution_invariant_under_assembly_order():
    problem = make_problem("mbb", 8, 4, 0.5)
    rng = np.random.default_rng(1)
    rho = rng.uniform(0.2, 1.0, 32)
    modulus = fem.simp_modulus(problem.domain, rho, 3.0)
    u = fem.assemble_and_solve(problem.domain, modulus)

    # Same triplets in shuffled element order, assembled densely.
    import scipy.sparse as sparse

    ke = fem.element_stiffness_elastic()
    edof = problem.domain.element_dofs()
    order = rng.permutation(32)
    rows, cols, vals = [], [], []
    for e in order:
        dofs = edof[e]
        rows.append(np.repeat(dofs, 8))
        cols.append(np.tile(dofs, 8))
        vals.append((modulus[e] * ke).ravel())
    k_mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(problem.domain.n_dofs,) * 2,
    ).tocsc()
    free = _free_mask(problem.domain)
    u2 = np.zeros(problem.domain.n_dofs)
    u2[free] = sparse.linalg.spsolve(k_mat[free][:, free], problem.domain.load[free])
    assert np.abs(u - u2).max() < 1e-10


def test_modified_simp_modulus_value():
    modulus = fem.simp_modulus(_single_element_domain(), np.array([0.5]), 3.0)
    assert modulus[0] == pytest.approx(1e-9 + 0.125 * (10.0 - 1e-9), rel=1e-12)


@pytest.mark.parametrize("name", CATALOG)
def test_objective_value_is_the_value_of_evaluate_objective(name):
    problem = make_problem(name, 16, 8, None)
    rho = np.random.default_rng(3).uniform(0.0, 1.0, problem.n_elements)
    value = fem.objective_value(problem.domain, rho, problem.penalty)
    assert value == fem.evaluate_objective(problem.domain, rho, problem.penalty).value
    with pytest.raises(ValueError, match="density"):
        fem.objective_value(problem.domain, np.full(problem.n_elements, 1.5), problem.penalty)


def test_compliance_all_solid_positive_with_nonpositive_gradient():
    problem = make_problem("mbb", 8, 4, 1.0)
    ev = fem.evaluate_objective(problem.domain, np.ones(32), 3.0)
    assert ev.value > 0.0
    assert np.all(ev.grad_wrt_density <= 0.0)


def test_compliance_monotone_in_single_density():
    problem = make_problem("cantilever", 8, 4, 0.5)
    rng = np.random.default_rng(2)
    rho = rng.uniform(0.2, 0.9, 32)
    base = fem.evaluate_objective(problem.domain, rho, 3.0).value
    for e in rng.choice(32, size=5, replace=False):
        bumped = rho.copy()
        bumped[e] = min(1.0, bumped[e] + 0.2)
        value = fem.evaluate_objective(problem.domain, bumped, 3.0).value
        assert value <= base + 1e-12


@pytest.mark.parametrize("name", ["mbb", "thermal", "mechanism"])
def test_adjoint_gradient_matches_finite_differences(name):
    problem = make_problem(name, 8, 4 if name != "thermal" else 8, None)
    n = problem.n_elements
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.3, 0.9, n)
    ev = fem.evaluate_objective(problem.domain, rho, problem.penalty)
    step = 1e-6
    for e in rng.choice(n, size=8, replace=False):
        plus = rho.copy()
        plus[e] += step
        minus = rho.copy()
        minus[e] -= step
        fd = (
            fem.evaluate_objective(problem.domain, plus, problem.penalty).value
            - fem.evaluate_objective(problem.domain, minus, problem.penalty).value
        ) / (2 * step)
        scale = max(abs(fd), abs(ev.grad_wrt_density[e]), 1e-12)
        assert abs(ev.grad_wrt_density[e] - fd) / scale < 1e-4


def test_passive_elements_clamped_with_zero_gradient():
    problem = make_problem("bridge", 8, 4, 0.3)
    assert problem.domain.passive_solid.size > 0
    rho = np.full(32, 0.3)
    ev = fem.evaluate_objective(problem.domain, rho, 3.0)
    assert np.all(ev.grad_wrt_density[problem.domain.passive_solid] == 0.0)
    # clamping the passive deck must change the response vs. the raw field
    no_passive = GridDomain(
        nx=8,
        ny=4,
        physics="compliance",
        fixed_dofs=problem.domain.fixed_dofs,
        load=problem.domain.load,
    )
    ev_raw = fem.evaluate_objective(no_passive, rho, 3.0)
    assert ev.value != pytest.approx(ev_raw.value)


def test_density_out_of_range_rejected():
    problem = make_problem("mbb", 4, 2, 0.5)
    rho = np.full(8, 0.5)
    rho[0] = 1.0 + 1e-9
    with pytest.raises(ValueError, match="0, 1"):
        fem.evaluate_objective(problem.domain, rho, 3.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_density_rejected_before_the_solve(bad):
    # A NaN used to pass the range check and reach the LU as a singular system.
    problem = make_problem("mbb", 4, 2, 0.5)
    rho = np.full(8, 0.5)
    rho[3] = bad
    with pytest.raises(ValueError, match="finite"):
        fem.evaluate_objective(problem.domain, rho, 3.0)


def test_singular_system_error_names_physics_and_mesh():
    # no fixed DOFs: rigid modes make the system singular
    domain = GridDomain(
        nx=2, ny=2, physics="compliance", fixed_dofs=np.zeros(0, dtype=int), load=np.zeros(18)
    )
    domain.load[4] = 1.0
    with pytest.raises(SingularSystemError, match="compliance.*2x2"):
        fem.assemble_and_solve(domain, np.ones(4))


def test_repeated_solves_bit_identical():
    problem = make_problem("tensile", 8, 4, 0.5)
    rho = np.random.default_rng(4).uniform(0.2, 1.0, 32)
    ev1 = fem.evaluate_objective(problem.domain, rho, 3.0)
    ev2 = fem.evaluate_objective(problem.domain, rho, 3.0)
    assert ev1.value == ev2.value
    assert np.array_equal(ev1.grad_wrt_density, ev2.grad_wrt_density)


def _assert_matches_dense_solve(u, domain, modulus):
    free = _free_mask(domain)
    k_dense = _dense_system(domain, modulus)
    expected = np.zeros(domain.n_dofs)
    expected[free] = np.linalg.solve(k_dense[np.ix_(free, free)], domain.load[free])
    assert np.abs(u - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize("resolution", [(1, 1), (7, 3), (12, 5), (2, 9)])
@pytest.mark.parametrize("name", CATALOG)
def test_solve_matches_dense_oracle(name, resolution):
    problem = make_problem(name, *resolution, None)
    domain = problem.domain
    rng = np.random.default_rng(sum(resolution) + len(name))
    rho = rng.uniform(0.0, 1.0, problem.n_elements)
    modulus = fem.simp_modulus(domain, rho, problem.penalty)
    u = fem.assemble_and_solve(domain, modulus)
    _assert_matches_dense_solve(u, domain, modulus)

    # evaluate_objective clamps the passive deck before it solves.
    clamped = rho.copy()
    clamped[domain.passive_solid] = 1.0
    modulus = fem.simp_modulus(domain, clamped, problem.penalty)
    u = fem.evaluate_objective(domain, rho, problem.penalty).displacement
    _assert_matches_dense_solve(u, domain, modulus)


def test_domains_on_one_grid_never_share_a_plan():
    base = make_problem("mechanism", 7, 3, None).domain

    def variant(fixed_dofs, springs=()):
        return GridDomain(
            nx=7, ny=3, physics="compliance", fixed_dofs=fixed_dofs, load=base.load, springs=springs
        )

    domains = [
        base,
        variant(base.fixed_dofs[1:], base.springs),
        variant(base.fixed_dofs, ((base.springs[0][0], 5.0),)),
        variant(base.fixed_dofs),
    ]
    plans = [fem.solve_plan(d) for d in domains]
    assert len({id(p) for p in plans}) == len(domains)
    assert plans[1].order.size == plans[0].order.size + 1
    assert plans[2].spring_values.tolist() == [5.0]
    assert plans[3].spring_slots.size == 0
    # The same content maps to the same plan.
    assert fem.solve_plan(variant(base.fixed_dofs)) is plans[3]

    modulus = np.random.default_rng(5).uniform(0.1, 10.0, 21)
    for domain in domains + domains[::-1]:
        u = fem.assemble_and_solve(domain, modulus)
        _assert_matches_dense_solve(u, domain, modulus)


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 40),
    ny=st.integers(1, 40),
    physics=st.sampled_from(fem.PHYSICS_KINDS),
    data=st.data(),
)
def test_elimination_order_is_a_permutation_of_the_free_dofs(nx, ny, physics, data):
    n_dofs = fem.DOFS_PER_NODE[physics] * (nx + 1) * (ny + 1)
    fixed = data.draw(st.sets(st.integers(0, n_dofs - 1), max_size=n_dofs - 1))
    domain = GridDomain(
        nx=nx,
        ny=ny,
        physics=physics,
        fixed_dofs=sorted(fixed),
        load=np.zeros(n_dofs),
        output_vector=np.zeros(n_dofs),
    )
    order = fem.solve_plan(domain).order
    assert np.array_equal(np.sort(order), np.flatnonzero(_free_mask(domain)))


def sorted_reference_plan(nx, ny, dofs_per_node, fixed_dofs, springs):
    """Reference plan build: one global sort of every element-matrix entry.

    Keys ``column * n_free + row`` of the kept entries, sorted and made
    unique, are the CSC pattern; each entry's slot is its key's rank.
    Shares only the elimination order with ``fem``.
    """
    n_dofs = dofs_per_node * (nx + 1) * (ny + 1)
    is_free = np.ones(n_dofs, dtype=bool)
    is_free[np.asarray(fixed_dofs, dtype=int)] = False
    nodes = fem._dissection_node_order(nx + 1, ny + 1)
    dofs = (dofs_per_node * nodes[:, None] + np.arange(dofs_per_node)).ravel()
    order = dofs[is_free[dofs]]
    n_free = order.size
    position = np.full(n_dofs, -1, dtype=np.int64)
    position[order] = np.arange(n_free)

    edof = position[fem.element_dof_matrix(nx, ny, dofs_per_node)]
    n_local = edof.shape[1]
    rows = np.repeat(edof, n_local, axis=1).ravel()
    cols = np.tile(edof, (1, n_local)).ravel()
    kept = (rows >= 0) & (cols >= 0)
    keys, slot_of_kept = np.unique(cols[kept] * n_free + rows[kept], return_inverse=True)
    slots = np.full(rows.size, keys.size, dtype=np.int32)
    slots[kept] = slot_of_kept
    indptr = np.zeros(n_free + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n_free, minlength=n_free), out=indptr[1:])
    indices = (keys % n_free).astype(np.int32)

    spring_pos = position[np.array([dof for dof, _ in springs], dtype=int)]
    on_free = spring_pos >= 0
    spring_slots = np.searchsorted(keys, spring_pos[on_free] * (n_free + 1))
    spring_values = np.array([k for _, k in springs], dtype=float)[on_free]
    return fem.SolvePlan(order, indptr, indices, slots, spring_slots, spring_values)


def _assert_plan_matches_reference(domain):
    plan = fem.solve_plan(domain)
    reference = sorted_reference_plan(
        domain.nx, domain.ny, domain.dofs_per_node, domain.fixed_dofs, domain.springs
    )
    for name, expected in vars(reference).items():
        actual = getattr(plan, name)
        assert actual.dtype == expected.dtype, name
        assert np.array_equal(actual, expected), name
        assert not actual.flags.writeable, name


@pytest.mark.parametrize("resolution", [(1, 1), (7, 3), (12, 5), (2, 9), (64, 32), (160, 80)])
@pytest.mark.parametrize("name", CATALOG)
def test_plan_matches_sorted_reference(name, resolution):
    _assert_plan_matches_reference(make_problem(name, *resolution, None).domain)


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 40),
    ny=st.integers(1, 40),
    physics=st.sampled_from(fem.PHYSICS_KINDS),
    data=st.data(),
)
def test_plan_matches_sorted_reference_on_random_domains(nx, ny, physics, data):
    n_dofs = fem.DOFS_PER_NODE[physics] * (nx + 1) * (ny + 1)
    fixed = data.draw(st.sets(st.integers(0, n_dofs - 1), max_size=n_dofs - 1))
    springs = data.draw(
        st.lists(st.tuples(st.integers(0, n_dofs - 1), st.floats(0.1, 10.0)), max_size=4)
    )
    domain = GridDomain(
        nx=nx,
        ny=ny,
        physics=physics,
        fixed_dofs=sorted(fixed),
        load=np.zeros(n_dofs),
        output_vector=np.zeros(n_dofs),
        springs=springs,
    )
    _assert_plan_matches_reference(domain)


def bincount_reference_data(domain, modulus_field):
    """CSC data of K the top88 way: one E*64 weights array, one bincount."""
    plan = fem.solve_plan(domain)
    weights = (modulus_field[:, None] * fem.element_matrix(domain).ravel()).ravel()
    data = np.bincount(plan.slots, weights=weights, minlength=plan.indices.size + 1)[:-1]
    np.add.at(data, plan.spring_slots, plan.spring_values)
    return data


# 7x3 fills one partial block, 33x17 (561 elements) one full and one partial.
@pytest.mark.parametrize("resolution", [(1, 1), (7, 3), (33, 17), (160, 80)])
@pytest.mark.parametrize("name", CATALOG)
def test_block_assembly_matches_bincount_reference(name, resolution):
    domain = make_problem(name, *resolution, None).domain
    rho = np.random.default_rng(resolution[0]).random(domain.n_elements)
    modulus = fem.simp_modulus(domain, rho, 3.0)
    plan = fem.solve_plan(domain)
    k_ff = fem.assemble_system(domain, modulus)
    assert np.array_equal(k_ff.data, bincount_reference_data(domain, modulus))
    assert np.array_equal(k_ff.indices, plan.indices)
    assert np.array_equal(k_ff.indptr, plan.indptr)


def test_assembly_holds_no_per_entry_array():
    domain = make_problem("michell", 160, 80, None).domain
    modulus = fem.simp_modulus(domain, np.full(domain.n_elements, 0.5), 3.0)
    fem.solve_plan(domain)
    tracemalloc.start()
    try:
        fem.assemble_system(domain, modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < domain.n_elements * 64 * 8


@pytest.mark.skipif(
    ctypes.util.find_library("c_malloc_debug") is None, reason="needs glibc's libc_malloc_debug"
)
def test_lu_settings_keep_the_heap_intact_under_glibc_checks():
    # SuperLU's work arrays are sized by the panel width; panels wider than
    # 20 overrun them. glibc's checking allocator aborts on the corruption
    # that a plain process may survive.
    code = (
        "import sys, numpy as np; from topokit import fem; "
        "from topokit.problems import CATALOG, make_problem\n"
        "for nx, ny in ((16, 8), (33, 17), (64, 32)):\n"
        "    for name in CATALOG:\n"
        "        problem = make_problem(name, nx, ny, None)\n"
        "        rho = np.random.default_rng(nx).uniform(0.0, 1.0, problem.n_elements)\n"
        "        fem.evaluate_objective(problem.domain, rho, problem.penalty)\n"
        "print('ok')"
    )
    src = str(Path(topokit.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "LD_PRELOAD": "libc_malloc_debug.so.0",
        "MALLOC_CHECK_": "3",
    }
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "ok"


@pytest.mark.parametrize("name", CATALOG)
def test_solve_matches_default_superlu(name):
    # The tuned factorization (nested-dissection order, diagonal pivots,
    # symmetric mode, narrow panels) against SuperLU at its defaults.
    problem = make_problem(name, 33, 17, None)
    domain = problem.domain
    modulus = fem.simp_modulus(domain, np.random.default_rng(5).uniform(0.0, 1.0, problem.n_elements), 3.0)
    order = fem.solve_plan(domain).order
    expected = spla.splu(fem.assemble_system(domain, modulus)).solve(domain.load[order])
    u = fem.assemble_and_solve(domain, modulus)[order]
    assert np.abs(u - expected).max() <= 1e-10 * np.abs(expected).max()


def test_penalty_below_one_rejected():
    with pytest.raises(ValueError, match="penalty 0.5"):
        make_problem("michell", 8, 4, v0=0.5, penalty=0.5)
    problem = make_problem("michell", 8, 4, v0=0.5, penalty=1.0)
    rho = np.full(32, 0.5)
    rho[0] = 0.0
    with pytest.raises(ValueError, match="penalty 0.5"):
        fem.evaluate_objective(problem.domain, rho, 0.5)
    ev = fem.evaluate_objective(problem.domain, rho, 1.0)
    assert np.all(np.isfinite(ev.grad_wrt_density))
