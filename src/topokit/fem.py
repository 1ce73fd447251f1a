"""Finite element analysis on regular grids of unit square elements.

Supports plane-stress elasticity, steady heat conduction, and compliant
mechanisms (springs at input/output degrees of freedom). All three share the
same assembly path; they differ in the element matrix, the number of degrees
of freedom per node, the SIMP moduli, and the adjoint used for sensitivities.
A :class:`GridDomain` owns its physics kind, so every entry point takes the
domain alone and reads the rest from the kind.

Every solve is direct. A domain's :class:`SolvePlan` is built once and
cached: a nested-dissection elimination order of the free DOFs (recursive
bisection of the node grid, separators last; George 1973), the CSC pattern
of the reduced matrix in that order, and the slot of every element-matrix
entry and spring in it. An evaluation then only scatters ``E_e * k0`` into
the data array, factors with SuperLU in that order with diagonal pivots
(the reduced matrix is symmetric positive definite), and permutes the
right-hand side and the solution. Each solution is residual-checked and
refined once before it is accepted.

The scatter runs in blocks of :data:`ASSEMBLY_BLOCK` elements: each
block's ``E_e * k0`` is written into one reused buffer and added into the
data array by a 1-D ``np.add.at`` over the block's slots. ``ufunc.at``
adds in index order, so every slot sums its element contributions in
element order, exactly as one ``np.bincount`` over all E*64 entries did
(top88's ``sK``; Andreassen et al. 2011), and K is bit-identical to it.
That weights array was 6.3 MiB at 160x80 and 25 MiB at 320x160, built on
every evaluation; from the second one on, glibc kept it resident beside
the SuperLU factor. On a 2-core x86-64 VM, without it the median peak RSS
of a 160x80 direct MMA run fell from 117.0 to 113.2 MB (10 of 10
alternating 30-s benchmark pairs), and an assembly interleaved with
factorizations from 8.6-13.3 ms and 2.3-2.9k minor page faults to
5.9-7.3 ms and 1.2-1.7k. The index and value arrays must be 1-D: with a
(block, 64) index array ``np.add.at`` leaves the fast path that numpy
1.25 introduced (hence the ``numpy>=1.25`` floor) and took 10.6-10.9 ms
per 160x80 assembly against 3.2-3.3 ms (numpy 2.4.6).

SuperLU (Demmel et al. 1999) factors panels of :data:`LU_PANEL_SIZE`
consecutive columns, and sizes its work arrays by that width; they sit
above the factor at the high-water mark of every run. Its default is 20
columns (scipy 1.17, with ``relax`` 10, which is kept). Widths 1, 2, 4
and 8 were timed against it in fresh processes on random SIMP moduli,
each process taking its fastest of 5-10 factorizations. 4 is the narrowest
width that is no slower at every size. Medians of 6 alternating processes
per side, the default against width 4 (2-core x86-64): 12.4 against 11.9
ms at 64x32, 65.6 against 64.6 ms for the 128x64 mechanism, 115.5 against
107.5 ms at 160x80, and 704 against 712 ms at 320x160, where 10 more
alternating processes read 856 against 837 ms. Width 2 read 771 ms and
width 1 over 800 ms at 320x160. The process's peak RSS fell from 119.4 to
111.1 MB at 160x80 and from 314.6 to 283.1 MB at 320x160. The factors
differ from the default's by round-off only. The width must never exceed
20 (see the constant).

Each factorization also maps SuperLU's work arrays afresh, because glibc
serves allocations that large with mmap and unmaps them on free: 8.5k
minor page faults per factorization at 160x80 (about 34 MB of pages), 4.9k
for the 128x64 mechanism and 1.0k at 64x32, in isolated ``splu`` loops on
random SIMP moduli. Heap-backed work arrays remove the faults (tested with
``mallopt`` raising ``M_MMAP_THRESHOLD`` and ``M_TRIM_THRESHOLD`` to 1 GiB
around ``splu``): a factorization took 85-88 instead of 100-110 ms at
160x80, 46-49 instead of 54-58 ms for the mechanism and 8.1-8.4 instead of
9.7-10.6 ms at 64x32 (2-core x86-64). But the process's max RSS rose by
20, 8 and 3 MB, because freed heap blocks are carved again at shifting
offsets (thresholds fixed from the start of the process still gave +14.6
MB at 160x80). So the allocator keeps its defaults; a factor that owns and
reuses its storage would save the faults without that cost.

The plan is read off the node stencil, without sorting the element
entries: two DOFs couple exactly when their nodes lie in one 3x3 node
neighbourhood, and free DOFs are numbered node by node. So a column holds
the free DOFs of its node's neighbours, sorted by their rank in the
elimination order; a neighbour's row offset in the column is the running
count of free DOFs before it; and an element entry's slot is the column
start plus that offset plus the row DOF's rank among its node's free DOFs.
On a 2-core VM at 160x80 this takes about 20 ms, against 45-60 ms for a
global ``np.unique`` over the 819k element entries.

Grid conventions: node (ix, iy) has index ``iy * (nx + 1) + ix`` and element
(ix, iy) has index ``iy * nx + ix``; elastic DOFs are ``(2n, 2n + 1)`` for
node n. Element-local nodes are ordered (x, y), (x+1, y), (x+1, y+1),
(x, y+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import pipeline

PHYSICS_KINDS = ("compliance", "thermal", "mechanism")
#: Degrees of freedom per node, per physics kind: a displacement in x and y,
#: or a temperature.
DOFS_PER_NODE = {"compliance": 2, "thermal": 1, "mechanism": 2}
#: SIMP modulus of solid and of void material, per physics kind.
MODULUS_SOLID = {"compliance": 10.0, "thermal": 1.0, "mechanism": 10.0}
MODULUS_VOID = {"compliance": 1e-9, "thermal": 0.001, "mechanism": 1e-9}

#: Relative residual accepted from the direct solve.
RESIDUAL_TOL = 1e-8
#: Poisson's ratio of the plane-stress material.
POISSON = 0.3


class SingularSystemError(RuntimeError):
    """The reduced system could not be solved to the required residual."""


@dataclass
class GridDomain:
    """Mesh, physics, boundary conditions and load data for one boundary
    value problem.

    ``physics`` is one of :data:`PHYSICS_KINDS`; it fixes the DOFs per node,
    the element matrix and the SIMP moduli.
    ``load`` is the global right-hand side (forces, or heat sources for
    thermal problems). ``output_vector`` selects the mechanism objective
    P^T U (zeros except at the output DOF) and is required for that kind;
    compliance and thermal compliance are F^T U and leave it unused.
    """

    nx: int
    ny: int
    physics: str
    fixed_dofs: np.ndarray
    load: np.ndarray
    output_vector: np.ndarray | None = None
    passive_solid: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    springs: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.physics not in PHYSICS_KINDS:
            raise ValueError(f"unknown physics kind {self.physics!r}, expected one of {PHYSICS_KINDS}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid needs nx, ny >= 1")
        self.fixed_dofs = np.asarray(self.fixed_dofs, dtype=int).ravel()
        self.load = np.asarray(self.load, dtype=float).ravel()
        self.passive_solid = np.asarray(self.passive_solid, dtype=int).ravel()
        self.springs = tuple((int(dof), float(stiffness)) for dof, stiffness in self.springs)
        if self.load.size != self.n_dofs:
            raise ValueError(f"load vector has {self.load.size} entries, expected {self.n_dofs}")
        if self.output_vector is not None:
            self.output_vector = np.asarray(self.output_vector, dtype=float).ravel()
            if self.output_vector.size != self.n_dofs:
                raise ValueError("output vector size mismatch")
        elif self.physics == "mechanism":
            raise ValueError("mechanism problems require an output vector")
        if self.fixed_dofs.size:
            if np.any(np.diff(self.fixed_dofs) <= 0):
                raise ValueError("fixed_dofs must be strictly increasing")
            if self.fixed_dofs[0] < 0 or self.fixed_dofs[-1] >= self.n_dofs:
                raise ValueError("fixed_dofs out of DOF range")
        if self.passive_solid.size and (
            self.passive_solid.min() < 0 or self.passive_solid.max() >= self.n_elements
        ):
            raise ValueError("passive_solid indices out of element range")
        for dof, stiffness in self.springs:
            if not 0 <= dof < self.n_dofs:
                raise ValueError(f"spring DOF {dof} out of range")
            if stiffness <= 0.0:
                raise ValueError("spring stiffness must be positive")

    @property
    def dofs_per_node(self) -> int:
        return DOFS_PER_NODE[self.physics]

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_dofs(self) -> int:
        return self.dofs_per_node * self.n_nodes

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny

    def element_dofs(self) -> np.ndarray:
        return element_dof_matrix(self.nx, self.ny, self.dofs_per_node)


@dataclass(frozen=True)
class ObjectiveEval:
    """Objective value and its adjoint gradient w.r.t. physical densities."""

    value: float
    grad_wrt_density: np.ndarray
    displacement: np.ndarray


def _shape_gradients(xi: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    # Bilinear shape functions on [-1,1]^2; physical derivatives for a unit
    # square element are twice the parent-space derivatives.
    dn_dxi = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
    dn_deta = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
    return 2.0 * dn_dxi, 2.0 * dn_deta


@lru_cache(maxsize=None)
def element_stiffness_elastic() -> np.ndarray:
    """Unit-modulus plane-stress stiffness of the bilinear square element,
    Poisson's ratio :data:`POISSON`.

    Integrated with 2x2 Gauss quadrature, which is exact for this element.
    """
    nu = POISSON
    d_mat = np.array(
        [[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, (1.0 - nu) / 2.0]]
    ) / (1.0 - nu**2)
    ke = np.zeros((8, 8))
    gp = 1.0 / np.sqrt(3.0)
    for xi in (-gp, gp):
        for eta in (-gp, gp):
            dn_dx, dn_dy = _shape_gradients(xi, eta)
            b_mat = np.zeros((3, 8))
            b_mat[0, 0::2] = dn_dx
            b_mat[1, 1::2] = dn_dy
            b_mat[2, 0::2] = dn_dy
            b_mat[2, 1::2] = dn_dx
            ke += 0.25 * b_mat.T @ d_mat @ b_mat  # det J = 1/4, unit weights
    ke = 0.5 * (ke + ke.T)  # remove round-off asymmetry
    ke.setflags(write=False)
    return ke


@lru_cache(maxsize=None)
def element_conduction() -> np.ndarray:
    """Unit-conductivity matrix of the bilinear square element."""
    ke = np.zeros((4, 4))
    gp = 1.0 / np.sqrt(3.0)
    for xi in (-gp, gp):
        for eta in (-gp, gp):
            dn_dx, dn_dy = _shape_gradients(xi, eta)
            b_mat = np.vstack([dn_dx, dn_dy])
            ke += 0.25 * b_mat.T @ b_mat
    ke.setflags(write=False)
    return ke


def element_matrix(domain: GridDomain) -> np.ndarray:
    """Unit-modulus element matrix of the domain's physics."""
    if domain.physics == "thermal":
        return element_conduction()
    return element_stiffness_elastic()


@lru_cache(maxsize=None)
def element_dof_matrix(nx: int, ny: int, dofs_per_node: int) -> np.ndarray:
    """Global DOF indices per element, one row per element (row-major)."""
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    ix = ix.ravel()
    iy = iy.ravel()
    n_a = iy * (nx + 1) + ix
    nodes = np.stack([n_a, n_a + 1, n_a + nx + 2, n_a + nx + 1], axis=1)
    if dofs_per_node == 1:
        edof = nodes
    else:
        edof = np.empty((nx * ny, 8), dtype=int)
        edof[:, 0::2] = 2 * nodes
        edof[:, 1::2] = 2 * nodes + 1
    edof.setflags(write=False)
    return edof


#: Node blocks with at most this many nodes end the dissection and keep their
#: natural (row-major) order.
DISSECTION_LEAF_NODES = 16


def _dissection_node_order(nodes_x: int, nodes_y: int) -> np.ndarray:
    """Nested-dissection order of a ``nodes_y`` by ``nodes_x`` node grid.

    Each block is cut by its middle node line across the longer side. No
    bilinear element touches nodes on both sides of that line, so the two
    halves are ordered first (recursively) and the separator line last.
    """
    parts: list[np.ndarray] = []

    def visit(block: np.ndarray) -> None:
        rows, cols = block.shape
        if rows * cols <= DISSECTION_LEAF_NODES:
            parts.append(block.ravel())
        elif cols >= rows:
            mid = cols // 2
            visit(block[:, :mid])
            visit(block[:, mid + 1 :])
            parts.append(block[:, mid])
        else:
            mid = rows // 2
            visit(block[:mid])
            visit(block[mid + 1 :])
            parts.append(block[mid])

    visit(np.arange(nodes_x * nodes_y).reshape(nodes_y, nodes_x))
    return np.concatenate(parts)


@dataclass(frozen=True)
class SolvePlan:
    """Structure of a domain's reduced system, shared by all its solves.

    ``order`` lists the free DOFs in elimination order: row and column i of
    the reduced matrix belong to DOF ``order[i]``. ``indptr``/``indices`` are
    that matrix's CSC pattern. ``slots`` gives, for every element-matrix
    entry in (element, row, column) order, its position in the CSC data
    array, or ``nnz`` when the entry lies in a fixed row or column.
    ``spring_slots`` are the diagonal positions of the springs on free DOFs.
    """

    order: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray
    spring_slots: np.ndarray
    spring_values: np.ndarray


def solve_plan(domain: GridDomain) -> SolvePlan:
    """The cached plan for the domain's grid, fixed DOFs and springs."""
    return _cached_plan(
        domain.nx, domain.ny, domain.dofs_per_node, domain.fixed_dofs.tobytes(), domain.springs
    )


#: ``_LOCAL_DIRECTION[a, b]`` is the direction index ``3 * (dy + 1) + (dx + 1)``
#: of element-local node b seen from node a; local nodes in
#: ``element_dof_matrix`` order: (0, 0), (1, 0), (1, 1), (0, 1).
_LOCAL_X = np.array([0, 1, 1, 0])
_LOCAL_Y = np.array([0, 0, 1, 1])
_LOCAL_DIRECTION = 3 * (_LOCAL_Y[None, :] - _LOCAL_Y[:, None] + 1) + (
    _LOCAL_X[None, :] - _LOCAL_X[:, None] + 1
)


def _stencil(values: np.ndarray, nodes_x: int, nodes_y: int, fill: int) -> np.ndarray:
    """Per node, ``values`` of its 3x3 node neighbourhood in direction order
    (``fill`` outside the grid); one row per node."""
    padded = np.full((nodes_y + 2, nodes_x + 2), fill, dtype=values.dtype)
    padded[1:-1, 1:-1] = values.reshape(nodes_y, nodes_x)
    return np.stack(
        [padded[dy : dy + nodes_y, dx : dx + nodes_x].ravel() for dy in range(3) for dx in range(3)],
        axis=1,
    )


@lru_cache(maxsize=8)
def _cached_plan(
    nx: int, ny: int, dofs_per_node: int, fixed: bytes, springs: tuple[tuple[int, float], ...]
) -> SolvePlan:
    d = dofs_per_node
    nodes_x, nodes_y = nx + 1, ny + 1
    n_nodes = nodes_x * nodes_y
    n_dofs = d * n_nodes
    is_free = np.ones(n_dofs, dtype=bool)
    is_free[np.frombuffer(fixed, dtype=int)] = False
    nodes = _dissection_node_order(nodes_x, nodes_y)
    dofs = (d * nodes[:, None] + np.arange(d)).ravel()
    order = dofs[is_free[dofs]]
    n_free = order.size

    # Free DOFs are numbered node by node in dissection order, so a node's
    # free DOFs are consecutive and its first one sits after the free DOFs
    # of every node ranked before it.
    free = is_free.reshape(n_nodes, d)
    free_count = free.sum(axis=1, dtype=np.int32)
    comp_rank = (np.cumsum(free, axis=1, dtype=np.int32) - free).ravel()
    rank = np.empty(n_nodes, dtype=np.int32)
    rank[nodes] = np.arange(n_nodes, dtype=np.int32)
    first = np.empty(n_nodes, dtype=np.int32)
    first[nodes] = np.cumsum(free_count[nodes], dtype=np.int32) - free_count[nodes]

    # Column j of the reduced matrix holds every free DOF of the 3x3 node
    # neighbourhood of j's node, neighbours by rank, components ascending.
    by_rank = np.argsort(_stencil(rank, nodes_x, nodes_y, n_nodes), axis=1, kind="stable")
    count = np.take_along_axis(_stencil(free_count, nodes_x, nodes_y, 0), by_rank, axis=1)
    start = np.take_along_axis(_stencil(first, nodes_x, nodes_y, 0), by_rank, axis=1)
    offset = np.empty_like(count)  # a neighbour's first row within the column, by direction
    np.put_along_axis(offset, by_rank, np.cumsum(count, axis=1) - count, axis=1)

    column_node = order // d
    indptr = np.zeros(n_free + 1, dtype=np.int32)
    np.cumsum(count.sum(axis=1)[column_node], out=indptr[1:])
    comps = np.arange(d, dtype=np.int32)
    rows = (start[:, :, None] + comps)[column_node]
    indices = rows[(comps < count[:, :, None])[column_node]]
    nnz = indices.size

    # Entry (row i, column j) of an element sits at j's column start, plus
    # the offset of i's node in j's column, plus i's rank among its node's
    # free DOFs. A fixed DOF gets column start and rank nnz, so every entry
    # touching it lands at or beyond nnz and is clipped to the dropped slot.
    column_start = np.full(n_dofs, nnz, dtype=np.int32)
    column_start[order] = indptr[:-1]
    row_rank = np.where(is_free, comp_rank, nnz).astype(np.int32)
    edof = element_dof_matrix(nx, ny, d)
    local_node = np.arange(edof.shape[1]) // d
    node_offset = offset[element_dof_matrix(nx, ny, 1)[:, None, :], _LOCAL_DIRECTION.T]
    slots = column_start[edof][:, None, :] + row_rank[edof][:, :, None]
    slots += node_offset[:, local_node[:, None], local_node[None, :]]
    np.minimum(slots, nnz, out=slots)
    slots = slots.ravel()

    # A spring sits on the diagonal: the centre entry (direction 4) of its column.
    spring_dofs = np.array([dof for dof, _ in springs], dtype=int)
    on_free = is_free[spring_dofs]
    spring_dofs = spring_dofs[on_free]
    spring_slots = (
        column_start[spring_dofs] + offset[spring_dofs // d, 4] + comp_rank[spring_dofs]
    ).astype(np.intp)
    spring_values = np.array([k for _, k in springs], dtype=float)[on_free]
    plan = SolvePlan(order, indptr, indices, slots, spring_slots, spring_values)
    for array in vars(plan).values():
        array.setflags(write=False)
    return plan


#: Elements per block of the assembly scatter: a 256 KiB weights buffer for
#: the 8x8 elastic element matrix.
ASSEMBLY_BLOCK = 512

#: SuperLU's panel width: the number of consecutive columns factored as one
#: panel, which sizes its work arrays (the module docstring has the
#: measurements). Never wider than 20, SuperLU's own default: wider panels
#: overrun those arrays. Under glibc's checking allocator a 32x16 solve
#: aborted at widths 21, 22 and 32 ("free(): invalid pointer", "corrupted
#: size vs. prev_size"), and at 32 one of 4 plain processes aborted too.
LU_PANEL_SIZE = 4


def assemble_system(domain: GridDomain, modulus_field: np.ndarray) -> sparse.csc_matrix:
    """Reduced matrix K = sum_e E_e * k0 plus springs, fixed DOFs eliminated.

    Rows and columns follow ``solve_plan(domain).order``.
    """
    modulus_field = np.asarray(modulus_field, dtype=float).ravel()
    if modulus_field.size != domain.n_elements:
        raise ValueError("modulus field length must equal the element count")
    if np.any(modulus_field <= 0.0):
        raise ValueError("modulus field entries must be positive")
    plan = solve_plan(domain)
    n_free = plan.order.size
    k0 = element_matrix(domain).ravel()
    block = min(ASSEMBLY_BLOCK, modulus_field.size)
    weights = np.empty((block, k0.size))
    data = np.zeros(plan.indices.size + 1)  # the last slot takes the fixed-DOF entries
    for start in range(0, modulus_field.size, block):
        moduli = modulus_field[start : start + block]
        part = weights[: moduli.size]
        np.multiply(moduli[:, None], k0, out=part)
        np.add.at(data, plan.slots[start * k0.size : (start + moduli.size) * k0.size], part.ravel())
    data = data[:-1]
    np.add.at(data, plan.spring_slots, plan.spring_values)
    return sparse.csc_matrix((data, plan.indices, plan.indptr), shape=(n_free, n_free))


class _ReducedSolver:
    """Symmetric LU factorization of the boundary-reduced system.

    The reduced matrix is symmetric positive definite for a supported
    domain, so SuperLU factors it in the plan's nested-dissection order
    with diagonal pivots and no row exchanges. Every solve is still checked
    by its residual and refined once, so a system that is not positive
    definite after all fails loudly instead of returning a wrong answer.
    """

    def __init__(self, domain: GridDomain, modulus_field: np.ndarray):
        self.domain = domain
        self.order = solve_plan(domain).order
        self.k_ff = assemble_system(domain, modulus_field)
        try:
            self.lu = spla.splu(
                self.k_ff,
                permc_spec="NATURAL",
                diag_pivot_thresh=0.0,
                panel_size=LU_PANEL_SIZE,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise SingularSystemError(
                f"singular {domain.physics} system on {domain.nx}x{domain.ny} grid: {exc}"
            ) from exc

    def _acceptable(self, u_f: np.ndarray, rhs_f: np.ndarray) -> bool:
        residual = np.abs(self.k_ff @ u_f - rhs_f)
        if not np.all(np.isfinite(residual)):
            return False
        scale = np.abs(rhs_f).max()
        if residual.max() <= RESIDUAL_TOL * scale:
            return True
        # For extreme solid/void contrast the load-relative residual floor in
        # double precision is |K||u| * eps, which can sit above the strict
        # bound. Accept a componentwise-backward-stable solution then, but
        # never one whose forward residual loses more than half the digits:
        # rank-deficient systems produce O(1) relative residuals.
        if residual.max() > 1e-4 * scale:
            return False
        denom = np.abs(self.k_ff) @ np.abs(u_f) + np.abs(rhs_f)
        backward = residual / np.maximum(denom, np.finfo(float).tiny)
        return backward.max() <= RESIDUAL_TOL

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float).ravel()
        rhs_f = rhs[self.order]
        u_f = self.lu.solve(rhs_f)
        if np.abs(rhs_f).max() > 0.0 and not self._acceptable(u_f, rhs_f):
            # One step of iterative refinement before giving up.
            u_f = u_f + self.lu.solve(rhs_f - self.k_ff @ u_f)
            if not self._acceptable(u_f, rhs_f):
                residual = np.abs(self.k_ff @ u_f - rhs_f).max() / np.abs(rhs_f).max()
                raise SingularSystemError(
                    f"singular {self.domain.physics} system on "
                    f"{self.domain.nx}x{self.domain.ny} grid: residual {residual:.3e}"
                )
        u = np.zeros(self.domain.n_dofs)
        u[self.order] = u_f
        return u


def assemble_and_solve(domain: GridDomain, modulus_field: np.ndarray) -> np.ndarray:
    """Solve K(modulus) U = F with fixed DOFs eliminated; returns full U."""
    return _ReducedSolver(domain, modulus_field).solve(domain.load)


def check_penalty(penalty: float) -> None:
    """Reject SIMP penalties below 1: d(rho^p)/d(rho) is infinite at rho = 0."""
    if not penalty >= 1.0:
        raise ValueError(f"SIMP penalty {penalty} must be at least 1")


def simp_modulus(domain: GridDomain, rho: np.ndarray, penalty: float) -> np.ndarray:
    """Modified SIMP: E(rho) = E_void + rho^p (E_solid - E_void), moduli of
    the domain's physics."""
    solid, void = MODULUS_SOLID[domain.physics], MODULUS_VOID[domain.physics]
    return void + rho**penalty * (solid - void)


def _primal_solve(domain: GridDomain, rho_phys: np.ndarray, penalty: float):
    """The checked densities with passive solid elements forced to 1, the
    factored system and its solution for the domain's load."""
    rho = np.asarray(rho_phys, dtype=float).ravel()
    if rho.size != domain.n_elements:
        raise ValueError("density field length must equal the element count")
    bad = pipeline.first_bad_density(rho)
    if bad is not None:
        raise ValueError(f"density {bad!r} is not a finite value in [0, 1]")
    check_penalty(penalty)
    rho = np.clip(rho, 0.0, 1.0)
    if domain.passive_solid.size:
        rho = rho.copy()
        rho[domain.passive_solid] = 1.0

    solver = _ReducedSolver(domain, simp_modulus(domain, rho, penalty))
    return rho, solver, solver.solve(domain.load)


def _value(domain: GridDomain, u: np.ndarray) -> float:
    """The objective at displacement ``u``: P^T U for the mechanism, F^T U otherwise."""
    weights = domain.output_vector if domain.physics == "mechanism" else domain.load
    return float(np.einsum("i,i->", weights, u))


def objective_value(domain: GridDomain, rho_phys: np.ndarray, penalty: float) -> float:
    """The value of :func:`evaluate_objective` alone: one solve, no adjoint
    solve and no sensitivities."""
    _, _, u = _primal_solve(domain, rho_phys, penalty)
    return _value(domain, u)


def evaluate_objective(domain: GridDomain, rho_phys: np.ndarray, penalty: float) -> ObjectiveEval:
    """Objective value and adjoint gradient w.r.t. the physical densities.

    Compliance and thermal compliance are self-adjoint (grad entries are
    non-positive for positive-definite systems); the mechanism objective
    P^T U uses an explicit adjoint solve K lambda = -P. Passive solid
    elements are forced to rho = 1 and their gradient entries zeroed.
    """
    rho, solver, u = _primal_solve(domain, rho_phys, penalty)
    value = _value(domain, u)

    ke = element_matrix(domain)
    edof = domain.element_dofs()
    u_e = u[edof]
    delta = MODULUS_SOLID[domain.physics] - MODULUS_VOID[domain.physics]
    # d E / d rho, elementwise
    dmod = penalty * rho ** (penalty - 1.0) * delta

    if domain.physics == "mechanism":
        lam = solver.solve(-domain.output_vector)
        lam_e = lam[edof]
        grad = dmod * np.einsum("ei,ij,ej->e", lam_e, ke, u_e)
    else:
        grad = -dmod * np.einsum("ei,ij,ej->e", u_e, ke, u_e)

    if domain.passive_solid.size:
        grad[domain.passive_solid] = 0.0
    return ObjectiveEval(value=value, grad_wrt_density=grad, displacement=u)
