"""Benchmark boundary value problems and the analytic two-bar truss.

The grid catalog covers five plane-stress cases (MBB half-beam, centrally
loaded Michell beam, cantilever, bridge with a passive deck, tensile plate),
a thermal conduction plate, and a compliant force inverter. Boundary
condition extents are fixed named constants: distributed loads span
LOAD_EXTENT_EDGES element edges, the thermal sink spans the same extent, and
the bridge deck keeps BRIDGE_PASSIVE_ROWS rows solid.

Each grid case is a :class:`ProblemSpec` around one :class:`fem.GridDomain`.
The domain owns the mesh and the physics kind (compliance for the five
plane-stress cases, thermal, mechanism), and with it the SIMP moduli; the
spec adds the volume target, the SIMP penalty and the filter radius.
:func:`make_problem` builds every case; its keyword arguments are the keys
of a ``problem`` config section, and it owns their defaults (64x32,
penalty 3, the per-case volume target, a filter radius scaled with the
grid) and checks.

Sign conventions follow the image layout of the density fields: row 0 is the
top of the domain and the y axis points down, so a "downward" load has a
positive y component. Compliance is insensitive to load sign; the mechanism
objective is defined by input and output DOFs both along x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import DOFS_PER_NODE, GridDomain, check_penalty, element_dof_matrix
from .pipeline import is_integer, is_number

CATALOG = ("mbb", "michell", "cantilever", "bridge", "tensile", "thermal", "mechanism")

#: Element edges spanned by each distributed load / support patch.
LOAD_EXTENT_EDGES = 4
#: Rows of elements kept solid below the bridge deck.
BRIDGE_PASSIVE_ROWS = 2

MECHANISM_INPUT_SPRING = 1.0
MECHANISM_OUTPUT_SPRING = 0.001

DEFAULT_VOLUME = {"thermal": 0.3, "mechanism": 0.4}
#: Filter radius in element widths at the 64-wide reference resolution;
#: scaled proportionally with the mesh.
FILTER_RADIUS_AT_64 = 2.0


@dataclass(frozen=True)
class ProblemSpec:
    """One benchmark case: its FE domain, volume target, SIMP penalty and
    filter radius. The domain owns the mesh and the physics."""

    name: str
    volume_target: float
    penalty: float
    filter_radius: float
    domain: GridDomain

    @property
    def nx(self) -> int:
        return self.domain.nx

    @property
    def ny(self) -> int:
        return self.domain.ny

    @property
    def n_elements(self) -> int:
        return self.domain.n_elements


def _node(nx: int, ix: int, iy: int) -> int:
    return iy * (nx + 1) + ix


def _edge_patch_weights(total: float, n_edges: int) -> np.ndarray:
    """Consistent nodal weights of a uniform load over n_edges element edges."""
    weights = np.full(n_edges + 1, 1.0 / n_edges)
    weights[0] = weights[-1] = 0.5 / n_edges
    return total * weights


def _patch_extent(n: int, center: int) -> np.ndarray:
    """Node indices of a load patch of LOAD_EXTENT_EDGES edges, clamped."""
    extent = min(LOAD_EXTENT_EDGES, n)
    start = min(max(center - extent // 2, 0), n - extent)
    return np.arange(start, start + extent + 1)


def make_problem(
    name: str,
    nx: int = 64,
    ny: int = 32,
    v0: float | None = None,
    penalty: float = 3.0,
    filter_radius: float | None = None,
):
    """Build a fully populated problem from the catalog.

    ``make_problem("twobar")`` returns the analytic :class:`TwoBarProblem`
    and rejects any other argument that differs from its default; every
    other name builds a grid case. The keyword arguments are the keys
    of a grid ``problem`` config section, and this function owns their
    defaults and checks. ``nx`` and ``ny`` must be integers and ``v0``,
    ``penalty`` and ``filter_radius`` numbers, bools excluded. The volume
    target must lie in (0, 1]; it defaults to 0.3 except for the mechanism
    (0.4). The filter radius defaults to FILTER_RADIUS_AT_64 scaled with
    ``nx``.
    """
    if name == "twobar":
        given = dict(nx=nx, ny=ny, v0=v0, penalty=penalty, filter_radius=filter_radius)
        ignored = [key for key, default in zip(given, make_problem.__defaults__) if given[key] != default]
        if ignored:
            raise ValueError(f"the two-bar problem takes no {', '.join(map(repr, ignored))}")
        return TwoBarProblem()
    if name not in CATALOG:
        raise ValueError(f"unknown problem {name!r}; catalog: {', '.join(CATALOG + ('twobar',))}")
    for key, value in (("nx", nx), ("ny", ny)):
        if not is_integer(value):
            raise ValueError(f"{key!r} must be an integer, got {value!r:.60}")
    for key, value in (("v0", v0), ("penalty", penalty), ("filter_radius", filter_radius)):
        if not is_number(value) and (value is not None or key == "penalty"):
            raise ValueError(f"{key!r} must be a number, got {value!r:.60}")
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 1:
        raise ValueError("resolution must be positive")
    check_penalty(penalty)
    if v0 is None:
        v0 = DEFAULT_VOLUME.get(name, 0.3)
    if not 0.0 < v0 <= 1.0:
        raise ValueError("volume target must lie in (0, 1]")
    if filter_radius is None:
        filter_radius = FILTER_RADIUS_AT_64 * nx / 64.0
    if not filter_radius > 0.0:
        raise ValueError("filter radius must be positive")

    physics = name if name in ("thermal", "mechanism") else "compliance"
    n_dofs = DOFS_PER_NODE[physics] * (nx + 1) * (ny + 1)
    load = np.zeros(n_dofs)
    fixed: list[int] = []
    passive = np.zeros(0, dtype=int)
    springs: tuple[tuple[int, float], ...] = ()
    output_vector = None

    if name == "mbb":
        # Half-beam: symmetry on the left edge, roller at the bottom-right
        # corner, unit load pressing down on the top-left patch.
        fixed = [2 * _node(nx, 0, iy) for iy in range(ny + 1)]
        fixed.append(2 * _node(nx, nx, ny) + 1)
        patch = np.arange(min(LOAD_EXTENT_EDGES, nx) + 1)
        weights = _edge_patch_weights(1.0, patch.size - 1)
        for ix, w in zip(patch, weights):
            load[2 * _node(nx, ix, 0) + 1] += w
    elif name == "michell":
        # Simply supported span, unit load on the bottom-center patch.
        fixed = [2 * _node(nx, 0, ny), 2 * _node(nx, 0, ny) + 1, 2 * _node(nx, nx, ny) + 1]
        patch = _patch_extent(nx, nx // 2)
        weights = _edge_patch_weights(1.0, patch.size - 1)
        for ix, w in zip(patch, weights):
            load[2 * _node(nx, ix, ny) + 1] += w
    elif name == "cantilever":
        # Clamped left edge, unit load at the middle of the free edge.
        for iy in range(ny + 1):
            fixed.extend([2 * _node(nx, 0, iy), 2 * _node(nx, 0, iy) + 1])
        patch = _patch_extent(ny, ny // 2)
        weights = _edge_patch_weights(1.0, patch.size - 1)
        for iy, w in zip(patch, weights):
            load[2 * _node(nx, nx, iy) + 1] += w
    elif name == "bridge":
        # Deck load spread across the whole top edge; pinned bottom-left,
        # roller bottom-right; top rows are non-designable solid.
        fixed = [2 * _node(nx, 0, ny), 2 * _node(nx, 0, ny) + 1, 2 * _node(nx, nx, ny) + 1]
        weights = _edge_patch_weights(1.0, nx)
        for ix, w in zip(range(nx + 1), weights):
            load[2 * _node(nx, ix, 0) + 1] += w
        rows = min(BRIDGE_PASSIVE_ROWS, ny)
        passive = np.arange(rows * nx)
    elif name == "tensile":
        # Plate pulled in +x from a centered patch on the right edge; left
        # edge restrained in x with one node pinning y.
        fixed = sorted(
            [2 * _node(nx, 0, iy) for iy in range(ny + 1)] + [2 * _node(nx, 0, ny // 2) + 1]
        )
        patch = _patch_extent(ny, ny // 2)
        weights = _edge_patch_weights(1.0, patch.size - 1)
        for iy, w in zip(patch, weights):
            load[2 * _node(nx, nx, iy)] += w
    elif name == "thermal":
        # Uniform unit heat source over the domain, a quarter of each
        # element's share on each corner node (np.add.at sums element by
        # element, corner by corner); sink at the middle of the left edge.
        element_source = 1.0 / (nx * ny)
        np.add.at(load, element_dof_matrix(nx, ny, 1), element_source / 4.0)
        fixed = [_node(nx, 0, iy) for iy in _patch_extent(ny, ny // 2)]
    elif name == "mechanism":
        # Force inverter on a half domain: symmetry along the top edge,
        # bottom-left corner clamped; input force and spring at the top-left
        # x DOF, output spring at the top-right x DOF.
        fixed = [2 * _node(nx, ix, 0) + 1 for ix in range(nx + 1)]
        for iy in (ny - 1, ny):
            fixed.extend([2 * _node(nx, 0, iy), 2 * _node(nx, 0, iy) + 1])
        dof_in = 2 * _node(nx, 0, 0)
        dof_out = 2 * _node(nx, nx, 0)
        load[dof_in] = 1.0
        output_vector = np.zeros(n_dofs)
        output_vector[dof_out] = 1.0
        springs = ((dof_in, MECHANISM_INPUT_SPRING), (dof_out, MECHANISM_OUTPUT_SPRING))

    domain = GridDomain(
        nx=nx,
        ny=ny,
        physics=physics,
        fixed_dofs=np.unique(np.asarray(fixed, dtype=int)),
        load=load,
        output_vector=output_vector,
        passive_solid=passive,
        springs=springs,
    )
    return ProblemSpec(
        name=name,
        volume_target=float(v0),
        penalty=float(penalty),
        filter_radius=float(filter_radius),
        domain=domain,
    )


# ---------------------------------------------------------------------------
# two-bar stress-constrained truss


#: Bar lengths, the load, and the allowable stress of the truss.
TWOBAR_LENGTHS = (0.6, 0.4)
TWOBAR_LOAD = 1.0
TWOBAR_SIGMA_MAX = 1.0
#: Mass per unit area of each bar.
TWOBAR_MASS_COEFFS = (0.6, 0.8)
#: Admissible range of each bar area.
TWOBAR_AREA_BOX = (0.0, 2.0)
#: Default starting weights of the two-bar micro-net. The hidden activation
#: is exactly zero here, so the areas start at (1, 1) like the baseline
#: while theta3 already selects the descending branch of the output sine.
TWOBAR_THETA0 = (0.0, 0.0, -2.9)
#: The micro-net's one input coordinate.
TWOBAR_Z1 = 0.5


@dataclass(frozen=True)
class TwoBarProblem:
    """Two bars under a unit load with per-bar stress constraints.

    The truss is fixed: its data are the ``TWOBAR_*`` module constants.
    """


@dataclass(frozen=True)
class TwoBarEval:
    mass: float
    gbar: np.ndarray
    stresses: np.ndarray
    dmass: np.ndarray
    dgbar: np.ndarray


def twobar_eval(a1: float, a2: float) -> TwoBarEval:
    """Mass, relaxed stress constraints, and their analytic gradients.

    The relaxed constraints are gbar_i = (A_i / 2) * (|sigma_i| / sigma_max
    - 1) <= 0; bar 1 is always in tension and bar 2 in compression, so the
    absolute values are smooth on the admissible set.
    """
    lo, hi = TWOBAR_AREA_BOX
    if not (lo <= a1 <= hi and lo <= a2 <= hi):
        raise ValueError(f"bar areas must lie in [{lo:g}, {hi:g}]")
    l1, l2 = TWOBAR_LENGTHS
    load, sigma_max = TWOBAR_LOAD, TWOBAR_SIGMA_MAX
    denom = a1 * l2 + a2 * l1
    if denom <= 0.0:
        raise ValueError("stress undefined: a1*l2 + a2*l1 must be positive")
    sigma1 = load * l2 / denom
    sigma2 = -load * l1 / denom
    g1 = abs(sigma1) / sigma_max - 1.0
    g2 = abs(sigma2) / sigma_max - 1.0
    gbar = np.array([0.5 * a1 * g1, 0.5 * a2 * g2])

    m1, m2 = TWOBAR_MASS_COEFFS
    mass = m1 * a1 + m2 * a2
    dmass = np.array([m1, m2])
    # d|sigma_i|/dA_j = -|sigma_i| * l_{j'} / denom with l' = (l2, l1)
    dabs1 = -abs(sigma1) / denom * np.array([l2, l1])
    dabs2 = -abs(sigma2) / denom * np.array([l2, l1])
    dgbar = np.array(
        [
            [0.5 * g1 + 0.5 * a1 * dabs1[0] / sigma_max, 0.5 * a1 * dabs1[1] / sigma_max],
            [0.5 * a2 * dabs2[0] / sigma_max, 0.5 * g2 + 0.5 * a2 * dabs2[1] / sigma_max],
        ]
    )
    return TwoBarEval(
        mass=mass,
        gbar=gbar,
        stresses=np.array([sigma1, sigma2]),
        dmass=dmass,
        dgbar=dgbar,
    )


def twobar_siren_forward(theta: np.ndarray, omega0: float) -> tuple[np.ndarray, np.ndarray]:
    """Three-weight sinusoidal micro-net mapping theta to the bar areas.

    A_i = sin(theta_{i+1} * sin(omega0 * theta_1 * TWOBAR_Z1)) + 1, which keeps
    both areas inside [0, 2]. Returns the areas and the analytic 2x3 Jacobian.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != 3:
        raise ValueError("theta must have three entries")
    hidden = np.sin(omega0 * theta[0] * TWOBAR_Z1)
    d_hidden = omega0 * TWOBAR_Z1 * np.cos(omega0 * theta[0] * TWOBAR_Z1)
    areas = np.sin(theta[1:] * hidden) + 1.0
    cos_outer = np.cos(theta[1:] * hidden)
    jac = np.zeros((2, 3))
    jac[:, 0] = cos_outer * theta[1:] * d_hidden
    jac[0, 1] = cos_outer[0] * hidden
    jac[1, 2] = cos_outer[1] * hidden
    return areas, jac
