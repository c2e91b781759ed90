"""Continuous out-of-plane director fields for piecewise-affine membranes.

A piecewise-affine map with full-rank cell gradients admits one shared
direction whose determinant against every cell gradient is bounded away
from zero. Pinning that sign per cell defines convex constraint sets in
which each cell minimizes the bulk energy over its third column, and a
distance-based blend of the shared direction with the per-cell minimizers
yields a continuous director whose energy integral converges down to the
integral of the reduced density as the constraint index and the blend
sharpness grow.
"""
from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .energy_models import EnergyModel
from .fiber_reduction import WEDGE_FLOOR, _fiber_invariants, solve_fiber
from .pw_affine import PwAffineField
from .quadrature import integrate_adaptive
from .tensor_kernel import ExtValue, as_mat32, wedge

__all__ = [
    "InfeasibleError",
    "feasible_normal",
    "cell_min_constrained",
    "DirectorAssignment",
    "build_assignment",
    "cellwise_energy",
    "BlendedDirector",
    "nirf_value",
]

_ANGULAR_TOL = 1e-6
# cells per integrate_adaptive call in nirf_value
_SLICE_CELLS = 256
# directions per (directions x cells) block in feasible_normal's scan
_SCAN_DIRECTIONS = 64


class InfeasibleError(RuntimeError):
    """No admissible direction or constraint set could be produced."""


# ---------------------------------------------------------------------------
# shared feasible direction

def _fibonacci_sphere(n: int) -> np.ndarray:
    k = np.arange(n, dtype=float)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    z = 1.0 - (2.0 * k + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _icosahedron() -> np.ndarray:
    g = (1.0 + math.sqrt(5.0)) / 2.0
    pts = []
    for a in (-1.0, 1.0):
        for b in (-g, g):
            pts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    arr = np.array(pts)
    return arr / np.linalg.norm(arr, axis=1)[:, None]


def _axes() -> np.ndarray:
    eye = np.eye(3)
    return np.concatenate([eye, -eye])


def _cap(center: np.ndarray, radius: float, n: int) -> np.ndarray:
    """Deterministic spiral of directions within an angular cap."""
    e = np.zeros(3)
    e[int(np.argmin(np.abs(center)))] = 1.0
    u = np.cross(center, e)
    u /= np.linalg.norm(u)
    w = np.cross(center, u)
    k = np.arange(n, dtype=float)
    theta = radius * np.sqrt((k + 1.0) / n)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    return (np.cos(theta)[:, None] * center
            + (np.sin(theta) * np.cos(phi))[:, None] * u
            + (np.sin(theta) * np.sin(phi))[:, None] * w)


def _cell_crosses(cells) -> tuple[np.ndarray, np.ndarray]:
    """Column cross products (M, 3) and norms (M,) of a full-rank stack."""
    grads = np.asarray(cells, dtype=float)
    if grads.ndim != 3 or grads.shape[1:] != (3, 2):
        raise ValueError(
            f"mat32 stack must have shape (M, 3, 2), got {grads.shape}")
    if not np.all(np.isfinite(grads)):
        raise ValueError("mat32 entries must be finite")
    crosses, norms, _ = _fiber_invariants(grads)
    if np.any(norms <= WEDGE_FLOOR):
        bad = int(np.argmin(norms))
        raise ValueError(
            f"cell {bad} has rank-deficient gradient; "
            "a full-rank plane requires independent columns")
    return crosses.T, norms


def feasible_normal(cells) -> tuple[np.ndarray, int, np.ndarray]:
    """Shared direction with a certified determinant margin on every cell.

    Scans a deterministic sequence of unit vectors (coordinate axes,
    icosahedron vertices, Fibonacci spheres, then spiral refinement around
    the best cap) and keeps the direction maximizing the smallest
    unsigned determinant. Directions closer than the angular tolerance to
    any cell's degeneracy plane are rejected outright.

    Returns (direction, index, signs) where index is the smallest integer
    j with min_i |det| >= 1/j and signs holds the per-cell determinant
    signs at the returned direction.
    """
    crosses, norms = _cell_crosses(cells)
    unit = crosses / norms[:, None]

    best_margin = -1.0
    best = None

    def consider(batch: np.ndarray):
        # blocks of directions bound the memory; the strict ">" keeps the
        # first maximum across blocks, as argmax does within one
        nonlocal best_margin, best
        for start in range(0, batch.shape[0], _SCAN_DIRECTIONS):
            block = batch[start:start + _SCAN_DIRECTIONS]
            angular = np.abs(block @ unit.T).min(axis=1)
            margin = np.abs(block @ crosses.T).min(axis=1)
            margin[angular < _ANGULAR_TOL] = -1.0
            k = int(np.argmax(margin))
            if margin[k] > best_margin:
                best_margin = float(margin[k])
                best = block[k]

    consider(_axes())
    consider(_icosahedron())
    for n in (64, 256, 1024):
        consider(_fibonacci_sphere(n))
    if best is None:
        raise InfeasibleError(
            "no direction clears the angular tolerance on all cells")
    radius = 0.3
    for _ in range(4):
        consider(_cap(best, radius, 128))
        radius /= 3.0

    dets = crosses @ best
    j_v = max(1, math.ceil(1.0 / best_margin))
    while 1.0 / j_v > best_margin:
        j_v += 1
    return best, j_v, np.sign(dets).astype(int)


# ---------------------------------------------------------------------------
# constrained per-cell minimization

def _check_index(j) -> None:
    """Refuse a constraint index that is not an integer: the clamp
    1/(j a) and the stored index would disagree."""
    if not isinstance(j, numbers.Integral):
        raise ValueError(f"constraint index must be an integer, got {j!r}")


def _constrained_minima(model: EnergyModel, grads: np.ndarray,
                        signs: np.ndarray, j: int):
    """Values and minimizers of the sign-pinned cell problems, batched.

    Splitting zeta along the cell normal c shows the tangential part only
    inflates |zeta|, so each problem is the fiber problem in the normal
    coordinate t with the clamp t >= 1/(j a), a = |c|.  The fiber slope
    increases, so the clamped minimizer is max(t*, 1/(j a)).
    """
    crosses, a, q = _fiber_invariants(grads)
    t, values = solve_fiber(model, a, q, t_min=1.0 / (j * a))
    return values, np.ascontiguousarray(((signs * t / a) * crosses).T)


def cell_min_constrained(model: EnergyModel, xi, sign: int,
                         j: int) -> tuple[float, np.ndarray]:
    """Minimum of the bulk energy over third columns with a pinned sign.

    The constraint set is {zeta : sign * det(xi|zeta) >= 1/j}; the
    problem reduces to the fiber problem of :func:`solve_fiber` in the
    normal coordinate t with the clamp t >= 1/(j a). Returns the value
    and a minimizer. j must be an integer >= 1 (numpy integers included).
    """
    _check_index(j)
    if j < 1:
        raise ValueError("constraint index must be >= 1")
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    m = as_mat32(xi)
    if not _fiber_invariants(m[None])[1][0] > WEDGE_FLOOR:
        raise ValueError("constrained minimization needs a full-rank cell")
    values, zetas = _constrained_minima(model, m[None], np.array([sign]), j)
    return float(values[0]), zetas[0]


# ---------------------------------------------------------------------------
# assignment of signs and minimizers

@dataclass(frozen=True)
class DirectorAssignment:
    """Immutable per-cell data backing a continuous director.

    gradients: (M, 3, 2) cell gradients
    areas: (M,) cell areas
    j: active constraint index (>= j_v)
    j_v: smallest feasible index for the shared direction
    signs: (M,) determinant signs, +-1
    zeta_bar: shared direction, feasible for every cell at index j_v
    zetas: (M, 3) per-cell constrained minimizers at index j
    values: (M,) per-cell constrained minimum energies at index j
    """

    gradients: np.ndarray
    areas: np.ndarray
    j: int
    j_v: int
    signs: np.ndarray
    zeta_bar: np.ndarray
    zetas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        crosses = wedge(self.gradients)
        margin = 1.0 / self.j
        for label, vecs, need in (("shared direction",
                                   np.broadcast_to(self.zeta_bar,
                                                   crosses.shape),
                                   1.0 / self.j_v),
                                  ("cell minimizer", self.zetas, margin)):
            dets = np.einsum("ij,ij->i", crosses, vecs)
            if np.any(self.signs * dets < need - 1e-12):
                raise ValueError(f"{label} violates its determinant bound")
        for arr in (self.gradients, self.areas, self.signs, self.zeta_bar,
                    self.zetas, self.values):
            arr.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return self.gradients.shape[0]


def build_assignment(model: EnergyModel, field: PwAffineField,
                     j: int | None = None) -> DirectorAssignment:
    """Assign signs and constrained minimizers to every cell of a field,
    all cells in one batched fiber solve.

    j defaults to the feasibility index j_v; otherwise it must be an
    integer >= j_v (numpy integers included).
    """
    if j is not None:
        _check_index(j)
    grads = field.gradients()
    zeta_bar, j_v, signs = feasible_normal(grads)
    if j is None:
        j = j_v
    if j < j_v:
        raise ValueError(f"index {j} is below the feasibility index {j_v}")
    values, zetas = _constrained_minima(model, grads, signs, j)
    return DirectorAssignment(gradients=grads, areas=field.mesh.areas.copy(),
                              j=int(j), j_v=int(j_v), signs=signs,
                              zeta_bar=zeta_bar, zetas=zetas, values=values)


def cellwise_energy(assignment: DirectorAssignment) -> float:
    """Sum of area times constrained minimum over the cells.

    This is the energy of the discontinuous cellwise-optimal director and
    the exact limit of the blended integral as the sharpness grows.
    """
    return float(np.dot(assignment.areas, assignment.values))


# ---------------------------------------------------------------------------
# continuous blend

class BlendedDirector:
    """Continuous director: shared direction near edges, cell minimizer
    deeper than 1/n inside each cell.

    The blend weight is a = clip(n * dist(x, cell boundary), 0, 1) and the
    director (1 - a) * zeta_bar + a * zeta_c, so the field equals the
    shared direction on the mesh skeleton and the per-cell constrained
    minimizer on the interior plateau. A cell is a triangle, hence
    convex, and inside it the distance to its boundary is the least
    distance to its three side lines; each line is stored per cell as an
    inward unit normal and an offset. Both endpoints satisfy the cell's
    determinant bound and the bound is linear in the director, so every
    blended value stays feasible. The sharpness n must be an integer
    >= 1, numpy integers included.
    """

    def __init__(self, field: PwAffineField, assignment: DirectorAssignment,
                 n: int):
        if not (isinstance(n, numbers.Integral) and n >= 1):
            raise ValueError("blend sharpness must be an integer >= 1, "
                             f"got {n!r}")
        if assignment.n_cells != field.mesh.n_cells:
            raise ValueError("assignment does not match the field's mesh")
        self.field = field
        self.assignment = assignment
        self.n = int(n)
        self._corners = corners = field.mesh.vertices[field.mesh.triangles]
        # side k runs from corner k to corner k + 1; its normal is turned
        # toward corner k + 2, so clockwise cells work too
        side = np.roll(corners, -1, axis=1) - corners
        normal = np.stack([-side[..., 1], side[..., 0]], axis=-1)
        normal /= np.linalg.norm(normal, axis=2)[..., None]
        opposite = np.roll(corners, -2, axis=1) - corners
        normal *= np.sign(np.einsum("mkj,mkj->mk", normal,
                                    opposite))[..., None]
        nx, ny = normal[..., 0], normal[..., 1]
        # the offset repeats _weight's arithmetic, so the line of the side
        # that starts at a corner reads exactly 0.0 there
        offset = -(nx * corners[..., 0] + ny * corners[..., 1])
        # (side, coefficient, cell): each gather reads one contiguous row
        self._lines = np.ascontiguousarray(np.stack([nx.T, ny.T, offset.T],
                                                    axis=1))

    def _weight(self, points: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Blend weight at (N, 2) points, each inside its given cell."""
        x, y = points[:, 0], points[:, 1]
        d0, d1, d2 = (nx[cells] * x + ny[cells] * y + o[cells]
                      for nx, ny, o in self._lines)
        return np.clip(self.n * np.minimum(np.minimum(d0, d1), d2),
                       0.0, 1.0)

    def _blend(self, points: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Director at (N, 2) points, each inside its given cell."""
        a = self._weight(points, cells)[:, None]
        return ((1.0 - a) * self.assignment.zeta_bar[None]
                + a * self.assignment.zetas[cells])

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        cells = self.field.mesh.locate(pts)
        if np.any(cells < 0):
            raise ValueError("director evaluated outside the mesh")
        return self._blend(pts, cells)


# ---------------------------------------------------------------------------
# energy of the blended director

def nirf_value(model: EnergyModel, field: PwAffineField, j: int, n: int,
               *, rel_tol: float = 1e-4, max_level: int = 8,
               threads: int = 1) -> ExtValue:
    """Energy of the blended continuous director over the whole mesh.

    Builds the assignment at index j (rejected below the feasibility
    index) and blends with sharpness n; both must be integers, numpy
    integers included; its one batched constrained fiber solve stops a
    cell whose minimizer sits on a kink of the barrier exactly there.
    Along the blend zeta = zeta_bar + a * (zeta_c - zeta_bar) of cell c,
    the determinant is c0 + a * c1 and |xi|^2 + |zeta|^2 is
    q0 + a * (q1 + a * q2), with five coefficients per cell computed
    once; the integrand reads them and the weight a of
    :class:`BlendedDirector` (the side-line distance) and never forms
    zeta. Each cell is a root of the adaptive midpoint rule and refines
    until its own two successive levels agree; the rule values each
    distinct edge midpoint of a cell's children once, so children that
    share an edge share its sample. The cells go through
    :func:`integrate_adaptive` in consecutive slices of at most
    ``_SLICE_CELLS``, and ``threads`` maps the slices on a pool.
    The per-cell values are summed once, so the result does not depend
    on ``threads``. The value decreases toward the integral of the
    reduced density as j and n grow.
    """
    asn = build_assignment(model, field, j)
    director = BlendedDirector(field, asn, n)
    grads = asn.gradients
    crosses = wedge(grads)
    zeta_bar = asn.zeta_bar
    delta = asn.zetas - zeta_bar
    c0 = crosses @ zeta_bar
    c1 = np.einsum("ij,ij->i", crosses, delta)
    q0 = np.sum(grads ** 2, axis=(1, 2)) + zeta_bar @ zeta_bar
    q1 = 2.0 * (delta @ zeta_bar)
    q2 = np.einsum("ij,ij->i", delta, delta)

    def integrand(points: np.ndarray, cells: np.ndarray) -> np.ndarray:
        a = director._weight(points, cells)
        return model.density(np.abs(c0[cells] + a * c1[cells]),
                             q0[cells] + a * (q1[cells] + a * q2[cells]))

    def work(start: int) -> np.ndarray:
        tris = director._corners[start:start + _SLICE_CELLS]
        return integrate_adaptive(lambda p, r: integrand(p, r + start), tris,
                                  rel_tol=rel_tol,
                                  max_level=max_level).values

    starts = range(0, asn.n_cells, _SLICE_CELLS)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, starts))
    else:
        parts = [work(s) for s in starts]
    return ExtValue(float(np.sum(np.concatenate(parts))))
