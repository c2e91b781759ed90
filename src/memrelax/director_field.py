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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .energy_models import EnergyModel
from .fiber_reduction import WEDGE_FLOOR, solve_fiber
from .pw_affine import PwAffineField
from .quadrature import integrate_adaptive
from .tensor_kernel import (ExtValue, as_mat32, as_stack, column_invariants,
                            cross3, is_integer, sum3)

__all__ = [
    "InfeasibleError",
    "feasible_normal",
    "cell_min_constrained",
    "DirectorAssignment",
    "build_assignment",
    "cellwise_energy",
    "BlendedDirector",
    "nirf_value",
    "integrate_adaptive",  # only bench/spans.py reads it; ROADMAP item 1
]

_ANGULAR_TOL = 1e-6
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
    arr = np.array([p for a in (-1.0, 1.0) for b in (-g, g)
                    for p in ((0.0, a, b), (a, b, 0.0), (b, 0.0, a))])
    return arr / np.linalg.norm(arr, axis=1)[:, None]


# the scan's stages before the caps, built once at import, read-only
_FIXED_DIRECTIONS = (np.concatenate([np.eye(3), -np.eye(3)]), _icosahedron(),
                     *map(_fibonacci_sphere, (64, 256, 1024)))
for _stage in _FIXED_DIRECTIONS:
    _stage.setflags(write=False)


def _gauss_legendre(m: int) -> np.ndarray:
    """m-point Gauss-Legendre nodes and weights on [0, 1], read-only (m, 1)
    columns: by Golub-Welsch, the eigenvalues and squared first eigenvector
    entries of the Legendre Jacobi matrix, whose lower triangle eigh reads."""
    k = np.arange(1.0, m)
    x, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    rule = np.array([(x + 1.0) / 2.0, v[0] ** 2])[..., None]
    rule.setflags(write=False)
    return rule


# the rule on each smooth piece of the blend, built once at import; four
# nodes miss by up to 3.8e-8 (p = 3, n = 64), eight are within 4e-14 of 32
_GAUSS = _gauss_legendre(8)


def _cap(center: np.ndarray, radius: float, n: int) -> np.ndarray:
    """Deterministic spiral of directions within an angular cap."""
    e = np.zeros(3)
    e[int(np.argmin(np.abs(center)))] = 1.0
    u = cross3(center, e)
    u /= np.linalg.norm(u)
    w = cross3(center, u)
    k = np.arange(n, dtype=float)
    theta = radius * np.sqrt((k + 1.0) / n)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    return (np.cos(theta)[:, None] * center
            + (np.sin(theta) * np.cos(phi))[:, None] * u
            + (np.sin(theta) * np.sin(phi))[:, None] * w)


def _abs_dots(dirs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """|d . c| for each row d of ``dirs`` and column c of ``cols`` (3, M),
    summed as (d0 c0 + d1 c1) + d2 c2 whatever the shapes, so a subset of
    the rows or columns reads the very same values."""
    return np.abs((dirs[:, :1] * cols[0] + dirs[:, 1:2] * cols[1])
                  + dirs[:, 2:] * cols[2])


def feasible_normal(cells) -> tuple[np.ndarray, int, np.ndarray]:
    """Shared direction with a certified determinant margin on every cell.

    Scans a deterministic sequence of unit vectors (coordinate axes,
    icosahedron vertices, Fibonacci spheres, then spiral refinement around
    the best cap) and keeps the first direction maximizing the smallest
    unsigned determinant. Directions closer than the angular tolerance to
    any cell's degeneracy plane are rejected outright. A direction's
    least |det| over the sentinel cells (the argmin cells of the directions
    valued so far) bounds its margin. Each batch is bounded once, in chunks
    of B max(1, M // S) directions for B = ``_SCAN_DIRECTIONS``, M cells
    and S sentinels, so no call outgrows one (B, M) block of products. A
    direction whose bound does not beat the best margin is skipped; the
    rest are valued against every cell B at a time, each block bounded
    again by the sentinels added since.

    Returns (direction, index, signs) where index is the smallest integer
    j with min_i |det| >= 1/j and signs holds the per-cell determinant
    signs at the returned direction. The cells are read by ``as_stack``;
    an empty stack or a rank-deficient cell is refused.
    """
    cols, norms, _ = column_invariants(as_stack(cells))
    if not norms.size:
        raise ValueError("feasible_normal needs at least one cell")
    if np.any(norms <= WEDGE_FLOOR):
        raise ValueError(
            f"cell {int(np.argmin(norms))} has rank-deficient gradient; "
            "a full-rank plane requires independent columns")

    best_margin = -1.0
    best = None
    sentinel = np.zeros(norms.size, dtype=bool)

    def consider(batch: np.ndarray):
        # the strict ">" keeps the first maximum across blocks, as argmax
        # does within one
        nonlocal best_margin, best
        seen = sentinel.copy()
        bound = np.full(batch.shape[0], np.inf)
        if seen.any():
            near = cols[:, seen]
            step = _SCAN_DIRECTIONS * max(1, norms.size // near.shape[1])
            for i in range(0, batch.shape[0], step):
                bound[i:i + step] = _abs_dots(batch[i:i + step], near).min(1)
        batch, bound = batch[bound > best_margin], bound[bound > best_margin]
        for start in range(0, batch.shape[0], _SCAN_DIRECTIONS):
            rows = slice(start, start + _SCAN_DIRECTIONS)
            if np.any(sentinel > seen):
                bound[rows] = np.minimum(bound[rows], _abs_dots(
                    batch[rows], cols[:, sentinel > seen]).min(axis=1))
            block = batch[rows][bound[rows] > best_margin]
            if not block.shape[0]:
                continue
            dots = _abs_dots(block, cols)
            margin = dots.min(axis=1)
            margin[(dots / norms).min(axis=1) < _ANGULAR_TOL] = -1.0
            sentinel[dots.argmin(axis=1)] = True
            k = int(np.argmax(margin))
            if margin[k] > best_margin:
                best_margin = float(margin[k])
                best = block[k].copy()

    for stage in _FIXED_DIRECTIONS:
        consider(stage)
    if best is None:
        raise InfeasibleError(
            "no direction clears the angular tolerance on all cells")
    radius = 0.3
    for _ in range(4):
        consider(_cap(best, radius, 128))
        radius /= 3.0

    dets = cols.T @ best
    j_v = max(1, math.ceil(1.0 / best_margin))
    while 1.0 / j_v > best_margin:
        j_v += 1
    return best, j_v, np.sign(dets).astype(int)


# ---------------------------------------------------------------------------
# constrained per-cell minimization

def _check_index(j) -> None:
    """Refuse a constraint index that is not an integer: the clamp
    1/(j a) and the stored index would disagree."""
    if not is_integer(j):
        raise ValueError(f"constraint index must be an integer, got {j!r}")


def _constrained_minima(model: EnergyModel, grads: np.ndarray,
                        signs: np.ndarray, j: int):
    """Values and minimizers of the sign-pinned cell problems, batched.

    Splitting zeta along the cell normal c shows the tangential part only
    inflates |zeta|, so each problem is the fiber problem in the normal
    coordinate t with the clamp t >= 1/(j a), a = |c|.  The fiber slope
    increases, so the clamped minimizer is max(t*, 1/(j a)): the free
    :func:`solve_fiber` minimizer t*, raised to the bound where below it.
    """
    crosses, a, q = column_invariants(grads)
    t, values = solve_fiber(model, a, q)
    low = t < 1.0 / (j * a)
    lo = 1.0 / (j * a[low])
    t[low] = lo
    values[low] = model.density(a[low] * lo, q[low] + lo * lo)
    return values, np.ascontiguousarray(((signs * t / a) * crosses).T)


def cell_min_constrained(model: EnergyModel, xi, sign: int,
                         j: int) -> tuple[float, np.ndarray]:
    """Minimum of the bulk energy over third columns with a pinned sign.

    The constraint set is {zeta : sign * det(xi|zeta) >= 1/j}; the
    problem reduces to the fiber problem of :func:`solve_fiber` in the
    normal coordinate t, its minimizer clamped to t >= 1/(j a). Returns
    the value and a minimizer. sign must be the integer -1 or +1 and j an
    integer >= 1 (numpy integers included, bools and floats refused).
    """
    _check_index(j)
    if j < 1:
        raise ValueError("constraint index must be >= 1")
    if not (is_integer(sign) and sign in (-1, 1)):
        raise ValueError(f"sign must be the integer -1 or +1, got {sign!r}")
    m = as_mat32(xi)
    if not column_invariants(m[None])[1][0] > WEDGE_FLOOR:
        raise ValueError("constrained minimization needs a full-rank cell")
    values, zetas = _constrained_minima(model, m[None], np.array([sign]), j)
    return float(values[0]), zetas[0]


# ---------------------------------------------------------------------------
# assignment of signs and minimizers

@dataclass(frozen=True)
class DirectorAssignment:
    """Immutable per-cell data backing a continuous director.

    field: the membrane field whose M cells it assigns
    j: active constraint index (>= j_v)
    j_v: smallest feasible index for the shared direction
    signs: (M,) determinant signs, +-1
    zeta_bar: shared direction, feasible for every cell at index j_v
    zetas: (M, 3) per-cell constrained minimizers at index j
    values: (M,) per-cell constrained minimum energies at index j
    """

    field: PwAffineField
    j: int
    j_v: int
    signs: np.ndarray
    zeta_bar: np.ndarray
    zetas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        m = self.n_cells
        for name, shape in (("signs", (m,)), ("values", (m,)),
                            ("zetas", (m, 3)), ("zeta_bar", (3,))):
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} must have shape {shape}, got "
                                 f"{np.shape(getattr(self, name))}")
        crosses = column_invariants(self.field.gradients())[0]
        for label, vecs, need in (("shared direction", self.zeta_bar[:, None],
                                   1.0 / self.j_v),
                                  ("cell minimizer", self.zetas.T,
                                   1.0 / self.j)):
            if np.any(self.signs * sum3(crosses * vecs) < need - 1e-12):
                raise ValueError(f"{label} violates its determinant bound")
        for name, arr in list(vars(self).items()):
            if isinstance(arr, np.ndarray) and arr.flags.writeable:
                object.__setattr__(self, name, arr.copy())
                vars(self)[name].setflags(write=False)

    @property
    def n_cells(self) -> int:
        return self.field.mesh.n_cells


def build_assignment(model: EnergyModel, field: PwAffineField,
                     j: int | None = None) -> DirectorAssignment:
    """Assign signs and constrained minimizers to every cell of a field,
    all cells in one batched fiber solve.

    j defaults to the feasibility index j_v; otherwise it must be an
    integer >= j_v (numpy integers included, bools refused).
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
    for arr in (signs, zeta_bar, zetas, values):
        arr.setflags(write=False)
    return DirectorAssignment(field=field, j=int(j), j_v=int(j_v),
                              signs=signs, zeta_bar=zeta_bar, zetas=zetas,
                              values=values)


def cellwise_energy(assignment: DirectorAssignment) -> float:
    """Sum of area times constrained minimum over the cells.

    This is the energy of the discontinuous cellwise-optimal director and
    the exact limit of the blended integral as the sharpness grows.
    """
    return float(np.dot(assignment.field.mesh.areas, assignment.values))


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
    distance to its three side lines. The distance to the side opposite
    corner k is lambda_k h_k, lambda_k the barycentric coordinate and
    h_k = 2 A / |side| the corner's height, read off the mesh's cell area
    whatever the cell's orientation; so the weight is
    clip(min_k lambda_k n h_k, 0, 1), 0 wherever a coordinate is. The
    cells are those of the assignment's field, and only their scaled
    heights n h_k are stored. :meth:`evaluate` reads the
    coordinates of a point in the cell that contains it. Both endpoints
    satisfy the cell's determinant bound, linear in the director, so
    every blended value is feasible. In a cell of area A and inradius r,
    {dist = d} is the inner parallel triangle of perimeter 2A (1 - d/r)/r,
    so by the coarea formula a function f of the weight integrates to
    A [(2/rho) int_0^min(1, rho) f(a) (1 - a/rho) da
    + max(0, 1 - 1/rho)^2 f(1)], rho = n r, 1/rho = sum_k 1/(n h_k).
    n must be an integer >= 1, numpy integers included, bools refused.
    """

    def __init__(self, assignment: DirectorAssignment, n: int):
        if not (is_integer(n) and n >= 1):
            raise ValueError("blend sharpness must be an integer >= 1, "
                             f"got {n!r}")
        self.assignment = assignment
        self.n = int(n)
        mesh = assignment.field.mesh
        corners = mesh.vertices[mesh.triangles]
        opposite = corners[:, [2, 0, 1]] - corners[:, [1, 2, 0]]
        self._heights = (2.0 * self.n * mesh.areas[:, None]
                         / np.linalg.norm(opposite, axis=2))

    def _bary_weight(self, bary: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Blend weight at barycentric rows (..., 3) of cells whose ids
        broadcast against the rows' leading shape."""
        h = self._heights[cells]
        a = functools.reduce(np.minimum, (h[..., k] * bary[..., k]
                                          for k in range(3)))
        return np.clip(a, 0.0, 1.0, out=a)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Director (N, 3) at (N, 2) points of the mesh."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        mesh = self.assignment.field.mesh
        cells = mesh.locate(pts)
        if np.any(cells < 0):
            raise ValueError("director evaluated outside the mesh")
        bary = mesh.barycentric(pts, cells)
        a = self._bary_weight(bary, cells)[:, None]
        return ((1.0 - a) * self.assignment.zeta_bar[None]
                + a * self.assignment.zetas[cells])

    def _coarea_rule(self, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Samples a and weights w, both (8 (K + 1) + 1, M), with
        sum w f(a) the integral of f(weight) over each cell: a Gauss rule
        on each piece of the band cut at the (K, M) ``cuts``, then a = 1."""
        rho = 1.0 / np.sum(1.0 / self._heights, axis=1)
        top = np.minimum(rho, 1.0)
        ends = np.vstack([np.zeros_like(top),
                          np.sort(np.clip(cuts, 0.0, top), axis=0), top])
        width = np.diff(ends, axis=0)[:, None]
        a = (ends[:-1, None] + width * _GAUSS[0]).reshape(-1, top.size)
        w = (width * _GAUSS[1]).reshape(-1, top.size)
        areas = self.assignment.field.mesh.areas
        return (np.vstack([a, np.ones_like(top)]),
                np.vstack([2.0 * areas / rho * (1.0 - a / rho) * w,
                           areas * np.maximum(1.0 - 1.0 / rho, 0.0) ** 2]))


# ---------------------------------------------------------------------------
# energy of the blended director

def nirf_value(model: EnergyModel, field: PwAffineField, j: int, n: int,
               *, threads: int = 1) -> ExtValue:
    """Energy of the blended continuous director over the whole mesh.

    Builds the assignment at index j (rejected below the feasibility
    index) and blends with sharpness n; both must be integers, numpy
    integers included and bools refused; its one batched fiber solve
    stops a cell whose free minimizer sits on a kink of the barrier
    exactly there, before the clamp to the cell's bound.
    Along the blend zeta = zeta_bar + a * (zeta_c - zeta_bar) of cell c,
    the determinant is c0 + a * c1 and |xi|^2 + |zeta|^2 is
    q0 + a * (q1 + a * q2), with five coefficients per cell computed
    once. W_c(a) depends on a point only through the blend weight a, so
    the coarea formula of :class:`BlendedDirector` makes each cell's
    integral exactly one in a. The band splits where |c0 + a c1|
    crosses a kink of the barrier, and each smooth piece takes an 8-point
    Gauss-Legendre rule, all samples of all cells in one density call.
    The value decreases toward the integral of the reduced density as j
    and n grow.

    ``threads`` is accepted and unused.
    """
    asn = build_assignment(model, field, j)
    director = BlendedDirector(asn, n)
    crosses, q0 = column_invariants(field.gradients())[::2]  # c, |xi|^2
    zeta_bar = asn.zeta_bar
    delta = asn.zetas - zeta_bar
    # the matrix product's sums follow its operand's layout: (M, 3) rows
    c0 = np.ascontiguousarray(crosses.T) @ zeta_bar
    c1 = sum3(crosses * delta.T)
    q0 += zeta_bar @ zeta_bar
    q1 = 2.0 * (delta @ zeta_bar)
    q2 = np.einsum("ij,ij->i", delta, delta)
    # c0 + a c1 keeps the cell's sign on the blend: it meets kink x at sign x
    kinks = np.array([x for x, _, _ in model.barrier.kinks]).reshape(-1, 1)
    cuts = np.divide(asn.signs * kinks - c0, c1, where=c1 != 0.0,
                     out=np.zeros((kinks.shape[0], c1.size)))
    a, weights = director._coarea_rule(cuts)
    sq = q0 + a * (q1 + a * q2)
    # |det| takes a's buffer, which nothing reads after: one array less
    values = model.density(np.abs(c0 + a * c1, out=a), sq)
    return ExtValue(float(np.sum(weights * values)))
