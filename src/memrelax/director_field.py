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

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .energy_models import EnergyModel
from .fiber_reduction import WEDGE_FLOOR, solve_fiber
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
    "blended_director",
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


def _cell_crosses(cells) -> np.ndarray:
    grads = np.asarray(cells, dtype=float)
    if grads.ndim != 3 or grads.shape[1:] != (3, 2):
        raise ValueError(
            f"mat32 stack must have shape (M, 3, 2), got {grads.shape}")
    if not np.all(np.isfinite(grads)):
        raise ValueError("mat32 entries must be finite")
    crosses = wedge(grads)
    norms = np.linalg.norm(crosses, axis=1)
    if np.any(norms <= WEDGE_FLOOR):
        bad = int(np.argmin(norms))
        raise ValueError(
            f"cell {bad} has rank-deficient gradient; "
            "a full-rank plane requires independent columns")
    return crosses


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
    crosses = _cell_crosses(cells)
    unit = crosses / np.linalg.norm(crosses, axis=1)[:, None]

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

def _constrained_minima(model: EnergyModel, grads: np.ndarray,
                        signs: np.ndarray, j: int):
    """Values and minimizers of the sign-pinned cell problems, batched.

    Splitting zeta along the cell normal c shows the tangential part only
    inflates |zeta|, so each problem is the fiber problem in the normal
    coordinate t with the clamp t >= 1/(j a), a = |c|.  The fiber slope
    increases, so the clamped minimizer is max(t*, 1/(j a)).
    """
    crosses = wedge(grads)
    a = np.linalg.norm(crosses, axis=1)
    q = np.sum(grads * grads, axis=(1, 2))
    t, values = solve_fiber(model, a, q, t_min=1.0 / (j * a))
    zetas = (signs * t / a)[:, None] * crosses
    return values, zetas


def cell_min_constrained(model: EnergyModel, xi, sign: int,
                         j: int) -> tuple[float, np.ndarray]:
    """Minimum of the bulk energy over third columns with a pinned sign.

    The constraint set is {zeta : sign * det(xi|zeta) >= 1/j}; the
    problem reduces to the fiber problem of :func:`solve_fiber` in the
    normal coordinate t with the clamp t >= 1/(j a). Returns the value
    and a minimizer.
    """
    if j < 1:
        raise ValueError("constraint index must be >= 1")
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    m = as_mat32(xi)
    if np.linalg.norm(wedge(m)) <= WEDGE_FLOOR:
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

    def to_dict(self) -> dict:
        return {
            "j": self.j,
            "j_v": self.j_v,
            "zeta_bar": self.zeta_bar.tolist(),
            "cells": [{
                "gradient": self.gradients[i].tolist(),
                "area": float(self.areas[i]),
                "sign": int(self.signs[i]),
                "zeta": self.zetas[i].tolist(),
                "value": float(self.values[i]),
            } for i in range(self.n_cells)],
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)


def build_assignment(model: EnergyModel, field: PwAffineField,
                     j: int | None = None) -> DirectorAssignment:
    """Assign signs and constrained minimizers to every cell of a field,
    all cells in one batched fiber solve."""
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

    The blend weight is min(n * dist(x, cell boundary), 1), so the field
    equals the shared direction on the mesh skeleton and the per-cell
    constrained minimizer on the interior plateau. Both endpoints satisfy
    the cell's determinant bound and the bound is linear in the director,
    so every blended value stays feasible.
    """

    def __init__(self, field: PwAffineField, assignment: DirectorAssignment,
                 n: int):
        if n < 1:
            raise ValueError("blend sharpness must be >= 1")
        if assignment.n_cells != field.mesh.n_cells:
            raise ValueError("assignment does not match the field's mesh")
        self.field = field
        self.assignment = assignment
        self.n = int(n)
        self._corners = field.mesh.vertices[field.mesh.triangles]
        # side k runs from corner k to corner k + 1
        self._sides = np.roll(self._corners, -1, axis=1) - self._corners
        self._side_sq = np.einsum("mkj,mkj->mk", self._sides, self._sides)

    def _blend(self, points: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Director at (N, 2) points, each inside its given cell."""
        p0 = self._corners[cells]
        d = self._sides[cells]
        t = (np.einsum("nkj,nkj->nk", points[:, None] - p0, d)
             / self._side_sq[cells])
        gap = points[:, None] - (p0 + np.clip(t, 0.0, 1.0)[..., None] * d)
        dist = np.sqrt(np.einsum("nkj,nkj->nk", gap, gap)).min(axis=1)
        a = np.minimum(self.n * dist, 1.0)[:, None]
        return ((1.0 - a) * self.assignment.zeta_bar[None]
                + a * self.assignment.zetas[cells])

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        cells = self.field.mesh.locate(pts)
        if np.any(cells < 0):
            raise ValueError("director evaluated outside the mesh")
        return self._blend(pts, cells)

    def __call__(self, point) -> np.ndarray:
        return self.evaluate(np.asarray(point, dtype=float)[None])[0]


def blended_director(field: PwAffineField, assignment: DirectorAssignment,
                     n: int) -> BlendedDirector:
    return BlendedDirector(field, assignment, n)


# ---------------------------------------------------------------------------
# energy of the blended director

def nirf_value(model: EnergyModel, field: PwAffineField, j: int, n: int,
               *, rel_tol: float = 1e-4, max_level: int = 8,
               threads: int = 1) -> ExtValue:
    """Energy of the blended continuous director over the whole mesh.

    Builds the assignment at index j (rejected below the feasibility
    index) and blends with sharpness n. Each cell is a root of the
    adaptive midpoint rule and refines until its own two successive
    levels agree; the cells go through :func:`integrate_adaptive` in
    consecutive slices of at most ``_SLICE_CELLS``, and ``threads`` maps
    the slices on a pool. The per-cell values are summed once, so the
    result does not depend on ``threads``. The value decreases toward
    the integral of the reduced density as j and n grow.
    """
    asn = build_assignment(model, field, j)
    director = BlendedDirector(field, asn, n)
    grads = asn.gradients
    crosses = wedge(grads)
    sq = np.sum(grads ** 2, axis=(1, 2))

    def integrand(points: np.ndarray, cells: np.ndarray) -> np.ndarray:
        zeta = director._blend(points, cells)
        adet = np.abs(np.einsum("ij,ij->i", zeta, crosses[cells]))
        return model.density(adet,
                             sq[cells] + np.einsum("ij,ij->i", zeta, zeta))

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
