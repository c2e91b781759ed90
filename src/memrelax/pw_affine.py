"""Continuous piecewise-affine vector fields on triangulated planar domains.

A :class:`TriMesh` triangulates a polygonal domain; a :class:`PwAffineField`
attaches a 3-vector to every vertex and interpolates affinely on each cell,
so the gradient is a constant 3x2 matrix per cell. The module also provides
the paper's two explicit compactly supported Aff0 test fields, the hats on
the unit diamond and on the crossed unit square, and
:func:`energy_integral`, which integrates a density over a field's
gradients.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor_kernel import INFINITE, ExtValue

AREA_FLOOR = 1e-14

# Barycentric slack for point-in-triangle tests. Large enough to absorb
# roundoff from the affine solve, far below any mesh feature size we accept.
_BARY_TOL = 1e-12

# Points per block of :meth:`TriMesh.locate`'s scan. A block holds a
# (points, cells, 3) barycentric stack, so the scan's memory grows with
# the mesh, not with the product of mesh and point count.
_LOCATE_POINTS = 16


class TriMesh:
    """Triangulation of a polygonal domain and its P1 operators.

    Vertices are an (n, 2) float array, triangles an (m, 3) index array.
    Construction computes the cell areas, the inverse edge Jacobians and
    one edge table: ``edges`` holds each undirected edge once as a sorted
    vertex pair, ``cell_edges`` the edge ids of the sides (a, b), (b, c),
    (c, a) of every cell, and ``boundary_mask`` marks the vertices of edges
    that belong to one cell only. All arrays are frozen afterwards.

    A P1 field is an (..., n, k) array of nodal values. Its cell gradients
    and cell means (centroid values) are linear maps of those values, both
    read from one gather of the cell corners, and :meth:`pull_back` is
    their exact adjoint. The scatter index of :meth:`pull_back` depends
    only on the mesh and the shape of its input, so it is built once per
    (leading rows, k) and kept with the mesh.
    """

    __slots__ = ("vertices", "triangles", "areas", "boundary_mask", "edges",
                 "cell_edges", "_inv_jac", "_p0", "_scatter")

    def __init__(self, vertices, triangles):
        V = np.array(vertices, dtype=float)
        T = np.array(triangles, dtype=int)
        if V.ndim != 2 or V.shape[1] != 2:
            raise ValueError(f"vertices must be (n, 2), got {V.shape}")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertices must be finite")
        if T.ndim != 2 or T.shape[1] != 3:
            raise ValueError(f"triangles must be (m, 3), got {T.shape}")
        if T.shape[0] == 0:
            raise ValueError("mesh needs at least one triangle")
        if T.min() < 0 or T.max() >= V.shape[0]:
            raise ValueError("triangle index out of range")
        repeats = ((T[:, 0] == T[:, 1]) | (T[:, 1] == T[:, 2])
                   | (T[:, 2] == T[:, 0]))
        if np.any(repeats):
            tri = T[int(np.argmax(repeats))]
            raise ValueError(f"triangle {tri.tolist()} repeats a vertex")

        p0 = V[T[:, 0]]
        jac = np.stack([V[T[:, 1]] - p0, V[T[:, 2]] - p0], axis=-1)  # (m,2,2)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        areas = 0.5 * np.abs(det)
        if np.any(areas <= AREA_FLOOR):
            bad = int(np.argmin(areas))
            raise ValueError(f"triangle {bad} is degenerate (area {areas[bad]:.3e})")
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= det[:, None, None]

        # sides (a, b), (b, c), (c, a) keyed by their sorted vertex pair
        n = V.shape[0]
        sides = np.sort(T[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        keys, side_edge, counts = np.unique(
            sides[:, 0] * n + sides[:, 1], return_inverse=True,
            return_counts=True)
        edges = np.stack([keys // n, keys % n], axis=1)
        cell_edges = side_edge.reshape(-1, 3)
        # a boundary edge belongs to exactly one triangle
        boundary = np.zeros(n, dtype=bool)
        boundary[edges[counts == 1]] = True

        for arr in (V, T, areas, inv, p0, boundary, edges, cell_edges):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "triangles", T)
        object.__setattr__(self, "areas", areas)
        object.__setattr__(self, "boundary_mask", boundary)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "cell_edges", cell_edges)
        object.__setattr__(self, "_inv_jac", inv)
        object.__setattr__(self, "_p0", p0)
        object.__setattr__(self, "_scatter", {})

    def __setattr__(self, name, value):
        raise AttributeError("TriMesh is immutable")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.triangles.shape[0]

    def area(self) -> float:
        return float(self.areas.sum())

    def barycentric(self, points: np.ndarray) -> np.ndarray:
        """All barycentric coordinates, shape (N, m, 3)."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        rel = pts[:, None, :] - self._p0[None, :, :]           # (N,m,2)
        lam = np.einsum("mij,nmj->nmi", self._inv_jac, rel)    # (N,m,2)
        lam0 = 1.0 - lam[:, :, 0] - lam[:, :, 1]
        return np.concatenate([lam0[:, :, None], lam], axis=2)

    def locate(self, points: np.ndarray, tol: float = _BARY_TOL) -> np.ndarray:
        """Index of the lowest-index cell containing each point, -1 if the
        point lies outside the domain.

        Points are scanned in blocks of ``_LOCATE_POINTS``, so at most a
        (block, m, 3) barycentric stack is held at once.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        out = np.full(pts.shape[0], -1, dtype=int)
        for start in range(0, pts.shape[0], _LOCATE_POINTS):
            block = slice(start, start + _LOCATE_POINTS)
            inside = np.all(self.barycentric(pts[block]) >= -tol, axis=2)
            hit = inside.any(axis=1)
            out[block][hit] = np.argmax(inside[hit], axis=1)
        return out

    def _corners(self, values) -> np.ndarray:
        """One gather of the cell corners: (..., n, k) nodal values in,
        (..., 3, m, k) out, corner c of cell i at [..., c, i, :]."""
        return np.take(np.asarray(values, dtype=float), self.triangles.T,
                       axis=-2)

    def _gradients(self, c: np.ndarray) -> np.ndarray:
        inv = self._inv_jac
        e1 = c[..., 1, :, :] - c[..., 0, :, :]
        e2 = c[..., 2, :, :] - c[..., 0, :, :]
        out = np.empty(e1.shape + (2,))
        for col in range(2):
            out[..., col] = (e1 * inv[:, 0, col, None]
                             + e2 * inv[:, 1, col, None])
        return out

    @staticmethod
    def _means(c: np.ndarray) -> np.ndarray:
        return (c[..., 0, :, :] + c[..., 1, :, :] + c[..., 2, :, :]) / 3.0

    def cell_gradients(self, values) -> np.ndarray:
        """Constant gradient per cell: (..., n, k) nodal values in,
        (..., m, k, 2) out."""
        return self._gradients(self._corners(values))

    def cell_means(self, values) -> np.ndarray:
        """Centroid value per cell, the mean of its three corners:
        (..., n, k) in, (..., m, k) out."""
        return self._means(self._corners(values))

    def cell_gradients_and_means(self, values):
        """(cell_gradients(values), cell_means(values)) from one gather of
        the corners, equal to the two calls bit for bit."""
        c = self._corners(values)
        return self._gradients(c), self._means(c)

    def _scatter_index(self, rows: int, k: int) -> np.ndarray:
        """Flat output slot of every (row, cell, corner, component) term:
        (row * n + triangles[cell, corner]) * k + component."""
        idx = self._scatter.get((rows, k))
        if idx is None:
            r = np.arange(rows)[:, None, None, None]
            idx = ((r * self.n_vertices + self.triangles[..., None]) * k
                   + np.arange(k)).ravel()
            idx.setflags(write=False)
            self._scatter[(rows, k)] = idx
        return idx

    def pull_back(self, d_grad, d_mean) -> np.ndarray:
        """Adjoint of (cell_gradients, cell_means).

        Maps (..., m, k, 2) and (..., m, k) to the nodal (..., n, k) array
        v* with <cell_gradients(v), d_grad> + <cell_means(v), d_mean> =
        <v, v*> for every v. One ``np.bincount`` call; its index is cached
        per (leading rows, k) on the mesh.
        """
        G = np.asarray(d_grad, dtype=float)
        C = np.asarray(d_mean, dtype=float) / 3.0
        inv = self._inv_jac
        # weights of the edge differences v1 - v0 and v2 - v0
        a = G[..., 0] * inv[:, 0, 0, None] + G[..., 1] * inv[:, 0, 1, None]
        b = G[..., 0] * inv[:, 1, 0, None] + G[..., 1] * inv[:, 1, 1, None]
        corner = np.empty(C.shape[:-1] + (3,) + C.shape[-1:])  # (..., m, 3, k)
        corner[..., 0, :] = C - a - b
        corner[..., 1, :] = C + a
        corner[..., 2, :] = C + b
        lead, k, n = C.shape[:-2], C.shape[-1], self.n_vertices
        rows = int(np.prod(lead, dtype=int))
        out = np.bincount(self._scatter_index(rows, k), corner.ravel(),
                          minlength=rows * n * k)
        return out.reshape(lead + (n, k))

    def to_dict(self) -> dict:
        return {"vertices": self.vertices.tolist(),
                "triangles": self.triangles.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "TriMesh":
        return cls(data["vertices"], data["triangles"])


class PwAffineField:
    """Continuous field with one 3-vector per mesh vertex.

    Sharing nodal values across cells makes the interpolant continuous; the
    gradient is constant on each cell. With ``aff0=True`` the field promises
    to vanish on the domain boundary and construction verifies it.
    """

    __slots__ = ("mesh", "values", "aff0", "_grads")

    def __init__(self, mesh: TriMesh, values, *, aff0: bool = False):
        vals = np.array(values, dtype=float)
        if vals.shape != (mesh.n_vertices, 3):
            raise ValueError(
                f"values must be ({mesh.n_vertices}, 3), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("nodal values must be finite")
        if aff0:
            worst = float(np.abs(vals[mesh.boundary_mask]).max(initial=0.0))
            if worst > 1e-12:
                raise ValueError(
                    f"aff0 field has nonzero boundary values (max {worst:.3e})")
        grads = mesh.cell_gradients(vals)
        vals.setflags(write=False)
        grads.setflags(write=False)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "aff0", bool(aff0))
        object.__setattr__(self, "_grads", grads)

    def __setattr__(self, name, value):
        raise AttributeError("PwAffineField is immutable")

    def gradients(self) -> np.ndarray:
        """Per-cell gradients, shape (m, 3, 2), read-only."""
        return self._grads

    def evaluate(self, points) -> np.ndarray:
        """Interpolated values, shape (N, 3); points outside the domain
        raise ValueError."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        cells = self.mesh.locate(pts)
        miss = cells < 0
        if np.any(miss):
            raise ValueError(f"{int(miss.sum())} point(s) outside the domain")
        rel = pts - self.mesh._p0[cells]
        base = self.values[self.mesh.triangles[cells, 0]]
        return base + np.einsum("nkc,nc->nk", self._grads[cells], rel)

    def to_dict(self) -> dict:
        data = self.mesh.to_dict()
        data["values"] = self.values.tolist()
        data["aff0"] = self.aff0
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PwAffineField":
        mesh = TriMesh.from_dict(data)
        return cls(mesh, data["values"], aff0=bool(data.get("aff0", False)))


def energy_integral(field: PwAffineField, density: Callable, *,
                    offset=None) -> ExtValue:
    """Integral of density(offset + gradient) over the domain.

    The density maps a 3x2 matrix to an ExtValue (plain floats are
    accepted). Every cell has positive area (:class:`TriMesh` rejects
    areas at or below ``AREA_FLOOR``); the first infinite value makes the
    whole integral infinite and ends the loop.
    """
    grads = field._grads if offset is None \
        else np.asarray(offset, dtype=float) + field._grads
    acc = 0.0
    for g, area in zip(grads, map(float, field.mesh.areas)):
        val = density(g)
        if not isinstance(val, ExtValue):
            val = ExtValue(float(val))
        if not val.is_finite:
            return INFINITE
        acc += area * val.finite
    return ExtValue(acc)


# ---------------------------------------------------------------------------
# canonical meshes and hat fields

def unit_square_mesh(n: int = 1) -> TriMesh:
    """(0,1)^2 as an n-by-n grid of squares, each split along one diagonal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    V = np.array([(x, y) for y in xs for x in xs])
    tris = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return TriMesh(V, tris)


def crossed_square_mesh() -> TriMesh:
    """(0,1)^2 split by both diagonals into four triangles of area 1/4."""
    V = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
    return TriMesh(V, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])


def diamond_mesh() -> TriMesh:
    """Open unit diamond |x1| + |x2| < 1 as its four quadrant triangles."""
    V = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    return TriMesh(V, [(0, 1, 4), (0, 1, 2), (0, 3, 2), (0, 3, 4)])


def single_triangle_mesh(p0, p1, p2) -> TriMesh:
    return TriMesh([p0, p1, p2], [(0, 1, 2)])


def _edge_midpoints(mesh: TriMesh, values: np.ndarray) -> np.ndarray:
    """Nodal values followed by their average over each edge."""
    a, b = mesh.edges.T
    return np.concatenate([values, 0.5 * (values[a] + values[b])])


def refine_mesh(mesh: TriMesh, levels: int = 1) -> TriMesh:
    """Uniform refinement: each triangle splits at its edge midpoints.

    Per level the old vertices keep their indices and edge e's midpoint
    is appended as vertex n + e. Each cell's four children stay
    contiguous in the corner order of ``quadrature.subdivide_triangles``.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    for _ in range(levels):
        a, b, c = mesh.triangles.T
        ab, bc, ca = (mesh.n_vertices + mesh.cell_edges).T
        tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
        mesh = TriMesh(_edge_midpoints(mesh, mesh.vertices),
                       tris.reshape(-1, 3))
    return mesh


def refine_field(field: PwAffineField, levels: int = 1) -> PwAffineField:
    """Same field on ``refine_mesh(field.mesh, levels)``.

    A new vertex takes the average of its edge's end values, which is
    the P1 interpolant there, so the refined field is pointwise the
    original; no point is located.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    mesh, vals = field.mesh, field.values
    for _ in range(levels):
        vals = _edge_midpoints(mesh, vals)
        mesh = refine_mesh(mesh)
    return PwAffineField(mesh, vals, aff0=field.aff0)


def _unit_vector(nu) -> np.ndarray:
    v = np.asarray(nu, dtype=float).reshape(3)
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit 3-vector")
    return v


def build_diamond_hat(nu, t: float) -> PwAffineField:
    """Compactly supported field on the unit diamond.

    The apex value t*nu at the origin produces the gradient pattern
    (-t nu | t nu), (-t nu | -t nu), (t nu | -t nu), (t nu | t nu) on the
    quadrant cells taken counterclockwise from {x1 >= 0, x2 <= 0}.
    """
    v = _unit_vector(nu)
    mesh = diamond_mesh()
    vals = np.zeros((5, 3))
    vals[0] = float(t) * v
    return PwAffineField(mesh, vals, aff0=True)


def build_square_hat(nu, t: float) -> PwAffineField:
    """Compactly supported field on the crossed unit square.

    The center value (t/2)*nu produces gradients (0 | t nu), (-t nu | 0),
    (0 | -t nu), (t nu | 0) on the bottom, right, top, left cells.
    """
    v = _unit_vector(nu)
    mesh = crossed_square_mesh()
    vals = np.zeros((5, 3))
    vals[4] = 0.5 * float(t) * v
    return PwAffineField(mesh, vals, aff0=True)
