"""Continuous piecewise-affine vector fields on triangulated planar domains.

A :class:`TriMesh` triangulates a polygonal domain; a :class:`PwAffineField`
attaches a 3-vector to every vertex and interpolates affinely on each cell,
so the gradient is a constant 3x2 matrix per cell. The mesh's P1
operators, the cell gradients and cell means and their adjoint, are
computed component-major, one row of cells per component, and callers
read them in that layout. :func:`unit_square_mesh`
builds the square grids the pipeline runs on, and :func:`refine_mesh` and
:func:`refine_field` split every cell at its edge midpoints.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor_kernel import is_integer

AREA_FLOOR = 1e-14

# Barycentric slack for point-in-triangle tests. Large enough to absorb
# roundoff in the coordinates, far below any mesh feature size we accept.
_BARY_TOL = 1e-12

# Points per block of :meth:`TriMesh.locate`'s scan. A block holds two
# (points, cells, 3) stacks of barycentric terms, so the scan's memory
# grows with the mesh, not with the product of mesh and point count.
_LOCATE_POINTS = 16


class TriMesh:
    """Triangulation of a polygonal domain and its P1 operators.

    Vertices are an (n, 2) float array, triangles an (m, 3) integer array.
    Construction computes the cell areas and the inverse edge Jacobians;
    the edge table is built on first read: ``edges`` holds each undirected
    edge once as a sorted vertex pair and ``cell_edges`` the edge ids of
    the sides (a, b), (b, c), (c, a) of every cell. All arrays are frozen.

    A P1 field is an (..., n, k) array of nodal values. Its cell gradients
    and cell means (centroid values) are linear maps of those values, both
    read from one gather of the cell corners by
    :meth:`component_gradients_and_means`, and
    :meth:`pull_back_components` is their exact adjoint. Both hold the
    cell values component-major, one row of cells per component. The
    scatter index of the adjoint depends only on the mesh and the shape of
    the nodal values, so it is built once per (leading rows, k) and kept
    with the mesh.
    """

    __slots__ = ("vertices", "triangles", "areas", "_edge_table",
                 "_inv_rows", "_scatter")

    def __init__(self, vertices, triangles):
        V = np.array(vertices, dtype=float)
        T = np.array(triangles)
        if V.ndim != 2 or V.shape[1] != 2:
            raise ValueError(f"vertices must be (n, 2), got {V.shape}")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertices must be finite")
        if T.ndim != 2 or T.shape[1] != 3:
            raise ValueError(f"triangles must be (m, 3), got {T.shape}")
        if T.shape[0] == 0:
            raise ValueError("mesh needs at least one triangle")
        if T.dtype.kind not in "iu":
            raise ValueError(f"triangle indices must be integers: {T.dtype}")
        T = T.astype(int, copy=False)
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
        # the inverse Jacobians as rows: inv_rows[a, j] holds entry (a, j)
        # of every cell's inverse
        inv_rows = np.empty((2, 2, T.shape[0]))
        inv_rows[0, 0] = jac[:, 1, 1]
        inv_rows[0, 1] = -jac[:, 0, 1]
        inv_rows[1, 0] = -jac[:, 1, 0]
        inv_rows[1, 1] = jac[:, 0, 0]
        inv_rows /= det

        for arr in (V, T, areas, inv_rows):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "triangles", T)
        object.__setattr__(self, "areas", areas)
        object.__setattr__(self, "_edge_table", None)
        object.__setattr__(self, "_inv_rows", inv_rows)
        object.__setattr__(self, "_scatter", {})

    def __setattr__(self, name, value):
        raise AttributeError("TriMesh is immutable")

    edges = property(lambda self: self._edges()[0])
    cell_edges = property(lambda self: self._edges()[1])

    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The edge table, built and frozen on its first read."""
        if self._edge_table is None:
            # sides (a, b), (b, c), (c, a) keyed by their sorted vertex pair
            n, sides = self.n_vertices, self.triangles[:, [0, 1, 1, 2, 2, 0]]
            sides = np.sort(sides.reshape(-1, 2), axis=1)
            keys, side_edge = np.unique(sides[:, 0] * n + sides[:, 1],
                                        return_inverse=True)
            table = (np.stack([keys // n, keys % n], axis=1),
                     side_edge.reshape(-1, 3))
            for arr in table:
                arr.setflags(write=False)
            object.__setattr__(self, "_edge_table", table)
        return self._edge_table

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.triangles.shape[0]

    def barycentric(self, points: np.ndarray,
                    cells: np.ndarray) -> np.ndarray:
        """Barycentric coordinates (..., 3) of points (..., 2) in cells
        whose ids broadcast against the points' leading shape.

        lambda_k is the cross product of the side opposite corner k, from
        corner k + 1 to k + 2, with p - corner k + 1 over the signed 2A, so
        a corner's other two coordinates are exactly 0.
        """
        corners = self.vertices[self.triangles[cells]]
        starts = corners[..., [1, 2, 0], :]
        s = corners[..., [2, 0, 1], :] - starts
        twice_area = s[..., 0, 0] * s[..., 1, 1] - s[..., 0, 1] * s[..., 1, 0]
        pts = np.asarray(points, dtype=float)[..., None, :]
        # (..., 3) stacks only: s_x (p - start)_y - s_y (p - start)_x
        cross = pts[..., 1] - starts[..., 1]
        cross *= s[..., 0]
        rel_x = pts[..., 0] - starts[..., 0]
        rel_x *= s[..., 1]
        cross -= rel_x
        cross /= twice_area[..., None]
        return cross

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Index of the lowest-index cell containing each point, -1 if the
        point lies outside the domain.

        Points are scanned in blocks of ``_LOCATE_POINTS``, so at most two
        (block, m, 3) stacks are held at once.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 1, 2)
        out = np.full(pts.shape[0], -1, dtype=int)
        every = np.arange(self.n_cells)
        for start in range(0, pts.shape[0], _LOCATE_POINTS):
            block = slice(start, start + _LOCATE_POINTS)
            inside = np.all(self.barycentric(pts[block], every) >= -_BARY_TOL,
                            axis=2)
            hit = inside.any(axis=1)
            out[block][hit] = np.argmax(inside[hit], axis=1)
        return out

    def component_gradients_and_means(self, values):
        """Cell gradients and cell means of a P1 field, the one
        implementation of both: (..., n, k) nodal values in, component-major
        ((2, k, ..., m), (k, ..., m)) out, gradient column j of component
        c at [j, c] and its centroid value at [c].

        One gather of the corners, moved to (k, ..., m, 3), so every
        operation runs over rows of cells; it is freed before the gradients
        are formed.
        """
        c = np.take(np.asarray(values, dtype=float), self.triangles, axis=-2)
        c = np.ascontiguousarray(c.transpose((c.ndim - 1,)
                                             + tuple(range(c.ndim - 1))))
        lead, m = c.shape[1:-2], self.n_cells
        e1 = c[..., 1] - c[..., 0]
        e2 = c[..., 2] - c[..., 0]
        means = (c[..., 0] + c[..., 1] + c[..., 2]) / 3.0
        del c
        inv = self._inv_rows.reshape((2, 2, 1) + (1,) * len(lead) + (m,))
        grads = e1 * inv[0]
        grads += e2 * inv[1]
        return grads, means

    def pull_back_components(self, d_grad, d_mean) -> np.ndarray:
        """Adjoint of :meth:`component_gradients_and_means`.

        Maps (2, k, ..., m) and (k, ..., m) to the nodal (..., n, k) array
        v* with <grads(v), d_grad> + <means(v), d_mean> = <v, v*> for
        every v. One ``np.bincount`` over :meth:`_scatter_index` adds each
        cell's three corner terms, laid out (k, ..., m, 3), so every nodal
        sum takes its terms in (cell, corner) order.
        """
        G = np.asarray(d_grad, dtype=float)
        C = np.asarray(d_mean, dtype=float) / 3.0
        inv = self._inv_rows.reshape((2, 2) + (1,) * (C.ndim - 1)
                                     + C.shape[-1:])
        corner = np.empty(C.shape + (3,))
        # the weights a and b of the edge differences v1 - v0 and v2 - v0,
        # b in a's buffer
        a = G[0] * inv[0, 0]
        a += G[1] * inv[0, 1]
        np.add(C, a, out=corner[..., 1])
        np.subtract(C, a, out=corner[..., 0])
        b = np.multiply(G[0], inv[1, 0], out=a)
        b += G[1] * inv[1, 1]
        np.add(C, b, out=corner[..., 2])
        corner[..., 0] -= b
        k, lead, n = C.shape[0], C.shape[1:-1], self.n_vertices
        del C, a, b
        rows = math.prod(lead)
        out = np.bincount(self._scatter_index(rows, k), corner.ravel(),
                          minlength=rows * n * k)
        return out.reshape(lead + (n, k))

    def _scatter_index(self, rows: int, k: int) -> np.ndarray:
        """Flat nodal slot of every (component, row, cell, corner) of
        (rows, n, k) nodal values: (row * n + triangles[cell, corner]) * k
        + component. Built once per (rows, k) and kept with the mesh."""
        idx = self._scatter.get((rows, k))
        if idx is None:
            r = np.arange(rows)[:, None, None] * self.n_vertices
            idx = ((r + self.triangles) * k
                   + np.arange(k)[:, None, None, None]).ravel()
            idx.setflags(write=False)
            self._scatter[(rows, k)] = idx
        return idx


class PwAffineField:
    """Continuous field with one 3-vector per mesh vertex.

    Sharing nodal values across cells makes the interpolant continuous; the
    gradient is constant on each cell. :meth:`gradients` is the (m, 3, 2)
    view of :meth:`TriMesh.component_gradients_and_means`'s component-major
    gradients, whose entry rows are contiguous.
    """

    __slots__ = ("mesh", "values", "_grads")

    def __init__(self, mesh: TriMesh, values):
        vals = np.array(values, dtype=float)
        if vals.shape != (mesh.n_vertices, 3):
            raise ValueError(
                f"values must be ({mesh.n_vertices}, 3), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("nodal values must be finite")
        grads = mesh.component_gradients_and_means(vals)[0].T
        vals.setflags(write=False)
        grads.setflags(write=False)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_grads", grads)

    def __setattr__(self, name, value):
        raise AttributeError("PwAffineField is immutable")

    def gradients(self) -> np.ndarray:
        """Per-cell gradients, shape (m, 3, 2), read-only."""
        return self._grads


# ---------------------------------------------------------------------------
# the unit square and uniform refinement

def unit_square_mesh(n: int = 1) -> TriMesh:
    """(0,1)^2 as an n-by-n grid of squares, each split along one diagonal.

    n must be an integer >= 1, numpy integers included and bools refused.
    """
    if not (is_integer(n) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
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


def _edge_midpoints(mesh: TriMesh, values: np.ndarray) -> np.ndarray:
    """Nodal values followed by their average over each edge."""
    a, b = mesh.edges.T
    return np.concatenate([values, 0.5 * (values[a] + values[b])])


def _check_levels(levels) -> None:
    if not (is_integer(levels) and levels >= 0):
        raise ValueError(f"levels must be an integer >= 0, got {levels!r}")


def refine_mesh(mesh: TriMesh, levels: int = 1) -> TriMesh:
    """Uniform refinement: each triangle splits at its edge midpoints.

    Per level the old vertices keep their indices and edge e's midpoint
    is appended as vertex n + e. Each cell's four children stay
    contiguous in the corner order of ``quadrature.subdivide_triangles``.
    levels must be an integer >= 0, numpy integers included and bools
    refused.
    """
    _check_levels(levels)
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
    original; no point is located. levels is checked as by
    :func:`refine_mesh`.
    """
    _check_levels(levels)
    mesh, vals = field.mesh, field.values
    for _ in range(levels):
        vals = _edge_midpoints(mesh, vals)
        mesh = refine_mesh(mesh)
    return PwAffineField(mesh, vals)
