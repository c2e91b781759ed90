"""Continuous piecewise-affine vector fields on triangulated planar domains.

A :class:`TriMesh` triangulates a polygonal domain; a :class:`PwAffineField`
attaches a 3-vector to every vertex and interpolates affinely on each cell,
so the gradient is a constant 3x2 matrix per cell. The module also provides
the two explicit compactly supported hat constructions (on the unit diamond
and the crossed unit square) and :func:`vitali_paste`, which fills a host
domain with disjoint scaled-and-translated copies of such a hat while
tracking coverage and the exact gradient distribution of the result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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

    def edge_cells(self) -> dict[tuple[int, int], list[int]]:
        """Map from undirected edge to the cells sharing it."""
        order = np.argsort(self.cell_edges.ravel(), kind="stable")
        counts = np.bincount(self.cell_edges.ravel(),
                             minlength=self.edges.shape[0])
        cells = np.split(order // 3, np.cumsum(counts)[:-1])
        return {(a, b): c.tolist()
                for (a, b), c in zip(self.edges.tolist(), cells)}

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

    def gradient(self, cell: int) -> np.ndarray:
        return self._grads[cell].copy()

    def evaluate(self, points, *, outside: str = "error") -> np.ndarray:
        """Interpolated values, shape (N, 3).

        ``outside`` is "error" or "zero"; the latter is the natural
        extension for compactly supported fields.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        cells = self.mesh.locate(pts)
        out = np.zeros((pts.shape[0], 3))
        miss = cells < 0
        if np.any(miss) and outside != "zero":
            raise ValueError(f"{int(miss.sum())} point(s) outside the domain")
        hit = ~miss
        if np.any(hit):
            c = cells[hit]
            rel = pts[hit] - self.mesh._p0[c]
            base = self.values[self.mesh.triangles[c, 0]]
            out[hit] = base + np.einsum("nkc,nc->nk", self._grads[c], rel)
        return out

    def sup_norm(self) -> float:
        """Max euclidean nodal norm; affine cells attain their max at vertices."""
        return float(np.sqrt((self.values ** 2).sum(axis=1)).max())

    def to_dict(self) -> dict:
        data = self.mesh.to_dict()
        data["values"] = self.values.tolist()
        data["aff0"] = self.aff0
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PwAffineField":
        mesh = TriMesh.from_dict(data)
        return cls(mesh, data["values"], aff0=bool(data.get("aff0", False)))


def field_to_json(field: PwAffineField) -> str:
    return json.dumps(field.to_dict())


def field_from_json(text: str) -> PwAffineField:
    return PwAffineField.from_dict(json.loads(text))


def gradient_cells(field: PwAffineField) -> list[tuple[int, np.ndarray, float]]:
    """(cell index, gradient, area) for every cell."""
    mesh = field.mesh
    return [(i, field.gradient(i), float(mesh.areas[i]))
            for i in range(mesh.n_cells)]


def _integrate(density: Callable, terms) -> ExtValue:
    """Sum of area * density(gradient) over (gradient, area) pairs.

    The density maps a 3x2 matrix to an ExtValue (plain floats are
    accepted). Zero-area terms are skipped; the first infinite value
    makes the whole integral infinite and ends the loop.
    """
    acc = 0.0
    for g, area in terms:
        if area == 0.0:
            continue
        val = density(g)
        if not isinstance(val, ExtValue):
            val = ExtValue(float(val))
        if not val.is_finite:
            return INFINITE
        acc += area * val.finite
    return ExtValue(acc)


def energy_integral(field: PwAffineField, density: Callable, *,
                    offset=None) -> ExtValue:
    """Integral of density(offset + gradient) over the domain; any
    infinite cell makes the whole integral infinite."""
    grads = field._grads if offset is None \
        else np.asarray(offset, dtype=float) + field._grads
    return _integrate(density, zip(grads, map(float, field.mesh.areas)))


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


# ---------------------------------------------------------------------------
# Vitali pasting

@dataclass(frozen=True)
class Placement:
    """One scaled translate of the reference cell: x maps to offset + scale*E."""

    offset: tuple[float, float]
    scale: float


@dataclass(frozen=True)
class RegionPaste:
    """Tiling record for one maximal equal-gradient region of the host."""

    cells: tuple[int, ...]
    host_gradient: np.ndarray      # (3, 2)
    area: float
    covered_area: float
    placements: tuple[Placement, ...]

    @property
    def coverage(self) -> float:
        return self.covered_area / self.area


_ROT = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)  # x -> 45deg frame


def _classify_reference(mesh: TriMesh) -> str:
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    area = mesh.area()
    if (np.allclose(lo, [0.0, 0.0], atol=1e-9)
            and np.allclose(hi, [1.0, 1.0], atol=1e-9)
            and abs(area - 1.0) <= 1e-9):
        return "square"
    if (np.allclose(lo, [-1.0, -1.0], atol=1e-9)
            and np.allclose(hi, [1.0, 1.0], atol=1e-9)
            and abs(area - 2.0) <= 1e-9):
        return "diamond"
    raise ValueError("template reference cell must be the unit square or "
                     "the unit diamond")


def _gradient_regions(field: PwAffineField, tol: float = 1e-10) -> list[list[int]]:
    """Maximal edge-connected groups of cells with equal gradient."""
    grads = field.gradients()
    parent = list(range(field.mesh.n_cells))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for cells in field.mesh.edge_cells().values():
        for a, b in zip(cells, cells[1:]):
            scale = 1.0 + max(float(np.abs(grads[a]).max()),
                              float(np.abs(grads[b]).max()))
            if float(np.abs(grads[a] - grads[b]).max()) <= tol * scale:
                parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for i in range(field.mesh.n_cells):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _largest_dyadic_below(limit: float) -> float:
    """Largest power of two strictly below the limit."""
    beta = 2.0 ** math.floor(math.log2(limit))
    if beta >= limit:
        beta *= 0.5
    return beta


def _contained_in_member(corners: np.ndarray, tri_p0: np.ndarray,
                         tri_inv: np.ndarray) -> np.ndarray:
    """For (K, 4, 2) corner stacks: does one member triangle hold all four?

    Convexity of the triangle lets corner containment stand in for the
    whole tile.
    """
    K = corners.shape[0]
    ok = np.zeros(K, dtype=bool)
    for p0, inv in zip(tri_p0, tri_inv):
        rel = corners - p0                               # (K,4,2)
        lam = np.einsum("ij,kcj->kci", inv, rel)          # (K,4,2)
        lam0 = 1.0 - lam[:, :, 0] - lam[:, :, 1]
        inside = (lam0 >= -_BARY_TOL) & np.all(lam >= -_BARY_TOL, axis=2)
        ok |= inside.all(axis=1)
        if ok.all():
            break
    return ok


def _tile_region(mesh: TriMesh, cells: Sequence[int], kind: str,
                 max_scale: float, eta: float,
                 max_levels: int) -> tuple[list[Placement], float]:
    """Fill one region with disjoint scaled reference cells.

    Square templates tile in domain coordinates, diamonds in the 45deg
    rotated frame where they become axis-aligned squares of side
    scale*sqrt(2). Tiling starts from the largest admissible dyadic size
    and quadtree-refines boxes that straddle the region boundary until the
    uncovered fraction drops below eta or the level budget runs out.
    """
    idx = np.unique(np.asarray(mesh.triangles)[list(cells)])
    verts = mesh.vertices[idx]
    region_area = float(mesh.areas[list(cells)].sum())
    rotated = kind == "diamond"

    if rotated:
        # a diamond of scale alpha is a rotated-frame square of side
        # alpha*sqrt(2); keep sides on the dyadic-times-sqrt(2) ladder so
        # diamond-shaped regions tile exactly
        frame = verts @ _ROT.T
        beta0 = _largest_dyadic_below(max_scale) * math.sqrt(2.0)
    else:
        frame = verts
        beta0 = _largest_dyadic_below(max_scale)

    lo = frame.min(axis=0)
    hi = frame.max(axis=0)
    width = hi - lo
    if region_area <= 0.0 or float(width.min()) <= 0.0:
        return [], 0.0
    beta = beta0
    while beta > float(width.min()):
        beta *= 0.5
        max_levels -= 1
        if max_levels < 0:
            return [], 0.0

    # when the region is exactly its frame bounding box, box containment
    # replaces the per-triangle test and dyadic tiling is an exact cover
    bbox_exact = abs(float(width[0] * width[1]) - region_area) \
        <= 1e-12 * max(region_area, 1.0)
    member_p0 = mesh._p0[list(cells)]
    member_inv = mesh._inv_jac[list(cells)]

    nx = int(math.ceil(width[0] / beta - 1e-12))
    ny = int(math.ceil(width[1] / beta - 1e-12))
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    anchors = lo + beta * np.stack([ii.ravel(), jj.ravel()], axis=1)

    unit = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    placements: list[Placement] = []
    covered = 0.0
    for level in range(max_levels + 1):
        if anchors.shape[0] == 0:
            break
        corners = anchors[:, None, :] + beta * unit[None, :, :]   # (K,4,2)
        if bbox_exact:
            ok = (np.all(corners >= lo - 1e-12, axis=(1, 2))
                  & np.all(corners <= hi + 1e-12, axis=(1, 2)))
            maybe = ~ok
        else:
            dom_corners = corners @ _ROT if rotated else corners
            ok = _contained_in_member(dom_corners, member_p0, member_inv)
            # boxes fully outside the frame bounding box cannot intersect
            # the region; drop them instead of refining
            outside = (np.any(corners[:, 2, :] <= lo + 1e-15, axis=1)
                       | np.any(corners[:, 0, :] >= hi - 1e-15, axis=1))
            maybe = ~ok & ~outside
        for anchor in anchors[ok]:
            if rotated:
                center = (anchor + 0.5 * beta) @ _ROT
                placements.append(Placement((float(center[0]),
                                             float(center[1])),
                                            beta / math.sqrt(2.0)))
            else:
                placements.append(Placement((float(anchor[0]),
                                             float(anchor[1])), beta))
        # rotation preserves area, so a frame box of side beta covers
        # beta^2 of the domain for both template kinds
        covered += beta * beta * int(ok.sum())
        if covered >= (1.0 - eta) * region_area or not np.any(maybe):
            break
        # quadtree split of the undecided boxes
        half = 0.5 * beta
        base = anchors[maybe]
        shifts = np.array([(0.0, 0.0), (half, 0.0), (0.0, half), (half, half)])
        anchors = (base[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
        beta = half
    return placements, covered


class PastedField:
    """Aff0 perturbation built from disjoint scaled copies of a template.

    Each copy at (a, alpha) contributes x -> alpha * template((x - a) / alpha),
    so gradients are exactly the template's; the uncovered residual carries
    the zero field. Energy and gradient statistics are exact bookkeeping
    over (copy scale, template cell) pairs, not quadrature.
    """

    __slots__ = ("host", "template", "kind", "regions", "domain_area",
                 "covered_area", "_template_cells")

    def __init__(self, host: PwAffineField, template: PwAffineField,
                 kind: str, regions: Sequence[RegionPaste]):
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "regions", tuple(regions))
        object.__setattr__(self, "domain_area", host.mesh.area())
        object.__setattr__(self, "covered_area",
                           float(sum(r.covered_area for r in regions)))
        ref_area = template.mesh.area()
        cells = [(template.gradient(i),
                  float(template.mesh.areas[i]) / ref_area)
                 for i in range(template.mesh.n_cells)]
        object.__setattr__(self, "_template_cells", tuple(cells))

    def __setattr__(self, name, value):
        raise AttributeError("PastedField is immutable")

    @property
    def copies(self) -> tuple[Placement, ...]:
        return tuple(p for r in self.regions for p in r.placements)

    @property
    def coverage(self) -> float:
        return self.covered_area / self.domain_area

    @property
    def residual_area(self) -> float:
        return self.domain_area - self.covered_area

    def sup_norm(self) -> float:
        alphas = [p.scale for r in self.regions for p in r.placements]
        if not alphas:
            return 0.0
        return max(alphas) * self.template.sup_norm()

    def _distribution(self, placements, residual: float):
        """(template gradient, area) pairs for a set of copies, then the
        uncovered residual as a zero gradient."""
        pasted = sum(p.scale ** 2 for p in placements)
        ref_area = self.template.mesh.area()
        out = [(g.copy(), pasted * ref_area * frac)
               for g, frac in self._template_cells]
        out.append((np.zeros((3, 2)), residual))
        return out

    def gradient_distribution(self) -> list[tuple[np.ndarray, float]]:
        """(gradient, total area) pairs, the residual as a zero gradient."""
        return self._distribution(self.copies, self.residual_area)

    def energy_integral(self, density: Callable, *, offset=None,
                        include_residual: bool = True) -> ExtValue:
        """Integral of density(offset + gradient) via exact bookkeeping."""
        shift = np.zeros((3, 2)) if offset is None \
            else np.asarray(offset, dtype=float)
        terms = self.gradient_distribution()
        if not include_residual:
            terms = terms[:-1]  # the residual is always the last entry
        return _integrate(density, ((shift + g, a) for g, a in terms))

    def energy_with_host(self, density: Callable) -> ExtValue:
        """Integral of density(host gradient + pasted gradient)."""
        return _integrate(density, (
            (r.host_gradient + g, a) for r in self.regions
            for g, a in self._distribution(r.placements,
                                           r.area - r.covered_area)))

    def evaluate(self, points) -> np.ndarray:
        """Pointwise values of the pasted perturbation, shape (N, 3)."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        out = np.zeros((pts.shape[0], 3))
        for r in self.regions:
            for p in r.placements:
                a = np.array(p.offset)
                if self.kind == "square":
                    mask = np.all((pts >= a - 1e-12)
                                  & (pts <= a + p.scale + 1e-12), axis=1)
                else:
                    mask = (np.abs(pts - a).sum(axis=1)
                            <= p.scale * (1.0 + 1e-12))
                if np.any(mask):
                    ref = (pts[mask] - a) / p.scale
                    out[mask] = p.scale * self.template.evaluate(
                        ref, outside="zero")
        return out


def vitali_paste(host: PwAffineField, template: PwAffineField,
                 max_scale: float, *, eta: float = 1e-3,
                 max_levels: int = 12) -> PastedField:
    """Fill the host domain with disjoint scaled translates of a template.

    The host is cut into maximal edge-connected regions of equal gradient
    and each region is tiled independently with copies of scale strictly
    below max_scale, targeting uncovered fraction at most eta per region.
    When a region cannot be tiled to target within the refinement budget
    the result simply reports the achieved coverage.
    """
    if max_scale <= 0.0:
        raise ValueError("max_scale must be positive")
    if not template.aff0:
        raise ValueError("template must be an aff0 field on its reference cell")
    kind = _classify_reference(template.mesh)
    regions = []
    for cells in _gradient_regions(host):
        placements, covered = _tile_region(host.mesh, cells, kind,
                                           max_scale, eta, max_levels)
        regions.append(RegionPaste(
            cells=tuple(int(c) for c in cells),
            host_gradient=host.gradient(cells[0]),
            area=float(host.mesh.areas[list(cells)].sum()),
            covered_area=covered,
            placements=tuple(placements)))
    return PastedField(host, template, kind, regions)
