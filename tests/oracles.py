"""Reference implementations and fixtures that the tests compare against.

Nothing in ``memrelax`` or the benchmark calls these, so they live with
the tests. Each is an independent route to a quantity the package
computes, or a fixture of the paper's constructions:

* :func:`w0_bruteforce`, a grid search over the third column, checks the
  W0 fiber formula;
* :func:`check_conditions` audits the model conditions (blow-up at
  det F = 0, p-growth, plane symmetry) on random samples;
* :func:`rank_one_convexity_probe` measures convexity violations along
  random rank-one segments;
* the Aff0 hats on the unit diamond and the crossed unit square, with
  :func:`energy_integral` and :func:`zw0_upper_from_testfn`, replay the
  paper's test-field route to the relaxed density;
* :func:`director_membrane_energy` is the membrane-side target of a
  recovery lift;
* :func:`adaptive_nirf` is the blended energy by the adaptive midpoint
  rule over each cell, the blend weight sampled at the rule's points,
  which ``nirf_value``'s one-dimensional coarea rule must match;
* :func:`scanned_normal` is the shared-direction scan valuing every
  direction against every cell, which ``feasible_normal``'s bounded scan
  must reproduce exactly;
* :func:`strided_film_value` and :func:`strided_film_gradient` are the
  film objective in the strided (..., 3, 3) layout it had before it went
  component-major, with :func:`strided_gradients_and_means`,
  :func:`strided_pull_back` and :func:`strided_cofactors`; the
  component-major objective must equal them bit for bit;
* :func:`w_stack` and :func:`eval_w` value W itself, :func:`evaluate`
  interpolates a P1 field, :func:`boundary_mask` marks the boundary
  vertices of a mesh and :func:`perturbed_square_mesh` moves the interior
  ones of a unit-square grid at random;
* :func:`point_integrand` turns an integrand of points into one of the
  quadrature rule's barycentric rows, by the product the rule itself
  formed before it handed over the rows, and :func:`corner_areas` gives
  the rule the areas of a corner stack;
* :func:`mat32` and :func:`mat33` build validated matrices from columns,
  :func:`finite` unwraps a value that must not be +inf, and
  ``INFINITE`` is +inf as an extended value;
* ``FOUR_MODELS`` are the four shipped energy models the tests sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from memrelax import director_field
from memrelax.dimension_reduction import _sample_director
from memrelax.energy_models import (EnergyModel, ReciprocalBarrier,
                                    ShiftedLogBarrier)
from memrelax.fiber_reduction import WEDGE_FLOOR
from memrelax.pw_affine import PwAffineField, TriMesh, unit_square_mesh
from memrelax.quadrature import integrate_adaptive
from memrelax.tensor_kernel import (ExtValue, as_mat32, as_stack, cofactors,
                                    column_invariants, wedge)


# the extended value +inf, which the oracles return where a density blows up
INFINITE = ExtValue(math.inf)

FOUR_MODELS = {
    "reciprocal": EnergyModel(),
    "shifted-log": EnergyModel(ShiftedLogBarrier(), p=2.0),
    "p3": EnergyModel(p=3.0),
    "x-2": EnergyModel(ReciprocalBarrier(2.0), p=2.5),
}


def finite(x) -> float:
    """x as a float; raises ValueError if it is +inf (or NaN)."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite value, got {v}")
    return v


def point_integrand(g, tris):
    """The quadrature integrand ``f(bary, roots) -> (R, E)`` of a point
    integrand ``g(points, roots) -> (N,)`` over the (m, 3, 2) stack
    ``tris``: ``g`` receives the midpoints ``bary @ tris[roots]`` of all
    roots as one (N, 2) array with the root id of each point."""
    def f(bary, roots):
        points = (bary @ tris[roots]).reshape(-1, 2)
        values = g(points, np.repeat(roots, bary.shape[0]))
        return np.asarray(values).reshape(roots.size, bary.shape[0])
    return f


def corner_areas(tris) -> np.ndarray:
    """The (m,) areas of an (m, 3, 2) corner stack, by the two products
    the quadrature rule took from the corners before it took areas."""
    e = tris[:, 1:] - tris[:, :1]
    return 0.5 * np.abs(e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])


# ---------------------------------------------------------------------------
# 3x2 and 3x3 matrices

def mat32(col1, col2) -> np.ndarray:
    """Stack two 3-vectors as the columns of a 3x2 matrix."""
    out = np.column_stack([np.asarray(col1, dtype=float).reshape(3),
                           np.asarray(col2, dtype=float).reshape(3)])
    return as_mat32(out)


def _as_mat33(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.shape != (3, 3):
        raise ValueError(f"mat33 must have shape (3, 3), got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("mat33 entries must be finite")
    return out


def mat33(col1, col2, col3) -> np.ndarray:
    """Stack three 3-vectors as the columns of a 3x3 matrix."""
    return _as_mat33(np.column_stack([np.asarray(c, dtype=float).reshape(3)
                                      for c in (col1, col2, col3)]))


def append_column(xi, zeta) -> np.ndarray:
    """Adjoin a third column to a 3x2 matrix."""
    xi = as_mat32(xi)
    z = np.asarray(zeta, dtype=float).reshape(3)
    return np.column_stack([xi, z])


# ---------------------------------------------------------------------------
# sampled audit of the model conditions

def w_stack(model: EnergyModel, F) -> np.ndarray:
    """W over an (N, 3, 3) stack, as floats with +inf: the model's
    density at |det F| and |F|^2."""
    F = np.asarray(F, dtype=float).reshape(-1, 3, 3)
    dets, _ = cofactors(F.transpose(1, 2, 0))
    return model.density(np.abs(dets), np.sum(F * F, axis=(1, 2)))


def eval_w(model: EnergyModel, F) -> ExtValue:
    """Evaluate the stored energy at a 3x3 gradient."""
    return ExtValue(w_stack(model, _as_mat33(F))[0])


@dataclass(frozen=True)
class ConditionReport:
    """Sampled audit of the extended-value energy conditions.

    empirical_c[k] is the max of W/(1 + |F|^p) over samples with
    |det F| >= deltas[k]; plateau_bound[k] the matching a-priori bound.
    """

    barrier: str
    p: float
    n_samples: int
    deltas: tuple
    empirical_c: tuple
    plateau_bound: tuple
    singular_samples: int
    singular_all_infinite: bool
    max_symmetry_defect: float

    def as_dict(self) -> dict:
        return {
            "barrier": self.barrier,
            "p": self.p,
            "n_samples": self.n_samples,
            "deltas": list(self.deltas),
            "empirical_c": list(self.empirical_c),
            "plateau_bound": list(self.plateau_bound),
            "singular_samples": self.singular_samples,
            "singular_all_infinite": self.singular_all_infinite,
            "max_symmetry_defect": self.max_symmetry_defect,
        }


def _sample_matrices(rng: np.random.Generator, n: int) -> np.ndarray:
    """Generic samples plus near-singular perturbations A + eps*B."""
    n_generic = n // 2
    generic = rng.uniform(-3.0, 3.0, size=(n_generic, 3, 3))
    n_adv = n - n_generic
    A = rng.uniform(-3.0, 3.0, size=(n_adv, 3, 3))
    mix = rng.uniform(-1.0, 1.0, size=(n_adv, 2))
    # force the third column into the span of the first two
    A[:, :, 2] = A[:, :, 0] * mix[:, :1] + A[:, :, 1] * mix[:, 1:]
    B = rng.uniform(-1.0, 1.0, size=(n_adv, 3, 3))
    eps = 10.0 ** rng.integers(-6, 0, size=(n_adv, 1, 1)).astype(float)
    return np.concatenate([generic, A + eps * B], axis=0)


def _singular_matrices(rng: np.random.Generator, n: int) -> np.ndarray:
    """Exactly singular samples: duplicated or zeroed columns.

    Column duplication cancels exactly in the expansion along row 0 that
    :func:`cofactors` uses, so the determinant is 0.0 and not a rounding
    residue.
    """
    out = rng.uniform(-3.0, 3.0, size=(n, 3, 3))
    half = n // 2
    out[:half, :, 2] = out[:half, :, 0]
    out[half:, :, 1] = 0.0
    return out


def check_conditions(model: EnergyModel, n_samples: int = 2000,
                     deltas=(1.0, 0.5, 0.1), seed: int = 0) -> ConditionReport:
    """Sampled verification of blow-up, growth, and plane symmetry.

    Not a proof; a randomized audit used by the test suite.
    """
    rng = np.random.default_rng(seed)
    F = _sample_matrices(rng, n_samples)
    dets = np.abs(cofactors(F.transpose(1, 2, 0))[0])
    sq = np.sum(F * F, axis=(1, 2))
    vals = model.density(dets, sq)
    ratio = vals / (1.0 + model.norm_power(sq))

    emp, bound = [], []
    for d in deltas:
        mask = dets >= d
        emp.append(float(ratio[mask].max()) if mask.any() else 0.0)
        bound.append(model.barrier.plateau(d) + max(1.0, 2.0 ** (model.p / 2.0 - 1.0)))

    n_sing = max(16, n_samples // 20)
    sing = _singular_matrices(rng, n_sing)
    sing_vals = w_stack(model, sing)
    all_inf = bool(np.all(np.isinf(sing_vals)))

    # plane symmetry: flipping the third column must not change W
    flipped = F.copy()
    flipped[:, :, 2] *= -1.0
    defect = np.abs(w_stack(model, flipped) - vals)
    defect = float(np.max(defect[np.isfinite(defect)], initial=0.0))

    return ConditionReport(
        barrier=type(model.barrier).__name__,
        p=model.p,
        n_samples=n_samples,
        deltas=tuple(float(d) for d in deltas),
        empirical_c=tuple(emp),
        plateau_bound=tuple(bound),
        singular_samples=n_sing,
        singular_all_infinite=all_inf,
        max_symmetry_defect=defect,
    )


# ---------------------------------------------------------------------------
# grid oracle for the reduced density

def _sharp_radius(w_probe: float, q: float, coercivity: float, p: float) -> float:
    """Any zeta with W(xi|zeta) <= w_probe has |zeta| <= this radius.

    From W >= coercivity * (|xi|^2 + |zeta|^2)^{p/2}; strictly positive
    because the probe itself is feasible.
    """
    bound = (w_probe / coercivity) ** (2.0 / p) - q
    return float(np.sqrt(max(bound, 0.0)))


def w0_bruteforce(w, xi, grid_n: int, *, coercivity: float | None = None,
                  p: float | None = None) -> ExtValue:
    """Grid oracle: min of W(xi|zeta) over a uniform grid in a ball.

    ``w`` is either an EnergyModel (fast vectorized path, coercivity 1:
    W >= |F|^p) or a callable ``(xi, zeta) -> float`` returning +inf on
    singular arguments.  The ball radius comes from coercivity and a
    fixed probe scan along the fiber normal, so it provably contains
    every minimizer; the grid is the restriction of
    linspace(-R, R, grid_n)^3 to the ball, hence nested under
    grid_n -> 2*(grid_n-1)+1 refinement.
    """
    xi = as_mat32(xi)
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")

    is_model = isinstance(w, EnergyModel)
    if is_model:
        coercivity = 1.0
        p = w.p
    elif coercivity is None or p is None:
        raise ValueError("coercivity and p are required for a bare evaluator")

    c = wedge(xi)
    a = float(np.linalg.norm(c))
    q = float(np.sum(xi * xi))

    if is_model and a <= WEDGE_FLOOR:
        # the determinant <c, zeta> vanishes identically
        return INFINITE

    # fixed probe scan, independent of the closed-form path
    if a > WEDGE_FLOOR:
        probe_dirs = (c / a)[None, :]
    else:
        probe_dirs = np.eye(3)
    ts = np.geomspace(1e-2, 1e2, 17)
    w_best = np.inf
    for d in probe_dirs:
        for t in ts:
            val = (w_stack(w, append_column(xi, t * d))[0] if is_model
                   else float(w(xi, t * d)))
            w_best = min(w_best, val)
    if not np.isfinite(w_best):
        return INFINITE

    R = _sharp_radius(w_best, q, coercivity, p)
    axes = np.linspace(-R, R, grid_n)

    if is_model:
        cx, cy, cz = c
        sq = axes * axes
        rad_tol = R * R * (1.0 + 1e-12)
        best = np.inf
        block = max(1, 2_000_000 // (grid_n * grid_n))
        for i0 in range(0, grid_n, block):
            i1 = min(i0 + block, grid_n)
            D = (cx * axes[i0:i1, None, None] + cy * axes[None, :, None]
                 + cz * axes[None, None, :])
            S = (sq[i0:i1, None, None] + sq[None, :, None]
                 + sq[None, None, :])
            V = w.density(np.abs(D), q + S)
            V = np.where(S <= rad_tol, V, np.inf)
            best = min(best, float(V.min()))
    else:
        best = np.inf
        rad_tol = R * R * (1.0 + 1e-12)
        for zx in axes:
            for zy in axes:
                for zz in axes:
                    if zx * zx + zy * zy + zz * zz > rad_tol:
                        continue
                    val = float(w(xi, np.array([zx, zy, zz])))
                    if val < best:
                        best = val

    if not np.isfinite(best):
        return INFINITE
    return ExtValue(best)


# ---------------------------------------------------------------------------
# Aff0 test fields and the test-function route

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


def boundary_mask(mesh: TriMesh) -> np.ndarray:
    """The vertices of the edges that belong to one cell only."""
    cells_per_edge = np.bincount(mesh.cell_edges.ravel(),
                                 minlength=mesh.edges.shape[0])
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[mesh.edges[cells_per_edge == 1]] = True
    return mask


def perturbed_square_mesh(n: int = 3, seed: int = 5) -> TriMesh:
    """unit_square_mesh(n) with each interior vertex moved by up to 0.1 / n
    in each coordinate, at random."""
    mesh = unit_square_mesh(n)
    rng = np.random.default_rng(seed)
    moved = mesh.vertices.copy()
    inner = ~boundary_mask(mesh)
    moved[inner] += 0.1 / n * rng.uniform(-1.0, 1.0, size=(inner.sum(), 2))
    return TriMesh(moved, mesh.triangles)


def evaluate(field: PwAffineField, points) -> np.ndarray:
    """The P1 interpolant at (N, 2) points, (N, 3): the barycentric
    average of the corner values of the cell :meth:`TriMesh.locate`
    finds. Points outside the domain raise ValueError."""
    mesh = field.mesh
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    cells = mesh.locate(pts)
    miss = cells < 0
    if np.any(miss):
        raise ValueError(f"{int(miss.sum())} point(s) outside the domain")
    lam = mesh.barycentric(pts, cells)
    corners = field.values[mesh.triangles[cells]]
    return np.einsum("nc,nck->nk", lam, corners)


def energy_integral(field: PwAffineField, density, *,
                    offset=None) -> ExtValue:
    """Integral of density(offset + gradient) over the domain.

    ``density.batch`` values the (m, 3, 2) stack of cell gradients in one
    call, as floats with +inf, like
    :meth:`~memrelax.fiber_reduction.ReducedDensity.batch`; the values
    are summed with the cell areas. Every cell has positive area
    (:class:`TriMesh` rejects areas at or below ``AREA_FLOOR``), so one
    infinite value makes the integral :data:`INFINITE`.
    """
    grads = field._grads if offset is None \
        else np.asarray(offset, dtype=float) + field._grads
    total = float(np.sum(field.mesh.areas * density.batch(grads)))
    return ExtValue(total) if math.isfinite(total) else INFINITE


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
    return PwAffineField(mesh, vals)


def build_square_hat(nu, t: float) -> PwAffineField:
    """Compactly supported field on the crossed unit square.

    The center value (t/2)*nu produces gradients (0 | t nu), (-t nu | 0),
    (0 | -t nu), (t nu | 0) on the bottom, right, top, left cells.
    """
    v = _unit_vector(nu)
    mesh = crossed_square_mesh()
    vals = np.zeros((5, 3))
    vals[4] = 0.5 * float(t) * v
    return PwAffineField(mesh, vals)


def zw0_upper_from_testfn(xi, phi: PwAffineField, density) -> ExtValue:
    """Mean of density(xi + gradient) over the test field's domain.

    Any compactly supported piecewise-affine perturbation certifies an
    upper bound for the relaxed density; phi must vanish (to 1e-12) at
    every boundary vertex of its mesh.
    """
    worst = float(np.abs(phi.values[boundary_mask(phi.mesh)]).max(
        initial=0.0))
    if worst > 1e-12:
        raise ValueError("test field must vanish on its domain boundary "
                         f"(max {worst:.3e})")
    xi = as_mat32(xi)
    total = energy_integral(phi, density, offset=xi)
    return ExtValue(total * (1.0 / phi.mesh.areas.sum()))


# ---------------------------------------------------------------------------
# rank-one convexity probe

def rank_one_convexity_probe(f, samples: int, *, seed: int = 0,
                             box_radius: float = 3.0,
                             relative: bool = False) -> float:
    """Largest violation of convexity along sampled rank-one segments.

    ``f.batch`` evaluates an (N, 3, 2) stack. Draws segments whose
    endpoints stay inside the Frobenius ball of the given radius and
    returns max of f(center) - lam f(plus)
    - (1-lam) f(minus), optionally divided by max(1, f(center)).
    A function convex along rank-one lines keeps this at roundoff level.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(samples, 3, 2))
    norms = np.linalg.norm(xi.reshape(samples, -1), axis=1)
    radius = box_radius * 0.7 * rng.uniform(0.1, 1.0, size=samples)
    xi *= (radius / norms)[:, None, None]

    a = rng.normal(size=(samples, 3))
    a /= np.linalg.norm(a, axis=1)[:, None]
    theta = rng.uniform(0.0, np.pi, size=samples)
    n = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    r = a[:, :, None] * n[:, None, :]

    margin = box_radius - radius
    s = rng.uniform(0.05, 1.0, size=samples) * margin
    lam = rng.uniform(0.05, 0.95, size=samples)
    plus = xi + ((1.0 - lam) * s)[:, None, None] * r
    minus = xi - (lam * s)[:, None, None] * r

    fc = f.batch(xi)
    fp = f.batch(plus)
    fm = f.batch(minus)
    viol = fc - (lam * fp + (1.0 - lam) * fm)
    if relative:
        viol = viol / np.maximum(1.0, np.abs(fc))
    finite = viol[np.isfinite(viol)]
    return float(finite.max()) if finite.size else -math.inf


# ---------------------------------------------------------------------------
# membrane side of a recovery lift

def director_membrane_energy(model: EnergyModel, v: PwAffineField,
                             phi) -> float:
    """Membrane-side target of the recovery lift: the bulk density on
    (gradient | director) with the director sampled like the lift."""
    phi_cen = v.mesh.component_gradients_and_means(
        _sample_director(phi, v.mesh))[1]
    grads = np.concatenate([v.gradients(), phi_cen.T[:, :, None]], axis=2)
    return float(np.dot(v.mesh.areas, w_stack(model, grads)))


def adaptive_nirf(model: EnergyModel, field: PwAffineField, j: int, n: int,
                  *, rel_tol: float, max_level: int) -> float:
    """The blended energy of ``nirf_value`` by :func:`integrate_adaptive`
    over every cell: the blend weight ``BlendedDirector._bary_weight`` at
    the rule's barycentric rows and W along the blend from the five
    per-cell coefficients, each cell refined until two levels agree to
    ``rel_tol`` or it reaches ``max_level``."""
    asn = director_field.build_assignment(model, field, j)
    director = director_field.BlendedDirector(asn, n)
    grads = field.gradients()
    crosses = wedge(grads)
    zeta_bar = asn.zeta_bar
    delta = asn.zetas - zeta_bar
    coef = np.stack([crosses @ zeta_bar,
                     np.einsum("ij,ij->i", crosses, delta),
                     np.sum(grads ** 2, axis=(1, 2)) + zeta_bar @ zeta_bar,
                     2.0 * (delta @ zeta_bar),
                     np.einsum("ij,ij->i", delta, delta)])

    def integrand(bary: np.ndarray, cells: np.ndarray) -> np.ndarray:
        a = director._bary_weight(bary, cells[:, None])
        c0, c1, q0, q1, q2 = coef[:, cells, None]
        return model.density(np.abs(c0 + a * c1), q0 + a * (q1 + a * q2))

    return integrate_adaptive(integrand, field.mesh.areas, rel_tol=rel_tol,
                              max_level=max_level).value


# ---------------------------------------------------------------------------
# the exhaustive shared-direction scan

def scanned_normal(cells, block: int = 64):
    """(direction, j_v, signs) of ``feasible_normal`` by the full scan:
    every direction of the same sequence is valued against every cell,
    ``block`` directions at a time, and the first best margin wins."""
    df = director_field
    cols, norms, _ = column_invariants(as_stack(cells))
    crosses = cols.T
    unit = crosses / norms[:, None]
    best_margin, best = -1.0, None

    def consider(batch):
        nonlocal best_margin, best
        for start in range(0, batch.shape[0], block):
            rows = batch[start:start + block]
            angular = np.abs(rows @ unit.T).min(axis=1)
            margin = np.abs(rows @ crosses.T).min(axis=1)
            margin[angular < df._ANGULAR_TOL] = -1.0
            k = int(np.argmax(margin))
            if margin[k] > best_margin:
                best_margin, best = float(margin[k]), rows[k]

    consider(np.concatenate([np.eye(3), -np.eye(3)]))
    consider(df._icosahedron())
    for n in (64, 256, 1024):
        consider(df._fibonacci_sphere(n))
    radius = 0.3
    for _ in range(4):
        consider(df._cap(best, radius, 128))
        radius /= 3.0
    j_v = max(1, math.ceil(1.0 / best_margin))
    while 1.0 / j_v > best_margin:
        j_v += 1
    return best, j_v, np.sign(crosses @ best).astype(int)


# ---------------------------------------------------------------------------
# the film objective in its strided layout

def strided_gradients_and_means(mesh: TriMesh, values):
    """Cell gradients (..., m, k, 2) and cell means (..., m, k) of
    (..., n, k) nodal values, from one (..., 3, m, k) corner gather."""
    c = np.take(np.asarray(values, dtype=float), mesh.triangles.T, axis=-2)
    inv = mesh._inv_rows.transpose(2, 0, 1)
    e1 = c[..., 1, :, :] - c[..., 0, :, :]
    e2 = c[..., 2, :, :] - c[..., 0, :, :]
    grads = np.empty(e1.shape + (2,))
    for col in range(2):
        grads[..., col] = (e1 * inv[:, 0, col, None]
                           + e2 * inv[:, 1, col, None])
    return grads, (c[..., 0, :, :] + c[..., 1, :, :] + c[..., 2, :, :]) / 3.0


def strided_pull_back(mesh: TriMesh, d_grad, d_mean) -> np.ndarray:
    """Adjoint of :func:`strided_gradients_and_means`: the (..., m, 3, k)
    corner terms, scattered by one ``np.bincount``."""
    G, C, inv = d_grad, d_mean / 3.0, mesh._inv_rows.transpose(2, 0, 1)
    a = G[..., 0] * inv[:, 0, 0, None] + G[..., 1] * inv[:, 0, 1, None]
    b = G[..., 0] * inv[:, 1, 0, None] + G[..., 1] * inv[:, 1, 1, None]
    corner = np.stack([C - a - b, C + a, C + b], axis=-2)
    lead, k, n = corner.shape[:-3], corner.shape[-1], mesh.n_vertices
    rows = np.arange(math.prod(lead))[:, None, None, None]
    idx = (rows * n + mesh.triangles[..., None]) * k + np.arange(k)
    out = np.bincount(idx.ravel(), corner.ravel(),
                      minlength=rows.shape[0] * n * k)
    return out.reshape(lead + (n, k))


def strided_cofactors(F: np.ndarray):
    """Determinants (row-0 expansion, numpy's einsum order) and cofactor
    matrices of an (N, 3, 3) stack, one cross product per column."""
    cof = np.empty_like(F)
    cof[:, :, 0] = wedge(F[:, :, 1:])
    cof[:, :, 1] = wedge(F[:, :, 2::-2])
    cof[:, :, 2] = wedge(F[:, :, :2])
    return np.einsum("ki,ki->k", F[:, 0, :], cof[:, 0, :]), cof


def strided_film_value(obj, x: np.ndarray):
    """(energy, load, dets, state) of a film objective at x, in the
    strided layout: F as a (prisms, 3, 3) stack, state None where a
    determinant vanishes or differs in sign from ``obj.signs``."""
    vals = x.reshape(obj.layers, obj.mesh.n_vertices, 3)
    g, cen = strided_gradients_and_means(obj.mesh, vals)
    F = np.empty((g.shape[0] - 1,) + g.shape[1:-1] + (3,))
    F[..., :2] = 0.5 * (g[:-1] + g[1:])
    F[..., 2] = (cen[1:] - cen[:-1]) / (obj.delta * obj.eps)
    mid = 0.5 * (cen[:-1] + cen[1:])
    flat = F.reshape(-1, 3, 3)
    dets, cof = strided_cofactors(flat)
    adet = np.abs(dets)
    if np.any(adet == 0.0) or not np.all(dets * obj.signs > 0.0):
        return math.inf, 0.0, dets, None
    sq = np.einsum("kij,kij->k", flat, flat)
    energy = float(np.dot(obj.weights, obj.model.density(adet, sq)))
    psi = _strided_psi(obj, mid)
    norms = np.sqrt(np.einsum("...j,...j->...", mid, mid))
    terms = np.einsum("...j,...j->...", psi, mid) + norms ** obj.potential.p
    load = float(np.einsum("m,lm->", obj.vol, terms))
    return energy, load, dets, (flat, cof, adet, sq, mid, norms)


def _strided_psi(obj, mid: np.ndarray) -> np.ndarray:
    """The objective's load samples at the prism centroids, shaped like
    the (layers - 1, cells, 3) centroids."""
    return np.ascontiguousarray(np.asarray(obj.psi_mid).T).reshape(mid.shape)


def strided_film_gradient(obj, state) -> np.ndarray:
    """Flat nodal gradient from a :func:`strided_film_value` state: the
    prisms' density slopes D, the two prisms' slopes summed per layer, one
    scatter over all layers."""
    flat, cof, adet, sq, mid, norms = state
    model, w = obj.model, obj.weights
    hp = model.barrier.derivative(adet) * obj.signs
    cof = cof * (w * hp)[:, None, None]
    flat = flat * (w * model.p * sq ** (model.p / 2.0 - 1.0))[:, None, None]
    D = (cof + flat).reshape(mid.shape + (3,))
    d_grad = np.zeros((obj.layers,) + D.shape[1:-1] + (2,))
    d_grad[:-1] = D[..., :2]
    d_grad[1:] += D[..., :2]
    d_grad *= 0.5
    third = D[..., 2] / (obj.delta * obj.eps)
    pw = np.power(norms, obj.potential.p - 2.0, out=np.zeros_like(norms),
                  where=norms > 0.0)
    dpsi = _strided_psi(obj, mid) + obj.potential.p * pw[..., None] * mid
    dpsi *= (0.5 * obj.vol)[None, :, None]
    d_mean = np.zeros((obj.layers,) + dpsi.shape[1:])
    d_mean[:-1] = dpsi - third
    d_mean[1:] += dpsi + third
    return strided_pull_back(obj.mesh, d_grad, d_mean).reshape(-1)
