"""Thin-film energies, thickness averaging, and the membrane limit.

A film of small thickness is rescaled to a fixed slab; its free energy
reads the bulk density on the rescaled gradient whose third column is
amplified by the inverse thickness. Averaging through the thickness maps
film configurations onto membrane fields, recovery lifts map membrane
fields back, and the sweep utilities compare near-minimizers on both
sides as the thickness shrinks. The two minimizers share the load term,
the lift v + eps * x3 * phi, the flat start and one descent from one
start; their objectives differ only in the energy and its gradient.
"""
from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np

from .director_field import InfeasibleError, build_assignment
from .energy_models import EnergyModel
from .pw_affine import PwAffineField, TriMesh
from .tensor_kernel import cofactors, is_integer, sum3, wedge

__all__ = [
    "PrismField",
    "pi_eps_average",
    "LoadPotential",
    "recovery_sequence",
    "lp_distance",
    "MinimizeResult",
    "minimize_thin_film",
    "minimize_membrane",
    "SweepRow",
    "SweepReport",
    "gamma_sweep",
]


# ---------------------------------------------------------------------------
# prism fields on the rescaled slab

class PrismField:
    """Nodal 3-vector values on base-mesh vertices times uniform layers.

    Values live on the rescaled slab: in-plane over the base mesh,
    through-thickness at layer heights spanning (-1/2, 1/2). The
    physical thickness enters only through the gradient rescaling.
    """

    __slots__ = ("mesh", "values", "eps")

    def __init__(self, mesh: TriMesh, values, eps: float):
        if not 0.0 < eps < math.inf:
            raise ValueError("thickness must be finite and positive")
        vals = np.array(values, dtype=float)
        if vals.ndim != 3 or vals.shape[1:] != (mesh.n_vertices, 3):
            raise ValueError(
                f"values must be (layers, {mesh.n_vertices}, 3), "
                f"got {vals.shape}")
        if vals.shape[0] < 3 or vals.shape[0] % 2 == 0:
            raise ValueError("layer count must be odd and at least 3")
        if not np.all(np.isfinite(vals)):
            raise ValueError("nodal values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "eps", float(eps))

    def __setattr__(self, name, value):
        raise AttributeError("PrismField is immutable")

    @property
    def n_layers(self) -> int:
        return self.values.shape[0]


def _lift(v: PwAffineField, nodal_phi: np.ndarray, eps: float,
          layers: int) -> PrismField:
    """Film v + eps * x3 * phi, phi per vertex or one 3-vector."""
    heights = np.linspace(-0.5, 0.5, layers)
    return PrismField(v.mesh, v.values[None] + eps * heights[:, None, None]
                      * nodal_phi[None], eps)


def _flat_membrane(mesh: TriMesh) -> PwAffineField:
    """The reference configuration (x1, x2, 0)."""
    flat = np.zeros((mesh.n_vertices, 3))
    flat[:, :2] = mesh.vertices
    return PwAffineField(mesh, flat)


def pi_eps_average(u: PrismField) -> PwAffineField:
    """Thickness average: trapezoidal in the layers, exact for fields
    linear within each layer interval."""
    m = u.n_layers
    w = np.full(m, 1.0 / (m - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return PwAffineField(u.mesh, np.einsum("l,lvj->vj", w, u.values))


# ---------------------------------------------------------------------------
# rescaled gradients and the film energy

def _film_energy(model: EnergyModel, weights: np.ndarray, mesh: TriMesh,
                 vals: np.ndarray, eps: float, signs):
    """Film energy at (layers, n, 3) nodal values, the flat prism
    determinants and the intermediates its gradient reads.

    A point where a determinant vanishes, or differs in sign from
    ``signs`` (where given), is valued +inf with no intermediates, before
    the density is evaluated.

    The bulk density is sampled once per prism, at its centroid. The
    rescaled gradient F there averages the two layer gradients in its
    in-plane columns; its third column is the centroid difference
    quotient across the layer, amplified by 1/eps. Everything is held
    component-major, prisms layer-major along the rows: F as entry rows
    (3, 3, prisms), ``F[i, j]`` entry (i, j) of every prism, and the
    prism centroids as (3, prisms). |F|^2 is summed on an entry-major
    copy, in numpy's einsum order.
    """
    delta = 1.0 / (vals.shape[0] - 1)
    g, cen = mesh.component_gradients_and_means(vals)
    F = np.empty((3, 3, cen.shape[1] - 1, cen.shape[2]))
    in_plane = F[:, :2].swapaxes(0, 1)
    np.add(g[:, :, :-1], g[:, :, 1:], out=in_plane)
    in_plane *= 0.5
    del g, in_plane
    np.subtract(cen[:, 1:], cen[:, :-1], out=F[:, 2])
    F[:, 2] /= delta * eps
    mid = np.add(cen[:, :-1], cen[:, 1:]).reshape(3, -1)
    mid *= 0.5
    del cen
    F = F.reshape(3, 3, -1)
    dets, cof = cofactors(F)
    ref = np.sign(dets) if signs is None else signs
    if not np.all(dets * ref > 0.0):
        return math.inf, dets, None
    entries = np.ascontiguousarray(F.reshape(9, -1).T)
    sq = np.einsum("ki,ki->k", entries, entries)
    del entries
    adet = np.abs(dets)
    energy = float(np.dot(weights, model.density(adet, sq)))
    return energy, dets, (F, cof, adet, sq, mid)


# ---------------------------------------------------------------------------
# loads

@dataclass(frozen=True)
class LoadPotential:
    """Potential <psi(x, x3), zeta> + |zeta|^p, coercive for p > 1.

    ``psi`` maps in-plane points (N, 2) and heights (N,) to (N, 3). Both
    objectives sample it once, through :meth:`psi_at`, which refuses a
    NaN or infinite sample with ValueError, and read :meth:`terms` and
    :meth:`slope`.
    """

    psi: object
    p: float = 2.0

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise ValueError("load exponent must be finite and exceed 1")

    def psi_at(self, pts: np.ndarray, x3) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        h = np.broadcast_to(np.asarray(x3, dtype=float), pts.shape[0])
        out = np.asarray(self.psi(pts, h), dtype=float)
        if out.shape != (pts.shape[0], 3):
            raise ValueError("load field must return one 3-vector per point")
        if not np.all(np.isfinite(out)):
            raise ValueError("load field returned NaN or infinite values")
        return out

    def terms(self, psi: np.ndarray, zeta: np.ndarray):
        """Density <psi, zeta> + |zeta|^p over the last axis of sampled
        psi and zeta, and |zeta|, which :meth:`slope` reuses. Both dot
        products add their terms with :func:`~memrelax.tensor_kernel.sum3`.
        """
        norms = np.sqrt(sum3((zeta * zeta).T).T)
        return sum3((psi * zeta).T).T + norms ** self.p, norms

    def slope(self, psi: np.ndarray, zeta: np.ndarray,
              norms: np.ndarray) -> np.ndarray:
        """psi + p |zeta|^(p-2) zeta, the zeta-slope; psi where zeta = 0."""
        pw = np.power(norms, self.p - 2.0, out=np.zeros_like(norms),
                      where=norms > 0.0)
        return psi + self.p * pw[..., None] * zeta


def _check_same_mesh(a: TriMesh, b: TriMesh, what: str) -> None:
    """Raise unless a and b are one object or have equal vertices and
    triangles."""
    if a is not b and not (np.array_equal(a.vertices, b.vertices)
                           and np.array_equal(a.triangles, b.triangles)):
        raise ValueError(f"{what} must share a mesh")


def lp_distance(a: PwAffineField, b: PwAffineField, p: float) -> float:
    """L^p distance of two fields on one mesh, centroid quadrature, for
    p in [1, inf)."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must lie in [1, inf), got {p!r}")
    _check_same_mesh(a.mesh, b.mesh, "fields")
    cen = a.mesh.component_gradients_and_means(a.values - b.values)[1]
    norms = np.linalg.norm(cen, axis=0)
    return float(np.dot(a.mesh.areas, norms ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# recovery lifts

def _sample_director(phi, mesh: TriMesh) -> np.ndarray:
    """(n, 3) nodal director values from nodal values or one 3-vector."""
    arr = np.asarray(phi, dtype=float)
    if arr.shape not in ((3,), (mesh.n_vertices, 3)):
        raise ValueError("director must be nodal values or one 3-vector")
    return np.broadcast_to(arr, (mesh.n_vertices, 3))


# Centroid determinant of a recovery lift below which it warns
_DET_FLOOR = 1e-6

# Layers of a recovery lift through the thickness
_LAYERS = 5


def recovery_sequence(v: PwAffineField, phi, eps: float) -> PrismField:
    """Film v(x) + eps * x3 * phi(x) on the rescaled slab, in ``_LAYERS``
    layers.

    The director phi is given by its values at the mesh vertices, or as
    one 3-vector. Cells whose centroid determinant falls below
    ``_DET_FLOOR`` trigger a warning, not an error: the film energy is
    still well-defined, merely large.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("thickness must be finite and positive")
    nodal_phi = _sample_director(phi, v.mesh)
    phi_cen = v.mesh.component_gradients_and_means(nodal_phi)[1]
    dets = np.einsum("kj,jk->k", wedge(v.gradients()), phi_cen)
    worst = float(np.abs(dets).min())
    if worst < _DET_FLOOR:
        warnings.warn(f"recovery director determinant fell to {worst:.3e} "
                      f"(floor {_DET_FLOOR:.3e})", stacklevel=2)
    return _lift(v, nodal_phi, eps, _LAYERS)


# ---------------------------------------------------------------------------
# descent

@dataclass(frozen=True)
class MinimizeResult:
    """One descent run; ``iterations`` counts its accepted steps.

    ``start_total`` is the objective's value at the start, the first value
    the descent computes; ``total`` is at most it. ``stop_reason`` is
    "grad_tol" (|g| <= ``_GRAD_TOL`` (1 + |f|) at the last point),
    "line_search_stalled" (no step along the search direction was
    accepted) or "budget" (``iters`` steps taken); ``grad_norm`` is the
    gradient norm where it stopped.
    ``evaluations``, ``gradients`` and ``backtracks`` are exact counts of
    objective values, gradient builds, and trial steps the line search
    rejected.
    """

    field: object
    total: float
    start_total: float
    energy: float
    load_value: float
    iterations: int
    stop_reason: str
    grad_norm: float
    evaluations: int
    gradients: int
    backtracks: int


_COUNTS = ("evaluations", "gradients", "backtracks")

# Relative gradient tolerance of the descent: it stops on "grad_tol" once
# |g| <= _GRAD_TOL * (1 + |f|), a gradient norm near the round-off of f
_GRAD_TOL = 1e-10

# Curvature pairs an L-BFGS direction remembers. Ten pairs end the
# benchmark's seed-0 sweep membrane no lower than five (3.6378 against
# 3.6373 after 200 steps) and raise the sweep's peak memory by 19 %.
_MEMORY = 5


class _Lbfgs:
    """The newest ``_MEMORY`` curvature pairs (s, y) in a preallocated ring
    buffer, and the direction -H g they define, H in the compact form of
    Byrd, Nocedal and Schnabel (Math. Prog. 63, 1994):

        H = gamma I + (S | Y) M (S | Y)^T,
        M = [[R^-T (D + gamma Y^T Y) R^-1, -gamma R^-T], [-gamma R^-1, 0]],

    the pairs the columns of S and Y, R the upper triangle of S^T Y with
    the pairs oldest first, D its diagonal and gamma = s.y / y.y of the
    newest pair. It is the inverse Hessian of the two-loop recursion
    (Nocedal, Math. Comp. 35, 1980). All small matrices are indexed by
    ring slot; R^-1 vanishes in the rows and columns of slots that hold
    no pair, so their stale entries drop out. ``update`` keeps S^T Y,
    Y^T Y and R^-1 up to date in O(_MEMORY^2) and rebuilds M;
    ``direction`` takes two products with the (2 * _MEMORY, n) pair
    buffer, s in its first half and y in its second.
    """

    def __init__(self, n: int):
        m = _MEMORY
        self.pairs = np.zeros((2 * m, n))
        self.sy = np.zeros((m, m))     # s_i . y_j
        self.yy = np.zeros((m, m))     # y_i . y_j
        self.d = np.zeros((m, m))      # s_i . y_i on the diagonal
        self.r_inv = np.zeros((m, m))  # R^-1 on the slots held
        self.middle = np.zeros((2 * m, 2 * m))
        self.gamma = 1.0
        self.size = 0  # pairs held
        self.head = 0  # the slot the next pair overwrites

    def clear(self) -> None:
        self.size = 0
        self.r_inv.fill(0.0)

    def update(self, s: np.ndarray, y: np.ndarray) -> None:
        """Keep the pair unless s.y <= 1e-12 |s| |y|, which would leave H
        without positive curvature along s."""
        sy = float(np.dot(s, y))
        yy = float(np.dot(y, y))
        if not sy > 1e-12 * math.sqrt(float(np.dot(s, s)) * yy):
            return
        m, k = _MEMORY, self.head
        self.pairs[k] = s
        self.pairs[m + k] = y
        with_s, with_y = self.pairs @ s, self.pairs @ y
        self.sy[k] = with_s[m:]
        self.sy[:, k] = with_y[:m]
        self.yy[k] = self.yy[:, k] = with_y[m:]
        self.gamma = gamma = sy / yy
        self.head = (k + 1) % m
        self.size = min(self.size + 1, m)

        # drop the pair slot k held, the oldest: the inverse of R without
        # its first row and column is R^-1 without them; then append the
        # newest: [[R, r], [0, s.y]]^-1 = [[R^-1, -R^-1 r / s.y],
        # [0, 1 / s.y]], r the s_i . y of the pairs held
        r_inv = self.r_inv
        r_inv[k] = 0.0
        r_inv[:, k] = 0.0
        r_inv[:, k] = r_inv @ self.sy[:, k] * (-1.0 / sy)
        r_inv[k, k] = 1.0 / sy
        self.d[k, k] = sy
        lower = r_inv * -gamma
        self.middle[:m, :m] = r_inv.T @ (self.d + gamma * self.yy) @ r_inv
        self.middle[:m, m:] = lower.T
        self.middle[m:, :m] = lower

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g; -g itself while no pair is held."""
        if not self.size:
            return -g
        d = self.middle @ (self.pairs @ g) @ self.pairs
        d += self.gamma * g
        return np.negative(d, out=d)


def _descent(value, gradient, x0: np.ndarray, iters: int) -> MinimizeResult:
    """L-BFGS descent with Armijo backtracking (Liu-Nocedal, Math. Prog.
    45, 1989), memory ``_MEMORY``.

    ``value(x)`` returns (energy, load, intermediates), and the descent
    minimizes energy + load; ``gradient(intermediates)`` builds the
    gradient of the sum at that point from them, and may consume their
    buffers. The line search needs values only, so the gradient is built
    at the start and at each accepted step. A trial valued +inf is
    refused like any other rise; the film objective values so every point
    across its determinant barrier. The run keeps the energy and load of
    the last accepted point; the result's ``field`` is that flat point.

    Before each step the descent stops on "grad_tol" if
    |g| <= tau (1 + |f|), tau = ``_GRAD_TOL`` = 1e-10. A step x + t d
    tries t = 1 (t = 1 / max(1, |g|) while the memory is empty) and
    halves t until f(x + t d) <= f + 1e-4 t g.d. A direction with
    g.d >= 0 clears the memory and is replaced by -g. Accepted
    energies are nonincreasing by construction, and the curvature pairs
    take a fixed (2 * _MEMORY, n) of memory. ``iters`` other than an
    integer >= 0 (numpy integers included, bools and floats refused)
    raises ValueError, and a start valued +inf InfeasibleError after one
    call.
    """
    if not (is_integer(iters) and iters >= 0):
        raise ValueError(
            f"iters must be nonnegative and an integer, got {iters!r}")
    energy, load, state = value(x0)
    f = energy + load
    if not math.isfinite(f):
        raise InfeasibleError("starting configuration has infinite energy")
    f0 = f
    g = gradient(state)
    state = None  # the intermediates are spent
    x = x0
    memory = _Lbfgs(x0.size)
    accepted = backtracks = 0
    evaluations = gradients = 1
    reason = "budget"
    for _ in range(iters):
        gn2 = float(np.dot(g, g))
        if math.sqrt(gn2) <= _GRAD_TOL * (1.0 + abs(f)):
            reason = "grad_tol"
            break
        d = memory.direction(g)
        slope = float(np.dot(g, d))
        if not slope < 0.0:
            memory.clear()
            d, slope = -g, -gn2
        t = 1.0 if memory.size else 1.0 / max(1.0, math.sqrt(gn2))
        ok = False
        for _ in range(60):
            x1 = x + t * d
            e1, l1, state = value(x1)
            f1 = e1 + l1
            evaluations += 1
            if math.isfinite(f1) and f1 <= f + 1e-4 * t * slope:
                ok = True
                break
            state = None
            backtracks += 1
            t *= 0.5
            if t < 1e-14:
                break
        if not ok:
            reason = "line_search_stalled"
            break
        g1 = gradient(state)
        memory.update(x1 - x, g1 - g)
        x, f, g, state = x1, f1, g1, None
        energy, load = e1, l1
        gradients += 1
        accepted += 1
    return MinimizeResult(
        field=x, total=f, start_total=f0, energy=energy, load_value=load,
        iterations=accepted, stop_reason=reason,
        grad_norm=math.sqrt(float(np.dot(g, g))), evaluations=evaluations,
        gradients=gradients, backtracks=backtracks)


def _minimize(obj, start, iters: int) -> MinimizeResult:
    """Descend ``obj`` from the start's nodal values."""
    run = _descent(obj, obj.gradient, start.values.reshape(-1), iters)
    return replace(run, field=obj.unpack(run.field))


class _ThinObjective:
    """Rescaled film energy plus load and the analytic nodal gradient of
    their sum; ``__call__`` keeps the intermediates that ``gradient``
    turns into the gradient. The mesh, layer count and thickness are the
    start's. The first call must value the start, as :func:`_descent`'s
    does: it records the start's prism determinant signs in ``signs``
    (None before). A point where a determinant vanishes or differs in
    sign from the start's is valued +inf, the start itself included when
    one of its determinants vanishes."""

    def __init__(self, model: EnergyModel, potential: LoadPotential,
                 start: PrismField):
        self.model = model
        self.potential = potential
        self.mesh = mesh = start.mesh
        self.layers = layers = start.n_layers
        self.eps = start.eps
        self.delta = 1.0 / (layers - 1)
        # prism volumes, flattened layer-major to ((layers - 1) * cells,)
        self.weights = np.tile(mesh.areas, layers - 1) * self.delta
        self.signs = None
        self.vol = mesh.areas * self.delta
        # psi at the prism centroids, like the film energy's samples, as
        # component rows (3, prisms)
        h = np.linspace(-0.5, 0.5, layers)
        cen = mesh.component_gradients_and_means(mesh.vertices)[1]
        pts = np.tile(cen.T, (layers - 1, 1))
        x3 = np.repeat(0.5 * (h[:-1] + h[1:]), mesh.n_cells)
        self.psi_mid = np.ascontiguousarray(potential.psi_at(pts, x3).T)

    def unpack(self, x: np.ndarray) -> PrismField:
        vals = x.reshape(self.layers, self.mesh.n_vertices, 3)
        return PrismField(self.mesh, vals, self.eps)

    def __call__(self, x: np.ndarray):
        """(energy, load value, intermediates) at x; (+inf, 0.0, None)
        where a determinant's sign differs from the start's, without a
        density evaluation."""
        vals = x.reshape(self.layers, self.mesh.n_vertices, 3)
        energy, dets, parts = _film_energy(self.model, self.weights,
                                           self.mesh, vals, self.eps,
                                           self.signs)
        if self.signs is None:
            self.signs = np.sign(dets)
        if parts is None:
            return math.inf, 0.0, None
        terms, norms = self.potential.terms(self.psi_mid.T, parts[-1].T)
        load = float(np.einsum("m,lm->", self.vol,
                               terms.reshape(self.layers - 1, -1)))
        return energy, load, parts + (norms,)

    def gradient(self, state) -> np.ndarray:
        """Flat nodal gradient at the point whose call returned ``state``.

        Consumes the state: the density slope D is assembled in place in
        its ``cof`` buffer, and the spent ``F`` buffer then holds the
        per-layer in-plane slopes, so ``state`` cannot be reused. Prism l
        reads layers l and l + 1 with the same in-plane part, so the
        per-cell slopes of the two prisms that touch a layer are summed
        first (:meth:`_layer_slopes`) and one
        ``TriMesh.pull_back_components`` over all components and layers
        scatters them.
        """
        F, cof, adet, sq, mid, norms = state
        model, w = self.model, self.weights
        hp = model.barrier.derivative(adet) * self.signs
        cof *= w * hp
        F *= w * model.p * sq ** (model.p / 2.0 - 1.0)
        D = np.add(cof, F, out=cof).reshape(3, 3, self.layers - 1, -1)
        d_grad, d_mean = self._layer_slopes(D, F, mid, norms)
        return self.mesh.pull_back_components(d_grad, d_mean).reshape(-1)

    def _layer_slopes(self, D, spare, mid, norms):
        """The (2, 3, layers, cells) and (3, layers, cells) slopes in the
        cell gradient columns and cell means of each component of each
        layer, from the prisms' density slopes D, as entry rows
        (3, 3, layers - 1, cells), and the load.

        F[l] reads layers l and l + 1: half of each in-plane gradient,
        -/+ the centroids over the layer spacing, and the load half of
        each centroid. The in-plane sums go to the spent ``spare`` buffer,
        which holds (layers - 1) * 9 >= layers * 6 floats per cell.
        """
        shape = (2, 3, self.layers) + D.shape[-1:]
        d_grad = spare.reshape(-1)[:math.prod(shape)].reshape(shape)
        in_plane = D[:, :2].swapaxes(0, 1)
        d_grad[:, :, :-1] = in_plane
        d_grad[:, :, -1] = 0.0
        d_grad[:, :, 1:] += in_plane
        d_grad *= 0.5
        third = np.divide(D[:, 2], self.delta * self.eps, out=D[:, 2])
        dpsi = self.potential.slope(self.psi_mid.T, mid.T, norms).T
        dpsi = dpsi.reshape(third.shape)
        dpsi *= 0.5 * self.vol
        d_mean = np.empty(shape[1:])
        np.subtract(dpsi, third, out=d_mean[:, :-1])
        d_mean[:, -1] = 0.0
        d_mean[:, 1:] += np.add(dpsi, third, out=dpsi)
        return d_grad, d_mean


def minimize_thin_film(model: EnergyModel, load: LoadPotential,
                       start: PrismField, *,
                       iters: int = 200) -> MinimizeResult:
    """Descend the total film energy from one feasible start, on the
    start's mesh, layers and thickness ``start.eps``.

    The film objective values +inf every point at which a prism
    determinant differs in sign from the start's: the barrier makes the
    zero-determinant set an infinite wall, and a step across it would
    silently change branch. One evaluation refuses a start of infinite
    energy with InfeasibleError; ``iters=0`` only values the start.
    """
    return _minimize(_ThinObjective(model, load, start), start, iters)


class _MembraneObjective:
    """Tabulated envelope plus mid-surface load, and its nodal gradient.

    ``__call__`` returns (envelope energy, load value, intermediates).
    The table is read once per point: the intermediates keep the value
    call's :class:`~memrelax.envelope.TableLookup`, and ``gradient``
    takes the density slope from it (``TableLookup.slopes``) without a
    second Gram matrix or cell search. Beyond the tabulated box the table
    returns its growth certificate, a true upper bound that grows like
    |xi|^p, so a long trial step is rejected by the line search like any
    other rise in value.
    """

    def __init__(self, table, potential: LoadPotential, mesh: TriMesh):
        self.table = table
        self.potential = potential
        self.mesh = mesh
        cen = mesh.component_gradients_and_means(mesh.vertices)[1]
        self.psi0 = potential.psi_at(cen.T, 0.0)

    def unpack(self, x: np.ndarray) -> PwAffineField:
        return PwAffineField(self.mesh, x.reshape(-1, 3))

    def __call__(self, x: np.ndarray):
        """(envelope energy, load value, intermediates) at x; the
        intermediates keep the table lookup of the cell gradients."""
        areas = self.mesh.areas
        grads, cen = self.mesh.component_gradients_and_means(
            x.reshape(-1, 3))
        terms, norms = self.potential.terms(self.psi0, cen.T)
        hit = self.table.lookup(grads.T)
        return (float(np.dot(areas, hit.values)),
                float(np.dot(areas, terms)), (hit, cen, norms))

    def gradient(self, state) -> np.ndarray:
        """Flat nodal gradient at the point whose call returned ``state``."""
        hit, cen, norms = state
        areas = self.mesh.areas
        dT = hit.slopes() * areas[:, None, None]
        dl = self.potential.slope(self.psi0, cen.T, norms) * areas[:, None]
        return self.mesh.pull_back_components(dT.T, dl.T).reshape(-1)


def minimize_membrane(table, load: LoadPotential, mesh: TriMesh, *,
                      start: PwAffineField | None = None,
                      iters: int = 200) -> MinimizeResult:
    """Minimize tabulated-envelope energy plus mid-surface load from one
    start on ``mesh`` (default: the flat membrane).

    Gradients beyond the tabulated box are valued by the growth
    certificate, which is coercive, so the descent is pulled back in.
    """
    if start is None:
        start = _flat_membrane(mesh)
    else:
        _check_same_mesh(start.mesh, mesh, "start and mesh")
    return _minimize(_MembraneObjective(table, load, mesh), start, iters)


# ---------------------------------------------------------------------------
# the thickness sweep

@dataclass(frozen=True)
class SweepRow:
    """One thickness of a sweep. ``iterations``, ``stop_reason``,
    ``grad_norm`` and the three counts are the film descent's
    (:class:`MinimizeResult`); in recovery mode no descent runs, so the
    counts are 0 and the reason and gradient norm None."""

    eps: float
    e3d: float
    emem: float
    gap: float
    lp_distance: float
    iterations: int
    stop_reason: str | None
    grad_norm: float | None
    evaluations: int
    gradients: int
    backtracks: int


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    meta: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"meta": self.meta, "rows": [asdict(r) for r in self.rows]}

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, allow_nan=False)


def gamma_sweep(model: EnergyModel, table, load: LoadPotential,
                mesh: TriMesh, eps_schedule, *, iters: int = 200,
                mode: str = "minimize", threads: int = 1) -> SweepReport:
    """Membrane minimum once, then one film run per thickness.

    Per thickness the report records the total film energy, the gap to
    the membrane minimum, and the L^p distance of the thickness average
    from the membrane minimizer. Each film run starts from the recovery
    lift v + eps * x3 * zeta_bar of the membrane minimizer v along the
    shared direction zeta_bar of its director assignment, which clears
    every cell's determinant bound. Mode "minimize" descends from that
    lift and refuses a film total above the lift's; mode "recovery"
    scores the lift itself (its gap is the recovery residual). The meta
    holds the assignment's feasibility index ``j_v``, the membrane
    descent's total, stop reason, final gradient norm and counts (keys
    ``membrane_*``) and, under ``seconds``, the wall time of each phase:
    the membrane descent, the director assignment and each film run in
    schedule order. Every lift has ``_LAYERS`` = 5 layers, which the meta
    reports under ``layers``. The table must hold ``model``, so that the
    film and the membrane read one W. ``threads`` is accepted and unused:
    the film runs go one after another.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if not eps_schedule:
        raise ValueError("thickness schedule is empty")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("thickness schedule must be strictly decreasing")
    if mode not in ("minimize", "recovery"):
        raise ValueError('mode must be "minimize" or "recovery"')
    if not all(0.0 < e < math.inf for e in eps_schedule):
        raise ValueError("thicknesses must be finite and positive")
    if model != table.model:
        raise ValueError("the table's model is not the sweep's")

    started = time.perf_counter()
    mem = minimize_membrane(table, load, mesh, iters=iters)
    v_bar = mem.field
    assigning = time.perf_counter()
    assignment = build_assignment(model, v_bar)
    assigned = time.perf_counter()

    rows, films = [], []
    for eps in eps_schedule:
        film_started = time.perf_counter()
        u0 = recovery_sequence(v_bar, assignment.zeta_bar, eps)
        if mode == "recovery":
            res = minimize_thin_film(model, load, u0, iters=0)
            its, reason, gnorm = 0, None, None
            counts = dict.fromkeys(_COUNTS, 0)
        else:
            res = minimize_thin_film(model, load, u0, iters=iters)
            its, reason, gnorm = (res.iterations, res.stop_reason,
                                  res.grad_norm)
            counts = {k: getattr(res, k) for k in _COUNTS}
            if res.total > res.start_total + 1e-9:
                raise RuntimeError(
                    "film minimization ended above its warm start; the "
                    "descent contract is broken")
        dist = lp_distance(pi_eps_average(res.field), v_bar, model.p)
        rows.append(SweepRow(eps=eps, e3d=res.total, emem=mem.total,
                             gap=res.total - mem.total, lp_distance=dist,
                             iterations=its, stop_reason=reason,
                             grad_norm=gnorm, **counts))
        films.append(time.perf_counter() - film_started)
        del u0, res  # no film's fields live on into the next descent
    meta = {"mode": mode, "layers": _LAYERS, "j_v": assignment.j_v,
            "iters": iters,
            **{f"membrane_{k}": getattr(mem, k)
               for k in ("total", "iterations", "stop_reason", "grad_norm")
               + _COUNTS},
            "seconds": {"membrane": assigning - started,
                        "assignment": assigned - assigning,
                        "films": films}}
    return SweepReport(rows=tuple(rows), meta=meta)
