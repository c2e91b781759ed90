"""Thin-film energies, thickness averaging, and the membrane limit.

A film of small thickness is rescaled to a fixed slab; its free energy
reads the bulk density on the rescaled gradient whose third column is
amplified by the inverse thickness. Averaging through the thickness maps
film configurations onto membrane fields, recovery lifts map membrane
fields back, and the sweep utilities compare near-minimizers on both
sides as the thickness shrinks. The two minimizers share the load term,
the lift v + eps * x3 * phi, the flat start and one multi-start descent
driver; their objectives differ only in the energy and its gradient.
"""
from __future__ import annotations

import json
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .director_field import InfeasibleError, blended_director, build_assignment
from .energy_models import EnergyModel
from .pw_affine import PwAffineField, TriMesh
from .tensor_kernel import ExtValue, cofactors, singular_values, wedge

__all__ = [
    "PrismField",
    "lift_membrane",
    "pi_eps_average",
    "thin_film_energy",
    "thin_film_total",
    "LoadPotential",
    "recovery_sequence",
    "director_membrane_energy",
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
        vals = np.array(values, dtype=float)
        if vals.ndim != 3 or vals.shape[1:] != (mesh.n_vertices, 3):
            raise ValueError(
                f"values must be (layers, {mesh.n_vertices}, 3), "
                f"got {vals.shape}")
        if vals.shape[0] < 3 or vals.shape[0] % 2 == 0:
            raise ValueError("layer count must be odd and at least 3")
        if not np.all(np.isfinite(vals)):
            raise ValueError("nodal values must be finite")
        if not eps > 0.0:
            raise ValueError("thickness must be positive")
        vals.setflags(write=False)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "eps", float(eps))

    def __setattr__(self, name, value):
        raise AttributeError("PrismField is immutable")

    @property
    def n_layers(self) -> int:
        return self.values.shape[0]

    def to_dict(self) -> dict:
        return {"mesh": self.mesh.to_dict(), "eps": self.eps,
                "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "PrismField":
        return cls(TriMesh.from_dict(data["mesh"]),
                   np.array(data["values"]), data["eps"])

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load_json(cls, path) -> "PrismField":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


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


def lift_membrane(v: PwAffineField, eps: float, layers: int = 5) -> PrismField:
    """Layer-constant film with every layer equal to the membrane field."""
    return _lift(v, np.zeros(3), eps, layers)


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

def _prism_weights(mesh: TriMesh, layers: int) -> np.ndarray:
    """Prism volumes, flattened layer-major to ((layers - 1) * cells,)."""
    return np.tile(mesh.areas, layers - 1) * (1.0 / (layers - 1))


def _film_energy(model: EnergyModel, weights: np.ndarray, mesh: TriMesh,
                 vals: np.ndarray, eps: float):
    """Film energy at (layers, n, 3) nodal values, the prism determinants
    and the intermediates its gradient reads (None, with the energy +inf,
    when a determinant vanishes).

    The bulk density is sampled once per prism, at its centroid. The
    rescaled gradient F there averages the two layer gradients in its
    in-plane columns; its third column is the centroid difference
    quotient across the layer, amplified by 1/eps.
    """
    delta = 1.0 / (vals.shape[0] - 1)
    g, cen = mesh.cell_gradients_and_means(vals)
    F = np.empty((g.shape[0] - 1,) + g.shape[1:-1] + (3,))
    F[..., :2] = 0.5 * (g[:-1] + g[1:])
    F[..., 2] = (cen[1:] - cen[:-1]) / (delta * eps)
    mid = 0.5 * (cen[:-1] + cen[1:])
    flat = F.reshape(-1, 3, 3)
    dets, cof = cofactors(flat)
    adet = np.abs(dets)
    if np.any(adet == 0.0):
        return math.inf, dets, None
    sq = np.einsum("kij,kij->k", flat, flat)
    energy = float(np.dot(weights, model.density(adet, sq)))
    return energy, dets, (flat, cof, adet, sq, mid)


def thin_film_energy(u: PrismField, model: EnergyModel) -> ExtValue:
    """Volume integral of the bulk density on the rescaled gradient,
    sampled at each prism's centroid: the film objective's energy."""
    weights = _prism_weights(u.mesh, u.n_layers)
    return ExtValue(_film_energy(model, weights, u.mesh, u.values, u.eps)[0])


# ---------------------------------------------------------------------------
# loads

@dataclass(frozen=True)
class LoadPotential:
    """Potential <psi(x, x3), zeta> + |zeta|^p, coercive for p > 1.

    ``psi`` maps in-plane points (N, 2) and heights (N,) to (N, 3). Both
    objectives sample it once and read :meth:`terms` and :meth:`slope`.
    """

    psi: object
    p: float = 2.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError("load exponent must exceed 1")

    @staticmethod
    def zero(p: float = 2.0) -> "LoadPotential":
        return LoadPotential(lambda pts, x3: np.zeros((len(pts), 3)), p)

    def psi_at(self, pts: np.ndarray, x3) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        h = np.broadcast_to(np.asarray(x3, dtype=float), pts.shape[0])
        out = np.asarray(self.psi(pts, h), dtype=float)
        if out.shape != (pts.shape[0], 3):
            raise ValueError("load field must return one 3-vector per point")
        return out

    def terms(self, psi: np.ndarray, zeta: np.ndarray):
        """Density <psi, zeta> + |zeta|^p over the last axis of sampled
        psi and zeta, and |zeta|, which :meth:`slope` reuses."""
        norms = np.linalg.norm(zeta, axis=-1)
        return np.einsum("...j,...j->...", psi, zeta) + norms ** self.p, norms

    def slope(self, psi: np.ndarray, zeta: np.ndarray,
              norms: np.ndarray) -> np.ndarray:
        """Derivative of the density in zeta: psi + p |zeta|^(p-2) zeta."""
        pw = np.where(norms > 0.0, norms ** (self.p - 2.0), 0.0)
        return psi + self.p * pw[..., None] * zeta


def thin_film_total(model: EnergyModel, load: LoadPotential,
                    u: PrismField) -> float:
    """The film objective's value at u, +inf on a vanishing determinant."""
    obj = _ThinObjective(model, load, u.mesh, u.n_layers, u.eps)
    return obj(u.values.reshape(-1))[0]


def lp_distance(a: PwAffineField, b: PwAffineField, p: float) -> float:
    """L^p distance of two fields on one mesh, centroid quadrature."""
    if a.mesh is not b.mesh and not (
            np.array_equal(a.mesh.vertices, b.mesh.vertices)
            and np.array_equal(a.mesh.triangles, b.mesh.triangles)):
        raise ValueError("fields must share a mesh")
    cen = a.mesh.cell_means(a.values - b.values)
    norms = np.linalg.norm(cen, axis=1)
    return float(np.dot(a.mesh.areas, norms ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# recovery lifts

def _sample_director(phi, mesh: TriMesh) -> np.ndarray:
    if hasattr(phi, "evaluate"):
        return np.asarray(phi.evaluate(mesh.vertices), dtype=float)
    if callable(phi):
        return np.asarray(phi(mesh.vertices), dtype=float)
    arr = np.asarray(phi, dtype=float)
    if arr.shape == (3,):
        return np.broadcast_to(arr, (mesh.n_vertices, 3)).copy()
    if arr.shape == (mesh.n_vertices, 3):
        return arr.copy()
    raise ValueError("director must be a field, a callable, nodal values, "
                     "or one constant 3-vector")


def recovery_sequence(model: EnergyModel, v: PwAffineField, phi,
                      eps: float, *, layers: int = 5,
                      det_floor: float = 1e-6) -> tuple[PrismField, ExtValue]:
    """Film v(x) + eps * x3 * phi(x) on the rescaled slab and its energy.

    The director is sampled at mesh vertices, so refine the membrane
    field first when phi varies inside cells. Cells whose centroid
    determinant falls below the floor trigger a warning, not an error:
    the energy is still well-defined, merely large.
    """
    nodal_phi = _sample_director(phi, v.mesh)
    phi_cen = v.mesh.cell_means(nodal_phi)
    grads = v.gradients()
    dets = np.einsum("kj,kj->k", wedge(grads), phi_cen)
    worst = float(np.abs(dets).min())
    if worst < det_floor:
        warnings.warn(f"recovery director determinant fell to {worst:.3e} "
                      f"(floor {det_floor:.3e})", stacklevel=2)
    u = _lift(v, nodal_phi, eps, layers)
    return u, thin_film_energy(u, model)


def director_membrane_energy(model: EnergyModel, v: PwAffineField,
                             phi) -> float:
    """Membrane-side target of the recovery lift: the bulk density on
    (gradient | director) with the director sampled like the lift."""
    phi_cen = v.mesh.cell_means(_sample_director(phi, v.mesh))
    grads = np.concatenate([v.gradients(), phi_cen[:, :, None]], axis=2)
    return float(np.dot(v.mesh.areas, model.w_batch(grads)))


# ---------------------------------------------------------------------------
# descent with a feasibility guard

@dataclass(frozen=True)
class MinimizeResult:
    """Best descent run; ``iterations`` counts its accepted steps.

    ``stop_reason`` is "grad_tol" (gradient vanished), "line_search_stalled"
    (no step along the gradient was accepted) or "budget" (``iters``
    steps taken); ``grad_norm`` is the gradient norm where it stopped.
    ``evaluations``, ``gradients`` and ``backtracks`` are exact counts
    over every start: objective values (one per refused start), gradient
    builds, and trial steps the line search rejected.
    """

    field: object
    total: float
    energy: float
    load_value: float
    iterations: int
    stop_reason: str
    grad_norm: float
    evaluations: int
    gradients: int
    backtracks: int


_COUNTS = ("evaluations", "gradients", "backtracks")


@dataclass(frozen=True)
class _Run:
    x: np.ndarray
    value: float
    accepted: int
    stop_reason: str
    grad_norm: float
    evaluations: int
    gradients: int
    backtracks: int


class _RefusedStart(InfeasibleError):
    """The first evaluation of a descent found its start infeasible."""


def _descent(value, gradient, x0: np.ndarray, iters: int,
             guard=None) -> _Run:
    """Barzilai-Borwein descent with Armijo backtracking.

    ``value(x)`` returns (value, state), state being a pair (guard data,
    intermediates); ``gradient(state)`` builds the gradient at that point
    from it. The line search needs values only, so the gradient is built
    at the start and at each accepted step, after which only the guard
    data is kept. ``guard(data0, data1)`` vetoes a step (used to refuse
    determinant sign flips, which would tunnel through the infinite
    barrier wall). Accepted energies are nonincreasing by construction.
    A start valued +inf or raising InfeasibleError raises _RefusedStart.
    """
    try:
        f, state = value(x0)
    except InfeasibleError as err:
        raise _RefusedStart(str(err)) from err
    if not math.isfinite(f):
        raise _RefusedStart("starting configuration has infinite energy")
    g = gradient(state)
    keep, state = state[0], None  # the intermediates are spent
    x = x0
    prev_x = prev_g = None
    accepted = backtracks = 0
    evaluations = gradients = 1
    reason = "budget"
    for _ in range(iters):
        gn2 = float(np.dot(g, g))
        if gn2 <= 1e-30:
            reason = "grad_tol"
            break
        if prev_x is None:
            t = 1.0 / max(1.0, math.sqrt(gn2))
        else:
            s = x - prev_x
            y = g - prev_g
            sy = float(np.dot(s, y))
            t = float(np.dot(s, s)) / sy if sy > 1e-30 else 1.0
        t = min(max(t, 1e-12), 1e3)
        ok = False
        for _ in range(60):
            x1 = x - t * g
            f1, state = value(x1)
            evaluations += 1
            if (math.isfinite(f1) and f1 <= f - 1e-4 * t * gn2
                    and (guard is None or guard(keep, state[0]))):
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
        prev_x, prev_g = x, g
        g = gradient(state)
        x, f, keep, state = x1, f1, state[0], None
        gradients += 1
        accepted += 1
    return _Run(x, f, accepted, reason, math.sqrt(float(np.dot(g, g))),
                evaluations, gradients, backtracks)


def _multi_start(obj, start, iters: int, seeds: int, seed: int,
                 jitter: float, guard=None) -> MinimizeResult:
    """Descend ``obj`` from the start's nodal values and ``seeds - 1``
    jittered copies; the lowest run wins, the first on ties. Refused
    starts are skipped, and the first refusal is raised if all are."""
    x0 = start.values.reshape(-1).copy()
    rng = np.random.default_rng(seed)
    scale = jitter * max(1.0, float(np.sqrt(np.mean(x0 * x0))))
    runs, refusals = [], []
    for k in range(max(1, seeds)):
        xk = x0 if k == 0 else x0 + scale * rng.standard_normal(x0.shape)
        try:
            runs.append(_descent(obj, obj.gradient, xk, iters, guard))
        except _RefusedStart as err:
            refusals.append(err)
    if not runs:
        raise refusals[0]
    best = min(runs, key=lambda r: r.value)
    energy, load_value, _ = obj.split(best.x)
    return MinimizeResult(
        field=obj.unpack(best.x), total=best.value, energy=energy,
        load_value=load_value, iterations=best.accepted,
        stop_reason=best.stop_reason, grad_norm=best.grad_norm,
        evaluations=len(refusals) + sum(r.evaluations for r in runs),
        gradients=sum(r.gradients for r in runs),
        backtracks=sum(r.backtracks for r in runs))


class _ThinObjective:
    """Total rescaled energy and its analytic nodal gradient; ``__call__``
    keeps the intermediates that ``gradient`` turns into the gradient."""

    def __init__(self, model: EnergyModel, potential: LoadPotential,
                 mesh: TriMesh, layers: int, eps: float):
        self.model = model
        self.potential = potential
        self.mesh = mesh
        self.layers = layers
        self.eps = eps
        self.delta = 1.0 / (layers - 1)
        self.weights = _prism_weights(mesh, layers)
        self.vol = mesh.areas * self.delta
        # psi at the prism centroids, like the film energy's samples
        h = np.linspace(-0.5, 0.5, layers)
        pts = np.tile(mesh.cell_means(mesh.vertices), (layers - 1, 1))
        x3 = np.repeat(0.5 * (h[:-1] + h[1:]), mesh.n_cells)
        self.psi_mid = potential.psi_at(pts, x3).reshape(
            layers - 1, mesh.n_cells, 3)

    def unpack(self, x: np.ndarray) -> PrismField:
        vals = x.reshape(self.layers, self.mesh.n_vertices, 3)
        return PrismField(self.mesh, vals, self.eps)

    def split(self, x: np.ndarray):
        """(energy, load value, (dets, intermediates)) at x; the dets feed
        the sign guard, and the energy is +inf if one vanishes."""
        vals = x.reshape(self.layers, self.mesh.n_vertices, 3)
        energy, dets, parts = _film_energy(self.model, self.weights,
                                           self.mesh, vals, self.eps)
        if parts is None:
            return energy, 0.0, (dets, None)
        terms, norms = self.potential.terms(self.psi_mid, parts[-1])
        load = float(np.einsum("m,lm->", self.vol, terms))
        return energy, load, (dets, parts + (norms,))

    def __call__(self, x: np.ndarray):
        energy, load, state = self.split(x)
        return energy + load, state

    def gradient(self, state) -> np.ndarray:
        """Flat nodal gradient at the point whose call returned ``state``."""
        dets, (flat, cof, adet, sq, mid, norms) = state
        model, mesh, w = self.model, self.mesh, self.weights
        hp = model.barrier.derivative(adet) * np.sign(dets)
        D = (w * hp)[:, None, None] * cof
        D += (w * model.p * sq ** (model.p / 2.0 - 1.0))[:, None, None] * flat
        D = D.reshape(mid.shape + (3,))

        dpsi = self.potential.slope(self.psi_mid, mid, norms)
        dpsi *= self.vol[None, :, None]

        # F[l] reads layers l and l + 1: half of each in-plane gradient,
        # -/+ the centroids over the layer spacing, half of each centroid
        half = 0.5 * D[..., :2]
        third = D[..., 2] / (self.delta * self.eps)
        grad = np.zeros((self.layers, mesh.n_vertices, 3))
        grad[:-1] = mesh.pull_back(half, 0.5 * dpsi - third)
        grad[1:] += mesh.pull_back(half, 0.5 * dpsi + third)
        return grad.reshape(-1)


def _sign_guard(d0: np.ndarray, d1: np.ndarray) -> bool:
    return bool(np.all(np.sign(d0) == np.sign(d1)) and np.all(d1 != 0.0))


def _default_film_start(mesh: TriMesh, eps: float,
                        layers: int) -> PrismField:
    """The flat membrane lifted along the unit normal."""
    return _lift(_flat_membrane(mesh), np.array([0.0, 0.0, 1.0]), eps,
                 layers)


def minimize_thin_film(model: EnergyModel, load: LoadPotential, eps: float,
                       mesh: TriMesh | None = None, *,
                       start: PrismField | None = None, layers: int = 5,
                       iters: int = 200, seeds: int = 1, seed: int = 0,
                       jitter: float = 0.01) -> MinimizeResult:
    """Descend the total film energy from one or more feasible starts.

    The line search refuses steps that flip any prism determinant's
    sign: the barrier makes the zero-determinant set an infinite wall
    and hopping across it would silently change branch. Starts are the
    given field (default: the flat film) plus ``seeds - 1`` jittered
    copies; one evaluation refuses a start of infinite energy, and the
    first refusal is raised when every start is refused.
    """
    if start is None:
        if mesh is None:
            raise ValueError("provide a start field or a mesh")
        start = _default_film_start(mesh, eps, layers)
    obj = _ThinObjective(model, load, start.mesh, start.n_layers, eps)
    return _multi_start(obj, start, iters, seeds, seed, jitter, _sign_guard)


class _MembraneObjective:
    """Tabulated envelope plus mid-surface load, numeric density slope.

    ``__call__`` returns (value, (None, intermediates)); ``gradient``
    takes the density slope as a central difference of the table with 12
    probes per cell. Every lookup reads the singular values in closed
    form from the column Gram invariants. With ``outside="error"`` the
    box guard checks every lookup: the cell gradients at each point whose
    value is taken, trial points of the line search included, and the
    probes only where a gradient is built, at the start and at accepted
    steps.
    """

    def __init__(self, table, potential: LoadPotential, mesh: TriMesh,
                 outside: str):
        self.table = table
        self.potential = potential
        self.mesh = mesh
        self.outside = outside
        self.psi0 = potential.psi_at(mesh.cell_means(mesh.vertices), 0.0)
        self.h = 1e-5

    def unpack(self, x: np.ndarray) -> PwAffineField:
        return PwAffineField(self.mesh, x.reshape(-1, 3))

    def _table_values(self, grads: np.ndarray) -> np.ndarray:
        if self.outside == "error":
            sig = singular_values(grads)
            if np.any(sig[:, 0] > self.table.sigma_max + 1e-12):
                raise InfeasibleError(
                    "a cell gradient left the tabulated envelope box; "
                    "rebuild the table with a larger radius or allow the "
                    "certificate extension")
        return self.table.values_at(grads)

    def split(self, x: np.ndarray):
        """(envelope energy, load value, (None, intermediates)) at x."""
        areas = self.mesh.areas
        grads, cen = self.mesh.cell_gradients_and_means(x.reshape(-1, 3))
        energy = float(np.dot(areas, self._table_values(grads)))
        terms, norms = self.potential.terms(self.psi0, cen)
        return energy, float(np.dot(areas, terms)), (None, (grads, cen, norms))

    def __call__(self, x: np.ndarray):
        energy, load, state = self.split(x)
        return energy + load, state

    def gradient(self, state) -> np.ndarray:
        """Flat nodal gradient at the point whose call returned ``state``."""
        _, (grads, cen, norms) = state
        mesh = self.mesh
        areas = mesh.areas
        n = mesh.n_cells

        h = self.h
        probes = np.repeat(grads[:, None], 12, axis=1)
        slot = 0
        for i in range(3):
            for j in range(2):
                probes[:, slot, i, j] += h
                probes[:, slot + 1, i, j] -= h
                slot += 2
        tv = self._table_values(probes.reshape(-1, 3, 2)).reshape(n, 12)
        dT = ((tv[:, 0::2] - tv[:, 1::2]) / (2.0 * h)).reshape(n, 3, 2)

        dl = self.potential.slope(self.psi0, cen, norms) * areas[:, None]
        return mesh.pull_back(areas[:, None, None] * dT, dl).reshape(-1)


def minimize_membrane(table, load: LoadPotential, mesh: TriMesh, *,
                      start: PwAffineField | None = None, iters: int = 200,
                      seeds: int = 1, seed: int = 0, jitter: float = 0.01,
                      outside: str = "certificate") -> MinimizeResult:
    """Minimize tabulated-envelope energy plus mid-surface load.

    ``outside`` controls gradients beyond the tabulated ball:
    "certificate" uses the polynomial growth bound (coercive, so the
    descent is pulled back in), "error" refuses to evaluate there: a
    start outside the box costs one evaluation and is refused, as in
    :func:`minimize_thin_film`, and a trial step outside it raises.
    """
    if outside not in ("certificate", "error"):
        raise ValueError('outside must be "certificate" or "error"')
    obj = _MembraneObjective(table, load, mesh, outside)
    if start is None:
        start = _flat_membrane(mesh)
    return _multi_start(obj, start, iters, seeds, seed, jitter)


# ---------------------------------------------------------------------------
# the thickness sweep

@dataclass(frozen=True)
class SweepRow:
    """One thickness of a sweep. ``iterations``, ``stop_reason`` and the
    three counts are the film descent's (:class:`MinimizeResult`); in
    recovery mode no descent runs, so the counts are 0 and the reason
    None."""

    eps: float
    e3d: float
    emem: float
    gap: float
    lp_distance: float
    iterations: int
    stop_reason: str | None
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
            json.dump(self.to_dict(), fh)


def gamma_sweep(model: EnergyModel, table, load: LoadPotential,
                mesh: TriMesh, eps_schedule, *, layers: int = 5,
                j: int | None = None, blend_n: int = 64, iters: int = 200,
                seeds: int = 1, seed: int = 0, mode: str = "minimize",
                threads: int = 1) -> SweepReport:
    """Membrane minimum once, then one film run per thickness.

    Per thickness the report records the total film energy, the gap to
    the membrane minimum, and the L^p distance of the thickness average
    from the membrane minimizer. Mode "minimize" descends from the
    recovery lift of the membrane minimizer; mode "recovery" scores the
    lift itself (its gap is the recovery residual). The meta holds the
    membrane descent's stop reason and counts and, under ``seconds``, the
    wall time of each phase: the membrane descent, the director
    assignment and each film run in schedule order.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if not eps_schedule:
        raise ValueError("thickness schedule is empty")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("thickness schedule must be strictly decreasing")
    if mode not in ("minimize", "recovery"):
        raise ValueError('mode must be "minimize" or "recovery"')

    started = time.perf_counter()
    mem = minimize_membrane(table, load, mesh, iters=iters, seeds=seeds,
                            seed=seed)
    v_bar = mem.field
    assigning = time.perf_counter()
    # the requested index is a preference; the minimizer's own geometry
    # sets the feasibility floor, so clamp instead of failing the sweep
    assignment = build_assignment(model, v_bar, None)
    if j is not None and j > assignment.j:
        assignment = build_assignment(model, v_bar, j)
    director = blended_director(v_bar, assignment, blend_n)
    assigned = time.perf_counter()

    def run(idx_eps):
        idx, eps = idx_eps
        film_started = time.perf_counter()
        u0, _ = recovery_sequence(model, v_bar, director, eps,
                                  layers=layers)
        competitor = thin_film_total(model, load, u0)
        if mode == "recovery":
            u, total, its, reason = u0, competitor, 0, None
            counts = dict.fromkeys(_COUNTS, 0)
        else:
            res = minimize_thin_film(model, load, eps, start=u0,
                                     iters=iters, seeds=seeds,
                                     seed=seed + 7919 * idx)
            u, total, its = res.field, res.total, res.iterations
            reason = res.stop_reason
            counts = {k: getattr(res, k) for k in _COUNTS}
            if total > competitor + 1e-9:
                raise RuntimeError(
                    "film minimization ended above its warm-start "
                    "competitor; the descent contract is broken")
        dist = lp_distance(pi_eps_average(u), v_bar, model.p)
        row = SweepRow(eps=eps, e3d=total, emem=mem.total,
                       gap=total - mem.total, lp_distance=dist,
                       iterations=its, stop_reason=reason, **counts)
        return row, time.perf_counter() - film_started

    jobs = list(enumerate(eps_schedule))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(run, jobs))
    else:
        runs = [run(job) for job in jobs]
    meta = {"mode": mode, "layers": layers, "j": assignment.j,
            "j_requested": j, "j_v": assignment.j_v, "blend_n": blend_n,
            "seed": seed, "iters": iters, "seeds": seeds,
            **{f"membrane_{k}": getattr(mem, k)
               for k in ("total", "iterations", "stop_reason") + _COUNTS},
            "seconds": {"membrane": assigning - started,
                        "assignment": assigned - assigning,
                        "films": [secs for _, secs in runs]}}
    return SweepReport(rows=tuple(row for row, _ in runs), meta=meta)
