"""Thin-film energies, thickness averaging, and the membrane limit.

A film of small thickness is rescaled to a fixed slab; its free energy
reads the bulk density on the rescaled gradient whose third column is
amplified by the inverse thickness. Averaging through the thickness maps
film configurations onto membrane fields, recovery lifts map membrane
fields back, and the sweep utilities compare near-minimizers on both
sides as the thickness shrinks.
"""
from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

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
    "thin_film_load",
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

    @property
    def layer_heights(self) -> np.ndarray:
        return np.linspace(-0.5, 0.5, self.n_layers)

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


def lift_membrane(v: PwAffineField, eps: float, layers: int = 5) -> PrismField:
    """Layer-constant film with every layer equal to the membrane field."""
    vals = np.broadcast_to(v.values, (layers,) + v.values.shape)
    return PrismField(v.mesh, vals.copy(), eps)


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

def _prism_samples(mesh: TriMesh, vals: np.ndarray, eps: float):
    """Rescaled gradient F and field value at each prism centroid.

    ``vals`` holds (layers, n, 3) nodal values; the results have shapes
    (layers - 1, cells, 3, 3) and (layers - 1, cells, 3). F's in-plane
    columns average the two layer gradients and its third column is the
    centroid difference quotient across the layer, amplified by 1/eps.
    """
    delta = 1.0 / (vals.shape[0] - 1)
    g = mesh.cell_gradients(vals)
    cen = mesh.cell_means(vals)
    F = np.empty((g.shape[0] - 1,) + g.shape[1:-1] + (3,))
    F[..., :2] = 0.5 * (g[:-1] + g[1:])
    F[..., 2] = (cen[1:] - cen[:-1]) / (delta * eps)
    return F, 0.5 * (cen[:-1] + cen[1:])


def _prism_weights(mesh: TriMesh, layers: int) -> np.ndarray:
    """Prism volumes, flattened layer-major to ((layers - 1) * cells,)."""
    return np.tile(mesh.areas, layers - 1) * (1.0 / (layers - 1))


def _prism_centroids(mesh: TriMesh, layers: int):
    """In-plane points and heights of the prism centroids, flattened
    layer-major like the weights."""
    h = np.linspace(-0.5, 0.5, layers)
    pts = np.tile(mesh.cell_means(mesh.vertices), (layers - 1, 1))
    return pts, np.repeat(0.5 * (h[:-1] + h[1:]), mesh.n_cells)


def thin_film_energy(u: PrismField, model: EnergyModel) -> ExtValue:
    """Volume integral of the bulk density on the rescaled gradient,
    sampled at each prism's centroid."""
    F, _ = _prism_samples(u.mesh, u.values, u.eps)
    w = _prism_weights(u.mesh, u.n_layers)
    return ExtValue(float(np.dot(w, model.w_batch(F.reshape(-1, 3, 3)))))


# ---------------------------------------------------------------------------
# loads

@dataclass(frozen=True)
class LoadPotential:
    """Potential <psi(x, x3), zeta> + |zeta|^p, coercive for p > 1.

    ``psi`` maps in-plane points (N, 2) and heights (N,) to (N, 3).
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

    def density(self, pts: np.ndarray, x3, zeta: np.ndarray) -> np.ndarray:
        zeta = np.asarray(zeta, dtype=float)
        norms = np.linalg.norm(zeta, axis=1)
        return (np.einsum("nj,nj->n", self.psi_at(pts, x3), zeta)
                + norms ** self.p)


def thin_film_load(u: PrismField, load: LoadPotential) -> float:
    """Load integral sampled at the prism centroids, like the energy."""
    _, mids = _prism_samples(u.mesh, u.values, u.eps)
    w = _prism_weights(u.mesh, u.n_layers)
    pts, heights = _prism_centroids(u.mesh, u.n_layers)
    return float(np.dot(w, load.density(pts, heights, mids.reshape(-1, 3))))


def thin_film_total(model: EnergyModel, load: LoadPotential,
                    u: PrismField) -> float:
    energy = thin_film_energy(u, model)
    if not energy.is_finite:
        return math.inf
    return energy.finite + thin_film_load(u, load)


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
    heights = np.linspace(-0.5, 0.5, layers)
    vals = (v.values[None] + eps * heights[:, None, None] * nodal_phi[None])
    u = PrismField(v.mesh, vals, eps)
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
    """

    field: object
    total: float
    energy: float
    load_value: float
    iterations: int
    stop_reason: str
    grad_norm: float


def _descent(value_grad, x0: np.ndarray, iters: int, guard=None):
    """Barzilai-Borwein descent with Armijo backtracking.

    ``value_grad`` returns (value, gradient, state); ``guard(state0,
    state1)`` vetoes a step (used to refuse determinant sign flips, which
    would tunnel through the infinite barrier wall). Accepted energies
    are nonincreasing by construction. Returns (x, value, accepted
    steps, stop reason, gradient norm at x).
    """
    f, g, state = value_grad(x0)
    if not math.isfinite(f):
        raise InfeasibleError("starting configuration has infinite energy")
    x = x0
    prev_x = prev_g = None
    accepted = 0
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
            f1, g1, state1 = value_grad(x1)
            if (math.isfinite(f1) and f1 <= f - 1e-4 * t * gn2
                    and (guard is None or guard(state, state1))):
                ok = True
                break
            t *= 0.5
            if t < 1e-14:
                break
        if not ok:
            reason = "line_search_stalled"
            break
        prev_x, prev_g = x, g
        x, f, g, state = x1, f1, g1, state1
        accepted += 1
    return x, f, accepted, reason, math.sqrt(float(np.dot(g, g)))


class _ThinObjective:
    """Total rescaled energy and its analytic nodal gradient."""

    def __init__(self, model: EnergyModel, load: LoadPotential,
                 mesh: TriMesh, layers: int, eps: float):
        self.model = model
        self.load = load
        self.mesh = mesh
        self.layers = layers
        self.eps = eps
        self.delta = 1.0 / (layers - 1)
        self.weights = _prism_weights(mesh, layers)
        self.psi_mid = load.psi_at(*_prism_centroids(mesh, layers)).reshape(
            layers - 1, mesh.n_cells, 3)

    def pack(self, u: PrismField) -> np.ndarray:
        return u.values.reshape(-1).copy()

    def unpack(self, x: np.ndarray) -> PrismField:
        vals = x.reshape(self.layers, self.mesh.n_vertices, 3)
        return PrismField(self.mesh, vals, self.eps)

    def __call__(self, x: np.ndarray):
        model, mesh, m = self.model, self.mesh, self.layers
        vals = x.reshape(m, mesh.n_vertices, 3)
        F, mid = _prism_samples(mesh, vals, self.eps)
        flat = F.reshape(-1, 3, 3)

        dets, cof = cofactors(flat)
        adet = np.abs(dets)
        if np.any(adet == 0.0):
            return math.inf, np.zeros_like(x), dets
        sq = np.einsum("kij,kij->k", flat, flat)
        w = self.weights
        value = float(np.dot(w, model.density(adet, sq)))

        hp = model.barrier.derivative(adet) * np.sign(dets)
        D = (w * hp)[:, None, None] * cof
        D += (w * model.p * sq ** (model.p / 2.0 - 1.0))[:, None, None] * flat
        D = D.reshape(F.shape)

        vol = mesh.areas * self.delta
        norms = np.linalg.norm(mid, axis=2)
        value += float(np.einsum("m,lm->", vol,
                                 np.einsum("lmj,lmj->lm", self.psi_mid, mid)
                                 + norms ** self.load.p))
        pw = np.where(norms > 0.0, norms ** (self.load.p - 2.0), 0.0)
        dpsi = (self.psi_mid + self.load.p * pw[:, :, None] * mid)
        dpsi *= vol[None, :, None]

        # F[l] reads layers l and l + 1: half of each in-plane gradient,
        # -/+ the centroids over the layer spacing, half of each centroid
        half = 0.5 * D[..., :2]
        third = D[..., 2] / (self.delta * self.eps)
        grad = np.zeros_like(vals)
        grad[:-1] = mesh.pull_back(half, 0.5 * dpsi - third)
        grad[1:] += mesh.pull_back(half, 0.5 * dpsi + third)
        return value, grad.reshape(-1), dets


def _sign_guard(d0: np.ndarray, d1: np.ndarray) -> bool:
    return bool(np.all(np.sign(d0) == np.sign(d1)) and np.all(d1 != 0.0))


def _default_film_start(mesh: TriMesh, eps: float,
                        layers: int) -> PrismField:
    flat = np.zeros((mesh.n_vertices, 3))
    flat[:, :2] = mesh.vertices
    heights = np.linspace(-0.5, 0.5, layers)
    vals = np.repeat(flat[None], layers, axis=0)
    vals[:, :, 2] += eps * heights[:, None]
    return PrismField(mesh, vals, eps)


def minimize_thin_film(model: EnergyModel, load: LoadPotential, eps: float,
                       mesh: TriMesh | None = None, *,
                       start: PrismField | None = None, layers: int = 5,
                       iters: int = 200, seeds: int = 1, seed: int = 0,
                       jitter: float = 0.01) -> MinimizeResult:
    """Descend the total film energy from one or more feasible starts.

    The line search refuses steps that flip any prism determinant's
    sign: the barrier makes the zero-determinant set an infinite wall
    and hopping across it would silently change branch. Starts are the
    given field plus jittered copies; infeasible starts are skipped and
    all-infeasible raises.
    """
    if start is None:
        if mesh is None:
            raise ValueError("provide a start field or a mesh")
        start = _default_film_start(mesh, eps, layers)
    obj = _ThinObjective(model, load, start.mesh, start.n_layers, eps)
    x0 = obj.pack(start)
    rng = np.random.default_rng(seed)
    scale = jitter * max(1.0, float(np.sqrt(np.mean(x0 * x0))))

    best = None
    feasible = 0
    for k in range(max(1, seeds)):
        xk = x0 if k == 0 else x0 + scale * rng.standard_normal(x0.shape)
        try:
            run = _descent(obj, xk, iters, guard=_sign_guard)
        except InfeasibleError:
            continue
        feasible += 1
        if best is None or run[1] < best[1]:
            best = run
    if best is None:
        raise InfeasibleError("every start had infinite energy")
    x, fval, its, reason, gnorm = best
    u = obj.unpack(x)
    energy = thin_film_energy(u, model).as_float()
    return MinimizeResult(field=u, total=fval, energy=energy,
                          load_value=fval - energy, iterations=its,
                          stop_reason=reason, grad_norm=gnorm)


class _MembraneObjective:
    """Tabulated envelope plus mid-surface load, numeric density slope.

    The density slope is a central difference of the table with 12 probes
    per cell; every lookup, and the ``outside="error"`` guard, reads the
    singular values in closed form from the column Gram invariants.
    """

    def __init__(self, table, load: LoadPotential, mesh: TriMesh,
                 outside: str):
        self.table = table
        self.load = load
        self.mesh = mesh
        self.outside = outside
        self.psi0 = load.psi_at(mesh.cell_means(mesh.vertices), 0.0)
        self.h = 1e-5

    def pack(self, v: PwAffineField) -> np.ndarray:
        return v.values.reshape(-1).copy()

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

    def __call__(self, x: np.ndarray):
        mesh = self.mesh
        vals = x.reshape(-1, 3)
        areas = mesh.areas
        n = mesh.n_cells

        grads = mesh.cell_gradients(vals)
        value = float(np.dot(areas, self._table_values(grads)))

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

        cen = mesh.cell_means(vals)
        norms = np.linalg.norm(cen, axis=1)
        value += float(np.dot(areas,
                              np.einsum("mj,mj->m", self.psi0, cen)
                              + norms ** self.load.p))
        pw = np.where(norms > 0.0, norms ** (self.load.p - 2.0), 0.0)
        dl = (self.psi0 + self.load.p * pw[:, None] * cen) * areas[:, None]
        grad = mesh.pull_back(areas[:, None, None] * dT, dl)
        return value, grad.reshape(-1), None


def minimize_membrane(table, load: LoadPotential, mesh: TriMesh, *,
                      start: PwAffineField | None = None, iters: int = 200,
                      seeds: int = 1, seed: int = 0, jitter: float = 0.01,
                      outside: str = "certificate") -> MinimizeResult:
    """Minimize tabulated-envelope energy plus mid-surface load.

    ``outside`` controls gradients beyond the tabulated ball:
    "certificate" uses the polynomial growth bound (coercive, so the
    descent is pulled back in), "error" refuses to evaluate there.
    """
    if outside not in ("certificate", "error"):
        raise ValueError('outside must be "certificate" or "error"')
    tab = table.table if hasattr(table, "table") else table
    obj = _MembraneObjective(tab, load, mesh, outside)
    if start is None:
        flat = np.zeros((mesh.n_vertices, 3))
        flat[:, :2] = mesh.vertices
        start = PwAffineField(mesh, flat)
    x0 = obj.pack(start)
    rng = np.random.default_rng(seed)
    scale = jitter * max(1.0, float(np.sqrt(np.mean(x0 * x0))))
    best = None
    for k in range(max(1, seeds)):
        xk = x0 if k == 0 else x0 + scale * rng.standard_normal(x0.shape)
        run = _descent(obj, xk, iters)
        if best is None or run[1] < best[1]:
            best = run
    x, fval, its, reason, gnorm = best
    v = obj.unpack(x)
    energy = float(np.dot(mesh.areas, tab.values_at(v.gradients())))
    return MinimizeResult(field=v, total=fval, energy=energy,
                          load_value=fval - energy, iterations=its,
                          stop_reason=reason, grad_norm=gnorm)


# ---------------------------------------------------------------------------
# the thickness sweep

@dataclass(frozen=True)
class SweepRow:
    eps: float
    e3d: float
    emem: float
    gap: float
    lp_distance: float
    iterations: int
    stop_reason: str | None  # the film descent's; None in recovery mode


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    meta: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"meta": self.meta,
                "rows": [{"eps": r.eps, "e3d": r.e3d, "emem": r.emem,
                          "gap": r.gap, "lp_distance": r.lp_distance,
                          "iterations": r.iterations,
                          "stop_reason": r.stop_reason} for r in self.rows]}

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
    lift itself (its gap is the recovery residual).
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if not eps_schedule:
        raise ValueError("thickness schedule is empty")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("thickness schedule must be strictly decreasing")
    if mode not in ("minimize", "recovery"):
        raise ValueError('mode must be "minimize" or "recovery"')

    mem = minimize_membrane(table, load, mesh, iters=iters, seeds=seeds,
                            seed=seed)
    v_bar = mem.field
    # the requested index is a preference; the minimizer's own geometry
    # sets the feasibility floor, so clamp instead of failing the sweep
    assignment = build_assignment(model, v_bar, None)
    if j is not None and j > assignment.j:
        assignment = build_assignment(model, v_bar, j)
    director = blended_director(v_bar, assignment, blend_n)

    def run(idx_eps):
        idx, eps = idx_eps
        u0, _ = recovery_sequence(model, v_bar, director, eps,
                                  layers=layers)
        competitor = thin_film_total(model, load, u0)
        if mode == "recovery":
            u, total, its, reason = u0, competitor, 0, None
        else:
            res = minimize_thin_film(model, load, eps, start=u0,
                                     iters=iters, seeds=seeds,
                                     seed=seed + 7919 * idx)
            u, total, its = res.field, res.total, res.iterations
            reason = res.stop_reason
            if total > competitor + 1e-9:
                raise RuntimeError(
                    "film minimization ended above its warm-start "
                    "competitor; the descent contract is broken")
        dist = lp_distance(pi_eps_average(u), v_bar, model.p)
        return SweepRow(eps=eps, e3d=total, emem=mem.total,
                        gap=total - mem.total, lp_distance=dist,
                        iterations=its, stop_reason=reason)

    jobs = list(enumerate(eps_schedule))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = tuple(pool.map(run, jobs))
    else:
        rows = tuple(run(job) for job in jobs)
    meta = {"mode": mode, "layers": layers, "j": assignment.j,
            "j_requested": j, "j_v": assignment.j_v, "blend_n": blend_n,
            "seed": seed, "iters": iters, "seeds": seeds,
            "membrane_total": mem.total,
            "membrane_iterations": mem.iterations,
            "membrane_stop_reason": mem.stop_reason}
    return SweepReport(rows=rows, meta=meta)
