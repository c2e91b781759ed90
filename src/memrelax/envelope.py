"""Upper approximations of the relaxed membrane density.

The relaxed density at a surface gradient is the infimum of mean reduced
energies over compactly supported piecewise-affine perturbations. This
module approaches it from above along independent routes:

* :func:`zw0_upper_from_testfn` averages the reduced density over the
  gradients of an explicit test field;
* :func:`four_corner_bound` evaluates the diamond construction, which is
  finite whenever the column sum and difference are both nonzero;
* :func:`square_refine_bound` averages an inner bound over four
  single-column shifts, and composed with the four-corner bound it is
  finite at every argument, rank-deficient ones included;
* :func:`laminate_search` runs a rank-one splitting search of depth at
  most two: the best single split, then the best split of its two ends.

:func:`build_envelope_table` combines the routes on a grid of singular
values (the reduced density is invariant under left and right rotations,
so two singular values determine it), and :class:`EnvelopeTable`
interpolates the tabulated bounds. :func:`growth_certificate` produces the
explicit polynomial-growth constant attached to the constructions.
"""

from __future__ import annotations

import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .energy_models import EnergyModel
from .fiber_reduction import ReducedDensity, w0_growth_constant
from .pw_affine import PwAffineField, energy_integral
from .tensor_kernel import (ExtValue, as_mat32, frob_norm, singular_values,
                            wedge)

_COL_TOL = 1e-12


def _as_ext(value) -> ExtValue:
    return value if isinstance(value, ExtValue) else ExtValue(float(value))


def _unit_orthogonal(v: np.ndarray) -> np.ndarray:
    """A deterministic unit vector orthogonal to a nonzero 3-vector."""
    probe = np.array([1.0, 0.0, 0.0])
    if abs(v[0]) > 0.9 * float(np.linalg.norm(v)):
        probe = np.array([0.0, 1.0, 0.0])
    out = np.cross(v, probe)
    return out / np.linalg.norm(out)


def _split_direction(xi: np.ndarray, *, allow_zero: bool) -> np.ndarray:
    """Unit direction orthogonal to both columns.

    Normalized column cross product when the columns are independent,
    otherwise a unit vector orthogonal to the nonzero column (which is
    then orthogonal to both, the columns being parallel). The zero matrix
    admits any unit vector; callers that cannot handle it refuse earlier.
    """
    c = wedge(xi)
    norm_c = float(np.linalg.norm(c))
    if norm_c > _COL_TOL:
        return c / norm_c
    col1 = xi[:, 0]
    col2 = xi[:, 1]
    if float(np.linalg.norm(col1)) > _COL_TOL:
        return _unit_orthogonal(col1)
    if float(np.linalg.norm(col2)) > _COL_TOL:
        return _unit_orthogonal(col2)
    if allow_zero:
        return np.array([0.0, 0.0, 1.0])
    raise ValueError("zero matrix has no admissible split direction")


def zw0_upper_from_testfn(xi, phi: PwAffineField, density) -> ExtValue:
    """Mean of density(xi + gradient) over the test field's domain.

    Any compactly supported piecewise-affine perturbation certifies an
    upper bound for the relaxed density; phi must carry the aff0 flag.
    """
    if not phi.aff0:
        raise ValueError("test field must vanish on its domain boundary")
    xi = as_mat32(xi)
    total = energy_integral(phi, density, offset=xi)
    return total * (1.0 / phi.mesh.area())


def four_corner_bound(xi, density) -> ExtValue:
    """Average of the density at the four diamond corners.

    The corners (col1 -+ nu | col2 +- nu) have wedge norm at least
    min{|col1 + col2|, |col1 - col2|}, so the bound is finite whenever
    that minimum is positive; arguments with equal columns up to sign are
    refused because every corner could degenerate.
    """
    xi = as_mat32(xi)
    col1 = xi[:, 0]
    col2 = xi[:, 1]
    delta = min(float(np.linalg.norm(col1 + col2)),
                float(np.linalg.norm(col1 - col2)))
    if delta <= _COL_TOL:
        raise ValueError(
            "four-corner bound refused: columns are equal up to sign")
    nu = _split_direction(xi, allow_zero=False)
    corners = [
        np.stack([col1 - nu, col2 + nu], axis=1),
        np.stack([col1 - nu, col2 - nu], axis=1),
        np.stack([col1 + nu, col2 - nu], axis=1),
        np.stack([col1 + nu, col2 + nu], axis=1),
    ]
    acc = ExtValue(0.0)
    for corner in corners:
        acc = acc + _as_ext(density(corner))
    return acc * 0.25


def square_refine_bound(xi, inner: Callable) -> ExtValue:
    """Average of an inner bound over the four single-column unit shifts.

    Each shift (col1 | col2 +- nu), (col1 -+ nu | col2) has column sum and
    difference of norm at least one, so composing with
    :func:`four_corner_bound` stays finite for every argument.
    """
    xi = as_mat32(xi)
    nu = _split_direction(xi, allow_zero=True)
    col1 = xi[:, 0]
    col2 = xi[:, 1]
    shifts = [
        np.stack([col1, col2 + nu], axis=1),
        np.stack([col1 - nu, col2], axis=1),
        np.stack([col1, col2 - nu], axis=1),
        np.stack([col1 + nu, col2], axis=1),
    ]
    acc = ExtValue(0.0)
    for shift in shifts:
        acc = acc + _as_ext(inner(shift))
    return acc * 0.25


def finite_upper_bound(xi, density) -> ExtValue:
    """Square refinement composed with the four-corner average.

    Finite for every 3x2 argument, including all rank-deficient ones.
    """
    return square_refine_bound(xi, lambda z: four_corner_bound(z, density))


# ---------------------------------------------------------------------------
# polynomial growth certificate

@dataclass(frozen=True)
class GrowthCertificate:
    """Explicit constant c with relaxed density <= c (1 + |xi|^p).

    The chain starts from the plateau-based growth constant at unit wedge
    norm, pays a factor 2^(2p+1) for the four-corner corners and a factor
    2^(p+1) for the single-column shifts.
    """

    c: float
    p: float
    r1: float
    cbar1: float

    def bound(self, xi) -> float:
        return self.c * (1.0 + frob_norm(as_mat32(xi)) ** self.p)


def growth_certificate(model: EnergyModel) -> GrowthCertificate:
    cbar1 = w0_growth_constant(model, 1.0)
    p = model.p
    r1 = cbar1 * 2.0 ** (2.0 * p + 1.0)
    c = r1 * 2.0 ** (p + 1.0)
    return GrowthCertificate(c=c, p=p, r1=r1, cbar1=cbar1)


# ---------------------------------------------------------------------------
# lamination search

@dataclass(frozen=True)
class SearchParams:
    """Grid for the rank-one splitting search.

    Directions for the 3-vector factor come from the cube lattice (6 axes,
    8 diagonals, 12 edge midpoints), planar directions from equally spaced
    angles, split magnitudes from a log-spaced bracket, volume fractions
    from the open unit interval. Depth two re-ranks the scored pairs and
    splits both ends of the best top_k once more on the (smaller) inner
    grid.
    """

    n_sphere: int = 26
    n_angles: int = 8
    n_magnitudes: int = 7
    s_min: float = 1e-2
    s_max: float = 10.0
    n_lambda: int = 7
    top_k: int = 192
    polish_rounds: int = 2
    inner: "SearchParams | None" = None


# three grid tiers: a full grid at the queried point, a reduced grid for
# the ends of its splits, and a small leaf grid for the ends of the
# reduced grid's splits when the reduced grid is searched on its own
LEAF_SEARCH = SearchParams(n_sphere=6, n_angles=2, n_magnitudes=3,
                           n_lambda=3, top_k=8, polish_rounds=0)
INNER_SEARCH = SearchParams(n_sphere=14, n_angles=4, n_magnitudes=5,
                            n_lambda=3, top_k=24, polish_rounds=0,
                            inner=LEAF_SEARCH)
DEFAULT_SEARCH = SearchParams(inner=INNER_SEARCH)


def _sphere_net(n: int) -> np.ndarray:
    axes = np.vstack([np.eye(3), -np.eye(3)])
    corners = np.array([(i, j, k) for i in (-1, 1) for j in (-1, 1)
                        for k in (-1, 1)], dtype=float) / math.sqrt(3.0)
    edges = []
    for a in range(3):
        for b in range(a + 1, 3):
            for sa in (-1.0, 1.0):
                for sb in (-1.0, 1.0):
                    v = np.zeros(3)
                    v[a] = sa
                    v[b] = sb
                    edges.append(v / math.sqrt(2.0))
    if n >= 26:
        return np.vstack([axes, corners, np.array(edges)])
    if n >= 14:
        return np.vstack([axes, corners])
    return axes


@functools.lru_cache(maxsize=16)
def _pair_grid(params: SearchParams):
    """Rank-one steps (K, 3, 2) and volume fractions (K,) for one grid."""
    dirs = _sphere_net(params.n_sphere)
    angles = np.pi * np.arange(params.n_angles) / params.n_angles
    planar = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    mags = np.geomspace(params.s_min, params.s_max, params.n_magnitudes)
    lams = np.linspace(0.0, 1.0, params.n_lambda + 2)[1:-1]

    rank_one = dirs[:, None, :, None] * planar[None, :, None, :]  # (A,B,3,2)
    rank_one = rank_one.reshape(-1, 3, 2)
    steps = (rank_one[:, None, :, :]
             * mags[None, :, None, None]).reshape(-1, 3, 2)
    K = steps.shape[0]
    steps = np.repeat(steps, lams.shape[0], axis=0)
    lam = np.tile(lams, K)
    steps.setflags(write=False)
    lam.setflags(write=False)
    return steps, lam


@dataclass(frozen=True)
class LaminateResult:
    """Profile of bound values by depth plus the best first-split witness."""

    values: tuple[float, ...]
    witness: dict | None


def _polish_pair(density, xi, step, lam0, rounds: int):
    """Local refinement of (magnitude, fraction) for a fixed direction.

    Returns (value, step, fraction) of the best split it evaluated.
    """
    s0 = frob_norm(step)
    direction = step / s0
    best = math.inf
    s_center, l_center = s0, lam0
    for _ in range(rounds):
        ss = np.geomspace(s_center / 2.0, s_center * 2.0, 7)
        ll = np.clip(np.linspace(l_center - 0.15, l_center + 0.15, 7),
                     0.02, 0.98)
        S, L = np.meshgrid(ss, ll, indexing="ij")
        S = S.ravel()
        L = L.ravel()
        P = xi[None] + ((1.0 - L) * S)[:, None, None] * direction[None]
        M = xi[None] - (L * S)[:, None, None] * direction[None]
        vals = L * density.batch(P) + (1.0 - L) * density.batch(M)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best = float(vals[k])
            s_center, l_center = float(S[k]), float(L[k])
    return best, s_center * direction, l_center


def _profile(density, xi: np.ndarray, depth: int,
             params: SearchParams) -> tuple[list[float], dict | None]:
    base = _as_ext(density(xi)).as_float()
    if depth == 0:
        return [base], None

    steps, lam = _pair_grid(params)
    plus = xi[None] + (1.0 - lam)[:, None, None] * steps
    minus = xi[None] - lam[:, None, None] * steps
    vp = density.batch(plus)
    vm = density.batch(minus)
    scores = lam * vp + (1.0 - lam) * vm

    k_best = int(np.argmin(scores))
    split = float(scores[k_best])
    witness = None
    if math.isfinite(split):
        step, frac = steps[k_best], float(lam[k_best])
        if params.polish_rounds > 0:
            polished = _polish_pair(density, xi, step, frac,
                                    params.polish_rounds)
            if polished[0] < split:
                split, step, frac = polished
        witness = {"step": step.tolist(), "fraction": frac, "score": split}
    values = [base, min(base, split)]

    if depth == 2:
        inner = params.inner if params.inner is not None else params
        order = np.argsort(scores, kind="stable")
        kept = [int(k) for k in order[:params.top_k]
                if math.isfinite(float(scores[k]))]
        v2 = values[1]
        if kept:
            # every child needs only its depth-1 value: its own value
            # is in vp/vm, and two batched sweeps over (child, inner
            # pair) give its best split
            pts = np.concatenate([plus[kept], minus[kept]])
            child_l0 = np.concatenate([vp[kept], vm[kept]])
            csteps, clam = _pair_grid(inner)
            cp = (pts[:, None] + (1.0 - clam)[None, :, None, None]
                  * csteps[None])
            cm = pts[:, None] - clam[None, :, None, None] * csteps[None]
            shape = (pts.shape[0], clam.shape[0])
            cvp = density.batch(cp.reshape(-1, 3, 2)).reshape(shape)
            cvm = density.batch(cm.reshape(-1, 3, 2)).reshape(shape)
            csc = (clam[None] * cvp + (1.0 - clam)[None] * cvm).min(axis=1)
            child_l1 = np.minimum(child_l0, csc)
            half, frac = len(kept), lam[kept]
            pairs = frac * child_l1[:half] + (1.0 - frac) * child_l1[half:]
            v2 = min(v2, float(pairs.min()))
        values.append(v2)
    return values, witness


def laminate_search(density, xi, depth: int,
                    params: SearchParams | None = None) -> LaminateResult:
    """Rank-one splitting from a matrix, all depths up to depth (0, 1 or 2).

    ``density`` is called on one matrix and its ``batch`` method on an
    (N, 3, 2) stack, returning floats with +inf, like
    :class:`~memrelax.fiber_reduction.ReducedDensity`.

    values[0] is the density itself. values[1] is the best single split
    along a rank-one segment, the grid's best pair after polishing, or
    values[0] when no split beats it. values[2] also splits both ends of
    the best top_k grid pairs once on the inner grid. The sequence is
    nonincreasing by construction.

    The witness is the best single split (its ``step``, ``fraction`` and
    ``score``): fraction * density(xi + (1 - fraction) * step)
    + (1 - fraction) * density(xi - fraction * step) replays ``score``,
    which equals values[1] whenever a split beats the density.
    """
    if not 0 <= depth <= 2:
        raise ValueError("depth must be 0, 1 or 2")
    xi = as_mat32(xi)
    p = params if params is not None else DEFAULT_SEARCH
    values, witness = _profile(density, xi, depth, p)
    return LaminateResult(values=tuple(values), witness=witness)


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
# envelope table on the singular-value grid

@dataclass(frozen=True)
class TableEntry:
    sigma: tuple[float, float]
    value: float
    method: str
    depth: int
    witness: dict | None = None


class EnvelopeTable:
    """Bilinear interpolant of envelope upper bounds on singular values.

    The underlying density is invariant under left 3D and right 2D
    rotations, so bounds are tabulated at representatives diag(s1, s2) on
    a square grid and queried through the singular values of the argument,
    taken in closed form from the column Gram invariants
    (:func:`~memrelax.tensor_kernel.singular_values`, no LAPACK call).
    Node values are certified upper bounds; interpolated values carry the
    interpolation error of the grid. Outside the tabulated ball the
    certificate bound c (1 + |xi|^p) is returned, which keeps every query
    a true upper bound of the polynomial-growth kind.
    """

    def __init__(self, sigma_grid: np.ndarray, values: np.ndarray,
                 entries: Sequence[TableEntry], p: float,
                 certificate: GrowthCertificate, depth: int,
                 model_info: dict | None = None):
        grid = np.asarray(sigma_grid, dtype=float)
        vals = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("sigma grid must hold at least two points")
        if np.any(np.diff(grid) <= 0.0) or grid[0] != 0.0:
            raise ValueError("sigma grid must start at zero and increase")
        if vals.shape != (grid.size, grid.size):
            raise ValueError("value matrix must be square on the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("table values must be finite")
        if not np.allclose(vals, vals.T, atol=1e-9):
            raise ValueError("value matrix must be symmetric")
        s1, s2 = np.meshgrid(grid, grid, indexing="ij")
        floor = (s1 ** 2 + s2 ** 2) ** (p / 2.0)
        if np.any(vals < floor - 1e-9):
            raise ValueError("table value below the coercivity floor")
        self.sigma_grid = grid
        self.values = vals
        self.entries = tuple(entries)
        self.p = float(p)
        self.certificate = certificate
        self.depth = int(depth)
        self.model_info = dict(model_info or {})

    @property
    def sigma_max(self) -> float:
        return float(self.sigma_grid[-1])

    def values_at(self, xis: np.ndarray) -> np.ndarray:
        """Interpolated upper bounds for an (N, 3, 2) stack.

        Raises ValueError on NaN or infinite entries.
        """
        pts = np.asarray(xis, dtype=float).reshape(-1, 3, 2)
        sig = singular_values(pts)
        out = np.empty(pts.shape[0])
        inside = sig[:, 0] <= self.sigma_max + 1e-12
        if np.any(~inside):
            norms = np.sqrt((sig[~inside] ** 2).sum(axis=1))
            out[~inside] = self.certificate.c * (1.0 + norms ** self.p)
        if np.any(inside):
            s = np.clip(sig[inside], 0.0, self.sigma_max)
            g = self.sigma_grid
            idx = np.clip(np.searchsorted(g, s, side="right") - 1,
                          0, g.size - 2)
            f = (s - g[idx]) / (g[idx + 1] - g[idx])
            i1, i2 = idx[:, 0], idx[:, 1]
            f1, f2 = f[:, 0], f[:, 1]
            v = (self.values[i1, i2] * (1 - f1) * (1 - f2)
                 + self.values[i1 + 1, i2] * f1 * (1 - f2)
                 + self.values[i1, i2 + 1] * (1 - f1) * f2
                 + self.values[i1 + 1, i2 + 1] * f1 * f2)
            out[inside] = v
        return out

    def value_at(self, xi) -> float:
        return float(self.values_at(as_mat32(xi)[None])[0])

    def audit_growth(self) -> float:
        """Max ratio of node value to the certificate bound (must be <= 1)."""
        s1, s2 = np.meshgrid(self.sigma_grid, self.sigma_grid, indexing="ij")
        norms = np.sqrt(s1 ** 2 + s2 ** 2)
        bound = self.certificate.c * (1.0 + norms ** self.p)
        return float((self.values / bound).max())

    def to_dict(self) -> dict:
        return {
            "sigma_grid": self.sigma_grid.tolist(),
            "values": self.values.tolist(),
            "p": self.p,
            "depth": self.depth,
            "certificate": {"c": self.certificate.c, "p": self.certificate.p,
                            "r1": self.certificate.r1,
                            "cbar1": self.certificate.cbar1},
            "model_info": self.model_info,
            "entries": [{"sigma": list(e.sigma), "value": e.value,
                         "method": e.method, "depth": e.depth,
                         "witness": e.witness} for e in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnvelopeTable":
        cert = GrowthCertificate(**data["certificate"])
        entries = [TableEntry(sigma=tuple(e["sigma"]), value=e["value"],
                              method=e["method"], depth=e["depth"],
                              witness=e.get("witness"))
                   for e in data["entries"]]
        return cls(np.array(data["sigma_grid"]), np.array(data["values"]),
                   entries, data["p"], cert, data["depth"],
                   data.get("model_info"))

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load_json(cls, path) -> "EnvelopeTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def export_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sigma1,sigma2,value,method,depth\n")
            for e in self.entries:
                fh.write(f"{e.sigma[0]:.17g},{e.sigma[1]:.17g},"
                         f"{e.value:.17g},{e.method},{e.depth}\n")

    def slice_along(self, start, stop, n: int = 101) -> np.ndarray:
        """Values along the matrix segment from start to stop, (n, 3) rows
        (parameter, |xi|, value)."""
        a = as_mat32(start)
        b = as_mat32(stop)
        ts = np.linspace(0.0, 1.0, n)
        pts = a[None] + ts[:, None, None] * (b - a)[None]
        vals = self.values_at(pts)
        norms = np.array([frob_norm(p) for p in pts])
        return np.column_stack([ts, norms, vals])


def _representative(s1: float, s2: float) -> np.ndarray:
    return np.array([[s1, 0.0], [0.0, s2], [0.0, 0.0]])


def _node_bound(density, s1: float, s2: float, depth: int,
                params: SearchParams) -> TableEntry:
    xi = _representative(s1, s2)
    lam = laminate_search(density, xi, depth, params)
    candidates: list[tuple[float, str, dict | None]] = [
        (lam.values[0], "density", None)]

    col1 = xi[:, 0]
    col2 = xi[:, 1]
    split = min(float(np.linalg.norm(col1 + col2)),
                float(np.linalg.norm(col1 - col2)))
    if split > 1e-9:
        fc = four_corner_bound(xi, density)
        candidates.append((fc.as_float(), "four-corner", None))
    sq = finite_upper_bound(xi, density)
    candidates.append((sq.as_float(), "square-refine", None))
    candidates.append((lam.values[-1], f"laminate-{depth}", lam.witness))

    value, method, witness = min(candidates, key=lambda c: c[0])
    return TableEntry(sigma=(s1, s2), value=value, method=method,
                      depth=depth, witness=witness)


def build_envelope_table(model: EnergyModel, *, sigma_max: float = 3.0,
                         pitch: float = 0.25, depth: int = 2,
                         params: SearchParams | None = None,
                         threads: int = 1) -> EnvelopeTable:
    """Tabulate the best available upper bound on the singular-value grid.

    Only the lower triangle s1 >= s2 is computed; the value matrix is
    completed by the swap symmetry of the density. Per-node work is
    independent, so it parallelizes over a thread pool when asked.
    """
    if sigma_max <= 0.0 or pitch <= 0.0:
        raise ValueError("sigma_max and pitch must be positive")
    n = int(round(sigma_max / pitch))
    if abs(n * pitch - sigma_max) > 1e-12:
        raise ValueError("pitch must divide sigma_max")
    grid = np.linspace(0.0, sigma_max, n + 1)
    search = params if params is not None else DEFAULT_SEARCH
    density = ReducedDensity(model)

    nodes = [(i, j) for i in range(grid.size) for j in range(i + 1)]

    def work(node):
        i, j = node
        return node, _node_bound(density, float(grid[i]), float(grid[j]),
                                 depth, search)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, nodes))
    else:
        results = [work(node) for node in nodes]

    values = np.empty((grid.size, grid.size))
    entries = []
    for (i, j), entry in results:
        values[i, j] = entry.value
        values[j, i] = entry.value
        entries.append(entry)
    cert = growth_certificate(model)
    info = {"barrier": type(model.barrier).__name__, "p": model.p,
            "coercivity": model.coercivity}
    return EnvelopeTable(grid, values, entries, model.p, cert, depth,
                         model_info=info)
