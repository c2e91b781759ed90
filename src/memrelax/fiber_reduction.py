"""Reduction of the bulk energy to a surface-gradient density.

For W(F) = h(|det F|) + |F|^p the infimum over the third column is a
one-dimensional problem: with c the cross product of the two columns of
xi and a = |c| > 0, the determinant of (xi | zeta) is <c, zeta>, so only
the component of zeta along c/a matters and any tangential part just
inflates the norm.  With q = |xi|^2 the reduced density is

    w0(xi) = min_{t > 0}  h(t a) + (q + t^2)^{p/2},

+inf exactly when a = 0.  The barrier is convex and p > 1, so the
minimizer is the only zero of the increasing slope

    phi(t) = a h'(t a) + p t (q + t^2)^{p/2 - 1},

or sits at a kink of h where phi jumps across zero.  :func:`solve_fiber`
finds it for a batch of (a, q) by safeguarded Newton; every caller in
the package goes through it.  An independent 3D grid oracle over the
third column cross-checks the reduction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy_models import EnergyModel
from .tensor_kernel import ExtValue, INFINITE, append_column, as_mat32, wedge

__all__ = [
    "WEDGE_FLOOR",
    "ReducedDensity",
    "solve_fiber",
    "w0_closed_form",
    "w0_batch",
    "w0_bruteforce",
    "w0_growth_constant",
]

# below this column cross-product norm a 3x2 gradient counts as rank deficient
WEDGE_FLOOR = 1e-14

# a lane stops once its Newton step or its bracket is this small relative to t
_REL_TOL = 1e-13
_MAX_ITER = 100


def _slope(model: EnergyModel, a, q, t):
    """phi(t) and phi'(t) of the fiber objective, elementwise."""
    x = t * a
    s = q + t * t
    u = s ** (model.p / 2.0 - 2.0)
    phi = a * model.barrier.derivative(x) + model.p * t * s * u
    dphi = (a * a * model.barrier.second_derivative(x)
            + model.p * u * (q + (model.p - 1.0) * t * t))
    return phi, dphi


def solve_fiber(model: EnergyModel, a, q, t_min=None):
    """Minimize h(t a) + (q + t^2)^{p/2} over t > 0, lanewise.

    a > 0 and q are equal-length 1D arrays; t_min, a scalar or an array
    of the same length, restricts the search to t >= t_min.  Each lane
    runs Newton on phi(t) = 0 inside a bracket [lo, hi] around the root,
    and falls back to a geometric bisection whenever the Newton step
    would leave the bracket or be longer than the lane's previous move.
    A lane stops when its step or its bracket is at most 1e-13 t; the
    bracket test ends lanes whose minimizer sits at a kink of the
    barrier, where phi jumps over zero.  The start is the root for p = 2
    and h(x) = x^-r, r the barrier's blow-up order, so for the reciprocal
    barrier at p = 2 the first step already converges.

    Returns (t, value) arrays.  Raises RuntimeError if a lane has not
    converged after _MAX_ITER steps.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    r = model.barrier.blowup_order
    t = (0.5 * r * a ** -r) ** (1.0 / (r + 2.0))
    lo = np.zeros_like(t)
    live = np.arange(t.size)
    if t_min is not None:
        lo = np.broadcast_to(np.asarray(t_min, dtype=float), t.shape)
        # phi increases, so phi(t_min) >= 0 pins the minimizer to the bound
        pinned = _slope(model, a, q, lo)[0] >= 0.0
        t = np.where(pinned, lo, np.maximum(t, lo))
        live = np.flatnonzero(~pinned)

    tl, lol = t[live], lo[live]
    hil = np.full(live.size, np.inf)
    moved = np.full(live.size, np.inf)
    for _ in range(_MAX_ITER):
        if live.size == 0:
            break
        al, ql = a[live], q[live]
        phi, dphi = _slope(model, al, ql, tl)
        step = -phi / dphi
        below = phi < 0.0
        lol = np.where(below, tl, lol)
        hil = np.where(below, hil, tl)
        tol = _REL_TOL * tl
        newton = tl + step
        converged = np.abs(step) <= tol
        done = converged | (hil - lol <= tol)
        t[live] = np.where(converged, newton, tl)

        # Newton must stay in the bracket and not outgrow the last move;
        # the second test stops a slow crawl up the barrier from the left
        fast = ((newton > lol) & (newton < hil)
                & (np.abs(step) <= moved))
        # an open bracket end is approached in factors of 16
        bisect = np.where(lol > 0.0, np.sqrt(lol * hil), hil / 16.0)
        bisect = np.where(np.isinf(hil), 16.0 * lol, bisect)
        nxt = np.where(fast, newton, bisect)
        keep = ~done
        live = live[keep]
        moved = np.abs(nxt - tl)[keep]
        tl = nxt[keep]
        lol, hil = lol[keep], hil[keep]
    if live.size:
        raise RuntimeError(
            f"fiber solve left {live.size} lane(s) unconverged after "
            f"{_MAX_ITER} iterations")

    return t, model.density(t * a, q + t * t)


def w0_closed_form(model: EnergyModel, xi, *, return_witness: bool = False):
    """Reduced density at one surface gradient.

    Returns an ExtValue, or (ExtValue, zeta) with the minimizing third
    column when return_witness is set (zeta is None at +inf).
    """
    xi = as_mat32(xi)
    c = wedge(xi)
    a = float(np.linalg.norm(c))
    if a <= WEDGE_FLOOR:
        return (INFINITE, None) if return_witness else INFINITE
    q = float(np.sum(xi * xi))
    t, val = solve_fiber(model, np.array([a]), np.array([q]))
    value = ExtValue(float(val[0]))
    if not return_witness:
        return value
    return value, float(t[0]) * c / a


def w0_batch(model: EnergyModel, xis: np.ndarray) -> np.ndarray:
    """Reduced density over a stack (N, 3, 2), as floats with +inf."""
    xis = np.asarray(xis, dtype=float).reshape(-1, 3, 2)
    if not np.all(np.isfinite(xis)):
        raise ValueError("mat32 entries must be finite")
    a = np.linalg.norm(wedge(xis), axis=1)
    q = np.sum(xis * xis, axis=(1, 2))
    out = np.full(xis.shape[0], np.inf)
    ok = a > WEDGE_FLOOR
    if np.any(ok):
        _, out[ok] = solve_fiber(model, a[ok], q[ok])
    return out


@dataclass(frozen=True)
class ReducedDensity:
    """Callable wrapper for the reduced density of one model."""

    model: EnergyModel

    def __call__(self, xi) -> ExtValue:
        return w0_closed_form(self.model, xi)

    def batch(self, xis: np.ndarray) -> np.ndarray:
        return w0_batch(self.model, xis)

    def floor(self, xi) -> float:
        """Exact lower bound |xi|^p.

        Holds pointwise because the fiber penalty is nonnegative. It is
        convex, so every rank-one laminate of the reduced density, and
        hence the relaxed density, stays above it too.
        """
        m = as_mat32(xi)
        return float(np.sum(m * m) ** (self.model.p / 2.0))


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

    ``w`` is either an EnergyModel (fast vectorized path) or a callable
    ``(xi, zeta) -> float`` returning +inf on singular arguments.  The
    ball radius comes from coercivity and a fixed probe scan along the
    fiber normal, so it provably contains every minimizer; the grid is
    the restriction of linspace(-R, R, grid_n)^3 to the ball, hence
    nested under grid_n -> 2*(grid_n-1)+1 refinement.
    """
    xi = as_mat32(xi)
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")

    is_model = isinstance(w, EnergyModel)
    if is_model:
        coercivity = w.coercivity
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
            val = (w.w_batch(append_column(xi, t * d))[0] if is_model
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


def w0_growth_constant(model: EnergyModel, delta: float) -> float:
    """Constant cbar with w0(xi) <= cbar*(1 + |xi|^p) whenever the wedge
    norm is at least delta.

    Witness: the unit fiber normal gives w0 <= h(a) + (|xi|^2 + 1)^{p/2}
    <= r(delta) + max(1, 2^{p/2-1}) * (1 + |xi|^p).
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    return model.barrier.plateau(delta) + max(1.0, 2.0 ** (model.p / 2.0 - 1.0))
