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
finds it for a batch of (a, q) by bracketed Newton; every caller in
the package goes through it.  A lane leaves the batch as soon as it has
converged or its bracket has closed, before the next step is chosen, so
the bracket bookkeeping runs only on lanes that go on.  An independent
3D grid oracle over the third column cross-checks the reduction.

Batches of gradients are (N, 3, 2) stacks of any memory layout.  a and q
are read from the six entry rows of ``xis.reshape(-1, 6).T``: for a
component-major stack, the (N, 3, 2) view of contiguous (3, 2, N)
memory, these rows are contiguous; for a C-ordered stack they are
strided views.  Neither layout is copied.
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


def _fiber_invariants(xis: np.ndarray):
    """Column cross product c, a = |c| and q = |xi|^2 of an (N, 3, 2) stack.

    Reads the six entry rows of ``xis.reshape(-1, 6).T`` in place:
    contiguous for a component-major stack, strided for a C-ordered one
    (reshape copies only a stack it cannot view that way). c comes back
    as (3, N) rows. The products and sums are those of :func:`wedge`,
    ``np.linalg.norm(c, axis=1)`` and ``np.sum(xis * xis, axis=(1, 2))``
    in their order, so all three are bit-identical to those.
    """
    rows = xis.reshape(-1, 6).T
    x0, x1, y0, y1, z0, z1 = rows
    c = np.empty((3, rows.shape[1]))
    np.subtract(y0 * z1, z0 * y1, out=c[0])
    np.subtract(z0 * x1, x0 * z1, out=c[1])
    np.subtract(x0 * y1, y0 * x1, out=c[2])
    sq = np.empty(rows.shape[1])
    a = np.multiply(c[0], c[0])
    for k in (1, 2):
        a += np.multiply(c[k], c[k], out=sq)
    np.sqrt(a, out=a)
    q = np.multiply(x0, x0)
    for r in rows[1:]:
        q += np.multiply(r, r, out=sq)
    return c, a, q


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

    a and q are 1D arrays of one shape, a finite and > 0, q finite and
    >= 0; t_min, finite and >= 0, a scalar or an array of the same
    length, restricts the search to t >= t_min. Anything else raises
    ValueError before the first step. Each lane runs Newton on
    phi(t) = 0 inside a bracket [lo, hi] around the root, and falls back
    to a geometric bisection whenever the Newton step would leave the
    bracket or be longer than the lane's previous move. A lane stops when
    its step or its bracket is at most 1e-13 t; the bracket test ends
    lanes whose minimizer sits at a kink of the barrier, where phi jumps
    over zero. Stopped lanes leave before the Newton/bisection choice, so
    only lanes that go on carry a bracket. The start is the root for
    p = 2 and h(x) = x^-r, r the barrier's blow-up order, so for the
    reciprocal barrier at p = 2 every lane stops after one slope.

    Returns (t, value) arrays. Raises RuntimeError if a lane has not
    converged after _MAX_ITER steps.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    if a.ndim != 1 or a.shape != q.shape:
        raise ValueError(f"a and q must be 1D of one shape, got {a.shape} "
                         f"and {q.shape}")
    if not np.all((a > 0.0) & (a < np.inf)):
        raise ValueError("a must be finite and > 0")
    if not np.all((q >= 0.0) & (q < np.inf)):
        raise ValueError("q must be finite and >= 0")
    r = model.barrier.blowup_order
    t = (0.5 * r * a ** -r) ** (1.0 / (r + 2.0))
    live = np.arange(t.size)
    al, ql, lol = a, q, np.zeros_like(t)
    if t_min is not None:
        t_min = np.asarray(t_min, dtype=float)
        if not np.all((t_min >= 0.0) & (t_min < np.inf)):
            raise ValueError("t_min must be finite and >= 0")
        lo = np.broadcast_to(t_min, t.shape)
        # phi increases, so phi(t_min) >= 0 pins the minimizer to the bound;
        # the barrier blows up at 0, where phi is -inf or nan, never pinned
        with np.errstate(divide="ignore", invalid="ignore"):
            pinned = _slope(model, a, q, lo)[0] >= 0.0
        t = np.where(pinned, lo, np.maximum(t, lo))
        live = np.flatnonzero(~pinned)
        al, ql, lol = a[live], q[live], lo[live]

    tl = t[live]
    hil = np.full(live.size, np.inf)
    moved = np.full(live.size, np.inf)
    for _ in range(_MAX_ITER):
        if live.size == 0:
            break
        phi, dphi = _slope(model, al, ql, tl)
        step = -phi / dphi
        below = phi < 0.0
        lol = np.where(below, tl, lol)
        hil = np.where(below, hil, tl)
        tol = _REL_TOL * tl
        newton = tl + step
        converged = np.abs(step) <= tol
        done = converged | (hil - lol <= tol)
        if done.any():
            t[live] = np.where(converged, newton, tl)
            keep = np.flatnonzero(~done)
            live = live[keep]
            if live.size == 0:
                break
            al, ql, tl, step, newton = (al[keep], ql[keep], tl[keep],
                                        step[keep], newton[keep])
            lol, hil, moved = lol[keep], hil[keep], moved[keep]

        # Newton must stay in the bracket and not outgrow the last move;
        # the second test stops a slow crawl up the barrier from the left
        fast = ((newton > lol) & (newton < hil)
                & (np.abs(step) <= moved))
        # an open bracket end is approached in factors of 16
        bisect = np.where(lol > 0.0, np.sqrt(lol * hil), hil / 16.0)
        bisect = np.where(np.isinf(hil), 16.0 * lol, bisect)
        nxt = np.where(fast, newton, bisect)
        moved = np.abs(nxt - tl)
        tl = nxt
    if live.size:
        raise RuntimeError(
            f"fiber solve left {live.size} lane(s) unconverged after "
            f"{_MAX_ITER} iterations")

    return t, model.density(t * a, q + t * t)


def w0_closed_form(model: EnergyModel, xi, *, return_witness: bool = False):
    """Reduced density at one surface gradient.

    Returns an ExtValue, or (ExtValue, zeta) with the minimizing third
    column when return_witness is set (zeta is None at +inf). c, a and q
    come from :func:`_fiber_invariants` and the rank test is
    :func:`w0_batch`'s, so the value is bit for bit ``w0_batch`` at xi.
    """
    c, a, q = _fiber_invariants(as_mat32(xi)[None])
    if not a[0] > WEDGE_FLOOR:
        return (INFINITE, None) if return_witness else INFINITE
    t, val = solve_fiber(model, a, q)
    value = ExtValue(float(val[0]))
    if not return_witness:
        return value
    return value, t[0] * c[:, 0] / a[0]


def w0_batch(model: EnergyModel, xis: np.ndarray) -> np.ndarray:
    """Reduced density over a stack (N, 3, 2), as floats with +inf.

    Any (N, 3, 2) stack is accepted and none is copied: a component-major
    one, the (N, 3, 2) view of contiguous (3, 2, N) memory, is read in
    contiguous entry rows, a C-ordered one in strided rows. Rank-deficient
    rows (a <= WEDGE_FLOOR) are +inf; the rest go to one
    :func:`solve_fiber` call.
    """
    xis = np.asarray(xis, dtype=float).reshape(-1, 3, 2)
    if not np.all(np.isfinite(xis)):
        raise ValueError("mat32 entries must be finite")
    a, q = _fiber_invariants(xis)[1:]
    ok = a > WEDGE_FLOOR
    if np.all(ok):
        return solve_fiber(model, a, q)[1]
    out = np.full(a.size, np.inf)
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
