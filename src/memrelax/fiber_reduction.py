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
finds it for a batch of (a, q); every caller in the package goes through
it.  A barrier lists its kinks with their one-sided slopes
(``barrier.kinks``), and before the first step each lane tests them: a
lane whose slope jumps over zero at a kink stops there exactly.  The
other lanes run bracketed Newton.  A lane leaves the batch as soon as it
has converged or its bracket has closed, before the next step is chosen,
so the bracket bookkeeping runs only on lanes that go on.  A step on which
every lane has converged ends the solve before any bracket update: for
the reciprocal barrier at p = 2 the start is the root, so there the
solve stops after one slope.  Each lane's t and value are computed on
their own, bit for bit alike whatever lanes share its batch.

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
from .tensor_kernel import ExtValue, INFINITE, as_mat32

__all__ = [
    "WEDGE_FLOOR",
    "ReducedDensity",
    "solve_fiber",
    "w0_closed_form",
    "w0_batch",
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


def _on_kink(model: EnergyModel, a, q, lo):
    """Lanes whose minimizer sits on a kink of the barrier, and its t.

    At t_k = x_k / a the slope jumps from phi(t_k-) to phi(t_k+), which
    differ only in the barrier part a h'(x_k-) or a h'(x_k+). phi
    increases, so a jump over zero, phi(t_k-) < 0 <= phi(t_k+), makes
    t_k the minimizer, if t_k >= lo. The smooth part is that of
    :func:`_slope`, in its arithmetic.
    """
    on = np.zeros(a.size, dtype=bool)
    t = np.empty(a.size)
    for x, left, right in model.barrier.kinks:
        tk = x / a
        s = q + tk * tk
        smooth = model.p * tk * s * s ** (model.p / 2.0 - 2.0)
        hit = ((tk >= lo) & (a * left + smooth < 0.0)
               & (a * right + smooth >= 0.0))
        t[hit] = tk[hit]
        on |= hit
    return on, t


def solve_fiber(model: EnergyModel, a, q, t_min=None):
    """Minimize h(t a) + (q + t^2)^{p/2} over t > 0, lanewise.

    a and q are 1D arrays of one shape, a finite and > 0, q finite and
    >= 0; t_min, finite and >= 0, a scalar or an array of the same
    length, restricts the search to t >= t_min. Anything else raises
    ValueError before the first step. A lane whose bound pins it
    (phi(t_min) >= 0) stops at t_min. Then each lane tests the barrier's
    kinks x_k (``barrier.kinks``) with t_k = x_k / a >= t_min: if
    phi(t_k-) < 0 <= phi(t_k+), the minimizer is t_k and the lane stops
    there exactly, before the first step; a barrier without kinks skips
    the test. Each other lane runs Newton on phi(t) = 0 inside a bracket
    [lo, hi] around the root, and falls back to a geometric bisection
    whenever the Newton step would leave the bracket or be longer than
    the lane's previous move. A lane stops when its step or its bracket
    is at most 1e-13 t; the bracket test ends a lane whose minimizer sits
    at a kink the barrier does not list. Stopped lanes leave before the
    Newton/bisection choice, so only lanes that go on carry a bracket,
    and a step on which every lane converges ends the solve before the
    bracket update. The start is the root for p = 2 and h(x) = x^-r, r
    the barrier's blow-up order, so for the reciprocal barrier at p = 2
    every lane stops after one slope.

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
    if model.barrier.kinks:
        on, t_kink = _on_kink(model, al, ql, lol)
        t[live[on]] = t_kink[on]
        keep = np.flatnonzero(~on)
        live, al, ql, lol = live[keep], al[keep], ql[keep], lol[keep]

    tl = t[live]
    hil = np.full(live.size, np.inf)
    moved = np.full(live.size, np.inf)
    for _ in range(_MAX_ITER):
        if live.size == 0:
            break
        phi, dphi = _slope(model, al, ql, tl)
        step = -phi / dphi
        tol = _REL_TOL * tl
        newton = tl + step
        converged = np.abs(step) <= tol
        if converged.all():
            t[live] = newton
            break
        below = phi < 0.0
        lol = np.where(below, tl, lol)
        hil = np.where(below, hil, tl)
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
    else:
        raise RuntimeError(
            f"fiber solve left {live.size} lane(s) unconverged after "
            f"{_MAX_ITER} iterations")

    return t, model.density(t * a, q + t * t)


def w0_closed_form(model: EnergyModel, xi) -> ExtValue:
    """Reduced density at one surface gradient.

    a and q come from :func:`_fiber_invariants` and the rank test is
    :func:`w0_batch`'s, so the value is bit for bit ``w0_batch`` at xi.
    """
    a, q = _fiber_invariants(as_mat32(xi)[None])[1:]
    if not a[0] > WEDGE_FLOOR:
        return INFINITE
    return ExtValue(float(solve_fiber(model, a, q)[1][0]))


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
    """The reduced density of one model, valued through :meth:`batch`,
    the density protocol of the envelope bounds."""

    model: EnergyModel

    def batch(self, xis: np.ndarray) -> np.ndarray:
        return w0_batch(self.model, xis)


def w0_growth_constant(model: EnergyModel, delta: float) -> float:
    """Constant cbar with w0(xi) <= cbar*(1 + |xi|^p) whenever the wedge
    norm is at least delta.

    Witness: the unit fiber normal gives w0 <= h(a) + (|xi|^2 + 1)^{p/2}
    <= r(delta) + max(1, 2^{p/2-1}) * (1 + |xi|^p).
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    return model.barrier.plateau(delta) + max(1.0, 2.0 ** (model.p / 2.0 - 1.0))
