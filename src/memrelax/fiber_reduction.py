"""Reduction of the bulk energy to a surface-gradient density.

For W(F) = h(|det F|) + |F|^p the infimum over the third column is a
one-dimensional problem: with c the cross product of the two columns of
xi and a = |c| > 0, the determinant of (xi | zeta) is <c, zeta>, so only
the component of zeta along c/a matters and any tangential part just
inflates the norm.  With q = |xi|^2 the reduced density is

    w0(xi) = min_{t > 0}  h(t a) + (q + t^2)^{p/2},

+inf exactly when a = 0.  The same problem with k equal free stretches,

    min_{t > 0}  h(a t^k) + (q + k t^2)^{p/2},   k = 1, 2, 3,

is W at diag(s1, t, t) for k = 2, (a, q) = (s1, s1^2), and W at t I for
k = 3, (a, q) = (1, 0): the relaxed density reads its constants s* and
m(s1) from these.  With p > 1, t -> (q + k t^2)^{p/2} is convex.  The
barrier h is convex and nonincreasing, so t -> h(a t) is convex; for
k >= 2, t -> h(a t^k) is convex where also x h''(x) >= (1 - 1/k)|h'(x)|,
since its second derivative is k x (k x h''(x) - (k - 1)|h'(x)|) / t^2
at x = a t^k.  Both shipped barriers meet this: x^-r with room to spare, and
max(-log x, 0) + 1/x on each side of its kink, where its slope jumps up.
Then the minimizer is the only zero of the increasing slope

    phi(t) = k a t^(k-1) h'(a t^k) + p k t (q + k t^2)^{p/2 - 1},

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

Batches of gradients are (N, 3, 2) stacks of any memory layout, read by
:func:`~memrelax.tensor_kernel.as_stack`; a and q come from the six entry
rows (:func:`~memrelax.tensor_kernel.column_invariants`), contiguous for
a component-major stack and strided for a C-ordered one.  Neither layout
is copied.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy_models import EnergyModel
from .tensor_kernel import (ExtValue, as_mat32, as_stack,
                            column_invariants, is_integer)

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


def _stretches(a, q, t, k):
    """a t^k and q + k t^2, |det F| and |F|^2 at k free stretches t."""
    return a * t ** k, q + k * t * t


def _slope(model: EnergyModel, a, q, t, k):
    """phi(t) and phi'(t) of the fiber objective over k free stretches,
    elementwise; k (k - 1) a t^(k-2) h' in phi' is the curvature of
    t -> a t^k."""
    x, s = _stretches(a, q, t, k)
    c = k * a * t ** (k - 1)
    p = model.p
    u = s ** (p / 2.0 - 2.0)
    h1 = model.barrier.derivative(x)
    phi = c * h1 + p * k * t * s * u
    dphi = (c * c * model.barrier.second_derivative(x)
            + p * k * u * (q + (p - 1.0) * k * t * t)
            + k * (k - 1) * a * t ** (k - 2) * h1)
    return phi, dphi


def _on_kink(model: EnergyModel, a, q, k):
    """Lanes whose minimizer sits on a kink of the barrier, and its t.

    At t_k = (x_k / a)^(1/k) the slope jumps from phi(t_k-) to phi(t_k+),
    which differ only in the barrier part c h'(x_k-) or c h'(x_k+), c =
    k a t_k^(k-1). phi increases, so a jump over zero, phi(t_k-) < 0 <=
    phi(t_k+), makes t_k the minimizer. The smooth part is that of
    :func:`_slope`, in its arithmetic.
    """
    on = np.zeros(a.size, dtype=bool)
    t = np.empty(a.size)
    p = model.p
    for x, left, right in model.barrier.kinks:
        tk = (x / a) ** (1.0 / k)
        c = k * a * tk ** (k - 1)
        s = _stretches(a, q, tk, k)[1]
        smooth = p * k * tk * s * s ** (p / 2.0 - 2.0)
        hit = (c * left + smooth < 0.0) & (c * right + smooth >= 0.0)
        t[hit] = tk[hit]
        on |= hit
    return on, t


def solve_fiber(model: EnergyModel, a, q, *, k=1):
    """Minimize h(a t^k) + (q + k t^2)^{p/2} over t > 0, lanewise.

    k is the number of equal free stretches t, the integer 1, 2 or 3.
    k = 1 is the fiber problem of W0, the third column t times the unit
    normal; k = 2 at (a, q) = (s1, s1^2) is W at diag(s1, t, t), and
    k = 3 at (1, 0) is W at t I. a and q are 1D arrays of one shape, a
    finite and > 0, q finite and >= 0. Anything else, a bool k included,
    raises ValueError before the first step. Each lane tests the
    barrier's kinks x_k (``barrier.kinks``) at t_k = (x_k / a)^(1/k): if
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
    bracket update. The start (r a^-r / 2)^(1/(r k + 2)), r the barrier's
    blow-up order, is the root for p = 2 and h(x) = x^-r, so for the
    reciprocal barrier at p = 2 every lane stops after one slope,
    whatever k is.

    Returns (t, value) arrays. Raises RuntimeError if a lane has not
    converged after _MAX_ITER steps.
    """
    if not (is_integer(k) and 1 <= k <= 3):
        raise ValueError(f"k must be the integer 1, 2 or 3, got {k!r}")
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
    t = (0.5 * r * a ** -r) ** (1.0 / (r * k + 2.0))
    live = np.arange(t.size)
    if model.barrier.kinks:
        on, t_kink = _on_kink(model, a, q, k)
        t[on] = t_kink[on]
        live = np.flatnonzero(~on)

    al, ql, tl = a[live], q[live], t[live]
    lol = np.zeros(live.size)
    hil = np.full(live.size, np.inf)
    moved = np.full(live.size, np.inf)
    for _ in range(_MAX_ITER):
        if live.size == 0:
            break
        phi, dphi = _slope(model, al, ql, tl, k)
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

    return t, model.density(*_stretches(a, q, t, k))


def w0_closed_form(model: EnergyModel, xi) -> ExtValue:
    """Reduced density at one surface gradient: :func:`w0_batch` on its
    one matrix, so the value is bit for bit ``w0_batch`` at xi."""
    return ExtValue(w0_batch(model, as_mat32(xi)[None])[0])


def w0_batch(model: EnergyModel, xis: np.ndarray) -> np.ndarray:
    """Reduced density over a stack (N, 3, 2), as floats with +inf.

    The stack is read by :func:`~memrelax.tensor_kernel.as_stack`, of any
    memory layout and not copied. Rank-deficient rows (a <= WEDGE_FLOOR)
    are +inf; the rest go to one :func:`solve_fiber` call.
    """
    a, q = column_invariants(as_stack(xis))[1:]
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
