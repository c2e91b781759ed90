"""The relaxed membrane density and upper bounds of it.

The relaxed density at a surface gradient is the infimum of mean reduced
energies over compactly supported piecewise-affine perturbations. For
W = h(|det F|) + |F|^p it has a closed form on singular values, the
tension-field density (Pipkin, IMA J. Appl. Math. 36, 1986; Steigmann,
Proc. R. Soc. Lond. A 429, 1990). :class:`RelaxedDensity` values it with
two constants, each a fiber solve over equal free stretches
(:func:`~memrelax.fiber_reduction.solve_fiber` with k = 3 and k = 2): the
isotropic stretch s* that minimizes W(t I), and the width m(s1), the
equal transverse and thickness stretch of W(diag(s1, t, t)) at its
minimum. :func:`build_envelope_table` tabulates it on a grid of singular
values. Each node's laminate of at most two axis splits follows from its
region and the two constants alone, so the table keeps only its model
and replays every node from the model's s* and widths.

The module also keeps the constructions the density is never above:

* :func:`four_corner_bound` evaluates the diamond construction, which is
  finite whenever the column sum and difference are both nonzero;
* :func:`square_refine_bound` averages the four-corner bound over four
  single-column shifts, which makes it finite at every argument,
  rank-deficient ones included;
* :func:`laminate_search` runs a rank-one splitting search of depth at
  most two on two fixed grids of rank-one steps and volume fractions:
  the best single split on the outer grid, then the best split of its
  two ends on the inner grid.

Every density is valued through its ``batch`` method alone, on
(N, 3, 2) stacks, like
:meth:`~memrelax.fiber_reduction.ReducedDensity.batch`.

:class:`EnvelopeTable` interpolates the tabulated density (the reduced
density is invariant under left and right rotations, so two singular
values determine it). :func:`growth_certificate` produces the explicit
polynomial-growth constant attached to the constructions.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .energy_models import EnergyModel, ReciprocalBarrier, ShiftedLogBarrier
from .fiber_reduction import ReducedDensity, solve_fiber, w0_growth_constant
from .tensor_kernel import (ExtValue, as_mat32, cross3, frob_norm,
                            is_integer, singular_frame, wedge)

_COL_TOL = 1e-12


def _unit_orthogonal(v: np.ndarray) -> np.ndarray:
    """A deterministic unit vector orthogonal to a nonzero 3-vector."""
    probe = np.array([1.0, 0.0, 0.0])
    if abs(v[0]) > 0.9 * float(np.linalg.norm(v)):
        probe = np.array([0.0, 1.0, 0.0])
    out = cross3(v, probe)
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


def _corners(xi: np.ndarray) -> np.ndarray:
    """The four diamond corners (col1 -+ nu | col2 +- nu) of one matrix,
    as a (4, 3, 2) stack.

    Each corner has wedge norm at least min{|col1 + col2|, |col1 - col2|};
    arguments with equal columns up to sign are refused because every
    corner could degenerate.
    """
    col1 = xi[:, 0]
    col2 = xi[:, 1]
    delta = min(float(np.linalg.norm(col1 + col2)),
                float(np.linalg.norm(col1 - col2)))
    if delta <= _COL_TOL:
        raise ValueError(
            "four-corner bound refused: columns are equal up to sign")
    nu = _split_direction(xi, allow_zero=False)
    return np.stack([
        np.stack([col1 - nu, col2 + nu], axis=1),
        np.stack([col1 - nu, col2 - nu], axis=1),
        np.stack([col1 + nu, col2 - nu], axis=1),
        np.stack([col1 + nu, col2 + nu], axis=1),
    ])


def four_corner_bound(xi, density) -> ExtValue:
    """Average of the density at the four diamond corners.

    The bound is finite whenever the column sum and difference are both
    nonzero; equal columns up to sign are refused. ``density.batch``
    values the four corners in one call.
    """
    vals = density.batch(_corners(as_mat32(xi)))
    return ExtValue(np.sum(vals) * 0.25)


def square_refine_bound(xi, density) -> ExtValue:
    """Four-corner bound averaged over the four single-column unit shifts.

    Each shift (col1 | col2 +- nu), (col1 -+ nu | col2) has column sum and
    difference of norm at least one, so its four-corner bound is finite
    and the average is finite for every 3x2 argument, rank-deficient ones
    included. ``density.batch`` values the 16 corners in one call; each
    shift's corner average is summed in corner order, then the shifts'.
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
    vals = density.batch(np.concatenate([_corners(z) for z in shifts]))
    shift_means = np.sum(vals.reshape(4, 4), axis=1) * 0.25
    return ExtValue(np.sum(shift_means) * 0.25)


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

    def bound(self, norms):
        """c (1 + |xi|^p), elementwise in the Frobenius norms |xi|."""
        return self.c * (1.0 + norms ** self.p)


def growth_certificate(model: EnergyModel) -> GrowthCertificate:
    p = model.p
    r1 = w0_growth_constant(model, 1.0) * 2.0 ** (2.0 * p + 1.0)
    return GrowthCertificate(c=r1 * 2.0 ** (p + 1.0), p=p)


# ---------------------------------------------------------------------------
# the tension-field density

# node regions, in the order of their codes
_REGIONS = ("slack", "wrinkled", "taut")
_SLACK, _WRINKLED, _TAUT = range(3)


def _region(s1, s2, s_star, m):
    """The region code of singular values s1 >= s2: slack where s1 <= s*,
    wrinkled where s2 <= m, the width m(s1), taut otherwise."""
    return np.where(s1 <= s_star, _SLACK,
                    np.where(s2 <= m, _WRINKLED, _TAUT))


@dataclass(frozen=True)
class RelaxedDensity:
    """The tension-field density of one model, valued through
    :meth:`batch`, the density protocol of the envelope bounds.

    Write g(s1, s2) = W0(diag(s1, s2)). s* is the isotropic stretch, the
    minimizer of t -> W(t I), and W* = W(s* I) = g(s*, s*) = inf W0. m(s1)
    is the width a strip stretched to s1 takes, the minimizer of
    tau -> g(s1, tau): for a fixed product of the transverse stretch tau
    and the thickness stretch t, tau^2 + t^2 is least at tau = t, so m(s1)
    minimizes t -> W(diag(s1, t, t)), the transverse and thickness
    stretches equal, and the fiber optimum of W0 at diag(s1, m) is m
    itself. At singular values s1 >= s2 the density is

    * slack, W*, where s1 <= s*;
    * wrinkled, g(s1, m(s1)), where s1 > s* and s2 <= m(s1);
    * taut, g(s1, s2), otherwise.

    Each value is attained by a laminate of at most two axis splits, so
    the density is an upper bound of the quasiconvex envelope QW0. Where
    its even extension in (s1, s2) is convex, as it is for h = 1/x, p = 2
    (each piece is convex and the pieces join C^1), it is also a lower
    bound, and QW0 is this density of the singular values.
    """

    model: EnergyModel
    s_star: float = dataclasses.field(init=False)
    w_star: float = dataclasses.field(init=False)

    def __post_init__(self):
        """s* and W* = W(s* I): one fiber solve over three equal free
        stretches at (a, q) = (1, 0)."""
        s, w = solve_fiber(self.model, np.ones(1), np.zeros(1), k=3)
        object.__setattr__(self, "s_star", float(s[0]))
        object.__setattr__(self, "w_star", float(w[0]))

    def width(self, s1: np.ndarray):
        """m(s1) and g(s1, m(s1)) = W(diag(s1, m, m)) for each s1 > 0: one
        fiber solve over two equal free stretches at (a, q) = (s1, s1^2)."""
        s1 = np.asarray(s1, dtype=float)
        return solve_fiber(self.model, s1, s1 * s1, k=2)

    def batch(self, xis: np.ndarray) -> np.ndarray:
        """The density over an (N, 3, 2) stack of any memory layout: W*
        where slack, the width solve's value where wrinkled, and one fiber
        solve over the taut lanes."""
        s1, s2 = singular_frame(xis)[0].T
        m = np.full(s1.shape, np.nan)
        out = np.full(s1.shape, self.w_star)
        far = np.flatnonzero(s1 > self.s_star)
        if far.size:
            m[far], out[far] = self.width(s1[far])
        taut = np.flatnonzero(_region(s1, s2, self.s_star, m) == _TAUT)
        if taut.size:
            s, tau = s1[taut], s2[taut]
            out[taut] = solve_fiber(self.model, s * tau, s * s + tau * tau)[1]
        return out


# ---------------------------------------------------------------------------
# lamination search

# The search grids, as (directions, planar angles, magnitudes,
# fractions), and the search's other constants (see laminate_search)
_OUTER = (26, 8, 7, 7)
_INNER = (14, 4, 5, 3)
_TOP_K = 192
_POLISH_ROUNDS = 2


def _sphere_net(n: int) -> np.ndarray:
    """The first n directions of the cube lattice: 6 axes, 8 diagonals and
    12 edge midpoints."""
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
    return np.vstack([axes, corners, np.array(edges)])[:n]


@functools.lru_cache(maxsize=2)
def _split_grid(n_sphere: int, n_angles: int, n_magnitudes: int,
                n_lambda: int):
    """Rank-one steps (K, 3, 2) and volume fractions (K,) of the grid of
    the first ``n_sphere`` cube-lattice directions, ``n_angles`` planar
    angles, ``n_magnitudes`` magnitudes and ``n_lambda`` fractions, each
    step repeated over the fractions. Built once per grid, read-only."""
    dirs = _sphere_net(n_sphere)
    angles = np.pi * np.arange(n_angles) / n_angles
    planar = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    mags = np.geomspace(1e-2, 10.0, n_magnitudes)
    lams = np.linspace(0.0, 1.0, n_lambda + 2)[1:-1]

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


def _values(density, xis: np.ndarray) -> np.ndarray:
    """``density.batch`` at an (N, 3, 2) stack; ValueError on a NaN."""
    vals = density.batch(xis)
    if np.isnan(vals).any():
        raise ValueError("density.batch returned NaN")
    return vals


def _split_scores(density, xis: np.ndarray, grid):
    """Every grid split of each matrix X of an (n, 3, 2) stack.

    Returns the scores lam E(X + (1 - lam) step) + (1 - lam) E(X - lam
    step), (n, K), and the values of the plus and minus ends, (2, n, K),
    E the density. All 2nK ends go in one ``batch`` call.
    """
    steps, lam = grid
    plus = xis[:, None] + (1.0 - lam)[:, None, None] * steps
    minus = xis[:, None] - lam[:, None, None] * steps
    vals = _values(density, np.stack([plus, minus]).reshape(-1, 3, 2))
    vals = vals.reshape(2, len(xis), lam.size)
    return lam * vals[0] + (1.0 - lam) * vals[1], vals


@dataclass(frozen=True)
class LaminateResult:
    """Profile of bound values by depth and the witness of the last
    value."""

    values: tuple[float, ...]
    witness: dict | None


def _polish_pair(density, xi, step, lam0):
    """Local refinement of (magnitude, fraction) for a fixed direction,
    ``_POLISH_ROUNDS`` rounds of a 7 x 7 grid around the best so far.

    Returns (value, step, fraction) of the best split it evaluated.
    """
    s0 = frob_norm(step)
    direction = step / s0
    best = math.inf
    s_center, l_center = s0, lam0
    for _ in range(_POLISH_ROUNDS):
        ss = np.geomspace(s_center / 2.0, s_center * 2.0, 7)
        ll = np.clip(np.linspace(l_center - 0.15, l_center + 0.15, 7),
                     0.02, 0.98)
        S, L = np.meshgrid(ss, ll, indexing="ij")
        S = S.ravel()
        L = L.ravel()
        P = xi[None] + ((1.0 - L) * S)[:, None, None] * direction[None]
        M = xi[None] - (L * S)[:, None, None] * direction[None]
        vals = L * _values(density, P) + (1.0 - L) * _values(density, M)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best = float(vals[k])
            s_center, l_center = float(S[k]), float(L[k])
    return best, s_center * direction, l_center


def _split_record(step, frac, score) -> dict:
    return {"step": step.tolist(), "fraction": float(frac),
            "score": float(score)}


def laminate_search(density, xi, depth: int) -> LaminateResult:
    """Rank-one splitting from a matrix, all depths up to depth (0, 1 or 2).

    The search runs on two fixed grids of rank-one steps d (x) n and
    volume fractions: d from the cube lattice (6 axes, 8 diagonals, 12
    edge midpoints), n from equally spaced planar angles, the step length
    from a log-spaced bracket [1e-2, 10] and the fraction from the open
    unit interval. The outer grid (26 directions, 8 angles, 7 magnitudes,
    7 fractions: 10,192 pairs) splits ``xi``; the inner grid (14, 4, 5, 3:
    840 pairs) splits the ends of the outer grid's 192 best pairs at
    depth 2. Every grid split is valued: the outer grid's 20,384 ends in
    one ``batch`` call, and at depth 2 one call per kept pair, for the
    3,360 ends of both its ends' inner splits.

    ``density`` is read through its ``batch`` method alone, which values
    an (N, 3, 2) stack as floats with +inf and never NaN, like
    :meth:`~memrelax.fiber_reduction.ReducedDensity.batch`; a NaN at any
    point the search values raises ValueError.

    values[0] is the density itself. values[1] is the best single split
    along a rank-one segment, the outer grid's best pair after two rounds
    of polishing its magnitude and fraction, or values[0] when no split
    beats it. values[2] also splits both ends of the 192 best outer pairs
    once on the inner grid. The sequence is nonincreasing by
    construction. Ties go to the lower grid index, in the ranking and in
    every best split.

    The witness is the split that attains the last value, with its
    ``step``, ``fraction`` and ``score``: fraction * E(xi + (1 - fraction)
    * step) + (1 - fraction) * E(xi - fraction * step) replays ``score``.
    At depth 1, and at depth 2 when splitting the ends does not lower
    values[1], E is the density and ``score`` equals values[1] whenever a
    split beats the density. When it does, the witness also holds
    ``plus`` and ``minus``: the split of that end that attains its value,
    itself a witness with E the density, or None where the end's own
    density is lower; ``score`` then equals values[2].
    """
    if not (is_integer(depth) and 0 <= depth <= 2):
        raise ValueError(f"depth must be the integer 0, 1 or 2, got {depth!r}")
    xi = as_mat32(xi)
    base = float(_values(density, xi[None])[0])
    if depth == 0:
        return LaminateResult(values=(base,), witness=None)

    steps, lam = grid = _split_grid(*_OUTER)
    scores, vals = _split_scores(density, xi[None], grid)
    scores, vals = scores[0], vals[:, 0]
    k_best = int(np.argmin(scores))
    split = float(scores[k_best])
    witness = None
    if math.isfinite(split):
        step, frac = steps[k_best], float(lam[k_best])
        polished = _polish_pair(density, xi, step, frac)
        if polished[0] < split:
            split, step, frac = polished
        witness = _split_record(step, frac, split)
    values = [base, min(base, split)]

    if depth == 2:
        order = np.argsort(scores, kind="stable")[:_TOP_K]
        isteps, ilam = inner = _split_grid(*_INNER)
        v2 = values[1]
        for k in order[np.isfinite(scores[order])]:
            # each end's depth-1 value: its own, or its best inner split
            children = np.stack([xi + (1.0 - lam[k]) * steps[k],
                                 xi - lam[k] * steps[k]])
            csc = _split_scores(density, children, inner)[0]
            c_best = np.argmin(csc, axis=1)
            c_split = csc[(0, 1), c_best]
            own = vals[:, k]
            l1 = np.minimum(own, c_split)
            pair = lam[k] * l1[0] + (1.0 - lam[k]) * l1[1]
            if pair < v2:
                v2 = float(pair)
                witness = _split_record(steps[k], lam[k], v2)
                for c, side in enumerate(("plus", "minus")):
                    b = c_best[c]
                    witness[side] = (
                        _split_record(isteps[b], ilam[b], c_split[c])
                        if c_split[c] < own[c] else None)
        values.append(v2)
    return LaminateResult(values=tuple(values), witness=witness)


# ---------------------------------------------------------------------------
# envelope table on the singular-value grid

@dataclass(frozen=True)
class TableEntry:
    """One node of the lower triangle: its singular values s1 >= s2, its
    value and its region (``method``), which fixes its laminate."""

    sigma: tuple[float, float]
    value: float
    method: str


_BARRIERS = {cls.__name__: cls for cls in (ReciprocalBarrier,
                                           ShiftedLogBarrier)}


def _nodes(model: EnergyModel, grid: np.ndarray):
    """The lower-triangle nodes in ``np.tril_indices`` order: indices
    (i, j), region codes and the end e of each node's splits, s* where
    slack, m(s1) where wrinkled, NaN where taut. s* and the widths m(s)
    of the grid values s > s* come from two fiber solves, one lane per
    grid value in the second."""
    density = RelaxedDensity(model)
    far = grid > density.s_star
    m = np.full(grid.size, np.nan)
    m[far] = density.width(grid[far])[0]
    i, j = np.tril_indices(grid.size)
    region = _region(grid[i], grid[j], density.s_star, m[i])
    return i, j, region, np.where(region == _SLACK, density.s_star, m[i])


def _replay(model: EnergyModel, grid: np.ndarray) -> np.ndarray:
    """The value matrix of the nodes' laminates, each node the weighted
    mean of W0 over its leaves, all leaves in one ``batch`` call.

    A slack node diag(s1, s2) splits s1 into +-s*, then both ends split
    s2 into +-s*; a wrinkled node splits s2 into +-m(s1); a taut node is
    its own leaf. Splitting s into +-e gives the plus end s + (1 - lam) 2e,
    of weight lam = (e + s) / (2e), and the minus end s - lam 2e. A node
    sums its leaves plus end first, the s1 split outside the s2 split.
    """
    i, j, region, end = _nodes(model, grid)
    sig = np.stack([grid[i], grid[j]], axis=1)
    w, owner = np.ones(i.size), np.arange(i.size)
    # the inner split first, so that the outer one's ends lead the order
    for axis, split in ((1, region != _TAUT), (0, region == _SLACK)):
        cut = split[owner]
        e = end[owner[cut]]
        lam = (e + sig[cut, axis]) / (2.0 * e)
        plus, minus = sig[cut], sig[cut]
        plus[:, axis] += (1.0 - lam) * (2.0 * e)
        minus[:, axis] -= lam * (2.0 * e)
        sig = np.concatenate([sig[~cut], plus, minus])
        w = np.concatenate([w[~cut], w[cut] * lam, w[cut] * (1.0 - lam)])
        owner = np.concatenate([owner[~cut], owner[cut], owner[cut]])
    xis = np.zeros((len(sig), 3, 2))
    xis[:, (0, 1), (0, 1)] = sig
    node = np.bincount(owner, w * ReducedDensity(model).batch(xis),
                       minlength=i.size)
    out = np.empty((grid.size, grid.size))
    out[i, j] = node
    out[j, i] = node
    return out


class TableLookup(NamedTuple):
    """One read of an :class:`EnvelopeTable` at an (N, 3, 2) stack.

    ``values`` are the bounds. The rest is what :meth:`slopes` reads, so
    that the derivative at the same stack needs no second Gram matrix or
    cell search: the singular values, the Frobenius norms and the
    principal frame of :func:`~memrelax.tensor_kernel.singular_frame`,
    the box mask and, row by row, the lower node indices and
    fractions of the cell and its four corner values (ordered (0, 0),
    (1, 0), (0, 1), (1, 1) in (s1, s2)). A row beyond the box reads the
    cell of its clipped singular values, which neither ``values`` nor
    :meth:`slopes` use.
    """

    table: "EnvelopeTable"
    xis: np.ndarray        # (N, 3, 2)
    values: np.ndarray     # (N,)
    sigma: np.ndarray      # (N, 2), descending
    norms: np.ndarray      # (N,)
    frame: tuple           # (cos, sin) of twice the top angle, each (N,)
    inside: np.ndarray     # (N,) box mask
    cells: tuple           # (i1, i2), each (N,)
    fractions: tuple       # (f1, f2), each (N,)
    corners: tuple         # four (N,) node values

    def slopes(self) -> np.ndarray:
        """Exact derivatives of ``values``, (N, 3, 2).

        Inside the box the isotropic B(s1, s2) has the derivative
        xi (b1 / s1 P + b2 / s2 (I - P)) (Lewis, J. Convex Anal. 2, 1995):
        bk is B's sk-slope on the looked-up cell, b / s is read as 0 where
        s = 0, and P = v1 v1^T = [[1 + C, S], [S, 1 - C]] / 2 projects
        onto the top eigenvector of xi^T xi, (C, S) the kept ``frame``
        ((1, 0) where s1 = s2). Beyond the box the slope is the
        certificate's, c p |xi|^(p - 2) xi. Both are xi (m I + h [[C, S],
        [S, -C]]), m and h the mean and half difference of b1 / s1 and
        b2 / s2 inside the box, and h = 0 beyond it.
        """
        pts, sig, (cos, sin), inside = (self.xis, self.sigma, self.frame,
                                        self.inside)
        (i1, i2), (f1, f2) = self.cells, self.fractions
        v00, v10, v01, v11 = self.corners
        widths, cert = self.table._widths, self.table.certificate
        s1, s2 = sig[:, 0], sig[:, 1]
        b1 = ((v10 - v00) * (1 - f2) + (v11 - v01) * f2) / widths[i1]
        b2 = ((v01 - v00) * (1 - f1) + (v11 - v10) * f1) / widths[i2]
        q1 = np.divide(b1, s1, out=np.zeros_like(b1), where=s1 > 0.0)
        q2 = np.divide(b2, s2, out=np.zeros_like(b2), where=s2 > 0.0)
        grow = np.power(self.norms, cert.p - 2.0,
                        out=np.zeros_like(self.norms), where=~inside)
        m = np.where(inside, 0.5 * (q1 + q2), cert.c * cert.p * grow)
        h = np.where(inside, 0.5 * (q1 - q2), 0.0)
        hc, hs = (h * cos)[:, None], (h * sin)[:, None]
        c1, c2 = pts[:, :, 0], pts[:, :, 1]
        out = np.empty(pts.shape)
        out[:, :, 0] = c1 * (m[:, None] + hc) + c2 * hs
        out[:, :, 1] = c1 * hs + c2 * (m[:, None] - hc)
        return out


class EnvelopeTable:
    """Bilinear interpolant of envelope upper bounds on singular values.

    The underlying density is invariant under left 3D and right 2D
    rotations, so bounds are tabulated at representatives diag(s1, s2) on
    a square grid and queried through the singular values of the argument,
    taken in closed form from the column Gram invariants
    (:func:`~memrelax.tensor_kernel.singular_frame`, no LAPACK call).
    Node values are certified upper bounds; interpolated values carry the
    interpolation error of the grid. Outside the tabulated box the
    certificate bound c (1 + |xi|^p) is returned, which keeps every query
    a true upper bound of the polynomial-growth kind.
    The table takes its model, which fixes the rest: the certificate is
    :func:`growth_certificate` of it, a node value below the coercivity
    floor (s1^2 + s2^2)^(p/2) of its p is refused, and its s* and widths
    m(s) fix every node's laminate, which :meth:`audit` replays. It is
    immutable, its arrays frozen copies.

    :meth:`lookup` is the one read: it finds the box and the cell, forms
    the bilinear interpolant and keeps what the exact derivative
    (:meth:`TableLookup.slopes`) needs, so a caller that needs both at
    one stack keeps the lookup. :meth:`values_at` reads the values of a
    fresh lookup.
    """

    def __init__(self, sigma_grid: np.ndarray, values: np.ndarray,
                 model: EnergyModel):
        grid = np.array(sigma_grid, dtype=float)
        vals = np.array(values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("sigma grid must hold at least two points")
        if not (np.all(np.isfinite(grid)) and grid[0] == 0.0
                and np.all(np.diff(grid) > 0.0)):
            raise ValueError("sigma grid must be finite, start at zero and "
                             "increase")
        if vals.shape != (grid.size, grid.size):
            raise ValueError("value matrix must be square on the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("table values must be finite")
        # a corner lookup on the diagonal reads the upper triangle
        if not np.array_equal(vals, vals.T):
            raise ValueError("value matrix must be symmetric")
        s1, s2 = np.meshgrid(grid, grid, indexing="ij")
        floor = (s1 ** 2 + s2 ** 2) ** (model.p / 2.0)
        if np.any(vals < floor - 1e-9):
            raise ValueError("table value below the coercivity floor")
        for arr in (grid, vals):
            arr.setflags(write=False)
        vars(self).update(sigma_grid=grid, _widths=np.diff(grid), values=vals,
                          certificate=growth_certificate(model), model=model)

    def __setattr__(self, name, value):
        raise AttributeError("EnvelopeTable is immutable")

    @property
    def sigma_max(self) -> float:
        return float(self.sigma_grid[-1])

    def _cells(self, sig: np.ndarray):
        """The box mask of (N, 2) singular values and the lower node
        indices (i1, i2) of their cell and the fractions (f1, f2) in it,
        of the values clipped to the box; a grid line reads the cell above
        it, sigma_max the last."""
        inside = sig[:, 0] <= self.sigma_max + 1e-12
        s = np.minimum(np.maximum(sig, 0.0), self.sigma_max)
        g = self.sigma_grid
        idx = np.minimum(np.maximum(np.searchsorted(g, s, side="right") - 1,
                                    0), g.size - 2)
        return inside, idx.T, ((s - g[idx]) / self._widths[idx]).T

    def lookup(self, xis: np.ndarray) -> TableLookup:
        """Interpolated upper bounds for an (N, 3, 2) stack, with what
        their slopes read.

        The stack is read once, by :func:`singular_frame`, which refuses
        anything but an (N, 3, 2) stack of finite entries.
        """
        sig, norms, cos, sin = singular_frame(xis)
        pts = np.asarray(xis, dtype=float)
        inside, (i1, i2), (f1, f2) = self._cells(sig)
        v, n = self.values.ravel(), self.sigma_grid.size
        node = i1 * n + i2
        corners = (v.take(node), v.take(node + n), v.take(node + 1),
                   v.take(node + (n + 1)))
        v00, v10, v01, v11 = corners
        out = np.where(inside,
                       v00 * (1 - f1) * (1 - f2) + v10 * f1 * (1 - f2)
                       + v01 * (1 - f1) * f2 + v11 * f1 * f2,
                       self.certificate.bound(norms))
        return TableLookup(self, pts, out, sig, norms, (cos, sin), inside,
                           (i1, i2), (f1, f2), corners)

    def values_at(self, xis: np.ndarray) -> np.ndarray:
        """Interpolated upper bounds for an (N, 3, 2) stack."""
        return self.lookup(xis).values

    def audit_growth(self) -> float:
        """Max ratio of node value to the certificate bound (must be <= 1)."""
        s1, s2 = np.meshgrid(self.sigma_grid, self.sigma_grid, indexing="ij")
        bound = self.certificate.bound(np.sqrt(s1 ** 2 + s2 ** 2))
        return float((self.values / bound).max())

    @property
    def entries(self) -> tuple[TableEntry, ...]:
        """The lower-triangle nodes read off the value matrix, in
        ``np.tril_indices`` order, each with the region the model's s* and
        widths give it."""
        grid = self.sigma_grid
        i, j, region, _ = _nodes(self.model, grid)
        return tuple(TableEntry((a, b), v, _REGIONS[r]) for a, b, v, r in
                     zip(grid[i].tolist(), grid[j].tolist(),
                         self.values[i, j].tolist(), region.tolist()))

    def audit(self) -> float:
        """Largest relative gap between a node's value and its laminate
        replayed to W0 leaves (:func:`_replay`), all leaves in one
        ``batch`` call of the reduced density. The laminates are the
        model's own: s* and the widths are solved again, not read."""
        gap = np.abs(_replay(self.model, self.sigma_grid) - self.values)
        # a node of 0 (the coercivity floor admits one at the origin)
        # reads any gap as infinite
        return float(np.max(np.divide(
            gap, np.abs(self.values), where=self.values != 0.0,
            out=np.where(gap == 0.0, 0.0, np.inf))))

    def to_dict(self) -> dict:
        return {
            "sigma_grid": self.sigma_grid.tolist(),
            "values": self.values.tolist(),
            "model": {"barrier": type(self.model.barrier).__name__,
                      "params": dataclasses.asdict(self.model.barrier),
                      "p": self.model.p},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnvelopeTable":
        """The table of :meth:`to_dict`'s record, which must replay its
        nodes (:meth:`audit`) within 1e-12, or ValueError is raised; so is
        a record without a model, which nothing could audit. A barrier the
        module does not ship raises KeyError. Keys of older records
        (``certificate``, ``depth``, ``model_info``, a top-level ``p`` and
        the per-node ``entries`` with their dict laminates) are ignored,
        so those records load and are audited against the model."""
        record = data.get("model")
        if record is None:
            raise ValueError("a table record without a model cannot be "
                             "audited")
        model = EnergyModel(_BARRIERS[record["barrier"]](**record["params"]),
                            record["p"])
        table = cls(data["sigma_grid"], data["values"], model)
        gap = table.audit()
        if not gap <= 1e-12:
            raise ValueError(f"table nodes miss their replayed laminates by "
                             f"{gap!r} relative")
        return table

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, allow_nan=False)

    @classmethod
    def load_json(cls, path) -> "EnvelopeTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def build_envelope_table(model: EnergyModel, *, sigma_max: float = 3.0,
                         pitch: float = 0.25, depth: int = 2,
                         threads: int = 1) -> EnvelopeTable:
    """Tabulate the relaxed density on the singular-value grid.

    Every node diag(s1, s2), s1 >= s2, takes the tension-field density
    (:class:`RelaxedDensity`): one fiber solve for s*, and one
    lane-batched fiber solve for the width m(s) at the grid values
    s > s*, one lane per grid row. A node's region (its entry's
    ``method``) and its laminate follow from s* and m(s1):
    diag(s1, s2) -> diag(+-s*, s2) -> diag(+-s*, +-s*) when slack,
    diag(s1, s2) -> diag(s1, +-m) when wrinkled, none when taut. The node
    value is that laminate's weighted mean of W0 at its leaves
    (:func:`_replay`), all leaves in one ``batch`` call, so every node is
    an upper bound of the relaxation that :meth:`EnvelopeTable.audit`
    replays, even where a fiber solve misses its argmin by round-off.
    Only the lower triangle is computed; the value matrix is completed by
    the swap symmetry of the density.

    ``depth`` (the integer 0, 1 or 2) and ``threads`` are accepted, and
    ``depth`` is checked, as when a laminate search of that depth valued
    each node, optionally on a thread pool. The closed form needs neither
    a search depth nor a pool, so neither changes the table.
    """
    if not (0.0 < sigma_max < math.inf and 0.0 < pitch < math.inf):
        raise ValueError("sigma_max and pitch must be finite and positive")
    n = int(round(sigma_max / pitch))
    if abs(n * pitch - sigma_max) > 1e-12:
        raise ValueError("pitch must divide sigma_max")
    if not (is_integer(depth) and 0 <= depth <= 2):
        raise ValueError(f"depth must be the integer 0, 1 or 2, got {depth!r}")
    grid = np.linspace(0.0, sigma_max, n + 1)
    return EnvelopeTable(grid, _replay(model, grid), model)
