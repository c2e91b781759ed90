"""Upper approximations of the relaxed membrane density.

The relaxed density at a surface gradient is the infimum of mean reduced
energies over compactly supported piecewise-affine perturbations. This
module approaches it from above along independent routes:

* :func:`four_corner_bound` evaluates the diamond construction, which is
  finite whenever the column sum and difference are both nonzero;
* :func:`square_refine_bound` averages the four-corner bound over four
  single-column shifts, which makes it finite at every argument,
  rank-deficient ones included;
* :func:`laminate_search` runs a rank-one splitting search of depth at
  most two on two fixed grids of rank-one steps and volume fractions:
  the best single split on the outer grid, then the best split of its
  two ends on the inner grid.

Every route values the density through its ``batch`` method alone, on
(N, 3, 2) stacks, like
:meth:`~memrelax.fiber_reduction.ReducedDensity.batch`.

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
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .energy_models import EnergyModel
from .fiber_reduction import ReducedDensity, w0_growth_constant
from .tensor_kernel import (ExtValue, as_mat32, frob_norm, singular_values,
                            wedge)

_COL_TOL = 1e-12


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
    r1: float
    cbar1: float

    def bound(self, norms):
        """c (1 + |xi|^p), elementwise in the Frobenius norms |xi|."""
        return self.c * (1.0 + norms ** self.p)


def growth_certificate(model: EnergyModel) -> GrowthCertificate:
    cbar1 = w0_growth_constant(model, 1.0)
    p = model.p
    r1 = cbar1 * 2.0 ** (2.0 * p + 1.0)
    c = r1 * 2.0 ** (p + 1.0)
    return GrowthCertificate(c=c, p=p, r1=r1, cbar1=cbar1)


# ---------------------------------------------------------------------------
# lamination search

# The search grids, as (directions, planar angles, magnitudes,
# fractions), and the search's other constants (see laminate_search)
_OUTER = (26, 8, 7, 7)
_INNER = (14, 4, 5, 3)
_TOP_K = 192
_POLISH_ROUNDS = 2
# kept ends (children) per pair of density calls in the depth-2 inner
# sweep, chosen by measurement: 20 x 420 lanes stay in cache, blocks of
# 4 pay per-call overhead and one block of all ~200 streams from memory
_CHILD_BLOCK = 20


def _sphere_net(n: int) -> np.ndarray:
    """The first n directions of the cube lattice: 6 axes, 8 diagonals and
    12 edge midpoints. The first 14 and all 26 are closed under
    negation."""
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


class _PairGrid(NamedTuple):
    steps: np.ndarray    # (K, 3, 2) rank-one steps
    lam: np.ndarray      # (K,) volume fractions
    rep: np.ndarray      # (K / 2,) pairs evaluated: one per mirror pair
    ends: np.ndarray     # (K, 2) ids of each pair's (plus, minus) end


def _mirror_index(steps: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Index k of each pair's mirror (-steps, 1 - lam), -1 if none.

    Matched by exact equality: steps[k] == -steps[j] entrywise (signed
    zeros equal), 1 - lam[j] == lam[k] and 1 - lam[k] == lam[j]. Then
    the mirror's ends xi + (1 - lam[k]) steps[k] and xi - lam[k] steps[k]
    are bit for bit the pair's ends xi - lam[j] steps[j] and
    xi + (1 - lam[j]) steps[j], and its score is bit for bit the pair's.
    """
    def rows(step, frac):
        # one byte string per pair; adding 0.0 turns -0.0 into 0.0, so
        # equal zeros give equal bytes
        flat = np.column_stack([step.reshape(-1, 6) + 0.0, frac])
        return flat.view(np.dtype((np.void, flat.itemsize * 7))).ravel()

    keys = rows(steps, lam)
    want = rows(-steps, 1.0 - lam)
    order = np.argsort(keys)
    k = order[np.minimum(np.searchsorted(keys[order], want), lam.size - 1)]
    return np.where((keys[k] == want) & (1.0 - lam[k] == lam), k, -1)


def _least(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k least of NaN-free scores, ties in index order:
    ``np.argsort(scores, kind="stable")[:k]``, without the full sort.

    The k-th least value v comes from one partition; the candidates are
    every index below v and the first indices equal to v, and only they
    are sorted.
    """
    if scores.size <= k:
        return np.argsort(scores, kind="stable")
    v = np.partition(scores, k - 1)[k - 1]
    below = np.flatnonzero(scores < v)
    tied = np.flatnonzero(scores == v)[:k - below.size]
    picked = np.concatenate([below, tied])
    return picked[np.argsort(scores[picked], kind="stable")]


@functools.lru_cache(maxsize=2)
def _pair_grid(n_sphere: int, n_angles: int, n_magnitudes: int,
               n_lambda: int) -> _PairGrid:
    """Rank-one steps, volume fractions and the mirror map of the grid of
    the first ``n_sphere`` cube-lattice directions, ``n_angles`` planar
    angles, ``n_magnitudes`` magnitudes and ``n_lambda`` fractions.

    Built once per grid. Every pair's mirror (-step, 1 - lam) must be on
    the grid exactly (:func:`_mirror_index`), so that the two share their
    end points bit for bit and the search evaluates one of them; a grid
    with a pair that has no exact mirror raises ValueError, as fractions
    1/6, 1/3, 2/3, 5/6 do (1 - lam is not a grid fraction in floating
    point). ``rep`` lists the pairs the search evaluates, the lower index
    of each mirror pair. Numbering their plus ends first, 0..R-1, then
    their minus ends, R..2R-1, ``ends[j]`` gives the ids of pair j's plus
    end xi + (1 - lam) step and minus end xi - lam step; a mirror takes
    its representative's ids swapped.
    """
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

    mirror = _mirror_index(steps, lam)
    unmatched = np.count_nonzero(mirror < 0)
    if unmatched:
        raise ValueError(f"{unmatched} of {lam.size} grid pairs have no "
                         f"exact mirror (-step, 1 - fraction)")
    rep = np.flatnonzero(np.arange(lam.size) < mirror)
    slot = np.arange(rep.size)
    ends = np.empty((lam.size, 2), dtype=int)
    ends[rep] = np.stack([slot, rep.size + slot], axis=1)
    ends[mirror[rep]] = np.stack([rep.size + slot, slot], axis=1)
    grid = _PairGrid(steps, lam, rep, ends)
    for arr in grid:
        arr.setflags(write=False)
    return grid


@dataclass(frozen=True)
class LaminateResult:
    """Profile of bound values by depth and the witness of the last
    value."""

    values: tuple[float, ...]
    witness: dict | None


class _Counted:
    """Density proxy that counts the points it evaluates."""

    def __init__(self, density):
        self.density = density
        self.points = 0

    def batch(self, xis):
        self.points += len(xis)
        return self.density.batch(xis)


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
        vals = L * density.batch(P) + (1.0 - L) * density.batch(M)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best = float(vals[k])
            s_center, l_center = float(S[k]), float(L[k])
    return best, s_center * direction, l_center


def _split_record(step, frac, score) -> dict:
    return {"step": step.tolist(), "fraction": float(frac),
            "score": float(score)}


def _component_major(xis: np.ndarray) -> np.ndarray:
    """An (N, 3, 2) stack as contiguous (3, 2, N) component rows."""
    return np.ascontiguousarray(xis.transpose(1, 2, 0))


def _stack_view(rows: np.ndarray) -> np.ndarray:
    """The (N, 3, 2) view of contiguous (3, 2, ...) component rows."""
    return rows.reshape(3, 2, -1).transpose(2, 0, 1)


def laminate_search(density, xi, depth: int) -> LaminateResult:
    """Rank-one splitting from a matrix, all depths up to depth (0, 1 or 2).

    The search runs on two fixed grids of rank-one steps d (x) n and
    volume fractions: d from the cube lattice (6 axes, 8 diagonals, 12
    edge midpoints), n from equally spaced planar angles, the step length
    from a log-spaced bracket [1e-2, 10] and the fraction from the open
    unit interval. The outer grid (26 directions, 8 angles, 7 magnitudes,
    7 fractions) splits ``xi``; the inner grid (14, 4, 5, 3) splits the
    ends of the outer grid's 192 best pairs at depth 2.

    ``density`` is read through its ``batch`` method alone, which values
    an (N, 3, 2) stack as floats with +inf, like
    :meth:`~memrelax.fiber_reduction.ReducedDensity.batch`. ``batch`` must
    evaluate each matrix on its own, independently of the rest of the
    stack: every grid pair has a mirror (-step, 1 - fraction) on the
    grid, matched exactly (:func:`_pair_grid`), that shares its end
    points. The search evaluates one pair of each mirror pair and reads
    the other's end values swapped, so the scores, the ranking, the best
    pair and the polish are those of the full grid, and at depth 2 the
    best split of a kept end on the inner grid's representatives is the
    full inner grid's. ``batch`` must also take any memory layout: the
    search builds the grid ends component-major, as contiguous
    (3, 2, ...) arrays, and passes their (N, 3, 2) views, which
    :func:`~memrelax.fiber_reduction.w0_batch` reads without a copy.

    At depth 2 the inner splits are built and valued in blocks of 20 kept
    ends (children), two ``batch`` calls per block, one for the plus and
    one for the minus ends of its 420 inner representatives. That keeps
    each call's working set in cache and the search's peak memory
    independent of the number of children. As ``batch`` values each
    matrix on its own, the values, the witness and the number of points
    valued do not depend on the block size.

    values[0] is the density itself. values[1] is the best single split
    along a rank-one segment, the outer grid's best pair after two rounds
    of polishing its magnitude and fraction, or values[0] when no split
    beats it. values[2] also splits both ends of the 192 best outer pairs
    once on the inner grid. The sequence is nonincreasing by
    construction.

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
    if not (isinstance(depth, numbers.Integral) and 0 <= depth <= 2):
        raise ValueError(f"depth must be the integer 0, 1 or 2, got {depth!r}")
    xi = as_mat32(xi)
    base = float(density.batch(xi[None])[0])
    if depth == 0:
        return LaminateResult(values=(base,), witness=None)

    grid = _pair_grid(*_OUTER)
    steps, lam = grid.steps, grid.lam
    rsteps, rlam = _component_major(steps[grid.rep]), lam[grid.rep]
    # ends of the representatives, (3, 2, 2R): plus ends, then minus ends
    pts = np.concatenate([xi[:, :, None] + (1.0 - rlam) * rsteps,
                          xi[:, :, None] - rlam * rsteps], axis=2)
    vals = density.batch(_stack_view(pts))
    vp, vm = vals[grid.ends[:, 0]], vals[grid.ends[:, 1]]
    scores = lam * vp + (1.0 - lam) * vm

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
        order = _least(scores, _TOP_K)
        kept = order[np.isfinite(scores[order])]
        v2 = values[1]
        if kept.size:
            # every child needs only its depth-1 value: its own value is
            # in vals, and two batched sweeps over (distinct child, inner
            # representative) give its best split
            ids, child_of = np.unique(grid.ends[kept].ravel(),
                                      return_inverse=True)
            inner = _pair_grid(*_INNER)
            isteps, ilam = inner.steps[inner.rep], inner.lam[inner.rep]
            cstep = _component_major(isteps)[:, :, None, :]
            up, down = (1.0 - ilam) * cstep, ilam * cstep
            csc = np.empty((ids.size, ilam.size))
            for lo in range(0, ids.size, _CHILD_BLOCK):
                # (3, 2, child, pair) ends of one block's inner splits
                child = pts.take(ids[lo:lo + _CHILD_BLOCK], axis=2)[..., None]
                cvp = density.batch(_stack_view(child + up))
                cvm = density.batch(_stack_view(child - down))
                csc[lo:lo + child.shape[2]] = (
                    ilam * cvp.reshape(-1, ilam.size)
                    + (1.0 - ilam) * cvm.reshape(-1, ilam.size))
            c_best = np.argmin(csc, axis=1)
            c_split = csc[np.arange(ids.size), c_best]
            child_l1 = np.minimum(vals[ids], c_split)[child_of]
            child_l1 = child_l1.reshape(kept.size, 2)
            frac = lam[kept]
            pairs = frac * child_l1[:, 0] + (1.0 - frac) * child_l1[:, 1]
            i = int(np.argmin(pairs))
            if pairs[i] < v2:
                v2 = float(pairs[i])
                k = int(kept[i])
                witness = _split_record(steps[k], lam[k], v2)
                for side, c in zip(("plus", "minus"),
                                   child_of[2 * i:2 * i + 2]):
                    b = int(c_best[c])
                    witness[side] = (
                        _split_record(isteps[b], ilam[b], c_split[c])
                        if c_split[c] < vals[ids[c]] else None)
        values.append(v2)
    return LaminateResult(values=tuple(values), witness=witness)




# ---------------------------------------------------------------------------
# envelope table on the singular-value grid

@dataclass(frozen=True)
class TableEntry:
    """One node: its bound, the route that gave it, that route's witness
    and the density points all the node's bounds evaluated (None when
    read from a table saved without the count)."""

    sigma: tuple[float, float]
    value: float
    method: str
    depth: int
    witness: dict | None = None
    evaluations: int | None = None


class TableLookup(NamedTuple):
    """One read of an :class:`EnvelopeTable` at an (N, 3, 2) stack.

    ``values`` are the bounds. The rest is what :meth:`slopes` reads, so
    that the derivative at the same stack needs no second singular value
    computation or cell search: the singular values, their Frobenius
    norms, the box mask and, row by row, the lower node indices and
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
    inside: np.ndarray     # (N,) box mask
    cells: tuple           # (i1, i2), each (N,)
    fractions: tuple       # (f1, f2), each (N,)
    corners: tuple         # four (N,) node values

    def slopes(self) -> np.ndarray:
        """Exact derivatives of ``values``, (N, 3, 2).

        Inside the box the isotropic B(s1, s2) has the derivative
        xi (b1 / s1 P + b2 / s2 (I - P)) (Lewis, J. Convex Anal. 2, 1995):
        bk is B's sk-slope on the looked-up cell, b / s is read as 0 where
        s = 0, and P = v1 v1^T projects onto the top eigenvector of
        xi^T xi. From the Gram invariants a = |c1|^2, d = |c2|^2,
        b = c1.c2 of xi / s1 (scale-free), P = [[1 + C, S], [S, 1 - C]] / 2
        with (C, S) = (a - d, 2b) / hypot(a - d, 2b), and (1, 0) where
        that vanishes (s1 = s2). Beyond the box the slope is the
        certificate's, c p |xi|^(p - 2) xi. Both are xi (m I + h [[C, S],
        [S, -C]]), m and h the mean and half difference of b1 / s1 and
        b2 / s2 inside the box, and h = 0 beyond it.
        """
        pts, sig, inside = self.xis, self.sigma, self.inside
        (i1, i2), (f1, f2) = self.cells, self.fractions
        v00, v10, v01, v11 = self.corners
        widths, cert = self.table._widths, self.table.certificate
        s1, s2 = sig[:, 0], sig[:, 1]
        b1 = ((v10 - v00) * (1 - f2) + (v11 - v01) * f2) / widths[i1]
        b2 = ((v01 - v00) * (1 - f1) + (v11 - v10) * f1) / widths[i2]
        q1 = np.divide(b1, s1, out=np.zeros_like(b1), where=s1 > 0.0)
        q2 = np.divide(b2, s2, out=np.zeros_like(b2), where=s2 > 0.0)
        unit = pts / np.maximum(s1, np.finfo(float).tiny)[:, None, None]
        u1, u2 = unit[:, :, 0], unit[:, :, 1]
        diff = (np.einsum("ki,ki->k", u1, u1)
                - np.einsum("ki,ki->k", u2, u2))
        off = 2.0 * np.einsum("ki,ki->k", u1, u2)
        r = np.hypot(diff, off)
        cos = np.divide(diff, r, out=np.ones_like(r), where=r > 0.0)
        sin = np.divide(off, r, out=np.zeros_like(r), where=r > 0.0)
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
    (:func:`~memrelax.tensor_kernel.singular_values`, no LAPACK call).
    Node values are certified upper bounds; interpolated values carry the
    interpolation error of the grid. Outside the tabulated box the
    certificate bound c (1 + |xi|^p) is returned, which keeps every query
    a true upper bound of the polynomial-growth kind.

    :meth:`lookup` is the one read: it finds the box and the cell, forms
    the bilinear interpolant and keeps what the exact derivative
    (:meth:`TableLookup.slopes`) needs, so a caller that needs both at
    one stack keeps the lookup. :meth:`values_at` reads the values of a
    fresh lookup.
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
        self._widths = np.diff(grid)
        self.values = vals
        self.entries = tuple(entries)
        self.p = float(p)
        self.certificate = certificate
        self.depth = int(depth)
        self.model_info = dict(model_info or {})

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

        Raises ValueError on NaN or infinite entries.
        """
        pts = np.asarray(xis, dtype=float).reshape(-1, 3, 2)
        sig = singular_values(pts)
        inside, (i1, i2), (f1, f2) = self._cells(sig)
        v, n = self.values.ravel(), self.sigma_grid.size
        node = i1 * n + i2
        corners = (v.take(node), v.take(node + n), v.take(node + 1),
                   v.take(node + (n + 1)))
        v00, v10, v01, v11 = corners
        norms = np.hypot(sig[:, 0], sig[:, 1])
        out = np.where(inside,
                       v00 * (1 - f1) * (1 - f2) + v10 * f1 * (1 - f2)
                       + v01 * (1 - f1) * f2 + v11 * f1 * f2,
                       self.certificate.bound(norms))
        return TableLookup(self, pts, out, sig, norms, inside, (i1, i2),
                           (f1, f2), corners)

    def values_at(self, xis: np.ndarray) -> np.ndarray:
        """Interpolated upper bounds for an (N, 3, 2) stack."""
        return self.lookup(xis).values

    def audit_growth(self) -> float:
        """Max ratio of node value to the certificate bound (must be <= 1)."""
        s1, s2 = np.meshgrid(self.sigma_grid, self.sigma_grid, indexing="ij")
        bound = self.certificate.bound(np.sqrt(s1 ** 2 + s2 ** 2))
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
                         "witness": e.witness,
                         "evaluations": e.evaluations}
                        for e in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnvelopeTable":
        cert = GrowthCertificate(**data["certificate"])
        entries = [TableEntry(sigma=tuple(e["sigma"]), value=e["value"],
                              method=e["method"], depth=e["depth"],
                              witness=e.get("witness"),
                              evaluations=e.get("evaluations"))
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


def _representative(s1: float, s2: float) -> np.ndarray:
    return np.array([[s1, 0.0], [0.0, s2], [0.0, 0.0]])


def _node_bound(density, s1: float, s2: float, depth: int) -> TableEntry:
    xi = _representative(s1, s2)
    density = _Counted(density)
    lam = laminate_search(density, xi, depth)
    candidates: list[tuple[float, str, dict | None]] = [
        (lam.values[0], "density", None)]

    # diag(s1, s2) with s1 >= s2: column sum and difference of norm |s|
    if s1 > 0.0:
        fc = four_corner_bound(xi, density)
        candidates.append((fc.as_float(), "four-corner", None))
    sq = square_refine_bound(xi, density)
    candidates.append((sq.as_float(), "square-refine", None))
    candidates.append((lam.values[-1], f"laminate-{depth}", lam.witness))

    value, method, witness = min(candidates, key=lambda c: c[0])
    return TableEntry(sigma=(s1, s2), value=value, method=method,
                      depth=depth, witness=witness,
                      evaluations=density.points)


def build_envelope_table(model: EnergyModel, *, sigma_max: float = 3.0,
                         pitch: float = 0.25, depth: int = 2,
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
    density = ReducedDensity(model)

    nodes = [(i, j) for i in range(grid.size) for j in range(i + 1)]

    def work(node):
        i, j = node
        return node, _node_bound(density, float(grid[i]), float(grid[j]),
                                 depth)

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
    info = {"barrier": type(model.barrier).__name__, "p": model.p}
    return EnvelopeTable(grid, values, entries, model.p, cert, depth,
                         model_info=info)
