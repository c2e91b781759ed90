"""Batched composite midpoint quadrature on triangles.

The three-point edge-midpoint rule is exact for quadratics on a triangle.
Integrals that need more resolution are handled by uniform fourfold
subdivision: every triangle splits into its four midpoint children and
the rule is reapplied. Each root triangle of the stack refines on its
own until its two successive levels agree to the requested relative
tolerance; all roots still refining at a level share one integrand call
(split once a level grows past a fixed number of triangles), and a root
drops out once it has converged.

Neighbouring children share an edge, and its two ends are the same
floats in both, so its midpoint 0.5 * (p + q) has one value. A root
refined l times has 4**l children and 3 * 4**l child sides but only
3 * 2**(l - 1) * (2**l + 1) distinct edges (3, 9, 30, 108 for
l = 0 ... 3); the integrand is called once per distinct edge and its
values are gathered back to every side. The per-child means and the
per-root sums are those of valuing every side on its own.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

# integrand: (N, 2) points and the (N,) root index of each point -> (N,)
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Triangles one refinement step may create. A larger step splits its roots
# in halves that refine one after the other, so memory does not grow with
# the number of roots; one root still refines whole, as it would alone.
_MAX_TRIS = 1 << 14


@dataclass(frozen=True)
class QuadResult:
    """Outcome of :func:`integrate_adaptive`.

    values: (m,) integral over each root triangle
    levels: (m,) refinement level at which each root stopped
    value: sum of ``values``
    error_estimate: largest per-root change between its last two levels
    level: deepest root level
    n_evals: integrand samples over all roots and levels, one per
        distinct edge midpoint of each root's children at each level
    """

    value: float
    error_estimate: float
    level: int
    n_evals: int
    values: np.ndarray
    levels: np.ndarray


def _triangle_stack(tris) -> np.ndarray:
    tris = np.asarray(tris, dtype=float)
    if tris.ndim != 3 or tris.shape[1:] != (3, 2):
        raise ValueError(f"expected (m, 3, 2) triangle stack, got {tris.shape}")
    return tris


# corners of the four children among a triangle's corners a, b, c (0-2)
# and its side midpoints ab, bc, ca (3-5)
_CHILD_CORNERS = np.array([0, 3, 5, 3, 1, 4, 5, 4, 2, 3, 4, 5])
# the corner each side runs to: side k runs from corner k to corner k + 1
_NEXT = np.array([1, 2, 0])


def subdivide_triangles(tris: np.ndarray) -> np.ndarray:
    """Fourfold midpoint split: (m, 3, 2) corners in, (4m, 3, 2) out.

    Children of one parent stay contiguous, in a fixed corner order, so
    callers may map child index // 4 back to the parent.
    """
    pts = np.empty((tris.shape[0], 6, 2))
    pts[:, :3] = tris
    np.add(tris, tris.take(_NEXT, axis=1), out=pts[:, 3:])
    pts[:, 3:] *= 0.5
    return pts.take(_CHILD_CORNERS, axis=1).reshape(-1, 3, 2)


@functools.cache
def _edge_map(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct edges of one root triangle refined ``level`` times.

    In a root's block of 4**level children, in the order of
    :func:`subdivide_triangles`, corner k of child c is flat corner
    3c + k, and side k runs from corner k to corner k + 1. Returns the
    flat corners ``(start, end)`` of one representative side of each
    distinct edge and the (4**level, 3) edge id of every child side. The
    map is read off a root with integer corners, on which every midpoint
    is exact.
    """
    n = 1 << level
    tris = np.array([[[0.0, 0.0], [n, 0.0], [0.0, n]]])
    for _ in range(level):
        tris = subdivide_triangles(tris)
    corner = (tris[..., 0] * (n + 1) + tris[..., 1]).astype(np.int64)
    corner = corner.ravel()
    start = np.arange(corner.size)
    end = (start - start % 3) + _NEXT[start % 3]
    lo = np.minimum(corner[start], corner[end])
    hi = np.maximum(corner[start], corner[end])
    keys = lo * (n + 1) ** 2 + hi
    _, rep, side_edge = np.unique(keys, return_index=True,
                                  return_inverse=True)
    maps = start[rep], end[rep], side_edge.reshape(-1, 3)
    for arr in maps:
        arr.setflags(write=False)
    return maps


def midpoint_rule(f: Integrand, tris: np.ndarray, roots: np.ndarray,
                  level: int = 0) -> np.ndarray:
    """Edge-midpoint terms (area times mean) of each triangle of a stack.

    ``tris`` holds one block of 4**level children per entry of ``roots``,
    each block the ``level``-fold :func:`subdivide_triangles` refinement of
    its root, and ``roots`` gives each block's root index. The integrand
    receives the distinct edge midpoints of all blocks as one (N, 2)
    array together with the (N,) root index of each point and must return
    (N,) values; each child side reads the value of its edge.
    """
    start, end, side_edge = _edge_map(level)
    corners = tris.reshape(roots.size, side_edge.size, 2)
    mids = 0.5 * (corners.take(start, axis=1) + corners.take(end, axis=1))
    vals = np.asarray(f(mids.reshape(-1, 2), np.repeat(roots, start.size)),
                      dtype=float).reshape(roots.size, start.size)
    sides = vals[:, side_edge].reshape(-1, 3)
    e = tris[:, 1:] - tris[:, :1]
    areas = 0.5 * np.abs(e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
    return areas * ((sides[:, 0] + sides[:, 1] + sides[:, 2]) / 3)


def _not_nan(values: np.ndarray, level: int) -> np.ndarray:
    if np.isnan(values).any():
        raise ValueError(f"integrand gave NaN at refinement level {level}")
    return values


def integrate_adaptive(f: Integrand, tris, *,
                       rel_tol: float = 1e-4, max_level: int = 8) -> QuadResult:
    """Integrate over each root triangle of an (m, 3, 2) stack, refining
    uniformly per root.

    Root r stops at the first level l >= 1 with
    |I_l - I_{l-1}| <= rel_tol * max(|I_l|, 1e-300), where I_l is its
    composite value over its 4**l children, or at max_level. Every level
    makes one call ``f(points, roots)`` over the roots still refining
    (more calls once that level would exceed ``_MAX_TRIS`` triangles);
    ``roots`` indexes the stack passed in. Descendants of a root stay
    contiguous, so I_l is a row sum of the children's terms, and each
    root's value does not depend on the roots refined with it.

    Raises ValueError at the first level at which a root's value is
    NaN; +inf values pass through, and a root equal at two successive
    levels (+inf included) has converged.
    """
    if not 0.0 < rel_tol < np.inf:
        raise ValueError("rel_tol must be positive and finite")
    if not (isinstance(max_level, numbers.Integral) and max_level >= 0):
        raise ValueError(f"max_level must be an integer >= 0, got {max_level!r}")
    tris = _triangle_stack(tris)
    m = tris.shape[0]
    values = _not_nan(midpoint_rule(f, tris, np.arange(m)), 0)
    levels = np.zeros(m, dtype=int)
    errors = np.full(m, np.inf)
    evals = _edge_map(0)[0].size * m
    # groups of roots still refining: (their children, root ids, level)
    groups = [(tris, np.arange(m), 0)]
    while groups:
        tris, active, level = groups.pop()
        while active.size and level < max_level:
            if 4 * tris.shape[0] > _MAX_TRIS and active.size > 1:
                half = active.size // 2
                cut = half * 4 ** level
                groups.append((tris[cut:], active[half:], level))
                tris, active = tris[:cut], active[:half]
                continue
            tris = subdivide_triangles(tris)
            level += 1
            k = 4 ** level
            new = midpoint_rule(f, tris, active, level)
            new = _not_nan(new.reshape(-1, k).sum(axis=1), level)
            evals += _edge_map(level)[0].size * active.size
            # equal levels have converged, +inf ones too (inf - inf is NaN)
            old = values[active]
            errors[active] = np.abs(np.subtract(new, old, where=new != old,
                                                out=np.zeros_like(new)))
            values[active] = new
            levels[active] = level
            going = ~(errors[active]
                      <= rel_tol * np.maximum(np.abs(new), 1e-300))
            active = active[going]
            tris = tris.reshape(-1, k, 3, 2)[going].reshape(-1, 3, 2)
    return QuadResult(value=float(np.sum(values)),
                      error_estimate=float(errors.max(initial=0.0)),
                      level=int(levels.max(initial=0)), n_evals=evals,
                      values=values, levels=levels)
