"""Batched composite midpoint quadrature on triangles.

The three-point edge-midpoint rule is exact for quadratics on a triangle.
Integrals that need more resolution apply it to the 4**l children of l
uniform fourfold midpoint subdivisions. Each root triangle of the stack
refines on its own until its two successive levels agree to the
requested relative tolerance; all roots still refining at a level share
one integrand call (split once a level stands for more than a fixed
number of children), and a root drops out once it has converged.

No child triangle is formed. Neighbouring children share an edge, so a
root refined l times has 3 * 4**l child sides but only
3 * 2**(l - 1) * (2**l + 1) distinct edges (3, 9, 30, 108 for
l = 0 ... 3), and its level-l value is one weighted sum over their
midpoints: A / (3 * 4**l) * sum_e mult_e f(mid_e), mult_e 1 on the
root's boundary and 2 inside. The midpoints are fixed barycentric
combinations of the root's corners, exact dyadic numbers per level, so
the rule needs only each root's area A and these rows. The integrand
receives the rows, not points: an affine one reads its coefficients once
per root, any other forms ``bary @ tris[roots]`` from its own corners.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor_kernel import is_integer

# integrand: (E, 3) barycentric rows and (R,) root ids -> (R, E) values
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Children one refinement step may stand for. A larger step splits its
# roots in halves that refine one after the other, so memory does not grow
# with the number of roots; one root still refines whole, as it would alone.
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
def _edge_map(level: int) -> tuple[np.ndarray, np.ndarray]:
    """The level-``level`` rule on one root: its distinct edge midpoints
    in barycentric coordinates (E, 3) and their multiplicities (E,).

    The root's 4**level children of :func:`subdivide_triangles` have
    3 * 4**level sides; an edge on the root's boundary is a side of one
    child (mult 1), any other edge a side of two (mult 2), so edge e
    weighs mult_e / (3 * 4**level). The map is read off a root with
    integer corners (0, 0), (2**level, 0), (0, 2**level); every midpoint
    and coordinate there is dyadic, hence exact.
    """
    n = 1 << level
    tris = np.array([[[0.0, 0.0], [n, 0.0], [0.0, n]]])
    for _ in range(level):
        tris = subdivide_triangles(tris)
    ends = np.stack([tris, tris.take(_NEXT, axis=1)], axis=2).reshape(-1, 2, 2)
    keys = np.sort((ends[..., 0] * (n + 1) + ends[..., 1]).astype(np.int64))
    _, rep, mult = np.unique(keys[:, 0] * (n + 1) ** 2 + keys[:, 1],
                             return_index=True, return_counts=True)
    mid = ends[rep].mean(axis=1) / n
    maps = np.column_stack([1.0 - mid.sum(axis=1), mid]), mult.astype(float)
    for arr in maps:
        arr.setflags(write=False)
    return maps


def midpoint_rule(f: Integrand, areas: np.ndarray, roots: np.ndarray,
                  level: int = 0) -> np.ndarray:
    """Level-``level`` composite midpoint value of each root in ``roots``.

    Root r, of area ``areas[r]``, refined ``level`` times has the value
    A_r / (3 * 4**level) * sum_e mult_e f(mid_e) over the distinct edges
    of its children (:func:`_edge_map`). The integrand receives the
    level's barycentric rows (E, 3) and ``roots`` (R,) and returns the
    (R, E) values at those midpoints of the roots. The weighted row sum
    runs in an order that does not depend on the number of roots, so
    neither does a root's value.
    """
    bary, mult = _edge_map(level)
    return (areas[roots] * np.einsum("re,e->r", f(bary, roots), mult)
            / (3 * 4 ** level))


def _not_nan(values: np.ndarray, level: int) -> np.ndarray:
    if np.isnan(values).any():
        raise ValueError(f"integrand gave NaN at refinement level {level}")
    return values


def integrate_adaptive(f: Integrand, areas, *,
                       rel_tol: float = 1e-4, max_level: int = 8) -> QuadResult:
    """Integrate over m root triangles of the given (m,) areas, refining
    uniformly per root.

    Root r stops at the first level l >= 1 with
    |I_l - I_{l-1}| <= rel_tol * max(|I_l|, 1e-300), where I_l is its
    composite value over its 4**l children (:func:`midpoint_rule`), or at
    max_level. Every level makes one call ``f(bary, roots)`` over the
    roots still refining (more calls once they would stand for more than
    ``_MAX_TRIS`` children); ``roots`` indexes the areas passed in. Only
    root ids and levels are tracked, and each root's value does not
    depend on the roots refined with it.

    Raises ValueError at the first level at which a root's value is
    NaN; +inf values pass through, and a root equal at two successive
    levels (+inf included) has converged. The areas must be one finite
    positive number per root, and max_level an integer >= 0, numpy
    integers included, bools refused.
    """
    if not 0.0 < rel_tol < np.inf:
        raise ValueError("rel_tol must be positive and finite")
    if not (is_integer(max_level) and max_level >= 0):
        raise ValueError(f"max_level must be an integer >= 0, got {max_level!r}")
    areas = np.asarray(areas, dtype=float)
    if areas.ndim != 1 or not np.all((areas > 0.0) & (areas < np.inf)):
        raise ValueError("areas must be a 1-D array of finite positive "
                         "numbers")
    m = areas.size
    values = _not_nan(midpoint_rule(f, areas, np.arange(m)), 0)
    levels = np.zeros(m, dtype=int)
    errors = np.full(m, np.inf)
    evals = _edge_map(0)[1].size * m
    # groups of roots still refining: (root ids, level)
    groups = [(np.arange(m), 0)]
    while groups:
        active, level = groups.pop()
        while active.size and level < max_level:
            if active.size * 4 ** (level + 1) > _MAX_TRIS and active.size > 1:
                half = active.size // 2
                groups.append((active[half:], level))
                active = active[:half]
                continue
            level += 1
            new = _not_nan(midpoint_rule(f, areas, active, level), level)
            evals += _edge_map(level)[1].size * active.size
            # equal levels have converged, +inf ones too (inf - inf is NaN)
            old = values[active]
            errors[active] = np.abs(np.subtract(new, old, where=new != old,
                                                out=np.zeros_like(new)))
            values[active] = new
            levels[active] = level
            going = ~(errors[active]
                      <= rel_tol * np.maximum(np.abs(new), 1e-300))
            active = active[going]
    return QuadResult(value=float(np.sum(values)),
                      error_estimate=float(errors.max(initial=0.0)),
                      level=int(levels.max(initial=0)), n_evals=evals,
                      values=values, levels=levels)
