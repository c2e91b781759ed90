"""Batched composite midpoint quadrature on triangles.

The three-point edge-midpoint rule is exact for quadratics on a triangle.
Integrals that need more resolution are handled by uniform fourfold
subdivision: every triangle splits into its four midpoint children and
the rule is reapplied. Each root triangle of the stack refines on its
own until its two successive levels agree to the requested relative
tolerance; all roots still refining at a level share one integrand call
(split once a level grows past a fixed number of triangles), and a root
drops out once it has converged.
"""

from __future__ import annotations

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
    n_evals: integrand samples over all roots and levels
    """

    value: float
    error_estimate: float
    level: int
    n_evals: int
    values: np.ndarray
    levels: np.ndarray


def _triangle_stack(mesh_or_tris) -> np.ndarray:
    if hasattr(mesh_or_tris, "vertices") and hasattr(mesh_or_tris, "triangles"):
        return mesh_or_tris.vertices[mesh_or_tris.triangles].astype(float)
    tris = np.asarray(mesh_or_tris, dtype=float)
    if tris.ndim != 3 or tris.shape[1:] != (3, 2):
        raise ValueError(f"expected (m, 3, 2) triangle stack, got {tris.shape}")
    return tris


def subdivide_triangles(tris: np.ndarray) -> np.ndarray:
    """Fourfold midpoint split: (m, 3, 2) corners in, (4m, 3, 2) out.

    Children of one parent stay contiguous, in a fixed corner order, so
    callers may map child index // 4 back to the parent.
    """
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab = 0.5 * (a + b)
    bc = 0.5 * (b + c)
    ca = 0.5 * (c + a)
    children = np.stack([
        np.stack([a, ab, ca], axis=1),
        np.stack([ab, b, bc], axis=1),
        np.stack([ca, bc, c], axis=1),
        np.stack([ab, bc, ca], axis=1),
    ], axis=1)
    return children.reshape(-1, 3, 2)


def midpoint_rule(f: Integrand, tris: np.ndarray,
                  roots: np.ndarray) -> np.ndarray:
    """Edge-midpoint terms (area times mean) of each triangle of a stack.

    ``roots`` gives each triangle's root index. The integrand receives
    all sample points as one (N, 2) array together with the (N,) root
    index of each point and must return (N,) values.
    """
    mids = 0.5 * (tris + np.roll(tris, -1, axis=1))
    vals = np.asarray(f(mids.reshape(-1, 2), np.repeat(roots, 3)),
                      dtype=float).reshape(-1, 3)
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    return areas * vals.mean(axis=1)


def integrate_adaptive(f: Integrand, mesh_or_tris, *,
                       rel_tol: float = 1e-4, max_level: int = 8) -> QuadResult:
    """Integrate over each root triangle, refining uniformly per root.

    Root r stops at the first level l >= 1 with
    |I_l - I_{l-1}| <= rel_tol * max(|I_l|, 1e-300), where I_l is its
    composite value over its 4**l children, or at max_level. Every level
    makes one call ``f(points, roots)`` over the roots still refining
    (more calls once that level would exceed ``_MAX_TRIS`` triangles);
    ``roots`` indexes the stack passed in. Descendants of a root stay
    contiguous, so I_l is a row sum of the children's terms, and each
    root's value does not depend on the roots refined with it.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    tris = _triangle_stack(mesh_or_tris)
    m = tris.shape[0]
    values = midpoint_rule(f, tris, np.arange(m))
    levels = np.zeros(m, dtype=int)
    errors = np.full(m, np.inf)
    evals = 3 * m
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
            new = midpoint_rule(f, tris, np.repeat(active, k))
            new = new.reshape(-1, k).sum(axis=1)
            evals += 3 * tris.shape[0]
            errors[active] = np.abs(new - values[active])
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
