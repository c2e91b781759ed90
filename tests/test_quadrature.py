import math
import tracemalloc

import numpy as np
import pytest

from memrelax import quadrature
from memrelax.pw_affine import TriMesh, refine_mesh, unit_square_mesh
from memrelax.quadrature import integrate_adaptive, midpoint_rule
from oracles import corner_areas, point_integrand


def _square(n):
    """The cells of unit_square_mesh(n) as an (m, 3, 2) corner stack."""
    mesh = unit_square_mesh(n)
    return mesh.vertices[mesh.triangles]


def test_midpoint_rule_exact_for_quadratics():
    tris = _square(1)
    f = lambda p, roots: p[:, 0] ** 2 + p[:, 1]
    terms = midpoint_rule(point_integrand(f, tris), corner_areas(tris),
                          np.arange(tris.shape[0]))
    assert terms.shape == (tris.shape[0],)
    assert terms.sum() == pytest.approx(1.0 / 3.0 + 0.5, abs=1e-14)


def test_adaptive_handles_kink():
    f = lambda p, roots: np.abs(p[:, 0] - 0.5)
    tris = _square(1)
    res = integrate_adaptive(point_integrand(f, tris), corner_areas(tris),
                             rel_tol=1e-5, max_level=10)
    assert res.value == pytest.approx(0.25, rel=5e-4)
    assert res.level >= 1
    assert res.n_evals > 0


def test_adaptive_stops_early_on_smooth_integrand():
    f = lambda bary, roots: np.full((roots.size, bary.shape[0]), 3.0)
    res = integrate_adaptive(f, corner_areas(_square(2)), rel_tol=1e-6,
                             max_level=8)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    assert res.level <= 2


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda bary, roots: bary[:, 0], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        integrate_adaptive(lambda bary, roots: bary[:, 0], [0.5, 0.5],
                           rel_tol=0.0)


@pytest.mark.parametrize("areas", [[0.5, np.nan], [0.5, -0.5], [0.5, 0.0],
                                   [0.5, np.inf], [[0.5, 0.5]],
                                   _square(1)],
                         ids=["nan", "negative", "zero", "infinite", "2d",
                              "corners"])
def test_rejects_areas_that_are_not_finite_positive_numbers(areas):
    calls = []

    def f(bary, roots):
        calls.append(roots)
        return np.ones((roots.size, bary.shape[0]))

    with pytest.raises(ValueError, match="areas must be a 1-D array"):
        integrate_adaptive(f, areas)
    assert calls == []


def test_rejects_a_negative_max_level():
    with pytest.raises(ValueError, match="max_level"):
        integrate_adaptive(lambda bary, roots: bary[:, 0], [0.5, 0.5],
                           max_level=-1)


@pytest.mark.parametrize("max_level", [1.5, 2.0, np.nan, np.inf, True,
                                       False])
def test_rejects_a_max_level_that_is_not_an_integer(max_level):
    # a fractional level was read as the next integer: a root still
    # refining at max_level=1.5 went on to level 2, 42 samples, not 12;
    # a bool passed as level 0 or 1
    calls = []
    tri = _square(1)[:1]

    def g(p, roots):
        calls.append(p.shape[0])
        return p[:, 0]

    f = point_integrand(g, tri)
    with pytest.raises(ValueError, match="max_level must be an integer"):
        integrate_adaptive(f, [0.5], rel_tol=1e-12, max_level=max_level)
    assert calls == []
    res = integrate_adaptive(f, [0.5], rel_tol=1e-12, max_level=np.int64(1))
    assert res.level == 1 and res.n_evals == 3 + 9


@pytest.mark.parametrize("rel_tol", [np.nan, np.inf])
def test_rejects_a_nonfinite_rel_tol(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        integrate_adaptive(lambda bary, roots: bary[:, 0], [0.5, 0.5],
                           rel_tol=rel_tol)


def test_nan_raises_at_its_first_level_and_inf_passes():
    calls = []

    def f(points, roots):
        calls.append(points.shape[0])
        return np.where(points[:, 0] < 0.1, np.nan, np.exp(points[:, 0]))

    # the edge midpoints reach x = 0.25 at level 0, 0.125 at level 1 and
    # 0.0625 at level 2
    tri = np.array([[[0.5, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="NaN at refinement level 2"):
        integrate_adaptive(point_integrand(f, tri), corner_areas(tri),
                           rel_tol=1e-12, max_level=8)
    assert len(calls) == 3

    infinite = lambda p, roots: np.where(p[:, 0] < 0.1, np.inf,
                                         np.exp(p[:, 0]))
    res = integrate_adaptive(point_integrand(infinite, tri),
                             corner_areas(tri), rel_tol=1e-12, max_level=2)
    assert res.value == np.inf
    assert res.levels.tolist() == [2]

    # +inf at every level: levels 0 and 1 agree, so the root stops at 1;
    # level 1 has 9 distinct edge midpoints
    always = lambda bary, roots: np.full((roots.size, bary.shape[0]), np.inf)
    res = integrate_adaptive(always, corner_areas(tri), rel_tol=1e-12,
                             max_level=8)
    assert res.value == np.inf
    assert res.levels.tolist() == [1] and res.n_evals == 3 + 9
    assert res.error_estimate == 0.0


def _flat_or_kinked(points, kinked):
    return np.where(kinked, np.abs(points[:, 0] - 0.5), 1.0)


def test_each_root_stops_on_its_own_as_if_integrated_alone():
    # the kink x = 0.5 crosses the second root off its subdivision lines
    tris = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                     [[0.0, 0.0], [0.7, 0.0], [0.0, 0.7]]])
    calls = []

    def f(points, roots):
        calls.append(np.unique(roots))
        return _flat_or_kinked(points, roots == 1)

    res = integrate_adaptive(point_integrand(f, tris), corner_areas(tris),
                             rel_tol=1e-4, max_level=9)
    alone = [integrate_adaptive(point_integrand(
        lambda p, roots, kinked=bool(r): _flat_or_kinked(p, kinked),
        tris[r:r + 1]), corner_areas(tris[r:r + 1]), rel_tol=1e-4,
        max_level=9) for r in (0, 1)]

    assert res.values.tolist() == [a.value for a in alone]
    assert res.levels.tolist() == [a.level for a in alone]
    assert res.n_evals == sum(a.n_evals for a in alone)
    assert res.value == float(np.sum(res.values))
    assert res.level == max(a.level for a in alone)
    assert res.error_estimate == max(a.error_estimate for a in alone)
    # the constant root stops at the first allowed level, the kink refines
    assert res.levels.tolist()[0] == 1
    assert res.levels[1] > 2
    # one integrand call per level; the converged root drops out
    assert len(calls) == res.level + 1
    assert all(c.tolist() == [1] for c in calls[2:])


def test_a_level_past_the_triangle_budget_splits_its_roots(monkeypatch):
    mesh = _square(3)  # 18 roots, the kink crosses some of them
    areas = corner_areas(mesh)
    f = point_integrand(lambda p, roots: np.abs(p[:, 0] - 0.45)
                        * (1.0 + roots), mesh)
    whole = integrate_adaptive(f, areas, rel_tol=1e-4, max_level=6)
    assert whole.level >= 4

    sizes = []

    def spy(bary, roots):
        sizes.append((roots.size * bary.shape[0], np.unique(roots).size))
        return f(bary, roots)

    monkeypatch.setattr(quadrature, "_MAX_TRIS", 64)
    split = integrate_adaptive(spy, areas, rel_tol=1e-4, max_level=6)
    assert split.values.tolist() == whole.values.tolist()
    assert split.levels.tolist() == whole.levels.tolist()
    assert split.n_evals == whole.n_evals
    # past level 0, a call holds at most the budget or a single root
    assert all(n <= 3 * 64 or r == 1 for n, r in sizes[1:])
    assert len(sizes) > whole.level + 1


# ---------------------------------------------------------------------------
# the level rule: weighted distinct edge midpoints

@pytest.mark.parametrize("level", range(6))
def test_edge_map_counts_the_distinct_edges(level):
    # a triangle cut into N^2 children, N = 2^l, has 3N(N + 1)/2 edges;
    # one on the root's boundary is a side of one child, any other a side
    # of two, so 3N edges weigh 1/(3 * 4^l) and the rest 2/(3 * 4^l)
    n = 2 ** level
    bary, mult = quadrature._edge_map(level)
    assert bary.shape == (3 * n * (n + 1) // 2, 3)
    assert mult.shape == (bary.shape[0],)
    assert np.unique(bary, axis=0).shape == bary.shape
    # dyadic rows: multiples of 1/(2N) in [0, 1] that sum to 1 exactly
    assert np.array_equal(bary * 2 * n, np.round(bary * 2 * n))
    assert bary.min() >= 0.0 and bary.max() <= 1.0
    assert np.array_equal(bary.sum(axis=1), np.ones(bary.shape[0]))
    # a boundary midpoint has a zero coordinate, an interior one none
    assert np.array_equal(mult == 1, (bary == 0.0).any(axis=1))
    unit = 1 / (3 * 4 ** level)
    weights = mult * unit
    assert np.count_nonzero(weights == unit) == 3 * n
    assert np.count_nonzero(weights == 2 * unit) == mult.size - 3 * n
    assert mult.sum() == 3 * 4 ** level
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("level", range(5))
def test_every_child_side_midpoint_is_one_weighted_edge(level):
    # the side midpoints of the subdivided children land on the map's
    # midpoints, each edge as often as its multiplicity
    rng = np.random.default_rng(level)
    roots = rng.uniform(-3.0, 3.0, size=(5, 3, 2))
    tris = roots
    for _ in range(level):
        tris = quadrature.subdivide_triangles(tris)
    sides = 0.5 * (tris + np.roll(tris, -1, axis=1))
    sides = sides.reshape(5, -1, 1, 2)
    bary, mult = quadrature._edge_map(level)
    mids = (bary @ roots)[:, None]
    dist = np.abs(sides - mids).max(axis=-1)
    hit = dist.argmin(axis=2)
    assert dist.min(axis=2).max() <= 1e-14
    for r in range(5):
        assert np.array_equal(np.bincount(hit[r], minlength=mult.size), mult)


def test_the_integrand_receives_the_rule_rows_and_the_root_ids():
    # one call per level: the level's own read-only barycentric rows and
    # the ids of the roots still refining, values back as (roots, rows)
    tris = _square(2)
    calls = []

    def f(bary, roots):
        calls.append((bary, roots.copy()))
        return np.abs((bary @ tris[roots])[..., 0] - 0.45)

    res = integrate_adaptive(f, corner_areas(tris), rel_tol=1e-3,
                             max_level=4)
    assert len(calls) == res.level + 1
    for level, (bary, roots) in enumerate(calls):
        assert bary is quadrature._edge_map(level)[0]
        assert not bary.flags.writeable
        assert np.array_equal(roots, np.flatnonzero(res.levels >= level))
    assert res.levels.min() == 1 and res.level > 2


def _quadratic_integral(tri):
    """Closed form of f = 1 + 2x - y + 3x^2 - xy + 2y^2 over a triangle."""
    (x1, y1), (x2, y2), (x3, y3) = tri
    area = 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
    xx = (x1 * x1 + x2 * x2 + x3 * x3 + x1 * x2 + x2 * x3 + x3 * x1) / 6
    yy = (y1 * y1 + y2 * y2 + y3 * y3 + y1 * y2 + y2 * y3 + y3 * y1) / 6
    xy = (2 * (x1 * y1 + x2 * y2 + x3 * y3) + x1 * y2 + x2 * y1 + x1 * y3
          + x3 * y1 + x2 * y3 + x3 * y2) / 12
    mean_x, mean_y = (x1 + x2 + x3) / 3, (y1 + y2 + y3) / 3
    return area * (1 + 2 * mean_x - mean_y + 3 * xx - xy + 2 * yy)


@pytest.mark.parametrize("level", range(5))
def test_level_rule_is_exact_for_quadratics(level):
    f = lambda p, r: (1 + 2 * p[:, 0] - p[:, 1] + 3 * p[:, 0] ** 2
                      - p[:, 0] * p[:, 1] + 2 * p[:, 1] ** 2)
    rng = np.random.default_rng(40 + level)
    tris = rng.uniform(-2.0, 2.0, size=(6, 3, 2))
    got = midpoint_rule(point_integrand(f, tris), corner_areas(tris),
                        np.arange(6), level)
    want = [_quadratic_integral(t) for t in tris]
    assert got == pytest.approx(want, rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("level", range(4))
def test_mesh_areas_give_the_corner_rule_bit_for_bit(level):
    # TriMesh.areas takes the two products the rule once took from each
    # root's corners, so a mesh's values keep their bits on the unit
    # squares, the refined nirf mesh and the random stacks above
    rng = np.random.default_rng(40 + level)
    fine = refine_mesh(unit_square_mesh(12))
    stacks = [_square(3), _square(4), fine.vertices[fine.triangles],
              rng.uniform(-2.0, 2.0, size=(6, 3, 2))]
    bary, mult = quadrature._edge_map(level)
    for tris in stacks:
        m = tris.shape[0]
        mesh = TriMesh(tris.reshape(-1, 2), np.arange(3 * m).reshape(m, 3))
        f = point_integrand(lambda p, r: np.exp(p[:, 0] * p[:, 1]) + r,
                            tris)
        roots = np.arange(m)
        want = (corner_areas(tris) * np.einsum("re,e->r", f(bary, roots),
                                               mult) / (3 * 4 ** level))
        got = midpoint_rule(f, mesh.areas, roots, level)
        assert got.tolist() == want.tolist()


def test_refinement_keeps_no_child_stack():
    # 256 cells of the refined nirf mesh, all refined to level 3 in one
    # call: the rule holds (roots, E) midpoints and values only; the 64
    # children per root as corners alone would be 0.79 MB more. Measured
    # 1.13 MB; the bound leaves a third of that as margin.
    mesh = refine_mesh(unit_square_mesh(12))
    tris = mesh.vertices[mesh.triangles][:256]
    f = point_integrand(lambda p, r: np.exp(p[:, 0] * p[:, 1]), tris)
    tracemalloc.start()
    try:
        res = integrate_adaptive(f, corner_areas(tris), rel_tol=1e-15,
                                 max_level=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.levels.tolist() == [3] * 256
    assert peak < 1.5e6


def _reference_integrate(f, tris, rel_tol, max_level):
    """The adaptive rule valuing all three side midpoints of every child:
    (values, levels, errors, samples)."""
    m = tris.shape[0]

    def terms(tris, roots):
        mids = 0.5 * (tris + np.roll(tris, -1, axis=1))
        vals = f(mids.reshape(-1, 2), np.repeat(roots, 3)).reshape(-1, 3)
        return corner_areas(tris) * vals.mean(axis=1)

    values = terms(tris, np.arange(m))
    if np.isnan(values).any():
        raise ValueError("integrand gave NaN at refinement level 0")
    levels = np.zeros(m, dtype=int)
    errors = np.full(m, np.inf)
    samples = 3 * m
    active, level = np.arange(m), 0
    while active.size and level < max_level:
        tris = quadrature.subdivide_triangles(tris)
        level += 1
        k = 4 ** level
        new = terms(tris, np.repeat(active, k)).reshape(-1, k).sum(axis=1)
        if np.isnan(new).any():
            raise ValueError(f"integrand gave NaN at refinement level {level}")
        samples += 3 * tris.shape[0]
        old = values[active]
        errors[active] = np.abs(np.subtract(new, old, where=new != old,
                                            out=np.zeros_like(new)))
        values[active] = new
        levels[active] = level
        going = ~(errors[active] <= rel_tol * np.maximum(np.abs(new), 1e-300))
        active = active[going]
        tris = tris.reshape(-1, k, 3, 2)[going].reshape(-1, 3, 2)
    return values, levels, errors, samples


def _distinct_samples(levels, max_level):
    """Integrand samples of the distinct-edge rule for roots that stopped
    at ``levels``: a root refining past level l is valued at level l."""
    n = 2 ** np.arange(max_level + 1)
    edges = 3 * n * (n + 1) // 2
    return sum(int(edges[:lv + 1].sum()) for lv in levels)


_INTEGRANDS = {
    "kink": lambda p, r: np.abs(p[:, 0] - 0.45) * (1.0 + r),
    "smooth": lambda p, r: np.exp(np.sin(3.0 * p[:, 0] + r) * p[:, 1]),
    "infinite": lambda p, r: np.where(p[:, 0] + p[:, 1] < 0.3, np.inf,
                                      np.abs(p[:, 1] - 0.55)),
}


@pytest.mark.parametrize("budget", [None, 64])
@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
def test_level_sums_give_the_all_sides_rule_to_round_off(
        monkeypatch, name, budget):
    # one weighted sum per root and level is the all-sides rule up to
    # round-off; every refinement decision and sample count is the same
    f = _INTEGRANDS[name]
    tris = _square(3)
    if budget is not None:
        monkeypatch.setattr(quadrature, "_MAX_TRIS", budget)
    res = integrate_adaptive(point_integrand(f, tris), corner_areas(tris),
                             rel_tol=1e-4, max_level=5)
    values, levels, errors, samples = _reference_integrate(f, tris, 1e-4, 5)
    assert res.levels.tolist() == levels.tolist()
    assert res.level == levels.max()
    assert res.n_evals == _distinct_samples(levels, 5) < samples
    assert np.array_equal(np.isinf(res.values), np.isinf(values))
    finite = np.isfinite(values)
    assert res.values[finite] == pytest.approx(values[finite], rel=1e-13)
    scale = np.abs(values[finite]).max()
    assert abs(res.error_estimate - errors.max()) <= 1e-13 * scale
    assert res.value == pytest.approx(float(np.sum(values)), rel=1e-13)


@pytest.mark.parametrize("budget", [None, 64])
def test_level_sums_give_the_all_sides_rule_bit_for_bit_on_dyadic_input(
        monkeypatch, budget):
    # dyadic corners and an integrand with dyadic values, multiples of 3:
    # every midpoint, sum and the division by 3 are exact in both rules;
    # the kink x = 13/32 lies on the subdivision lines from level 3 on
    f = lambda p, r: 3.0 * (np.abs(p[:, 0] - 0.40625) + 2.0 * p[:, 1])
    tris = _square(4)
    if budget is not None:
        monkeypatch.setattr(quadrature, "_MAX_TRIS", budget)
    res = integrate_adaptive(point_integrand(f, tris), corner_areas(tris),
                             rel_tol=1e-12, max_level=5)
    values, levels, errors, _ = _reference_integrate(f, tris, 1e-12, 5)
    assert res.levels.max() == 4
    assert res.values.tolist() == values.tolist()
    assert res.levels.tolist() == levels.tolist()
    assert res.error_estimate == errors.max()


def test_distinct_edges_raise_nan_at_the_same_level():
    f = lambda p, r: np.where(p[:, 0] < 0.1, np.nan, np.exp(p[:, 0]))
    tri = np.array([[[0.5, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    for rule, g, stack in ((integrate_adaptive, point_integrand(f, tri),
                            corner_areas(tri)),
                           (_reference_integrate, f, tri)):
        with pytest.raises(ValueError, match="NaN at refinement level 2"):
            rule(g, stack, rel_tol=1e-12, max_level=8)
