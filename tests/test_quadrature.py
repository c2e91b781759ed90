import numpy as np
import pytest

from memrelax import quadrature
from memrelax.pw_affine import unit_square_mesh
from memrelax.quadrature import integrate_adaptive, midpoint_rule


def _square(n):
    """The cells of unit_square_mesh(n) as an (m, 3, 2) corner stack."""
    mesh = unit_square_mesh(n)
    return mesh.vertices[mesh.triangles]


def test_midpoint_rule_exact_for_quadratics():
    tris = _square(1)
    f = lambda p, roots: p[:, 0] ** 2 + p[:, 1]
    terms = midpoint_rule(f, tris, np.arange(tris.shape[0]))
    assert terms.shape == (tris.shape[0],)
    assert terms.sum() == pytest.approx(1.0 / 3.0 + 0.5, abs=1e-14)


def test_adaptive_handles_kink():
    f = lambda p, roots: np.abs(p[:, 0] - 0.5)
    res = integrate_adaptive(f, _square(1), rel_tol=1e-5, max_level=10)
    assert res.value == pytest.approx(0.25, rel=5e-4)
    assert res.level >= 1
    assert res.n_evals > 0


def test_adaptive_stops_early_on_smooth_integrand():
    f = lambda p, roots: 3.0 * np.ones(p.shape[0])
    res = integrate_adaptive(f, _square(2), rel_tol=1e-6, max_level=8)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    assert res.level <= 2


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda p, roots: p[:, 0], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        integrate_adaptive(lambda p, roots: p[:, 0], _square(1),
                           rel_tol=0.0)


def test_rejects_a_negative_max_level():
    with pytest.raises(ValueError, match="max_level"):
        integrate_adaptive(lambda p, roots: p[:, 0], _square(1),
                           max_level=-1)


@pytest.mark.parametrize("max_level", [1.5, 2.0, np.nan, np.inf])
def test_rejects_a_max_level_that_is_not_an_integer(max_level):
    # a fractional level was read as the next integer: a root still
    # refining at max_level=1.5 went on to level 2, 42 samples, not 12
    calls = []

    def f(p, roots):
        calls.append(p.shape[0])
        return p[:, 0]

    with pytest.raises(ValueError, match="max_level must be an integer"):
        integrate_adaptive(f, _square(1)[:1], rel_tol=1e-12,
                           max_level=max_level)
    assert calls == []
    res = integrate_adaptive(f, _square(1)[:1], rel_tol=1e-12,
                             max_level=np.int64(1))
    assert res.level == 1 and res.n_evals == 3 + 9


@pytest.mark.parametrize("rel_tol", [np.nan, np.inf])
def test_rejects_a_nonfinite_rel_tol(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        integrate_adaptive(lambda p, roots: p[:, 0], _square(1),
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
        integrate_adaptive(f, tri, rel_tol=1e-12, max_level=8)
    assert len(calls) == 3

    infinite = lambda p, roots: np.where(p[:, 0] < 0.1, np.inf,
                                         np.exp(p[:, 0]))
    res = integrate_adaptive(infinite, tri, rel_tol=1e-12, max_level=2)
    assert res.value == np.inf
    assert res.levels.tolist() == [2]

    # +inf at every level: levels 0 and 1 agree, so the root stops at 1;
    # level 1 has 9 distinct edge midpoints
    always = lambda p, roots: np.full(p.shape[0], np.inf)
    res = integrate_adaptive(always, tri, rel_tol=1e-12, max_level=8)
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

    res = integrate_adaptive(f, tris, rel_tol=1e-4, max_level=9)
    alone = [integrate_adaptive(
        lambda p, roots, kinked=bool(r): _flat_or_kinked(p, kinked),
        tris[r:r + 1], rel_tol=1e-4, max_level=9) for r in (0, 1)]

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
    f = lambda p, roots: np.abs(p[:, 0] - 0.45) * (1.0 + roots)
    whole = integrate_adaptive(f, mesh, rel_tol=1e-4, max_level=6)
    assert whole.level >= 4

    sizes = []

    def spy(p, roots):
        sizes.append((p.shape[0], np.unique(roots).size))
        return f(p, roots)

    monkeypatch.setattr(quadrature, "_MAX_TRIS", 64)
    split = integrate_adaptive(spy, mesh, rel_tol=1e-4, max_level=6)
    assert split.values.tolist() == whole.values.tolist()
    assert split.levels.tolist() == whole.levels.tolist()
    assert split.n_evals == whole.n_evals
    # past level 0, a call holds at most the budget or a single root
    assert all(n <= 3 * 64 or r == 1 for n, r in sizes[1:])
    assert len(sizes) > whole.level + 1


# ---------------------------------------------------------------------------
# distinct edge midpoints

@pytest.mark.parametrize("level", range(6))
def test_edge_map_counts_the_distinct_edges(level):
    # a triangle cut into N^2 children, N = 2^l, has 3N(N + 1)/2 edges
    n = 2 ** level
    start, end, side_edge = quadrature._edge_map(level)
    assert start.size == end.size == 3 * n * (n + 1) // 2
    assert side_edge.shape == (4 ** level, 3)
    assert np.array_equal(np.unique(side_edge), np.arange(start.size))
    # an edge on the root's boundary is a side of one child, any other
    # edge a side of two
    counts = np.bincount(side_edge.ravel())
    assert np.count_nonzero(counts == 1) == 3 * n
    assert np.count_nonzero(counts == 2) == start.size - 3 * n


@pytest.mark.parametrize("level", range(5))
def test_every_child_side_has_its_edge_ends_as_floats(level):
    # the shared midpoint 0.5 * (p + q) has one value only if both
    # children hold the same two floats p and q
    rng = np.random.default_rng(level)
    roots = rng.uniform(-3.0, 3.0, size=(5, 3, 2))
    tris = roots
    for _ in range(level):
        tris = quadrature.subdivide_triangles(tris)
    corners = tris.reshape(5, -1, 2)
    start, end, side_edge = quadrature._edge_map(level)
    k = np.arange(3)
    side_start = corners[:, 3 * np.arange(4 ** level)[:, None] + k]
    side_end = corners[:, 3 * np.arange(4 ** level)[:, None] + (k + 1) % 3]
    rep_start = corners[:, start][:, side_edge]
    rep_end = corners[:, end][:, side_edge]
    same = (side_start == rep_start).all(-1) & (side_end == rep_end).all(-1)
    turned = (side_start == rep_end).all(-1) & (side_end == rep_start).all(-1)
    assert (same | turned).all()


def _reference_integrate(f, tris, rel_tol, max_level):
    """The adaptive rule valuing all three side midpoints of every child:
    (values, levels, errors, samples)."""
    m = tris.shape[0]

    def terms(tris, roots):
        mids = 0.5 * (tris + np.roll(tris, -1, axis=1))
        vals = f(mids.reshape(-1, 2), np.repeat(roots, 3)).reshape(-1, 3)
        e1 = tris[:, 1] - tris[:, 0]
        e2 = tris[:, 2] - tris[:, 0]
        areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        return areas * vals.mean(axis=1)

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
def test_distinct_edges_give_the_all_sides_rule_bit_for_bit(
        monkeypatch, name, budget):
    f = _INTEGRANDS[name]
    tris = _square(3)
    if budget is not None:
        monkeypatch.setattr(quadrature, "_MAX_TRIS", budget)
    res = integrate_adaptive(f, tris, rel_tol=1e-4, max_level=5)
    values, levels, errors, samples = _reference_integrate(f, tris, 1e-4, 5)
    assert res.values.tolist() == values.tolist()
    assert res.levels.tolist() == levels.tolist()
    assert res.error_estimate == errors.max()
    assert res.value == float(np.sum(values))
    assert res.level == levels.max()
    assert res.n_evals == _distinct_samples(levels, 5) < samples


def test_distinct_edges_raise_nan_at_the_same_level():
    f = lambda p, r: np.where(p[:, 0] < 0.1, np.nan, np.exp(p[:, 0]))
    tri = np.array([[[0.5, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    for rule in (integrate_adaptive, _reference_integrate):
        with pytest.raises(ValueError, match="NaN at refinement level 2"):
            rule(f, tri, rel_tol=1e-12, max_level=8)
