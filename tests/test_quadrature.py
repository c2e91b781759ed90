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
    # refining at max_level=1.5 went on to level 2, 63 samples, not 15
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
    assert res.level == 1 and res.n_evals == 3 + 12


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

    # +inf at every level: levels 0 and 1 agree, so the root stops at 1
    always = lambda p, roots: np.full(p.shape[0], np.inf)
    res = integrate_adaptive(always, tri, rel_tol=1e-12, max_level=8)
    assert res.value == np.inf
    assert res.levels.tolist() == [1] and res.n_evals == 3 + 12
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
