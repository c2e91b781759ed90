import math

import numpy as np
import pytest

from memrelax import dimension_reduction
from memrelax.dimension_reduction import (
    LoadPotential, MinimizeResult, PrismField, _MembraneObjective,
    _ThinObjective, _default_film_start, _descent, director_membrane_energy,
    gamma_sweep, lift_membrane, lp_distance, minimize_membrane,
    minimize_thin_film, pi_eps_average, recovery_sequence, thin_film_total,
)
from memrelax.director_field import InfeasibleError
from memrelax.energy_models import EnergyModel, ShiftedLogBarrier
from memrelax.envelope import (EnvelopeTable, GrowthCertificate,
                               build_envelope_table)
from memrelax.pw_affine import PwAffineField, TriMesh, unit_square_mesh


def test_lp_distance_of_constant_offset():
    mesh = unit_square_mesh(2)
    base = PwAffineField(mesh, np.zeros((mesh.n_vertices, 3)))
    shifted = PwAffineField(mesh, np.tile([3.0, 0.0, 4.0], (mesh.n_vertices, 1)))
    # |(3, 0, 4)| = 5 on the unit square, for every p
    for p in (1.0, 2.0, 3.0):
        assert lp_distance(base, shifted, p) == pytest.approx(5.0, rel=1e-14)


def test_lp_distance_accepts_an_equal_copy_of_the_mesh():
    mesh = unit_square_mesh(2)
    copy = TriMesh(mesh.vertices.copy(), mesh.triangles.copy())
    a = PwAffineField(mesh, np.zeros((mesh.n_vertices, 3)))
    b = PwAffineField(copy, np.ones((mesh.n_vertices, 3)))
    assert lp_distance(a, b, 2.0) == pytest.approx(np.sqrt(3.0), rel=1e-14)


def test_lp_distance_rejects_a_different_mesh_of_the_same_size():
    mesh = unit_square_mesh(2)
    moved = mesh.vertices.copy()
    moved[4] += [0.1, 0.05]  # the interior vertex
    bent = TriMesh(moved, mesh.triangles)
    flipped = TriMesh(mesh.vertices, mesh.triangles[:, [0, 2, 1]])
    a = PwAffineField(mesh, np.zeros((mesh.n_vertices, 3)))
    for other in (bent, flipped):
        assert other.n_vertices == mesh.n_vertices
        b = PwAffineField(other, np.zeros((mesh.n_vertices, 3)))
        with pytest.raises(ValueError, match="share a mesh"):
            lp_distance(a, b, 2.0)


@pytest.mark.parametrize("model", [EnergyModel(),
                                   EnergyModel(ShiftedLogBarrier(), p=3.0)])
def test_film_objective_gradient_matches_central_difference(model):
    mesh = unit_square_mesh(2)
    load = LoadPotential(
        lambda pts, x3: np.tile([0.1, -0.2, 0.3], (len(pts), 1)), p=2.5)
    obj = _ThinObjective(model, load, mesh, 5, 0.2)
    rng = np.random.default_rng(0)
    x = obj.pack(_default_film_start(mesh, 0.2, 5))
    # an in-plane stretch keeps every prism determinant near 2.25, away
    # from the shifted log's kink at 1
    x = x.reshape(5, -1, 3)
    x[:, :, :2] *= 1.5
    x = x.reshape(-1) + 0.02 * rng.standard_normal(x.size)
    d = rng.standard_normal(x.shape)
    _, g, _ = obj(x)
    h = 1e-6
    fd = (obj(x + h * d)[0] - obj(x - h * d)[0]) / (2 * h)
    assert fd == pytest.approx(float(g @ d), rel=1e-6)


def _curved_membrane():
    mesh = unit_square_mesh(4)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    return PwAffineField(mesh, np.column_stack(
        [x + 0.1 * np.sin(y), y, 0.2 * x * y]))


def test_recovery_lift_of_constant_director_is_exact():
    # with a constant director every layer has the membrane gradient and
    # the third column is the director itself, at any thickness
    model = EnergyModel()
    v = _curved_membrane()
    phi = np.array([0.1, -0.2, 1.1])
    target = director_membrane_energy(model, v, phi)
    for eps in (0.5, 0.1, 0.01):
        _, energy = recovery_sequence(model, v, phi, eps)
        assert energy.finite == pytest.approx(target, rel=1e-12, abs=0.0)


def test_recovery_lift_converges_to_director_energy():
    # the in-plane error eps * x3 * grad(phi) is odd in x3, so the
    # thickness average cancels it to first order and the gap is O(eps^2)
    model = EnergyModel()
    v = _curved_membrane()

    def phi(pts):
        return np.column_stack([0.3 * np.sin(2.0 * pts[:, 1]),
                                0.2 * pts[:, 0],
                                1.0 + 0.5 * pts[:, 0] * pts[:, 1]])

    target = director_membrane_energy(model, v, phi)
    gaps = [abs(recovery_sequence(model, v, phi, eps)[1].finite - target)
            / target for eps in (0.1, 0.01, 0.001)]
    assert gaps[0] > 0.0
    for coarse, fine in zip(gaps, gaps[1:]):
        assert fine <= coarse / 50.0


def _linear_table():
    # 1 + 3 (s1 + s2) is bilinear, so the interpolant reproduces it, and
    # it stays above the p = 2 floor s1^2 + s2^2 on [0, 3]^2
    grid = np.linspace(0.0, 3.0, 7)
    s1, s2 = np.meshgrid(grid, grid, indexing="ij")
    cert = GrowthCertificate(c=10.0, p=2.0, r1=1.0, cbar1=1.0)
    return EnvelopeTable(grid, 1.0 + 3.0 * (s1 + s2), [], 2.0, cert, 0)


def _tilted_load():
    return LoadPotential(
        lambda pts, x3: np.tile([0.1, -0.2, 0.3], (len(pts), 1)), p=2.5)


def test_membrane_objective_gradient_matches_central_difference():
    mesh = unit_square_mesh(3)
    obj = _MembraneObjective(_linear_table(), _tilted_load(), mesh,
                             "certificate")
    rng = np.random.default_rng(4)
    flat = np.zeros((mesh.n_vertices, 3))
    flat[:, :2] = 1.3 * mesh.vertices
    x = flat.reshape(-1) + 0.02 * rng.standard_normal(flat.size)
    d = rng.standard_normal(x.shape)
    _, g, _ = obj(x)
    h = 1e-6
    fd = (obj(x + h * d)[0] - obj(x - h * d)[0]) / (2 * h)
    assert fd == pytest.approx(float(g @ d), rel=1e-6)


def test_film_total_matches_the_film_objective():
    # gamma_sweep's "total > competitor" guard compares the two
    model = EnergyModel()
    load = _tilted_load()
    mesh = unit_square_mesh(3)
    rng = np.random.default_rng(6)
    u0 = _default_film_start(mesh, 0.1, 5)
    u = PrismField(mesh, u0.values + 0.01 * rng.standard_normal(
        u0.values.shape), 0.1)
    obj = _ThinObjective(model, load, mesh, 5, 0.1)
    total = obj(obj.pack(u))[0]
    assert thin_film_total(model, load, u) == pytest.approx(total, rel=1e-12)


def test_thickness_average_inverts_the_membrane_lift():
    v = _curved_membrane()
    for eps in (0.3, 0.01):
        back = pi_eps_average(lift_membrane(v, eps, layers=7))
        np.testing.assert_allclose(back.values, v.values, rtol=0.0,
                                   atol=1e-14)


def test_prism_field_json_round_trips(tmp_path):
    u = recovery_sequence(EnergyModel(), _curved_membrane(),
                          np.array([0.0, 0.1, 1.0]), 0.05)[0]
    for clone in (PrismField.from_dict(u.to_dict()), None):
        if clone is None:
            u.save_json(tmp_path / "film.json")
            clone = PrismField.load_json(tmp_path / "film.json")
        np.testing.assert_array_equal(clone.values, u.values)
        np.testing.assert_array_equal(clone.mesh.vertices, u.mesh.vertices)
        np.testing.assert_array_equal(clone.mesh.triangles, u.mesh.triangles)
        assert clone.eps == u.eps


STOP_REASONS = ("grad_tol", "line_search_stalled", "budget")


def test_gamma_sweep_rows_are_consistent():
    report = gamma_sweep(EnergyModel(), _linear_table(),
                         LoadPotential(lambda pts, x3: np.tile(
                             [0.0, 0.0, -1.0], (len(pts), 1))),
                         unit_square_mesh(2), [0.2, 0.1], iters=5)
    assert [r.eps for r in report.rows] == [0.2, 0.1]
    for r in report.rows:
        assert all(math.isfinite(x) for x in
                   (r.e3d, r.emem, r.gap, r.lp_distance))
        assert r.gap == r.e3d - r.emem
        assert r.emem == report.meta["membrane_total"]
        assert r.lp_distance >= 0.0 and 0 <= r.iterations <= 5
        assert r.stop_reason in STOP_REASONS
    assert report.meta["membrane_stop_reason"] in STOP_REASONS
    rows = report.to_dict()["rows"]
    assert [r["stop_reason"] for r in rows] == [r.stop_reason
                                                for r in report.rows]


def _down_load():
    return LoadPotential(lambda pts, x3: np.tile(
        [0.0, 0.0, -1.0], (len(pts), 1)))


def test_membrane_descent_is_monotone_in_the_budget():
    # _descent is deterministic, so a shorter run is a prefix of a longer
    totals = [minimize_membrane(_linear_table(), _tilted_load(),
                                unit_square_mesh(2), iters=k, seeds=2,
                                seed=3).total for k in (0, 5, 20)]
    assert totals[1] <= totals[0] and totals[2] <= totals[1]
    assert totals[2] < totals[0]


def test_film_descent_is_monotone_in_the_budget():
    totals = [minimize_thin_film(EnergyModel(), _tilted_load(), 0.2,
                                 unit_square_mesh(2), layers=3, iters=k,
                                 seeds=2, seed=5).total for k in (0, 5, 20)]
    assert totals[1] <= totals[0] and totals[2] <= totals[1]
    assert totals[2] < totals[0]


def test_gamma_sweep_refuses_a_film_run_above_its_warm_start(monkeypatch):
    def above_start(model, load, eps, mesh=None, *, start, **kwargs):
        total = thin_film_total(model, load, start) + 1.0
        return MinimizeResult(field=start, total=total, energy=total,
                              load_value=0.0, iterations=0,
                              stop_reason="budget", grad_norm=0.0)

    monkeypatch.setattr(dimension_reduction, "minimize_thin_film",
                        above_start)
    with pytest.raises(RuntimeError, match="descent contract"):
        gamma_sweep(EnergyModel(), _linear_table(), _down_load(),
                    unit_square_mesh(2), [0.2], iters=5)


def test_descent_reports_why_it_stopped():
    def bowl(x):
        return float(x @ x), 2.0 * x, None

    def uphill(x):
        # the negated gradient: no step along it decreases the value
        return float(x @ x), -2.0 * x, None

    x0 = np.array([3.0, -4.0])
    assert _descent(bowl, x0, 0)[2:] == (0, "budget", 10.0)
    assert _descent(bowl, np.zeros(2), 50)[2:] == (0, "grad_tol", 0.0)
    x, f, its, reason, gnorm = _descent(bowl, x0, 50)
    assert reason == "grad_tol" and 0 < its < 50 and gnorm <= 1e-15
    assert _descent(uphill, x0, 50)[2:] == (0, "line_search_stalled", 10.0)


def test_minimizers_report_stop_reason_and_gradient_norm():
    res = minimize_membrane(_linear_table(), _tilted_load(),
                            unit_square_mesh(2), iters=0)
    assert (res.iterations, res.stop_reason) == (0, "budget")
    assert res.grad_norm > 0.0
    res = minimize_thin_film(EnergyModel(), _tilted_load(), 0.2,
                             unit_square_mesh(2), layers=3, iters=3)
    assert (res.iterations, res.stop_reason) == (3, "budget")
    assert math.isfinite(res.grad_norm) and res.grad_norm > 0.0


def test_sweep_membrane_descent_ends_on_its_budget():
    # the seed-0 sweep of the benchmark: 200 steps do not reach a
    # stationary point of the tabulated membrane energy
    table = build_envelope_table(EnergyModel(), sigma_max=2.0, pitch=0.5,
                                 depth=1)
    res = minimize_membrane(table, _down_load(), unit_square_mesh(8),
                            iters=200)
    assert (res.iterations, res.stop_reason) == (200, "budget")
    assert res.grad_norm > 1e-3


def test_membrane_guard_refuses_gradients_beyond_the_table():
    mesh = unit_square_mesh(2)
    table = _linear_table()
    obj = _MembraneObjective(table, _tilted_load(), mesh, "error")
    flat = np.zeros((mesh.n_vertices, 3))
    flat[:, :2] = mesh.vertices
    obj(flat.reshape(-1))
    # stretching x by 4 gives singular values (4, 1) against sigma_max = 3
    flat[:, 0] *= 4.0
    with pytest.raises(InfeasibleError, match="envelope box"):
        obj(flat.reshape(-1))
    with pytest.raises(InfeasibleError, match="envelope box"):
        minimize_membrane(table, _tilted_load(), mesh, outside="error",
                          start=PwAffineField(mesh, flat))
