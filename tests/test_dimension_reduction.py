import math

import numpy as np
import pytest

from memrelax import dimension_reduction
from memrelax.dimension_reduction import (
    LoadPotential, MinimizeResult, PrismField, _MembraneObjective,
    _ThinObjective, _default_film_start, _descent, director_membrane_energy,
    gamma_sweep, lift_membrane, lp_distance, minimize_membrane,
    minimize_thin_film, pi_eps_average, recovery_sequence, thin_film_energy,
    thin_film_total,
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
    x = _default_film_start(mesh, 0.2, 5).values.copy()
    # an in-plane stretch keeps every prism determinant near 2.25, away
    # from the shifted log's kink at 1
    x[:, :, :2] *= 1.5
    x = x.reshape(-1) + 0.02 * rng.standard_normal(x.size)
    d = rng.standard_normal(x.shape)
    g = obj.gradient(obj(x)[1])
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
    g = obj.gradient(obj(x)[1])
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
    total = obj(u.values.reshape(-1))[0]
    assert thin_film_total(model, load, u) == total


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
        assert r.gradients == r.iterations + 1
        assert r.evaluations == r.gradients + r.backtracks
    meta = report.meta
    assert meta["membrane_stop_reason"] in STOP_REASONS
    assert meta["membrane_gradients"] == meta["membrane_iterations"] + 1
    assert meta["membrane_evaluations"] == (meta["membrane_gradients"]
                                            + meta["membrane_backtracks"])
    secs = meta["seconds"]
    assert len(secs["films"]) == 2
    assert all(x >= 0.0 for x in [secs["membrane"], secs["assignment"]]
               + secs["films"])
    out = report.to_dict()
    assert list(out) == ["meta", "rows"]
    keys = ["eps", "e3d", "emem", "gap", "lp_distance", "iterations",
            "stop_reason", "evaluations", "gradients", "backtracks"]
    for row, r in zip(out["rows"], report.rows):
        assert list(row) == keys
        assert [row[k] for k in keys] == [getattr(r, k) for k in keys]


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
                              stop_reason="budget", grad_norm=0.0,
                              evaluations=1, gradients=1, backtracks=0)

    monkeypatch.setattr(dimension_reduction, "minimize_thin_film",
                        above_start)
    with pytest.raises(RuntimeError, match="descent contract"):
        gamma_sweep(EnergyModel(), _linear_table(), _down_load(),
                    unit_square_mesh(2), [0.2], iters=5)


def test_descent_reports_why_it_stopped():
    def bowl(x):
        return float(x @ x), (None, x)

    def slope(state):
        return 2.0 * state[1]

    def uphill(state):
        # the negated gradient: no step along it decreases the value
        return -2.0 * state[1]

    def stop(run):
        return run.accepted, run.stop_reason, run.grad_norm

    x0 = np.array([3.0, -4.0])
    assert stop(_descent(bowl, slope, x0, 0)) == (0, "budget", 10.0)
    assert stop(_descent(bowl, slope, np.zeros(2), 50)) == (0, "grad_tol",
                                                            0.0)
    its, reason, gnorm = stop(_descent(bowl, slope, x0, 50))
    assert reason == "grad_tol" and 0 < its < 50 and gnorm <= 1e-15
    assert stop(_descent(bowl, uphill, x0, 50)) == (
        0, "line_search_stalled", 10.0)


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


def _eager_descent(obj, x0, iters, guard=None):
    # the descent loop as it ran before the value/gradient split: the
    # gradient is built at every trial point, rejected ones included
    def value_grad(x):
        f, state = obj(x)
        g = obj.gradient(state) if math.isfinite(f) else np.zeros_like(x)
        return f, g, state[0]

    f, g, state = value_grad(x0)
    if not math.isfinite(f):
        raise InfeasibleError("starting configuration has infinite energy")
    x = x0
    prev_x = prev_g = None
    accepted = 0
    reason = "budget"
    for _ in range(iters):
        gn2 = float(np.dot(g, g))
        if gn2 <= 1e-30:
            reason = "grad_tol"
            break
        if prev_x is None:
            t = 1.0 / max(1.0, math.sqrt(gn2))
        else:
            s = x - prev_x
            y = g - prev_g
            sy = float(np.dot(s, y))
            t = float(np.dot(s, s)) / sy if sy > 1e-30 else 1.0
        t = min(max(t, 1e-12), 1e3)
        ok = False
        for _ in range(60):
            x1 = x - t * g
            f1, g1, state1 = value_grad(x1)
            if (math.isfinite(f1) and f1 <= f - 1e-4 * t * gn2
                    and (guard is None or guard(state, state1))):
                ok = True
                break
            t *= 0.5
            if t < 1e-14:
                break
        if not ok:
            reason = "line_search_stalled"
            break
        prev_x, prev_g = x, g
        x, f, g, state = x1, f1, g1, state1
        accepted += 1
    return x, f, accepted, reason, math.sqrt(float(np.dot(g, g)))


class _Counted:
    """An objective that counts its value calls and gradient builds."""

    def __init__(self, obj):
        self.obj = obj
        self.values = self.gradients = 0

    def __call__(self, x):
        self.values += 1
        return self.obj(x)

    def gradient(self, state):
        self.gradients += 1
        return self.obj.gradient(state)


def _check_against_eager(obj, x0, iters, guard=None):
    counted = _Counted(obj)
    run = _descent(counted, counted.gradient, x0, iters, guard=guard)
    x, f, accepted, reason, gnorm = _eager_descent(obj, x0, iters, guard)
    np.testing.assert_array_equal(run.x, x)
    assert (run.value, run.accepted, run.stop_reason, run.grad_norm) == (
        f, accepted, reason, gnorm)
    # gradients only at the start and at accepted steps; every other
    # value was a rejected trial
    assert counted.gradients == run.gradients == run.accepted + 1
    assert counted.values == run.evaluations
    assert run.evaluations == 1 + run.accepted + run.backtracks
    assert run.backtracks > 0
    return run


@pytest.mark.parametrize("eps", [0.2, 0.05])
def test_film_descent_matches_the_eager_reference(eps):
    mesh = unit_square_mesh(2)
    obj = _ThinObjective(EnergyModel(), _tilted_load(), mesh, 5, eps)
    rng = np.random.default_rng(7)
    x0 = _default_film_start(mesh, eps, 5).values.reshape(-1)
    x0 = x0 + 0.01 * rng.standard_normal(x0.shape)
    run = _check_against_eager(obj, x0, 40,
                               guard=dimension_reduction._sign_guard)
    assert run.accepted == 40


def test_membrane_descent_matches_the_eager_reference():
    mesh = unit_square_mesh(3)
    obj = _MembraneObjective(_linear_table(), _tilted_load(), mesh,
                             "certificate")
    rng = np.random.default_rng(8)
    flat = np.zeros((mesh.n_vertices, 3))
    flat[:, :2] = 1.3 * mesh.vertices
    x0 = flat.reshape(-1) + 0.02 * rng.standard_normal(flat.size)
    _check_against_eager(obj, x0, 40)


def test_membrane_guard_refuses_a_trial_point_beyond_the_table():
    # the start has singular values (2.8, 2.8) against sigma_max = 3; the
    # load pulls the interior vertex harder than the boundary ones, so the
    # first trial step stretches a cell out of the box. The guard runs on
    # every value, trial points included.
    mesh = unit_square_mesh(2)
    load = LoadPotential(lambda pts, x3: np.tile([-10.0, 0.0, 0.0],
                                                 (len(pts), 1)))
    obj = _MembraneObjective(_linear_table(), load, mesh, "error")
    flat = np.zeros((mesh.n_vertices, 3))
    flat[:, :2] = 2.8 * mesh.vertices
    x0 = flat.reshape(-1)
    g = obj.gradient(obj(x0)[1])
    trial = x0 - g / max(1.0, float(np.linalg.norm(g)))
    with pytest.raises(InfeasibleError, match="envelope box"):
        obj(trial)
    with pytest.raises(InfeasibleError, match="envelope box"):
        _descent(obj, obj.gradient, x0, 5)


def test_membrane_outside_error_raises_a_mid_run_exit_from_the_box():
    # the flat start lies in the box and its first trial step leaves it;
    # the jittered second start would descend, so skipping the first run
    # as a refused start would return a result instead of raising
    table, load, mesh = _linear_table(), _tilted_load(), unit_square_mesh(2)
    with pytest.raises(InfeasibleError, match="envelope box"):
        minimize_membrane(table, load, mesh, outside="error", iters=5,
                          seeds=2, seed=0, jitter=0.1)
    x0 = np.column_stack([mesh.vertices, np.zeros(9)]).reshape(-1)
    rng = np.random.default_rng(0)
    x1 = x0 + 0.1 * max(1.0, float(np.sqrt(np.mean(x0 * x0)))) \
        * rng.standard_normal(x0.shape)
    res = minimize_membrane(table, load, mesh, outside="error", iters=5,
                            start=PwAffineField(mesh, x1.reshape(-1, 3)))
    assert math.isfinite(res.total)


def test_membrane_outside_error_raises_the_first_refusal():
    # stretching x by 4 puts both starts outside the box: each is refused
    # at its first evaluation and the first refusal is raised
    mesh = unit_square_mesh(2)
    flat = np.column_stack([4.0 * mesh.vertices[:, 0], mesh.vertices[:, 1],
                            np.zeros(9)])
    with pytest.raises(InfeasibleError, match="envelope box"):
        minimize_membrane(_linear_table(), _tilted_load(), mesh,
                          outside="error", seeds=2,
                          start=PwAffineField(mesh, flat))


def _reference_multi_start(obj, x0, iters, seeds, seed, jitter, guard=None):
    # the multi-start loop and best-run pick as they ran before the shared
    # driver: the film loop, which skips starts refused by _descent
    rng = np.random.default_rng(seed)
    scale = jitter * max(1.0, float(np.sqrt(np.mean(x0 * x0))))
    runs = []
    refused = 0
    for k in range(max(1, seeds)):
        xk = x0 if k == 0 else x0 + scale * rng.standard_normal(x0.shape)
        try:
            runs.append(_descent(obj, obj.gradient, xk, iters, guard=guard))
        except InfeasibleError:
            refused += 1
    best = min(runs, key=lambda r: r.value)
    return best, dict(
        iterations=best.accepted, stop_reason=best.stop_reason,
        grad_norm=best.grad_norm,
        evaluations=refused + sum(r.evaluations for r in runs),
        gradients=sum(r.gradients for r in runs),
        backtracks=sum(r.backtracks for r in runs))


def _check_against_reference(res, obj, x0, guard=None):
    best, fields = _reference_multi_start(obj, x0, 20, 3, 5, 0.01, guard)
    np.testing.assert_array_equal(res.field.values.reshape(-1), best.x)
    assert res.total == best.value
    assert {k: getattr(res, k) for k in fields} == fields
    assert res.energy + res.load_value == res.total


def test_membrane_multi_start_matches_the_reference():
    table, load, mesh = _linear_table(), _tilted_load(), unit_square_mesh(2)
    res = minimize_membrane(table, load, mesh, iters=20, seeds=3, seed=5)
    obj = _MembraneObjective(table, load, mesh, "certificate")
    x0 = np.column_stack([mesh.vertices, np.zeros(9)]).reshape(-1)
    _check_against_reference(res, obj, x0)
    assert res.energy == pytest.approx(float(np.dot(
        mesh.areas, table.values_at(res.field.gradients()))), rel=1e-12)


def test_film_multi_start_matches_the_reference():
    model, load, mesh = EnergyModel(), _tilted_load(), unit_square_mesh(2)
    obj = _ThinObjective(model, load, mesh, 3, 0.2)
    flat = PwAffineField(mesh, np.column_stack([mesh.vertices,
                                                np.zeros(9)]))
    # the default start, then a layer-constant one that one evaluation
    # refuses (zero determinants) before its jittered copies descend
    for start, refused in ((_default_film_start(mesh, 0.2, 3), 0),
                           (lift_membrane(flat, 0.2, layers=3), 1)):
        res = minimize_thin_film(model, load, 0.2, start=start, iters=20,
                                 seeds=3, seed=5)
        _check_against_reference(res, obj, start.values.reshape(-1),
                                 dimension_reduction._sign_guard)
        assert res.energy == thin_film_energy(res.field, model).finite
        assert res.evaluations == (refused + res.gradients
                                   + res.backtracks)


def test_minimizers_count_values_gradients_and_backtracks():
    load = _tilted_load()
    mesh = unit_square_mesh(2)
    res = minimize_membrane(_linear_table(), load, mesh, iters=20, seeds=2,
                            seed=3)
    assert res.gradients >= res.iterations + 2  # two starts
    assert res.evaluations == res.gradients + res.backtracks
    res = minimize_thin_film(EnergyModel(), load, 0.2, mesh, layers=3,
                             iters=20, seeds=2, seed=5)
    assert res.gradients >= res.iterations + 2
    assert res.evaluations == res.gradients + res.backtracks
    # a layer-constant start has zero determinants: one evaluation refuses
    # it and only the jittered start descends
    flat = PwAffineField(mesh, np.column_stack([mesh.vertices,
                                                np.zeros(9)]))
    res = minimize_thin_film(EnergyModel(), load, 0.2,
                             start=lift_membrane(flat, 0.2, layers=3),
                             iters=20, seeds=2, seed=5)
    assert res.gradients == res.iterations + 1
    assert res.evaluations == 1 + res.gradients + res.backtracks


def test_recovery_sweep_rows_count_no_descent():
    report = gamma_sweep(EnergyModel(), _linear_table(), _down_load(),
                         unit_square_mesh(2), [0.2, 0.1], iters=5,
                         mode="recovery")
    for r in report.rows:
        assert (r.iterations, r.stop_reason) == (0, None)
        assert (r.evaluations, r.gradients, r.backtracks) == (0, 0, 0)
    assert len(report.meta["seconds"]["films"]) == 2
