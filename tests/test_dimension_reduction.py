import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from memrelax import dimension_reduction
from memrelax.dimension_reduction import (
    _GRAD_TOL, _MEMORY, LoadPotential, MinimizeResult, PrismField, _Lbfgs,
    _MembraneObjective,
    _ThinObjective, _descent, _film_energy, _lift, gamma_sweep, lp_distance,
    minimize_membrane, minimize_thin_film, pi_eps_average, recovery_sequence,
)
from memrelax.director_field import InfeasibleError, build_assignment
from memrelax.energy_models import (EnergyModel, ReciprocalBarrier,
                                    ShiftedLogBarrier)
from memrelax.envelope import EnvelopeTable, build_envelope_table
from memrelax.pw_affine import PwAffineField, TriMesh, unit_square_mesh
from oracles import (director_membrane_energy, perturbed_square_mesh,
                     single_triangle_mesh, strided_film_gradient,
                     strided_film_value)


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


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.0, -1.0, 0.5])
def test_lp_distance_refuses_an_exponent_outside_one_to_infinity(p):
    # for two equal fields p = inf read 1.0, NaN read NaN, 0 divided by
    # zero and -1 read 0.0 after a divide-by-zero warning
    mesh = unit_square_mesh(2)
    a = PwAffineField(mesh, np.zeros((mesh.n_vertices, 3)))
    with pytest.raises(ValueError, match=r"p must lie in \[1, inf\)"):
        lp_distance(a, a, p)


def _film_objective(model, load, mesh, x, eps):
    """The film objective started at the flat nodal values x."""
    start = PrismField(mesh, x.reshape(-1, mesh.n_vertices, 3), eps)
    return _ThinObjective(model, load, start)


def _flat_film(mesh, eps, layers):
    """The flat membrane lifted along the unit normal."""
    return _lift(_flat(mesh), np.array([0.0, 0.0, 1.0]), eps, layers)


def _total(obj, x):
    """An objective's value at x: its energy plus its load."""
    energy, load, _ = obj(x)
    return energy + load


def _film_energy_at(model, u):
    """The film energy of u, as a zero-step film descent values it."""
    zero = LoadPotential(lambda pts, x3: np.zeros((len(pts), 3)))
    return minimize_thin_film(model, zero, u, iters=0).energy


@pytest.mark.parametrize("layers", [3, 5, 7])
@pytest.mark.parametrize("model", [EnergyModel(),
                                   EnergyModel(ShiftedLogBarrier(), p=3.0)])
def test_film_objective_gradient_matches_central_difference(model, layers):
    # three layers have no middle row, in which two prisms' slopes meet
    mesh = unit_square_mesh(2)
    load = LoadPotential(
        lambda pts, x3: np.tile([0.1, -0.2, 0.3], (len(pts), 1)), p=2.5)
    rng = np.random.default_rng(0)
    x = _flat_film(mesh, 0.2, layers).values.copy()
    # an in-plane stretch keeps every prism determinant near 2.25, away
    # from the shifted log's kink at 1
    x[:, :, :2] *= 1.5
    x = x.reshape(-1) + 0.02 * rng.standard_normal(x.size)
    obj = _film_objective(model, load, mesh, x, 0.2)
    d = rng.standard_normal(x.shape)
    g = obj.gradient(obj(x)[2])
    h = 1e-6
    fd = (_total(obj, x + h * d) - _total(obj, x - h * d)) / (2 * h)
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
        energy = _film_energy_at(model, recovery_sequence(v, phi, eps))
        assert energy == pytest.approx(target, rel=1e-12, abs=0.0)


def test_recovery_lift_converges_to_director_energy():
    # the in-plane error eps * x3 * grad(phi) is odd in x3, so the
    # thickness average cancels it to first order and the gap is O(eps^2)
    model = EnergyModel()
    v = _curved_membrane()
    x, y = v.mesh.vertices.T
    phi = np.column_stack([0.3 * np.sin(2.0 * y), 0.2 * x,
                           1.0 + 0.5 * x * y])

    target = director_membrane_energy(model, v, phi)
    gaps = [abs(_film_energy_at(model, recovery_sequence(v, phi, eps))
                - target) / target for eps in (0.1, 0.01, 0.001)]
    assert gaps[0] > 0.0
    for coarse, fine in zip(gaps, gaps[1:]):
        assert fine <= coarse / 50.0


def test_sweep_json_is_strict(tmp_path):
    # the report writes no NaN or infinity: a strict reader loads it back,
    # and a report holding one is refused
    report = gamma_sweep(EnergyModel(), _linear_table(), _down_load(),
                         unit_square_mesh(2), [0.2], iters=2)
    path = tmp_path / "sweep.json"
    report.save_json(path)

    def refuse(name):
        raise AssertionError(f"the JSON holds {name}")

    assert json.loads(path.read_text(), parse_constant=refuse) \
        == json.loads(json.dumps(report.to_dict()))
    broken = dimension_reduction.SweepReport(report.rows,
                                             {"membrane_total": math.nan})
    with pytest.raises(ValueError):
        broken.save_json(tmp_path / "nan.json")


def _linear_table():
    # 1 + 3 (s1 + s2) is bilinear, so the interpolant reproduces it, and
    # it stays above the p = 2 floor s1^2 + s2^2 on [0, 3]^2
    grid = np.linspace(0.0, 3.0, 7)
    s1, s2 = np.meshgrid(grid, grid, indexing="ij")
    return EnvelopeTable(grid, 1.0 + 3.0 * (s1 + s2), EnergyModel())


def _tilted_load():
    return LoadPotential(
        lambda pts, x3: np.tile([0.1, -0.2, 0.3], (len(pts), 1)), p=2.5)


def test_membrane_objective_gradient_matches_central_difference():
    mesh = unit_square_mesh(3)
    obj = _MembraneObjective(_linear_table(), _tilted_load(), mesh)
    rng = np.random.default_rng(4)
    flat = np.zeros((mesh.n_vertices, 3))
    flat[:, :2] = 1.3 * mesh.vertices
    x = flat.reshape(-1) + 0.02 * rng.standard_normal(flat.size)
    d = rng.standard_normal(x.shape)
    g = obj.gradient(obj(x)[2])
    h = 1e-6
    fd = (_total(obj, x + h * d) - _total(obj, x - h * d)) / (2 * h)
    assert fd == pytest.approx(float(g @ d), rel=1e-6)


def test_linear_table_slope_is_its_isotropic_derivative():
    # B = 1 + 3 (s1 + s2) is 1 + 3 times the nuclear norm, whose
    # derivative at full rank is xi (xi^T xi)^(-1/2)
    rng = np.random.default_rng(11)
    xis = rng.uniform(-1.0, 1.0, (64, 3, 2))
    w, q = np.linalg.eigh(np.einsum("kia,kib->kab", xis, xis))
    expect = 3.0 * xis @ (q * w[:, None, :] ** -0.5) @ q.transpose(0, 2, 1)
    table = _linear_table()
    np.testing.assert_allclose(table.lookup(xis).slopes(), expect,
                               rtol=1e-9, atol=1e-12)
    # the slope is scale-free, also where the Gram entries would underflow
    np.testing.assert_allclose(table.lookup(xis * 1e-170).slopes(), expect,
                               rtol=1e-9, atol=1e-12)


class _CountingTable:
    """A table that counts its lookups and the matrices they read."""

    def __init__(self, table):
        self.table = table
        self.reads = {"lookups": 0, "cells": 0}

    def lookup(self, xis):
        self.reads["lookups"] += 1
        self.reads["cells"] += len(xis)
        return self.table.lookup(xis)


def test_membrane_gradient_reads_each_cell_once_through_the_slopes():
    # one lookup per value call; the gradient reads the slopes from the
    # lookup kept in the state and looks nothing up again
    mesh = unit_square_mesh(3)
    table = _CountingTable(_linear_table())
    obj = _MembraneObjective(table, _tilted_load(), mesh)
    state = obj(1.3 * _flat(mesh).values.reshape(-1))[2]
    assert table.reads == {"lookups": 1, "cells": mesh.n_cells}
    obj.gradient(state)
    assert table.reads == {"lookups": 1, "cells": mesh.n_cells}


def test_load_slope_of_a_zero_row_is_psi_without_a_warning():
    # for p < 2, |zeta|^(p - 2) is infinite at zeta = 0
    load = LoadPotential(lambda pts, x3: np.tile(
        [0.1, -0.2, 0.3], (len(pts), 1)), p=1.5)
    psi = np.array([[0.1, -0.2, 0.3], [0.4, 0.0, -0.1]])
    zeta = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 4.0]])
    mesh = unit_square_mesh(2)
    zero = PwAffineField(mesh, np.zeros((mesh.n_vertices, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope = load.slope(psi, zeta, load.terms(psi, zeta)[1])
        res = minimize_membrane(_linear_table(), load, mesh, start=zero,
                                iters=5)
    np.testing.assert_array_equal(slope[0], psi[0])
    np.testing.assert_allclose(slope[1], psi[1] + 1.5 * 5.0 ** -0.5
                               * zeta[1], rtol=1e-15)
    # the start's value: B(0) = 1, and the load vanishes at zeta = 0
    assert res.total <= 1.0


@pytest.mark.parametrize("p", [math.inf, math.nan, 1.0])
def test_load_rejects_an_exponent_that_is_not_finite_above_one(p):
    # p = +inf made |zeta|^p read 0 below |zeta| = 1 and inf beyond it
    with pytest.raises(ValueError, match="load exponent"):
        LoadPotential(lambda pts, x3: np.zeros((len(pts), 3)), p=p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_nonfinite_load_is_refused_before_any_descent(bad):
    # refused where the load is sampled, before a non-finite start total
    # could read as an infeasible start
    def psi(pts, x3):
        out = np.tile([0.1, -0.2, 0.3], (len(pts), 1))
        out[-1, 2] = bad
        return out

    load, mesh = LoadPotential(psi), unit_square_mesh(2)
    runs = [
        lambda: minimize_thin_film(EnergyModel(), load,
                                   _flat_film(mesh, 0.2, 5), iters=3),
        lambda: minimize_membrane(_linear_table(), load, mesh, iters=3),
        lambda: gamma_sweep(EnergyModel(), _linear_table(), load, mesh,
                            [0.2], iters=3),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="load field returned NaN"):
            run()


def test_a_negative_budget_is_refused():
    mesh = unit_square_mesh(2)
    runs = [
        lambda: _descent(lambda x: (float(x @ x), 0.0, x),
                         lambda state: 2.0 * state, np.ones(2), -1),
        lambda: minimize_membrane(_linear_table(), _tilted_load(), mesh,
                                  iters=-3),
        lambda: minimize_thin_film(EnergyModel(), _tilted_load(),
                                   _flat_film(mesh, 0.2, 5), iters=-3),
        lambda: gamma_sweep(EnergyModel(), _linear_table(), _down_load(),
                            mesh, [0.2], iters=-3),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="iters must be nonnegative"):
            run()


@pytest.mark.parametrize("iters", [True, False, 2.0, 1.5])
def test_a_budget_that_is_not_an_integer_is_refused(iters):
    # True ran one step and 2.0 raised TypeError from range
    mesh = unit_square_mesh(2)
    runs = [
        lambda: minimize_membrane(_linear_table(), _tilted_load(), mesh,
                                  iters=iters),
        lambda: minimize_thin_film(EnergyModel(), _tilted_load(),
                                   _flat_film(mesh, 0.2, 5), iters=iters),
        lambda: gamma_sweep(EnergyModel(), _linear_table(), _down_load(),
                            mesh, [0.2], iters=iters),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="an integer"):
            run()
    res = minimize_membrane(_linear_table(), _tilted_load(), mesh,
                            iters=np.int64(2))
    assert res.iterations <= 2


def test_gamma_sweep_refuses_a_model_that_is_not_its_tables(monkeypatch):
    # the film reads the sweep's model and the membrane the table's, so
    # the two must be one W; the check runs before the membrane descent
    def never(*args, **kwargs):
        raise AssertionError("the membrane descent ran")

    mesh = unit_square_mesh(2)
    with monkeypatch.context() as patched:
        patched.setattr(dimension_reduction, "minimize_membrane", never)
        with pytest.raises(ValueError, match="table's model"):
            gamma_sweep(EnergyModel(ShiftedLogBarrier(), p=2.0),
                        _linear_table(), _down_load(), mesh, [0.2], iters=5)
    report = gamma_sweep(EnergyModel(), _linear_table(), _down_load(), mesh,
                         [0.2], iters=5)
    assert len(report.rows) == 1


@pytest.mark.parametrize("schedule", [[math.nan], [math.inf], [-0.1],
                                      [0.2, 0.0], [0.2, -0.1]])
def test_gamma_sweep_checks_thicknesses_before_the_membrane_descent(
        monkeypatch, schedule):
    def never(*args, **kwargs):
        raise AssertionError("the membrane descent ran")

    monkeypatch.setattr(dimension_reduction, "minimize_membrane", never)
    with pytest.raises(ValueError, match="finite and positive"):
        gamma_sweep(EnergyModel(), _linear_table(), _down_load(),
                    unit_square_mesh(2), schedule, iters=5)


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -0.1])
def test_prism_field_and_recovery_sequence_refuse_a_bad_thickness(eps):
    # refused before the lift multiplies by it: inf times the mid-layer
    # height 0 is NaN
    mesh = unit_square_mesh(2)
    refusal = "thickness must be finite and positive"
    with pytest.raises(ValueError, match=refusal):
        PrismField(mesh, np.zeros((3, mesh.n_vertices, 3)), eps)
    with pytest.raises(ValueError, match=refusal):
        recovery_sequence(_flat(mesh), np.array([0.0, 0.0, 1.0]), eps)


def test_film_total_matches_the_film_objective():
    # a zero-step descent values its start like any film objective with
    # the same determinant signs; gamma_sweep's guard compares a film run's
    # total with that start total
    model = EnergyModel()
    load = _tilted_load()
    mesh = unit_square_mesh(3)
    rng = np.random.default_rng(6)
    u0 = _flat_film(mesh, 0.1, 5)
    u = PrismField(mesh, u0.values + 0.01 * rng.standard_normal(
        u0.values.shape), 0.1)
    obj = _ThinObjective(model, load, u0)
    _total(obj, u0.values.reshape(-1))  # the start records its signs
    total = _total(obj, u.values.reshape(-1))
    res = minimize_thin_film(model, load, u, iters=0)
    assert res.total == res.start_total == total


def test_thickness_average_inverts_the_membrane_lift():
    v = _curved_membrane()
    for eps in (0.3, 0.01):
        back = pi_eps_average(_lift(v, np.zeros(3), eps, 7))
        np.testing.assert_allclose(back.values, v.values, rtol=0.0,
                                   atol=1e-14)


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
            "stop_reason", "grad_norm", "evaluations", "gradients",
            "backtracks"]
    for row, r in zip(out["rows"], report.rows):
        assert list(row) == keys
        assert [row[k] for k in keys] == [getattr(r, k) for k in keys]


def _down_load():
    return LoadPotential(lambda pts, x3: np.tile(
        [0.0, 0.0, -1.0], (len(pts), 1)))


def test_membrane_descent_is_monotone_in_the_budget():
    # _descent is deterministic, so a shorter run is a prefix of a longer
    totals = [minimize_membrane(_linear_table(), _tilted_load(),
                                unit_square_mesh(2), iters=k).total
              for k in (0, 5, 20)]
    assert totals[1] <= totals[0] and totals[2] <= totals[1]
    assert totals[2] < totals[0]


def test_film_descent_is_monotone_in_the_budget():
    start = _flat_film(unit_square_mesh(2), 0.2, 3)
    totals = [minimize_thin_film(EnergyModel(), _tilted_load(), start,
                                 iters=k).total for k in (0, 5, 20)]
    assert totals[1] <= totals[0] and totals[2] <= totals[1]
    assert totals[2] < totals[0]


def test_gamma_sweep_refuses_a_film_run_above_its_warm_start(monkeypatch):
    def above_start(model, load, start, *, iters):
        start_total = _total(_ThinObjective(model, load, start),
                             start.values.reshape(-1))
        total = start_total + 1.0
        return MinimizeResult(field=start, total=total,
                              start_total=start_total, energy=total,
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
        return float(x @ x), 0.0, x

    def slope(state):
        return 2.0 * state

    def uphill(state):
        # the negated gradient: no step along it decreases the value
        return -2.0 * state

    def stop(run):
        return run.iterations, run.stop_reason, run.grad_norm

    x0 = np.array([3.0, -4.0])
    assert stop(_descent(bowl, slope, x0, 0)) == (0, "budget", 10.0)
    assert stop(_descent(bowl, slope, np.zeros(2), 50)) == (0, "grad_tol",
                                                            0.0)
    its, reason, gnorm = stop(_descent(bowl, slope, x0, 50))
    assert reason == "grad_tol" and 0 < its < 50 and gnorm <= 1e-15
    assert stop(_descent(bowl, uphill, x0, 50)) == (
        0, "line_search_stalled", 10.0)


def test_descent_replaces_an_ascent_direction_by_the_negative_gradient(
        monkeypatch):
    # with every memory direction pointing uphill, each step clears the
    # memory and steps along -g, which still reaches the bowl's minimum
    def bowl(x):
        return float(x @ x), 0.0, x

    monkeypatch.setattr(_Lbfgs, "direction", lambda self, g: g.copy())
    run = _descent(bowl, lambda state: 2.0 * state,
                   np.array([3.0, -4.0]), 100)
    assert run.stop_reason == "grad_tol" and run.iterations > 1


def test_descent_stops_on_the_scaled_gradient_test():
    # a bowl 1e6 high: its gradient falls to |g| <= 1e-10 (1 + |f|), about
    # 1e-4, long before |g|^2 <= 1e-30, which steps of a few ulps of x
    # around the minimizer 0.1 (not a float) would never reach
    c = np.logspace(0.0, 3.0, 8)

    def value(x):
        return 1e6 + float(np.dot(c * (x - 0.1), x - 0.1)), 0.0, x

    run = _descent(value, lambda x: 2.0 * c * (x - 0.1), np.zeros(8), 500)
    assert run.stop_reason == "grad_tol" and 0 < run.iterations < 500
    assert run.grad_norm <= _GRAD_TOL * (1.0 + abs(run.total))
    assert run.grad_norm ** 2 > 1e-30


def test_lbfgs_direction_is_the_two_loop_recursion():
    # the ring buffers against the textbook recursion over a list of the
    # newest pairs; one pair without curvature is skipped, and eight kept
    # pairs wrap the ring
    rng = np.random.default_rng(3)
    n = 7
    memory, kept = _Lbfgs(n), []
    for k in range(9):
        s = rng.standard_normal(n)
        y = -s if k == 4 else s * rng.uniform(0.5, 2.0, n)
        memory.update(s, y)
        if k != 4:
            kept.append((s, y))
    kept = kept[-_MEMORY:]
    assert memory.size == _MEMORY
    g = rng.standard_normal(n)
    q, alphas = g.copy(), []
    for s, y in reversed(kept):
        a = (s @ q) / (s @ y)
        alphas.append(a)
        q -= a * y
    s, y = kept[-1]
    r = (s @ y) / (y @ y) * q
    for (s, y), a in zip(kept, reversed(alphas)):
        r += (a - (y @ r) / (s @ y)) * s
    np.testing.assert_allclose(memory.direction(g), -r, rtol=1e-12)
    memory.clear()
    np.testing.assert_array_equal(memory.direction(g), -g)


def _two_loop(kept, g):
    """-H g by the textbook two-loop recursion over the pairs, oldest
    first."""
    q, alphas = g.copy(), []
    for s, y in reversed(kept):
        a = (s @ q) / (s @ y)
        alphas.append(a)
        q -= a * y
    s, y = kept[-1]
    r = (s @ y) / (y @ y) * q
    for (s, y), a in zip(kept, reversed(alphas)):
        r += (a - (y @ r) / (s @ y)) * s
    return -r


def test_lbfgs_direction_with_few_pairs_and_after_a_clear():
    # one and two pairs, then pairs kept after clear() in mid-ring: the
    # slots still hold the older pairs, which must not enter the direction
    rng = np.random.default_rng(5)
    n = 7

    def pair():
        s = rng.standard_normal(n)
        return s, s * rng.uniform(0.5, 2.0, n)

    g = rng.standard_normal(n)
    memory, kept = _Lbfgs(n), []
    for _ in range(2):
        kept.append(pair())
        memory.update(*kept[-1])
        np.testing.assert_allclose(memory.direction(g), _two_loop(kept, g),
                                   rtol=1e-12)
    for _ in range(2):
        memory.update(*pair())
    memory.clear()
    kept = []
    for _ in range(3):  # slots 4, 0 and 1: the ring wraps
        kept.append(pair())
        memory.update(*kept[-1])
        assert memory.size == len(kept)
        np.testing.assert_allclose(memory.direction(g), _two_loop(kept, g),
                                   rtol=1e-12)


def _bb_descent(value, gradient, x0, iters):
    # the Barzilai-Borwein steps with a monotone Armijo test that the
    # L-BFGS direction replaced; returns (accepted, evaluations, reason)
    def total(x):
        energy, load, state = value(x)
        return energy + load, state

    f, state = total(x0)
    g = gradient(state)
    x, prev_x, prev_g = x0, None, None
    accepted, evaluations, reason = 0, 1, "budget"
    for _ in range(iters):
        gn2 = float(np.dot(g, g))
        if math.sqrt(gn2) <= _GRAD_TOL * (1.0 + abs(f)):
            reason = "grad_tol"
            break
        if prev_x is None:
            t = 1.0 / max(1.0, math.sqrt(gn2))
        else:
            s, y = x - prev_x, g - prev_g
            sy = float(np.dot(s, y))
            t = float(np.dot(s, s)) / sy if sy > 1e-30 else 1.0
        t = min(max(t, 1e-12), 1e3)
        for _ in range(60):
            x1 = x - t * g
            f1, state = total(x1)
            evaluations += 1
            if f1 <= f - 1e-4 * t * gn2:
                break
            t *= 0.5
        else:
            return accepted, evaluations, "line_search_stalled"
        prev_x, prev_g = x, g
        x, f, g = x1, f1, gradient(state)
        accepted += 1
    return accepted, evaluations, reason


def _diagonal_bowl(n, condition):
    c = np.logspace(0.0, math.log10(condition), n)

    def value(x):
        return 0.5 * float(np.dot(c * x, x)), 0.0, x

    return value, lambda state: c * state


def test_descent_beats_barzilai_borwein_on_an_ill_conditioned_bowl():
    value, slope = _diagonal_bowl(20, 1e3)
    x0 = np.ones(20)
    bb_steps, bb_evals, bb_reason = _bb_descent(value, slope, x0, 5000)
    run = _descent(value, slope, x0, 5000)
    assert bb_reason == run.stop_reason == "grad_tol"
    assert run.iterations < bb_steps and run.evaluations < bb_evals


def test_descent_memory_stays_bounded():
    # the pairs live in fixed (_MEMORY, n) buffers: 2 * _MEMORY vectors,
    # and a few more for x, g, the direction, the trial point and the new
    # pair; a growing pair history would pass the bound within 20 steps
    n = 100_000
    value, slope = _diagonal_bowl(n, 1e3)
    x0 = np.ones(n)
    tracemalloc.start()
    try:
        run = _descent(value, slope, x0, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (run.iterations, run.stop_reason) == (20, "budget")
    assert peak < (2 * _MEMORY + 8) * 8 * n


def test_minimizers_report_stop_reason_and_gradient_norm():
    res = minimize_membrane(_linear_table(), _tilted_load(),
                            unit_square_mesh(2), iters=0)
    assert (res.iterations, res.stop_reason) == (0, "budget")
    assert res.grad_norm > 0.0
    res = minimize_thin_film(EnergyModel(), _tilted_load(),
                             _flat_film(unit_square_mesh(2), 0.2, 3),
                             iters=3)
    assert (res.iterations, res.stop_reason) == (3, "budget")
    assert math.isfinite(res.grad_norm) and res.grad_norm > 0.0


@pytest.fixture(scope="module")
def sweep_table():
    # the set-up table of the benchmark's seed-0 sweep
    return build_envelope_table(EnergyModel(), sigma_max=2.0, pitch=0.5,
                                depth=1)


# the relaxed membrane minimum under the unit downward load:
# inf W0 - |psi|^2 / 4, with inf W0 = inf W = 5 * 2^(-2/5) for h = 1/x, p = 2
EMEM_STAR = 5.0 * 2.0 ** -0.4 - 0.25


def _bench_load(seed):
    """The sweep benchmark's constant load at a seed: (0, 0, -1), each
    component moved by at most 0.05 at seeds other than 0."""
    load = np.array([0.0, 0.0, -1.0])
    if seed != 0:
        load += np.random.default_rng(seed).uniform(-0.05, 0.05, size=3)
    return load, LoadPotential(lambda pts, x3: np.tile(load, (len(pts), 1)))


@pytest.mark.parametrize("seed", range(3))
def test_sweep_membrane_stops_at_the_relaxed_minimum(sweep_table, seed):
    # the benchmark's sweeps: the table holds the relaxed density, whose
    # membrane minimum is emem* = W* - |psi|^2 / 4 at v = -psi / 2; the
    # membrane becomes stationary there within 200 steps, and the films
    # end close above it
    psi, load = _bench_load(seed)
    emem_star = 5.0 * 2.0 ** -0.4 - float(psi @ psi) / 4.0
    report = gamma_sweep(EnergyModel(), sweep_table, load,
                         unit_square_mesh(8), [0.2, 0.1], iters=200)
    meta = report.meta
    assert meta["membrane_stop_reason"] == "grad_tol"
    assert meta["membrane_iterations"] < 200
    assert abs(meta["membrane_total"] - emem_star) <= 1e-6 * emem_star
    for r in report.rows:
        assert emem_star - 1e-9 <= r.e3d <= 1.005 * emem_star


def test_sweep_film_totals_stay_above_the_relaxed_membrane_minimum(
        sweep_table):
    report = gamma_sweep(EnergyModel(), sweep_table, _down_load(),
                         unit_square_mesh(2), [0.2, 0.1], iters=200)
    assert report.meta["membrane_total"] >= EMEM_STAR - 1e-9
    for r in report.rows:
        assert r.e3d >= EMEM_STAR - 1e-9


# the benchmark's seed-0 sweep (unit_square_mesh(8), eps 0.2 and 0.1, 200
# steps, the set-up table above): eps, e3d and emem as float.hex and the
# film descents' value counts, recorded once the table held the
# tension-field density and its slope read the frame of singular_frame
GOLDEN_SWEEP_ROWS = [
    (0.2, "0x1.c56a70945479bp+1", "0x1.c5078049f59f4p+1", 205),
    (0.1, "0x1.c5305bbe0ab03p+1", "0x1.c5078049f59f4p+1", 209),
]


def test_sweep_rows_reproduce_their_golden_values(sweep_table):
    report = gamma_sweep(EnergyModel(), sweep_table, _down_load(),
                         unit_square_mesh(8), [0.2, 0.1], iters=200)
    got = [(r.eps, r.e3d.hex(), r.emem.hex(), r.evaluations)
           for r in report.rows]
    assert got == GOLDEN_SWEEP_ROWS


@pytest.mark.parametrize("mode", ["minimize", "recovery"])
def test_sweep_builds_one_film_objective_per_thickness(monkeypatch, mode):
    # per film: the descent's values, the start's first among them, which
    # also records the start's signs; a second objective for the start
    # total would add one more
    calls = []
    film_energy = dimension_reduction._film_energy

    def counted(*args):
        calls.append(1)
        return film_energy(*args)

    monkeypatch.setattr(dimension_reduction, "_film_energy", counted)
    report = gamma_sweep(EnergyModel(), _linear_table(), _down_load(),
                         unit_square_mesh(2), [0.2, 0.1], iters=5, mode=mode)
    descents = sum(max(r.evaluations, 1) for r in report.rows)
    assert len(calls) == descents


def test_sweep_values_each_point_once(monkeypatch):
    # a film calls _film_energy once per descent value: the first, at the
    # start, also records its signs, and the last accepted one holds the
    # end point's energy and load; the membrane looks the table up once
    # per value
    film_calls, lookups = {}, []
    film_energy = dimension_reduction._film_energy
    lookup = EnvelopeTable.lookup

    def counted_film(model, weights, mesh, vals, eps, signs):
        film_calls[eps] = film_calls.get(eps, 0) + 1
        return film_energy(model, weights, mesh, vals, eps, signs)

    def counted_lookup(table, xis):
        lookups.append(1)
        return lookup(table, xis)

    monkeypatch.setattr(dimension_reduction, "_film_energy", counted_film)
    monkeypatch.setattr(EnvelopeTable, "lookup", counted_lookup)
    report = gamma_sweep(EnergyModel(), _linear_table(), _down_load(),
                         unit_square_mesh(2), [0.2, 0.1], iters=5)
    assert film_calls == {r.eps: r.evaluations for r in report.rows}
    assert len(lookups) == report.meta["membrane_evaluations"]


def test_membrane_gradient_does_not_spike_at_the_table_edge(sweep_table):
    # the probes of a cell within h of sigma_max straddle the jump from
    # the table to its growth certificate (6.19 to 3072 at sigma_1 = 2)
    mesh = unit_square_mesh(2)
    obj = _MembraneObjective(sweep_table, _down_load(), mesh)

    def grad_norm(stretch):
        x = _flat(mesh).values * [stretch, 1.0, 1.0]
        return np.linalg.norm(obj.gradient(obj(x.reshape(-1))[2]))

    inner, edge = grad_norm(2.0 - 2e-5), grad_norm(2.0 - 3e-6)
    assert inner / 10.0 <= edge <= 10.0 * inner


def _eager_descent(obj, x0, iters):
    # the descent loop with the gradient built at every trial point,
    # rejected ones included, as it ran before the value/gradient split
    def value_grad(x):
        energy, load, state = obj(x)
        f = energy + load
        g = obj.gradient(state) if math.isfinite(f) else np.zeros_like(x)
        return f, g

    f, g = value_grad(x0)
    if not math.isfinite(f):
        raise InfeasibleError("starting configuration has infinite energy")
    x = x0
    memory = _Lbfgs(x0.size)
    accepted = 0
    reason = "budget"
    for _ in range(iters):
        gn2 = float(np.dot(g, g))
        if math.sqrt(gn2) <= _GRAD_TOL * (1.0 + abs(f)):
            reason = "grad_tol"
            break
        d = memory.direction(g)
        slope = float(np.dot(g, d))
        if not slope < 0.0:
            memory.clear()
            d, slope = -g, -gn2
        t = 1.0 if memory.size else 1.0 / max(1.0, math.sqrt(gn2))
        ok = False
        for _ in range(60):
            x1 = x + t * d
            f1, g1 = value_grad(x1)
            if math.isfinite(f1) and f1 <= f + 1e-4 * t * slope:
                ok = True
                break
            t *= 0.5
            if t < 1e-14:
                break
        if not ok:
            reason = "line_search_stalled"
            break
        memory.update(x1 - x, g1 - g)
        x, f, g = x1, f1, g1
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


def _check_against_eager(obj, x0, iters):
    counted = _Counted(obj)
    run = _descent(counted, counted.gradient, x0, iters)
    x, f, accepted, reason, gnorm = _eager_descent(obj, x0, iters)
    np.testing.assert_array_equal(run.field, x)
    assert (run.total, run.iterations, run.stop_reason, run.grad_norm) == (
        f, accepted, reason, gnorm)
    # gradients only at the start and at accepted steps; every other
    # value was a rejected trial
    assert counted.gradients == run.gradients == run.iterations + 1
    assert counted.values == run.evaluations
    assert run.evaluations == 1 + run.iterations + run.backtracks
    assert run.backtracks > 0
    return run


@pytest.mark.parametrize("eps", [0.2, 0.05])
def test_film_descent_matches_the_eager_reference(eps):
    mesh = unit_square_mesh(2)
    rng = np.random.default_rng(7)
    x0 = _flat_film(mesh, eps, 5).values.reshape(-1)
    x0 = x0 + 0.01 * rng.standard_normal(x0.shape)
    obj = _film_objective(EnergyModel(), _tilted_load(), mesh, x0, eps)
    run = _check_against_eager(obj, x0, 40)
    assert run.iterations == 40


def test_membrane_descent_matches_the_eager_reference():
    mesh = unit_square_mesh(3)
    obj = _MembraneObjective(_linear_table(), _tilted_load(), mesh)
    rng = np.random.default_rng(8)
    flat = np.zeros((mesh.n_vertices, 3))
    flat[:, :2] = 1.3 * mesh.vertices
    x0 = flat.reshape(-1) + 0.02 * rng.standard_normal(flat.size)
    _check_against_eager(obj, x0, 40)


def _flat(mesh):
    return PwAffineField(mesh, np.column_stack([mesh.vertices,
                                                np.zeros(mesh.n_vertices)]))


def test_membrane_descends_from_a_start_beyond_the_table():
    # stretching x by 4 gives singular values (4, 1) against sigma_max = 3;
    # the certificate values those cells and grows like |xi|^p, so the
    # descent pulls them back in
    table, load, mesh = _linear_table(), _tilted_load(), unit_square_mesh(2)
    start = PwAffineField(mesh, _flat(mesh).values * [4.0, 1.0, 1.0])
    first = minimize_membrane(table, load, mesh, start=start, iters=0).total
    res = minimize_membrane(table, load, mesh, start=start, iters=20)
    assert math.isfinite(res.total) and res.total < first


def test_film_objective_refuses_a_determinant_sign_flip():
    # one cell, three layers at heights -0.1, 0, 0.1: lowering the top
    # layer to -0.05 turns the upper prism's determinant from 1 to -0.5
    # and leaves the lower one at 1
    model, load = EnergyModel(), _tilted_load()
    mesh = single_triangle_mesh((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    start = _flat_film(mesh, 0.2, 3)
    vals = start.values.copy()
    vals[2, :, 2] = -0.05
    flipped = PrismField(mesh, vals, 0.2)
    obj = _ThinObjective(model, load, start)
    assert obj.signs is None
    # the first call values the start and records its signs
    assert math.isfinite(_total(obj, start.values.reshape(-1)))
    assert obj.signs.tolist() == [1.0, 1.0]
    assert obj(vals.reshape(-1)) == (math.inf, 0.0, None)
    # no determinant vanishes there: the energy alone is finite, and so is
    # the objective started at the flipped film
    assert math.isfinite(_film_energy_at(model, flipped))
    flipped_obj = _ThinObjective(model, load, flipped)
    assert math.isfinite(_total(flipped_obj, vals.reshape(-1)))
    assert flipped_obj.signs.tolist() == [1.0, -1.0]


def test_a_refused_trial_evaluates_no_density(monkeypatch):
    # the sign test comes before the density: the flipped film of the test
    # above is refused at the cost of its determinants alone
    model, load = EnergyModel(), _tilted_load()
    mesh = single_triangle_mesh((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    start = _flat_film(mesh, 0.2, 3)
    vals = start.values.copy()
    vals[2, :, 2] = -0.05
    calls = []
    density = EnergyModel.density

    def counted(self, adet, sq):
        calls.append(len(adet))
        return density(self, adet, sq)

    monkeypatch.setattr(EnergyModel, "density", counted)
    obj = _ThinObjective(model, load, start)
    assert math.isfinite(_total(obj, start.values.reshape(-1)))
    assert calls == [2]
    assert obj(vals.reshape(-1)) == (math.inf, 0.0, None)
    assert calls == [2]


@pytest.mark.parametrize("load_p", [1.5, 3.0])
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("barrier", [ReciprocalBarrier(), ShiftedLogBarrier()],
                         ids=["reciprocal", "shifted_log"])
@pytest.mark.parametrize("layers", [3, 5, 7])
def test_film_objective_equals_the_strided_oracle_bit_for_bit(
        layers, barrier, p, load_p):
    # the component-major objective against the strided one it replaced:
    # the same energy, load, determinants and gradient, to the last bit,
    # at the start and at random feasible points around it
    model = EnergyModel(barrier, p=p)
    mesh = perturbed_square_mesh(3, layers)
    load = LoadPotential(lambda pts, x3: np.column_stack(
        [np.sin(3.0 * pts[:, 0]), pts[:, 1] * x3 - 0.2, np.cos(x3) - 1.5]),
        p=load_p)
    rng = np.random.default_rng(layers)
    vals = _flat_film(mesh, 0.2, layers).values.copy()
    vals[:, :, :2] *= 1.5
    # noise of a tenth of the layer spacing keeps every prism upright
    scale = 0.02 / (layers - 1)
    start = vals.reshape(-1) + scale * rng.standard_normal(vals.size)
    obj = _film_objective(model, load, mesh, start, 0.2)
    for k in range(4):
        x = start if k == 0 else (start
                                  + scale * rng.standard_normal(start.size))
        energy, load_value, state = obj(x)
        want = strided_film_value(obj, x)
        assert math.isfinite(energy) and want[3] is not None
        assert (energy, load_value) == want[:2]
        dets = _film_energy(model, obj.weights, mesh,
                            x.reshape(layers, -1, 3), 0.2, None)[1]
        np.testing.assert_array_equal(dets, want[2])
        np.testing.assert_array_equal(obj.gradient(state),
                                      strided_film_gradient(obj, want[3]))


def test_film_descent_refuses_a_start_of_infinite_energy():
    # a layer-constant start has zero prism determinants
    mesh = unit_square_mesh(2)
    with pytest.raises(InfeasibleError, match="infinite energy"):
        minimize_thin_film(EnergyModel(), _tilted_load(),
                           _lift(_flat(mesh), np.zeros(3), 0.2, 3))


def test_film_minimizer_returns_the_descent_from_its_start():
    model, load, mesh = EnergyModel(), _tilted_load(), unit_square_mesh(2)
    start = _flat_film(mesh, 0.2, 3)
    res = minimize_thin_film(model, load, start, iters=20)
    obj = _ThinObjective(model, load, start)
    run = _descent(obj, obj.gradient, start.values.reshape(-1), 20)
    np.testing.assert_array_equal(res.field.values.reshape(-1), run.field)
    assert res.field.eps == start.eps
    assert res.total == run.total
    assert res.start_total == run.start_total == _total(
        obj, start.values.reshape(-1))
    assert (res.energy, res.load_value) == (run.energy, run.load_value)
    assert res.energy + res.load_value == res.total
    assert res.energy == _film_energy_at(model, res.field)


def test_membrane_minimizer_returns_the_descent_from_its_start():
    table, load, mesh = _linear_table(), _tilted_load(), unit_square_mesh(2)
    res = minimize_membrane(table, load, mesh, iters=20)
    obj = _MembraneObjective(table, load, mesh)
    run = _descent(obj, obj.gradient, _flat(mesh).values.reshape(-1), 20)
    np.testing.assert_array_equal(res.field.values.reshape(-1), run.field)
    assert res.total == run.total
    assert res.energy + res.load_value == res.total
    assert res.energy == pytest.approx(float(np.dot(
        mesh.areas, table.values_at(res.field.gradients()))), rel=1e-12)


def test_minimizers_count_values_gradients_and_backtracks():
    load, mesh = _tilted_load(), unit_square_mesh(2)
    for res in (minimize_membrane(_linear_table(), load, mesh, iters=20),
                minimize_thin_film(EnergyModel(), load,
                                   _flat_film(mesh, 0.2, 3), iters=20)):
        assert res.gradients == res.iterations + 1
        assert res.evaluations == res.gradients + res.backtracks


def _moved_mesh(mesh):
    # the same size and connectivity, other vertices
    return TriMesh(mesh.vertices * [2.0, 1.0], mesh.triangles)


def test_membrane_rejects_a_start_on_another_mesh():
    table, load, mesh = _linear_table(), _tilted_load(), unit_square_mesh(2)
    with pytest.raises(ValueError, match="share a mesh"):
        minimize_membrane(table, load, mesh, start=_flat(_moved_mesh(mesh)))
    copy = TriMesh(mesh.vertices.copy(), mesh.triangles.copy())
    res = minimize_membrane(table, load, mesh, start=_flat(copy), iters=0)
    assert res.total == minimize_membrane(table, load, mesh, iters=0).total


def test_recovery_sweep_scores_the_lift_along_the_shared_direction():
    model, table, load = EnergyModel(), _linear_table(), _down_load()
    mesh = unit_square_mesh(2)
    report = gamma_sweep(model, table, load, mesh, [0.2, 0.1], iters=5,
                         mode="recovery")
    mem = minimize_membrane(table, load, mesh, iters=5)
    zeta_bar = build_assignment(model, mem.field).zeta_bar
    for r in report.rows:
        lift = _lift(mem.field, zeta_bar, r.eps, 5)
        assert r.e3d == minimize_thin_film(model, load, lift, iters=0).total


def test_recovery_sweep_rows_count_no_descent():
    report = gamma_sweep(EnergyModel(), _linear_table(), _down_load(),
                         unit_square_mesh(2), [0.2, 0.1], iters=5,
                         mode="recovery")
    for r in report.rows:
        assert (r.iterations, r.stop_reason) == (0, None)
        assert (r.evaluations, r.gradients, r.backtracks) == (0, 0, 0)
    assert len(report.meta["seconds"]["films"]) == 2


@pytest.mark.parametrize("mode", ["minimize", "recovery"])
def test_sweep_reports_the_final_gradient_norms(mode):
    model, table, load = EnergyModel(), _linear_table(), _down_load()
    mesh = unit_square_mesh(2)
    report = gamma_sweep(model, table, load, mesh, [0.2, 0.1], iters=5,
                         mode=mode)
    mem = minimize_membrane(table, load, mesh, iters=5)
    assert report.meta["membrane_grad_norm"] == mem.grad_norm > 0.0
    zeta_bar = build_assignment(model, mem.field).zeta_bar
    out = report.to_dict()
    assert out["meta"]["membrane_grad_norm"] == mem.grad_norm
    for r, row in zip(report.rows, out["rows"]):
        if mode == "recovery":
            assert r.grad_norm is None
        else:
            lift = _lift(mem.field, zeta_bar, r.eps, 5)
            res = minimize_thin_film(model, load, lift, iters=5)
            assert r.grad_norm == res.grad_norm > 0.0
        assert row["grad_norm"] == r.grad_norm
