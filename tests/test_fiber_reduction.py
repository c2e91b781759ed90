import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memrelax import fiber_reduction
from memrelax.director_field import cell_min_constrained
from memrelax.energy_models import EnergyModel, ReciprocalBarrier, ShiftedLogBarrier
from memrelax.fiber_reduction import (
    solve_fiber, w0_batch, w0_closed_form, w0_growth_constant,
)
from memrelax.tensor_kernel import column_invariants, wedge
from oracles import INFINITE, finite, mat32, w0_bruteforce, w_stack

E1E2 = mat32([1, 0, 0], [0, 1, 0])
W0_E1E2 = 2.0 + 3.0 * 2.0 ** (-2.0 / 3.0)  # minimizer of 1/t + t^2 shifted by |xi|^2


def test_frozen_value_and_witness():
    m = EnergyModel()
    assert finite(w0_closed_form(m, E1E2)) == pytest.approx(W0_E1E2, abs=1e-10)
    # the witness t c / a comes from the constrained cell problem, whose
    # clamp 1/(j a) = 0.01 lies far below the root t = 2^(-1/3)
    val, zeta = cell_min_constrained(m, E1E2, 1, 100)
    assert val == pytest.approx(W0_E1E2, abs=1e-10)
    # the abscissa is the root of the fiber slope, not a value-based argmin
    assert zeta == pytest.approx([0.0, 0.0, 2.0 ** (-1.0 / 3.0)], abs=1e-12)


def test_rank_deficient_is_exactly_infinite():
    m = EnergyModel()
    xi = mat32([1, 0, 0], [2, 0, 0])
    assert w0_closed_form(m, xi) == INFINITE
    # no third column exists, so the witness route refuses the cell
    with pytest.raises(ValueError, match="full-rank"):
        cell_min_constrained(m, xi, 1, 100)


def test_oracle_agreement_at_fine_grid():
    m = EnergyModel()
    oracle = w0_bruteforce(m, E1E2, 201)
    assert abs(finite(oracle) - W0_E1E2) <= 1e-3


def test_oracle_nested_grid_monotone():
    m = EnergyModel()
    xi = mat32([1.0, 0.3, -0.2], [0.1, 0.9, 0.4])
    coarse = finite(w0_bruteforce(m, xi, 101))
    fine = finite(w0_bruteforce(m, xi, 401))
    assert fine <= coarse + 1e-12


def test_oracle_empty_or_singular_grid_is_infinite():
    m = EnergyModel()
    # grid_n=2 leaves only cube corners, all outside the ball
    assert w0_bruteforce(m, E1E2, 2) == INFINITE

    def all_singular(xi, zeta):
        return np.inf

    assert w0_bruteforce(all_singular, E1E2, 5, coercivity=1.0, p=2.0) == INFINITE
    with pytest.raises(ValueError):
        w0_bruteforce(m, E1E2, 1)
    with pytest.raises(ValueError):
        w0_bruteforce(all_singular, E1E2, 5)


def test_oracle_callable_path_matches_model_path():
    m = EnergyModel()
    xi = mat32([1.2, 0.1, 0.0], [-0.3, 0.8, 0.5])

    def w_callable(x, zeta):
        return w_stack(m, np.column_stack([x, zeta]))[0]

    a = finite(w0_bruteforce(m, xi, 21))
    b = finite(w0_bruteforce(w_callable, xi, 21, coercivity=1.0, p=2.0))
    assert a == pytest.approx(b, rel=1e-14)


def test_closed_form_tracks_oracle_other_models():
    for model, tol in [
        (EnergyModel(barrier=ShiftedLogBarrier()), 2e-3),
        (EnergyModel(barrier=ShiftedLogBarrier(), p=3.0), 5e-3),
        (EnergyModel(barrier=ReciprocalBarrier(power=2.0), p=3.0), 5e-3),
        (EnergyModel(p=1.5), 2e-3),
    ]:
        xi = mat32([1.0, 0.2, -0.1], [0.3, 1.1, 0.2])
        cf = finite(w0_closed_form(model, xi))
        bf = finite(w0_bruteforce(model, xi, 201))
        assert cf <= bf + 1e-12  # the oracle is an upper bound of the inf
        assert abs(cf - bf) <= tol


def test_growth_constant_examples():
    m = EnergyModel()
    assert w0_growth_constant(m, 1.0) == pytest.approx(2.0)
    assert w0_growth_constant(m, 0.1) == pytest.approx(11.0)
    with pytest.raises(ValueError):
        w0_growth_constant(m, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([1.5, 2.0, 3.0]))
def test_growth_bound_sampled(seed, p):
    model = EnergyModel(p=p)
    delta = 0.5
    cbar = w0_growth_constant(model, delta)
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-3, 3, size=(3, 2))
    if np.linalg.norm(wedge(xi)) < delta:
        return
    val = w0_closed_form(model, xi)
    norm_p = float(np.sum(xi * xi)) ** (p / 2.0)
    assert finite(val) <= cbar * (1.0 + norm_p) * (1.0 + 1e-12)


def test_blowup_monotone_along_degeneration_path():
    m = EnergyModel()
    svals = np.geomspace(0.1, 1e-6, 25)
    prev = -np.inf
    for s in svals:
        xi = mat32([1, 0, 0], [1 - s, 0, s])
        val = finite(w0_closed_form(m, xi))
        assert val > prev
        prev = val
    assert w0_closed_form(m, mat32([1, 0, 0], [1, 0, 0])) == INFINITE


def test_batch_agrees_with_scalar_and_flags_degenerate():
    m = EnergyModel()
    rng = np.random.default_rng(2)
    xis = rng.uniform(-2, 2, size=(24, 3, 2))
    xis[3, :, 1] = 2.0 * xis[3, :, 0]
    vals = w0_batch(m, xis)
    assert np.isinf(vals[3])
    for k in range(24):
        assert vals[k] == pytest.approx(w0_closed_form(m, xis[k]).as_float(),
                                        rel=1e-9, abs=1e-12)


def test_reduced_density_orbit_invariance():
    # w0 depends on xi only through |xi| and the wedge norm, so it is
    # invariant under rotations on the left and on the right
    m = EnergyModel()
    rng = np.random.default_rng(9)
    for _ in range(20):
        xi = rng.uniform(-2, 2, size=(3, 2))
        if np.linalg.norm(wedge(xi)) < 0.05:
            continue
        Q3, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        th = rng.uniform(0, 2 * np.pi)
        Q2 = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        a = finite(w0_closed_form(m, xi))
        b = finite(w0_closed_form(m, Q3 @ xi @ Q2))
        assert a == pytest.approx(b, rel=1e-9)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_reciprocal_p2_root_is_exact(r):
    # for h(x) = x^-r and p = 2 the slope -r a^-r t^(-r-1) + 2t vanishes
    # at t^(r+2) = r a^-r / 2, whatever q is
    m = EnergyModel(barrier=ReciprocalBarrier(power=r))
    rng = np.random.default_rng(3)
    a = 10.0 ** rng.uniform(-3, 2, 500)
    q = 10.0 ** rng.uniform(-2, 2, 500)
    t, val = solve_fiber(m, a, q)
    t_exact = (0.5 * r * a ** -r) ** (1.0 / (r + 2.0))
    np.testing.assert_allclose(t, t_exact, rtol=1e-13)
    np.testing.assert_allclose(val, (t_exact * a) ** -r + q + t_exact ** 2,
                               rtol=1e-13)


def test_shifted_log_kink_minimizer_terminates():
    # h jumps from slope -2 to -1 at x = 1; with p = 2 and 1 < a^2 < 2 the
    # fiber slope jumps over zero at t = 1/a, which is then the minimizer
    m = EnergyModel(barrier=ShiftedLogBarrier())
    a = np.array([1.05, 1.2, 1.4])
    q = np.array([0.5, 2.44, 9.0])
    t, val = solve_fiber(m, a, q)
    # the kink test stops these lanes on t = 1/a exactly
    assert np.array_equal(t, 1.0 / a)
    np.testing.assert_allclose(val, 1.0 + q + 1.0 / a ** 2, rtol=1e-12)
    xi = mat32([1.2, 0, 0], [0, 1, 0])
    assert finite(w0_closed_form(m, xi)) == pytest.approx(val[1], rel=1e-15)


def test_unconverged_lane_raises(monkeypatch):
    # a minimizer just left of the kink (a < 1) takes six Newton steps
    # from its start, more than 3
    monkeypatch.setattr(fiber_reduction, "_MAX_ITER", 3)
    m = EnergyModel(barrier=ShiftedLogBarrier())
    with pytest.raises(RuntimeError, match="unconverged"):
        solve_fiber(m, np.array([0.9]), np.array([2.0]))


def test_kink_stop_takes_at_most_three_slopes_per_lane(monkeypatch):
    # near sigma = (1, 1) the shifted log minimizer sits on the kink
    # t = 1/a whenever 1 < a^2 <= 2; without the kink test those lanes
    # closed their bracket by bisection, about 43 slopes each
    rng = np.random.default_rng(0)
    sig = 1.0 + 0.01 * rng.normal(size=(2, 20000))
    a, q = sig[0] * sig[1], np.sum(sig * sig, axis=0)
    m = EnergyModel(barrier=ShiftedLogBarrier())
    slopes, tests = [], []
    slope, on_kink = fiber_reduction._slope, fiber_reduction._on_kink

    def counted(model, a, q, t, k):
        slopes.append(a.size)
        return slope(model, a, q, t, k)

    def tested(model, a, q, k):
        tests.append(a.size)
        return on_kink(model, a, q, k)

    monkeypatch.setattr(fiber_reduction, "_slope", counted)
    monkeypatch.setattr(fiber_reduction, "_on_kink", tested)
    t, val = solve_fiber(m, a, q)
    kinked = (a > 1.0) & (a * a <= 2.0)
    assert tests == [a.size]  # one kink test per lane, before the first step
    assert slopes[0] == np.count_nonzero(~kinked)
    assert sum(slopes) / a.size <= 3.0
    assert np.array_equal(t[kinked], 1.0 / a[kinked])

    # the bracket path, with the kink test switched off
    monkeypatch.setattr(ShiftedLogBarrier, "kinks", ())
    tests.clear()
    slopes.clear()
    t_ref, val_ref = solve_fiber(m, a, q)
    assert tests == [] and sum(slopes) / a.size > 20.0
    assert np.array_equal(val[~kinked], val_ref[~kinked])
    np.testing.assert_allclose(val, val_ref, rtol=1e-13, atol=0.0)


def test_batch_rejects_non_finite_entries():
    m = EnergyModel()
    for bad in (np.nan, np.inf):
        xis = np.tile(E1E2, (3, 1, 1))
        xis[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            w0_batch(m, xis)
        with pytest.raises(ValueError, match="finite"):
            w0_closed_form(m, xis[1])


@pytest.mark.parametrize("model", [
    EnergyModel(), EnergyModel(ShiftedLogBarrier(), p=3.0)],
    ids=["reciprocal", "shifted-log"])
def test_scalar_value_is_bitwise_the_batch_value(model):
    # one W0 kernel: the scalar route reads the batch's invariants
    xis = np.random.default_rng(17).normal(size=(2000, 3, 2))
    for xi in xis:
        assert w0_closed_form(model, xi).as_float() \
            == w0_batch(model, xi[None])[0]


# ---------------------------------------------------------------------------
# memory layout, lane retirement and lane validation

def _component_major_view(xis):
    """The same stack as the (N, 3, 2) view of contiguous (3, 2, N) rows."""
    view = np.ascontiguousarray(xis.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert not view.flags.c_contiguous
    return view


def test_batch_is_bitwise_the_same_for_either_layout():
    m = EnergyModel()
    rng = np.random.default_rng(11)
    xis = rng.uniform(-2.0, 2.0, size=(300, 3, 2))
    xis[::7, :, 1] = -0.5 * xis[::7, :, 0]   # rank deficient
    xis[5] = 0.0
    view = _component_major_view(xis)
    assert np.array_equal(view, xis)
    vals = w0_batch(m, xis)
    assert np.isinf(vals[::7]).all() and np.isinf(vals[5])
    assert np.array_equal(w0_batch(m, view), vals)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_invariants_equal_wedge_norm_and_square_sum(seed):
    rng = np.random.default_rng(seed)
    n = 2000
    mags = 10.0 ** rng.uniform(-6.0, 6.0, size=(n, 3, 2))
    xis = rng.choice([-1.0, 1.0], size=(n, 3, 2)) * mags
    c_ref = np.cross(xis[:, :, 0], xis[:, :, 1])
    a_ref = np.linalg.norm(c_ref, axis=1)
    q_ref = np.sum(xis * xis, axis=(1, 2))
    # C-ordered, component-major and entry-major, the membrane's layout
    entry_major = np.ascontiguousarray(xis.transpose(2, 1, 0)).T
    for stack in (xis, _component_major_view(xis), entry_major):
        c, a, q = column_invariants(stack)
        assert c.flags.c_contiguous and c.shape == (3, n)
        assert c.T.tobytes() == c_ref.tobytes()
        assert a.tobytes() == a_ref.tobytes()
        assert q.tobytes() == q_ref.tobytes()
        assert wedge(stack).tobytes() == c_ref.tobytes()


def _lane_by_lane(model, a, q):
    out = [solve_fiber(model, a[i:i + 1], q[i:i + 1]) for i in range(a.size)]
    return (np.concatenate([t for t, _ in out]),
            np.concatenate([v for _, v in out]))


def test_mixed_batch_equals_lane_by_lane_solves():
    # shifted log barrier, p = 2: h(x) = 1/x + const for x >= 1, so lanes
    # with a^2 >= 2 start at their root; 1 < a^2 < 2 puts the minimizer
    # on the kink t = 1/a, where the kink test stops the lane before the
    # first step; small a needs Newton steps
    m = EnergyModel(barrier=ShiftedLogBarrier())
    a = np.array([1.5, 3.0, 1.05, 1.2, 1.4, 0.3, 0.7, 1.0, 2.0, 0.5])
    q = np.array([0.5, 2.0, 0.5, 2.44, 9.0, 1.0, 0.2, 3.0, 1.0, 4.0])
    t, val = solve_fiber(m, a, q)
    t_one, val_one = _lane_by_lane(m, a, q)
    assert np.array_equal(t, t_one)
    assert np.array_equal(val, val_one)
    assert np.array_equal(t[2:5], 1.0 / a[2:5])
    start = (0.5 / a[:2]) ** (1.0 / 3.0)
    np.testing.assert_allclose(t[:2], start, rtol=1e-15)


def test_reciprocal_batch_equals_lane_by_lane():
    # p = 3 keeps the lanes off their start, so each takes Newton steps
    m = EnergyModel(barrier=ReciprocalBarrier(1.0), p=3.0)
    rng = np.random.default_rng(4)
    a = 10.0 ** rng.uniform(-2.0, 1.0, 40)
    q = 10.0 ** rng.uniform(-2.0, 1.0, 40)
    t, val = solve_fiber(m, a, q)
    t_one, val_one = _lane_by_lane(m, a, q)
    assert np.array_equal(t, t_one)
    assert np.array_equal(val, val_one)


def test_lanes_solve_alike_whatever_batch_they_share(monkeypatch):
    # shifted log, p = 2: above x = 1 the barrier is 1/x, so lanes with
    # a >= 2 start at their root and stop on the first slope, as every
    # reciprocal p = 2 lane does; lanes with a < 1 take Newton steps, and
    # 1 < a^2 < 2 puts the minimizer on the kink, where the kink test
    # stops the lane before the first slope
    slopes = []
    slope = fiber_reduction._slope

    def counted(model, a, q, t, k):
        slopes.append(a.size)
        return slope(model, a, q, t, k)

    monkeypatch.setattr(fiber_reduction, "_slope", counted)
    rng = np.random.default_rng(8)
    a = np.concatenate([rng.uniform(2.0, 8.0, 20), rng.uniform(0.05, 0.9, 10),
                        rng.uniform(1.05, 1.4, 10)])
    q = 10.0 ** rng.uniform(-2.0, 1.0, a.size)
    m = EnergyModel(barrier=ShiftedLogBarrier())
    t_fast, v_fast = solve_fiber(m, a[:20], q[:20])
    assert slopes == [20]  # every lane converged on the first slope
    t_slow, v_slow = solve_fiber(m, a[20:], q[20:])
    slopes.clear()
    t, val = solve_fiber(m, a, q)
    # together, the kink lanes leave before the first slope, the fast
    # lanes after it, and the Newton lanes go on
    assert slopes == [30, 10, 10, 10, 10, 1]
    assert np.array_equal(t, np.concatenate([t_fast, t_slow]))
    assert np.array_equal(val, np.concatenate([v_fast, v_slow]))
    # reciprocal p = 2 lanes all stop on their first slope
    r = EnergyModel(barrier=ReciprocalBarrier(1.0073))
    t_r, v_r = solve_fiber(r, a[:20], q[:20])
    slopes.clear()
    t, val = solve_fiber(r, a, q)
    assert slopes == [40]
    assert np.array_equal(t[:20], t_r) and np.array_equal(val[:20], v_r)


def test_batch_of_empty_and_all_rank_deficient_stacks():
    m = EnergyModel()
    empty = w0_batch(m, np.zeros((0, 3, 2)))
    assert empty.shape == (0,)
    flat = np.zeros((4, 3, 2))
    flat[:, 0, 0] = [1.0, 2.0, 0.0, -3.0]
    flat[:, 1, 1] = [0.0, 0.0, 1.0, 0.0]
    vals = w0_batch(m, flat)
    assert vals.shape == (4,) and np.isinf(vals).all()
    t, val = solve_fiber(m, np.zeros(0), np.zeros(0))
    assert t.shape == val.shape == (0,)


@pytest.mark.parametrize("a, q, match", [
    ([1.0], [np.nan], "q must be finite"),
    ([1.0], [np.inf], "q must be finite"),
    ([1.0], [-5.0], "q must be finite and >= 0"),
    ([-1.0], [1.0], "a must be finite and > 0"),
    ([0.0], [1.0], "a must be finite and > 0"),
    ([np.nan], [1.0], "a must be finite and > 0"),
    ([np.inf], [1.0], "a must be finite and > 0"),
    ([1.0, 2.0], [1.0], "one shape"),
    ([[1.0]], [[1.0]], "one shape"),
    (1.0, 1.0, "one shape"),
])
def test_solve_fiber_refuses_bad_lanes(monkeypatch, a, q, match):
    # the refusal comes before the first slope
    def no_slope(*args):
        raise AssertionError("a bad lane reached the slope")

    monkeypatch.setattr(fiber_reduction, "_slope", no_slope)
    with pytest.raises(ValueError, match=match):
        solve_fiber(EnergyModel(), np.array(a), np.array(q))


@pytest.mark.parametrize("k", [0, 4, -1, True, 2.0, "2", None])
def test_solve_fiber_refuses_a_stretch_count_outside_one_to_three(
        monkeypatch, k):
    def no_slope(*args):
        raise AssertionError("a bad k reached the slope")

    monkeypatch.setattr(fiber_reduction, "_slope", no_slope)
    with pytest.raises(ValueError, match="k must be the integer 1, 2 or 3"):
        solve_fiber(EnergyModel(), np.ones(1), np.ones(1), k=k)


# ---------------------------------------------------------------------------
# k equal free stretches: min_t h(a t^k) + (q + k t^2)^{p/2}

EQUAL_STRETCH_MODELS = [
    EnergyModel(), EnergyModel(ShiftedLogBarrier()), EnergyModel(p=3.0),
    EnergyModel(ReciprocalBarrier(2.0), p=2.5)]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("model", EQUAL_STRETCH_MODELS,
                         ids=["reciprocal", "shifted-log", "p3", "x-2"])
def test_equal_stretch_solve_is_the_minimum_of_its_objective(
        monkeypatch, model, k):
    # against a scan of t in [t*/e, t* e]; the shifted log lanes near
    # a t^k = 1 end on its kink. Newton on the exact phi' takes at most 7
    # slopes a lane here; without the curvature of t -> a t^k, 15 to 29
    slopes = []
    slope = fiber_reduction._slope

    def counted(model, a, q, t, k):
        slopes.append(a.size)
        return slope(model, a, q, t, k)

    monkeypatch.setattr(fiber_reduction, "_slope", counted)
    rng = np.random.default_rng(k)
    a = 10.0 ** rng.uniform(-1.0, 1.0, 60)
    q = rng.uniform(0.0, 4.0, 60)
    t, value = solve_fiber(model, a, q, k=k)
    assert len(slopes) <= 8
    np.testing.assert_array_equal(
        value, model.density(a * t ** k, q + k * t * t))
    scan = t[:, None] * np.exp(np.linspace(-1.0, 1.0, 2001))
    objective = model.density(a[:, None] * scan ** k,
                              q[:, None] + k * scan * scan)
    assert np.all(value <= objective.min(axis=1) * (1.0 + 1e-14))


def test_k_accepts_a_numpy_integer_and_solves_lanes_alike():
    # a mixed shifted log batch over two equal stretches: kink and Newton
    # lanes, each bit for bit its own solve
    m = EnergyModel(barrier=ShiftedLogBarrier())
    a = np.array([1.2, 0.3, 3.0, 1.5, 0.8, 2.0])
    q = a * a
    t, val = solve_fiber(m, a, q, k=np.int64(2))
    for i in range(a.size):
        t_i, v_i = solve_fiber(m, a[i:i + 1], q[i:i + 1], k=2)
        assert t[i] == t_i[0] and val[i] == v_i[0]
    assert t[0] == (1.0 / a[0]) ** 0.5 and t[3] == (1.0 / a[3]) ** 0.5
