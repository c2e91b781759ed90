import json
import math

import numpy as np
import pytest

from memrelax.energy_models import EnergyModel, ReciprocalBarrier
from memrelax.envelope import (
    DEFAULT_SEARCH, EnvelopeTable, INNER_SEARCH, LEAF_SEARCH, SearchParams,
    build_envelope_table, finite_upper_bound, four_corner_bound,
    growth_certificate, laminate_search,
    rank_one_convexity_probe, square_refine_bound, zw0_upper_from_testfn,
)
from memrelax.fiber_reduction import ReducedDensity, w0_closed_form
from memrelax.pw_affine import build_diamond_hat, build_square_hat
from memrelax.tensor_kernel import INFINITE, frob_norm, mat32

E1E2 = mat32([1, 0, 0], [0, 1, 0])
W0_E1E2 = 2.0 + 3.0 * 2.0 ** (-2.0 / 3.0)


@pytest.fixture(scope="module")
def w0():
    return ReducedDensity(EnergyModel())


class PowerDensity:
    """|xi|^p, convex."""

    def __init__(self, p=2.0):
        self.p = p

    def __call__(self, xi):
        return frob_norm(np.asarray(xi, dtype=float)) ** self.p

    def batch(self, xis):
        sq = np.einsum("nij,nij->n", xis, xis)
        return sq ** (self.p / 2.0)


# ---------------------------------------------------------------------------
# test-function route

def test_zero_testfn_reproduces_density(w0):
    phi = build_diamond_hat([0.0, 0.0, 1.0], 0.0)
    got = zw0_upper_from_testfn(E1E2, phi, w0)
    assert got.finite == pytest.approx(W0_E1E2, abs=1e-10)


def test_diamond_hat_matches_four_corner_average(w0):
    phi = build_diamond_hat([0.0, 0.0, 1.0], 1.0)
    via_field = zw0_upper_from_testfn(E1E2, phi, w0)
    via_corners = four_corner_bound(E1E2, w0)
    assert via_field.finite == pytest.approx(via_corners.finite, abs=1e-10)
    assert via_field.finite == pytest.approx(5.310370697104448, abs=1e-9)


def test_testfn_requires_boundary_zero(w0):
    phi = build_diamond_hat([0.0, 0.0, 1.0], 1.0)
    object.__setattr__(phi, "aff0", False)
    with pytest.raises(ValueError, match="vanish on its domain boundary"):
        zw0_upper_from_testfn(E1E2, phi, w0)


def test_square_hat_averages_single_column_shifts(w0):
    # gradients (0|+-nu), (+-nu|0) on equal-area cells: the field route
    # must equal the plain average of the four shifted densities
    phi = build_square_hat([0.0, 0.0, 1.0], 1.0)
    got = zw0_upper_from_testfn(E1E2, phi, w0).finite
    nu = np.array([0.0, 0.0, 1.0])
    shifts = []
    for col, sgn in ((1, 1.0), (0, -1.0), (1, -1.0), (0, 1.0)):
        m = np.array(E1E2, dtype=float)
        m[:, col] += sgn * nu
        shifts.append(w0(m).finite)
    assert got == pytest.approx(np.mean(shifts), abs=1e-10)


# ---------------------------------------------------------------------------
# four-corner and square-refine bounds

def test_four_corner_refuses_equal_columns_up_to_sign(w0):
    for sign in (1.0, -1.0):
        xi = mat32([1.0, 2.0, 0.5], [sign * 1.0, sign * 2.0, sign * 0.5])
        with pytest.raises(ValueError, match="columns are equal up to sign"):
            four_corner_bound(xi, w0)


def test_four_corner_finite_on_rank_deficient(w0):
    # every corner of (e1|0) has wedge norm 1 and squared norm 3
    val = four_corner_bound(mat32([1, 0, 0], [0, 0, 0]), w0)
    assert val.is_finite
    assert val.finite == pytest.approx(3.0 + 3.0 * 2.0 ** (-2.0 / 3.0),
                                       abs=1e-9)
    assert finite_upper_bound(mat32([1, 0, 0], [0, 0, 0]), w0).finite \
        == pytest.approx(5.405185348552224, abs=1e-9)


def test_corner_wedge_never_below_column_split():
    # each corner's wedge norm dominates min(|c1+c2|, |c1-c2|), which is
    # what makes the corner average finite whenever it is not refused
    rng = np.random.default_rng(3)
    for _ in range(200):
        xi = rng.uniform(-2.0, 2.0, (3, 2))
        c1, c2 = xi[:, 0], xi[:, 1]
        split = min(np.linalg.norm(c1 + c2), np.linalg.norm(c1 - c2))
        if split <= 1e-9:
            continue
        cross = np.cross(c1, c2)
        if np.linalg.norm(cross) > 1e-12:
            nu = cross / np.linalg.norm(cross)
        else:
            ref = c1 if np.linalg.norm(c1) > 0 else c2
            nu = np.zeros(3)
            nu[int(np.argmin(np.abs(ref)))] = 1.0
            nu -= (nu @ ref) * ref / (ref @ ref)
            nu /= np.linalg.norm(nu)
        for s in (1.0, -1.0):
            for u in (1.0, -1.0):
                corner = np.linalg.norm(np.cross(c1 + s * nu, c2 + u * nu))
                assert corner >= split - 1e-10


def test_single_column_shift_keeps_unit_split():
    # |c1 +- (c2 + nu)|^2 = |c1 +- c2|^2 + 1 when nu is orthogonal to
    # both columns, so every shifted matrix admits the corner bound
    rng = np.random.default_rng(4)
    for _ in range(200):
        xi = rng.uniform(-2.0, 2.0, (3, 2))
        c1, c2 = xi[:, 0], xi[:, 1]
        cross = np.cross(c1, c2)
        if np.linalg.norm(cross) <= 1e-12:
            continue
        nu = cross / np.linalg.norm(cross)
        for s in (1.0, -1.0):
            lhs = np.linalg.norm(c1 + s * (c2 + nu)) ** 2
            rhs = np.linalg.norm(c1 + s * c2) ** 2 + 1.0
            assert lhs == pytest.approx(rhs, abs=1e-10)
            assert np.linalg.norm(c1 + s * (c2 + nu)) >= 1.0 - 1e-12


def test_finite_upper_bound_everywhere(w0):
    cases = [
        mat32([0, 0, 0], [0, 0, 0]),
        mat32([1, 0, 0], [0, 0, 0]),
        mat32([1, 0, 0], [1, 0, 0]),
        mat32([1, 0, 0], [-1, 0, 0]),
        E1E2,
        mat32([0.3, -1.2, 0.8], [0.3, -1.2, 0.8]),
    ]
    for xi in cases:
        val = finite_upper_bound(xi, w0)
        assert val.is_finite


def test_finite_upper_bound_frozen_at_zero(w0):
    # all four single-column shifts of zero land on the same orbit, each
    # refined corner evaluates at wedge norm 1 and squared norm 3
    val = finite_upper_bound(mat32([0, 0, 0], [0, 0, 0]), w0)
    assert val.finite == pytest.approx(4.88988157484231, abs=1e-9)


def test_square_refine_composes_with_any_inner(w0):
    inner_calls = []

    def inner(xi):
        inner_calls.append(np.array(xi))
        return w0(xi)

    val = square_refine_bound(E1E2, inner)
    assert val.is_finite
    assert len(inner_calls) == 4


# ---------------------------------------------------------------------------
# growth certificate

def test_certificate_chain_frozen():
    cert = growth_certificate(EnergyModel())
    assert cert.cbar1 == pytest.approx(2.0, abs=1e-12)
    assert cert.r1 == pytest.approx(64.0, abs=1e-12)
    assert cert.c == pytest.approx(512.0, abs=1e-12)


def test_certificate_dominates_constructive_bound(w0):
    cert = growth_certificate(EnergyModel())
    rng = np.random.default_rng(5)
    for _ in range(50):
        xi = rng.uniform(-2.5, 2.5, (3, 2))
        val = finite_upper_bound(xi, w0)
        assert val.finite <= cert.bound(xi) + 1e-9


# ---------------------------------------------------------------------------
# laminate search

def test_laminate_depth_zero_is_density(w0):
    values = laminate_search(w0, E1E2, 0).values
    assert values[0] == pytest.approx(W0_E1E2, abs=1e-10)
    assert laminate_search(w0, mat32([1, 0, 0], [2, 0, 0]), 0).values[0] \
        == math.inf


def test_laminate_profile_monotone(w0):
    rng = np.random.default_rng(6)
    for _ in range(4):
        xi = rng.uniform(-1.5, 1.5, (3, 2))
        res = laminate_search(w0, xi, 2, INNER_SEARCH)
        vals = res.values
        assert len(vals) == 3
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12


def test_laminate_finite_at_rank_deficient(w0):
    res = laminate_search(w0, mat32([1, 0, 0], [0, 0, 0]), 1)
    assert res.values[0] == math.inf
    assert math.isfinite(res.values[1])
    assert res.witness is not None
    step = np.array(res.witness["step"])
    assert np.linalg.matrix_rank(step) == 1


def test_laminate_fixed_point_of_convex_density():
    f = PowerDensity(2.0)
    for xi in (E1E2, mat32([0.5, -0.3, 1.1], [0.2, 0.8, -0.4])):
        res = laminate_search(f, xi, 2, INNER_SEARCH)
        expect = f(xi)
        for v in res.values:
            assert v == pytest.approx(expect, abs=1e-9)


def test_laminate_improves_on_needle_profile(w0):
    # a rank-deficient-adjacent point relaxes strictly below the density
    xi = mat32([1.0, 0.0, 0.0], [0.05, 0.0, 0.0])
    res = laminate_search(w0, xi, 2)
    assert res.values[2] < res.values[0] - 1.0


def test_laminate_respects_floor(w0):
    rng = np.random.default_rng(11)
    for _ in range(5):
        xi = rng.uniform(-1.5, 1.5, (3, 2))
        res = laminate_search(w0, xi, 2, INNER_SEARCH)
        assert res.values[-1] >= w0.floor(xi) - 1e-12


def test_laminate_rejects_negative_depth(w0):
    with pytest.raises(ValueError, match="depth"):
        laminate_search(w0, E1E2, -1)


def test_laminate_rejects_depth_above_two(w0):
    with pytest.raises(ValueError, match="depth"):
        laminate_search(w0, E1E2, 3)


def test_depth_one_witnesses_replay_their_node_values(w0):
    # the set-up table of the sweep benchmark; its polished splits must
    # replay to the claimed node value, not only the grid split before it
    table = build_envelope_table(EnergyModel(), sigma_max=2.0, pitch=0.5,
                                 depth=1)
    nodes = [e for e in table.entries if e.method == "laminate-1"]
    assert nodes
    for e in nodes:
        xi = mat32([e.sigma[0], 0, 0], [0, e.sigma[1], 0])
        step = np.array(e.witness["step"])
        lam = e.witness["fraction"]
        replay = (lam * w0(xi + (1.0 - lam) * step).as_float()
                  + (1.0 - lam) * w0(xi - lam * step).as_float())
        assert e.witness["score"] == e.value
        assert replay == pytest.approx(e.value, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# rank-one convexity probe

def test_probe_flags_nothing_on_convex():
    assert rank_one_convexity_probe(PowerDensity(2.0), 500) <= 1e-10


def test_probe_detects_nonconvexity(w0):
    # the reduced density blows up near rank deficiency, so rank-one
    # segments crossing that region show a strictly positive violation
    assert rank_one_convexity_probe(w0, 500) > 1.0


# ---------------------------------------------------------------------------
# envelope table

SMALL = SearchParams(n_sphere=6, n_angles=2, n_magnitudes=3, n_lambda=3,
                     top_k=8, polish_rounds=0, inner=LEAF_SEARCH)


@pytest.fixture(scope="module")
def small_table():
    return build_envelope_table(EnergyModel(), sigma_max=1.0, pitch=0.5,
                                depth=1, params=SMALL)


def test_table_nodes_bounded_by_density(small_table, w0):
    for e in small_table.entries:
        xi = mat32([e.sigma[0], 0, 0], [0, e.sigma[1], 0])
        assert e.value <= w0(xi).as_float() + 1e-9


def test_table_floor_and_growth(small_table):
    g = small_table.sigma_grid
    s1, s2 = np.meshgrid(g, g, indexing="ij")
    floor = (s1 ** 2 + s2 ** 2) ** (small_table.p / 2.0)
    assert np.all(small_table.values >= floor - 1e-9)
    assert small_table.audit_growth() <= 1.0


def test_table_rejects_floor_violation(small_table):
    bad = small_table.values.copy()
    bad[-1, -1] = 0.5  # below (1 + 1)^1 = 2
    with pytest.raises(ValueError, match="coercivity floor"):
        EnvelopeTable(small_table.sigma_grid, bad, small_table.entries,
                      small_table.p, small_table.certificate,
                      small_table.depth)


def test_table_invariance_under_rotations(small_table):
    # queries go through singular values, so any matrix on the same
    # O(3) x O(2) orbit as a node reproduces the node value
    node = small_table.value_at(mat32([1, 0, 0], [0, 0.5, 0]))
    th = 0.7
    q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    r = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    xi = r @ np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]]) @ q
    assert small_table.value_at(xi) == pytest.approx(node, abs=1e-9)


def test_table_outside_ball_uses_certificate(small_table):
    xi = mat32([5.0, 0, 0], [0, 5.0, 0])
    expect = small_table.certificate.c * (1.0 + frob_norm(xi) ** small_table.p)
    assert small_table.value_at(xi) == pytest.approx(expect, rel=1e-12)


def test_table_lookup_rejects_non_finite_entries(small_table):
    xis = np.tile(np.array([[0.5, 0.0], [0.0, 0.25], [0.0, 0.0]]), (4, 1, 1))
    for bad in (np.nan, np.inf):
        xis[2, 1, 1] = bad
        with pytest.raises(ValueError, match="mat32 entries must be finite"):
            small_table.values_at(xis)


def test_table_lookup_at_the_edge_of_the_exponent_range(small_table):
    rng = np.random.default_rng(9)
    xis = rng.uniform(-1.0, 1.0, (64, 3, 2))
    # far outside the ball: the certificate on the SVD's norm
    big = xis * 1e150
    norms = np.linalg.norm(np.linalg.svd(big, compute_uv=False), axis=1)
    expect = small_table.certificate.c * (1.0 + norms ** small_table.p)
    got = small_table.values_at(big)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, expect, rtol=1e-12)
    # next to the origin: the node value at zero
    got = small_table.values_at(xis * 1e-150)
    np.testing.assert_allclose(got, small_table.values[0, 0], rtol=1e-12)


def test_table_json_roundtrip(small_table, tmp_path):
    path = tmp_path / "table.json"
    small_table.save_json(path)
    back = EnvelopeTable.load_json(path)
    assert np.array_equal(back.sigma_grid, small_table.sigma_grid)
    assert np.array_equal(back.values, small_table.values)
    assert back.certificate.c == small_table.certificate.c
    assert len(back.entries) == len(small_table.entries)
    assert back.entries[0].method == small_table.entries[0].method


def test_table_csv_export(small_table, tmp_path):
    path = tmp_path / "table.csv"
    small_table.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sigma1,sigma2,value,method,depth"
    assert len(lines) == 1 + len(small_table.entries)
    s1, s2, value, method, depth = lines[1].split(",")
    assert float(value) == small_table.entries[0].value
    assert method == small_table.entries[0].method


def test_table_slice_shape(small_table):
    sl = small_table.slice_along(mat32([0, 0, 0], [0, 0, 0]), E1E2, n=11)
    assert sl.shape == (11, 3)
    assert sl[0, 0] == 0.0 and sl[-1, 0] == 1.0
    assert sl[-1, 1] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_table_entry_methods_are_labelled(small_table):
    allowed = {"density", "four-corner", "square-refine", "laminate-1"}
    assert {e.method for e in small_table.entries} <= allowed


def test_threaded_build_matches_serial(small_table):
    threaded = build_envelope_table(EnergyModel(), sigma_max=1.0, pitch=0.5,
                                    depth=1, params=SMALL, threads=4)
    assert np.array_equal(threaded.values, small_table.values)


def test_table_validation_rejects_bad_grid(small_table):
    with pytest.raises(ValueError, match="start at zero"):
        EnvelopeTable(np.array([0.5, 1.0]),
                      small_table.values[:2, :2], (), 2.0,
                      small_table.certificate, 1)
    with pytest.raises(ValueError, match="pitch must divide"):
        build_envelope_table(EnergyModel(), sigma_max=1.0, pitch=0.3)
