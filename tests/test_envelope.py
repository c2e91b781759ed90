import math
import tracemalloc

import numpy as np
import pytest

from memrelax import envelope
from memrelax.energy_models import (EnergyModel, ReciprocalBarrier,
                                    ShiftedLogBarrier)
from memrelax.envelope import (
    EnvelopeTable, build_envelope_table, four_corner_bound,
    growth_certificate, laminate_search, square_refine_bound,
)
from memrelax.fiber_reduction import ReducedDensity, w0_closed_form
from memrelax.pw_affine import PwAffineField
from memrelax.tensor_kernel import frob_norm, singular_values
from oracles import (build_diamond_hat, build_square_hat, finite, mat32,
                     rank_one_convexity_probe, zw0_upper_from_testfn)

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
        # einsum's summation order follows the memory layout; a contiguous
        # copy values each matrix bit for bit alike in any layout, which
        # the full-grid comparison of the laminate search needs
        xis = np.ascontiguousarray(xis)
        sq = np.einsum("nij,nij->n", xis, xis)
        return sq ** (self.p / 2.0)


# ---------------------------------------------------------------------------
# test-function route

def test_zero_testfn_reproduces_density(w0):
    phi = build_diamond_hat([0.0, 0.0, 1.0], 0.0)
    got = zw0_upper_from_testfn(E1E2, phi, w0)
    assert finite(got) == pytest.approx(W0_E1E2, abs=1e-10)


def test_diamond_hat_matches_four_corner_average(w0):
    phi = build_diamond_hat([0.0, 0.0, 1.0], 1.0)
    via_field = zw0_upper_from_testfn(E1E2, phi, w0)
    via_corners = four_corner_bound(E1E2, w0)
    assert finite(via_field) == pytest.approx(finite(via_corners), abs=1e-10)
    assert finite(via_field) == pytest.approx(5.310370697104448, abs=1e-9)


def test_testfn_requires_boundary_zero(w0):
    hat = build_diamond_hat([0.0, 0.0, 1.0], 1.0)
    vals = hat.values.copy()
    vals[2, 0] = 1e-9  # the corner (0, 1)
    phi = PwAffineField(hat.mesh, vals)
    with pytest.raises(ValueError, match="vanish on its domain boundary"):
        zw0_upper_from_testfn(E1E2, phi, w0)


def test_square_hat_averages_single_column_shifts(w0):
    # gradients (0|+-nu), (+-nu|0) on equal-area cells: the field route
    # must equal the plain average of the four shifted densities
    phi = build_square_hat([0.0, 0.0, 1.0], 1.0)
    got = finite(zw0_upper_from_testfn(E1E2, phi, w0))
    nu = np.array([0.0, 0.0, 1.0])
    shifts = []
    for col, sgn in ((1, 1.0), (0, -1.0), (1, -1.0), (0, 1.0)):
        m = np.array(E1E2, dtype=float)
        m[:, col] += sgn * nu
        shifts.append(finite(w0_closed_form(w0.model, m)))
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
    assert math.isfinite(val)
    assert finite(val) == pytest.approx(3.0 + 3.0 * 2.0 ** (-2.0 / 3.0),
                                       abs=1e-9)
    assert finite(square_refine_bound(mat32([1, 0, 0], [0, 0, 0]), w0)) \
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
        val = square_refine_bound(xi, w0)
        assert math.isfinite(val)


def test_finite_upper_bound_frozen_at_zero(w0):
    # all four single-column shifts of zero land on the same orbit, each
    # refined corner evaluates at wedge norm 1 and squared norm 3
    val = square_refine_bound(mat32([0, 0, 0], [0, 0, 0]), w0)
    assert finite(val) == pytest.approx(4.88988157484231, abs=1e-9)


class BatchOnly:
    """A density with only a batch method, recording each call's size."""

    def __init__(self, density):
        self.density = density
        self.calls = []

    def batch(self, xis):
        self.calls.append(len(xis))
        return self.density.batch(xis)


@pytest.mark.parametrize("bound, points", [
    (four_corner_bound, 4), (square_refine_bound, 16)],
    ids=["four-corner", "square-refine"])
def test_each_bound_values_its_points_in_one_batch_call(w0, bound, points):
    xi = mat32([0.3, -1.2, 0.8], [0.7, 0.1, -0.4])
    density = BatchOnly(w0)
    assert bound(xi, density) == bound(xi, w0)
    assert density.calls == [points]


def _unit_normal(m):
    c = np.cross(m[:, 0], m[:, 1])
    return c / np.linalg.norm(c)


def test_bounds_sum_their_points_in_corner_order(w0):
    # the scalar loops the batched bounds replace: each shift's corner
    # mean, summed corner by corner, then the mean of the shifts
    xi = mat32([0.3, -1.2, 0.8], [0.7, 0.1, -0.4])
    nu = _unit_normal(xi)

    def corner_mean(m):
        c1, c2, n = m[:, 0], m[:, 1], _unit_normal(m)
        total = 0.0
        for s, u in ((-1, 1), (-1, -1), (1, -1), (1, 1)):
            total += finite(w0_closed_form(
                w0.model, np.stack([c1 + s * n, c2 + u * n], axis=1)))
        return total * 0.25

    assert finite(four_corner_bound(xi, w0)) == corner_mean(xi)
    total = 0.0
    for col, sgn in ((1, 1.0), (0, -1.0), (1, -1.0), (0, 1.0)):
        shift = xi.copy()
        shift[:, col] += sgn * nu
        total += corner_mean(shift)
    assert finite(square_refine_bound(xi, w0)) == total * 0.25


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
        val = square_refine_bound(xi, w0)
        assert finite(val) <= cert.bound(frob_norm(xi)) + 1e-9


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
        res = laminate_search(w0, xi, 2)
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
        res = laminate_search(f, xi, 2)
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
        res = laminate_search(w0, xi, 2)
        # |xi|^p is convex and below the density, so below every laminate
        floor = float(np.sum(xi * xi) ** (w0.model.p / 2.0))
        assert res.values[-1] >= floor - 1e-12


def test_laminate_rejects_negative_depth(w0):
    with pytest.raises(ValueError, match="depth"):
        laminate_search(w0, E1E2, -1)


def test_laminate_rejects_depth_above_two(w0):
    with pytest.raises(ValueError, match="depth"):
        laminate_search(w0, E1E2, 3)


def test_laminate_rejects_a_fractional_depth(w0):
    with pytest.raises(ValueError, match="the integer 0, 1 or 2"):
        laminate_search(w0, E1E2, 1.5)


def test_table_rejects_a_fractional_depth():
    with pytest.raises(ValueError, match="the integer 0, 1 or 2"):
        build_envelope_table(EnergyModel(), sigma_max=1.0, pitch=0.5,
                             depth=1.5)


@pytest.fixture(scope="module")
def sweep_table():
    # the set-up table of the sweep benchmark
    return build_envelope_table(EnergyModel(), sigma_max=2.0, pitch=0.5,
                                depth=1)


def test_depth_one_witnesses_replay_their_node_values(w0, sweep_table):
    # the polished splits must replay to the claimed node value, not only
    # the grid split before it
    nodes = [e for e in sweep_table.entries if e.method == "laminate-1"]
    assert nodes
    for e in nodes:
        xi = mat32([e.sigma[0], 0, 0], [0, e.sigma[1], 0])
        step = np.array(e.witness["step"])
        lam = e.witness["fraction"]
        replay = (lam * w0_closed_form(w0.model,
                                       xi + (1.0 - lam) * step).as_float()
                  + (1.0 - lam) * w0_closed_form(w0.model,
                                                 xi - lam * step).as_float())
        assert e.witness["score"] == e.value
        assert replay == pytest.approx(e.value, rel=1e-12, abs=0.0)


def _replay(density, xi, split):
    """Value of a witness tree: the density at a leaf (None), else the
    fraction-weighted values of the split's two ends."""
    if split is None:
        return float(density.batch(xi[None])[0])
    step = np.array(split["step"])
    lam = split["fraction"]
    return (lam * _replay(density, xi + (1.0 - lam) * step,
                          split.get("plus"))
            + (1.0 - lam) * _replay(density, xi - lam * step,
                                    split.get("minus")))


def test_depth_two_witnesses_replay_their_node_values(w0):
    table = build_envelope_table(EnergyModel(), sigma_max=1.0, pitch=0.5,
                                 depth=2)
    nodes = [e for e in table.entries if e.method == "laminate-2"]
    # (0.5, 0.5) is attained only by splitting the ends of a first split
    assert any("plus" in e.witness for e in nodes)
    for e in nodes:
        xi = mat32([e.sigma[0], 0, 0], [0, e.sigma[1], 0])
        assert e.witness["score"] == e.value
        assert _replay(w0, xi, e.witness) == pytest.approx(
            e.value, rel=1e-12, abs=0.0)


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

@pytest.fixture(scope="module")
def small_table():
    return build_envelope_table(EnergyModel(), sigma_max=1.0, pitch=0.5,
                                depth=1)


def test_table_nodes_bounded_by_density(small_table, w0):
    for e in small_table.entries:
        xi = mat32([e.sigma[0], 0, 0], [0, e.sigma[1], 0])
        assert e.value <= w0_closed_form(w0.model, xi).as_float() + 1e-9


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
    node = small_table.values_at(mat32([1, 0, 0], [0, 0.5, 0])[None])[0]
    th = 0.7
    q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    r = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    xi = r @ np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]]) @ q
    assert small_table.values_at(xi[None])[0] == pytest.approx(node, abs=1e-9)


def test_table_outside_ball_uses_certificate(small_table):
    xi = mat32([5.0, 0, 0], [0, 5.0, 0])
    expect = small_table.certificate.c * (1.0 + frob_norm(xi) ** small_table.p)
    got = small_table.values_at(xi[None])[0]
    assert got == pytest.approx(expect, rel=1e-12)
    # and its slope c p |xi|^(p - 2) xi
    cert = small_table.certificate
    expect = cert.c * cert.p * frob_norm(xi) ** (cert.p - 2.0) * xi
    np.testing.assert_allclose(small_table.lookup(xi[None]).slopes()[0],
                               expect, rtol=1e-12)


def test_table_lookup_rejects_non_finite_entries(small_table):
    xis = np.tile(np.array([[0.5, 0.0], [0.0, 0.25], [0.0, 0.0]]), (4, 1, 1))
    for bad in (np.nan, np.inf):
        xis[2, 1, 1] = bad
        for read in (small_table.lookup, small_table.values_at):
            with pytest.raises(ValueError,
                               match="mat32 entries must be finite"):
                read(xis)


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


def _with_singular_values(rng, s1, s2):
    """A 3x2 matrix with singular values (s1, s2) and random singular
    vectors. With s2 = 0 its columns are c and 2c, so that the column
    cross product, and with it s2, is exactly zero."""
    if s2 == 0.0:
        c = rng.standard_normal(3)
        return np.stack([c, 2.0 * c], axis=1) * (s1 / (5.0 ** 0.5
                                                      * np.linalg.norm(c)))
    u = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    v = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    return u @ np.diag([s1, s2]) @ v.T


@pytest.mark.parametrize("sigma", [
    (0.8, 0.3), (0.7, 0.6), (0.35, 0.1),  # inside the box
    (1.4, 0.2), (2.0, 1.5),               # beyond sigma_max
    (0.3, 0.3), (0.8, 0.8),               # s1 = s2
    (0.7, 0.0), (1.3, 0.0),               # rank one
    (0.0, 0.0),
])
def test_table_slope_matches_central_differences(small_table, sigma):
    # away from grid lines (pitch 0.5), where the interpolant is smooth
    xi = _with_singular_values(np.random.default_rng(3), *sigma)
    assert np.allclose(singular_values(xi[None])[0], sigma,
                       rtol=1e-12, atol=0.0)
    h = 1e-6
    unit = np.eye(6).reshape(6, 3, 2)
    fd = (small_table.values_at(xi + h * unit)
          - small_table.values_at(xi - h * unit)).reshape(3, 2) / (2 * h)
    got = small_table.lookup(xi[None]).slopes()[0]
    assert np.linalg.norm(got - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


def _rotation_slopes(table, xis):
    """The table's slope in its rotation form: b1 u1 v1^T + b2 u2 v2^T
    with v1 = (cos t, sin t), t = atan2(2 b, a - d) / 2 from the Gram
    matrix of xi / s1, v2 = v1 turned by 90 degrees, uk = xi vk / sk
    (zero where sk = 0); the certificate's slope beyond the box."""
    sig = singular_values(xis)
    inside, cells, fractions = table._cells(sig)
    (i1, i2), (f1, f2) = ([a[inside] for a in pair]
                          for pair in (cells, fractions))
    cert = table.certificate
    norms = np.sqrt((sig ** 2).sum(axis=1))
    out = (cert.c * cert.p * norms ** (cert.p - 2.0))[:, None, None] * xis
    v, g = table.values, table.sigma_grid
    b = np.stack([((v[i1 + 1, i2] - v[i1, i2]) * (1 - f2)
                   + (v[i1 + 1, i2 + 1] - v[i1, i2 + 1]) * f2)
                  / (g[i1 + 1] - g[i1]),
                  ((v[i1, i2 + 1] - v[i1, i2]) * (1 - f1)
                   + (v[i1 + 1, i2 + 1] - v[i1 + 1, i2]) * f1)
                  / (g[i2 + 1] - g[i2])], axis=1)
    near, s = xis[inside], sig[inside]
    unit = near / np.maximum(s[:, 0], np.finfo(float).tiny)[:, None, None]
    gram = np.einsum("kia,kib->kab", unit, unit)
    t = 0.5 * np.arctan2(2.0 * gram[:, 0, 1], gram[:, 0, 0] - gram[:, 1, 1])
    rot = np.stack([np.cos(t), -np.sin(t), np.sin(t), np.cos(t)],
                   axis=1).reshape(-1, 2, 2)
    scale = np.divide(b, s, out=np.zeros_like(b), where=s > 0.0)
    out[inside] = (near @ rot) * scale[:, None, :] @ rot.transpose(0, 2, 1)
    return out


def test_kept_lookup_gives_the_slopes_of_the_rotation_form(small_table):
    # one stack with s1 = s2, s2 = 0, the zero matrix, random rows and
    # rows beyond the box, read once by lookup; the closed-form projector
    # against the angle of the top eigenvector
    rng = np.random.default_rng(21)
    sigmas = [(0.3, 0.3), (0.8, 0.8), (0.7, 0.0), (1.3, 0.0), (0.0, 0.0),
              (1.4, 0.2), (2.0, 1.5), (0.8, 0.3), (0.35, 0.1)]
    xis = np.concatenate([
        np.array([_with_singular_values(rng, *s) for s in sigmas]),
        # Gram matrix exactly 0.16 I: no top eigenvector
        mat32([0.4, 0, 0], [0, 0.4, 0])[None],
        rng.uniform(-0.7, 0.7, (32, 3, 2))])
    hit = small_table.lookup(xis)
    assert not hit.inside.all() and hit.inside.any()
    np.testing.assert_array_equal(hit.values, small_table.values_at(xis))
    got = hit.slopes()
    np.testing.assert_array_equal(got, small_table.lookup(xis).slopes())
    expect = _rotation_slopes(small_table, xis)
    scale = np.abs(expect).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(got - expect) <= 1e-12 * scale)


def test_table_json_roundtrip(small_table, tmp_path):
    path = tmp_path / "table.json"
    small_table.save_json(path)
    back = EnvelopeTable.load_json(path)
    assert np.array_equal(back.sigma_grid, small_table.sigma_grid)
    assert np.array_equal(back.values, small_table.values)
    assert back.certificate.c == small_table.certificate.c
    assert len(back.entries) == len(small_table.entries)
    assert back.entries[0].method == small_table.entries[0].method


def test_table_entry_methods_are_labelled(small_table):
    allowed = {"density", "four-corner", "square-refine", "laminate-1"}
    assert {e.method for e in small_table.entries} <= allowed


def test_table_json_keeps_evaluations(small_table):
    data = small_table.to_dict()
    back = EnvelopeTable.from_dict(data)
    assert [e.evaluations for e in back.entries] \
        == [e.evaluations for e in small_table.entries]
    # a table saved before the count existed still loads
    for e in data["entries"]:
        del e["evaluations"]
    old = EnvelopeTable.from_dict(data)
    assert all(e.evaluations is None for e in old.entries)
    assert np.array_equal(old.values, small_table.values)


def test_evaluations_count_every_density_point(monkeypatch):
    seen = {"points": 0}

    class CountingDensity(ReducedDensity):
        def batch(self, xis):
            seen["points"] += len(xis)
            return super().batch(xis)

    monkeypatch.setattr(envelope, "ReducedDensity", CountingDensity)
    table = build_envelope_table(EnergyModel(), sigma_max=1.0, pitch=0.5,
                                 depth=2)
    assert all(e.evaluations > 0 for e in table.entries)
    assert sum(e.evaluations for e in table.entries) == seen["points"]


@pytest.mark.parametrize("model", [
    EnergyModel(ReciprocalBarrier(1.0073)),
    EnergyModel(ShiftedLogBarrier()),
    EnergyModel(p=3.0),
], ids=["reciprocal", "shifted-log", "p3"])
def test_depth_two_table_does_not_depend_on_the_child_block(monkeypatch,
                                                           model):
    # blocks of one child, of 7, and one block holding every child give
    # the same nodes, methods, witnesses and evaluation counts
    calls = {}

    class CountingDensity(ReducedDensity):
        def batch(self, xis):
            calls[block] = calls.get(block, 0) + 1
            return super().batch(xis)

    monkeypatch.setattr(envelope, "ReducedDensity", CountingDensity)
    tables = []
    for block in (1, 7, 10 ** 6):
        monkeypatch.setattr(envelope, "_CHILD_BLOCK", block)
        tables.append(build_envelope_table(model, sigma_max=1.0, pitch=0.5,
                                           depth=2).to_dict())
    assert tables[0] == tables[1] == tables[2]
    assert any(e["method"] == "laminate-2" for e in tables[0]["entries"])
    # the inner sweep ran in blocks: fewer calls for larger blocks
    assert calls[1] > calls[7] > calls[10 ** 6]


def test_depth_two_search_memory_is_set_by_the_child_block(w0):
    # the inner ends of all ~200 children in one block, as (3, 2, child,
    # pair) arrays and the fiber solve's temporaries over them, peaked
    # near 20 MB; blocks of children peak near 3 MB
    xi = mat32([0.5, 0, 0], [0, 0.5, 0])
    laminate_search(w0, xi, 2)  # builds the cached pair grids
    tracemalloc.start()
    try:
        laminate_search(w0, xi, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("seed", range(4))
def test_least_scores_are_the_stable_sort_head(seed):
    # the depth-2 search keeps the _TOP_K least outer scores; a partition
    # must keep the same indices in the same order as the stable sort,
    # ties at the cut and +inf scores included
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 40, size=10192).astype(float)
    scores[rng.random(scores.size) < 0.3] = np.inf
    for k in (1, 191, 192, 5000, 10191, 10192, 20000):
        assert np.array_equal(envelope._least(scores, k),
                              np.argsort(scores, kind="stable")[:k])
    scores[:] = np.inf
    assert np.array_equal(envelope._least(scores, 192), np.arange(192))


# node values, as float.hex, and density evaluations of the depth-2 table
# at sigma_max = 0.5, pitch = 0.5 under the reciprocal barrier, recorded
# before the fiber solve read component-major rows
GOLDEN_DEPTH2 = [
    ((0.0, 0.0), "0x1.38f3d1d950af4p+2", 10209),
    ((0.5, 0.0), "0x1.1000ae72bbb9fp+2", 178409),
    ((0.5, 0.5), "0x1.ef5adf0195e84p+1", 171689),
]


def test_depth_two_table_reproduces_its_golden_nodes():
    table = build_envelope_table(EnergyModel(ReciprocalBarrier(1.0)),
                                 sigma_max=0.5, pitch=0.5, depth=2,
                                 threads=1)
    got = [(e.sigma, e.value.hex(), e.evaluations) for e in table.entries]
    assert got == GOLDEN_DEPTH2


# the 5 x 5 node values, as float.hex, of the sweep benchmark's set-up
# table (EnergyModel(), sigma_max = 2, pitch = 0.5, depth 1), recorded
# while the node bounds still read the scalar density; the sweep's
# descents amplify round-off, so these must not move
GOLDEN_SWEEP_SETUP = [
    ["0x1.38f3d1d950af4p+2", "0x1.1000ae72bbb9fp+2", "0x1.ead2efadce25ap+1",
     "0x1.23fe24139e414p+2", "0x1.81158af8573b2p+2"],
    ["0x1.1000ae72bbb9fp+2", "0x1.10adb9c2a7fbbp+2", "0x1.ea8213776e316p+1",
     "0x1.2420d4981b4a9p+2", "0x1.8000000000000p+2"],
    ["0x1.ead2efadce25ap+1", "0x1.ea8213776e316p+1", "0x1.f1e7a3b2a15e8p+1",
     "0x1.2c4dd12448fbdp+2", "0x1.8c31fbefb84acp+2"],
    ["0x1.23fe24139e414p+2", "0x1.2420d4981b4a9p+2", "0x1.2c4dd12448fbdp+2",
     "0x1.6670ece3a5d6ap+2", "0x1.ca25da15e3450p+2"],
    ["0x1.81158af8573b2p+2", "0x1.8000000000000p+2", "0x1.8c31fbefb84acp+2",
     "0x1.ca25da15e3450p+2", "0x1.1800000000000p+3"],
]


def test_sweep_setup_table_reproduces_its_golden_nodes(sweep_table):
    got = [[v.hex() for v in row] for row in sweep_table.values.tolist()]
    assert got == GOLDEN_SWEEP_SETUP


def test_threaded_build_matches_serial(small_table):
    threaded = build_envelope_table(EnergyModel(), sigma_max=1.0, pitch=0.5,
                                    depth=1, threads=4)
    assert np.array_equal(threaded.values, small_table.values)


def test_table_validation_rejects_bad_grid(small_table):
    with pytest.raises(ValueError, match="start at zero"):
        EnvelopeTable(np.array([0.5, 1.0]),
                      small_table.values[:2, :2], (), 2.0,
                      small_table.certificate, 1)
    with pytest.raises(ValueError, match="pitch must divide"):
        build_envelope_table(EnergyModel(), sigma_max=1.0, pitch=0.3)


# ---------------------------------------------------------------------------
# mirror pairs of the search grid

@pytest.mark.parametrize("sizes", [envelope._OUTER, envelope._INNER],
                         ids=["default", "inner"])
def test_every_grid_pair_has_an_exact_mirror(sizes):
    grid = envelope._pair_grid(*sizes)
    mirror = envelope._mirror_index(grid.steps, grid.lam)
    k = np.arange(grid.lam.size)
    assert np.all(mirror >= 0)
    assert np.array_equal(mirror[mirror], k)
    assert np.array_equal(grid.steps[mirror], -grid.steps)
    assert np.all(grid.lam + grid.lam[mirror] == 1.0)
    assert grid.rep.size * 2 == grid.lam.size
    # a mirror reads its representative's end values swapped
    assert np.array_equal(grid.ends[mirror], grid.ends[:, ::-1])


@pytest.mark.parametrize("sizes", [(6, 2, 3, 5), (20, 2, 3, 3)],
                         ids=["fractions", "directions"])
def test_a_grid_pair_without_an_exact_mirror_is_refused(sizes):
    # fractions 1/6, 1/3, 2/3, 5/6 are not exact mirrors of each other in
    # floating point; the first 20 lattice directions are not closed
    # under negation
    with pytest.raises(ValueError, match="no exact mirror"):
        envelope._pair_grid(*sizes)


def _full_grid_profile(density, xi, depth):
    """The search with every grid pair evaluated on its own."""
    base = float(density.batch(xi[None])[0])
    grid = envelope._pair_grid(*envelope._OUTER)
    steps, lam = grid.steps, grid.lam
    plus = xi[None] + (1.0 - lam)[:, None, None] * steps
    minus = xi[None] - lam[:, None, None] * steps
    vp = density.batch(plus)
    vm = density.batch(minus)
    scores = lam * vp + (1.0 - lam) * vm
    k_best = int(np.argmin(scores))
    split = float(scores[k_best])
    witness = None
    if math.isfinite(split):
        step, frac = steps[k_best], float(lam[k_best])
        polished = envelope._polish_pair(density, xi, step, frac)
        if polished[0] < split:
            split, step, frac = polished
        witness = {"step": step.tolist(), "fraction": frac, "score": split}
    values = [base, min(base, split)]
    if depth == 2:
        inner = envelope._pair_grid(*envelope._INNER)
        order = np.argsort(scores, kind="stable")
        kept = [int(k) for k in order[:envelope._TOP_K]
                if math.isfinite(float(scores[k]))]
        v2 = values[1]
        if kept:
            pts = np.concatenate([plus[kept], minus[kept]])
            child_l0 = np.concatenate([vp[kept], vm[kept]])
            cp = (pts[:, None] + (1.0 - inner.lam)[None, :, None, None]
                  * inner.steps[None])
            cm = (pts[:, None] - inner.lam[None, :, None, None]
                  * inner.steps[None])
            shape = (pts.shape[0], inner.lam.size)
            cvp = density.batch(cp.reshape(-1, 3, 2)).reshape(shape)
            cvm = density.batch(cm.reshape(-1, 3, 2)).reshape(shape)
            csc = (inner.lam * cvp + (1.0 - inner.lam) * cvm).min(axis=1)
            child_l1 = np.minimum(child_l0, csc)
            frac = lam[kept]
            half = len(kept)
            pairs = (frac * child_l1[:half]
                     + (1.0 - frac) * child_l1[half:])
            v2 = min(v2, float(pairs.min()))
        values.append(v2)
    return values, witness


# small arguments, where splitting the ends of a split pays off
EQUIVALENCE_POINTS = [
    np.random.default_rng(21).uniform(-0.5, 0.5, (3, 2)),
    mat32([0.3, 0.06, -0.12], [0.15, 0.03 + 3e-8, -0.06]),  # nearly parallel
    mat32([0.5, 0.0, 0.0], [0.0, 0.0, 0.0]),                # rank one
    mat32([0.1, -0.4, 0.25], [0.1, -0.4, 0.25]),            # equal columns
]
EQUIVALENCE_DENSITIES = [
    ReducedDensity(EnergyModel()),
    ReducedDensity(EnergyModel(ShiftedLogBarrier(), p=3.0)),
    PowerDensity(3.0),
]


@pytest.mark.parametrize("depth", [1, 2], ids=["outer", "inner"])
@pytest.mark.parametrize("density", EQUIVALENCE_DENSITIES,
                         ids=["reciprocal", "shifted-log", "power"])
def test_mirror_search_equals_the_full_grid(density, depth):
    # depth 1 searches the outer grid, depth 2 also the inner grid
    for xi in EQUIVALENCE_POINTS:
        want, witness = _full_grid_profile(density, xi, depth)
        got = laminate_search(density, xi, depth)
        assert list(got.values) == want
        if depth == 1:
            assert got.witness == witness
            continue
        # the witness replays its score, the value whenever some split
        # beats the density (never for the convex power)
        assert _replay(density, xi, got.witness) == pytest.approx(
            got.witness["score"], rel=1e-12, abs=0.0)
        if want[2] < want[0]:
            assert got.witness["score"] == want[2]


def test_mirror_search_equals_the_full_grid_at_the_defaults(w0):
    # the default call, with no depth-specific setup, on the module density
    xi = EQUIVALENCE_POINTS[0]
    want, witness = _full_grid_profile(w0, xi, 2)
    assert list(laminate_search(w0, xi, 2).values) == want
    assert laminate_search(w0, xi, 1).witness == witness
