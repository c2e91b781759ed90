import hashlib
import inspect
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from memrelax import envelope, fiber_reduction
from memrelax.energy_models import (EnergyModel, ReciprocalBarrier,
                                    ShiftedLogBarrier)
from memrelax.envelope import (
    EnvelopeTable, RelaxedDensity, build_envelope_table, four_corner_bound,
    growth_certificate, laminate_search, square_refine_bound,
)
from memrelax.fiber_reduction import (ReducedDensity, solve_fiber,
                                      w0_closed_form)
from memrelax.pw_affine import PwAffineField
from memrelax.tensor_kernel import frob_norm, singular_frame
from oracles import (FOUR_MODELS, build_diamond_hat, build_square_hat,
                     finite, mat32, rank_one_convexity_probe,
                     zw0_upper_from_testfn)

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


@pytest.mark.parametrize("depth", [True, False, np.True_])
def test_a_bool_depth_is_refused(w0, depth):
    # depth=True passed as 1 and wrote methods "laminate-True" and
    # "depth": true into the table's JSON
    with pytest.raises(ValueError, match="the integer 0, 1 or 2"):
        laminate_search(w0, E1E2, depth)
    with pytest.raises(ValueError, match="the integer 0, 1 or 2"):
        build_envelope_table(EnergyModel(), sigma_max=0.5, pitch=0.5,
                             depth=depth)
    assert laminate_search(w0, E1E2, np.int64(1)).values \
        == laminate_search(w0, E1E2, 1).values


def _nodes(sigma_max, pitch):
    """The nodes (s1, s2), s1 >= s2, of a table grid, in table order."""
    grid = np.linspace(0.0, sigma_max, int(round(sigma_max / pitch)) + 1)
    return [(float(grid[i]), float(grid[j])) for i in range(grid.size)
            for j in range(i + 1)]


def _diag(s1, s2):
    return mat32([s1, 0, 0], [0, s2, 0])


def _search_node(density, s1, s2, depth):
    """The bound a table node took while the laminate search built the
    table: the least of the density, the four-corner bound (s1 > 0), the
    square-refine bound and the search of the given depth, first in that
    order on ties, as (value, method, witness, density points valued)."""
    counted = BatchOnly(density)
    xi = _diag(s1, s2)
    lam = laminate_search(counted, xi, depth)
    candidates = [(lam.values[0], "density", None)]
    if s1 > 0.0:
        candidates.append((four_corner_bound(xi, counted).as_float(),
                           "four-corner", None))
    candidates.append((square_refine_bound(xi, counted).as_float(),
                       "square-refine", None))
    candidates.append((lam.values[-1], f"laminate-{depth}", lam.witness))
    value, method, witness = min(candidates, key=lambda c: c[0])
    return value, method, witness, sum(counted.calls)


def test_depth_one_witnesses_replay_their_node_values(w0):
    # at the nodes of the sweep benchmark's set-up grid, the polished
    # splits must replay to the search's value, not only the grid split
    # before it
    replayed = 0
    for s1, s2 in _nodes(2.0, 0.5):
        xi = _diag(s1, s2)
        res = laminate_search(w0, xi, 1)
        if res.witness is None or not res.values[1] < res.values[0]:
            continue
        step = np.array(res.witness["step"])
        lam = res.witness["fraction"]
        replay = (lam * w0_closed_form(w0.model,
                                       xi + (1.0 - lam) * step).as_float()
                  + (1.0 - lam) * w0_closed_form(w0.model,
                                                 xi - lam * step).as_float())
        assert res.witness["score"] == res.values[1]
        assert replay == pytest.approx(res.values[1], rel=1e-12, abs=0.0)
        replayed += 1
    assert replayed


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
    split_ends = []
    for s1, s2 in _nodes(1.0, 0.5):
        xi = _diag(s1, s2)
        res = laminate_search(w0, xi, 2)
        if res.witness is None or not res.values[2] < res.values[0]:
            continue
        assert res.witness["score"] == res.values[2]
        assert _replay(w0, xi, res.witness) == pytest.approx(
            res.values[2], rel=1e-12, abs=0.0)
        split_ends.append("plus" in res.witness)
    # (0.5, 0.5) is attained only by splitting the ends of a first split
    assert any(split_ends)


# two depth-2 searches, ReducedDensity(EnergyModel()) at diag(0.5, 0.25)
# and ReducedDensity(EnergyModel(ShiftedLogBarrier(), p=3.0)) at a random
# matrix: values and witness entries as float.hex, signed zeros included,
# recorded while the search valued one end of each mirror pair (-step,
# 1 - fraction) and, at the flat matrix, of each orbit of the reflection
# diag(1, 1, -1); every grid split valued on its own names the same splits
RANDOM_XI = np.random.default_rng(21).uniform(-0.5, 0.5, (3, 2))
GOLDEN_WITNESSES = {
    "flat": (
        ["0x1.f7cf476542bd0p+2", "0x1.106e1ec3154ecp+2",
         "0x1.0418fb3868acep+2"],
        {"step": [["0x0.0p+0", "0x0.0p+0"], ["0x0.0p+0", "0x0.0p+0"],
                  ["0x1.87de2a6aea964p-2", "0x1.d906bcf328d46p-1"]],
         "fraction": "0x1.0000000000000p-1",
         "score": "0x1.0418fb3868acep+2",
         "plus": {"step": [["0x1.73b396be3b9fep-1", "-0x1.73b396be3b9ffp-1"],
                           ["-0x1.73b396be3b9fep-1", "0x1.73b396be3b9ffp-1"],
                           ["-0x1.73b396be3b9fep-1", "0x1.73b396be3b9ffp-1"]],
                  "fraction": "0x1.8000000000000p-1",
                  "score": "0x1.0418fb3868acep+2"},
         "minus": {"step": [["0x1.73b396be3b9fep-1", "-0x1.73b396be3b9ffp-1"],
                            ["-0x1.73b396be3b9fep-1", "0x1.73b396be3b9ffp-1"],
                            ["0x1.73b396be3b9fep-1", "-0x1.73b396be3b9ffp-1"]],
                   "fraction": "0x1.8000000000000p-1",
                   "score": "0x1.0418fb3868acep+2"}}),
    "random": (
        ["0x1.dd4ec43e87cdep+2", "0x1.5d845ca42e2ccp+2",
         "0x1.564c528093ffap+2"],
        {"step": [["0x1.c47d709fa4fd3p-3", "-0x1.111a1462b2982p-1"],
                  ["-0x1.c47d709fa4fd3p-3", "0x1.111a1462b2982p-1"],
                  ["-0x1.c47d709fa4fd3p-3", "0x1.111a1462b2982p-1"]],
         "fraction": "0x1.0000000000000p-1",
         "score": "0x1.564c528093ffap+2",
         "plus": {"step": [["0x1.c73d51c54470ep+0", "0x0.0p+0"],
                           ["0x0.0p+0", "0x0.0p+0"],
                           ["0x0.0p+0", "0x0.0p+0"]],
                  "fraction": "0x1.8000000000000p-1",
                  "score": "0x1.573e8eadf083cp+2"},
         "minus": {"step": [["-0x1.06d52981cacb3p+0", "-0x0.0p+0"],
                            ["-0x1.06d52981cacb3p+0", "-0x0.0p+0"],
                            ["-0x1.06d52981cacb3p+0", "-0x0.0p+0"]],
                   "fraction": "0x1.0000000000000p-2",
                   "score": "0x1.555a1653377b8p+2"}}),
}
GOLDEN_SEARCHES = {
    "flat": (ReducedDensity(EnergyModel()), _diag(0.5, 0.25)),
    "random": (ReducedDensity(EnergyModel(ShiftedLogBarrier(), p=3.0)),
               RANDOM_XI),
}


def _hexed(x):
    """Every float of a nested witness as float.hex."""
    if isinstance(x, dict):
        return {k: _hexed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hexed(v) for v in x]
    return x.hex()


@pytest.mark.parametrize("case", GOLDEN_WITNESSES)
def test_depth_two_search_reproduces_its_golden_witnesses(case):
    res = laminate_search(*GOLDEN_SEARCHES[case], 2)
    values, witness = GOLDEN_WITNESSES[case]
    assert _hexed(res.values) == values
    assert _hexed(res.witness) == witness


# the same two cases at depth 1, recorded beside the depth-2 witnesses
GOLDEN_DEPTH1_WITNESSES = {
    "flat": (
        ["0x1.f7cf476542bd0p+2", "0x1.106e1ec3154ecp+2"],
        {"step": [["0x0.0p+0", "0x0.0p+0"],
                  ["0x1.1945348fd3e7dp-53", "0x1.fdfaed5b52ae8p+0"],
                  ["0x0.0p+0", "0x0.0p+0"]],
         "fraction": "0x1.3333333333333p-1",
         "score": "0x1.106e1ec3154ecp+2"}),
    "random": (
        ["0x1.dd4ec43e87cdep+2", "0x1.5d845ca42e2ccp+2"],
        {"step": [["-0x1.d53db56a55a87p-1", "-0x0.0p+0"],
                  ["0x1.d53db56a55a87p-1", "0x0.0p+0"],
                  ["0x1.d53db56a55a87p-1", "0x0.0p+0"]],
         "fraction": "0x1.0000000000000p-1",
         "score": "0x1.5d845ca42e2ccp+2"}),
}


@pytest.mark.parametrize("case", GOLDEN_DEPTH1_WITNESSES)
def test_depth_one_search_reproduces_its_golden_witnesses(case):
    res = laminate_search(*GOLDEN_SEARCHES[case], 1)
    values, witness = GOLDEN_DEPTH1_WITNESSES[case]
    assert _hexed(res.values) == values
    assert _hexed(res.witness) == witness


@pytest.mark.parametrize("xi", [
    mat32([0.5, 0.0, 0.0], [0.0, 0.25, 0.0]),
    mat32([0.5, 0.0, -0.0], [0.0, 0.25, -0.0]),
    mat32([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    mat32([0.5, 0.0, 1e-300], [0.0, 0.25, 0.0]),
    RANDOM_XI,
], ids=["flat", "negative-zero", "zero", "tiny-third-row", "random"])
def test_the_outer_grid_values_every_end(w0, xi):
    # a plus and a minus end for each of the 10,192 outer pairs, in one
    # call after the density at xi, whether or not xi's third row is zero
    counted = BatchOnly(w0)
    laminate_search(counted, xi, 1)
    assert counted.calls[1] == 20384


@pytest.mark.parametrize("depth, call", [
    (0, 0), (1, 0), (1, 1), (1, 2), (1, -1),
    (2, 0), (2, 1), (2, 2), (2, 2 + 2 * envelope._POLISH_ROUNDS), (2, -1),
], ids=["depth0-base", "depth1-base", "depth1-outer", "depth1-polish",
        "depth1-last-polish", "base", "outer", "polish", "first-inner",
        "inner"])
def test_a_nan_density_value_is_refused(w0, depth, call):
    # np.argmin takes a NaN for the least score: a NaN at one outer end of
    # diag(0.5, 0.05) made values[1] the density's own 22.357 in place of
    # 4.25, with no witness and no error. The calls are the density at
    # xi, the outer grid, a plus and a minus call per polishing round and
    # at depth 2 one call per kept pair; -1 is the search's last call
    xi = _diag(0.5, 0.05)
    if call < 0:
        counted = BatchOnly(w0)
        laminate_search(counted, xi, depth)
        call += len(counted.calls)
    seen = []

    class NanOnce:
        def batch(self, xis):
            vals = w0.batch(xis)
            if len(seen) == call:
                vals[-1] = np.nan
            seen.append(len(xis))
            return vals

    with pytest.raises(ValueError, match="NaN"):
        laminate_search(NanOnce(), xi, depth)
    assert len(seen) == call + 1


# ---------------------------------------------------------------------------
# the search against a reference built split by split

def _reference_grid(n_sphere, n_angles, n_magnitudes, n_lambda):
    """The split grid as laminate_search documents it, one step at a
    time: each direction, then each planar angle, then each magnitude,
    each step listed once per fraction."""
    angles = np.pi * np.arange(n_angles) / n_angles
    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    mags = np.geomspace(1e-2, 10.0, n_magnitudes)
    fractions = np.linspace(0.0, 1.0, n_lambda + 2)[1:-1]
    steps, lam = [], []
    for d in envelope._sphere_net(n_sphere):
        for n in normals:
            for m in mags:
                for f in fractions:
                    steps.append(np.outer(d, n) * m)
                    lam.append(f)
    return np.array(steps), np.array(lam)


@pytest.mark.parametrize("sizes, pairs", [
    (envelope._OUTER, 10192), (envelope._INNER, 840)],
    ids=["outer", "inner"])
def test_the_split_grid_lists_each_step_once_per_fraction(sizes, pairs):
    steps, lam = envelope._split_grid(*sizes)
    want_steps, want_lam = _reference_grid(*sizes)
    assert steps.shape == (pairs, 3, 2) and lam.shape == (pairs,)
    assert steps.tobytes() == want_steps.tobytes()
    assert lam.tobytes() == want_lam.tobytes()
    # cached and shared between searches, so read-only
    assert not steps.flags.writeable and not lam.flags.writeable
    assert envelope._split_grid(*sizes)[0] is steps


def _full_grid_profile(density, xi, depth):
    """The search on the reference grids, the inner splits of all kept
    pairs' ends valued in one call and the plus and minus ends apart."""
    base = float(density.batch(xi[None])[0])
    steps, lam = _reference_grid(*envelope._OUTER)
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
        isteps, ilam = _reference_grid(*envelope._INNER)
        order = np.argsort(scores, kind="stable")
        kept = [int(k) for k in order[:envelope._TOP_K]
                if math.isfinite(float(scores[k]))]
        v2 = values[1]
        if kept:
            pts = np.concatenate([plus[kept], minus[kept]])
            child_l0 = np.concatenate([vp[kept], vm[kept]])
            cp = pts[:, None] + (1.0 - ilam)[None, :, None, None] * isteps
            cm = pts[:, None] - ilam[None, :, None, None] * isteps
            shape = (pts.shape[0], ilam.size)
            cvp = density.batch(cp.reshape(-1, 3, 2)).reshape(shape)
            cvm = density.batch(cm.reshape(-1, 3, 2)).reshape(shape)
            full = ilam * cvp + (1.0 - ilam) * cvm
            c_best = np.argmin(full, axis=1)
            csc = full[np.arange(shape[0]), c_best]
            child_l1 = np.minimum(child_l0, csc)
            half = len(kept)
            pairs = (lam[kept] * child_l1[:half]
                     + (1.0 - lam[kept]) * child_l1[half:])
            i = int(np.argmin(pairs))
            if pairs[i] < v2:
                v2 = float(pairs[i])
                k = kept[i]
                witness = {"step": steps[k].tolist(),
                           "fraction": float(lam[k]), "score": v2}
                for side, c in (("plus", i), ("minus", half + i)):
                    b = c_best[c]
                    witness[side] = (
                        {"step": isteps[b].tolist(),
                         "fraction": float(ilam[b]),
                         "score": float(csc[c])}
                        if csc[c] < child_l0[c] else None)
        values.append(v2)
    return values, witness


# small arguments, where splitting the ends of a split pays off
REFERENCE_POINTS = [
    RANDOM_XI,
    mat32([0.3, 0.06, -0.12], [0.15, 0.03 + 3e-8, -0.06]),  # nearly parallel
    mat32([0.1, -0.4, 0.25], [0.1, -0.4, 0.25]),            # equal columns
    mat32([0.5, 0.0, 0.0], [0.0, 0.0, 0.0]),    # rank one: diag(0.5, 0)
    mat32([0.5, 0.0, 0.0], [0.0, 0.25, 0.0]),   # a laminate-2 node
    mat32([0.3, -0.2, -0.0], [0.1, 0.4, 0.0]),  # a -0.0 in the third row
]
REFERENCE_DENSITIES = [
    ReducedDensity(EnergyModel()),
    ReducedDensity(EnergyModel(ShiftedLogBarrier(), p=3.0)),
    PowerDensity(3.0),
]
DENSITY_IDS = ["reciprocal", "shifted-log", "power"]


@pytest.mark.parametrize("depth", [1, 2], ids=["outer", "inner"])
@pytest.mark.parametrize("density", REFERENCE_DENSITIES, ids=DENSITY_IDS)
def test_the_search_equals_the_reference_full_grid(density, depth):
    # depth 1 searches the outer grid, depth 2 also the inner grid
    for xi in REFERENCE_POINTS:
        want, witness = _full_grid_profile(density, xi, depth)
        got = laminate_search(density, xi, depth)
        assert list(got.values) == want
        assert got.witness == witness
        if depth == 1:
            continue
        # the witness replays its score, the value whenever some split
        # beats the density (never for the convex power)
        assert _replay(density, xi, got.witness) == pytest.approx(
            got.witness["score"], rel=1e-12, abs=0.0)
        if want[2] < want[0]:
            assert got.witness["score"] == want[2]


def test_the_search_equals_the_reference_full_grid_at_the_defaults(w0):
    # the default call, with no depth-specific setup, on the module density
    xi = REFERENCE_POINTS[0]
    want, witness = _full_grid_profile(w0, xi, 2)
    got = laminate_search(w0, xi, 2)
    assert list(got.values) == want
    assert got.witness == witness
    assert laminate_search(w0, xi, 1).witness \
        == _full_grid_profile(w0, xi, 1)[1]


@pytest.mark.parametrize("density", REFERENCE_DENSITIES, ids=DENSITY_IDS)
def test_the_search_values_a_reflected_matrix_alike(density):
    # the reflection diag(1, 1, -1) of R^3 leaves each density and the
    # split grid as a set unchanged, so the search at R xi values R's
    # image of every split at xi and finds the same values to the bit
    reflect = np.array([1.0, 1.0, -1.0])[:, None]
    for xi in REFERENCE_POINTS[:2]:
        got = laminate_search(density, xi, 2)
        mirrored = laminate_search(density, reflect * xi, 2)
        assert mirrored.values == got.values
        assert mirrored.witness["score"] == got.witness["score"]


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
    floor = (s1 ** 2 + s2 ** 2) ** (small_table.certificate.p / 2.0)
    assert np.all(small_table.values >= floor - 1e-9)
    assert small_table.audit_growth() <= 1.0


def test_table_rejects_floor_violation(small_table):
    bad = small_table.values.copy()
    bad[-1, -1] = 0.5  # below (1 + 1)^1 = 2
    with pytest.raises(ValueError, match="coercivity floor"):
        EnvelopeTable(small_table.sigma_grid, bad, small_table.model)


def test_table_floor_reads_the_certificate_exponent():
    # s1^2 + s2^2 + 1 clears the p = 2 floor on [0, 3]^2 but not the
    # p = 3 one at its far corner; the certificate is the model's
    grid = np.linspace(0.0, 3.0, 7)
    s1, s2 = np.meshgrid(grid, grid, indexing="ij")
    vals = s1 ** 2 + s2 ** 2 + 1.0
    square = EnvelopeTable(grid, vals, EnergyModel())
    assert square.certificate == growth_certificate(EnergyModel())
    assert square.certificate.p == 2.0
    with pytest.raises(ValueError, match="coercivity floor"):
        EnvelopeTable(grid, vals, EnergyModel(p=3.0))


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
    cert = small_table.certificate
    assert cert == growth_certificate(small_table.model)
    expect = cert.c * (1.0 + frob_norm(xi) ** cert.p)
    got = small_table.values_at(xi[None])[0]
    assert got == pytest.approx(expect, rel=1e-12)
    # and its slope c p |xi|^(p - 2) xi
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
    cert = small_table.certificate
    expect = cert.c * (1.0 + norms ** cert.p)
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
    assert np.allclose(singular_frame(xi[None])[0][0], sigma,
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
    sig = singular_frame(xis)[0]
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


def _refuse_constant(name):
    raise AssertionError(f"the JSON holds {name}")


def test_table_json_roundtrip(small_table, tmp_path):
    # the record holds no NaN; s* and the widths are the model's, so the
    # loaded table gives every node the same region and replays it alike
    path = tmp_path / "table.json"
    small_table.save_json(path)
    data = json.loads(path.read_text(), parse_constant=_refuse_constant)
    assert data == json.loads(json.dumps(small_table.to_dict()))
    back = EnvelopeTable.load_json(path)
    assert np.array_equal(back.sigma_grid, small_table.sigma_grid)
    assert np.array_equal(back.values, small_table.values)
    assert back.certificate == small_table.certificate
    assert back.model == small_table.model
    assert back.entries == small_table.entries
    assert back.audit() == small_table.audit() == 0.0


def test_a_table_takes_its_model_and_no_certificate(small_table):
    # the model fixes the certificate, the floor's p and every laminate,
    # so the table takes nothing else and refuses to go without it
    params = inspect.signature(EnvelopeTable).parameters
    assert list(params) == ["sigma_grid", "values", "model"]
    assert params["model"].default is inspect.Parameter.empty
    with pytest.raises(TypeError):
        EnvelopeTable(small_table.sigma_grid, small_table.values)
    with pytest.raises(TypeError):
        EnvelopeTable(small_table.sigma_grid, small_table.values,
                      certificate=small_table.certificate)
    # a record without a model is refused: nothing could audit it
    record = dict(small_table.to_dict(), model=None)
    with pytest.raises(ValueError, match="without a model"):
        EnvelopeTable.from_dict(record)
    del record["model"]
    with pytest.raises(ValueError, match="without a model"):
        EnvelopeTable.from_dict(record)


def test_table_entry_methods_are_labelled(small_table):
    # (0, 0) and (0.5, *) are slack, (1, 0) and (1, 0.5) wrinkled and
    # (1, 1) taut: m(1) = 2^(-1/4) for h = 1/x, p = 2
    assert [e.method for e in small_table.entries] == [
        "slack", "slack", "slack", "wrinkled", "wrinkled", "taut"]


def test_table_json_ignores_the_keys_of_older_records(small_table):
    # tables saved while the laminate search built them carried a depth,
    # a top-level p, model info and per-node entries, and later ones a
    # dict laminate per entry; those keys are ignored and the nodes are
    # audited against the model
    data = small_table.to_dict()
    assert set(data) == {"sigma_grid", "values", "model"}
    data["depth"], data["p"] = 1, 3.0
    # a certificate in the record, edited or not, is the model's on load
    data["certificate"] = {"c": 1e-9, "p": 2.0, "r1": 1.0, "cbar1": 1.0}
    data["model_info"] = {"barrier": "ReciprocalBarrier", "p": 2.0}
    split = {"step": [[0.0, 0.0], [0.0, 2.0], [0.0, 0.0]], "fraction": 0.5}
    data["entries"] = [{"sigma": [0.0, 0.0], "value": 0.0, "method": "taut",
                        "witness": None, "depth": 1, "evaluations": 6681},
                       {"sigma": [1.0, 0.0], "value": 1.0,
                        "method": "wrinkled", "witness": split}]
    old = EnvelopeTable.from_dict(data)
    assert np.array_equal(old.values, small_table.values)
    assert old.entries == small_table.entries
    assert old.model == small_table.model
    assert old.certificate == small_table.certificate


def test_a_barrier_the_module_does_not_ship_is_refused(small_table):
    data = small_table.to_dict()
    data["model"]["barrier"] = "CubicBarrier"
    with pytest.raises(KeyError, match="CubicBarrier"):
        EnvelopeTable.from_dict(data)


def test_evaluations_count_every_density_point():
    # each node's search and bounds count the points they pass to batch;
    # together they are every point the density values
    seen = {"points": 0}

    class CountingDensity(ReducedDensity):
        def batch(self, xis):
            seen["points"] += len(xis)
            return super().batch(xis)

    density = CountingDensity(EnergyModel())
    counts = [_search_node(density, s1, s2, 2)[3]
              for s1, s2 in _nodes(1.0, 0.5)]
    assert all(c > 0 for c in counts)
    assert sum(counts) == seen["points"]


def test_depth_two_search_memory_is_set_by_one_kept_pair(w0):
    # the inner ends of all ~200 children in one call, with the fiber
    # solve's temporaries over them, peaked near 20 MB, and those of all
    # 192 kept pairs would hold about 31 MB of ends alone; one call per
    # kept pair, 3,360 ends, peaks near 5 MB
    xi = mat32([0.5, 0, 0], [0, 0.5, 0])
    laminate_search(w0, xi, 2)  # builds the cached pair grids
    tracemalloc.start()
    try:
        laminate_search(w0, xi, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# node values, as float.hex, and density evaluations of the depth-2 table
# at sigma_max = 0.5, pitch = 0.5 under the reciprocal barrier, while the
# laminate search and the two bounds built it (_search_node); the values
# were recorded before the fiber solve read component-major rows, the
# counts once the search valued every grid split
GOLDEN_DEPTH2 = [
    ((0.0, 0.0), "0x1.38f3d1d950af4p+2", 20401),
    ((0.5, 0.0), "0x1.1000ae72bbb9fp+2", 665721),
    ((0.5, 0.5), "0x1.ef5adf0195e84p+1", 665721),
]


def test_depth_two_table_reproduces_its_golden_nodes():
    density = ReducedDensity(EnergyModel(ReciprocalBarrier(1.0)))
    got = []
    for sigma in _nodes(0.5, 0.5):
        value, _, _, points = _search_node(density, *sigma, 2)
        got.append((sigma, value.hex(), points))
    assert got == GOLDEN_DEPTH2


# the 5 x 5 node values, as float.hex, of the sweep benchmark's set-up
# table (EnergyModel(), sigma_max = 2, pitch = 0.5), the tension-field
# density replayed through each node's laminate; the sweep's descents
# amplify round-off, so these must not move
GOLDEN_SWEEP_SETUP = [
    ["0x1.e5078049f59f4p+1", "0x1.e5078049f59f4p+1", "0x1.ea09e667f3bccp+1",
     "0x1.23cd3a2c8198ep+2", "0x1.8000000000000p+2"],
    ["0x1.e5078049f59f4p+1", "0x1.e5078049f59f3p+1", "0x1.ea09e667f3bccp+1",
     "0x1.23cd3a2c8198ep+2", "0x1.8000000000000p+2"],
    ["0x1.ea09e667f3bccp+1", "0x1.ea09e667f3bccp+1", "0x1.f1e7a3b2a15e8p+1",
     "0x1.2c4dd12448fbdp+2", "0x1.8c31fbefb84acp+2"],
    ["0x1.23cd3a2c8198ep+2", "0x1.23cd3a2c8198ep+2", "0x1.2c4dd12448fbdp+2",
     "0x1.6670ece3a5d6ap+2", "0x1.ca25da15e3450p+2"],
    ["0x1.8000000000000p+2", "0x1.8000000000000p+2", "0x1.8c31fbefb84acp+2",
     "0x1.ca25da15e3450p+2", "0x1.1800000000000p+3"],
]


def test_sweep_setup_table_reproduces_its_golden_nodes():
    sweep_table = build_envelope_table(EnergyModel(), sigma_max=2.0,
                                       pitch=0.5, depth=1)
    got = [[v.hex() for v in row] for row in sweep_table.values.tolist()]
    assert got == GOLDEN_SWEEP_SETUP


def test_threaded_build_matches_serial(small_table):
    threaded = build_envelope_table(EnergyModel(), sigma_max=1.0, pitch=0.5,
                                    depth=1, threads=4)
    assert np.array_equal(threaded.values, small_table.values)


def test_table_validation_rejects_bad_grid(small_table):
    with pytest.raises(ValueError, match="start at zero"):
        EnvelopeTable(np.array([0.5, 1.0]), small_table.values[:2, :2],
                      small_table.model)
    with pytest.raises(ValueError, match="pitch must divide"):
        build_envelope_table(EnergyModel(), sigma_max=1.0, pitch=0.3)


@pytest.mark.parametrize("sigma_max, pitch", [
    (math.inf, 0.25), (math.nan, 0.25), (3.0, math.inf), (3.0, math.nan)])
def test_build_refuses_a_non_finite_box_or_pitch(sigma_max, pitch):
    # inf raised OverflowError from round and NaN "cannot convert float
    # NaN to integer"
    with pytest.raises(ValueError, match="finite and positive"):
        build_envelope_table(EnergyModel(), sigma_max=sigma_max, pitch=pitch)


@pytest.mark.parametrize("grid", [[0.0, np.nan, 3.0], [0.0, 1.0, np.inf]],
                         ids=["nan", "inf"])
def test_table_refuses_a_non_finite_grid(small_table, grid):
    # NaN fails every comparison, so 0 < NaN < 3 passed the increase test
    # and every lookup read NaN; JSON parses NaN and Infinity, so a record
    # meets the same test, before its audit
    vals = np.full((3, 3), 10.0)
    with pytest.raises(ValueError, match="sigma grid must be finite"):
        EnvelopeTable(grid, vals, small_table.model)
    record = dict(small_table.to_dict(), sigma_grid=grid,
                  values=vals.tolist())
    with pytest.raises(ValueError, match="sigma grid must be finite"):
        EnvelopeTable.from_dict(json.loads(json.dumps(record)))


def test_table_arrays_are_frozen_copies(small_table):
    # a write would skip the finite, symmetric and floor checks, and one
    # to the grid would leave the cell widths behind
    grid, vals = small_table.sigma_grid.copy(), small_table.values.copy()
    table = EnvelopeTable(grid, vals, small_table.model)
    grid[1] = 0.7
    vals[0, 0] = -5.0
    assert table.sigma_grid[1] == 0.5 and table.values[0, 0] > 0.0
    for arr in (table.sigma_grid, table.values, small_table.sigma_grid,
                small_table.values):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = -5.0


def test_table_attributes_cannot_be_rebound(small_table, tmp_path):
    # a rebound value matrix would skip every constructor check
    for table in (small_table, EnvelopeTable.from_dict(small_table.to_dict())):
        for name, value in (("values", -np.ones((3, 3))),
                            ("sigma_grid", np.array([0.0, 0.7, 1.0])),
                            ("model", None), ("certificate", None)):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(table, name, value)
        assert table.values_at(np.zeros((1, 3, 2)))[0] == table.values[0, 0]
    path = tmp_path / "table.json"
    small_table.save_json(path)
    back = EnvelopeTable.load_json(path)
    assert back.to_dict() == small_table.to_dict()
    with pytest.raises(AttributeError, match="immutable"):
        back.values = -back.values


# ---------------------------------------------------------------------------
# the tension-field density and the table that holds it

# (s*, W*) of each model, from a plain bisection on the central-difference
# slope of s -> W0(diag(s, s)); for h = 1/x, p = 2 they are 2^(-1/5) and
# 5 * 2^(-2/5), and the shifted log's minimizer sits on its kink det = 1
CLOSED_MINIMA = {
    "reciprocal": (0.870550563, 3.789291416),
    "shifted-log": (1.0, 4.0),
    "p3": (0.759835686, 4.559014114),
    "x-2": (0.943117588, 4.831520800),
}


@pytest.fixture(scope="module")
def default_tables():
    return {name: build_envelope_table(model)
            for name, model in FOUR_MODELS.items()}


@pytest.mark.parametrize("name", FOUR_MODELS)
def test_relaxed_density_finds_the_minimum_of_w0(name):
    density = RelaxedDensity(FOUR_MODELS[name])
    s_star, w_star = CLOSED_MINIMA[name]
    assert abs(density.s_star - s_star) <= 1e-6
    assert abs(density.w_star - w_star) <= 1e-6
    if name == "reciprocal":
        assert density.s_star == pytest.approx(2.0 ** -0.2, rel=1e-12)
        assert density.w_star == pytest.approx(5.0 * 2.0 ** -0.4, rel=1e-15)


def test_the_density_solves_its_own_constants():
    # s* and W* are the model's k = 3 solve, so no caller can give others
    model = EnergyModel()
    with pytest.raises(TypeError):
        RelaxedDensity(model, 0.5, 1.0)
    with pytest.raises(TypeError):
        RelaxedDensity(model, s_star=0.5, w_star=1.0)
    assert not hasattr(envelope, "relaxed_density")
    density = RelaxedDensity(model)
    s, w = solve_fiber(model, np.ones(1), np.zeros(1), k=3)
    assert (density.s_star, density.w_star) == (s[0], w[0])
    assert density == RelaxedDensity(model)
    # the slack value at diag(0.6, 0.3) is W*
    assert density.batch(_diag(0.6, 0.3)[None])[0] == w[0]
    assert w[0] == pytest.approx(3.789291416, abs=1e-9)


@pytest.mark.parametrize("name", FOUR_MODELS)
def test_every_default_node_replays_its_laminate(default_tables, name):
    # the default table (sigma_max 3, pitch 0.25): each node's laminate
    # replays to its value, and the value is the density's own solve
    table = default_tables[name]
    assert table.audit() <= 1e-12
    density = RelaxedDensity(FOUR_MODELS[name])
    nodes = np.array([_diag(*e.sigma) for e in table.entries])
    values = np.array([e.value for e in table.entries])
    np.testing.assert_allclose(values, density.batch(nodes), rtol=1e-12,
                               atol=0.0)
    assert table.values[0, 0] == pytest.approx(density.w_star, rel=1e-15)


def test_default_nodes_take_the_closed_form_of_the_reciprocal_barrier(
        default_tables):
    # h = 1/x, p = 2: W0 = q + 3 * 2^(-2/3) a^(-2/3), s* = 2^(-1/5) and
    # m(s) = 2^(-1/4) s^(-1/4); slack nodes take 5 * 2^(-2/5), wrinkled
    # ones s1^2 + 2 sqrt(2) s1^(-1/2) and taut ones W0
    regions = {"slack": 0, "wrinkled": 0, "taut": 0}
    for e in default_tables["reciprocal"].entries:
        s1, s2 = e.sigma
        if s1 <= 2.0 ** -0.2:
            method, want = "slack", 5.0 * 2.0 ** -0.4
        elif s2 <= 2.0 ** -0.25 * s1 ** -0.25:
            method, want = "wrinkled", s1 * s1 + 2.0 * 2.0 ** 0.5 / s1 ** 0.5
        else:
            method = "taut"
            want = s1 * s1 + s2 * s2 + 3.0 * 2.0 ** (-2.0 / 3.0) * (
                s1 * s2) ** (-2.0 / 3.0)
        assert e.method == method
        assert abs(e.value - want) <= 1e-12 * want
        regions[method] += 1
    assert regions == {"slack": 10, "wrinkled": 30, "taut": 51}


@pytest.mark.parametrize("name", FOUR_MODELS)
def test_no_node_rises_above_the_search_or_the_bounds(name):
    # the relaxation lies below every laminate and every Aff0 average
    model = FOUR_MODELS[name]
    w0 = ReducedDensity(model)
    table = build_envelope_table(model, sigma_max=1.0, pitch=0.5)
    for e in table.entries:
        xi = _diag(*e.sigma)
        assert e.value <= laminate_search(w0, xi, 2).values[-1] + 1e-12
        if e.sigma[0] > 0.0:
            assert e.value <= four_corner_bound(xi, w0).as_float() + 1e-12
        assert e.value <= square_refine_bound(xi, w0).as_float() + 1e-12


@pytest.mark.parametrize("name", FOUR_MODELS)
def test_relaxed_density_is_midpoint_convex(name):
    # the even, symmetric extension f(x, y) = F(|x|, |y|) sorted, read at
    # diag(x, y), is convex along random segments in the plane: the
    # certificate that the density is the quasiconvex envelope of W0
    density = RelaxedDensity(FOUR_MODELS[name])
    rng = np.random.default_rng(26)
    ends = rng.uniform(-2.5, 2.5, (2, 400, 2))
    ends[:, :100] *= 0.4  # near the slack square and its rim
    pts = np.concatenate([ends[0], ends[1], 0.5 * (ends[0] + ends[1])])
    xis = np.zeros((pts.shape[0], 3, 2))
    xis[:, 0, 0], xis[:, 1, 1] = pts[:, 0], pts[:, 1]
    f = density.batch(xis).reshape(3, -1)
    chord = 0.5 * (f[0] + f[1])
    assert np.all(f[2] <= chord + 1e-12 * chord)


def test_reciprocal_isotropic_stretch_and_width_are_exact():
    # h = 1/x, p = 2: s* = 2^(-1/5) and m(s) = 2^(-1/4) s^(-1/4), the
    # starts of the k = 3 and k = 2 fiber solves
    density = RelaxedDensity(EnergyModel())
    assert density.s_star == 2.0 ** -0.2
    grid = np.linspace(0.0, 3.0, 13)
    s1 = grid[grid > density.s_star]
    want = 2.0 ** -0.25 * s1 ** -0.25
    assert np.all(np.abs(density.width(s1)[0] - want) <= 4e-16 * want)


def test_shifted_log_width_on_the_kink_is_exact():
    # at p = 2 the width sits on the kink s m^2 = 1 for 1 < s <= 2, where
    # the k = 2 kink test stops it on m = (1/s)^(1/2) before any step
    density = RelaxedDensity(FOUR_MODELS["shifted-log"])
    s1 = np.linspace(1.01, 3.0, 200)
    m = density.width(s1)[0]
    on = np.abs(s1 * m * m - 1.0) <= 1e-12
    assert np.count_nonzero(on) == 100
    assert np.array_equal(m[on], (1.0 / s1[on]) ** 0.5)


@pytest.mark.parametrize("name", FOUR_MODELS)
def test_w0_fiber_optimum_at_equal_stretches_is_that_stretch(name):
    # the k = 1 fiber solve at diag(s, s) and at diag(s1, m(s1)) returns
    # the equal stretch itself: s* with W*, and m(s1) with the width
    # solve's own value at every default row beyond s*, where the table
    # wrinkles
    model = FOUR_MODELS[name]
    density = RelaxedDensity(model)
    s, w = density.s_star, density.w_star
    t, value = solve_fiber(model, np.array([s * s]), np.array([2.0 * s * s]))
    assert abs(t[0] - s) <= 1e-13 * s
    assert abs(value[0] - w) <= 1e-15 * w
    grid = np.linspace(0.0, 3.0, 13)
    s1 = grid[grid > s]
    m, g = density.width(s1)
    t, value = solve_fiber(model, s1 * m, s1 * s1 + m * m)
    assert np.all(np.abs(t - m) <= 1e-13 * m)
    assert np.all(np.abs(value - g) <= 1e-15 * g)


@pytest.mark.parametrize("r", [1.0, 0.9937, 2.0])
def test_reciprocal_constants_take_one_slope_each(monkeypatch, r):
    # at p = 2 under h = x^-r the start of every fiber solve is its root,
    # so s* and each batch of widths cost one slope
    calls = []
    slope = fiber_reduction._slope

    def counted(model, a, q, t, k):
        calls.append((k, a.size))
        return slope(model, a, q, t, k)

    monkeypatch.setattr(fiber_reduction, "_slope", counted)
    density = RelaxedDensity(EnergyModel(ReciprocalBarrier(r)))
    assert calls == [(3, 1)]
    calls.clear()
    density.width(np.linspace(0.25, 3.0, 12))
    assert calls == [(2, 12)]


def test_density_batch_solves_only_its_taut_lanes_again(monkeypatch):
    # wrinkled lanes take the width solve's value; only taut lanes run a
    # k = 1 solve, and under h = 1/x at p = 2 each solve is one slope
    calls = []
    slope = fiber_reduction._slope

    def counted(model, a, q, t, k):
        calls.append((k, a.size))
        return slope(model, a, q, t, k)

    density = RelaxedDensity(EnergyModel())
    # slack, wrinkled, wrinkled, taut
    xis = np.array([_diag(0.5, 0.25), _diag(1.5, 0.25), _diag(2.0, 0.5),
                    _diag(1.5, 1.25)])
    monkeypatch.setattr(fiber_reduction, "_slope", counted)
    got = density.batch(xis)
    assert calls == [(2, 3), (1, 1)]
    s1 = np.array([1.5, 2.0])
    want = s1 * s1 + 2.0 * 2.0 ** 0.5 / s1 ** 0.5
    assert got[0] == density.w_star
    assert np.all(np.abs(got[1:3] - want) <= 1e-15 * want)


def _counted_batches(monkeypatch):
    calls = []

    class CountingDensity(ReducedDensity):
        def batch(self, xis):
            calls.append(len(xis))
            return super().batch(xis)

    monkeypatch.setattr(envelope, "ReducedDensity", CountingDensity)
    return calls


def test_table_build_values_every_leaf_in_one_batch_call(monkeypatch):
    calls = _counted_batches(monkeypatch)
    table = build_envelope_table(EnergyModel(), sigma_max=1.0, pitch=0.5)
    # 3 slack nodes of 4 leaves, 2 wrinkled of 2 and the taut node itself
    assert calls == [3 * 4 + 2 * 2 + 1]
    assert [e.method for e in table.entries].count("taut") == 1


def test_table_build_solves_each_width_once_per_grid_row(monkeypatch):
    # the k = 2 width solve runs once, one lane per grid value beyond s*,
    # not one per node
    solves = []
    solve = envelope.solve_fiber

    def counted(model, a, q, *args, k=1):
        solves.append((k, a.size))
        return solve(model, a, q, *args, k=k)

    monkeypatch.setattr(envelope, "solve_fiber", counted)
    table = build_envelope_table(EnergyModel(), sigma_max=3.0, pitch=0.25)
    # s* = 2^(-1/5): the nine grid values 1, 1.25, ..., 3 lie beyond it
    assert solves == [(3, 1), (2, 9)]
    assert [e.method for e in table.entries].count("slack") == 4 * 5 // 2


# SHA-256 of the joined float.hex node values, in np.tril_indices order,
# of each default table (sigma_max 3, pitch 0.25, 91 nodes), recorded while
# the table stored a dict laminate per node and replayed it node by node
GOLDEN_DEFAULT_TABLES = {
    "reciprocal":
        "77e3e768ae8143a8f5a6c336c450a254631610909584ad8dc00d965a542314e3",
    "shifted-log":
        "5bf96528a997533d936fbbb0bba5872712a295845ee54b9faf6bee199da8a5bc",
    "p3": "a2981d8a910375adb244d23368f0c0494537561c7a51f7f2aed94a1e93da508d",
    "x-2": "760109a61be2e5a5f26f3737b00d28a9d6f22609c968f2aef859e84d46137436",
}


@pytest.mark.parametrize("name", FOUR_MODELS)
def test_default_tables_reproduce_their_golden_nodes(default_tables, name):
    table = default_tables[name]
    values = [e.value for e in table.entries]
    assert len(values) == 91
    joined = ",".join(v.hex() for v in values)
    assert hashlib.sha256(joined.encode()).hexdigest() \
        == GOLDEN_DEFAULT_TABLES[name]


def test_a_fine_table_replays_in_one_batch_call(monkeypatch):
    calls = _counted_batches(monkeypatch)
    table = build_envelope_table(FOUR_MODELS["p3"], sigma_max=3.0,
                                 pitch=0.02)
    assert len(table.entries) == 11476
    assert len(calls) == 1
    assert table.audit() <= 1e-12
    assert len(calls) == 2  # the audit's own replay


@pytest.mark.parametrize("sigma, tau", [
    (1.2, 0.7),                  # a = 0.84: left of the kink t a = 1
    (1.2, 1.0),                  # a = 1.2: the solve stops on the kink
    (1.5, 1.2),                  # a = 1.8 > sqrt(2): right of the kink
    (1.0, 1.0),                  # a = 1: s* itself, where both sides meet
    (1.0, 1.0 + 1e-14),          # next to s*, where Newton may end on
    (1.0, 1.0 - 1e-14),          # either side of the kink
], ids=["left", "on", "right", "s-star", "above-s-star", "below-s-star"])
def test_fiber_solve_stops_on_the_kink_where_its_slope_jumps_over_zero(
        sigma, tau):
    # the shifted log has a kink at det = 1, where h' jumps from -2 to -1:
    # at p = 2 the fiber slope at t = 1/a jumps from 2/a - 2a to 2/a - a,
    # over zero exactly when 1 < a <= sqrt(2)
    model = EnergyModel(ShiftedLogBarrier(), p=2.0)
    a, q = np.array([sigma * tau]), np.array([sigma ** 2 + tau ** 2])
    t, value = solve_fiber(model, a, q)
    if 1.0 < a[0] <= math.sqrt(2.0):
        assert t[0] == 1.0 / a[0]  # stopped on the kink
    # t is the minimizer, on the kink or off it
    near = t * np.array([1.0 - 1e-6, 1.0 + 1e-6])
    assert np.all(model.density(near * a, q + near * near) >= value)


def test_audit_refuses_a_broken_laminate(small_table):
    # grid 0, 0.5, 1 with s* = 2^(-1/5) and m(1) = 2^(-1/4): nodes (0, 0),
    # (0.5, *) slack, (1, 0) and (1, 0.5) wrinkled, (1, 1) taut
    data = small_table.to_dict()

    def broken(edit):
        record = json.loads(json.dumps(data))
        edit(record)
        return record

    def moved(r):
        # node (0.5, 0), both ways round, so the matrix stays symmetric
        r["values"][1][0] *= 1.0 + 1e-9
        r["values"][0][1] = r["values"][1][0]

    def moved_model(r):
        # s* and the widths follow the model and move with it
        r["model"]["params"]["power"] *= 1.01

    def below_zero(r):
        # the coercivity floor at (0, 0) is 0 and admits -1e-10, a lookup
        # near 0 would then read about 0 instead of W* > 0
        r["values"][0][0] = -1e-10

    def asymmetric(r):
        # one ulp off: a corner lookup at i1 = i2 reads the upper triangle
        r["values"][0][1] = math.nextafter(r["values"][0][1], math.inf)

    for edit, match in ((moved, "replayed laminates"),
                        (moved_model, "replayed laminates"),
                        (below_zero, "replayed laminates"),
                        (asymmetric, "must be symmetric")):
        with pytest.raises(ValueError, match=match):
            EnvelopeTable.from_dict(broken(edit))


def test_audit_reads_a_gap_at_a_zero_node_as_infinite(small_table):
    # the coercivity floor admits a node of 0 at the origin; its gap is
    # refused as infinite, with no division by zero warned about
    record = json.loads(json.dumps(small_table.to_dict()))
    record["values"][0][0] = 0.0
    zeroed = EnvelopeTable(record["sigma_grid"], record["values"],
                           small_table.model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeroed.audit() == math.inf
        with pytest.raises(ValueError, match="by inf relative"):
            EnvelopeTable.from_dict(record)


def test_table_json_keeps_its_model(tmp_path):
    model = EnergyModel(ReciprocalBarrier(1.0073), p=2.5)
    table = build_envelope_table(model, sigma_max=1.0, pitch=0.5)
    path = tmp_path / "table.json"
    table.save_json(path)
    back = EnvelopeTable.load_json(path)
    assert back.model == model
    assert back.audit() == table.audit() <= 1e-12
    assert back.entries == table.entries
