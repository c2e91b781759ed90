import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memrelax.director_field import feasible_normal
from memrelax.energy_models import EnergyModel
from memrelax.envelope import RelaxedDensity, build_envelope_table
from memrelax.fiber_reduction import ReducedDensity, w0_batch
from memrelax.tensor_kernel import (
    ExtValue, as_mat32, as_stack, cofactors, frob_norm, is_integer,
    singular_frame, wedge,
)
from oracles import INFINITE, append_column, finite, mat32, mat33

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vec3 = st.tuples(coord, coord, coord)


def test_cross_hand_value():
    assert np.array_equal(wedge(mat32([1, 0, -1], [0, 1, 1])),
                          [1.0, -1.0, 1.0])


def test_is_integer_takes_ints_and_refuses_bools_and_floats():
    assert all(is_integer(v) for v in (0, 3, -2, np.int32(2), np.int64(7)))
    assert not any(is_integer(v) for v in (True, False, np.True_, 2.0,
                                           np.float64(1.0), "1", None))


def _stack_cofactors(F):
    """cofactors of an (N, 3, 3) stack, moved to and from entry rows."""
    dets, cof = cofactors(np.asarray(F).transpose(1, 2, 0))
    return dets, cof.transpose(2, 0, 1)


def test_det_identity_matrix():
    assert _stack_cofactors(np.eye(3)[None])[0][0] == 1.0


@given(vec3, vec3, vec3)
def test_det_equals_cross_dot(a, b, z):
    xi = mat32(a, b)
    lhs = float(_stack_cofactors(append_column(xi, z)[None])[0][0])
    rhs = float(np.dot(wedge(xi), z))
    scale = 1.0 + frob_norm(xi) * np.linalg.norm(z)
    assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_cofactor_det_is_exactly_zero_for_equal_columns(pair):
    rng = np.random.default_rng(2)
    F = rng.uniform(-3.0, 3.0, size=(200, 3, 3))
    F[:, :, pair[1]] = F[:, :, pair[0]]
    dets, _ = _stack_cofactors(F)
    assert np.all(dets == 0.0)


def test_cofactors_invert_the_stack():
    rng = np.random.default_rng(4)
    F = rng.uniform(-3.0, 3.0, size=(64, 3, 3))
    dets, cof = _stack_cofactors(F)
    eye = dets[:, None, None] * np.eye(3)
    np.testing.assert_allclose(F.transpose(0, 2, 1) @ cof, eye, atol=1e-12)
    np.testing.assert_allclose(dets, np.linalg.det(F), atol=1e-12)


@given(vec3, vec3)
def test_cross_orthogonal_and_lagrange(a, b):
    c = wedge(mat32(a, b))
    a = np.asarray(a)
    b = np.asarray(b)
    scale = 1.0 + float(np.dot(a, a) + np.dot(b, b))
    assert abs(np.dot(c, a)) <= 1e-12 * scale
    assert abs(np.dot(c, b)) <= 1e-12 * scale
    lag = np.dot(a, a) * np.dot(b, b) - np.dot(a, b) ** 2
    assert abs(np.dot(c, c) - lag) <= 1e-12 * scale ** 2


def test_wedge_norm_rank_deficient():
    assert np.linalg.norm(wedge(mat32([1, 0, 0], [2, 0, 0]))) == 0.0


def test_extvalue_order_and_arithmetic():
    x = ExtValue(3.0)
    assert x + INFINITE == INFINITE
    assert INFINITE + x == INFINITE
    assert min(x, INFINITE) == x
    assert x < INFINITE
    assert not (INFINITE < INFINITE)
    assert INFINITE <= INFINITE
    assert sorted([INFINITE, ExtValue(1.0), x]) == [ExtValue(1.0), x, INFINITE]
    assert finite(x + 1.5) == 4.5
    assert finite(2.0 * x) == 6.0


def test_extvalue_rejects_bad_payloads():
    with pytest.raises(ValueError):
        ExtValue(-1.0)
    with pytest.raises(ValueError):
        ExtValue(math.nan)
    with pytest.raises(ValueError):
        finite(INFINITE)
    assert INFINITE.as_float() == math.inf
    assert type(INFINITE.as_float()) is float
    assert not math.isfinite(INFINITE)
    assert math.isfinite(ExtValue(0.0))


def test_extvalue_immutable():
    x = ExtValue(1.0)
    with pytest.raises(AttributeError):
        x._value = 2.0


def test_matrix_validation():
    with pytest.raises(ValueError):
        as_mat32(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        mat32([1, 0, np.inf], [0, 1, 0])
    with pytest.raises(ValueError):
        mat33([1, 0, np.nan], [0, 1, 0], [0, 0, 1])
    m = mat33([1, 0, 0], [0, 1, 0], [0, 0, 1])
    assert np.array_equal(m, np.eye(3))


def _sigma_error(xis):
    """Largest |closed form - LAPACK| over the stack, relative to s1."""
    got = singular_frame(xis)[0]
    ref = np.linalg.svd(xis, compute_uv=False)
    scale = np.where(ref[:, :1] > 0.0, ref[:, :1], 1.0)
    return float(np.max(np.abs(got - ref) / scale))


def test_singular_values_match_svd_on_random_stacks():
    rng = np.random.default_rng(11)
    xis = rng.standard_normal((100_000, 3, 2))
    xis *= np.exp(rng.uniform(-3.0, 3.0, (100_000, 1, 2)))
    assert _sigma_error(xis) <= 1e-14


def test_singular_values_at_degenerate_and_equal_sigma():
    rng = np.random.default_rng(12)
    c = rng.standard_normal((500, 3, 1))
    t = rng.standard_normal((500, 1, 1))
    parallel = np.concatenate([c, t * c], axis=2)
    equal = np.concatenate([c, c], axis=2)
    zero = np.zeros((4, 3, 2))
    q, _ = np.linalg.qr(rng.standard_normal((500, 3, 2)))
    s = rng.uniform(0.1, 10.0, (500, 1, 1))
    for xis in (parallel, equal, zero, q * s):
        assert _sigma_error(xis) <= 1e-14
    # equal columns have an exactly zero wedge, so s2 is exactly zero
    assert np.all(singular_frame(equal)[0][:, 1] == 0.0)
    assert np.all(singular_frame(zero)[0] == 0.0)
    sig = singular_frame(q * s)[0]
    np.testing.assert_allclose(sig, np.broadcast_to(s[:, 0], (500, 2)),
                               rtol=1e-14)
    assert np.all(sig[:, 1] <= sig[:, 0])


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e300, 1e-300])
def test_singular_values_at_the_edge_of_the_exponent_range(scale):
    # squared entries, and the wedge's squared norm, leave the normal
    # range here; those rows are rescaled by a power of two
    rng = np.random.default_rng(13)
    xis = rng.standard_normal((2000, 3, 2))
    xis[::7, :, 1] = 0.5 * xis[::7, :, 0]
    assert _sigma_error(xis * scale) <= 1e-14
    assert np.all(np.isfinite(singular_frame(xis * scale)[0]))
    mixed = xis.copy()
    mixed[::2] *= scale
    assert _sigma_error(mixed) <= 1e-14


def test_singular_values_reject_non_finite_and_bad_shapes():
    xis = np.ones((3, 3, 2))
    for bad in (np.nan, np.inf, -np.inf):
        xis[1, 2, 0] = bad
        with pytest.raises(ValueError, match="mat32 entries must be finite"):
            singular_frame(xis)
    with pytest.raises(ValueError, match="shape"):
        singular_frame(np.ones((3, 2)))


def _eigh_frame(xis):
    """eigh's frame of xi^T xi: (cos, sin) of twice the angle of its top
    eigenvector, its conditioning |xi|^2 / (s1^2 - s2^2) and the norms
    |xi|, each row scaled by a power of two so that its Gram matrix is
    formed in the normal range."""
    e = np.frexp(np.abs(xis).max(axis=(1, 2)))[1]
    unit = np.ldexp(xis, -e[:, None, None])
    lam, vec = np.linalg.eigh(np.einsum("kia,kib->kab", unit, unit))
    v = vec[:, :, 1]
    return (v[:, 0] ** 2 - v[:, 1] ** 2, 2.0 * v[:, 0] * v[:, 1],
            lam.sum(axis=1) / (lam[:, 1] - lam[:, 0]),
            np.ldexp(np.linalg.norm(unit, axis=(1, 2)), e))


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e300, 1e-300])
def test_singular_frame_is_the_top_eigenvector_of_the_gram_matrix(scale):
    # a frame is as well posed as the eigenvalue gap allows: eigh's and
    # the kernel's both move by about an ulp times the conditioning
    rng = np.random.default_rng(16)
    xis = rng.standard_normal((20_000, 3, 2))
    xis *= np.exp(rng.uniform(-3.0, 3.0, (20_000, 1, 2)))
    xis[::2] *= scale
    _, norms, cos, sin = singular_frame(xis)
    want_cos, want_sin, cond, want_norms = _eigh_frame(xis)
    assert np.all(np.hypot(cos - want_cos, sin - want_sin) <= 1e-14 * cond)
    np.testing.assert_allclose(norms, want_norms, rtol=1e-15)


def test_singular_frame_at_equal_sigma_rank_one_and_zero():
    rng = np.random.default_rng(17)
    # columns (a, b, 0) and (-b, a, 0), rows permuted: a Gram matrix of
    # exactly (a^2 + b^2) I, whose frame is (1, 0)
    a, b = rng.standard_normal((2, 300))
    equal = np.stack([np.stack([a, b, 0 * a], 1),
                      np.stack([-b, a, 0 * a], 1)], axis=2)
    equal[100:] = equal[100:, [2, 0, 1]]
    sig, _, cos, sin = singular_frame(equal)
    assert np.all(cos == 1.0) and np.all(sin == 0.0)
    np.testing.assert_allclose(sig[:, 1], sig[:, 0], rtol=1e-15)
    # rank one: a Gram matrix with a simple top eigenvalue |xi|^2
    c = rng.standard_normal((300, 3, 1))
    parallel = np.concatenate([c, rng.standard_normal((300, 1, 1)) * c], 2)
    _, _, cos, sin = singular_frame(parallel)
    want_cos, want_sin, _, _ = _eigh_frame(parallel)
    assert np.all(np.hypot(cos - want_cos, sin - want_sin) <= 1e-14)
    # the zero matrix has no top eigenvector either
    sig, norms, cos, sin = singular_frame(np.zeros((3, 3, 2)))
    assert np.all(sig == 0.0) and np.all(norms == 0.0)
    assert np.all(cos == 1.0) and np.all(sin == 0.0)


def test_wedge_of_a_stack_is_bit_identical_to_np_cross():
    rng = np.random.default_rng(14)
    xis = rng.standard_normal((5000, 3, 2)) * np.exp(
        rng.uniform(-30.0, 30.0, (5000, 1, 1)))
    ref = np.cross(xis[:, :, 0], xis[:, :, 1])
    assert np.array_equal(wedge(xis), ref)
    assert np.array_equal(wedge(xis[7]), ref[7])
    with pytest.raises(ValueError, match="shape"):
        wedge(np.ones((4, 3, 3)))


def test_cofactors_are_bit_identical_to_a_cross_reference():
    rng = np.random.default_rng(15)
    F = rng.standard_normal((3000, 3, 3)) * np.exp(
        rng.uniform(-20.0, 20.0, (3000, 1, 1)))
    ref = np.empty_like(F)
    for k in range(3):
        ref[:, :, k] = np.cross(F[:, :, (k + 1) % 3], F[:, :, (k + 2) % 3])
    dets, cof = _stack_cofactors(F)
    assert np.array_equal(cof, ref)
    assert np.array_equal(dets, np.einsum("ki,ki->k", F[:, 0], ref[:, 0]))


# ---------------------------------------------------------------------------
# the one stack reader

XI = np.array([[1.2, 0.1], [0.0, 0.9], [0.3, 0.2]])


def _with_entry(value):
    xis = np.tile(XI, (3, 1, 1))
    xis[1, 2, 0] = value
    return xis


SHAPE = "mat32 stack must have shape (N, 3, 2), got {}"
MALFORMED = [(XI.T, SHAPE.format((2, 3))),
             (XI.ravel(), SHAPE.format((6,))),
             (np.ones((2, 3, 3)), SHAPE.format((2, 3, 3))),
             *((_with_entry(v), "mat32 entries must be finite")
               for v in (np.nan, np.inf, -np.inf))]


@pytest.fixture(scope="module")
def stack_entry_points():
    model = EnergyModel()
    table = build_envelope_table(model, sigma_max=1.0, pitch=0.5, depth=1)
    return {"w0_batch": functools.partial(w0_batch, model),
            "ReducedDensity.batch": ReducedDensity(model).batch,
            "RelaxedDensity.batch": RelaxedDensity(model).batch,
            "EnvelopeTable.lookup": table.lookup,
            "EnvelopeTable.values_at": table.values_at,
            "singular_frame": singular_frame,
            "wedge": wedge,
            "feasible_normal": feasible_normal}


@pytest.mark.parametrize("name", [
    "w0_batch", "ReducedDensity.batch", "RelaxedDensity.batch",
    "EnvelopeTable.lookup", "EnvelopeTable.values_at", "singular_frame",
    "wedge", "feasible_normal"])
def test_every_stack_entry_point_refuses_what_is_not_a_stack(
        stack_entry_points, name):
    # a (2, 3) matrix, a flat vector and a (2, 3, 3) array are not
    # reshaped into matrices, and a non-finite entry is refused; a lone
    # (3, 2) matrix is a stack of one only for wedge
    read = stack_entry_points[name]
    malformed = list(MALFORMED)
    if name == "wedge":
        assert read(XI).shape == (3,)
    else:
        malformed.append((XI, SHAPE.format((3, 2))))
    for arr, message in malformed:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read(arr)
    # the same matrix as a stack of one is read
    read(XI[None])


def test_the_reader_returns_a_float_stack_itself():
    # C-ordered, component-major and entry-major stacks alike; a list is
    # converted once
    xis = np.random.default_rng(5).normal(size=(7, 3, 2))
    for stack in (xis, np.ascontiguousarray(xis.transpose(1, 2, 0))
                  .transpose(2, 0, 1),
                  np.ascontiguousarray(xis.transpose(2, 1, 0)).T):
        assert as_stack(stack) is stack
    assert np.array_equal(as_stack(xis.tolist()), xis)
