import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memrelax.tensor_kernel import (
    ExtValue, INFINITE, ZERO, append_column, as_mat32, cofactors, det3,
    frob_norm, mat32, mat33, singular_values, wedge, wedge_norm,
)

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vec3 = st.tuples(coord, coord, coord)


def test_cross_hand_value():
    assert np.array_equal(wedge(mat32([1, 0, -1], [0, 1, 1])),
                          [1.0, -1.0, 1.0])


def test_det_identity_matrix():
    assert det3(np.eye(3)) == 1.0


@given(vec3, vec3, vec3)
def test_det_equals_cross_dot(a, b, z):
    xi = mat32(a, b)
    lhs = det3(append_column(xi, z))
    rhs = float(np.dot(wedge(xi), z))
    scale = 1.0 + frob_norm(xi) * np.linalg.norm(z)
    assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_cofactor_det_is_exactly_zero_for_equal_columns(pair):
    rng = np.random.default_rng(2)
    F = rng.uniform(-3.0, 3.0, size=(200, 3, 3))
    F[:, :, pair[1]] = F[:, :, pair[0]]
    dets, _ = cofactors(F)
    assert np.all(dets == 0.0)


def test_cofactors_invert_the_stack():
    rng = np.random.default_rng(4)
    F = rng.uniform(-3.0, 3.0, size=(64, 3, 3))
    dets, cof = cofactors(F)
    eye = dets[:, None, None] * np.eye(3)
    np.testing.assert_allclose(F.transpose(0, 2, 1) @ cof, eye, atol=1e-12)
    np.testing.assert_allclose(dets, np.linalg.det(F), atol=1e-12)
    assert [det3(f) for f in F] == dets.tolist()


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
    assert wedge_norm(mat32([1, 0, 0], [2, 0, 0])) == 0.0


def test_extvalue_order_and_arithmetic():
    x = ExtValue(3.0)
    assert x + INFINITE == INFINITE
    assert INFINITE + x == INFINITE
    assert min(x, INFINITE) == x
    assert x < INFINITE
    assert not (INFINITE < INFINITE)
    assert INFINITE <= INFINITE
    assert sorted([INFINITE, ExtValue(1.0), x]) == [ExtValue(1.0), x, INFINITE]
    assert (x + 1.5).finite == 4.5
    assert (2.0 * x).finite == 6.0
    assert 0.0 * INFINITE == ZERO


def test_extvalue_rejects_bad_payloads():
    with pytest.raises(ValueError):
        ExtValue(-1.0)
    with pytest.raises(ValueError):
        ExtValue(math.nan)
    with pytest.raises(ValueError):
        INFINITE + (-2.0)
    with pytest.raises(ValueError):
        _ = INFINITE.finite
    assert INFINITE.as_float() == math.inf
    assert not INFINITE.is_finite
    assert ExtValue(0.0).is_finite


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
    with pytest.raises(ValueError):
        det3(np.zeros((3, 2)))
    m = mat33([1, 0, 0], [0, 1, 0], [0, 0, 1])
    assert np.array_equal(m, np.eye(3))


def _sigma_error(xis):
    """Largest |closed form - LAPACK| over the stack, relative to s1."""
    got = singular_values(xis)
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
    assert np.all(singular_values(equal)[:, 1] == 0.0)
    assert np.all(singular_values(zero) == 0.0)
    sig = singular_values(q * s)
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
    assert np.all(np.isfinite(singular_values(xis * scale)))
    mixed = xis.copy()
    mixed[::2] *= scale
    assert _sigma_error(mixed) <= 1e-14


def test_singular_values_reject_non_finite_and_bad_shapes():
    xis = np.ones((3, 3, 2))
    for bad in (np.nan, np.inf, -np.inf):
        xis[1, 2, 0] = bad
        with pytest.raises(ValueError, match="mat32 entries must be finite"):
            singular_values(xis)
    with pytest.raises(ValueError, match="shape"):
        singular_values(np.ones((3, 2)))


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
    dets, cof = cofactors(F)
    assert np.array_equal(cof, ref)
    assert np.array_equal(dets, np.einsum("ki,ki->k", F[:, 0], ref[:, 0]))
