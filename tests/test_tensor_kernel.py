import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memrelax.tensor_kernel import (
    ExtValue, INFINITE, ZERO, append_column, as_mat32, cofactors, cross3,
    det3, frob_norm, mat32, mat33, wedge, wedge_norm,
)

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vec3 = st.tuples(coord, coord, coord)


def test_cross_hand_value():
    assert np.array_equal(cross3([1, 0, -1], [0, 1, 1]), [1.0, -1.0, 1.0])


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
    c = cross3(a, b)
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
