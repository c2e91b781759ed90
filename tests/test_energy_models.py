import math

import numpy as np
import pytest

from memrelax.energy_models import (
    EnergyModel, ReciprocalBarrier, ShiftedLogBarrier,
)
from oracles import INFINITE, check_conditions, eval_w, finite, w_stack


def test_identity_and_stretch_values():
    m = EnergyModel()
    assert finite(eval_w(m, np.eye(3))) == pytest.approx(4.0, abs=1e-14)
    assert finite(eval_w(m, np.diag([2.0, 1.0, 1.0]))) == pytest.approx(
        6.5, abs=1e-14)


def test_singular_gradient_is_infinite():
    m = EnergyModel()
    F = np.array([[1.0, 2.0, 1.0], [0.5, -1.0, 0.5], [3.0, 0.25, 3.0]])
    assert eval_w(m, F) == INFINITE
    assert not math.isfinite(eval_w(m, F))


def test_plane_flip_symmetry_sampled():
    m = EnergyModel(barrier=ShiftedLogBarrier(), p=2.5)
    rng = np.random.default_rng(3)
    for _ in range(200):
        F = rng.uniform(-2, 2, size=(3, 3))
        G = F.copy()
        G[:, 2] *= -1.0
        assert eval_w(m, F).as_float() == eval_w(m, G).as_float()


def test_reciprocal_plateau_values():
    b = ReciprocalBarrier()
    assert b.plateau(1.0) == 1.0
    assert b.plateau(0.1) == pytest.approx(10.0)
    assert b.values(np.array([0.0]))[0] == math.inf
    assert ReciprocalBarrier(power=2.0).plateau(0.5) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        b.plateau(0.0)
    with pytest.raises(ValueError):
        ReciprocalBarrier(power=-1.0)


def test_reciprocal_barrier_rejects_an_infinite_power():
    # a power of +inf would make h(t) = 0 for every t > 1
    with pytest.raises(ValueError, match="finite and positive"):
        ReciprocalBarrier(power=math.inf)


def test_shifted_log_barrier_shape():
    b = ShiftedLogBarrier()
    v = b.values(np.array([0.0, 0.5, 1.0, 2.0]))
    assert v[0] == math.inf
    assert v[1] == pytest.approx(math.log(2.0) + 2.0)
    assert v[2] == pytest.approx(1.0)
    assert v[3] == pytest.approx(0.5)  # log part clamps to zero above 1
    assert b.plateau(0.5) == v[1]


@pytest.mark.parametrize("barrier", [ReciprocalBarrier(), ReciprocalBarrier(0.5),
                                     ShiftedLogBarrier()])
def test_barrier_derivatives_match_differences(barrier):
    # sample points avoid the shifted log's kink at t = 1
    t = np.array([0.05, 0.3, 0.7, 1.5, 4.0])
    h = 1e-6 * t
    d1 = (barrier.values(t + h) - barrier.values(t - h)) / (2 * h)
    d2 = (barrier.derivative(t + h) - barrier.derivative(t - h)) / (2 * h)
    np.testing.assert_allclose(barrier.derivative(t), d1, rtol=1e-7)
    np.testing.assert_allclose(barrier.second_derivative(t), d2, rtol=1e-7)
    assert barrier.blowup_order == getattr(barrier, "power", 1.0)


def test_batch_matches_scalar():
    m = EnergyModel(barrier=ReciprocalBarrier(power=2.0), p=3.0)
    rng = np.random.default_rng(11)
    F = rng.uniform(-2, 2, size=(32, 3, 3))
    F[0, :, 1] = F[0, :, 0]  # exactly singular lane
    # the (xi | zeta) layout of a surface gradient with a third column
    F[1] = np.column_stack([rng.uniform(-1, 1, size=(3, 2)),
                            rng.uniform(-2, 2, size=3)])
    batch = w_stack(m, F)
    assert batch[0] == math.inf
    assert eval_w(m, F[0]) == INFINITE
    for k in range(1, 32):
        ref = (abs(np.linalg.det(F[k])) ** -2.0
               + np.linalg.norm(F[k]) ** 3.0)
        assert batch[k] == pytest.approx(ref, rel=1e-12)
        assert finite(eval_w(m, F[k])) == batch[k]


def test_condition_report():
    m = EnergyModel()
    rep = check_conditions(m, n_samples=600, seed=5)
    assert rep.singular_all_infinite
    assert rep.max_symmetry_defect == 0.0
    for emp, bound in zip(rep.empirical_c, rep.plateau_bound):
        assert emp <= bound + 1e-12
    d = rep.as_dict()
    assert d["barrier"] == "ReciprocalBarrier"
    assert d["deltas"] == [1.0, 0.5, 0.1]


def test_model_validation_and_registry():
    with pytest.raises(ValueError):
        EnergyModel(p=1.0)


def test_model_rejects_an_infinite_growth_exponent():
    # p = +inf would make every density value +inf
    with pytest.raises(ValueError, match="finite and exceed 1"):
        EnergyModel(p=math.inf)
