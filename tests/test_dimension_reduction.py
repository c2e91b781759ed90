import numpy as np
import pytest

from memrelax.dimension_reduction import (
    LoadPotential, _ThinObjective, _default_film_start,
    director_membrane_energy, lp_distance, recovery_sequence,
)
from memrelax.energy_models import EnergyModel, ShiftedLogBarrier
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
    x = obj.pack(_default_film_start(mesh, 0.2, 5))
    # an in-plane stretch keeps every prism determinant near 2.25, away
    # from the shifted log's kink at 1
    x = x.reshape(5, -1, 3)
    x[:, :, :2] *= 1.5
    x = x.reshape(-1) + 0.02 * rng.standard_normal(x.size)
    d = rng.standard_normal(x.shape)
    _, g, _ = obj(x)
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
