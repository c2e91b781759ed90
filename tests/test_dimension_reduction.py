import numpy as np
import pytest

from memrelax.dimension_reduction import lp_distance
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
