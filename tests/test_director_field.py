import json
import math

import numpy as np
import pytest

from memrelax import director_field
from memrelax.director_field import (
    BlendedDirector, DirectorAssignment, InfeasibleError, blended_director,
    build_assignment, cell_min_constrained, cellwise_energy, feasible_normal,
    nirf_value,
)
from memrelax.energy_models import EnergyModel, ShiftedLogBarrier
from memrelax.fiber_reduction import w0_closed_form
from memrelax.pw_affine import PwAffineField, single_triangle_mesh, unit_square_mesh
from memrelax.quadrature import integrate_adaptive
from memrelax.tensor_kernel import mat32

E1E2 = mat32([1, 0, 0], [0, 1, 0])
W0_E1E2 = 2.0 + 3.0 * 2.0 ** (-2.0 / 3.0)


def wiggly_field(n: int) -> PwAffineField:
    """Full-rank embedding of the unit square with varied cell gradients."""
    mesh = unit_square_mesh(n)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    vals = np.column_stack([x + 0.1 * y * y, y - 0.05 * x * x,
                            0.3 * x - 0.2 * y + 0.1 * x * y])
    return PwAffineField(mesh, vals)


def random_cells(rng, count):
    cells = []
    while len(cells) < count:
        xi = rng.uniform(-2.0, 2.0, (3, 2))
        if np.linalg.norm(np.cross(xi[:, 0], xi[:, 1])) >= 0.1:
            cells.append(xi)
    return cells


# ---------------------------------------------------------------------------
# shared feasible direction

def test_single_cell_axis_direction():
    zeta, j_v, signs = feasible_normal([E1E2])
    assert np.array_equal(zeta, [0.0, 0.0, 1.0])
    assert j_v == 1
    assert signs.tolist() == [1]


def test_two_tilted_cells_stay_within_index_two():
    c = math.cos(math.pi / 4)
    rot = np.array([[c, 0, c], [0, 1, 0], [-c, 0, c]])
    cells = [E1E2, rot @ E1E2]
    zeta, j_v, signs = feasible_normal(cells)
    dets = [float(np.cross(x[:, 0], x[:, 1]) @ zeta) for x in cells]
    assert j_v <= 2
    assert min(abs(d) for d in dets) >= 0.5
    assert all(np.sign(d) == s for d, s in zip(dets, signs))


def test_margin_certified_on_random_cell_sets():
    rng = np.random.default_rng(12)
    for _ in range(100):
        cells = random_cells(rng, rng.integers(1, 7))
        zeta, j_v, signs = feasible_normal(cells)
        dets = np.array([np.cross(x[:, 0], x[:, 1]) @ zeta for x in cells])
        assert np.abs(dets).min() >= 1.0 / j_v
        assert np.array_equal(np.sign(dets).astype(int), signs)
        assert np.linalg.norm(zeta) == pytest.approx(1.0, abs=1e-12)


def test_direction_scan_does_not_depend_on_its_block_size(monkeypatch):
    # the first maximum wins within a block and across blocks alike
    rng = np.random.default_rng(21)
    # one flat cell ties +e3 with -e3 in the first batch
    stacks = [np.array([E1E2]), wiggly_field(6).gradients()]
    stacks += [np.array(random_cells(rng, k)) for k in (1, 3, 6)]
    want = [feasible_normal(cells) for cells in stacks]
    for block in (1, 7, 4096):
        monkeypatch.setattr(director_field, "_SCAN_DIRECTIONS", block)
        for cells, (zeta, j_v, signs) in zip(stacks, want):
            got = feasible_normal(cells)
            assert np.array_equal(got[0], zeta)
            assert got[1] == j_v
            assert np.array_equal(got[2], signs)


def test_rank_deficient_cell_rejected():
    with pytest.raises(ValueError, match="rank-deficient"):
        feasible_normal([E1E2, mat32([1, 0, 0], [2, 0, 0])])


def test_feasible_normal_rejects_nonfinite_and_misshapen_stacks():
    bad = np.stack([E1E2, E1E2])
    bad[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="mat32 entries must be finite"):
        feasible_normal(bad)
    with pytest.raises(ValueError, match="mat32 .*must have shape"):
        feasible_normal(np.zeros((2, 3, 3)))


# ---------------------------------------------------------------------------
# constrained cell minimum

def test_inactive_constraint_reproduces_reduced_density():
    m = EnergyModel()
    for j in (2, 4, 64):
        value, zeta = cell_min_constrained(m, E1E2, 1, j)
        assert value == pytest.approx(W0_E1E2, abs=1e-10)
        assert zeta[2] == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-9)


def test_active_constraint_boundary_value():
    # on t >= 1 the profile 1/t + t^2 increases, so the minimum sits at
    # the constraint with value 2 + 1 + 1
    m = EnergyModel()
    value, zeta = cell_min_constrained(m, E1E2, 1, 1)
    assert value == pytest.approx(4.0, abs=1e-12)
    assert zeta == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)


def test_active_constraint_against_grid_oracle():
    m = EnergyModel()
    xi = mat32([1.2, -0.3, 0.4], [0.2, 0.9, -0.5])
    a = float(np.linalg.norm(np.cross(xi[:, 0], xi[:, 1])))
    sq = float(np.sum(xi * xi))
    j = 1
    ts = np.linspace(1.0 / (j * a), 1.0 / (j * a) + 4.0, 400001)
    grid = (1.0 / (ts * a) + (sq + ts * ts)).min()
    value, _ = cell_min_constrained(m, xi, -1, j)
    assert value == pytest.approx(float(grid), abs=1e-8)


def test_sign_mirror_symmetry():
    # the model is even in the third column, so both one-sided minima
    # agree and the union adds nothing
    m = EnergyModel()
    xi = mat32([0.8, 0.1, -0.4], [0.3, 1.1, 0.2])
    vp, zp = cell_min_constrained(m, xi, 1, 1)
    vm, zm = cell_min_constrained(m, xi, -1, 1)
    assert vp == vm
    assert zp == pytest.approx(-zm, abs=1e-15)


def test_value_nonincreasing_in_index():
    m = EnergyModel()
    rng = np.random.default_rng(13)
    for xi in random_cells(rng, 5):
        vals = [cell_min_constrained(m, xi, 1, j)[0]
                for j in (1, 2, 4, 8, 16, 64)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a
        w0 = w0_closed_form(m, xi).finite
        assert abs(vals[-1] - w0) <= 1e-3


def test_constrained_min_input_validation():
    m = EnergyModel()
    with pytest.raises(ValueError, match="index"):
        cell_min_constrained(m, E1E2, 1, 0)
    with pytest.raises(ValueError, match="sign"):
        cell_min_constrained(m, E1E2, 0, 1)
    with pytest.raises(ValueError, match="full-rank"):
        cell_min_constrained(m, mat32([1, 0, 0], [2, 0, 0]), 1, 1)


# ---------------------------------------------------------------------------
# assignment

def test_assignment_invariants_on_wiggly_mesh():
    m = EnergyModel()
    field = wiggly_field(2)
    asn = build_assignment(m, field, None)
    crosses = np.cross(asn.gradients[:, :, 0], asn.gradients[:, :, 1])
    assert set(asn.signs.tolist()) <= {-1, 1}
    dets_bar = asn.signs * (crosses @ asn.zeta_bar)
    assert np.all(dets_bar >= 1.0 / asn.j_v - 1e-15)
    dets_cell = asn.signs * np.einsum("ij,ij->i", crosses, asn.zetas)
    assert np.all(dets_cell >= 1.0 / asn.j - 1e-12)


@pytest.mark.parametrize("model", [EnergyModel(),
                                   EnergyModel(ShiftedLogBarrier(), p=3.0)])
def test_batched_assignment_matches_per_cell_minima(model):
    field = wiggly_field(3)
    _, j_v, _ = feasible_normal(field.gradients())
    for j in (j_v, 4 * j_v):
        asn = build_assignment(model, field, j)
        for i in range(asn.n_cells):
            value, zeta = cell_min_constrained(model, asn.gradients[i],
                                               int(asn.signs[i]), j)
            assert asn.values[i] == pytest.approx(value, rel=1e-13)
            np.testing.assert_allclose(asn.zetas[i], zeta, rtol=1e-13,
                                       atol=1e-15)


def test_assignment_rejects_low_index():
    m = EnergyModel()
    field = wiggly_field(1)
    asn = build_assignment(m, field)
    if asn.j_v > 1:
        with pytest.raises(ValueError, match="below the feasibility index"):
            build_assignment(m, field, asn.j_v - 1)
    with pytest.raises(ValueError, match="below the feasibility index"):
        build_assignment(m, field, 0)


def test_assignment_validation_catches_wrong_sign():
    m = EnergyModel()
    field = wiggly_field(1)
    asn = build_assignment(m, field)
    with pytest.raises(ValueError, match="determinant bound"):
        DirectorAssignment(gradients=asn.gradients.copy(),
                           areas=asn.areas.copy(), j=asn.j, j_v=asn.j_v,
                           signs=-asn.signs, zeta_bar=asn.zeta_bar.copy(),
                           zetas=asn.zetas.copy(), values=asn.values.copy())


def test_assignment_json_dump(tmp_path):
    m = EnergyModel()
    field = wiggly_field(1)
    asn = build_assignment(m, field, 4)
    path = tmp_path / "assignment.json"
    asn.save_json(path)
    data = json.loads(path.read_text())
    assert data["j"] == 4
    assert data["j_v"] == asn.j_v
    assert len(data["cells"]) == asn.n_cells
    cell = data["cells"][0]
    assert set(cell) == {"gradient", "area", "sign", "zeta", "value"}


def test_cellwise_energy_is_area_weighted_sum():
    m = EnergyModel()
    field = wiggly_field(2)
    asn = build_assignment(m, field, 8)
    manual = sum(float(a) * float(v)
                 for a, v in zip(asn.areas, asn.values))
    assert cellwise_energy(asn) == pytest.approx(manual, rel=1e-15)


# ---------------------------------------------------------------------------
# blended director

def identity_field():
    mesh = single_triangle_mesh([0, 0], [1, 0], [0, 1])
    vals = np.zeros((3, 3))
    vals[:, :2] = mesh.vertices
    return PwAffineField(mesh, vals)


def test_blend_is_shared_direction_on_edges():
    m = EnergyModel()
    field = identity_field()
    asn = build_assignment(m, field, 4)
    phi = blended_director(field, asn, 16)
    edge_pts = np.array([[0.5, 0.0], [0.0, 0.3], [0.5, 0.5]])
    got = phi.evaluate(edge_pts)
    assert np.allclose(got, asn.zeta_bar[None], atol=1e-12)


def test_blend_plateaus_at_cell_minimizer():
    m = EnergyModel()
    field = identity_field()
    asn = build_assignment(m, field, 4)
    center = np.array([[0.25, 0.25]])  # incenter-ish, well inside
    d = 0.25 * (1.0 - math.sqrt(0.5))  # distance to the hypotenuse
    for n in (64, 256):
        assert n * d > 1.0
        phi = blended_director(field, asn, n)
        assert np.allclose(phi.evaluate(center), asn.zetas[0][None],
                           atol=1e-12)
    assert phi([0.25, 0.25]) == pytest.approx(asn.zetas[0], abs=1e-12)


def test_blend_stays_feasible_everywhere():
    m = EnergyModel()
    field = wiggly_field(2)
    asn = build_assignment(m, field, asn_j := None)
    phi = blended_director(field, asn, 32)
    rng = np.random.default_rng(14)
    pts = rng.uniform(0.0, 1.0, (10000, 2))
    cells = field.mesh.locate(pts)
    zeta = phi.evaluate(pts)
    crosses = np.cross(asn.gradients[:, :, 0], asn.gradients[:, :, 1])
    dets = np.einsum("ij,ij->i", crosses[cells], zeta)
    assert np.all(asn.signs[cells] * dets >= 1.0 / asn.j - 1e-12)


def test_blend_is_exact_at_vertices_and_on_the_plateau():
    m = EnergyModel()
    field = wiggly_field(4)
    asn = build_assignment(m, field)
    n = 64
    phi = blended_director(field, asn, n)
    at_vertices = phi.evaluate(field.mesh.vertices)
    assert np.array_equal(at_vertices,
                          np.tile(asn.zeta_bar, (field.mesh.n_vertices, 1)))
    # a centroid lies a third of the smallest height inside its cell
    corners = field.mesh.vertices[field.mesh.triangles]
    edges = np.roll(corners, -1, axis=1) - corners
    heights = 2.0 * field.mesh.areas[:, None] / np.linalg.norm(edges, axis=2)
    assert np.all(heights.min(axis=1) / 3.0 > 1.0 / n)
    assert np.array_equal(phi.evaluate(corners.mean(axis=1)), asn.zetas)


def test_blend_rejects_points_outside_the_mesh():
    m = EnergyModel()
    field = identity_field()
    phi = blended_director(field, build_assignment(m, field, 4), 8)
    with pytest.raises(ValueError, match="outside the mesh"):
        phi.evaluate(np.array([[0.2, 0.2], [0.9, 0.9]]))


def test_blend_input_validation():
    m = EnergyModel()
    field = identity_field()
    asn = build_assignment(m, field, 4)
    with pytest.raises(ValueError, match="sharpness"):
        blended_director(field, asn, 0)
    other = wiggly_field(2)
    with pytest.raises(ValueError, match="does not match"):
        blended_director(other, asn, 8)


# ---------------------------------------------------------------------------
# blended energy

def test_nirf_single_cell_near_reduced_density():
    m = EnergyModel()
    field = identity_field()
    area = float(field.mesh.areas.sum())
    got = nirf_value(m, field, 4, 64).finite
    target = area * W0_E1E2
    assert got >= target - 1e-12
    assert (got - target) / target <= 0.01


def test_nirf_nonincreasing_in_index():
    m = EnergyModel()
    field = wiggly_field(1)
    asn = build_assignment(m, field)
    vals = [nirf_value(m, field, j, 64, rel_tol=1e-6).finite
            for j in (asn.j_v, 4 * asn.j_v, 16 * asn.j_v)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-9


def test_nirf_converges_to_cellwise_minimum():
    m = EnergyModel()
    field = wiggly_field(1)
    asn = build_assignment(m, field, 8)
    floor = cellwise_energy(asn)
    got = nirf_value(m, field, 8, 10 ** 6).finite
    assert got >= floor - 1e-12
    assert got == pytest.approx(floor, rel=1e-3)


def test_nirf_rejects_low_index_and_degenerate_cells():
    m = EnergyModel()
    field = identity_field()
    with pytest.raises(ValueError, match="below the feasibility index"):
        nirf_value(m, field, 0, 8)
    mesh = field.mesh
    flat = PwAffineField(mesh, np.column_stack([mesh.vertices[:, 0],
                                                mesh.vertices[:, 0],
                                                np.zeros(3)]))
    with pytest.raises(ValueError, match="rank-deficient"):
        nirf_value(m, flat, 1, 8)


def test_nirf_threaded_matches_serial():
    m = EnergyModel()
    field = wiggly_field(2)
    serial = nirf_value(m, field, 8, 32).finite
    threaded = nirf_value(m, field, 8, 32, threads=4).finite
    assert threaded == serial


def curved_field() -> PwAffineField:
    mesh = unit_square_mesh(12)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    vals = np.column_stack([x + 0.1 * np.sin(y), y + 0.1 * np.cos(x),
                            0.2 * x * y])
    return PwAffineField(mesh, vals)


def per_cell_nirf(model, field, asn, n):
    """The blended energy cell by cell, blend weight written out."""
    corners = field.mesh.vertices[field.mesh.triangles]
    total = 0.0
    for c in range(asn.n_cells):
        tri = corners[c]
        g = asn.gradients[c]
        cross = np.cross(g[:, 0], g[:, 1])
        sq = float(np.sum(g * g))

        def integrand(p, roots, tri=tri, c=c, cross=cross, sq=sq):
            dist = np.inf
            for k in range(3):
                a, b = tri[k], tri[(k + 1) % 3]
                s = np.clip(((p - a) @ (b - a)) / ((b - a) @ (b - a)),
                            0.0, 1.0)
                dist = np.minimum(dist, np.hypot(*(p - a - s[:, None]
                                                   * (b - a)).T))
            w = np.minimum(n * dist, 1.0)[:, None]
            zeta = (1.0 - w) * asn.zeta_bar + w * asn.zetas[c]
            return model.density(np.abs(zeta @ cross),
                                 sq + np.sum(zeta * zeta, axis=1))

        total += integrate_adaptive(integrand, tri[None]).value
    return total


def test_nirf_matches_a_per_cell_oracle_across_slices():
    m = EnergyModel(ShiftedLogBarrier())
    field = curved_field()
    assert field.mesh.n_cells > 256  # more than one slice of cells
    _, j_v, _ = feasible_normal(field.gradients())
    asn = build_assignment(m, field, 4 * j_v)
    got = nirf_value(m, field, 4 * j_v, 64).finite
    want = per_cell_nirf(m, field, asn, 64)
    assert got == pytest.approx(want, rel=1e-13)
    assert nirf_value(m, field, 4 * j_v, 64, threads=2).finite == got
