import math
from types import SimpleNamespace

import numpy as np
import pytest

from memrelax import director_field, pw_affine
from memrelax.energy_models import EnergyModel, ShiftedLogBarrier
from memrelax.fiber_reduction import ReducedDensity
from memrelax.pw_affine import (
    PwAffineField,
    TriMesh,
    refine_field,
    refine_mesh,
    unit_square_mesh,
)
from memrelax.quadrature import subdivide_triangles
from oracles import (
    INFINITE,
    boundary_mask,
    build_diamond_hat,
    build_square_hat,
    crossed_square_mesh,
    diamond_mesh,
    energy_integral,
    evaluate,
    finite,
    perturbed_square_mesh,
    single_triangle_mesh,
    strided_pull_back,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

W0_E1E2 = 2.0 + 3.0 * 2.0 ** (-2.0 / 3.0)


def affine_field(mesh, xi, b=(0.0, 0.0, 0.0)):
    vals = mesh.vertices @ np.asarray(xi, dtype=float).T + np.asarray(b)
    return PwAffineField(mesh, vals)


def test_affine_field_has_constant_gradient():
    rng = np.random.default_rng(3)
    xi = rng.normal(size=(3, 2))
    mesh = unit_square_mesh(3)
    field = affine_field(mesh, xi, b=rng.normal(size=3))
    grads = field.gradients()
    assert grads.shape == (mesh.n_cells, 3, 2)
    for grad in grads:
        np.testing.assert_allclose(grad, xi, atol=1e-12)
    assert mesh.areas.sum() == pytest.approx(1.0, abs=1e-12)


def test_zero_field_zero_gradients():
    mesh = diamond_mesh()
    field = PwAffineField(mesh, np.zeros((mesh.n_vertices, 3)))
    assert np.all(field.gradients() == 0.0)
    assert mesh.areas.sum() == pytest.approx(2.0, abs=1e-12)


def test_diamond_hat_gradient_pattern():
    rng = np.random.default_rng(5)
    nu = rng.normal(size=3)
    nu /= np.linalg.norm(nu)
    t = 0.7
    hat = build_diamond_hat(nu, t)
    signs = [(-1, 1), (-1, -1), (1, -1), (1, 1)]
    for cell, (s1, s2) in enumerate(signs):
        expected = t * np.stack([s1 * nu, s2 * nu], axis=1)
        np.testing.assert_allclose(hat.gradients()[cell], expected, atol=1e-12)


def test_diamond_hat_shifted_gradients():
    xi = np.stack([E1, E2], axis=1)
    hat = build_diamond_hat(E3, 1.0)
    shifted = [xi + hat.gradients()[i] for i in range(4)]
    expected = [
        np.stack([E1 - E3, E2 + E3], axis=1),
        np.stack([E1 - E3, E2 - E3], axis=1),
        np.stack([E1 + E3, E2 - E3], axis=1),
        np.stack([E1 + E3, E2 + E3], axis=1),
    ]
    for got, want in zip(shifted, expected):
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_square_hat_gradient_pattern():
    rng = np.random.default_rng(8)
    nu = rng.normal(size=3)
    nu /= np.linalg.norm(nu)
    hat = build_square_hat(nu, 1.0)
    zero = np.zeros(3)
    expected = [
        np.stack([zero, nu], axis=1),
        np.stack([-nu, zero], axis=1),
        np.stack([zero, -nu], axis=1),
        np.stack([nu, zero], axis=1),
    ]
    for cell, want in enumerate(expected):
        np.testing.assert_allclose(hat.gradients()[cell], want, atol=1e-12)
    np.testing.assert_allclose(hat.mesh.areas, 0.25, atol=1e-15)


def test_hats_vanish_for_zero_amplitude():
    for hat in (build_diamond_hat(E3, 0.0), build_square_hat(E1, 0.0)):
        assert np.all(hat.values == 0.0)


def test_hat_boundary_values_vanish():
    hat = build_diamond_hat(E2, 1.3)
    corners = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)], dtype=float)
    mids = 0.5 * (corners + np.roll(corners, -1, axis=0))
    vals = evaluate(hat, np.vstack([corners, mids]))
    assert np.abs(vals).max() < 1e-12
    assert np.all(hat.values[boundary_mask(hat.mesh)] == 0.0)


def test_hat_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        build_square_hat([1.0, 1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        build_diamond_hat([0.0, 0.0, 0.0], 1.0)


def test_interpolant_continuous_across_interior_edges():
    mesh = unit_square_mesh(2)
    rng = np.random.default_rng(13)
    field = PwAffineField(mesh, rng.normal(size=(mesh.n_vertices, 3)))
    grads = field.gradients()
    owners = {}
    for cell, sides in enumerate(mesh.cell_edges.tolist()):
        for e in sides:
            owners.setdefault(e, []).append(cell)
    interior = [(e, cells) for e, cells in owners.items() if len(cells) == 2]
    assert interior
    for e, cells in interior:
        a, b = mesh.edges[e]
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        per_cell = []
        for c in cells:
            i0 = mesh.triangles[c, 0]
            rel = mid - mesh.vertices[i0]
            per_cell.append(field.values[i0] + grads[c] @ rel)
        np.testing.assert_allclose(per_cell[0], per_cell[1], atol=1e-12)


# a density given by its batch function alone
ONE = SimpleNamespace(batch=lambda gs: np.ones(len(gs)))


def test_energy_integral_constant_density_gives_area():
    field = affine_field(unit_square_mesh(3), np.zeros((3, 2)))
    assert finite(energy_integral(field, ONE)) == pytest.approx(
        1.0, abs=1e-12)
    diamond = affine_field(diamond_mesh(), np.ones((3, 2)))
    assert finite(energy_integral(diamond, ONE)) == pytest.approx(
        2.0, abs=1e-12)


def test_energy_integral_rank_deficient_is_infinite():
    # u(x) = (x1 + x2) e1 has proportional gradient columns everywhere
    mesh = unit_square_mesh(2)
    vals = np.zeros((mesh.n_vertices, 3))
    vals[:, 0] = mesh.vertices.sum(axis=1)
    field = PwAffineField(mesh, vals)
    w0 = ReducedDensity(EnergyModel())
    assert energy_integral(field, w0) is INFINITE


def test_energy_integral_identity_embedding():
    mesh = crossed_square_mesh()
    vals = np.zeros((mesh.n_vertices, 3))
    vals[:, :2] = mesh.vertices
    field = PwAffineField(mesh, vals)
    w0 = ReducedDensity(EnergyModel())
    assert finite(energy_integral(field, w0)) == pytest.approx(
        W0_E1E2, abs=1e-8)


def test_energy_integral_offset_matches_manual_shift():
    xi = np.stack([E1, 2.0 * E2], axis=1)
    hat = build_square_hat(E3, 0.5)
    density = SimpleNamespace(batch=lambda gs: np.einsum("nij,nij->n", gs, gs))
    shifted = energy_integral(hat, density, offset=xi)
    manual = energy_integral(
        hat, SimpleNamespace(batch=lambda gs: density.batch(xi + gs)))
    assert finite(shifted) == pytest.approx(finite(manual), rel=1e-14)


def test_mesh_and_field_validation():
    with pytest.raises(ValueError):
        TriMesh([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])  # collinear
    with pytest.raises(ValueError):
        TriMesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 3)])  # bad index
    with pytest.raises(ValueError, match=r"triangle \[0, 1, 1\] repeats"):
        TriMesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (0, 1, 1)])
    # a float index was truncated: 1.7 read as 1
    for tris in ([(0, 1.7, 2)], np.array([[0.0, 1.0, 2.0]])):
        with pytest.raises(ValueError, match="must be integers"):
            TriMesh([(0, 0), (1, 0), (0, 1)], tris)
    for tris in ([(0, 1, 2)], np.array([[0, 1, 2]], dtype=np.uint32)):
        mesh = TriMesh([(0, 0), (1, 0), (0, 1)], tris)
        assert mesh.triangles.tolist() == [[0, 1, 2]]
        assert mesh.triangles.dtype == int
    mesh = single_triangle_mesh((0, 0), (1, 0), (0, 1))
    with pytest.raises(ValueError):
        PwAffineField(mesh, np.ones((4, 3)))  # wrong shape


# ---------------------------------------------------------------------------
# P1 operators and the edge table

def test_edge_table_lists_each_side_once():
    mesh = perturbed_square_mesh()
    T = mesh.triangles
    sides = np.stack([T[:, [0, 1]], T[:, [1, 2]], T[:, [2, 0]]], axis=1)
    np.testing.assert_array_equal(mesh.edges[mesh.cell_edges],
                                  np.sort(sides, axis=2))
    # Euler: V - E + F = 1 on the square
    assert mesh.n_vertices - mesh.edges.shape[0] + mesh.n_cells == 1
    on_side = np.any((mesh.vertices == 0.0) | (mesh.vertices == 1.0), axis=1)
    np.testing.assert_array_equal(boundary_mask(mesh), on_side)
    assert np.all(mesh.edges[:, 0] < mesh.edges[:, 1])
    owners = np.bincount(mesh.cell_edges.ravel(),
                         minlength=mesh.edges.shape[0])
    assert np.all((owners == 1) | (owners == 2))
    assert np.all(on_side[mesh.edges[owners == 1]])


def _eager_edge_table(mesh):
    """The edge table as the constructor once built it."""
    n, T = mesh.n_vertices, mesh.triangles
    sides = np.sort(T[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, side_edge = np.unique(sides[:, 0] * n + sides[:, 1],
                                return_inverse=True)
    return np.stack([keys // n, keys % n], axis=1), side_edge.reshape(-1, 3)


def test_lazy_edge_table_is_the_eager_one():
    for mesh in (unit_square_mesh(1), unit_square_mesh(5),
                 perturbed_square_mesh(), crossed_square_mesh(),
                 diamond_mesh(), refine_mesh(perturbed_square_mesh(), 2)):
        edges, cell_edges = _eager_edge_table(mesh)
        for got, want in ((mesh.edges, edges), (mesh.cell_edges, cell_edges)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable
        # built once, then read back
        assert mesh.edges is mesh.edges and mesh.cell_edges is mesh.cell_edges


def test_a_mesh_builds_its_edge_table_only_when_read(monkeypatch):
    unique = np.unique
    built = []

    def counted(*args, **kwargs):
        built.append(args[0].size)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    mesh = unit_square_mesh(4)
    TriMesh(mesh.vertices, mesh.triangles)
    assert built == []
    # refinement reads the parent's table three times and builds it once;
    # the child's is never built
    field = PwAffineField(mesh, np.column_stack([mesh.vertices,
                                                 mesh.vertices[:, 0]]))
    fine = refine_field(field, 1)
    assert built == [3 * mesh.n_cells]
    assert fine.mesh.n_cells == 4 * mesh.n_cells
    with pytest.raises(AttributeError, match="immutable"):
        mesh.edges = np.zeros((1, 2), dtype=int)


def _component_major(d_grad, d_mean):
    """Entry-major (..., m, k, 2) and (..., m, k) cell values moved to the
    component-major (2, k, ..., m) and (k, ..., m) of the mesh's
    operators."""
    cells = tuple(range(d_mean.ndim - 1))
    return (d_grad.transpose((d_grad.ndim - 1, d_grad.ndim - 2) + cells),
            d_mean.transpose((d_mean.ndim - 1,) + cells))


@pytest.mark.parametrize("lead", [(), (4,)])
def test_pull_back_is_adjoint_of_gradients_and_means(lead):
    mesh = perturbed_square_mesh()
    rng = np.random.default_rng(11)
    k = 3
    v = rng.standard_normal(lead + (mesh.n_vertices, k))
    G = rng.standard_normal((2, k) + lead + (mesh.n_cells,))
    C = rng.standard_normal((k,) + lead + (mesh.n_cells,))
    grads, means = mesh.component_gradients_and_means(v)
    lhs = np.sum(grads * G) + np.sum(means * C)
    back = mesh.pull_back_components(G, C)
    assert back.shape == v.shape
    assert np.sum(v * back) == pytest.approx(lhs, rel=1e-12)


def test_cell_gradients_and_means_of_an_affine_map():
    mesh = perturbed_square_mesh()
    xi = np.array([[1.0, 2.0], [-0.5, 0.3], [0.2, 0.0]])
    vals = mesh.vertices @ xi.T
    grads, means = mesh.component_gradients_and_means(vals)
    assert grads.shape == (2, 3, mesh.n_cells)
    np.testing.assert_allclose(grads.T,
                               np.broadcast_to(xi, (mesh.n_cells, 3, 2)),
                               atol=1e-12)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    np.testing.assert_allclose(means.T, centroids @ xi.T, atol=1e-14)


@pytest.mark.parametrize("lead", [(), (4,)])
@pytest.mark.parametrize("k", [1, 3])
def test_one_corner_gather_equals_the_per_corner_formulas(lead, k):
    # the three-gather formulas the mesh used before it shared one gather
    mesh = perturbed_square_mesh()
    v = np.random.default_rng(12).standard_normal(lead + (mesh.n_vertices, k))
    T, inv = mesh.triangles, mesh._inv_rows.transpose(2, 0, 1)
    v0 = v[..., T[:, 0], :]
    e1 = v[..., T[:, 1], :] - v0
    e2 = v[..., T[:, 2], :] - v0
    grads = np.empty(e1.shape + (2,))
    for c in range(2):
        grads[..., c] = e1 * inv[:, 0, c, None] + e2 * inv[:, 1, c, None]
    means = (v0 + v[..., T[:, 1], :] + v[..., T[:, 2], :]) / 3.0
    for got, want in zip(mesh.component_gradients_and_means(v),
                         _component_major(grads, means)):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def test_cached_pull_back_equals_the_uncached_formula():
    mesh = perturbed_square_mesh()
    rng = np.random.default_rng(13)
    # alternate the shapes twice, so an index reused for the wrong shape
    # would show on the second round
    for lead, k in [((), 1), ((4,), 3), ((), 3), ((4,), 1)] * 2:
        G = rng.standard_normal(lead + (mesh.n_cells, k, 2))
        C = rng.standard_normal(lead + (mesh.n_cells, k))
        got = mesh.pull_back_components(*_component_major(G, C))
        assert got.shape == lead + (mesh.n_vertices, k)
        np.testing.assert_array_equal(got, strided_pull_back(mesh, G, C))


@pytest.mark.parametrize("block", [1, 16, 1000])
def test_blocked_locate_equals_one_full_scan(monkeypatch, block):
    monkeypatch.setattr(pw_affine, "_LOCATE_POINTS", block)
    mesh = perturbed_square_mesh()
    a, b = mesh.edges.T
    rng = np.random.default_rng(14)
    pts = np.concatenate([
        mesh.vertices,                                     # several cells
        0.5 * (mesh.vertices[a] + mesh.vertices[b]),       # shared edges
        rng.uniform(0.0, 1.0, size=(40, 2)),
        [(-0.1, 0.5), (0.5, 1.2), (2.0, 2.0), (1.0 + 1e-9, 0.5)],
    ])
    assert pts.shape[0] < 1000  # so the largest block scans all at once
    # one (N, m, 3) scan: the lowest-index containing cell, -1 outside
    every = np.arange(mesh.n_cells)
    inside = np.all(mesh.barycentric(pts[:, None], every)
                    >= -pw_affine._BARY_TOL, axis=2)
    want = np.where(inside.any(axis=1), np.argmax(inside, axis=1), -1)
    got = mesh.locate(pts)
    np.testing.assert_array_equal(got, want)
    assert np.all(got[-4:] == -1) and np.all(got[:-4] >= 0)


def test_barycentric_coordinates_broadcast_the_cell_ids():
    # one point per cell reads the same bits as the all-cells scan, and
    # the coordinates rebuild the point from the cell's corners
    mesh = perturbed_square_mesh()
    rng = np.random.default_rng(15)
    pts = rng.uniform(0.0, 1.0, size=(50, 2))
    cells = rng.integers(0, mesh.n_cells, pts.shape[0])
    full = mesh.barycentric(pts[:, None], np.arange(mesh.n_cells))
    assert full.shape == (pts.shape[0], mesh.n_cells, 3)
    lam = mesh.barycentric(pts, cells)
    np.testing.assert_array_equal(lam, full[np.arange(pts.shape[0]), cells])
    corners = mesh.vertices[mesh.triangles[cells]]
    np.testing.assert_allclose(np.einsum("nk,nkj->nj", lam, corners), pts,
                               rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# refinement

def _curved_field(mesh):
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    return PwAffineField(mesh, np.column_stack(
        [x + 0.1 * np.sin(y), y + 0.1 * np.cos(x), 0.2 * x * y]))


def test_refine_field_agrees_with_the_original_field():
    field = _curved_field(perturbed_square_mesh())
    pts = np.random.default_rng(2).uniform(0.02, 0.98, size=(200, 2))
    # the interpolant reads the nodal values at the vertices
    np.testing.assert_allclose(evaluate(field, field.mesh.vertices),
                               field.values, rtol=0.0, atol=1e-15)
    for levels in (1, 2):
        fine = refine_field(field, levels)
        np.testing.assert_allclose(evaluate(fine, pts), evaluate(field, pts),
                                   rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_refined_unit_square_counts_area_and_boundary(n):
    mesh = unit_square_mesh(n)
    fine = refine_mesh(mesh)
    assert fine.n_vertices == (2 * n + 1) ** 2
    assert fine.n_cells == 8 * n * n
    assert fine.areas.sum() == pytest.approx(mesh.areas.sum(), rel=1e-14)
    np.testing.assert_array_equal(fine.vertices[:mesh.n_vertices],
                                  mesh.vertices)
    direct = unit_square_mesh(2 * n)

    def boundary_points(m):
        return sorted(map(tuple, m.vertices[boundary_mask(m)].tolist()))

    assert boundary_points(fine) == boundary_points(direct)


def test_refine_keeps_aff0_and_child_order():
    hat = build_square_hat(E3, 1.0)
    fine = refine_field(hat)
    assert np.all(fine.values[boundary_mask(fine.mesh)] == 0.0)
    # children of cell c are cells 4c..4c+3 in the quadrature's order
    np.testing.assert_array_equal(
        fine.mesh.vertices[fine.mesh.triangles],
        subdivide_triangles(hat.mesh.vertices[hat.mesh.triangles]))
    np.testing.assert_allclose(fine.gradients().reshape(-1, 4, 3, 2),
                               np.repeat(hat.gradients()[:, None], 4, axis=1),
                               atol=1e-14)


def test_refine_levels():
    field = _curved_field(unit_square_mesh(2))
    twice = refine_field(refine_field(field))
    at_once = refine_field(field, 2)
    np.testing.assert_array_equal(at_once.values, twice.values)
    np.testing.assert_array_equal(at_once.mesh.triangles, twice.mesh.triangles)
    np.testing.assert_array_equal(refine_mesh(field.mesh, 2).vertices,
                                  twice.mesh.vertices)
    assert refine_field(field, 0).mesh is field.mesh
    with pytest.raises(ValueError):
        refine_field(field, -1)
    with pytest.raises(ValueError):
        refine_mesh(field.mesh, -1)


@pytest.mark.parametrize("count", [True, 2.0, np.int64(2)])
@pytest.mark.parametrize("build", [
    unit_square_mesh,
    lambda n: refine_mesh(unit_square_mesh(1), n),
    lambda n: refine_field(_curved_field(unit_square_mesh(1)), n).mesh,
], ids=["unit_square_mesh", "refine_mesh", "refine_field"])
def test_mesh_counts_take_integers_and_refuse_bools_and_floats(build, count):
    if isinstance(count, np.integer):
        np.testing.assert_array_equal(build(count).vertices,
                                      build(2).vertices)
        np.testing.assert_array_equal(build(count).triangles,
                                      build(2).triangles)
    else:
        with pytest.raises(ValueError, match="must be an integer"):
            build(count)


def test_refined_nirf_job_never_locates_points(monkeypatch):
    def no_locate(self, points):
        raise AssertionError("point location called")

    monkeypatch.setattr(pw_affine.TriMesh, "locate", no_locate)
    v = pw_affine.refine_field(_curved_field(unit_square_mesh(2)), 1)
    _, j_v, _ = director_field.feasible_normal(v.gradients())
    value = director_field.nirf_value(EnergyModel(ShiftedLogBarrier()), v,
                                      4 * j_v, 64)
    assert math.isfinite(value.as_float())
