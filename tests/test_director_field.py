import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from memrelax import director_field, quadrature
from memrelax.director_field import (
    BlendedDirector, DirectorAssignment, build_assignment,
    cell_min_constrained, cellwise_energy, feasible_normal, nirf_value,
)
from memrelax.energy_models import EnergyModel, ShiftedLogBarrier
from memrelax.fiber_reduction import solve_fiber, w0_closed_form
from memrelax.pw_affine import (PwAffineField, TriMesh, refine_field,
                                unit_square_mesh)
from memrelax.tensor_kernel import column_invariants, cross3
from oracles import (FOUR_MODELS, adaptive_nirf, finite, mat32,
                     perturbed_square_mesh, scanned_normal,
                     single_triangle_mesh)

E1E2 = mat32([1, 0, 0], [0, 1, 0])
W0_E1E2 = 2.0 + 3.0 * 2.0 ** (-2.0 / 3.0)


def wiggly_field(n: int) -> PwAffineField:
    """Full-rank embedding of the unit square with varied cell gradients."""
    mesh = unit_square_mesh(n)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    vals = np.column_stack([x + 0.1 * y * y, y - 0.05 * x * x,
                            0.3 * x - 0.2 * y + 0.1 * x * y])
    return PwAffineField(mesh, vals)


def stretched_field(n: int = 4) -> PwAffineField:
    """Sheet whose cells stretch along x from about 1.25 to 2.75: at the
    feasibility index the least stretched cells' free minimizers lie
    below the bound 1/(j a), the others above it."""
    mesh = unit_square_mesh(n)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    return PwAffineField(mesh, np.column_stack([x + x * x, y + 0.1 * x * y,
                                                0.2 * x * y]))


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


def _assert_scan(cells):
    zeta, j_v, signs = scanned_normal(cells)
    got = feasible_normal(cells)
    assert np.array_equal(got[0], zeta)
    assert got[1] == j_v
    assert np.array_equal(got[2], signs)


def _mirrored(cells, axis):
    """cells followed by their images under the reflection of one axis."""
    flip = np.ones(3)
    flip[axis] = -1.0
    return np.concatenate([cells, flip[:, None] * cells])


def _tilted(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]]) @ E1E2


def curved_field(n: int = 12, scale: float = 1.0) -> PwAffineField:
    mesh = unit_square_mesh(n)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    vals = np.column_stack([x + 0.1 * np.sin(y), y + 0.1 * np.cos(x),
                            0.2 * x * y])
    return PwAffineField(mesh, scale * vals)


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_bounded_scan_returns_the_exhaustive_scan(monkeypatch, block):
    monkeypatch.setattr(director_field, "_SCAN_DIRECTIONS", block)
    rng = np.random.default_rng(12)
    stacks = [np.array(random_cells(rng, rng.integers(1, 7)))
              for _ in range(12)]
    stacks += [wiggly_field(6).gradients(),
               refine_field(curved_field(6), 1).gradients()]
    for cells in stacks:
        _assert_scan(cells)


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_bounded_scan_keeps_the_first_of_tied_directions(monkeypatch,
                                                         block):
    # the flat cell ties +e3 with -e3; a stack and its mirror image tie
    # every direction with its reflection
    monkeypatch.setattr(director_field, "_SCAN_DIRECTIONS", block)
    rng = np.random.default_rng(3)
    stacks = [np.array([E1E2]), np.array([E1E2, E1E2]),
              _mirrored(np.array([_tilted(0.5)]), 2),
              _mirrored(np.array([_tilted(0.5)]), 0),
              _mirrored(_mirrored(np.array([_tilted(0.3), E1E2]), 0), 1),
              _mirrored(np.array(random_cells(rng, 3)), 2),
              _mirrored(wiggly_field(3).gradients(), 2)]
    for cells in stacks:
        _assert_scan(cells)


def _near_tie_cell(delta):
    """One cell whose normal leans from the bisector of the Fibonacci
    directions 593 and 627 toward 627 by delta: those two are its nearest
    scanned directions, and 627 comes later and is better by a few ulps."""
    fib = director_field._fibonacci_sphere(1024)
    d1, d2 = fib[593], fib[627]
    c = d1 + d2 + delta * (d2 - d1)
    c /= np.linalg.norm(c)
    u = np.cross(c, [0.0, 0.0, 1.0])
    u /= np.linalg.norm(u)
    return np.column_stack([u, np.cross(c, u)])[None], np.stack([d1, d2])


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_bounded_scan_takes_a_later_direction_better_by_ulps(monkeypatch,
                                                             block):
    # the later direction wins the sphere stage by 10 ulps and centres the
    # caps; a bound that skipped it for a gap that small would move them
    monkeypatch.setattr(director_field, "_SCAN_DIRECTIONS", block)
    cells, pair = _near_tie_cell(2e-13)
    cols = column_invariants(cells)[0]
    m1, m2 = director_field._abs_dots(pair, cols)[:, 0]
    assert 4 <= (m2 - m1) / np.spacing(m1) <= 16
    _assert_scan(cells)


def test_bounded_scan_values_few_directions_against_every_cell(monkeypatch):
    # 17 of the 1,874 scanned directions reach the full scan on this field
    cells = refine_field(curved_field(6), 1).gradients()
    full = []
    abs_dots = director_field._abs_dots

    def spy(dirs, cols):
        if cols.shape[1] == cells.shape[0]:
            full.append(dirs.shape[0])
        return abs_dots(dirs, cols)

    monkeypatch.setattr(director_field, "_abs_dots", spy)
    _assert_scan(cells)
    assert sum(full) <= 25


def nirf_sheet(seed: int) -> PwAffineField:
    """The benchmark's nirf sheet at a seed: (x + c1 sin y, y + c2 cos x,
    c3 x y) on a 12 x 12 grid, refined once."""
    rng = np.random.default_rng(seed)
    c1, c2, c3 = 0.1, 0.1, 0.2
    if seed:
        c1, c2 = rng.uniform(0.09, 0.11, size=2)
        c3 = rng.uniform(0.18, 0.22)
    mesh = unit_square_mesh(12)
    x, y = mesh.vertices.T
    return refine_field(PwAffineField(mesh, np.column_stack(
        [x + c1 * np.sin(y), y + c2 * np.cos(x), c3 * x * y])), 1)


def _spied_scan(monkeypatch, cells):
    """feasible_normal's triple and its _abs_dots calls as (directions,
    cells, whether the cells are every cell's column)."""
    calls = []
    abs_dots = director_field._abs_dots

    def spy(dirs, cols):
        # the scan's first call values the axes against every cell
        every = calls[0][3] if calls else cols
        calls.append((dirs.shape[0], cols.shape[1], cols is every, every))
        return abs_dots(dirs, cols)

    with monkeypatch.context() as patch:
        patch.setattr(director_field, "_abs_dots", spy)
        got = feasible_normal(cells)
    return got, [call[:3] for call in calls]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounded_scan_returns_the_exhaustive_scan_on_the_nirf_sheet(seed):
    _assert_scan(nirf_sheet(seed).gradients())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_scan_of_the_nirf_sheet_makes_few_calls(monkeypatch, seed):
    # one bound per batch: nine batches, four of them valued blocks
    _, calls = _spied_scan(monkeypatch, nirf_sheet(seed).gradients())
    assert len(calls) <= 12


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_no_scan_call_outgrows_one_block_of_products(monkeypatch, block):
    # the three-cell stack makes every cell a sentinel, so its batch
    # bounds are cut into chunks
    rng = np.random.default_rng(12)
    small = np.array(random_cells(rng, 3))
    monkeypatch.setattr(director_field, "_SCAN_DIRECTIONS", block)
    for cells in (small, np.array([E1E2, E1E2]),
                  _mirrored(np.array([_tilted(0.5)]), 2),
                  nirf_sheet(0).gradients()):
        (zeta, j_v, signs), calls = _spied_scan(monkeypatch, cells)
        m = cells.shape[0]
        assert max(rows * width for rows, width, _ in calls) <= block * m
        want = scanned_normal(cells)
        assert np.array_equal(zeta, want[0]) and j_v == want[1]
        assert np.array_equal(signs, want[2])
        if cells is small:
            assert max(w for _, w, every in calls if not every) == m


def test_feasible_normal_refuses_an_empty_stack():
    with pytest.raises(ValueError, match="at least one cell"):
        feasible_normal(np.zeros((0, 3, 2)))


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


def test_the_fixed_directions_are_built_once_and_read_only(monkeypatch):
    # the axes, the icosahedron and three Fibonacci spheres, bit for bit,
    # built at import: a scan builds none of them
    stages = director_field._FIXED_DIRECTIONS
    want = [np.concatenate([np.eye(3), -np.eye(3)]),
            director_field._icosahedron(),
            *(director_field._fibonacci_sphere(n) for n in (64, 256, 1024))]
    assert [s.shape[0] for s in stages] == [6, 12, 64, 256, 1024]
    for got, fresh in zip(stages, want):
        assert got.tobytes() == fresh.tobytes()
        assert not got.flags.writeable

    def refuse(*args):
        raise AssertionError("a fixed stage built during a scan")

    for name in ("_icosahedron", "_fibonacci_sphere"):
        monkeypatch.setattr(director_field, name, refuse)
    assert feasible_normal([E1E2])[1] == 1


def test_the_cap_cross_product_is_np_cross_bit_for_bit():
    # signed zeros included: _cap crosses a unit center with a unit axis,
    # through the kernel's two-vector form
    rng = np.random.default_rng(17)
    rows = np.concatenate([rng.normal(size=(400, 3)), np.eye(3), -np.eye(3),
                           np.zeros((1, 3))])
    for a in rows[::7]:
        for b in rows:
            assert cross3(a, b).tobytes() == np.cross(a, b).tobytes()


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
    assert value == 4.0
    assert np.array_equal(zeta, [0.0, 0.0, 1.0])
    # a = 3/4, q = 5/2: 1/(a t) + q + t^2 has its root at (2/3)^(1/3),
    # below the bound 1/(j a) = 4/3 at j = 1, which the cell takes with
    # the density there; at j = 2 the bound 2/3 lies below the root
    xi = mat32([1.5, 0, 0], [0, 0.5, 0])
    a, q, lo = 0.75, 2.5, 1.0 / 0.75
    t, free = solve_fiber(m, np.array([a]), np.array([q]))
    at_bound = m.density(np.array([a * lo]), np.array([q + lo * lo]))[0]
    assert t[0] < lo and at_bound > free[0]
    for sign in (1, -1):
        value, zeta = cell_min_constrained(m, xi, sign, 1)
        assert value == at_bound
        assert np.array_equal(zeta, [0.0, 0.0, sign * lo / a * a])
    value, zeta = cell_min_constrained(m, xi, 1, 2)
    assert value == free[0]
    assert np.array_equal(zeta, [0.0, 0.0, t[0] / a * a])


class KinkAtQuarter:
    """The shifted log read at 4x: h(x) = max(-log 4x, 0) + 1/(4x), whose
    kink sits at x = 1/4, where its slope jumps from -8 to -4."""

    kinks = ((0.25, -8.0, -4.0),)
    blowup_order = 1.0

    def values(self, x):
        return ShiftedLogBarrier().values(4.0 * np.asarray(x))

    def derivative(self, x):
        return 4.0 * ShiftedLogBarrier().derivative(4.0 * np.asarray(x))

    def second_derivative(self, x):
        return 16.0 * ShiftedLogBarrier().second_derivative(
            4.0 * np.asarray(x))


def test_a_kink_below_the_bound_does_not_stop_the_cell():
    # a = 5/16 puts the free minimizer on the kink, t = 1/(4a) = 0.8
    # (1/4 < a < 2^(1/2)/4); the bound 1/(j a) is 0.4 at j = 8, where the
    # cell keeps the kink, and 1.6 at j = 2, where it takes the bound
    m = EnergyModel(KinkAtQuarter())
    xi = mat32([1, 0, 0], [0, 0.3125, 0])
    a, q = 0.3125, 1.09765625
    t, free = solve_fiber(m, np.array([a]), np.array([q]))
    assert t[0] == 0.25 / a
    value, zeta = cell_min_constrained(m, xi, 1, 8)
    assert value == free[0] and np.array_equal(zeta, [0.0, 0.0, t[0] / a * a])
    lo = 1.0 / (2 * a)
    value, zeta = cell_min_constrained(m, xi, 1, 2)
    assert value == m.density(np.array([a * lo]), np.array([q + lo * lo]))[0]
    assert np.array_equal(zeta, [0.0, 0.0, lo / a * a])
    assert value > free[0]


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
        w0 = finite(w0_closed_form(m, xi))
        assert abs(vals[-1] - w0) <= 1e-3


def test_constrained_min_input_validation():
    m = EnergyModel()
    with pytest.raises(ValueError, match="index"):
        cell_min_constrained(m, E1E2, 1, 0)
    with pytest.raises(ValueError, match="sign"):
        cell_min_constrained(m, E1E2, 0, 1)
    with pytest.raises(ValueError, match="full-rank"):
        cell_min_constrained(m, mat32([1, 0, 0], [2, 0, 0]), 1, 1)


@pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, 0, 2])
def test_a_sign_that_is_not_the_integer_one_or_minus_one_is_refused(sign):
    # True and 1.0 passed as +1: True in (-1, 1) holds
    with pytest.raises(ValueError, match="sign must be the integer"):
        cell_min_constrained(EnergyModel(), E1E2, sign, 1)


@pytest.mark.parametrize("j", [2.5, 2.0, math.inf, math.nan, True])
def test_a_constraint_index_that_is_not_an_integer_is_refused(j):
    # 2.5 clamped at 1/(2.5 a) but was stored as DirectorAssignment.j == 2;
    # True passed as j = 1
    m = EnergyModel()
    field = identity_field()
    with pytest.raises(ValueError, match="must be an integer"):
        cell_min_constrained(m, E1E2, 1, j)
    with pytest.raises(ValueError, match="must be an integer"):
        build_assignment(m, field, j)
    with pytest.raises(ValueError, match="must be an integer"):
        nirf_value(m, field, j, 8)


def test_a_numpy_integer_constraint_index_is_accepted():
    m = EnergyModel()
    field = identity_field()
    asn = build_assignment(m, field, np.int64(2))
    assert asn.j == 2 and type(asn.j) is int
    value, zeta = cell_min_constrained(m, E1E2, 1, np.int32(2))
    assert value == cell_min_constrained(m, E1E2, 1, 2)[0]
    assert np.array_equal(zeta, cell_min_constrained(m, E1E2, 1, 2)[1])
    value, zeta = cell_min_constrained(m, E1E2, np.int64(-1), 2)
    assert value == cell_min_constrained(m, E1E2, -1, 2)[0]
    assert np.array_equal(zeta, cell_min_constrained(m, E1E2, -1, 2)[1])
    assert nirf_value(m, field, np.int64(2), 8) == nirf_value(m, field, 2, 8)


# ---------------------------------------------------------------------------
# assignment

def test_assignment_invariants_on_wiggly_mesh():
    m = EnergyModel()
    field = wiggly_field(2)
    asn = build_assignment(m, field, None)
    crosses = np.cross(asn.field.gradients()[:, :, 0], asn.field.gradients()[:, :, 1])
    assert set(asn.signs.tolist()) <= {-1, 1}
    dets_bar = asn.signs * (crosses @ asn.zeta_bar)
    assert np.all(dets_bar >= 1.0 / asn.j_v - 1e-15)
    dets_cell = asn.signs * np.einsum("ij,ij->i", crosses, asn.zetas)
    assert np.all(dets_cell >= 1.0 / asn.j - 1e-12)


@pytest.mark.parametrize("model", [EnergyModel(),
                                   EnergyModel(ShiftedLogBarrier(), p=3.0)])
@pytest.mark.parametrize("field, mixed", [(wiggly_field(3), False),
                                          (stretched_field(), True)],
                         ids=["wiggly", "stretched"])
def test_batched_assignment_matches_per_cell_minima(model, field, mixed):
    # each cell of the batch, clamped to its bound or free, is bit for
    # bit its own solve; the stretched sheet holds both kinds at j_v
    _, j_v, _ = feasible_normal(field.gradients())
    for j in (j_v, 4 * j_v):
        asn = build_assignment(model, field, j)
        crosses = np.cross(asn.field.gradients()[:, :, 0], asn.field.gradients()[:, :, 1])
        dets = asn.signs * np.einsum("ij,ij->i", crosses, asn.zetas)
        on_bound = np.isclose(dets, 1.0 / j, rtol=1e-12, atol=0.0)
        if mixed and j == j_v:
            assert on_bound.any() and not on_bound.all()
        for i in range(asn.n_cells):
            value, zeta = cell_min_constrained(model, asn.field.gradients()[i],
                                               int(asn.signs[i]), j)
            assert asn.values[i] == value
            assert np.array_equal(asn.zetas[i], zeta)


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
        DirectorAssignment(field=asn.field, j=asn.j, j_v=asn.j_v,
                           signs=-asn.signs, zeta_bar=asn.zeta_bar.copy(),
                           zetas=asn.zetas.copy(), values=asn.values.copy())


@pytest.mark.parametrize("name, shape", [("signs", (7,)), ("values", (7,)),
                                         ("zetas", (7, 3)), ("zetas", (8, 2)),
                                         ("zeta_bar", (2,))])
def test_assignment_refuses_per_cell_arrays_of_the_wrong_shape(name, shape):
    # unit_square_mesh(2) has 8 cells: signs and values are (8,), zetas
    # (8, 3) and zeta_bar (3,), each refused by name before any product
    field = wiggly_field(2)
    asn = build_assignment(EnergyModel(), field)
    assert asn.n_cells == 8
    arrays = {n: getattr(asn, n).copy() for n in
              ("signs", "zeta_bar", "zetas", "values")}
    arrays[name] = np.resize(arrays[name], shape)
    with pytest.raises(ValueError, match=rf"^{name} must have shape"):
        DirectorAssignment(field=field, j=asn.j, j_v=asn.j_v, **arrays)


def test_direct_assignment_stores_read_only_copies():
    # the caller's writeable arrays stay theirs and writeable; read-only
    # ones are kept as they are
    asn = build_assignment(EnergyModel(), wiggly_field(1))
    mine = {name: getattr(asn, name).copy() for name in
            ("signs", "zeta_bar", "zetas", "values")}
    made = DirectorAssignment(field=asn.field, j=asn.j, j_v=asn.j_v, **mine)
    for name, arr in mine.items():
        assert arr.flags.writeable
        assert getattr(made, name) is not arr
        assert not getattr(made, name).flags.writeable
        assert np.array_equal(getattr(made, name), arr)
    assert made.field is asn.field


def test_build_assignment_copies_none_of_its_arrays(monkeypatch):
    # the assignment holds the very arrays the scan and the fiber solve made
    made = {}

    def keep(name):
        fn = getattr(director_field, name)

        def kept(*args):
            made[name] = fn(*args)
            return made[name]
        return kept

    for name in ("feasible_normal", "_constrained_minima"):
        monkeypatch.setattr(director_field, name, keep(name))
    field = wiggly_field(2)
    asn = build_assignment(EnergyModel(), field)
    zeta_bar, _, signs = made["feasible_normal"]
    values, zetas = made["_constrained_minima"]
    assert asn.field is field
    assert asn.zeta_bar is zeta_bar and asn.signs is signs
    assert asn.values is values and asn.zetas is zetas
    for arr in (asn.signs, asn.zeta_bar, asn.zetas, asn.values):
        assert not arr.flags.writeable


def test_cellwise_energy_is_area_weighted_sum():
    m = EnergyModel()
    field = wiggly_field(2)
    asn = build_assignment(m, field, 8)
    manual = sum(float(a) * float(v)
                 for a, v in zip(asn.field.mesh.areas, asn.values))
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
    phi = BlendedDirector(asn, 16)
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
        phi = BlendedDirector(asn, n)
        assert np.allclose(phi.evaluate(center), asn.zetas[0][None],
                           atol=1e-12)
    assert phi.evaluate([[0.25, 0.25]])[0] == pytest.approx(asn.zetas[0],
                                                            abs=1e-12)


def test_blend_stays_feasible_everywhere():
    m = EnergyModel()
    field = wiggly_field(2)
    asn = build_assignment(m, field, asn_j := None)
    phi = BlendedDirector(asn, 32)
    rng = np.random.default_rng(14)
    pts = rng.uniform(0.0, 1.0, (10000, 2))
    cells = field.mesh.locate(pts)
    zeta = phi.evaluate(pts)
    crosses = np.cross(asn.field.gradients()[:, :, 0], asn.field.gradients()[:, :, 1])
    dets = np.einsum("ij,ij->i", crosses[cells], zeta)
    assert np.all(asn.signs[cells] * dets >= 1.0 / asn.j - 1e-12)


def test_blend_is_exact_at_vertices_and_on_the_plateau():
    m = EnergyModel()
    field = wiggly_field(4)
    asn = build_assignment(m, field)
    n = 64
    phi = BlendedDirector(asn, n)
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
    phi = BlendedDirector(build_assignment(m, field, 4), 8)
    with pytest.raises(ValueError, match="outside the mesh"):
        phi.evaluate(np.array([[0.2, 0.2], [0.9, 0.9]]))


def test_blend_input_validation():
    m = EnergyModel()
    field = identity_field()
    asn = build_assignment(m, field, 4)
    with pytest.raises(ValueError, match="sharpness"):
        BlendedDirector(asn, 0)
    # the director blends the cells of the assignment's own field, so it
    # takes no field of its own that could disagree with them
    params = inspect.signature(BlendedDirector).parameters
    assert list(params) == ["assignment", "n"]
    with pytest.raises(TypeError):
        BlendedDirector(wiggly_field(2), asn, 8)


@pytest.mark.parametrize("n", [1.5, math.nan, math.inf, True])
def test_blend_rejects_a_fractional_or_nonfinite_sharpness(n):
    m = EnergyModel()
    field = identity_field()
    asn = build_assignment(m, field, 4)
    with pytest.raises(ValueError, match="sharpness"):
        BlendedDirector(asn, n)
    # one integer rule for j and n: an integral float is refused like a
    # float index, a numpy integer is accepted like one
    with pytest.raises(ValueError, match="sharpness"):
        BlendedDirector(asn, 8.0)
    with pytest.raises(ValueError, match="sharpness"):
        nirf_value(m, field, 4, 8.0)
    assert BlendedDirector(asn, np.int64(8)).n == 8


def clockwise(field: PwAffineField) -> PwAffineField:
    """The same field on the same cells, each listed clockwise."""
    mesh = field.mesh
    return PwAffineField(TriMesh(mesh.vertices, mesh.triangles[:, ::-1]),
                         field.values)


def segment_distance(corners: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the boundary of its (N, 3, 2) cell,
    by projection onto the three side segments."""
    sides = np.roll(corners, -1, axis=1) - corners
    t = (np.einsum("nkj,nkj->nk", points[:, None] - corners, sides)
         / np.einsum("nkj,nkj->nk", sides, sides))
    gap = points[:, None] - (corners + np.clip(t, 0.0, 1.0)[..., None] * sides)
    return np.sqrt(np.einsum("nkj,nkj->nk", gap, gap)).min(axis=1)


@pytest.mark.parametrize("orient", [lambda f: f, clockwise],
                         ids=["counterclockwise", "clockwise"])
def test_weight_matches_the_segment_distance(orient):
    m = EnergyModel()
    field = orient(wiggly_field(4))
    asn = build_assignment(m, field)
    corners = field.mesh.vertices[field.mesh.triangles]
    rng = np.random.default_rng(15)
    inner = rng.integers(0, field.mesh.n_cells, 2000)
    bary = rng.dirichlet(np.ones(3), inner.size)
    mids = 0.5 * (corners + np.roll(corners, -1, axis=1))
    every = np.repeat(np.arange(field.mesh.n_cells), 3)
    cells = np.concatenate([inner, every, every])
    points = np.concatenate([np.einsum("nk,nkj->nj", bary, corners[inner]),
                             mids.reshape(-1, 2), corners.reshape(-1, 2)])
    dist = segment_distance(corners[cells], points)
    assert dist.max() > 0.05  # the weight is checked away from the edges
    bary = field.mesh.barycentric(points, cells)
    for n in (1, 4, 64):
        got = BlendedDirector(asn, n)._bary_weight(bary, cells)
        np.testing.assert_allclose(got, np.minimum(n * dist, 1.0),
                                   rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("orient", [lambda f: f, clockwise],
                         ids=["counterclockwise", "clockwise"])
def test_weight_is_zero_at_every_corner_of_every_cell(orient):
    m = EnergyModel()
    field = orient(wiggly_field(4))
    phi = BlendedDirector(build_assignment(m, field), 10 ** 6)
    corners = field.mesh.vertices[field.mesh.triangles]
    cells = np.repeat(np.arange(field.mesh.n_cells), 3)
    bary = field.mesh.barycentric(corners.reshape(-1, 2), cells)
    assert np.all(phi._bary_weight(bary, cells) == 0.0)
    assert np.array_equal(phi.evaluate(field.mesh.vertices),
                          np.tile(phi.assignment.zeta_bar,
                                  (field.mesh.n_vertices, 1)))


@pytest.mark.parametrize("orient", [lambda f: f, clockwise],
                         ids=["counterclockwise", "clockwise"])
def test_weight_is_zero_at_every_corner_of_perturbed_meshes(orient):
    # on non-dyadic corners a coordinate formed as 1 - l1 - l2 missed 0 by
    # a few ulps, which n = 10^6 scaled to a nonzero weight; the cross
    # product of the opposite side with p - corner k + 1 is exactly 0
    m = EnergyModel()
    for seed in range(20):
        mesh = perturbed_square_mesh(6, seed)
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        field = orient(PwAffineField(mesh, np.column_stack(
            [x + 0.1 * y * y, y - 0.05 * x * x, 0.3 * x - 0.2 * y])))
        phi = BlendedDirector(build_assignment(m, field), 10 ** 6)
        corners = field.mesh.vertices[field.mesh.triangles]
        cells = np.repeat(np.arange(field.mesh.n_cells), 3)
        bary = field.mesh.barycentric(corners.reshape(-1, 2), cells)
        off = bary.reshape(-1, 3, 3)[:, ~np.eye(3, dtype=bool)]
        assert np.all(off == 0.0)
        assert np.all(phi._bary_weight(bary, cells) == 0.0)
        assert np.array_equal(phi.evaluate(field.mesh.vertices),
                              np.tile(phi.assignment.zeta_bar,
                                      (field.mesh.n_vertices, 1)))


@pytest.mark.parametrize("orient", [lambda f: f, clockwise],
                         ids=["counterclockwise", "clockwise"])
def test_barycentric_weight_is_the_segment_distance_at_the_rule_points(
        orient):
    # n dist(x) = min_k lambda_k(x) n h_k, h_k the height of corner k over
    # the side opposite; the quadrature's levels 0-3 on the nirf sheet
    m = EnergyModel(ShiftedLogBarrier())
    field = orient(curved_field())
    phi = BlendedDirector(build_assignment(m, field), 64)
    cells = np.arange(field.mesh.n_cells)
    corners = field.mesh.vertices[field.mesh.triangles]
    for level in range(4):
        bary = quadrature._edge_map(level)[0]
        got = phi._bary_weight(bary, cells[:, None])
        points = (bary @ corners).reshape(-1, 2)
        every = np.repeat(cells, bary.shape[0])
        want = np.minimum(64 * segment_distance(corners[every], points), 1.0)
        assert got.shape == (cells.size, bary.shape[0])
        assert np.abs(got.ravel() - want).max() <= 2e-14
    assert np.any(got == 1.0) and np.any((got > 0.0) & (got < 1.0))
    # the level-0 midpoints lie on the skeleton: a zero coordinate there
    # makes the weight exactly 0
    level0 = quadrature._edge_map(0)[0]
    assert np.all(phi._bary_weight(level0, cells[:, None]) == 0.0)


# ---------------------------------------------------------------------------
# blended energy

def test_nirf_single_cell_near_reduced_density():
    m = EnergyModel()
    field = identity_field()
    area = float(field.mesh.areas.sum())
    got = finite(nirf_value(m, field, 4, 64))
    target = area * W0_E1E2
    assert got >= target - 1e-12
    assert (got - target) / target <= 0.01


def test_nirf_nonincreasing_in_index():
    m = EnergyModel()
    field = wiggly_field(1)
    asn = build_assignment(m, field)
    vals = [finite(nirf_value(m, field, j, 64))
            for j in (asn.j_v, 4 * asn.j_v, 16 * asn.j_v)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-9


def test_nirf_converges_to_cellwise_minimum():
    m = EnergyModel()
    field = wiggly_field(1)
    asn = build_assignment(m, field, 8)
    floor = cellwise_energy(asn)
    got = finite(nirf_value(m, field, 8, 10 ** 6))
    assert got >= floor - 1e-12
    assert got == pytest.approx(floor, rel=1e-6)


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
    for n in (True, 8.0, 0, -4):
        with pytest.raises(ValueError, match="sharpness"):
            nirf_value(m, field, 4, n)


def test_nirf_matches_a_per_cell_oracle():
    # the adaptive midpoint rule over each cell, refined to 1e-10 or level 8
    m = EnergyModel(ShiftedLogBarrier())
    field = curved_field()
    _, j_v, _ = feasible_normal(field.gradients())
    got = finite(nirf_value(m, field, 4 * j_v, 64))
    want = adaptive_nirf(m, field, 4 * j_v, 64, rel_tol=1e-10, max_level=8)
    assert got == pytest.approx(want, rel=1e-8)


def test_nirf_value_does_not_depend_on_the_cells_orientation():
    # heights and areas carry no orientation, so listing every cell
    # clockwise changes only the round-off of the coefficients
    m = EnergyModel(ShiftedLogBarrier())
    field = curved_field()
    _, j_v, _ = feasible_normal(field.gradients())
    want = finite(nirf_value(m, field, 4 * j_v, 64))
    got = finite(nirf_value(m, clockwise(field), 4 * j_v, 64))
    assert got == pytest.approx(want, rel=1e-13)


def test_nirf_integrand_is_the_density_along_the_blend(monkeypatch):
    # the per-cell polynomial in the weight against W at the blended zeta
    m = EnergyModel(ShiftedLogBarrier())
    field = curved_field()
    _, j_v, _ = feasible_normal(field.gradients())
    rule, density = [], []
    coarea_rule = BlendedDirector._coarea_rule
    model_density = EnergyModel.density

    def rule_spy(self, cuts):
        a, weights = coarea_rule(self, cuts)
        rule.append(a.copy())  # nirf_value reuses the buffer
        return a, weights

    def density_spy(self, adet, sq):
        density.append(model_density(self, adet, sq))
        return density[-1]

    monkeypatch.setattr(BlendedDirector, "_coarea_rule", rule_spy)
    monkeypatch.setattr(EnergyModel, "density", density_spy)
    nirf_value(m, field, 4 * j_v, 64)
    a, = rule
    got = density[-1]  # one call over every sample of every cell
    assert got.shape == a.shape == (17, field.mesh.n_cells)
    asn = build_assignment(m, field, 4 * j_v)
    zeta = asn.zeta_bar + a[..., None] * (asn.zetas - asn.zeta_bar)
    crosses = np.cross(asn.field.gradients()[:, :, 0], asn.field.gradients()[:, :, 1])
    sq = np.sum(asn.field.gradients() ** 2, axis=(1, 2))
    want = model_density(m, np.abs(np.einsum("scj,cj->sc", zeta, crosses)),
                         sq + np.einsum("scj,scj->sc", zeta, zeta))
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_nirf_value_is_pinned_on_the_refined_curved_sheet(monkeypatch):
    # (x + 0.1 sin y, y + 0.1 cos x, 0.2 x y) on a 12 x 12 grid, refined
    # once, j four times the coarse field's feasibility index: the nirf
    # job of the benchmark at seed 0, pinned bit for bit; the 2D adaptive
    # rule is not called
    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrate_adaptive called")

    monkeypatch.setattr(director_field, "integrate_adaptive", no_quadrature)
    monkeypatch.setattr(quadrature, "integrate_adaptive", no_quadrature)
    mesh = unit_square_mesh(12)
    x, y = mesh.vertices.T
    coarse = PwAffineField(mesh, np.column_stack(
        [x + 0.1 * np.sin(y), y + 0.1 * np.cos(x), 0.2 * x * y]))
    _, j_v, _ = feasible_normal(coarse.gradients())
    assert 4 * j_v == 4
    value = nirf_value(EnergyModel(ShiftedLogBarrier()),
                       refine_field(coarse, 1), 4 * j_v, 64)
    assert value.as_float().hex() == "0x1.015370adb990dp+2"


def inradii(field: PwAffineField) -> np.ndarray:
    """2 A / P of each cell, from its side lengths."""
    corners = field.mesh.vertices[field.mesh.triangles]
    sides = np.linalg.norm(np.roll(corners, -1, axis=1) - corners, axis=2)
    return 2.0 * field.mesh.areas / sides.sum(axis=1)


@pytest.mark.parametrize("n", [4, 64])
def test_coarea_weights_sum_to_each_cell_area(n):
    # with f = 1 the band and the plateau hold the whole cell, whether the
    # band fills it (rho < 1 at n = 4) or leaves a plateau (n = 64), and
    # wherever the band is cut
    field = curved_field(6)
    phi = BlendedDirector(build_assignment(EnergyModel(), field), n)
    rho = n * inradii(field)
    assert np.all(rho < 1.0) if n == 4 else np.all(rho >= 1.0)
    cells = field.mesh.n_cells
    cuts = np.random.default_rng(17).uniform(-0.5, 1.5, (2, cells))
    for k in range(3):
        a, weights = phi._coarea_rule(cuts[:k])
        assert a.shape == weights.shape == (8 * (k + 1) + 1, cells)
        assert np.all((a >= 0.0) & (a <= 1.0))
        np.testing.assert_allclose(weights.sum(axis=0), field.mesh.areas,
                                   rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [4, 64])
@pytest.mark.parametrize("model", FOUR_MODELS.values(), ids=FOUR_MODELS)
def test_nirf_matches_the_adaptive_oracle_for_every_model(model, n):
    field = curved_field(6)
    _, j_v, _ = feasible_normal(field.gradients())
    got = finite(nirf_value(model, field, 4 * j_v, n))
    want = adaptive_nirf(model, field, 4 * j_v, n, rel_tol=1e-10,
                         max_level=8)
    assert got == pytest.approx(want, rel=1e-8)


def coarea_midpoint(model, field, asn, n, points=20_000) -> float:
    """The coarea integral cell by cell by a composite midpoint rule in
    the weight, blind to kinks: W at the blended zeta, rho = n 2 A / P."""
    rho = n * inradii(field)
    crosses = np.cross(asn.field.gradients()[:, :, 0], asn.field.gradients()[:, :, 1])
    sq = np.sum(asn.field.gradients() ** 2, axis=(1, 2))
    total = 0.0
    for c, area in enumerate(field.mesh.areas):
        top = min(rho[c], 1.0)
        a = top * (np.arange(points) + 0.5) / points
        zeta = asn.zeta_bar + a[:, None] * (asn.zetas[c] - asn.zeta_bar)
        w = model.density(np.abs(zeta @ crosses[c]),
                          sq[c] + np.sum(zeta * zeta, axis=1))
        plateau = model.density(np.abs(asn.zetas[c] @ crosses[c]),
                                sq[c] + asn.zetas[c] @ asn.zetas[c])
        total += area * (2.0 / rho[c] * top * np.mean(w * (1.0 - a / rho[c]))
                         + max(0.0, 1.0 - 1.0 / rho[c]) ** 2 * plateau)
    return total


def test_nirf_splits_the_band_where_the_determinant_crosses_the_kink():
    # p = 3 on a sheet stretched by 1.25: the shared direction has
    # |det| > 1 and each cell's minimizer |det| < 1, so the shifted log's
    # kink at |det| = 1 lies inside the band; one Gauss rule across it
    # misses by about 1e-6
    m = EnergyModel(ShiftedLogBarrier(), p=3.0)
    field = curved_field(6, scale=1.25)
    _, j_v, _ = feasible_normal(field.gradients())
    asn = build_assignment(m, field, 4 * j_v)
    crosses = np.cross(asn.field.gradients()[:, :, 0], asn.field.gradients()[:, :, 1])
    ends = np.abs([crosses @ asn.zeta_bar,
                   np.einsum("ij,ij->i", crosses, asn.zetas)])
    assert np.all(64 * inradii(field) >= 1.0)
    assert np.sum((ends[0] - 1.0) * (ends[1] - 1.0) < 0.0) > 0
    got = finite(nirf_value(m, field, 4 * j_v, 64))
    assert got == pytest.approx(coarea_midpoint(m, field, asn, 64), rel=1e-9)


def test_nirf_of_a_cell_whose_minimizer_is_the_shared_direction():
    # the identity cell under the shifted log at j = 1: the clamp puts the
    # minimizer on zeta_bar = e3, so c1 = 0 (and 0 / 0 at the kink cut) and
    # W is constant on the cell
    m = EnergyModel(ShiftedLogBarrier())
    field = identity_field()
    asn = build_assignment(m, field, 1)
    assert np.array_equal(asn.zetas[0], asn.zeta_bar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nirf_value(m, field, 1, 8)
    want = field.mesh.areas[0] * m.density(np.float64(1.0), np.float64(3.0))
    assert got == pytest.approx(want, rel=1e-15)


def test_nirf_memory_stays_per_point_scalar():
    # the rule holds a few (17, M) arrays, about 0.33 MB on this mesh; an
    # (N, 3, 2) stack per sample point would take megabytes
    m = EnergyModel(ShiftedLogBarrier())
    field = curved_field()
    _, j_v, _ = feasible_normal(field.gradients())
    nirf_value(m, field, 4 * j_v, 64)
    tracemalloc.start()
    try:
        nirf_value(m, field, 4 * j_v, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
