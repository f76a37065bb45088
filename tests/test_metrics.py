"""Ray casting and RayIoU tests, by caster path.

The exact caster has two paths, and each is held bit for bit to the
all-intervals caster `cast_all_intervals`, which bins every interval
midpoint with point_to_flat:

- the sorted path (TestSortedPath): rays off the z axis and on cuboid
  lattices sort their crossings. Its crossing builder (TestSortedCrossings)
  builds every crossing family for every block, and must match the
  all-families builder bit for bit up to each row's first max_dist column;
- the layer-run path (TestLayerRuns): rays from the z axis take one
  next-occupied-bin lookup per layer run, and fall back to the sorted
  path wherever the lookup is unsure; no ray of the default fan or of the
  `cylocc eval` default fan takes the sorted path.

The shared pass that casts several grids at once (TestSharedCast) must
give each grid its own cast's hits. Closed-form shell-crossing cases
(TestCastRay), a fine (1 mm) fixed-step marcher on arbitrary rays and the
standard 0.01 m marcher on evaluation-fan rays (TestCasterExactness; the
full 10k-ray runs live in the acceptance suite) check the caster from
outside. RayIoU confusion logic is pinned by a hand-computed two-ray table
on a grid whose cell edges make the distances exact, and its counts over
drawn hits by the per-ray scorer `ray_iou_per_ray`.
"""

import math
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylocc import cli, metrics
from cylocc.errors import DomainError, ShapeError
from cylocc.formats import decode_voxel_grid, encode_voxel_grid
from cylocc.geom import FisheyeCamera
from cylocc.grid import _EDGE_GUARD, CUBOID, GridSpec, VoxelGrid, default_cylindrical_spec, default_label_set
from cylocc.metrics import (
    _CHUNK,
    _MIN_SEGMENT,
    BatchHits,
    Rays,
    _cast_grids,
    _grid_max_distance,
    _report_from_hits,
    _sorted_crossings,
    cast_rays,
    default_ray_fan,
    generate_rays,
    ray_iou,
)
from cylocc.synth import HalfSpace, Scene, analytic_voxel_gt

from oracles import (
    cast_all_intervals,
    default_cuboid_spec,
    march_fixed_step,
    ray_intervals,
    ray_iou_per_ray,
    scene_first_hit,
    sorted_crossings_all_families,
    within_range,
    zero_grid,
)


def one_ray(origin, direction) -> Rays:
    return Rays(np.array([origin], dtype=np.float64), np.array([direction], dtype=np.float64))


def traverse_cells(origin, direction, spec: GridSpec, max_dist: float):
    """Ordered in-range cells the ray from origin along the unit direction
    passes through.

    Returns (cells, entries, exits): the flat indices of consecutive
    distinct cells plus the parameter at which each is entered and left.
    Degenerate slivers (shorter than 1e-12) are dropped.
    """
    ray = one_ray(origin, direction)
    ts, flat, seg_len = ray_intervals(spec, ray.origins, ray.directions, max_dist)
    keep = (flat[0] >= 0) & (seg_len[0] > _MIN_SEGMENT)
    cells, entries, exits = [], [], []
    for k in np.nonzero(keep)[0]:
        cell = int(flat[0, k])
        # contiguous intervals classifying into the same cell merge; a gap
        # (the ray left the grid and came back) keeps a genuine revisit
        if cells and cells[-1] == cell and ts[0, k] - exits[-1] < 1e-9:
            exits[-1] = float(ts[0, k + 1])
        else:
            cells.append(cell)
            entries.append(float(ts[0, k]))
            exits.append(float(ts[0, k + 1]))
    return np.array(cells, dtype=np.int64), np.array(entries), np.array(exits)


def random_label_grid(spec, rng, density=0.03, free_inner_r_bins=0):
    g = zero_grid(spec, "label")
    occ = rng.rand(*spec.dims) < density
    if free_inner_r_bins:
        occ[:free_inner_r_bins] = False
    g.data[occ] = rng.randint(1, 12, size=int(occ.sum()))
    return g


def perturbed(grid, seed):
    """A prediction-like copy of a label grid: 20% of voxels cleared, 1% relabelled."""
    rng = np.random.RandomState(seed)
    data = grid.data.copy()
    data[rng.rand(*data.shape) < 0.2] = 0
    flip = rng.rand(*data.shape) < 0.01
    data[flip] = rng.randint(0, 12, size=int(flip.sum()))
    return VoxelGrid(grid.spec, "label", data)


@pytest.fixture(scope="module")
def street_gt(street_scene, cyl_spec):
    return analytic_voxel_gt(street_scene, cyl_spec, 3)


@pytest.fixture(scope="module")
def street_pred(street_gt):
    return perturbed(street_gt, 8)


@pytest.fixture(scope="module")
def street_fan_oracle(street_gt, street_pred):
    """The all-intervals caster's default-fan hits into street_gt and street_pred, cast once per module."""
    fan = default_ray_fan()
    length = _grid_max_distance(street_gt.spec, fan.origins)
    return [cast_all_intervals(fan, g, length) for g in (street_gt, street_pred)]


class TestGenerateRays:
    def test_single_forward_ray(self):
        rays = generate_rays(1, 1, (-1e-6, 1e-6))
        assert len(rays) == 1
        np.testing.assert_allclose(rays.directions[0], [1.0, 0.0, 0.0], atol=1e-6)
        # bin center of one azimuth bin over [-pi, pi) is 0
        assert abs(math.atan2(rays.directions[0, 1], rays.directions[0, 0])) < 1e-12

    def test_four_azimuth_bin_centers(self):
        rays = generate_rays(4, 1, (-0.1, 0.1))
        az = np.arctan2(rays.directions[:, 1], rays.directions[:, 0])
        np.testing.assert_allclose(sorted(az), [-3 * math.pi / 4, -math.pi / 4, math.pi / 4, 3 * math.pi / 4], atol=1e-12)

    def test_all_unit_norm(self):
        rays = generate_rays(32, 8, (-0.5, 0.3), origin=(1.0, 2.0, 0.5))
        np.testing.assert_allclose(np.linalg.norm(rays.directions, axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(rays.origins, np.tile([1.0, 2.0, 0.5], (len(rays), 1)))

    def test_counts_validated(self):
        with pytest.raises(DomainError):
            generate_rays(0, 1, (-0.1, 0.1))

    @pytest.mark.parametrize("counts", [(2.5, 1), (4, 1.0), (True, 1), (4, np.bool_(True))])
    def test_non_integral_counts_rejected(self, counts):
        # 2.5 azimuths would build 3 rays spaced 2 pi / 2.5 apart
        with pytest.raises(DomainError, match="integers"):
            generate_rays(*counts, (-0.1, 0.1))

    def test_numpy_integer_counts_accepted(self):
        got = generate_rays(np.int64(4), np.uint16(2), (-0.1, 0.1))
        np.testing.assert_array_equal(got.directions, generate_rays(4, 2, (-0.1, 0.1)).directions)

    @pytest.mark.parametrize("counts", [(2**20 + 1, 1), (1024, 1025), (10_000_000, 10_000_000),
                                        (np.int64(2**32), np.int64(2**32))])
    def test_fan_size_capped(self, counts):
        # rejected before anything is allocated: 10^14 rays would need hundreds of TiB, and
        # 2^32 x 2^32 numpy counts must not wrap to a product of 0
        with pytest.raises(DomainError, match="at most"):
            generate_rays(*counts, (-0.1, 0.1))


class TestCastRay:
    def test_radial_hit_at_shell_entry(self, cyl_spec):
        g = zero_grid(cyl_spec, "label")
        g.data[5, 100, 7] = 3
        hits = cast_rays(one_ray([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), g)
        assert hits.hit[0]
        assert hits.label[0] == 3
        assert hits.distance[0] == pytest.approx(1.0, abs=1e-12)

    def test_all_free_no_hit(self, cyl_spec):
        g = zero_grid(cyl_spec, "label")
        hits = cast_rays(one_ray([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), g)
        assert not hits.hit[0]
        assert hits.label[0] == 0
        assert hits.voxel[0] == -1

    def test_origin_inside_occupied_cell(self, cyl_spec):
        g = zero_grid(cyl_spec, "label")
        g.data.reshape(-1)[cyl_spec.point_to_flat([[3.0, 1.0, 0.3]])] = 5
        hits = cast_rays(one_ray([3.0, 1.0, 0.3], [0.0, 1.0, 0.0]), g)
        assert hits.hit[0]
        assert hits.distance[0] == 0.0
        assert hits.label[0] == 5

    def test_origin_outside_grid_entry_distance(self):
        spec = GridSpec(CUBOID, (4, 4, 4), ((0, 4), (0, 4), (0, 4)))
        g = zero_grid(spec, "label")
        g.data[:] = 2
        hits = cast_rays(one_ray([-3.0, 2.0, 2.0], [1.0, 0.0, 0.0]), g)
        assert hits.distance[0] == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("max_dist", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_max_dist_rejected(self, max_dist):
        ray = one_ray([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            scene_first_hit(Scene((HalfSpace(-1.3, 1),)), ray.origins, ray.directions, max_dist)

    def test_length_reaches_any_exit(self, cyl_spec):
        # the derived length runs past the far side of the grid from an origin outside it
        g = zero_grid(cyl_spec, "label")
        g.data[100, 0, 7] = 4  # r in [20.0, 20.2) at theta = -pi
        hits = cast_rays(one_ray([40.0, 0.0, 0.0], [-1.0, 0.0, 0.0]), g)
        assert hits.label[0] == 4
        assert hits.distance[0] == pytest.approx(60.0, abs=1e-9)

    @pytest.mark.parametrize("x", [1e308, 2e154, 5e153])
    def test_far_origins_rejected(self, cyl_spec, x):
        # the squared length would overflow the crossing arithmetic
        with pytest.raises(DomainError, match="ray origins"):
            cast_rays(one_ray([x, 0.0, 0.0], [-1.0, 0.0, 0.0]), zero_grid(cyl_spec, "label"))

    @pytest.mark.parametrize("x", [4e153, 1e20])
    def test_far_origins_cast(self, x):
        for spec in (default_cylindrical_spec(), default_cuboid_spec()):
            g = zero_grid(spec, "label")
            g.data[:] = 1
            assert not cast_rays(one_ray([x, 0.0, 0.0], [0.0, 1.0, 0.0]), g).hit[0]

    def test_non_unit_direction_rejected(self):
        with pytest.raises(DomainError):
            one_ray([0.0, 0.0, 0.0], [1.0, 1.0, 0.0])

    @pytest.mark.parametrize("build", [
        lambda: one_ray([math.nan, 0.0, 0.0], [1.0, 0.0, 0.0]),
        lambda: one_ray([0.0, math.inf, 0.0], [1.0, 0.0, 0.0]),
        lambda: one_ray([0.0, 0.0, 0.0], [math.nan, 0.0, 0.0]),
        lambda: FisheyeCamera(640, 640, math.nan, (320.0, 320.0), math.pi),
        lambda: FisheyeCamera(640, 640, 190.0, (math.nan, 320.0), math.pi),
        lambda: FisheyeCamera(640, 640, 190.0, (320.0, math.inf), math.pi),
    ], ids=["nan-origin", "inf-origin", "nan-direction", "nan-focal", "nan-principal-point", "inf-principal-point"])
    def test_non_finite_ray_or_camera_rejected(self, build):
        with pytest.raises(DomainError):
            build()

    def test_needs_label_grid(self, cyl_spec):
        g = zero_grid(cyl_spec, "occupancy")
        with pytest.raises(DomainError):
            cast_rays(Rays(np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]])), g)


def assert_same_hits(a, b):
    for name in ("distance", "label", "voxel"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@cache
def drawn_grids():
    """One random label grid per lattice kind for the hypothesis cases."""
    rng = np.random.RandomState(21)
    return {kind: random_label_grid(spec, rng, 0.03)
            for kind, spec in (("cylindrical", default_cylindrical_spec()), ("cuboid", default_cuboid_spec()))}


@st.composite
def ray_cases(draw):
    """A grid plus a ray batch mixing origins inside occupied cells, outside
    the grid and on the r = 0 axis with vertical, horizontal (parallel to the
    z planes) and arbitrary directions."""
    grid = drawn_grids()[draw(st.sampled_from(["cylindrical", "cuboid"]))]
    spec = grid.spec
    occupied = np.flatnonzero(grid.data)
    unit = st.floats(0.05, 0.95)
    origins, directions = [], []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["occupied", "outside", "axis"]))
        if kind == "occupied":
            idx = np.unravel_index(occupied[draw(st.integers(0, len(occupied) - 1))], spec.dims)
            native = [spec.axis_value(i + draw(unit), k) for k, i in enumerate(idx)]
            origin = spec.to_cartesian(np.array([native]))[0]
        elif kind == "outside":
            angle = draw(st.floats(-math.pi, math.pi))
            radius, z = draw(st.floats(26.0, 40.0)), draw(st.floats(-6.0, 7.0))
            origin = np.array([radius * math.cos(angle), radius * math.sin(angle), z])
        else:
            origin = np.array([0.0, 0.0, draw(st.floats(-3.5, 4.0))])
        form = draw(st.sampled_from(["vertical", "horizontal", "any"]))
        if form == "vertical":
            direction = np.array([0.0, 0.0, draw(st.sampled_from([-1.0, 1.0]))])
        else:
            angle = draw(st.floats(-math.pi, math.pi))
            dz = 0.0 if form == "horizontal" else draw(st.floats(-0.95, 0.95))
            direction = np.array([math.cos(angle), math.sin(angle), dz])
            direction /= np.linalg.norm(direction)
        origins.append(origin)
        directions.append(direction)
    return Rays(np.array(origins), np.array(directions)), grid


class TestSortedPath:
    """The sorted path: rays off the z axis, and every ray on a cuboid
    lattice, sort their crossings and bin each interval's midpoint.
    cast_rays cuts the max_dist padding and retires rays at their first
    hit; every output must equal the all-intervals caster's bit for bit at
    the length cast_rays derives, and stay put at twice that length, since
    the derived length already reaches the grid exit. The drawn batches mix
    in rays from the z axis."""

    @pytest.mark.parametrize("coord", ["cylindrical", "cuboid"])
    def test_random_off_axis_rays(self, coord, cyl_spec):
        spec = cyl_spec if coord == "cylindrical" else default_cuboid_spec()
        rng = np.random.RandomState(31)
        g = random_label_grid(spec, rng, 0.03)
        n = 8000
        o = np.stack([rng.uniform(-15, 15, n), rng.uniform(-15, 15, n), rng.uniform(-2, 3, n)], axis=1)
        d = rng.normal(size=(n, 3))
        rays = Rays(o, d / np.linalg.norm(d, axis=1, keepdims=True))
        a = cast_rays(rays, g)
        assert a.hit.any() and not a.hit.all()
        assert_same_hits(a, cast_all_intervals(rays, g, _grid_max_distance(spec, rays.origins)))

    @settings(max_examples=150, deadline=None)
    @given(case=ray_cases())
    def test_drawn_rays(self, case):
        rays, grid = case
        hits = cast_rays(rays, grid)
        length = _grid_max_distance(grid.spec, rays.origins)
        assert_same_hits(hits, cast_all_intervals(rays, grid, length))
        assert_same_hits(hits, cast_all_intervals(rays, grid, 2.0 * length))


def unit_rows(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def assert_same_crossings(spec, o, d):
    """The kernel's sorted crossings equal the all-families oracle's bit for
    bit up to each row's first max_dist column, at the same column; returns
    the kernel's width."""
    length = _grid_max_distance(spec, o)
    ts = _sorted_crossings(spec, o, d, length)
    ref = sorted_crossings_all_families(spec, o, d, length)
    live = np.argmax(ts == length, axis=1)
    np.testing.assert_array_equal(live, np.argmax(ref == length, axis=1))
    w = live.max() + 1
    np.testing.assert_array_equal(ts[:, :w].view(np.uint64), ref[:, :w].view(np.uint64))
    return ts.shape[1]


def decoded_spec(spec):
    """spec as decode_voxel_grid returns it: r and z ranges rounded to f32, theta exact."""
    return decode_voxel_grid(encode_voxel_grid(zero_grid(spec, "label"))).spec


@cache
def axis_specs():
    """The default lattice and a small one with r_min > 0, each also as decoded (f32 r and z ranges)."""
    small = GridSpec("cylindrical", (24, 7, 6), ((2.0, 14.0), (-math.pi, math.pi), (-1.5, 2.1)))
    return [default_cylindrical_spec(), decoded_spec(default_cylindrical_spec()), small, decoded_spec(small)]


@st.composite
def crossing_cases(draw):
    """Origins on the axis (either zero sign), a denormal step off it, or
    anywhere, with vertical, horizontal, inward, outward or any directions."""
    n = draw(st.integers(1, 12))
    o, d = np.empty((n, 3)), np.empty((n, 3))
    for i in range(n):
        kind = draw(st.sampled_from(["axis", "tiny", "any"]))
        z = draw(st.floats(-3.5, 4.0))
        if kind == "axis":
            o[i] = [draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0])), z]
        elif kind == "tiny":
            o[i] = [draw(st.sampled_from([1e-300, -1e-300, 5e-324, 0.0])), draw(st.sampled_from([1e-300, 0.0])), z]
        else:
            o[i] = [draw(st.floats(-40.0, 40.0)), draw(st.floats(-40.0, 40.0)), z]
        form = draw(st.sampled_from(["vertical", "horizontal", "inward", "any"]))
        if form == "vertical":
            d[i] = [0.0, 0.0, draw(st.sampled_from([-1.0, 1.0]))]
        elif form == "inward" and o[i, :2].any():
            phi = math.atan2(o[i, 1], o[i, 0])
            d[i] = [-math.cos(phi), -math.sin(phi), draw(st.floats(-1.0, 1.0))]
        else:
            angle = draw(st.floats(-math.pi, math.pi))
            d[i] = [math.cos(angle), math.sin(angle), 0.0 if form == "horizontal" else draw(st.floats(-3.0, 3.0))]
    spec = draw(st.sampled_from([default_cylindrical_spec(), default_cuboid_spec()]))
    return spec, o, unit_rows(d)


class TestSortedCrossings:
    """The crossing builder builds every crossing family for every block,
    D2 + 1 + 2 (D0 + 1) + D1 columns between the 0 and max_dist ones on a
    cylindrical lattice (477 in all on the default one); its columns must
    equal the all-families oracle's bit for bit up to each row's first
    max_dist column."""

    def test_default_fan_builds_477_columns(self, cyl_spec):
        fan = default_ray_fan()
        for s in range(0, len(fan), _CHUNK):
            # 17 z planes, 129 far and 129 near r roots and 200 azimuth planes, between the 0 and max_dist columns
            assert assert_same_crossings(cyl_spec, fan.origins[s : s + _CHUNK], fan.directions[s : s + _CHUNK]) == 477

    def test_inward_off_axis_ray_builds_every_family(self, cyl_spec):
        fan = default_ray_fan()
        o, d = fan.origins[:8].copy(), fan.directions[:8].copy()
        o[0], d[0] = [10.0, 3.0, 0.2], unit_rows([[-1.0, -0.2, 0.05]])[0]
        assert assert_same_crossings(cyl_spec, o, d) == 477

    @pytest.mark.parametrize("coord", ["cylindrical", "cuboid"])
    def test_random_off_axis_rays(self, coord, cyl_spec):
        spec = cyl_spec if coord == "cylindrical" else default_cuboid_spec()
        rng = np.random.RandomState(51)
        n = 4000
        o = np.stack([rng.uniform(-30, 30, n), rng.uniform(-30, 30, n), rng.uniform(-4, 5, n)], axis=1)
        assert_same_crossings(spec, o, unit_rows(rng.normal(size=(n, 3))))

    @pytest.mark.parametrize("x,y", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
    def test_axis_origins(self, cyl_spec, x, y):
        # b = +-0 on the axis: the near roots and the azimuth planes hold only padding
        rng = np.random.RandomState(52)
        n = 500
        o = np.stack([np.full(n, x), np.full(n, y), rng.uniform(-3, 4, n)], axis=1)
        assert assert_same_crossings(cyl_spec, o, unit_rows(rng.normal(size=(n, 3)))) == 477

    @pytest.mark.parametrize("spec", axis_specs(), ids=["default", "default-decoded", "r_min", "r_min-decoded"])
    def test_axis_far_roots(self, spec):
        # an axis block's far roots are sqrt((4a) rk^2) (0.5 / a), guard included:
        # rk = 0 at r_min = 0, a = 0 for vertical rays, a ~ 1e-32 for steep ones
        rng = np.random.RandomState(56)
        n = 800
        signs = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
        o = np.column_stack([signs[np.arange(n) % 4], rng.uniform(-3, 4, n)])
        d = unit_rows(rng.normal(size=(n, 3)))
        d[:20] = [0.0, 0.0, 1.0]
        d[20:40, :2] *= 1e-16
        assert assert_same_crossings(spec, o, unit_rows(d)) == spec.dims[2] + 2 * spec.dims[0] + spec.dims[1] + 5

    @pytest.mark.parametrize("o_xy", [(1e-300, 0.0), (0.0, -1e-300), (5e-324, 5e-324)])
    def test_denormal_step_off_axis(self, cyl_spec, o_xy):
        # o_x^2 + o_y^2 underflows to 0, yet the azimuth planes cross at t ~ |o_xy| > 0
        rng = np.random.RandomState(53)
        n = 500
        o = np.column_stack([np.full(n, o_xy[0]), np.full(n, o_xy[1]), rng.uniform(-3, 4, n)])
        assert o[0, 0] ** 2 + o[0, 1] ** 2 == 0.0
        d = unit_rows(rng.normal(size=(n, 3)))
        assert assert_same_crossings(cyl_spec, o, d) == 477
        ts = _sorted_crossings(cyl_spec, o, d, _grid_max_distance(cyl_spec, o))
        assert np.any((ts[:, 1] > 0.0) & (ts[:, 1] < 1e-290))

    def test_vertical_and_tangent_rays(self, cyl_spec):
        rng = np.random.RandomState(54)
        n = 300
        o = np.stack([rng.uniform(-20, 20, n), rng.uniform(-20, 20, n), rng.uniform(-3, 4, n)], axis=1)
        vertical = np.tile([0.0, 0.0, 1.0], (n, 1))
        vertical[::2, 2] = -1.0
        assert_same_crossings(cyl_spec, o, vertical)
        assert assert_same_crossings(cyl_spec, o * [0.0, 0.0, 1.0], vertical) == 477  # a = 0: r roots all NaN
        # rays along +x at y = r_k graze shell k at t = -x
        y = cyl_spec.axis_value(np.arange(1, 60), 0)
        o = np.column_stack([np.full(len(y), -30.0), y, np.zeros(len(y))])
        assert_same_crossings(cyl_spec, o, np.tile([1.0, 0.0, 0.0], (len(y), 1)))

    def test_mixed_chunks(self, cyl_spec):
        # axis and off-axis origins, inward and outward rays, in one block
        rng = np.random.RandomState(55)
        n = 1000
        radial = rng.uniform(-math.pi, math.pi, n)
        r = np.where(rng.rand(n) < 0.5, 0.0, rng.uniform(1.0, 20.0, n))
        o = np.column_stack([r * np.cos(radial), r * np.sin(radial), rng.uniform(-2, 3, n)])
        sign = np.where(rng.rand(n) < 0.5, -1.0, 1.0)
        d = unit_rows(np.column_stack([sign * np.cos(radial), sign * np.sin(radial), rng.uniform(-0.4, 0.4, n)]))
        assert assert_same_crossings(cyl_spec, o, d) == 477
        outward = sign > 0
        assert assert_same_crossings(cyl_spec, o[outward], d[outward]) == 477

    @settings(max_examples=200, deadline=None)
    @given(case=crossing_cases())
    def test_drawn_rays(self, case):
        assert_same_crossings(*case)


@cache
def drawn_grid_pairs():
    """Each drawn grid with a second grid on its spec that keeps about half of
    its occupied voxels and adds its own, so drawn origins start occupied in
    one grid or in both."""
    rng = np.random.RandomState(22)
    pairs = {}
    for kind, grid in drawn_grids().items():
        data = grid.data.copy()
        data[rng.rand(*data.shape) < 0.5] = 0
        extra = random_label_grid(grid.spec, rng, 0.03).data
        pairs[kind] = (grid, VoxelGrid(grid.spec, "label", np.where(data != 0, data, extra)))
    return pairs


def assert_casts_match_oracle(rays, grids, expected=None):
    """_cast_grids into the grids together and cast_rays into each alone
    equal the all-intervals caster, which bins every midpoint with
    point_to_flat, bit for bit; expected holds the oracle's hits when the
    caller has them already. Returns the shared cast's hits."""
    shared = _cast_grids(rays, grids)
    assert len(shared) == len(grids)
    if expected is None:
        length = _grid_max_distance(grids[0].spec, rays.origins)
        expected = [cast_all_intervals(rays, grid, length) for grid in grids]
    for hits, grid, ref in zip(shared, grids, expected):
        assert_same_hits(hits, ref)
        assert_same_hits(cast_rays(rays, grid), ref)
    return shared


class TestSharedCast:
    """_cast_grids sorts each ray's crossings and bins its intervals once for
    every grid; each grid's hits must equal its own cast_rays call and the
    all-intervals caster bit for bit."""

    def test_default_fan_into_street_gt_and_predictions(self, street_gt, street_pred, street_fan_oracle):
        fan, grids = default_ray_fan(), [street_gt, street_pred, perturbed(street_gt, 9)]
        ninth = cast_all_intervals(fan, grids[2], _grid_max_distance(street_gt.spec, fan.origins))
        shared = assert_casts_match_oracle(fan, grids, [*street_fan_oracle, ninth])
        assert 0.3 < shared[0].hit.mean() < 0.9
        # the grids disagree, so each must be read on its own
        assert not np.array_equal(shared[0].voxel, shared[1].voxel)
        assert not np.array_equal(shared[1].voxel, shared[2].voxel)

    @pytest.mark.parametrize("coord", ["cylindrical", "cuboid"])
    def test_all_free_next_to_occupied(self, coord, cyl_spec):
        spec = cyl_spec if coord == "cylindrical" else default_cuboid_spec()
        rng = np.random.RandomState(41)
        occupied = random_label_grid(spec, rng, 0.03)
        n = 3000
        o = np.stack([rng.uniform(-15, 15, n), rng.uniform(-15, 15, n), rng.uniform(-2, 3, n)], axis=1)
        d = rng.normal(size=(n, 3))
        rays = Rays(o, d / np.linalg.norm(d, axis=1, keepdims=True))
        free_hits, occ_hits = assert_casts_match_oracle(rays, [zero_grid(spec, "label"), occupied])
        assert not free_hits.hit.any()
        assert occ_hits.hit.any() and not occ_hits.hit.all()

    def test_start_occupied_in_one_grid_or_both(self, cyl_spec, monkeypatch):
        a, b = zero_grid(cyl_spec, "label"), zero_grid(cyl_spec, "label")
        both, only_a, neither = [3.0, 1.0, 0.3], [-4.0, 2.0, 0.3], [0.0, -5.0, 0.3]
        for p in (both, only_a):
            a.data.reshape(-1)[cyl_spec.point_to_flat([p])] = 5
        b.data.reshape(-1)[cyl_spec.point_to_flat([both])] = 6
        b.data[:, :, 0] = 1  # the bottom z layer, hit by every downward ray
        a.data[:, :, 1] = 2
        rays = Rays(np.array([both, only_a, neither]), np.tile([0.0, 0.0, -1.0], (3, 1)))
        sorted_rows = []
        crossings = metrics._sorted_crossings

        def recording(spec, o, d, max_dist):
            sorted_rows.append(len(o))
            return crossings(spec, o, d, max_dist)

        monkeypatch.setattr(metrics, "_sorted_crossings", recording)
        ha, hb = assert_casts_match_oracle(rays, [a, b])
        # the ray starting occupied in both grids never has its crossings sorted
        assert sorted_rows[0] == 2
        np.testing.assert_array_equal(ha.distance[:2], [0.0, 0.0])
        np.testing.assert_array_equal(ha.label, [5, 5, 2])
        np.testing.assert_array_equal(hb.distance[0], 0.0)
        np.testing.assert_array_equal(hb.label, [6, 1, 1])
        assert hb.distance[1] > 0.0

    @settings(max_examples=100, deadline=None)
    @given(case=ray_cases())
    def test_drawn_rays(self, case):
        rays, grid = case
        kind = "cuboid" if grid.spec.coord_sys == CUBOID else "cylindrical"
        assert_casts_match_oracle(rays, list(drawn_grid_pairs()[kind]))

    def test_ray_iou_matches_separate_casts(self, street_gt, street_pred):
        pred, fan = street_pred, default_ray_fan()
        thresholds, bands = (1.0, 2.0, 4.0), [(0.0, 8.5), (8.5, 17.0), (17.0, 25.6)]
        gt_hits, pred_hits = cast_rays(fan, street_gt), cast_rays(fan, pred)
        names = default_label_set().names
        config = {"thresholds": list(thresholds), "num_rays": len(fan), "bands": [list(b) for b in bands]}
        expected = _report_from_hits(gt_hits, pred_hits, thresholds, names, np.ones(len(fan), dtype=bool), config)
        for lo, hi in bands:
            mask = gt_hits.hit & (gt_hits.distance >= lo) & (gt_hits.distance < hi)
            expected.bands[(lo, hi)] = _report_from_hits(
                gt_hits, pred_hits, thresholds, names, mask, {"band": [lo, hi]})
        doc = ray_iou(pred, street_gt, fan, thresholds, bands=bands).to_dict()
        assert set(doc["bands"]) == {"0.0:8.5", "8.5:17.0", "17.0:25.6"}
        assert doc == expected.to_dict()

    def test_input_checks(self, cyl_spec):
        rays = generate_rays(4, 1, (-0.1, 0.1))
        label = zero_grid(cyl_spec, "label")
        with pytest.raises(ShapeError):
            _cast_grids(rays, [label, zero_grid(default_cuboid_spec(), "label")])
        with pytest.raises(DomainError):
            _cast_grids(rays, [label, zero_grid(cyl_spec, "occupancy")])
        assert _cast_grids(rays, []) == []


def azimuth_labelled_pair(spec, seed, density=0.02):
    """Two label grids on spec whose labels name each cell's azimuth bin mod
    11, so a midpoint binned one azimuth bin off reads another label; the
    second keeps about half the cells of the first and adds its own."""
    rng = np.random.RandomState(seed)
    names = 1 + np.arange(spec.dims[1])[None, :, None] % 11
    a = np.where(rng.rand(*spec.dims) < density, names, 0).astype(np.uint8)
    b = np.where(rng.rand(*spec.dims) < 0.5, a, np.where(rng.rand(*spec.dims) < density, names, 0))
    return [VoxelGrid(spec, "label", a), VoxelGrid(spec, "label", b.astype(np.uint8))]


def nudged(values, ulps):
    """Each value moved by each count of ulps in ulps (negative: downward)."""
    out = []
    for v in np.asarray(values, dtype=np.float64):
        for k in ulps:
            x = v
            for _ in range(abs(k)):
                x = np.nextafter(x, math.copysign(math.inf, k))
            out.append(x)
    return np.array(out)


def axis_rays(azimuth, elevation, z=(0.3,)):
    """Rays from the z axis at heights z, cycling the four signed-zero
    origins, along every (azimuth, elevation) pair."""
    aa, ee = (g.reshape(-1) for g in np.meshgrid(azimuth, elevation, indexing="ij"))
    d = unit_rows(np.column_stack([np.cos(ee) * np.cos(aa), np.cos(ee) * np.sin(aa), np.sin(ee)]))
    signs = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
    o = np.column_stack([signs[np.arange(len(d)) % 4], np.resize(np.asarray(z, dtype=np.float64), len(d))])
    return Rays(o, d)


def rays_with_run_ends_at(spec, r, rng, z=None):
    """Rays from the z axis at heights z (drawn inside the z range by default)
    whose crossing with a drawn z plane lies at radius r, one per radius."""
    edges = spec.axis_value(np.arange(spec.dims[2] + 1), 2)
    z = rng.uniform(*spec.ranges[2], len(r)) if z is None else np.resize(np.asarray(z, dtype=np.float64), len(r))
    plane = edges[rng.randint(0, len(edges), len(r))]
    plane = np.where(plane == z, edges[-1] + edges[0] - plane, plane)
    az = rng.uniform(-math.pi, math.pi, len(r))
    d = unit_rows(np.column_stack([r * np.cos(az), r * np.sin(az), plane - z]))
    return Rays(np.column_stack([np.zeros(len(r)), np.zeros(len(r)), z]), d)


@cache
def axis_grid_pairs():
    """Azimuth-labelled grid pairs on the default lattice, on it as decoded
    (f32 ranges) and on a 7-bin azimuth lattice, for the drawn chunks."""
    small = GridSpec("cylindrical", (32, 7, 8), ((0.0, 16.0), (-math.pi, math.pi), (-2.0, 2.0)))
    specs = [default_cylindrical_spec(), decoded_spec(default_cylindrical_spec()), small]
    return [azimuth_labelled_pair(spec, 60 + i) for i, spec in enumerate(specs)]


@st.composite
def axis_ray_chunks(draw):
    """A grid pair plus one chunk mixing origins on the z axis (either zero
    sign) and off it, with directions on or an ulp or two off an azimuth bin
    edge, at the atan2 seam, vertical, with a zero or subnormal xy component,
    or anywhere."""
    grids = draw(st.sampled_from(axis_grid_pairs()))
    spec = grids[0].spec
    n = draw(st.integers(1, 24))
    o, d = np.empty((n, 3)), np.empty((n, 3))
    tiny = st.sampled_from([0.0, -0.0, 1e-310, -1e-310])
    for i in range(n):
        z = draw(st.floats(-3.5, 4.0))
        if draw(st.booleans()):
            o[i] = [draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0])), z]
        else:
            angle, radius = draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.5, 30.0))
            o[i] = [radius * math.cos(angle), radius * math.sin(angle), z]
        dz = draw(st.floats(-0.9, 0.9))
        form = draw(st.sampled_from(["edge", "seam", "vertical", "tiny", "any"]))
        if form == "edge":
            k = draw(st.integers(0, spec.dims[1]))
            edge = draw(st.sampled_from([spec.axis_value(k, 1), -math.pi + k * (2.0 * math.pi / spec.dims[1])]))
            angle = nudged([edge], [draw(st.integers(-2, 2))])[0]
            d[i] = [math.cos(angle), math.sin(angle), dz]
        elif form == "seam":
            d[i] = [-1.0, draw(tiny), dz]
        elif form == "vertical":
            d[i] = [draw(tiny), draw(tiny), draw(st.sampled_from([-1.0, 1.0]))]
        elif form == "tiny":
            xy = [draw(tiny), draw(st.sampled_from([-1.0, 1.0]))]
            d[i] = [*(xy if draw(st.booleans()) else xy[::-1]), dz]
        else:
            angle = draw(st.floats(-math.pi, math.pi))
            d[i] = [math.cos(angle), math.sin(angle), dz]
    return Rays(o, unit_rows(d)), grids


def sector_layer_grid(spec, sectors, layers, seed, density=0.4, r_bins=None):
    """A label grid occupied only in the given azimuth bins and z layers (at
    the given r bins, or at random r), each cell labelled by its azimuth bin."""
    rng = np.random.RandomState(seed)
    mask = np.zeros(spec.dims, dtype=bool)
    rows = slice(None) if r_bins is None else r_bins
    mask[np.ix_(np.arange(spec.dims[0])[rows], list(sectors), list(layers))] = True
    if r_bins is None:
        mask &= rng.rand(*spec.dims) < density
    names = 1 + np.arange(spec.dims[1])[None, :, None] % 11
    return VoxelGrid(spec, "label", np.where(mask, names, 0).astype(np.uint8))


def azimuth_bins(spec, d):
    """Each direction's azimuth bin, as point_to_flat bins atan2(d_y, d_x)."""
    return np.floor(spec.axis_fraction(np.arctan2(d[:, 1], d[:, 0]), 1) + _EDGE_GUARD).astype(np.int64) % spec.dims[1]


def recording_crossings(monkeypatch):
    """Patch metrics._sorted_crossings to record the directions of every ray it sees."""
    seen = []
    crossings = metrics._sorted_crossings

    def recording(spec, o, d, max_dist):
        seen.append(d.copy())
        return crossings(spec, o, d, max_dist)

    monkeypatch.setattr(metrics, "_sorted_crossings", recording)
    return seen


@st.composite
def sector_cases(draw):
    """Two grids occupied only in drawn azimuth bins and layers, and one chunk
    of rays from the z axis (either zero sign, o_z inside or outside the z
    range) aimed into a drawn bin or the next, or within ulps of one of
    their edges, or vertical, with a subnormal or zero xy or z component, or
    anywhere."""
    spec = draw(st.sampled_from(axis_specs()))
    d1, d2 = spec.dims[1], spec.dims[2]
    drawn = [draw(st.lists(st.integers(0, d1 - 1), max_size=3)) for _ in range(2)]
    grids = [sector_layer_grid(spec, bins, draw(st.lists(st.integers(0, d2 - 1), max_size=3)),
                               draw(st.integers(0, 2**16))) for bins in drawn]
    targets = st.sampled_from(sorted(set(drawn[0] + drawn[1])) or [0])
    n = draw(st.integers(1, 24))
    o, d = np.empty((n, 3)), np.empty((n, 3))
    tiny = st.sampled_from([0.0, -0.0, 1e-310, -5e-324])
    for i in range(n):
        o[i] = [draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0])), draw(st.floats(-6.0, 7.0))]
        dz = draw(st.one_of(st.floats(-0.9, 0.9), tiny))
        form = draw(st.sampled_from(["into", "edge", "vertical", "tiny", "any"]))
        sector = draw(targets) + draw(st.integers(0, 1))  # a drawn bin, or the one after it
        if form == "into":
            angle = spec.axis_value(sector + draw(st.floats(0.0, 1.0)), 1)
        elif form == "edge":
            edge = draw(st.sampled_from([spec.axis_value(sector, 1), -math.pi + sector * (2.0 * math.pi / d1)]))
            angle = nudged([edge], [draw(st.integers(-3, 3))])[0]
        else:
            angle = draw(st.floats(-math.pi, math.pi))
        if form == "vertical":
            d[i] = [draw(tiny), draw(tiny), draw(st.sampled_from([-1.0, 1.0]))]
        elif form == "tiny":
            d[i] = [draw(tiny), draw(st.sampled_from([-1.0, 1.0])), dz][:: draw(st.sampled_from([1, -1]))]
        else:
            d[i] = [math.cos(angle), math.sin(angle), dz]
    return Rays(o, unit_rows(d)), grids


@cache
def run_specs():
    """The axis specs (default and r_min > 0 lattices, exact and decoded), a
    single-layer lattice and one whose z plane 2 sits at exactly 0."""
    return [*axis_specs(), GridSpec("cylindrical", (16, 8, 1), ((0.0, 8.0), (-math.pi, math.pi), (-1.0, 1.0))),
            GridSpec("cylindrical", (16, 8, 4), ((0.0, 8.0), (-math.pi, math.pi), (-2.0, 2.0)))]


def column_grid(spec, seed, full=0.3):
    """A label grid whose every (azimuth bin, layer) column is full at every r or empty."""
    rng = np.random.RandomState(seed)
    cols = np.where(rng.rand(spec.dims[1], spec.dims[2]) < full, rng.randint(1, 12, spec.dims[1:]), 0)
    return VoxelGrid(spec, "label", np.broadcast_to(cols, spec.dims).astype(np.uint8))


def run_margin(spec):
    """The r margin w0 of the layer-run path, in meters."""
    return (metrics._RUN_MARGIN + metrics._MARGIN * spec.ranges[0][1] / spec.deltas[0]) * spec.deltas[0]


@st.composite
def run_cases(draw):
    """A grid pair and one chunk of rays from the z axis (either zero sign) at
    heights on a z plane, a few ulps or within the z guard's reach of one, at
    0 or anywhere, whose crossing with a drawn z plane lies a few ulps or
    about one margin w0 from a drawn r edge (through a cell corner at 0 ulps),
    with the azimuth also on a bin edge or not; or horizontal, nearly
    horizontal, steep, or anywhere."""
    spec = draw(st.sampled_from(run_specs()))
    kind = draw(st.sampled_from(["sectors", "columns", "labelled", "empty"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "sectors":
        sectors = st.lists(st.integers(0, spec.dims[1] - 1), max_size=4)
        layers = st.lists(st.integers(0, spec.dims[2] - 1), max_size=3)
        grids = [sector_layer_grid(spec, draw(sectors), draw(layers), seed + i) for i in range(2)]
    elif kind == "columns":
        grids = [column_grid(spec, seed, 0.3), column_grid(spec, seed + 1, 1.0)]
    elif kind == "labelled":
        grids = azimuth_labelled_pair(spec, seed, draw(st.sampled_from([0.01, 0.1, 0.5])))
    else:
        grids = [zero_grid(spec, "label"), column_grid(spec, seed, 0.05)]
    planes = spec.axis_value(np.arange(spec.dims[2] + 1), 2)
    edges = spec.axis_value(np.arange(spec.dims[0] + 1), 0)
    n = draw(st.integers(1, 16))
    o, d = np.zeros((n, 3)), np.empty((n, 3))
    for i in range(n):
        o[i, :2] = [draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0]))]
        height = draw(st.sampled_from(["plane", "ulps", "guard", "zero", "any"]))
        z = draw(st.sampled_from(list(planes)))
        if height == "ulps":
            z = nudged([z], [draw(st.integers(-3, 3))])[0]
        elif height == "guard":
            z -= draw(st.floats(1e-12, 2e-9)) * spec.deltas[2]
        elif height == "zero":
            z = draw(st.sampled_from([0.0, -0.0]))
        elif height == "any":
            z = draw(st.floats(spec.ranges[2][0] - 1.0, spec.ranges[2][1] + 1.0))
        o[i, 2] = z
        az = draw(st.floats(-math.pi, math.pi))
        if draw(st.booleans()):
            az = nudged([spec.axis_value(draw(st.integers(0, spec.dims[1])), 1)], [draw(st.integers(-2, 2))])[0]
        form = draw(st.sampled_from(["edge", "margin", "flat", "steep", "any"]))
        if form in ("edge", "margin"):
            r = draw(st.sampled_from(list(edges)))
            if form == "edge":
                r = nudged([r], [draw(st.integers(-4, 4))])[0]
            else:
                r += draw(st.sampled_from([-0.5, -0.99, -1.01, -3.0, 0.5, 0.99, 1.01, 1.5, 3.0])) * run_margin(spec)
            plane = draw(st.sampled_from([p for p in planes if p != z] or [z + 1.0]))
            h, dz = max(r, 1e-3), plane - z
        elif form == "flat":
            h, dz = 1.0, draw(st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e-9, -1e-6, 1e-3]))
        elif form == "steep":
            h, dz = draw(st.sampled_from([1e-16, 1e-9, 3e-7, 1e-6, 1e-5])), draw(st.sampled_from([-1.0, 1.0]))
        else:
            h, dz = 1.0, draw(st.floats(-3.0, 3.0))
        d[i] = [h * math.cos(az), h * math.sin(az), dz]
    return Rays(o, unit_rows(d)), grids


class TestLayerRuns:
    """The layer-run path of _cast_grids: a ray from the z axis takes its
    first hit from one next-occupied-bin lookup per layer run. A ray whose
    run ends lie within the margin w0 of an r edge, whose runs may end
    within the z guard's reach of a plane, or whose direction or azimuth
    leaves the lookup unsure (within w1 of an azimuth edge, a neighbour
    bin may be read) takes the sorted path. Either way every grid's hits
    equal the all-intervals caster's bit for bit.

    The rays: azimuths on or an ulp or two off every bin edge; zero or
    subnormal direction components; origins a hair from, on or far off a z
    plane, outside the z range or far out on the axis; midpoints and run
    ends on r shells and through cell corners; drawn chunks mixing such
    rays with off-axis ones. The lattices include r_min > 0, one-layer and
    f32-decoded ones. The grids: labelled by azimuth bin, where a
    cell read one bin off reads another label; occupied only in some
    azimuth bins and layers, where a ray into a free bin or over free
    layers finds no occupied cell in any of its runs; and with columns all
    full or all empty. The fans the benchmark casts never sort."""

    @pytest.mark.parametrize("decoded", [False, True], ids=["exact", "decoded"])
    @pytest.mark.parametrize("d1", [1, 2, 3, 7, 200])
    def test_azimuth_on_every_bin_edge(self, d1, decoded):
        spec = GridSpec("cylindrical", (16, d1, 4), ((0.0, 8.0), (-math.pi, math.pi), (-2.0, 2.0)))
        spec = decoded_spec(spec) if decoded else spec
        k = np.arange(d1 + 1)
        # the edges as exact multiples of 2 pi / D1, as the spec places them, and
        # less the edge guard, where point_to_flat's floor turns over
        edges = np.concatenate([-math.pi + k * (2.0 * math.pi / d1), spec.axis_value(k, 1),
                                spec.axis_value(k - _EDGE_GUARD, 1)])
        rays = axis_rays(nudged(edges, range(-3, 4)), [-0.3, 0.0, 0.1], z=(0.3, -1.1))
        assert_casts_match_oracle(rays, azimuth_labelled_pair(spec, d1, 0.05))

    def test_zero_and_subnormal_direction_components(self):
        spec = default_cylindrical_spec()
        values = [1.0, -1.0, 0.6, 0.0, -0.0, 1e-310, -1e-310, 5e-324, -3e-323]
        d = np.array([v for v in product(values, repeat=3) if np.linalg.norm(v) > 0.5])
        z = np.resize([0.3, 0.0, -1.3, 2.0], len(d))
        for x, y in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
            o = np.column_stack([np.full(len(d), x), np.full(len(d), y), z])
            rays = Rays(o, unit_rows(d))
            for s in (spec, decoded_spec(spec)):
                assert_casts_match_oracle(rays, azimuth_labelled_pair(s, 71))

    def test_vertical_rays(self, cyl_spec):
        # r = 0 bins by the signs of zero x and y, atan2(+-0, +-0), and a
        # subnormal d_xy by what is left of m d_x and m d_y
        pair = azimuth_labelled_pair(cyl_spec, 72)
        for g in pair:
            g.data[0, :, ::3] = 1 + np.arange(cyl_spec.dims[1])[:, None] % 11
        xs, ys = [0.0, -0.0, 1e-310, 3e-323], [0.0, -0.0, -1e-310, 5e-324]
        d = np.array([[x, y, s] for x in xs for y in ys for s in (-1.0, 1.0)])
        o = np.array([[x, y, z] for x in (0.0, -0.0) for y in (0.0, -0.0) for z in (-2.5, 0.3, 3.3)])
        rays = Rays(np.repeat(o, len(d), axis=0), np.tile(d, (len(o), 1)))
        assert_casts_match_oracle(rays, pair)

    @pytest.mark.parametrize("z0", [-1e-300, -3e-300, -5e-324, -1e-323, 1e-300])
    def test_first_crossing_near_zero(self, z0):
        # a z plane at exactly 0 and an origin a hair from it: the first interval
        # is about 1e-300 long, and its midpoint's m |d_xy| underflows
        spec = GridSpec("cylindrical", (16, 8, 4), ((0.0, 8.0), (-math.pi, math.pi), (-2.0, 2.0)))
        assert spec.axis_value(2, 2) == 0.0
        rng = np.random.RandomState(73)
        n = 400
        up = math.copysign(1.0, -z0)
        d = unit_rows(np.column_stack([rng.normal(size=n), rng.normal(size=n), up * rng.uniform(0.01, 2.0, n)]))
        o = np.column_stack([np.zeros(n), np.zeros(n), np.full(n, z0)])
        ts = _sorted_crossings(spec, o, d, _grid_max_distance(spec, o))
        assert np.all(ts[:, 1] < 1e-290)
        assert_casts_match_oracle(Rays(o, d), azimuth_labelled_pair(spec, 73, 0.05))

    @pytest.mark.parametrize("z0", [1e150, -1e150])
    def test_far_origin_on_the_axis(self, cyl_spec, z0):
        rng = np.random.RandomState(74)
        n = 300
        d = unit_rows(rng.normal(size=(n, 3)))
        d[:20] = [0.0, 0.0, -math.copysign(1.0, z0)]
        d[20:40, 2] = 0.0
        d = unit_rows(d)
        o = np.column_stack([np.zeros(n), np.zeros(n), np.full(n, z0)])
        assert_casts_match_oracle(Rays(o, d), azimuth_labelled_pair(cyl_spec, 74))

    def test_midpoints_on_r_shells(self):
        # On a lattice a micron across the tangent guard drops every shell
        # crossing, so the midpoint of the interval between the z planes at -1
        # and 0 lies at r = |d_xy| / d_z: put it on each shell, and on each
        # shell less the edge guard, to a few ulps either side.
        spec = GridSpec("cylindrical", (4, 8, 2), ((0.0, 1e-6), (-math.pi, math.pi), (-1.0, 1.0)))
        target = np.concatenate([spec.axis_value(np.arange(1, 5), 0),
                                 spec.axis_value(np.arange(1, 5) - _EDGE_GUARD, 0)])
        slope = nudged(target, range(-6, 7))  # |d_xy| / d_z
        azimuth = np.array([0.3, 2.0, -1.1])
        h, az = np.repeat(slope, len(azimuth)), np.tile(azimuth, len(slope))
        d = unit_rows(np.column_stack([h * np.cos(az), h * np.sin(az), np.ones_like(h)]))
        o = np.tile([0.0, 0.0, -1.5], (len(d), 1))
        g = zero_grid(spec, "label")
        g.data[:, :, 0] = 1 + np.arange(4)[:, None]  # the label names the r bin
        length = _grid_max_distance(spec, o)
        ts = _sorted_crossings(spec, o, d, length)
        assert np.all(np.argmax(ts == length, axis=1) == 4), "only the three z planes cross"
        hits = cast_rays(Rays(o, d), g)
        assert set(np.unique(hits.label)) >= {1, 2, 3, 4}
        assert_casts_match_oracle(Rays(o, d), [g, VoxelGrid(spec, "label", g.data[::-1].copy())])

    @pytest.mark.parametrize("r_range", [(0.0, 25.6), (5.0, 25.6), (25.0, 25.6)])
    def test_run_ends_at_r_edges(self, r_range):
        # run ends (z-plane crossings) on every r edge and on every edge less the guard, a few
        # ulps either side, and one margin w0 either side of each
        base = GridSpec("cylindrical", (64, 200, 16), (r_range, (-math.pi, math.pi), (-2.8, 3.6)))
        for spec in (base, decoded_spec(base)):
            rng = np.random.RandomState(75)
            edges = spec.axis_value(np.arange(spec.dims[0] + 1), 0)
            r = nudged(np.concatenate([edges, edges - _EDGE_GUARD * spec.deltas[0]]), range(-4, 5))
            r = np.concatenate([r, edges - 1.01 * run_margin(spec), edges + 1.01 * run_margin(spec)])
            assert_casts_match_oracle(rays_with_run_ends_at(spec, r[r > 0.0], rng), azimuth_labelled_pair(spec, 75))

    @settings(max_examples=150, deadline=None)
    @given(case=axis_ray_chunks())
    def test_drawn_chunks(self, case):
        assert_casts_match_oracle(*case)

    @settings(max_examples=200, deadline=None)
    @given(case=sector_cases())
    def test_drawn_sectors_and_layers(self, case):
        rays, grids = case
        assert_casts_match_oracle(rays, grids)

    @pytest.mark.parametrize("h", [1e-1, 1e-3, 1e-6])
    def test_layer_edge_at_r_max(self, h):
        # z at r = r_max on a layer edge, or on the edge less the guard where
        # the floor turns over, to a few ulps of the origin height either side;
        # the layer past it is occupied only in the outermost r bin
        spec = default_cylindrical_spec()
        r_max, d0 = spec.ranges[0][1], spec.dims[0]
        azimuth = -math.pi + (np.arange(64) + 0.5) * (2.0 * math.pi / 64)
        hits = []
        for up, k in ((1.0, 3), (-1.0, 12)):
            dz = up * math.sqrt(1.0 - h * h)
            oz = nudged(spec.axis_value(np.array([k, k - _EDGE_GUARD]), 2) - (r_max / h) * dz, range(-40, 41))
            o = np.column_stack([np.zeros(len(oz)), np.zeros(len(oz)), oz]).repeat(len(azimuth), axis=0)
            az = np.tile(azimuth, len(oz))
            rays = Rays(o, np.column_stack([h * np.cos(az), h * np.sin(az), np.full(len(az), dz)]))
            layer = k if up > 0 else k - 1
            grids = [sector_layer_grid(spec, range(spec.dims[1]), [layer], 0, r_bins=[d0 - 1]),
                     zero_grid(spec, "label")]
            assert_casts_match_oracle(rays, grids)
            hits.append(cast_rays(rays, grids[0]).hit)
        assert np.concatenate(hits).any() and not np.concatenate(hits).all()

    @pytest.mark.parametrize("decoded", [False, True], ids=["exact", "decoded"])
    def test_rays_at_an_azimuth_edge(self, decoded, monkeypatch):
        # every other azimuth bin occupied: a ray within w1 of an edge may read
        # the occupied neighbour of its free bin, so it takes the sorted path
        spec = decoded_spec(default_cylindrical_spec()) if decoded else default_cylindrical_spec()
        d1 = spec.dims[1]
        grids = [sector_layer_grid(spec, range(0, d1, 2), range(spec.dims[2]), 80),
                 sector_layer_grid(spec, range(1, d1, 2), range(spec.dims[2]), 81)]
        k = np.arange(d1 + 1)
        edges = np.concatenate([-math.pi + k * (2.0 * math.pi / d1), spec.axis_value(k, 1),
                                spec.axis_value(k - _EDGE_GUARD, 1)])
        rays = axis_rays(nudged(edges, range(-3, 4)), [-0.3, 0.0, 0.1], z=(0.3, -1.1))
        assert_casts_match_oracle(rays, grids)
        # every ray within w1 of one of the spec's own inner edges takes the sorted path
        inner = k[1:-1]
        own = axis_rays(nudged(np.concatenate([spec.axis_value(inner, 1), spec.axis_value(inner - _EDGE_GUARD, 1)]),
                               range(-3, 4)), [-0.3, 0.0, 0.1])
        seen = recording_crossings(monkeypatch)
        _cast_grids(own, grids)
        np.testing.assert_array_equal(np.concatenate(seen), own.directions)

    def test_subnormal_vertical_and_horizontal_rays(self, cyl_spec):
        # a midpoint with m |d_xy| < 1e-100 bins by what is left of m d_x and m d_y,
        # which may round into another azimuth bin: every bin but the ray's own is
        # occupied at r = 0, so only the |d_xy| bound of the layer runs keeps the hits
        d = unit_rows([[3 * 5e-324, 5e-324, 1.0], [-5e-324, 3 * 5e-324, -1.0], [1e-310, 3e-311, 1.0],
                       [1e-90, 2e-90, -1.0], [1e-80, -3e-80, 1.0], [0.0, 0.0, 1.0], [-0.0, 0.0, -1.0]])
        own = azimuth_bins(cyl_spec, d)
        others = np.setdiff1d(np.arange(cyl_spec.dims[1]), own)
        grids = [sector_layer_grid(cyl_spec, others, range(cyl_spec.dims[2]), 82, r_bins=[0]),
                 sector_layer_grid(cyl_spec, others, range(cyl_spec.dims[2]), 83)]
        z = np.array([-2.5, -0.0, 0.3, 3.3, 5.0])
        rays = Rays(np.column_stack([np.zeros(len(z) * len(d)), np.zeros(len(z) * len(d)), np.repeat(z, len(d))]),
                    np.tile(d, (len(z), 1)))
        assert_casts_match_oracle(rays, grids)
        assert cast_rays(rays, grids[0]).hit.any()
        # horizontal rays stay in the layer of o_z, on a layer edge or an ulp either side
        heights = nudged(cyl_spec.axis_value(np.arange(cyl_spec.dims[2] + 1), 2), range(-2, 3))
        rays = axis_rays(np.linspace(-3.0, 3.0, 9), [0.0], z=heights)
        layers = [sector_layer_grid(cyl_spec, range(cyl_spec.dims[1]), [5, 11], 84),
                  sector_layer_grid(cyl_spec, range(40, 120), range(cyl_spec.dims[2]), 85)]
        assert_casts_match_oracle(rays, layers)

    @pytest.mark.parametrize("spec", axis_specs(), ids=["default", "default-decoded", "r_min", "r_min-decoded"])
    def test_origins_outside_the_z_range(self, spec):
        (_, r_max), _, (z_lo, z_hi) = spec.ranges
        heights = [z_lo - 30.0, z_lo - 1e-9, z_lo, z_hi, z_hi + 1e-9, z_hi + 30.0, 1e6, -1e6]
        rays = axis_rays(np.linspace(-math.pi, math.pi, 23)[:-1], np.linspace(-1.5, 1.5, 13), z=heights)
        grids = [sector_layer_grid(spec, [1, 3], [0, spec.dims[2] - 1], 86),
                 sector_layer_grid(spec, [2, 4], [1], 87)]
        assert_casts_match_oracle(rays, grids)

    def test_thin_layers_and_steep_rays(self, monkeypatch):
        # layers 2.5e-226 thick put z fractions off the range near 1e226, and
        # rays with |d_xy| near 4e-88 reach r_max only 1e88 m out, far past max_dist
        spec = GridSpec("cylindrical", (8, 8, 4), ((0.0, 4.0), (-math.pi, math.pi), (0.0, 1e-225)))
        h = np.array([4e-88, 1e-87, 1e-80, 1e-3, 0.5])
        az = np.repeat(np.linspace(-3.0, 3.0, 7), len(h))
        h = np.tile(h, 7)
        d = np.column_stack([h * np.cos(az), h * np.sin(az), np.sqrt(1.0 - h * h)])
        o = np.column_stack([np.zeros(len(d)), np.zeros(len(d)), np.resize([-1.0, 0.0, 5e-226], len(d))])
        rays = Rays(np.concatenate([o, o * [1.0, 1.0, -1.0]]), np.concatenate([d, -d]))
        grids = [sector_layer_grid(spec, range(0, 8, 2), range(4), 90, r_bins=[0, 1]),
                 sector_layer_grid(spec, [3], [1, 2], 91, r_bins=[0])]
        seen = recording_crossings(monkeypatch)
        assert_casts_match_oracle(rays, grids)
        # the steep rays fail the tangent guard and sort their crossings; some others take layer runs
        steep = np.hypot(rays.directions[:, 0], rays.directions[:, 1]) < 1e-6
        assert set(map(tuple, rays.directions[steep])) <= set(map(tuple, seen[0])) and len(seen[0]) < len(rays)

    def test_hits_in_one_grid_only(self, cyl_spec, monkeypatch):
        # bins 0-49 occupied in the first grid only, 100-199 in the second: a ray into
        # one of them misses in the other grid and hits in its own
        grids = [sector_layer_grid(cyl_spec, range(50), range(cyl_spec.dims[2]), 88),
                 sector_layer_grid(cyl_spec, range(100, 200), range(cyl_spec.dims[2]), 89)]
        for g in grids:
            g.data[0] = 0  # no ray starts occupied
        rays = axis_rays(np.linspace(-math.pi, math.pi, 400)[:-1], np.linspace(-0.3, 0.2, 5))
        seen = recording_crossings(monkeypatch)
        a, b = (hits.hit for hits in assert_casts_match_oracle(rays, grids))
        assert (a & ~b).any() and (b & ~a).any()
        # the shared cast, which comes first, sorts only the crossings of the rays at the -pi seam
        seam = np.arctan2(rays.directions[:, 1], rays.directions[:, 0]) == -math.pi
        np.testing.assert_array_equal(seen[0], rays.directions[seam])

    @settings(max_examples=300, deadline=None)
    @given(case=run_cases())
    def test_drawn_run_ends(self, case):
        assert_casts_match_oracle(*case)

    @pytest.mark.parametrize("spec", run_specs(), ids=["default", "default-decoded", "r_min", "r_min-decoded",
                                                       "one-layer", "plane-at-zero"])
    def test_origins_on_z_planes(self, spec):
        # z = 0 lies 4.4e-16 m below plane 7 of the default lattice, which the z guard puts in layer 7
        planes = spec.axis_value(np.arange(spec.dims[2] + 1), 2)
        heights = np.concatenate([[0.0, -0.0], nudged(planes, range(-2, 3))])
        rays = axis_rays(np.linspace(-3.1, 3.1, 17), np.linspace(-1.2, 1.2, 25), z=heights)
        grids = [column_grid(spec, 92, 0.4), azimuth_labelled_pair(spec, 93, 0.1)[0]]
        assert_casts_match_oracle(rays, grids)
        assert cast_rays(rays, grids[0]).hit.any()

    def test_cell_corners(self, cyl_spec):
        # from near a z plane, or from z = 0, through the corner of every r edge with a plane above or below
        edges = cyl_spec.axis_value(np.arange(1, cyl_spec.dims[0] + 1), 0)
        az = np.random.RandomState(94).uniform(-math.pi, math.pi, len(edges))
        grids = [column_grid(cyl_spec, 95, 0.5), azimuth_labelled_pair(cyl_spec, 95, 0.1)[0]]
        for z0, z1 in ((0.4, 0.8), (0.4, 0.0), (0.0, -2.8), (-2.8, 3.6)):
            d = unit_rows(np.column_stack([edges * np.cos(az), edges * np.sin(az), np.full(len(edges), z1 - z0)]))
            assert_casts_match_oracle(Rays(np.column_stack([np.zeros((len(d), 2)), np.full(len(d), z0)]), d), grids)

    def test_next_occupied_table(self):
        spec = GridSpec("cylindrical", (9, 5, 3), ((0.0, 9.0), (-math.pi, math.pi), (0.0, 3.0)))
        for grid in (random_label_grid(spec, np.random.RandomState(96), 0.2), column_grid(spec, 97, 0.5),
                     zero_grid(spec, "label")):
            nxt = metrics._next_occupied(grid.data).reshape(spec.dims[0] + 1, spec.dims[1], spec.dims[2])
            for i, s, k in product(range(spec.dims[0] + 1), range(spec.dims[1]), range(spec.dims[2])):
                occupied = np.flatnonzero(grid.data[i:, s, k]) + i
                assert nxt[i, s, k] == (occupied[0] if occupied.size else spec.dims[0])

    def test_default_fan_takes_layer_runs(self, street_gt, street_pred, street_fan_oracle, monkeypatch):
        # no ray of the two fans the benchmark casts sorts its crossings: the library default fan and
        # the `cylocc eval` default, into grids as built and as decoded from OVOX (f32 ranges); and no
        # default-fan ray bins a midpoint: point_to_flat sees only the chunk origins, binned for the start cells
        fan, grids = default_ray_fan(), [street_gt, street_pred]
        seen = recording_crossings(monkeypatch)
        rows = []
        binner = GridSpec.point_to_flat

        def counting(spec, p):
            rows.append(len(p))
            return binner(spec, p)

        monkeypatch.setattr(GridSpec, "point_to_flat", counting)
        for hits, ref in zip(_cast_grids(fan, grids), street_fan_oracle):
            assert_same_hits(hits, ref)
        assert rows == [_CHUNK] * (len(fan) // _CHUNK)
        decoded = [decode_voxel_grid(encode_voxel_grid(g)) for g in grids]
        _cast_grids(fan, decoded)
        eval_fan = generate_rays(512, 32, cli._angle_range("-20:8.6deg"))
        _cast_grids(eval_fan, grids)
        _cast_grids(eval_fan, decoded)
        assert sum(len(x) for x in seen) == 0


class TestCasterExactness:
    """Cross-checks against fixed-step marchers.

    The 1 mm marcher is a much stronger oracle than the standard 0.01 m one
    and is used here on arbitrary (off-axis, steep) rays; residual
    disagreements must all be cells whose chord is below the 1 mm step.
    """

    def chord_in_voxel(self, spec, grid, o, d, voxel, t_hit, step=1e-5):
        ts = t_hit + np.arange(0.0, 4e-3, step)
        pts = o[None, :] + ts[:, None] * d[None, :]
        inside = spec.point_to_flat(pts) == voxel
        return inside.sum() * step

    @pytest.mark.parametrize("coord", ["cylindrical", "cuboid"])
    def test_fine_marcher_agreement(self, coord, cyl_spec):
        spec = cyl_spec if coord == "cylindrical" else GridSpec(
            CUBOID, (64, 64, 16), ((-25.6, 25.6), (-25.6, 25.6), (-2.8, 3.6))
        )
        rng = np.random.RandomState(11)
        g = random_label_grid(spec, rng, 0.03, free_inner_r_bins=5 if coord == "cylindrical" else 0)
        n = 800
        o = np.stack(
            [rng.uniform(-15, 15, n), rng.uniform(-15, 15, n), rng.uniform(-2, 3, n)], axis=1
        )
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        rays = Rays(o, d)
        rays, a = within_range(rays, cast_rays(rays, g), 25.0)
        o, d = rays.origins, rays.directions
        b = march_fixed_step(rays, g, 25.0, step=0.001)
        agree = a.voxel == b.voxel
        for i in np.nonzero(~agree)[0]:
            # every disagreement must be a sub-step chord skipped by the marcher
            assert a.hit[i]
            chord = self.chord_in_voxel(spec, g, o[i], d[i], a.voxel[i], a.distance[i])
            assert chord < 0.002, f"ray {i} disagreed with chord {chord}"
        assert agree.mean() > 0.995
        both = agree & a.hit
        np.testing.assert_array_equal(a.label[both], b.label[both])
        assert np.max(np.abs(a.distance[both] - b.distance[both]), initial=0.0) <= 0.001 + 1e-9

    @pytest.mark.parametrize("coord", ["cylindrical", "cuboid"])
    def test_cell_sequence_matches_marcher_modulo_thin_cells(self, coord, cyl_spec):
        """The marcher's deduplicated cell sequence must be an in-order
        subsequence of the parametric traversal, and every parametric cell
        the marcher misses must be thinner than the step."""
        step = 0.01
        spec = cyl_spec if coord == "cylindrical" else GridSpec(
            CUBOID, (32, 32, 16), ((-25.6, 25.6), (-25.6, 25.6), (-2.8, 3.6))
        )
        rng = np.random.RandomState(77)
        for _ in range(60):
            o = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-2, 3)])
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            cells, entries, exits = traverse_cells(o, d, spec, 20.0)
            # marcher sequence: classify every sample, deduplicate runs
            t = np.arange(0.0, 20.0, step)
            flat = spec.point_to_flat(o[None] + t[:, None] * d[None])
            seq = [int(v) for v in flat if v >= 0]
            march = [seq[0]] if seq else []
            for c in seq[1:]:
                if c != march[-1]:
                    march.append(c)
            par = [int(v) for v in cells]
            chord = exits - entries
            j = 0
            for cell in march:
                while j < len(par) and par[j] != cell:
                    assert chord[j] < step + 1e-9, f"skipped thick cell {par[j]} (chord {chord[j]:.4f})"
                    j += 1
                assert j < len(par), f"marcher cell {cell} missing from parametric traversal"
                j += 1
            for k in range(j, len(par)):
                # tail cells after the last sample: reachable only if thin
                # or beyond the final marcher sample
                assert chord[k] < step + 1e-9 or entries[k] > t[-1]

    def test_azimuth_seam_on_decoded_spec(self, cyl_spec):
        """A decoded spec carries its r and z ranges rounded to f32 and its
        theta range as exactly [-pi, pi), the lattice the caster's azimuth
        planes and point_to_flat share. Rays crossing theta = +-pi into a grid
        whose only occupied bins are theta bins 0 and D1-1 (distinct labels)
        must hit the same labels on the exact and the decoded spec, and the
        decoded cast must agree with the 1 mm marcher except on cells thinner
        than its step."""
        g = zero_grid(cyl_spec, "label")
        g.data[:, 0, :] = 3
        g.data[:, -1, :] = 5
        decoded = decode_voxel_grid(encode_voxel_grid(g))
        assert decoded.spec.ranges[1] == cyl_spec.ranges[1]
        rng = np.random.default_rng(12)
        n = 300
        x = rng.uniform(-20.0, -1.0, n)
        side = rng.choice([-1.0, 1.0], n)
        # origins at least 0.04 rad off the seam, outside both seam bins
        o = np.stack([x, side * -x * rng.uniform(0.04, 0.3, n), rng.uniform(-2.0, 3.0, n)], axis=1)
        d = np.stack([rng.uniform(-1, 1, n), -side * rng.uniform(0.1, 1, n), rng.uniform(-0.3, 0.3, n)], axis=1)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        rays = Rays(o, d)
        exact = cast_rays(rays, g)
        cast = cast_rays(rays, decoded)
        np.testing.assert_array_equal(cast.label, exact.label)
        assert (cast.distance > 0).all()
        assert (cast.label == 3).sum() > n // 4 and (cast.label == 5).sum() > n // 4
        rays, cast = within_range(rays, cast, 30.0)
        o, d = rays.origins, rays.directions
        march = march_fixed_step(rays, decoded, 30.0, step=0.001)
        agree = cast.voxel == march.voxel
        for i in np.nonzero(~agree)[0]:
            assert cast.hit[i]
            chord = self.chord_in_voxel(decoded.spec, decoded, o[i], d[i], cast.voxel[i], cast.distance[i])
            assert chord < 0.002, f"ray {i} disagreed with chord {chord}"
        np.testing.assert_array_equal(cast.label[agree], march.label[agree])

    def test_distance_is_entry_not_center(self, cyl_spec):
        g = zero_grid(cyl_spec, "label")
        g.data[50, :, :] = 6  # full shell at r in [10.0, 10.2)
        hits = cast_rays(one_ray([0.0, 0.0, 0.0], [0.0, 1.0, 0.0]), g)
        assert hits.distance[0] == pytest.approx(10.0, abs=1e-12)

    def test_vertical_ray(self, cyl_spec):
        g = zero_grid(cyl_spec, "label")
        g.data[10, 100, 12] = 8  # z in [2.0, 2.4)
        hits = cast_rays(one_ray([2.1, 0.0, 0.0], [0.0, 0.0, 1.0]), g)
        assert hits.label[0] == 8
        assert hits.distance[0] == pytest.approx(2.0, abs=1e-12)

    def test_tangent_shell_guard(self, cyl_spec):
        # ray with perigee exactly on the r=20.0 shell: the tangency
        # discriminant (~0) must not produce crossings, so the ray never
        # penetrates below 20.0 into bin 99 ...
        ray = one_ray([20.0, -30.0, 0.0], [0.0, 1.0, 0.0])
        inner = zero_grid(cyl_spec, "label")
        inner.data[99, :, :] = 9  # r in [19.8, 20.0)
        assert not cast_rays(ray, inner).hit[0]
        # ... but it does dip into bin 100 through the outer r=20.2 shell
        outer = zero_grid(cyl_spec, "label")
        outer.data[100, :, :] = 9  # r in [20.0, 20.2)
        hits = cast_rays(ray, outer)
        assert hits.hit[0]
        assert hits.distance[0] == pytest.approx(30.0 - math.sqrt(20.2**2 - 20.0**2), abs=1e-9)


class TestRayIoU:
    def hand_case_grids(self):
        # cuboid with 0.5 m x-cells so hit distances land on exact edges
        spec = GridSpec(CUBOID, (16, 4, 4), ((0, 8), (-2, 2), (-2, 2)))
        gt = zero_grid(spec, "label")
        pred = zero_grid(spec, "label")
        # both rays along +x at different y; gt hits class 3 at 5.0 on both
        gt.data[10, :, :] = 3  # x in [5.0, 5.5)
        pred.data[11, 0:2, :] = 3  # x in [5.5, 6.0) for y<0 ray: |d|=0.5 <= 1 -> TP
        pred.data[15, 2:4, :] = 3  # x in [7.5, 8.0) for y>0 ray: |d|=2.5 > 1 -> FN+FP
        rays = Rays(
            np.array([[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]]),
            np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        )
        return pred, gt, rays

    def test_hand_computed_confusion_table(self):
        pred, gt, rays = self.hand_case_grids()
        report = ray_iou(pred, gt, rays, thresholds=(1.0,))
        counts = report.counts[0]
        assert counts.tp[3] == 1 and counts.fn[3] == 1 and counts.fp[3] == 1
        assert report.ray_iou == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("thresholds", [(-1.0, 2.0), (-1e-9,), (math.nan,)])
    def test_negative_threshold_rejected(self, thresholds):
        pred, gt, rays = self.hand_case_grids()
        with pytest.raises(DomainError):
            ray_iou(pred, gt, rays, thresholds=thresholds)

    @pytest.mark.parametrize("band", [(17.0, 8.5), (8.5, 8.5), (math.nan, 8.5)])
    def test_empty_band_rejected(self, band):
        pred, gt, rays = self.hand_case_grids()
        with pytest.raises(DomainError):
            ray_iou(pred, gt, rays, thresholds=(1.0,), bands=[(0.0, 8.5), band])

    def test_self_identity(self, cyl_spec):
        rng = np.random.RandomState(12)
        g = random_label_grid(cyl_spec, rng, 0.05)
        rays = generate_rays(64, 8, (-0.35, 0.15))
        report = ray_iou(g, g, rays, thresholds=(1.0, 2.0, 4.0))
        assert report.ray_iou == 1.0

    def test_pred_all_free(self, cyl_spec):
        rng = np.random.RandomState(13)
        gt = random_label_grid(cyl_spec, rng, 0.05)
        pred = zero_grid(cyl_spec, "label")
        rays = generate_rays(64, 8, (-0.35, 0.15))
        report = ray_iou(pred, gt, rays, thresholds=(2.0,))
        hit_classes = report.counts[0].fn > 0
        assert report.ray_iou == 0.0
        iou = report.counts[0].iou
        assert np.all(iou[hit_classes] == 0.0)

    def test_threshold_monotone(self, cyl_spec):
        rng = np.random.RandomState(14)
        gt = random_label_grid(cyl_spec, rng, 0.04)
        pred = random_label_grid(cyl_spec, rng, 0.04)
        rays = generate_rays(128, 8, (-0.35, 0.15))
        report = ray_iou(pred, gt, rays, thresholds=(0.5, 1.0, 2.0, 4.0, 8.0))
        per = report.per_threshold
        assert np.all(np.diff(per) >= -1e-12)

    def test_rotation_equivariance(self, cyl_spec):
        rng = np.random.RandomState(15)
        gt = random_label_grid(cyl_spec, rng, 0.04)
        pred = random_label_grid(cyl_spec, rng, 0.04)
        k = 37  # integer number of theta bins
        dtheta = 2 * math.pi / cyl_spec.dims[1]
        rays = generate_rays(64, 4, (-0.3, 0.1))
        rot = np.array(
            [
                [math.cos(k * dtheta), -math.sin(k * dtheta), 0.0],
                [math.sin(k * dtheta), math.cos(k * dtheta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        rays_rot = Rays(rays.origins, rays.directions @ rot.T)
        gt_rot = VoxelGrid(cyl_spec, "label", np.roll(gt.data, k, axis=1))
        pred_rot = VoxelGrid(cyl_spec, "label", np.roll(pred.data, k, axis=1))
        a = ray_iou(pred, gt, rays, thresholds=(1.0, 2.0))
        b = ray_iou(pred_rot, gt_rot, rays_rot, thresholds=(1.0, 2.0))
        for ca, cb in zip(a.counts, b.counts):
            np.testing.assert_array_equal(ca.tp, cb.tp)
            np.testing.assert_array_equal(ca.fp, cb.fp)
            np.testing.assert_array_equal(ca.fn, cb.fn)

    @st.composite
    def hit_pairs(draw):
        """gt and pred hits on the same rays, a ray mask and thresholds: inf (miss) distances
        on either side, labels up to C + 3, empty, partial and full masks, threshold 0 and none."""
        n, c = draw(st.integers(0, 40)), default_label_set().count
        distance = st.one_of(st.sampled_from([0.0, 1.0, 2.5, math.inf]), st.floats(0.0, 30.0))

        def hits():
            d = np.array(draw(st.lists(distance, min_size=n, max_size=n)), dtype=np.float64)
            labels = np.array(draw(st.lists(st.integers(0, c + 3), min_size=n, max_size=n)), dtype=np.int64)
            return BatchHits(d, labels, np.zeros(n, dtype=np.int64))  # scoring reads no voxel

        gt, pred = hits(), hits()
        kind = draw(st.sampled_from(["all", "none", "drawn"]))
        drawn = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        mask = np.array(drawn, dtype=bool) if kind == "drawn" else np.full(n, kind == "all")
        tau = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 4.0]), st.floats(0.0, 10.0))
        return gt, pred, mask, tuple(draw(st.lists(tau, max_size=4)))

    @settings(max_examples=300, deadline=None)
    @given(case=hit_pairs())
    def test_scores_match_per_ray_oracle(self, case):
        gt, pred, mask, thresholds = case
        names = default_label_set().names
        report = _report_from_hits(gt, pred, thresholds, names, mask, {})
        counts, per, mean = ray_iou_per_ray(gt, pred, thresholds, len(names), mask)
        assert [(c.tp.tolist(), c.fp.tolist(), c.fn.tolist()) for c in report.counts] == counts
        assert report.thresholds == thresholds
        # NaN where the oracle has NaN; its plain sums may differ from np.mean in the last bits
        np.testing.assert_allclose(report.per_threshold, per, rtol=1e-12)
        np.testing.assert_allclose(report.ray_iou, mean, rtol=1e-12)

    def test_band_partition(self, cyl_spec):
        rng = np.random.RandomState(16)
        pred = random_label_grid(cyl_spec, rng, 0.03)
        # gt occupancy is a superset of pred's, so every pred hit has a gt hit
        gt = VoxelGrid(cyl_spec, "label", pred.data.copy())
        extra = rng.rand(*cyl_spec.dims) < 0.03
        gt.data[extra & (gt.data == 0)] = rng.randint(1, 12, size=int((extra & (gt.data == 0)).sum()))
        rays = generate_rays(128, 8, (-0.35, 0.15))
        bands = [(0.0, 8.5), (8.5, 17.0), (17.0, 60.0)]
        report = ray_iou(pred, gt, rays, thresholds=(1.0,), bands=bands)
        total = report.counts[0]
        sums = {k: np.zeros_like(total.tp) for k in ("tp", "fp", "fn")}
        for band_rep in report.bands.values():
            c = band_rep.counts[0]
            sums["tp"] += c.tp
            sums["fp"] += c.fp
            sums["fn"] += c.fn
        np.testing.assert_array_equal(sums["tp"], total.tp)
        np.testing.assert_array_equal(sums["fp"], total.fp)
        np.testing.assert_array_equal(sums["fn"], total.fn)

    def test_spec_mismatch_rejected(self, cyl_spec):
        other = GridSpec(CUBOID, (4, 4, 4), ((0, 1), (0, 1), (0, 1)))
        a = zero_grid(cyl_spec, "label")
        b = zero_grid(other, "label")
        with pytest.raises(ShapeError):
            ray_iou(a, b, generate_rays(4, 1, (-0.1, 0.1)), (1.0,))

    def test_report_serializes(self, cyl_spec):
        rng = np.random.RandomState(17)
        g = random_label_grid(cyl_spec, rng, 0.05)
        rays = generate_rays(16, 2, (-0.3, 0.1))
        report = ray_iou(g, g, rays, thresholds=(1.0, 2.0), bands=[(0.0, 8.5), (8.5, 30.0)])
        doc = report.to_dict()
        assert doc["ray_iou"] == 1.0
        assert len(doc["per_threshold"]) == 2
        assert set(doc["bands"]) == {"0.0:8.5", "8.5:30.0"}

    def test_grid_max_distance_covers_diagonal(self, cyl_spec):
        d = _grid_max_distance(cyl_spec, origins=np.zeros((1, 3)))
        assert d > math.hypot(2 * 25.6, 6.4)
