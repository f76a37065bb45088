"""Ray casting and RayIoU tests.

The parametric caster is validated four ways: closed-form shell-crossing
cases, bit-for-bit agreement with the all-intervals caster it replaced
(its early exit must change no output), a fine (1 mm) fixed-step marcher
on arbitrary rays, and the standard 0.01 m marcher on evaluation-fan rays
(the full 10k-ray runs live in the acceptance suite). RayIoU confusion
logic is pinned by a hand-computed two-ray table on a grid whose cell
edges make the distances exact.
"""

import math
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylocc.errors import DomainError, ShapeError
from cylocc.formats import decode_voxel_grid, encode_voxel_grid
from cylocc.geom import FisheyeCamera
from cylocc.grid import CUBOID, GridSpec, VoxelGrid, default_cylindrical_spec
from cylocc.metrics import (
    _MIN_SEGMENT,
    Rays,
    _grid_max_distance,
    cast_rays,
    default_ray_fan,
    generate_rays,
    ray_iou,
)
from cylocc.synth import HalfSpace, Scene, analytic_voxel_gt

from oracles import cast_all_intervals, default_cuboid_spec, march_fixed_step, ray_intervals, within_range


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
    g = VoxelGrid.zeros(spec, "label")
    occ = rng.rand(*spec.dims) < density
    if free_inner_r_bins:
        occ[:free_inner_r_bins] = False
    g.data[occ] = rng.randint(1, 12, size=int(occ.sum()))
    return g


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

    @pytest.mark.parametrize("counts", [(2**20 + 1, 1), (1024, 1025), (10_000_000, 10_000_000)])
    def test_fan_size_capped(self, counts):
        # rejected before anything is allocated: 10^14 rays would need hundreds of TiB
        with pytest.raises(DomainError, match="at most"):
            generate_rays(*counts, (-0.1, 0.1))


class TestCastRay:
    def test_radial_hit_at_shell_entry(self, cyl_spec):
        g = VoxelGrid.zeros(cyl_spec, "label")
        g.data[5, 100, 7] = 3
        hits = cast_rays(one_ray([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), g)
        assert hits.hit[0]
        assert hits.label[0] == 3
        assert hits.distance[0] == pytest.approx(1.0, abs=1e-12)

    def test_all_free_no_hit(self, cyl_spec):
        g = VoxelGrid.zeros(cyl_spec, "label")
        hits = cast_rays(one_ray([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), g)
        assert not hits.hit[0]
        assert hits.label[0] == 0
        assert hits.voxel[0] == -1

    def test_origin_inside_occupied_cell(self, cyl_spec):
        g = VoxelGrid.zeros(cyl_spec, "label")
        g.data.reshape(-1)[cyl_spec.point_to_flat([[3.0, 1.0, 0.3]])] = 5
        hits = cast_rays(one_ray([3.0, 1.0, 0.3], [0.0, 1.0, 0.0]), g)
        assert hits.hit[0]
        assert hits.distance[0] == 0.0
        assert hits.label[0] == 5

    def test_origin_outside_grid_entry_distance(self):
        spec = GridSpec(CUBOID, (4, 4, 4), ((0, 4), (0, 4), (0, 4)))
        g = VoxelGrid.zeros(spec, "label")
        g.data[:] = 2
        hits = cast_rays(one_ray([-3.0, 2.0, 2.0], [1.0, 0.0, 0.0]), g)
        assert hits.distance[0] == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("max_dist", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_max_dist_rejected(self, max_dist):
        ray = one_ray([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            Scene((HalfSpace(-1.3, 1),)).first_hit(ray.origins, ray.directions, max_dist)

    def test_length_reaches_any_exit(self, cyl_spec):
        # the derived length runs past the far side of the grid from an origin outside it
        g = VoxelGrid.zeros(cyl_spec, "label")
        g.data[100, 0, 7] = 4  # r in [20.0, 20.2) at theta = -pi
        hits = cast_rays(one_ray([40.0, 0.0, 0.0], [-1.0, 0.0, 0.0]), g)
        assert hits.label[0] == 4
        assert hits.distance[0] == pytest.approx(60.0, abs=1e-9)

    @pytest.mark.parametrize("x", [1e308, 2e154, 5e153])
    def test_far_origins_rejected(self, cyl_spec, x):
        # the squared length would overflow the crossing arithmetic
        with pytest.raises(DomainError, match="ray origins"):
            cast_rays(one_ray([x, 0.0, 0.0], [-1.0, 0.0, 0.0]), VoxelGrid.zeros(cyl_spec, "label"))

    @pytest.mark.parametrize("x", [4e153, 1e20])
    def test_far_origins_cast(self, x):
        for spec in (default_cylindrical_spec(), default_cuboid_spec()):
            g = VoxelGrid.zeros(spec, "label")
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
        g = VoxelGrid.zeros(cyl_spec, "occupancy")
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


class TestEarlyExitExactness:
    """cast_rays cuts the max_dist padding and retires rays at their first
    hit; every output must equal the all-intervals caster's bit for bit at
    the length cast_rays derives, and stay put at twice that length, since
    the derived length already reaches the grid exit."""

    @pytest.fixture(scope="class")
    def street_gt(self, street_scene, cyl_spec):
        return analytic_voxel_gt(street_scene, cyl_spec, 3)

    def test_default_fan_into_street_gt(self, street_gt):
        fan = default_ray_fan()
        a = cast_rays(fan, street_gt)
        assert 0.3 < a.hit.mean() < 0.9
        assert_same_hits(a, cast_all_intervals(fan, street_gt, _grid_max_distance(street_gt.spec, fan.origins)))

    def test_default_fan_into_perturbed_street_gt(self, street_gt):
        rng = np.random.RandomState(8)
        data = street_gt.data.copy()
        data[rng.rand(*data.shape) < 0.2] = 0
        flip = rng.rand(*data.shape) < 0.01
        data[flip] = rng.randint(0, 12, size=int(flip.sum()))
        pred = VoxelGrid(street_gt.spec, "label", data)
        fan = default_ray_fan()
        assert_same_hits(cast_rays(fan, pred), cast_all_intervals(fan, pred, _grid_max_distance(pred.spec, fan.origins)))

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

    def test_azimuth_seam_on_f32_rounded_spec(self, cyl_spec):
        """The caster's azimuth planes step from exactly -pi, while binning
        uses the spec's theta range, which a decoded spec carries rounded to
        f32. Rays crossing theta = +-pi into a grid whose only occupied
        bins are theta bins 0 and D1-1 (distinct labels) must hit the same
        labels on the exact and the decoded spec, and the decoded cast must
        agree with the 1 mm marcher except on cells thinner than its step."""
        g = VoxelGrid.zeros(cyl_spec, "label")
        g.data[:, 0, :] = 3
        g.data[:, -1, :] = 5
        decoded = decode_voxel_grid(encode_voxel_grid(g))
        assert decoded.spec.ranges[1] != cyl_spec.ranges[1]
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
        g = VoxelGrid.zeros(cyl_spec, "label")
        g.data[50, :, :] = 6  # full shell at r in [10.0, 10.2)
        hits = cast_rays(one_ray([0.0, 0.0, 0.0], [0.0, 1.0, 0.0]), g)
        assert hits.distance[0] == pytest.approx(10.0, abs=1e-12)

    def test_vertical_ray(self, cyl_spec):
        g = VoxelGrid.zeros(cyl_spec, "label")
        g.data[10, 100, 12] = 8  # z in [2.0, 2.4)
        hits = cast_rays(one_ray([2.1, 0.0, 0.0], [0.0, 0.0, 1.0]), g)
        assert hits.label[0] == 8
        assert hits.distance[0] == pytest.approx(2.0, abs=1e-12)

    def test_tangent_shell_guard(self, cyl_spec):
        # ray with perigee exactly on the r=20.0 shell: the tangency
        # discriminant (~0) must not produce crossings, so the ray never
        # penetrates below 20.0 into bin 99 ...
        ray = one_ray([20.0, -30.0, 0.0], [0.0, 1.0, 0.0])
        inner = VoxelGrid.zeros(cyl_spec, "label")
        inner.data[99, :, :] = 9  # r in [19.8, 20.0)
        assert not cast_rays(ray, inner).hit[0]
        # ... but it does dip into bin 100 through the outer r=20.2 shell
        outer = VoxelGrid.zeros(cyl_spec, "label")
        outer.data[100, :, :] = 9  # r in [20.0, 20.2)
        hits = cast_rays(ray, outer)
        assert hits.hit[0]
        assert hits.distance[0] == pytest.approx(30.0 - math.sqrt(20.2**2 - 20.0**2), abs=1e-9)


class TestRayIoU:
    def hand_case_grids(self):
        # cuboid with 0.5 m x-cells so hit distances land on exact edges
        spec = GridSpec(CUBOID, (16, 4, 4), ((0, 8), (-2, 2), (-2, 2)))
        gt = VoxelGrid.zeros(spec, "label")
        pred = VoxelGrid.zeros(spec, "label")
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
        pred = VoxelGrid.zeros(cyl_spec, "label")
        rays = generate_rays(64, 8, (-0.35, 0.15))
        report = ray_iou(pred, gt, rays, thresholds=(2.0,))
        hit_classes = report.counts[0].fn > 0
        assert report.ray_iou == 0.0
        iou = report.counts[0].per_class_iou()
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
        a = VoxelGrid.zeros(cyl_spec, "label")
        b = VoxelGrid.zeros(other, "label")
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
