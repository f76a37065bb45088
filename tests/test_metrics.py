"""Ray casting and RayIoU tests.

The parametric caster is validated three ways: closed-form shell-crossing
cases, a fine (1 mm) fixed-step marcher on arbitrary rays, and the standard
0.01 m marcher on evaluation-fan rays (the full 10k-ray runs live in the
acceptance suite). RayIoU confusion logic is pinned by a hand-computed
two-ray table on a grid whose cell edges make the distances exact.
"""

import math

import numpy as np
import pytest

from cylocc.errors import DomainError, ShapeError
from cylocc.formats import decode_voxel_grid, encode_voxel_grid
from cylocc.geom import FisheyeCamera
from cylocc.grid import CUBOID, GridSpec, VoxelGrid
from cylocc.metrics import (
    Rays,
    cast_rays,
    generate_rays,
    grid_max_distance,
    ray_iou,
    traverse_cells,
)

from oracles import march_fixed_step


def one_ray(origin, direction) -> Rays:
    return Rays(np.array([origin], dtype=np.float64), np.array([direction], dtype=np.float64))


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


class TestCastRay:
    def test_radial_hit_at_shell_entry(self, cyl_spec):
        g = VoxelGrid.zeros(cyl_spec, "label")
        g.data[5, 100, 7] = 3
        hits = cast_rays(one_ray([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), g, 60.0)
        assert hits.hit[0]
        assert hits.label[0] == 3
        assert hits.distance[0] == pytest.approx(1.0, abs=1e-12)

    def test_all_free_no_hit(self, cyl_spec):
        g = VoxelGrid.zeros(cyl_spec, "label")
        hits = cast_rays(one_ray([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), g, 60.0)
        assert not hits.hit[0]
        assert hits.label[0] == 0
        np.testing.assert_array_equal(hits.voxel[0], [-1, -1, -1])

    def test_origin_inside_occupied_cell(self, cyl_spec):
        g = VoxelGrid.zeros(cyl_spec, "label")
        idx = cyl_spec.point_to_index([3.0, 1.0, 0.3])
        g.data[tuple(idx)] = 5
        hits = cast_rays(one_ray([3.0, 1.0, 0.3], [0.0, 1.0, 0.0]), g, 60.0)
        assert hits.hit[0]
        assert hits.distance[0] == 0.0
        assert hits.label[0] == 5

    def test_origin_outside_grid_entry_distance(self):
        spec = GridSpec(CUBOID, (4, 4, 4), ((0, 4), (0, 4), (0, 4)))
        g = VoxelGrid.zeros(spec, "label")
        g.data[:] = 2
        hits = cast_rays(one_ray([-3.0, 2.0, 2.0], [1.0, 0.0, 0.0]), g, 60.0)
        assert hits.distance[0] == pytest.approx(3.0, abs=1e-12)

    def test_max_dist_respected(self, cyl_spec):
        g = VoxelGrid.zeros(cyl_spec, "label")
        g.data[100, 100, 7] = 4  # r in [20.0, 20.2)
        ray = one_ray([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert not cast_rays(ray, g, 10.0).hit[0]
        assert cast_rays(ray, g, 30.0).distance[0] == pytest.approx(20.0, abs=1e-12)

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
            cast_rays(Rays(np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]])), g, 10.0)


class TestCasterExactness:
    """Cross-checks against fixed-step marchers.

    The 1 mm marcher is a much stronger oracle than the standard 0.01 m one
    and is used here on arbitrary (off-axis, steep) rays; residual
    disagreements must all be cells whose chord is below the 1 mm step.
    """

    def chord_in_voxel(self, spec, grid, o, d, voxel, t_hit, step=1e-5):
        ts = t_hit + np.arange(0.0, 4e-3, step)
        pts = o[None, :] + ts[:, None] * d[None, :]
        idx = spec.point_to_index(pts)
        inside = (idx == voxel).all(axis=1)
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
        a = cast_rays(rays, g, 25.0)
        b = march_fixed_step(rays, g, 25.0, step=0.001)
        agree = (a.voxel == b.voxel).all(axis=1)
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
            idx = spec.point_to_index(o[None] + t[:, None] * d[None])
            seq = [tuple(v) for v in idx if v[0] >= 0]
            march = [seq[0]] if seq else []
            for c in seq[1:]:
                if c != march[-1]:
                    march.append(c)
            par = [tuple(v) for v in cells]
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
        exact = cast_rays(rays, g, 30.0)
        cast = cast_rays(rays, decoded, 30.0)
        np.testing.assert_array_equal(cast.label, exact.label)
        assert (cast.distance > 0).all()
        assert (cast.label == 3).sum() > n // 4 and (cast.label == 5).sum() > n // 4
        march = march_fixed_step(rays, decoded, 30.0, step=0.001)
        agree = (cast.voxel == march.voxel).all(axis=1)
        for i in np.nonzero(~agree)[0]:
            assert cast.hit[i]
            chord = self.chord_in_voxel(decoded.spec, decoded, o[i], d[i], cast.voxel[i], cast.distance[i])
            assert chord < 0.002, f"ray {i} disagreed with chord {chord}"
        np.testing.assert_array_equal(cast.label[agree], march.label[agree])

    def test_distance_is_entry_not_center(self, cyl_spec):
        g = VoxelGrid.zeros(cyl_spec, "label")
        g.data[50, :, :] = 6  # full shell at r in [10.0, 10.2)
        hits = cast_rays(one_ray([0.0, 0.0, 0.0], [0.0, 1.0, 0.0]), g, 60.0)
        assert hits.distance[0] == pytest.approx(10.0, abs=1e-12)

    def test_vertical_ray(self, cyl_spec):
        g = VoxelGrid.zeros(cyl_spec, "label")
        g.data[10, 100, 12] = 8  # z in [2.0, 2.4)
        hits = cast_rays(one_ray([2.1, 0.0, 0.0], [0.0, 0.0, 1.0]), g, 60.0)
        assert hits.label[0] == 8
        assert hits.distance[0] == pytest.approx(2.0, abs=1e-12)

    def test_tangent_shell_guard(self, cyl_spec):
        # ray with perigee exactly on the r=20.0 shell: the tangency
        # discriminant (~0) must not produce crossings, so the ray never
        # penetrates below 20.0 into bin 99 ...
        ray = one_ray([20.0, -30.0, 0.0], [0.0, 1.0, 0.0])
        inner = VoxelGrid.zeros(cyl_spec, "label")
        inner.data[99, :, :] = 9  # r in [19.8, 20.0)
        assert not cast_rays(ray, inner, 80.0).hit[0]
        # ... but it does dip into bin 100 through the outer r=20.2 shell
        outer = VoxelGrid.zeros(cyl_spec, "label")
        outer.data[100, :, :] = 9  # r in [20.0, 20.2)
        hits = cast_rays(ray, outer, 80.0)
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
        d = grid_max_distance(cyl_spec, origins=np.zeros((1, 3)))
        assert d > math.hypot(2 * 25.6, 6.4)
