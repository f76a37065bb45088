"""Analytic scene oracle tests. Expected intersection values come from the
closed-form root formulas evaluated by hand (quadratics with rational
solutions)."""

import math

import numpy as np
import pytest

from cylocc.errors import DomainError
from cylocc.geom import RigidTransform, erp_depth_to_point_cloud, rot_z
from cylocc.grid import CYLINDRICAL, GridSpec, default_label_set, voxelize_semantic
from cylocc.metrics import cast_rays, generate_rays
from cylocc.synth import (
    Box,
    HalfSpace,
    Scene,
    Sphere,
    VerticalCylinder,
    analytic_voxel_gt,
    render_erp_depth,
    sample_scene_point_cloud,
)

from conftest import bin_triple
from oracles import DEMO07_SCENE, analytic_voxel_gt_all_probes, lidar_ring_origins


class TestRaySceneIntersect:
    def test_parallel_above_ground_misses(self):
        scene = Scene((HalfSpace(0.0, 1),))
        t, label, hit = scene.first_hit([[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]], 100.0)
        assert not hit[0]
        assert t[0] == np.inf and label[0] == 0

    def test_straight_down_onto_ground(self):
        scene = Scene((HalfSpace(0.0, 1),))
        t, label, hit = scene.first_hit([[0.0, 0.0, 2.0]], [[0.0, 0.0, -1.0]], 100.0)
        assert hit[0] and label[0] == 1
        assert t[0] == pytest.approx(2.0, abs=1e-12)

    def test_unit_sphere_head_on(self):
        # quadratic root: |o - c| = 5 along the axis, radius 1 -> t = 4
        scene = Scene((Sphere((5.0, 0.0, 0.0), 1.0, 6),))
        t, label, hit = scene.first_hit([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], 100.0)
        assert t[0] == pytest.approx(4.0, abs=1e-12)
        assert label[0] == 6

    def test_box_entry_face(self):
        scene = Scene((Box((2.0, -1.0, -1.0), (4.0, 1.0, 1.0), 4),))
        t, _, _ = scene.first_hit([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], 100.0)
        assert t[0] == pytest.approx(2.0, abs=1e-12)

    def test_origin_inside_box_hits_exit(self):
        scene = Scene((Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), 4),))
        t, _, _ = scene.first_hit([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], 100.0)
        assert t[0] == pytest.approx(1.0, abs=1e-12)

    def test_cylinder_side_and_cap(self):
        cyl = VerticalCylinder((5.0, 0.0), 1.0, -1.0, 1.0, 9)
        scene = Scene((cyl,))
        # one batch: a side hit and a cap hit
        t, _, hit = scene.first_hit([[0.0, 0.0, 0.0], [5.0, 0.0, 3.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]], 100.0)
        assert hit.all()
        np.testing.assert_allclose(t, [4.0, 2.0], atol=1e-12)

    def test_order_breaks_ties(self):
        a = Sphere((5.0, 0.0, 0.0), 1.0, 3)
        b = Sphere((5.0, 0.0, 0.0), 1.0, 7)
        o, d = [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]
        assert Scene((a, b)).first_hit(o, d, 100.0)[1][0] == 3
        assert Scene((b, a)).first_hit(o, d, 100.0)[1][0] == 7

    def test_nearest_primitive_wins(self):
        far = Sphere((9.0, 0.0, 0.0), 1.0, 3)
        near = Sphere((5.0, 0.0, 0.0), 1.0, 7)
        _, label, _ = Scene((far, near)).first_hit([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], 100.0)
        assert label[0] == 7


class TestRenderErp:
    def test_empty_scene_all_zero(self):
        depth, sem = render_erp_depth(Scene(()), 16, 8)
        assert not depth.data.any()
        assert not sem.data.any()

    def test_center_pixel_sphere_depth(self):
        # odd W, H: pixel (2, 1) of a 5x3 raster looks exactly along +x
        scene = Scene((Sphere((5.0, 0.0, 0.0), 1.0, 6),))
        depth, sem = render_erp_depth(scene, 5, 3)
        assert depth.data[1, 2] == pytest.approx(4.0, abs=1e-6)
        assert sem.data[1, 2] == 6

    def test_pose_moves_the_eye(self):
        scene = Scene((Sphere((5.0, 0.0, 0.0), 1.0, 6),))
        pose = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
        depth, _ = render_erp_depth(scene, 5, 3, pose=pose)
        assert depth.data[1, 2] == pytest.approx(3.0, abs=1e-6)

    def test_yaw_rotates_the_view(self):
        scene = Scene((Sphere((0.0, 5.0, 0.0), 1.0, 6),))
        pose = RigidTransform(rot_z(math.pi / 2), np.zeros(3))
        depth, _ = render_erp_depth(scene, 5, 3, pose=pose)
        assert depth.data[1, 2] == pytest.approx(4.0, abs=1e-6)

    def test_lifted_points_lie_on_surfaces(self, street_scene):
        depth, sem = render_erp_depth(street_scene, 400, 200)
        cloud = erp_depth_to_point_cloud(depth, sem)
        # signed distance to the nearest primitive surface, evaluated per
        # primitive family in closed form
        best = np.full(len(cloud), np.inf)
        for prim in street_scene.primitives:
            if isinstance(prim, HalfSpace):
                d = np.abs(cloud.points[:, 2] - prim.height)
            elif isinstance(prim, Sphere):
                d = np.abs(np.linalg.norm(cloud.points - np.asarray(prim.center), axis=1) - prim.radius)
            elif isinstance(prim, VerticalCylinder):
                radial = np.abs(
                    np.hypot(cloud.points[:, 0] - prim.center[0], cloud.points[:, 1] - prim.center[1])
                    - prim.radius
                )
                axial = np.maximum(prim.z_min - cloud.points[:, 2], cloud.points[:, 2] - prim.z_max)
                d = np.where(axial <= 0, radial, np.hypot(radial, np.maximum(axial, 0)))
                d = np.minimum(d, np.abs(axial))
            elif isinstance(prim, Box):
                lo, hi = np.asarray(prim.min_corner), np.asarray(prim.max_corner)
                face = np.minimum(np.abs(cloud.points - lo), np.abs(cloud.points - hi)).min(axis=1)
                d = face
            best = np.minimum(best, d)
        assert np.max(best) < 1e-4


class TestAnalyticVoxelGt:
    def test_empty_scene_all_free(self, cyl_spec):
        gt = analytic_voxel_gt(Scene(()), cyl_spec, 2)
        assert not gt.data.any()

    def test_ground_slab_fills_exactly_one_layer(self, cyl_spec):
        slab = Box((-26.0, -26.0, 0.0), (26.0, 26.0, 0.4), 1)
        gt = analytic_voxel_gt(Scene((slab,)), cyl_spec, 3)
        assert np.all(gt.data[:, :, 7] == 1)
        layer_mask = np.zeros(16, dtype=bool)
        layer_mask[7] = True
        assert not gt.data[:, :, ~layer_mask].any()

    def test_supersample_convergence(self, cyl_spec, street_scene):
        g1 = analytic_voxel_gt(street_scene, cyl_spec, 1)
        g3 = analytic_voxel_gt(street_scene, cyl_spec, 3)
        agree = (g1.data == g3.data).mean()
        assert agree >= 0.95

    @pytest.mark.parametrize("supersample", [0, 17, 10**20])
    def test_supersample_out_of_range_rejected(self, supersample):
        spec = GridSpec(CYLINDRICAL, (2, 4, 2), ((0.0, 25.6), (-math.pi, math.pi), (-2.8, 3.6)))
        with pytest.raises(DomainError):
            analytic_voxel_gt(Scene((HalfSpace(-1.3, 1),)), spec, supersample)

    def test_supersample_bound_accepted(self):
        # 16^3 = 4,096 probe passes, the most a voxel may take
        spec = GridSpec(CYLINDRICAL, (2, 4, 2), ((0.0, 25.6), (-math.pi, math.pi), (-2.8, 3.6)))
        scene = Scene((HalfSpace(0.0, 1),))
        gt = analytic_voxel_gt(scene, spec, 16)
        np.testing.assert_array_equal(gt.data, analytic_voxel_gt_all_probes(scene, spec, 16).data)
        assert gt.data[:, :, 0].all() and not gt.data[:, :, 1].any()

    def test_overlap_goes_to_earlier_primitive(self, cyl_spec):
        inner = Sphere((5.0, 0.0, 0.0), 1.0, 3)
        outer = Sphere((5.0, 0.0, 0.0), 1.5, 7)
        a = analytic_voxel_gt(Scene((inner, outer)), cyl_spec, 2)
        assert a.data[bin_triple(cyl_spec, [5.0, 0.0, 0.0])] == 3


class TestPassByPassVote:
    """analytic_voxel_gt counts votes one probe pass at a time; the oracle
    holds every probe label and votes once. The two agree bit for bit."""

    @pytest.mark.parametrize("which", ["street", "demo07"])
    def test_default_lattice(self, cyl_spec, street_scene, which):
        scene = street_scene if which == "street" else DEMO07_SCENE
        got = analytic_voxel_gt(scene, cyl_spec, 3)
        np.testing.assert_array_equal(got.data, analytic_voxel_gt_all_probes(scene, cyl_spec, 3).data)

    def test_more_votes_than_uint8_holds(self, street_scene):
        # 7^3 = 343 probes per voxel; the z bin the ground cuts takes 294 road votes
        spec = GridSpec(CYLINDRICAL, (24, 32, 8), ((0.0, 12.0), (-math.pi, math.pi), (-2.8, 3.6)))
        got = analytic_voxel_gt(street_scene, spec, 7)
        np.testing.assert_array_equal(got.data, analytic_voxel_gt_all_probes(street_scene, spec, 7).data)


class TestNonFinitePrimitives:
    @pytest.mark.parametrize("build", [
        lambda: HalfSpace(math.nan, 1),
        lambda: HalfSpace(-math.inf, 1),
        lambda: Box((0.0, 0.0, math.nan), (1.0, 1.0, 1.0), 7),
        lambda: Box((0.0, 0.0, 0.0), (1.0, math.inf, 1.0), 7),
        lambda: Sphere((0.0, math.nan, 0.0), 1.0, 6),
        lambda: Sphere((0.0, 0.0, 0.0), math.nan, 6),
        lambda: VerticalCylinder((0.0, 0.0), math.nan, -1.0, 1.0, 9),
        lambda: VerticalCylinder((math.inf, 0.0), 0.3, -1.0, 1.0, 9),
        lambda: VerticalCylinder((0.0, 0.0), 0.3, -1.0, math.inf, 9),
    ], ids=["half-space-nan", "half-space-inf", "box-min-nan", "box-max-inf", "sphere-center-nan", "sphere-radius-nan",
            "cylinder-radius-nan", "cylinder-center-inf", "cylinder-z-max-inf"])
    def test_rejected(self, build):
        with pytest.raises(DomainError):
            build()


class TestSampledCloud:
    def test_empty_scene_empty_cloud(self):
        cloud = sample_scene_point_cloud(Scene(()), np.zeros((1, 3)), 16, 4, (-0.5, 0.0))
        assert len(cloud) == 0

    def test_downward_fan_on_ground_all_road(self):
        scene = Scene((HalfSpace(0.0, 1),))
        cloud = sample_scene_point_cloud(scene, np.array([[0.0, 0.0, 2.0]]), 64, 8, (-1.2, -0.3))
        assert len(cloud) == 64 * 8
        assert np.all(cloud.labels == 1)
        np.testing.assert_allclose(cloud.points[:, 2], 0.0, atol=1e-9)

    def test_deterministic_bit_identical(self, street_scene):
        origins = lidar_ring_origins(count=4, heights=(1.0, 2.0))
        a = sample_scene_point_cloud(street_scene, origins, 128, 16, (-1.0, 0.3))
        b = sample_scene_point_cloud(street_scene, origins, 128, 16, (-1.0, 0.3))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_voxelized_sample_matches_analytic_gt(self, cyl_spec, street_scene):
        cloud = sample_scene_point_cloud(
            street_scene, lidar_ring_origins(count=8, heights=(0.6, 1.6)), 1024, 128, (-1.2, 0.25)
        )
        grid = voxelize_semantic(cloud, cyl_spec, default_label_set())
        gt = analytic_voxel_gt(street_scene, cyl_spec, 3)
        flat = cyl_spec.point_to_flat(cloud.points)
        counts = np.bincount(flat[flat >= 0], minlength=cyl_spec.num_voxels).reshape(cyl_spec.dims)
        touched = counts >= 10
        assert touched.sum() > 10000
        agree = (grid.data[touched] == gt.data[touched]).mean()
        assert agree >= 0.99


class TestOracleConsistency:
    def surface_distance(self, scene, pts):
        best = np.full(len(pts), np.inf)
        for prim in scene.primitives:
            if isinstance(prim, HalfSpace):
                d = np.abs(pts[:, 2] - prim.height)
            elif isinstance(prim, Sphere):
                d = np.abs(np.linalg.norm(pts - np.asarray(prim.center), axis=1) - prim.radius)
            elif isinstance(prim, VerticalCylinder):
                radial = np.abs(
                    np.hypot(pts[:, 0] - prim.center[0], pts[:, 1] - prim.center[1]) - prim.radius
                )
                d = np.maximum(radial, np.maximum(prim.z_min - pts[:, 2], pts[:, 2] - prim.z_max))
                d = np.abs(d)
            else:
                lo, hi = np.asarray(prim.min_corner), np.asarray(prim.max_corner)
                d = np.minimum(np.abs(pts - lo), np.abs(pts - hi)).min(axis=1)
            best = np.minimum(best, d)
        return best

    def test_gt_cast_agrees_with_scene_intersect(self, cyl_spec, street_scene):
        gt = analytic_voxel_gt(street_scene, cyl_spec, 3)
        rays = generate_rays(256, 16, (-0.45, 0.1), origin=(0.0, 0.0, 0.3))
        grid_hits = cast_rays(rays, gt, 40.0)
        t, label, hit = street_scene.first_hit(rays.origins, rays.directions, 40.0)
        # restrict to rays the scene resolves inside the grid's radius
        in_grid = hit & (t < 24.0)
        same = grid_hits.label[in_grid] == label[in_grid]
        assert same.mean() >= 0.98
        # the voxelized hit must land within one voxel diagonal of the true
        # surface; the along-ray gap is unbounded for grazing rays (depth
        # into the cell divided by the sine of incidence), so the bound is
        # asserted on the hit point's distance to the primitive boundary
        diag = math.sqrt(0.2**2 + (25.6 * 2 * math.pi / 200) ** 2 + 0.4**2)
        agreeing = in_grid & (grid_hits.label == label)
        pts = rays.origins[agreeing] + grid_hits.distance[agreeing, None] * rays.directions[agreeing]
        assert np.percentile(self.surface_distance(street_scene, pts), 99) <= diag

    def test_steep_rays_agree_along_ray(self, cyl_spec, street_scene):
        # near-vertical rays: along-ray and perpendicular gaps coincide, so
        # the literal |distance| <= diagonal bound applies directly
        gt = analytic_voxel_gt(street_scene, cyl_spec, 3)
        rays = generate_rays(128, 8, (-1.3, -0.6), origin=(0.0, 0.0, 0.3))
        grid_hits = cast_rays(rays, gt, 40.0)
        t, label, hit = street_scene.first_hit(rays.origins, rays.directions, 40.0)
        both = hit & grid_hits.hit & (grid_hits.label == label)
        assert both.mean() >= 0.98
        diag = math.sqrt(0.2**2 + (25.6 * 2 * math.pi / 200) ** 2 + 0.4**2)
        assert np.max(np.abs(grid_hits.distance[both] - t[both])) <= diag
