"""Geometry tests: every expected value below is either forced by symmetry
or frozen from an independent high-precision (mpmath, 50 digits) evaluation
of the stated formulas."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cylocc import geom
from cylocc.errors import DomainError, ShapeError
from cylocc.geom import (
    UNLABELED,
    ErpImage,
    FisheyeCamera,
    LabeledPointCloud,
    RigidTransform,
    erp_depth_to_point_cloud,
    erp_pixel_to_direction,
    rot_z,
    surround_rig,
)

from cylocc.synth import render_erp_depth

from conftest import random_transform
from oracles import DEMO07_SCENE, erp_lift_per_pixel


class TestRigidTransform:
    def test_identity_leaves_points(self):
        t = RigidTransform.identity()
        p = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(t.apply(p), p)

    def test_pure_translation(self):
        t = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(t.apply(np.zeros((1, 3))), [[1.0, 2.0, 3.0]])

    def test_yaw_90_rotates_x_to_y(self):
        t = RigidTransform(rot_z(math.pi / 2), np.zeros(3))
        np.testing.assert_allclose(t.apply([[1.0, 0.0, 0.0]]), [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_inverse_is_two_sided(self):
        rng = np.random.RandomState(3)
        for _ in range(20):
            t = random_transform(rng)
            for composed in (t.compose(t.inverse()), t.inverse().compose(t)):
                np.testing.assert_allclose(composed.rotation, np.eye(3), atol=1e-9)
                np.testing.assert_allclose(composed.translation, 0.0, atol=1e-9)

    def test_compose_associative(self):
        rng = np.random.RandomState(4)
        for _ in range(20):
            a, b, c = (random_transform(rng) for _ in range(3))
            left = a.compose(b).compose(c)
            right = a.compose(b.compose(c))
            np.testing.assert_allclose(left.rotation, right.rotation, atol=1e-9)
            np.testing.assert_allclose(left.translation, right.translation, atol=1e-9)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(DomainError):
            RigidTransform(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(DomainError):
            RigidTransform(m, np.zeros(3))

    def test_matrix_round_trip(self):
        rng = np.random.RandomState(5)
        t = random_transform(rng)
        back = RigidTransform.from_matrix(t.matrix())
        np.testing.assert_array_equal(back.rotation, t.rotation)
        np.testing.assert_array_equal(back.translation, t.translation)

    def test_transform_point_matches_formula(self):
        rng = np.random.RandomState(6)
        t = random_transform(rng)
        p = rng.normal(size=3)
        np.testing.assert_allclose(t.apply(p[None]), [t.rotation @ p + t.translation], atol=1e-12)


class TestErpDirections:
    def test_raster_center_points_forward(self):
        d = erp_pixel_to_direction(999.5, 499.5, 2000, 1000)
        np.testing.assert_allclose(d, [1.0, 0.0, 0.0], atol=1e-12)

    def test_left_edge_pixel(self):
        # mpmath oracle: lambda = -pi + pi/2000, phi = 0
        d = erp_pixel_to_direction(0, 499.5, 2000, 1000)
        np.testing.assert_allclose(
            d, [-0.99999876629970353332, -0.0015707956808308788056, 0.0], atol=1e-12
        )

    def test_top_row_elevation(self):
        # mpmath oracle: sin(pi/2 - pi/2000)
        for u in (0, 777, 1999):
            d = erp_pixel_to_direction(u, 0, 2000, 1000)
            assert d[2] == pytest.approx(0.99999876629970353332, abs=1e-12)

    def test_unit_norm_everywhere(self):
        rng = np.random.RandomState(0)
        u = rng.uniform(0, 2000, 500)
        v = rng.uniform(0, 1000, 500)
        d = erp_pixel_to_direction(u, v, 2000, 1000)
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-12)

    def test_out_of_range_pixel_rejected(self):
        with pytest.raises(DomainError):
            erp_pixel_to_direction(2000, 10, 2000, 1000)
        with pytest.raises(DomainError):
            erp_pixel_to_direction(-0.1, 10, 2000, 1000)


class TestDepthLifting:
    def test_all_invalid_gives_empty_cloud(self):
        depth = ErpImage.depth(np.zeros((8, 16), dtype=np.float32))
        cloud = erp_depth_to_point_cloud(depth)
        assert len(cloud) == 0

    def test_single_center_pixel(self):
        data = np.zeros((1000, 2000), dtype=np.float32)
        # x-forward needs the pixel whose center sits at lambda=0, phi=0;
        # with integer sampling that is not exact, so use a 1-pixel raster
        data = np.zeros((1, 1), dtype=np.float32)
        data[0, 0] = 5.0
        cloud = erp_depth_to_point_cloud(ErpImage.depth(data))
        assert len(cloud) == 1
        np.testing.assert_allclose(cloud.points[0], [5.0, 0.0, 0.0], atol=1e-12)
        assert cloud.labels[0] == UNLABELED

    def test_uniform_depth_gives_unit_norms(self):
        data = np.ones((2, 4), dtype=np.float32)
        cloud = erp_depth_to_point_cloud(ErpImage.depth(data))
        assert len(cloud) == 8
        np.testing.assert_allclose(np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-12)

    def test_radial_norm_equals_depth(self):
        # points come out in row-major pixel order, so norms line up with
        # the flattened raster
        rng = np.random.RandomState(1)
        data = rng.uniform(0.5, 50.0, size=(40, 80)).astype(np.float32)
        cloud = erp_depth_to_point_cloud(ErpImage.depth(data))
        norms = np.linalg.norm(cloud.points, axis=1)
        np.testing.assert_allclose(norms, data.ravel().astype(np.float64), atol=1e-6)

    def test_semantic_labels_copied(self):
        depth = np.full((4, 8), 2.0, dtype=np.float32)
        sem = np.arange(32, dtype=np.float32).reshape(4, 8) % 7
        cloud = erp_depth_to_point_cloud(ErpImage.depth(depth), ErpImage.semantic(sem))
        np.testing.assert_array_equal(cloud.labels, sem.ravel().astype(np.uint8))

    def test_stride_walks_lattice(self):
        depth = np.ones((8, 8), dtype=np.float32)
        cloud = erp_depth_to_point_cloud(ErpImage.depth(depth), stride=2)
        assert len(cloud) == 16

    @pytest.mark.parametrize("stride", [0, -1, 1.5, 2.0, True])
    def test_stride_not_a_positive_integer_rejected(self, stride):
        with pytest.raises(DomainError):
            erp_depth_to_point_cloud(ErpImage.depth(np.ones((8, 8), dtype=np.float32)), stride=stride)

    def test_size_mismatch_rejected(self):
        depth = ErpImage.depth(np.ones((4, 8), dtype=np.float32))
        sem = ErpImage.semantic(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            erp_depth_to_point_cloud(depth, sem)


def assert_same_cloud(got, want):
    assert got.points.dtype == want.points.dtype == np.float64
    np.testing.assert_array_equal(got.points.view(np.uint64), want.points.view(np.uint64))
    np.testing.assert_array_equal(got.labels, want.labels)


@pytest.fixture(scope="module")
def scene_rasters(street_scene):
    """(depth, semantic) of the street scene at 2000 x 1000 and of the
    demo-07 scene at demo 07's 1600 x 800."""
    return {"street": render_erp_depth(street_scene, 2000, 1000), "demo07": render_erp_depth(DEMO07_SCENE, 1600, 800)}


class TestLiftMatchesPerPixel:
    """The lift takes its trig from per-column and per-row tables and walks
    the raster in row blocks; the oracle takes erp_pixel_to_direction of
    every pixel. The clouds agree bit for bit."""

    @pytest.mark.parametrize("with_semantic", [False, True])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("which", ["street", "demo07"])
    def test_scene_rasters(self, scene_rasters, which, stride, with_semantic):
        depth, sem = scene_rasters[which]
        sem = sem if with_semantic else None
        got = erp_depth_to_point_cloud(depth, sem, stride)
        assert len(got) > 0
        assert_same_cloud(got, erp_lift_per_pixel(depth, sem, stride))

    @pytest.mark.parametrize("block", [None, 200], ids=["one-block", "row-pairs"])
    @pytest.mark.parametrize("with_semantic", [False, True])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_odd_raster(self, stride, with_semantic, block):
        # 91 x 37: odd sizes; a 200-pixel block holds only a few rows
        rng = np.random.RandomState(2)
        data = rng.uniform(0.1, 80.0, (37, 91)).astype(np.float32)
        data[rng.rand(37, 91) < 0.2] = 0.0
        depth = ErpImage.depth(data)
        sem = ErpImage.semantic((rng.rand(37, 91) * 12).astype(np.int64)) if with_semantic else None
        with mock.patch.object(geom, "_LIFT_BLOCK", block or geom._LIFT_BLOCK):
            got = erp_depth_to_point_cloud(depth, sem, stride)
        assert_same_cloud(got, erp_lift_per_pixel(depth, sem, stride))

    @settings(max_examples=60, deadline=None)
    @given(
        data=hnp.arrays(
            np.float32,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
            elements=st.one_of(st.just(0.0), st.floats(0.0, 100.0, width=32), st.floats(9.9e5, 1e6, width=32)),
        ),
        stride=st.integers(1, 3),
        with_semantic=st.booleans(),
        block=st.integers(1, 2000),
    )
    def test_drawn_rasters(self, data, stride, with_semantic, block):
        # depths up to 1e6 m; blocks from one row to the whole raster
        depth = ErpImage.depth(data)
        sem = ErpImage.semantic(np.arange(data.size).reshape(data.shape) % 13) if with_semantic else None
        with mock.patch.object(geom, "_LIFT_BLOCK", block):
            got = erp_depth_to_point_cloud(depth, sem, stride)
        assert_same_cloud(got, erp_lift_per_pixel(depth, sem, stride))


class TestErpImage:
    @pytest.mark.parametrize("kind", ["depth_meters", "feature"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, kind, bad):
        data = np.ones((2, 3), dtype=np.float32)
        data[1, 2] = bad
        with pytest.raises(DomainError):
            ErpImage(3, 2, 1, data, kind)

    @pytest.mark.parametrize("kind", ["depth_meters", "semantic_label", "feature"])
    @pytest.mark.parametrize("dims", [(0, 2, 1), (3, 0, 1), (0, 0, 1), (3, 2, 0), (0, 2, 3)], ids=str)
    def test_zero_size_rejected(self, dims, kind):
        # the ODPT decoder refuses these, so the constructor does too
        width, height, channels = dims
        shape = (height, width) if channels == 1 else (height, width, channels)
        with pytest.raises(ShapeError):
            ErpImage(width, height, channels, np.zeros(shape, dtype=np.float32), kind)

    @pytest.mark.parametrize("shape", [(5, 0), (0, 5), (0, 0)], ids=str)
    def test_empty_depth_rejected(self, shape):
        with pytest.raises(ShapeError):
            ErpImage.depth(np.zeros(shape))

    def test_depth_sign_checked_without_a_full_size_mask(self):
        # a bool mask of a 2000 x 1000 raster would take 1.91 MiB; -0.0 is no negative depth
        data = np.full((1000, 2000), 5.0, dtype=np.float32)
        data[3, 7] = -0.0
        tracemalloc.start()
        try:
            ErpImage.depth(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 2**20
        data[500, 1999] = -1e-30
        with pytest.raises(DomainError, match="negative"):
            ErpImage.depth(data)


class TestFisheye:
    def test_on_axis_projects_to_principal_point(self, single_cam):
        p_cam_fwd = np.array([[0.0, 0.0, 5.0]])  # optical axis in camera=ego frame
        uv, ok = single_cam.project(p_cam_fwd)
        assert ok[0]
        np.testing.assert_allclose(uv, [[640.0, 640.0]], atol=1e-9)

    def test_behind_camera_misses(self, single_cam):
        # fov = pi, so anything with negative z_cam has theta > fov/2
        _, ok = single_cam.project(np.array([[0.0, 0.0, -5.0]]))
        assert not ok[0]

    def test_half_radian_incidence(self):
        cam = FisheyeCamera(1280, 1280, 400.0, (640.0, 640.0), math.pi)
        # theta=0.5 along +x azimuth: rho = 400*0.5 = 200
        p = np.array([[math.sin(0.5), 0.0, math.cos(0.5)]]) * 5.0
        uv, ok = cam.project(p)
        assert ok[0]
        np.testing.assert_allclose(uv, [[840.0, 640.0]], atol=1e-9)

    def test_unproject_principal_point(self, single_cam):
        np.testing.assert_allclose(single_cam.unproject([[640.0, 640.0]]), [[0.0, 0.0, 1.0]], atol=1e-12)

    def test_unproject_half_radian(self, single_cam):
        d = single_cam.unproject([[840.0, 640.0]])
        np.testing.assert_allclose(
            d, [[0.47942553860420300027, 0.0, 0.87758256189037271612]], atol=1e-12
        )

    def test_unproject_outside_fov_rejected(self, single_cam):
        with pytest.raises(DomainError):
            single_cam.unproject([[640.0 + 400.0 * math.pi / 2 + 1.0, 640.0]])

    def test_round_trip_1000_pixels(self, single_cam):
        rng = np.random.RandomState(2)
        # stay inside the image circle: theta < fov/2
        rho = rng.uniform(0, 400.0 * (math.pi / 2) * 0.999, 1000)
        psi = rng.uniform(-math.pi, math.pi, 1000)
        uv = np.stack([640.0 + rho * np.cos(psi), 640.0 + rho * np.sin(psi)], axis=1)
        dirs = single_cam.unproject(uv)
        for t in (0.5, 5.0, 50.0):
            back, ok = single_cam.project(dirs * t)
            assert ok.all()
            assert np.max(np.linalg.norm(back - uv, axis=1)) < 1e-6

    def test_unproject_parallel_to_projected_direction(self, single_cam):
        rng = np.random.RandomState(3)
        d = rng.normal(size=(200, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        d = d[d[:, 2] > 0.05]  # inside fov/2 = pi/2 with margin
        uv, ok = single_cam.project(d * 3.0)
        assert ok.all()
        back = single_cam.unproject(uv)
        # |back x d| = sin(angle), numerically sound near zero unlike
        # arccos of the dot product
        sin_angle = np.linalg.norm(np.cross(back, d), axis=1)
        assert np.max(sin_angle) < 1e-9
        assert np.all(np.sum(back * d, axis=1) > 0)

    def test_posed_camera_projects_in_its_own_frame(self):
        # camera at (1, 0, 0) looking along ego +y: columns of R are the
        # camera axes in ego coordinates
        r = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        pose = RigidTransform(r, np.array([1.0, 0.0, 0.0]))
        cam = FisheyeCamera(640, 640, 150.0, (320.0, 320.0), math.pi, pose=pose)
        uv, ok = cam.project(np.array([[1.0, 4.0, 0.0]]))
        assert ok[0]
        np.testing.assert_allclose(uv, [[320.0, 320.0]], atol=1e-9)

    def test_far_camera_projects_without_overflow(self):
        # camera-frame coordinates 1e160 m out square past f64 range; warnings are errors under pytest
        pose = RigidTransform(np.eye(3), np.array([1e160, 0.0, 0.0]))
        cam = FisheyeCamera(640, 640, 150.0, (320.0, 320.0), math.pi, pose=pose)
        uv, ok = cam.project(np.array([[1e160, 0.0, 5.0], [0.0, 0.0, 5.0], [0.0, 3.0, -2.0]]))
        np.testing.assert_array_equal(ok, [True, False, False])
        np.testing.assert_allclose(uv[0], [320.0, 320.0], atol=1e-9)
        assert np.isfinite(uv).all()

    @pytest.mark.parametrize("call", [
        lambda cam: cam.pose.apply([1.0, 2.0, 3.0]),
        lambda cam: cam.project([1.0, 2.0, 3.0]),
        lambda cam: cam.unproject([640.0, 640.0]),
    ], ids=["apply", "project", "unproject"])
    def test_lone_point_rejected(self, single_cam, call):
        # batches only: one point is a (1, 3) array, one pixel a (1, 2) array
        with pytest.raises(ShapeError):
            call(single_cam)

    def test_fov_bounds_enforced(self):
        with pytest.raises(DomainError):
            FisheyeCamera(64, 64, 10.0, (32.0, 32.0), math.pi + 0.36)

    def test_surround_rig_shape(self):
        rig = surround_rig()
        assert len(rig) == 6
        assert len({c.name for c in rig}) == 6
        # each camera's optical axis is horizontal and outward
        for i, cam in enumerate(rig):
            axis_ego = cam.pose.rotation @ np.array([0.0, 0.0, 1.0])
            yaw = 2 * math.pi * i / 6
            np.testing.assert_allclose(axis_ego, [math.cos(yaw), math.sin(yaw), 0.0], atol=1e-12)


class TestCloudType:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            LabeledPointCloud(np.zeros((3, 3)), np.zeros(2, dtype=np.uint8))

    def test_flat_coordinates_rejected(self):
        # six numbers are not silently read as two points
        with pytest.raises(ShapeError):
            LabeledPointCloud(np.zeros(6), np.zeros(2, dtype=np.uint8))

    def test_non_finite_rejected(self):
        pts = np.zeros((2, 3))
        pts[1, 0] = np.nan
        with pytest.raises(DomainError):
            LabeledPointCloud(pts, np.zeros(2, dtype=np.uint8))
