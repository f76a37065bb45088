"""Coloring and temporal-fusion tests.

Hit sets are validated against a per-camera scalar projection loop; the
averaging, alignment and fusion operations against their defining algebra
(exactness requirements included: constants survive bilinear sampling and
averaging bit-for-bit, lattice-aligned warps reduce to index shifts).
Alignment only interpolates where the history is non-zero, in row blocks,
and is compared bit-for-bit against a dense oracle that interpolates every
voxel center; fusion's block-by-block accumulation against one that widens
the whole lattice at once. Both also run on the same grid listing every
voxel, +0.0 rows included, and must give the same bits.
"""

import gc
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylocc import lift
from cylocc.errors import DomainError, ShapeError
from cylocc.geom import FisheyeCamera, RigidTransform, rot_z
from cylocc.grid import CUBOID, CYLINDRICAL, FeatureRows, GridSpec, VoxelGrid
from cylocc.lift import FeatureImage, align_history, bilinear_sample, build_hit_set, color_voxels, fuse_temporal
from cylocc.sketch import CandidateMask
from cylocc.synth import render_erp_depth

from conftest import bin_triple, sparse_features
from oracles import DEMO07_SCENE, dense_align_history, feature_rows, fuse_temporal_unblocked, zero_grid


def mask_with(spec, indices):
    occ = np.zeros(spec.dims, dtype=np.uint8)
    for i in indices:
        occ[tuple(i)] = 1
    return CandidateMask(VoxelGrid(spec, "occupancy", occ))


def constant_features(rig, value, channels=3, size=32):
    return [FeatureImage(cam.name, np.full((size, size, channels), value, dtype=np.float32)) for cam in rig]


class TestHitSet:
    def test_voxel_behind_monocular_camera_flagged(self, cyl_spec):
        cam = FisheyeCamera(640, 640, 180.0, (320.0, 320.0), math.pi, name="solo")
        # camera looks along +z ego (identity pose); a voxel far on -z side
        idx = bin_triple(cyl_spec, [5.0, 0.0, -2.0])
        mask = mask_with(cyl_spec, [idx])
        hits = build_hit_set(mask, [cam])
        assert len(hits) == 1
        assert hits.unhit[0]
        assert not hits.valid[hits.cameras.index("solo")][0]

    def test_on_axis_voxel_maps_to_principal_point(self, cyl_spec, rig6):
        cam = rig6[0]  # looks along +x ego
        idx = bin_triple(cyl_spec, [10.0, 0.0, 1.6])
        center = cyl_spec.index_to_center([np.ravel_multi_index(idx, cyl_spec.dims)])[0]
        # move the camera so the voxel center is exactly on its axis
        axis_cam = FisheyeCamera(
            cam.width, cam.height, cam.focal, cam.principal_point, cam.fov,
            pose=RigidTransform(cam.pose.rotation, center - cam.pose.rotation @ np.array([0.0, 0.0, 10.0])),
            name="axis",
        )
        hits = build_hit_set(mask_with(cyl_spec, [idx]), [axis_cam])
        assert not hits.unhit[0]
        k = hits.cameras.index("axis")
        assert hits.valid[k][0]
        np.testing.assert_allclose(hits.uv[k][0], [320.0 / 640, 320.0 / 640], atol=1e-9)

    def test_matches_scalar_projection_oracle(self, cyl_spec, rig6):
        rng = np.random.RandomState(21)
        idx = np.stack(
            [
                rng.randint(0, cyl_spec.dims[0], 300),
                rng.randint(0, cyl_spec.dims[1], 300),
                rng.randint(0, cyl_spec.dims[2], 300),
            ],
            axis=1,
        )
        idx = np.unique(idx, axis=0)
        mask = mask_with(cyl_spec, idx)
        hits = build_hit_set(mask, rig6)
        np.testing.assert_array_equal(hits.voxels, np.flatnonzero(mask.grid.data))
        order = {int(f): i for i, f in enumerate(hits.voxels)}
        for cam in rig6:
            k = hits.cameras.index(cam.name)
            for v in idx:
                flat = int(np.ravel_multi_index(tuple(v), cyl_spec.dims))
                (uv,), (ok,) = cam.project(cyl_spec.index_to_center([flat]))
                ok = bool(ok) and 0 <= uv[0] < cam.width and 0 <= uv[1] < cam.height
                row = order[flat]
                assert bool(hits.valid[k][row]) == ok
                if ok:
                    np.testing.assert_allclose(
                        hits.uv[k][row], [uv[0] / cam.width, uv[1] / cam.height], atol=1e-12
                    )

    def test_cameras_in_name_order(self, cyl_spec, rig6):
        rng = np.random.RandomState(28)
        idx = np.stack([rng.randint(10, 120, 200), rng.randint(0, 200, 200), rng.randint(0, 16, 200)], axis=1)
        mask = mask_with(cyl_spec, idx)
        a = build_hit_set(mask, rig6)
        assert list(a.cameras) == sorted(cam.name for cam in rig6)
        assert a.valid.shape == (6, len(a)) and a.uv.shape == (6, len(a), 2)
        assert a.hit_counts.dtype == np.int64
        b = build_hit_set(mask, [rig6[i] for i in rng.permutation(6)])
        assert b.cameras == a.cameras
        np.testing.assert_array_equal(b.valid, a.valid)
        np.testing.assert_array_equal(b.uv, a.uv)

    def test_duplicate_camera_names_rejected(self, cyl_spec):
        cam = FisheyeCamera(64, 64, 20.0, (32.0, 32.0), math.pi, name="dup")
        with pytest.raises(DomainError):
            build_hit_set(mask_with(cyl_spec, [(1, 1, 1)]), [cam, cam])


class TestBilinear:
    def test_exact_pixel_center(self):
        rng = np.random.RandomState(22)
        img = FeatureImage("c", rng.rand(8, 8, 2).astype(np.float32))
        # normalized coordinate of pixel center (3, 5): ((5+0.5)/8, (3+0.5)/8)
        out = bilinear_sample(img, np.array([[5.5 / 8, 3.5 / 8]]))
        np.testing.assert_array_equal(out[0], img.data[3, 5].astype(np.float64))

    def test_midpoint_average(self):
        data = np.zeros((2, 2, 1), dtype=np.float32)
        data[0, 0] = 1.0
        data[0, 1] = 3.0
        img = FeatureImage("c", data)
        # halfway between pixels (0,0) and (0,1): x node coord 0.5
        out = bilinear_sample(img, np.array([[0.5, 0.25]]))
        assert out[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_constant_image_exact(self):
        img = FeatureImage("c", np.full((16, 16, 4), 0.1, dtype=np.float32))
        rng = np.random.RandomState(23)
        uv = rng.rand(200, 2)
        out = bilinear_sample(img, uv)
        assert np.all(out == np.float64(np.float32(0.1)))

    def test_matches_float64_scalar_loop(self):
        # the float32 corners are widened before any arithmetic, as if the raster were float64
        rng = np.random.RandomState(37)
        data = rng.uniform(-4.0, 4.0, (9, 13, 3)).astype(np.float32)
        uv = np.concatenate([rng.rand(300, 2), [[0.0, 0.0], [1.0, 1.0], [0.999, 0.001]]])
        assert_matches_scalar_loop(data, uv)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_one_node_axes_match_scalar_loop(self, shape):
        # the kernel wraps a one-node axis's second node back to the node itself at
        # t = 0, and the loop clamps to it: the lerp gives a + 0 * (a - a) either way
        rng = np.random.RandomState(38)
        data = rng.uniform(-4.0, 4.0, shape + (3,)).astype(np.float32)
        data[rng.rand(*data.shape) < 0.4] = -0.0
        uv = np.concatenate([rng.uniform(-0.5, 1.5, (200, 2)), [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]])
        assert_matches_scalar_loop(data, uv)

    @pytest.mark.parametrize("shape", [(0, 4, 2), (4, 0, 2), (4, 4, 0), (0, 4)], ids=str)
    def test_empty_raster_rejected(self, shape):
        with pytest.raises(ShapeError):
            FeatureImage("c", np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_coordinates_rejected(self, bad, axis):
        uv = np.full((3, 2), 0.5)
        uv[1, axis] = bad
        with pytest.raises(DomainError, match="finite"):
            bilinear_sample(FeatureImage("c", np.ones((4, 4, 2), dtype=np.float32)), uv)


def assert_matches_scalar_loop(data, uv):
    """bilinear_sample against a float64 scalar loop that clamps both nodes to the raster."""
    got = bilinear_sample(FeatureImage("c", data), uv)
    h, w = data.shape[:2]
    f = data.astype(np.float64)
    for (u, v), row in zip(uv, got):
        x = min(max(u * w - 0.5, 0.0), w - 1.0)
        y = min(max(v * h - 0.5, 0.0), h - 1.0)
        x0, y0 = min(math.floor(x), max(w - 2, 0)), min(math.floor(y), max(h - 2, 0))
        x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
        tx, ty = x - x0, y - y0
        top = f[y0, x0] + tx * (f[y0, x1] - f[y0, x0])
        bot = f[y1, x0] + tx * (f[y1, x1] - f[y1, x0])
        np.testing.assert_array_equal(row.view(np.uint64), (top + ty * (bot - top)).view(np.uint64))


class TestColorVoxels:
    def test_constant_images_give_exact_k(self, cyl_spec, rig6):
        rng = np.random.RandomState(24)
        idx = np.stack(
            [rng.randint(20, 100, 200), rng.randint(0, 200, 200), rng.randint(0, 16, 200)], axis=1
        )
        mask = mask_with(cyl_spec, idx)
        hits = build_hit_set(mask, rig6)
        for k in (0.5, 1.25, -3.0, 0.1):
            grid = color_voxels(hits, constant_features(rig6, k))
            rows = grid.dense().reshape(-1, grid.channels)
            got = rows[hits.voxels[~hits.unhit]]
            assert np.all(got == np.float32(k))
            assert not rows[hits.voxels[hits.unhit]].any()

    def test_two_camera_average(self, cyl_spec):
        cam_a = FisheyeCamera(64, 64, 18.0, (32.0, 32.0), math.pi, name="a")
        r = rot_z(math.pi)  # looks along -x... rotation about z keeps +z axis
        cam_b = FisheyeCamera(64, 64, 18.0, (32.0, 32.0), math.pi, pose=RigidTransform(r, np.zeros(3)), name="b")
        idx = bin_triple(cyl_spec, [0.5, 0.5, 2.0])
        mask = mask_with(cyl_spec, [idx])
        hits = build_hit_set(mask, [cam_a, cam_b])
        assert hits.hit_counts[0] == 2
        feats = [
            FeatureImage("a", np.full((8, 8, 1), 1.0, dtype=np.float32)),
            FeatureImage("b", np.full((8, 8, 1), 3.0, dtype=np.float32)),
        ]
        grid = color_voxels(hits, feats)
        assert grid.dense()[tuple(idx)][0] == pytest.approx(2.0, abs=1e-12)

    def test_rig_permutation_invariance(self, cyl_spec, rig6):
        rng = np.random.RandomState(25)
        idx = np.stack(
            [rng.randint(10, 120, 300), rng.randint(0, 200, 300), rng.randint(0, 16, 300)], axis=1
        )
        mask = mask_with(cyl_spec, idx)
        feats = [FeatureImage(cam.name, rng.rand(24, 24, 3).astype(np.float32)) for cam in rig6]
        a = color_voxels(build_hit_set(mask, rig6), feats)
        for rig in (rig6[::-1], [rig6[i] for i in rng.permutation(6)], [rig6[i] for i in rng.permutation(6)]):
            np.testing.assert_array_equal(color_voxels(build_hit_set(mask, rig), feats).dense(), a.dense())

    def test_channel_mismatch_rejected(self, cyl_spec, rig6):
        mask = mask_with(cyl_spec, [(50, 50, 8)])
        feats = constant_features(rig6, 1.0, channels=3)
        feats[0] = FeatureImage(rig6[0].name, np.zeros((8, 8, 2), dtype=np.float32))
        with pytest.raises(ShapeError):
            color_voxels(build_hit_set(mask, rig6), feats)

    def test_missing_camera_rejected(self, cyl_spec, rig6):
        mask = mask_with(cyl_spec, [(50, 50, 8)])
        feats = constant_features(rig6[:-1], 1.0)
        with pytest.raises(DomainError):
            color_voxels(build_hit_set(mask, rig6), feats)

    def test_unhit_voxels_stay_listed_as_zero_rows(self, cyl_spec, rig6):
        rng = np.random.RandomState(46)
        idx = np.stack([rng.randint(10, 120, 300), rng.randint(0, 200, 300), rng.randint(0, 16, 300)], axis=1)
        hits = build_hit_set(mask_with(cyl_spec, idx), rig6[:2])  # two cameras leave voxels unseen
        feats = [FeatureImage(cam.name, rng.rand(24, 24, 3).astype(np.float32)) for cam in rig6[:2]]
        rows = color_voxels(hits, feats)
        np.testing.assert_array_equal(rows.voxels, hits.voxels)
        assert hits.unhit.any() and not rows.rows[hits.unhit].any()


def random_feature_grid(spec, rng, channels=3):
    return feature_rows(spec, rng.rand(*spec.dims, channels).astype(np.float32))


class TestAlignHistory:
    def test_identity_pose_is_exact(self, cyl_spec):
        rng = np.random.RandomState(26)
        hist = random_feature_grid(cyl_spec, rng)
        t = RigidTransform(rot_z(0.3), np.array([1.0, -2.0, 0.5]))
        out = align_history(hist, t, t)
        np.testing.assert_array_equal(out.dense(), hist.dense())

    def test_one_bin_z_shift_is_index_shift(self, cyl_spec):
        rng = np.random.RandomState(27)
        hist = random_feature_grid(cyl_spec, rng)
        # current ego sits 0.4 m below the historical ego: current voxel
        # center p maps to p' = p + (0,0,0.4) in the historical frame
        t_hist = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.0]))
        t_curr = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.4]))
        out = align_history(hist, t_hist, t_curr)
        np.testing.assert_array_equal(out.dense()[:, :, :-1], hist.dense()[:, :, 1:])
        assert not out.dense()[:, :, -1].any()  # boundary layer zero-filled

    def test_double_warp_error_bounded_by_second_differences(self, cyl_spec):
        # smooth low-frequency field: interpolation error is O(h^2 f'')
        d0, d1, d2 = cyl_spec.dims
        i0, i1, i2 = np.meshgrid(np.arange(d0), np.arange(d1), np.arange(d2), indexing="ij")
        field = (
            np.sin(2 * math.pi * i0 / d0) * np.cos(2 * math.pi * i1 / d1)
            + 0.3 * np.sin(2 * math.pi * i2 / d2)
        ).astype(np.float32)[..., None]
        hist = feature_rows(cyl_spec, field)
        t_a = RigidTransform(rot_z(0.011), np.array([0.03, -0.02, 0.05]))
        t_b = RigidTransform(np.eye(3), np.zeros(3))
        once = align_history(hist, t_a, t_b)
        back = align_history(once, t_b, t_a)
        sd = (
            np.abs(np.diff(field[..., 0], n=2, axis=0)).max()
            + np.abs(np.diff(field[..., 0], n=2, axis=1)).max()
            + np.abs(np.diff(field[..., 0], n=2, axis=2)).max()
        )
        interior = np.s_[8:-8, :, 2:-2]
        err = np.abs(back.dense()[..., 0][interior] - field[..., 0][interior]).max()
        assert err <= sd

    def test_constant_in_theta_invariant_under_yaw(self, cyl_spec):
        rng = np.random.RandomState(28)
        profile = rng.rand(cyl_spec.dims[0], 1, cyl_spec.dims[2], 2).astype(np.float32)
        field = np.repeat(profile, cyl_spec.dims[1], axis=1)
        hist = feature_rows(cyl_spec, field)
        for yaw in (0.013, 0.5, 2.0):
            out = align_history(hist, RigidTransform(rot_z(yaw), np.zeros(3)), RigidTransform.identity())
            assert np.max(np.abs(out.dense() - field)) < 1e-6

    def test_out_of_range_zeroed(self, cyl_spec):
        hist = feature_rows(cyl_spec, np.ones(cyl_spec.dims + (1,), dtype=np.float32))
        # shift by more than the whole z range: everything out of range
        t_curr = RigidTransform(np.eye(3), np.array([0.0, 0.0, 10.0]))
        out = align_history(hist, RigidTransform.identity(), t_curr)
        assert not out.dense().any()


PI32 = float(np.float32(math.pi))  # decoded OVOX specs carry f32-rounded ranges
SMALL_SPECS = {
    "cylindrical": GridSpec(CYLINDRICAL, (12, 16, 6), ((0.0, 6.0), (-math.pi, math.pi), (-1.0, 1.4))),
    "cylindrical_f32": GridSpec(CYLINDRICAL, (12, 16, 6), ((0.0, 6.0), (-PI32, PI32), (-1.0, 1.4))),
    "cuboid": GridSpec("cuboid", (10, 8, 6), ((-2.0, 3.0), (-1.6, 1.6), (-1.0, 1.4))),
}


def sparse_history(spec, rng, frac, channels=3):
    data = np.zeros(spec.dims + (channels,), dtype=np.float32)
    hit = rng.rand(*spec.dims) < frac
    data[hit] = rng.rand(int(hit.sum()), channels)
    return data


def history_data(spec, case):
    rng = np.random.RandomState(34)
    d0, d1, d2 = spec.dims
    data = np.zeros(spec.dims + (3,), dtype=np.float32)
    if case == "dense":
        data = rng.rand(*spec.dims, 3).astype(np.float32)
    elif case == "sparse":
        data = sparse_history(spec, rng, 0.05)
    elif case == "seam":
        data[:, [0, d1 - 1]] = rng.rand(d0, 2, d2, 3)
    elif case == "r_bin_0":
        data[0] = rng.rand(d1, d2, 3)
    elif case == "edges":
        data[[0, d0 - 1], :, 1] = rng.rand(2, d1, 3)
        data[d0 // 2, :, [0, d2 - 1]] = rng.rand(2, d1, 3)
    elif case == "negative_zero":
        data = sparse_history(spec, rng, 0.05)
        data[rng.rand(*spec.dims) < 0.3] = -0.0
    return data


def align_poses(spec):
    dz = spec.deltas[2]
    return {
        "identity": (RigidTransform.identity(), RigidTransform.identity()),
        "z_shift": (RigidTransform.identity(), RigidTransform(np.eye(3), np.array([0.0, 0.0, dz]))),
        "yaw_across_seam": (RigidTransform(rot_z(math.pi - 0.1), np.zeros(3)), RigidTransform(rot_z(-0.05), np.zeros(3))),
        "out_of_range": (RigidTransform.identity(), RigidTransform(rot_z(0.2), np.array([2.5, -1.0, 0.9]))),
        # lands a rounding error below node 0, which snaps to -0.0
        "sub_snap_shift": (RigidTransform.identity(), RigidTransform(np.eye(3), np.full(3, -1e-12))),
    }


def listing_every_voxel(rows):
    """The same grid with every voxel listed, +0.0 rows included."""
    return FeatureRows(rows.spec, np.arange(rows.spec.num_voxels), rows.dense().reshape(rows.spec.num_voxels, -1))


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype == np.float32
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestAlignMatchesDense:
    @pytest.mark.parametrize("pose", ["identity", "z_shift", "yaw_across_seam", "out_of_range", "sub_snap_shift"])
    @pytest.mark.parametrize("case", ["zero", "dense", "sparse", "seam", "r_bin_0", "edges", "negative_zero"])
    @pytest.mark.parametrize("spec_name", sorted(SMALL_SPECS))
    def test_bit_identical(self, spec_name, case, pose):
        spec = SMALL_SPECS[spec_name]
        hist = feature_rows(spec, history_data(spec, case))
        t_hist, t_curr = align_poses(spec)[pose]
        with mock.patch.object(lift, "_multilinear", wraps=lift._multilinear) as kernel:
            got = align_history(hist, t_hist, t_curr)
        # every node lies on the padded lattice: a negative node would read the far end without an error
        for call in kernel.call_args_list:
            _, dims, base, t = call.args
            for k, (b, d) in enumerate(zip(base, dims)):
                if k not in call.kwargs["wrap"]:
                    assert np.all(b >= 0) and np.all(b + (t[k] is not None) < d)
        want = dense_align_history(hist, t_hist, t_curr)
        # the same grid listing every voxel, +0.0 rows included, aligns to the same bits
        for out in (got, align_history(listing_every_voxel(hist), t_hist, t_curr)):
            assert np.all(np.diff(out.voxels) > 0)
            assert_bits_equal(out.dense(), want)

    def test_negative_zero_history_keeps_its_sign(self):
        spec = SMALL_SPECS["cuboid"]
        hist = feature_rows(spec, np.full(spec.dims + (2,), -0.0, dtype=np.float32))
        t_hist, t_curr = align_poses(spec)["sub_snap_shift"]
        want = dense_align_history(hist, t_hist, t_curr)
        assert np.signbit(want).any()
        assert_bits_equal(align_history(hist, t_hist, t_curr).dense(), want)

    @settings(max_examples=80, deadline=None)
    @given(
        spec_name=st.sampled_from(sorted(SMALL_SPECS)),
        case=st.sampled_from(["sparse", "negative_zero"]),
        yaw=st.floats(-math.pi, math.pi),
        tilt=st.floats(-0.1, 0.1),
        shift=st.tuples(*[st.floats(-1.5, 1.5)] * 3),
    )
    def test_small_poses_bit_identical(self, spec_name, case, yaw, tilt, shift):
        spec = SMALL_SPECS[spec_name]
        hist = feature_rows(spec, history_data(spec, case))
        c, s = math.cos(tilt), math.sin(tilt)
        tilt_x = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        t_hist = RigidTransform(rot_z(yaw) @ tilt_x, np.array(shift))
        t_curr = RigidTransform.identity()
        assert_bits_equal(align_history(hist, t_hist, t_curr).dense(), dense_align_history(hist, t_hist, t_curr))

    def test_default_lattice_sparse_history(self, cyl_spec):
        rng = np.random.RandomState(35)
        hist = feature_rows(cyl_spec, sparse_history(cyl_spec, rng, 0.06, channels=16))
        t_hist = RigidTransform(rot_z(0.3), np.array([1.2, -0.7, 0.1]))
        got = align_history(hist, t_hist, RigidTransform.identity())
        # every non-zero output row is a supported row: they fill several blocks
        assert np.count_nonzero(got.dense().reshape(-1, 16).any(axis=1)) > 3 * lift._ALIGN_BLOCK
        assert_bits_equal(got.dense(), dense_align_history(hist, t_hist, RigidTransform.identity()))

    @pytest.mark.parametrize("case,block", [("negative_zero", 1), ("negative_zero", 7), ("dense", 7), ("dense", 64)])
    @pytest.mark.parametrize("pose", ["yaw_across_seam", "sub_snap_shift"])
    @pytest.mark.parametrize("spec_name", sorted(SMALL_SPECS))
    def test_small_blocks_bit_identical(self, spec_name, pose, case, block):
        spec = SMALL_SPECS[spec_name]
        hist = feature_rows(spec, history_data(spec, case))
        t_hist, t_curr = align_poses(spec)[pose]
        with mock.patch.object(lift, "_ALIGN_BLOCK", block):
            got = align_history(hist, t_hist, t_curr)
        assert np.count_nonzero(got.dense().reshape(-1, 3).any(axis=1)) > 2 * block
        assert_bits_equal(got.dense(), dense_align_history(hist, t_hist, t_curr))

    @settings(max_examples=60, deadline=None)
    @given(
        spec_name=st.sampled_from(sorted(SMALL_SPECS)),
        case=st.sampled_from(["sparse", "negative_zero"]),
        yaw=st.floats(-math.pi, math.pi),
        shift=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        z_kind=st.sampled_from(["zero", "layers", "uniform"]),
        layers=st.integers(-3, 3),
        z=st.floats(-1.5, 1.5),
    )
    def test_planar_poses_bit_identical(self, spec_name, case, yaw, shift, z_kind, layers, z):
        spec = SMALL_SPECS[spec_name]
        hist = feature_rows(spec, history_data(spec, case))
        dz = {"zero": 0.0, "layers": layers * spec.deltas[2], "uniform": z}[z_kind]
        t_hist = RigidTransform(rot_z(yaw), np.array([*shift, dz]))
        t_curr = RigidTransform.identity()
        assert_bits_equal(align_history(hist, t_hist, t_curr).dense(), dense_align_history(hist, t_hist, t_curr))

    @pytest.mark.parametrize("case,fixed", [("sparse", (False, False, True)), ("negative_zero", (False, False, False))])
    @pytest.mark.parametrize("spec_name", sorted(SMALL_SPECS))
    def test_whole_layer_shift_reads_one_z_node_without_signed_zeros(self, spec_name, case, fixed):
        spec = SMALL_SPECS[spec_name]
        hist = feature_rows(spec, history_data(spec, case))
        t_hist = RigidTransform(rot_z(0.3), np.array([0.4, -0.2, 2 * spec.deltas[2]]))
        t_curr = RigidTransform.identity()
        with mock.patch.object(lift, "_multilinear", wraps=lift._multilinear) as kernel:
            got = align_history(hist, t_hist, t_curr)
        assert kernel.call_count > 0
        for call in kernel.call_args_list:
            assert tuple(tk is None for tk in call.args[3]) == fixed
        assert_bits_equal(got.dense(), dense_align_history(hist, t_hist, t_curr))

    @pytest.mark.parametrize("case", ["dense", "negative_zero"])
    @pytest.mark.parametrize("spec_name", sorted(SMALL_SPECS))
    def test_nearly_planar_pose_warps_every_center(self, spec_name, case):
        spec = SMALL_SPECS[spec_name]
        hist = feature_rows(spec, history_data(spec, case))
        rot = np.eye(3)
        rot[2, 2] = 1.0 - 2.0**-53
        t_hist, t_curr = RigidTransform.identity(), RigidTransform(rot, np.array([0.3, 0.1, spec.deltas[2]]))
        with mock.patch.object(RigidTransform, "apply", autospec=True, side_effect=RigidTransform.apply) as warp:
            got = align_history(hist, t_hist, t_curr)
        assert max(len(call.args[1]) for call in warp.call_args_list) == spec.num_voxels
        assert_bits_equal(got.dense(), dense_align_history(hist, t_hist, t_curr))

    def test_default_lattice_planar_xy_shift(self, cyl_spec):
        rng = np.random.RandomState(37)
        hist = feature_rows(cyl_spec, sparse_history(cyl_spec, rng, 0.06, channels=16))
        t_hist = RigidTransform(rot_z(-0.04), np.array([0.6, 0.03, 0.0]))
        got = align_history(hist, t_hist, RigidTransform.identity())
        assert len(got.voxels) < cyl_spec.num_voxels // 2
        assert_bits_equal(got.dense(), dense_align_history(hist, t_hist, RigidTransform.identity()))

    @pytest.mark.parametrize("tilt", [0.0, 0.05])
    def test_never_builds_the_center_table(self, tilt):
        spec = GridSpec(CYLINDRICAL, (12, 16, 6), ((0.0, 6.0), (-math.pi, math.pi), (-1.0, 1.4)))
        hist = feature_rows(spec, history_data(spec, "sparse"))
        c, s = math.cos(tilt), math.sin(tilt)
        t_hist = RigidTransform(rot_z(0.7) @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]), np.array([0.5, 0.2, 0.1]))
        sizes = []
        centers = GridSpec.index_to_center

        def recording(self, flat):
            sizes.append(len(flat))
            return centers(self, flat)

        with mock.patch.object(GridSpec, "index_to_center", recording):
            align_history(hist, t_hist, RigidTransform.identity())
        assert sizes and max(sizes) < spec.num_voxels

    def test_default_lattice_peak_memory(self, cyl_spec):
        rng = np.random.RandomState(36)
        hist = feature_rows(cyl_spec, sparse_history(cyl_spec, rng, 0.06, channels=16))
        t_hist = RigidTransform(rot_z(0.3), np.array([1.2, -0.7, 0.1]))
        tracemalloc.start()
        try:
            align_history(hist, t_hist, RigidTransform.identity())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


# 9,061 voxels: not a multiple of the fusion block
ODD_SPEC = GridSpec(CUBOID, (13, 17, 41), ((0.0, 1.3), (0.0, 1.7), (0.0, 4.1)))


class TestFuseTemporal:
    def test_no_history_returns_current(self, cyl_spec):
        rng = np.random.RandomState(29)
        curr = random_feature_grid(cyl_spec, rng)
        out = fuse_temporal(curr, [])
        np.testing.assert_array_equal(out.dense(), curr.dense())

    def test_average_of_equals_is_identity(self, cyl_spec):
        rng = np.random.RandomState(30)
        curr = random_feature_grid(cyl_spec, rng)
        out = fuse_temporal(curr, [feature_rows(cyl_spec, curr.dense().copy())])
        np.testing.assert_array_equal(out.dense(), curr.dense())

    def test_three_zero_histories_quarter(self, cyl_spec):
        rng = np.random.RandomState(31)
        curr = random_feature_grid(cyl_spec, rng, channels=2)
        zeros = [feature_rows(cyl_spec, np.zeros(cyl_spec.dims + (2,), np.float32)) for _ in range(3)]
        out = fuse_temporal(curr, zeros)
        np.testing.assert_allclose(out.dense(), curr.dense() / 4.0, atol=1e-7)

    def test_linearity_in_scale(self, cyl_spec):
        rng = np.random.RandomState(32)
        curr = random_feature_grid(cyl_spec, rng)
        hists = [random_feature_grid(cyl_spec, rng) for _ in range(2)]
        a = fuse_temporal(curr, hists)
        scaled = fuse_temporal(
            feature_rows(cyl_spec, curr.dense() * 2.0),
            [feature_rows(cyl_spec, h.dense() * 2.0) for h in hists],
        )
        np.testing.assert_allclose(scaled.dense(), a.dense() * 2.0, atol=1e-6)

    def test_spec_mismatch_rejected(self, cyl_spec):
        rng = np.random.RandomState(33)
        curr = random_feature_grid(cyl_spec, rng)
        other = GridSpec("cuboid", (4, 4, 4), ((0, 1), (0, 1), (0, 1)))
        with pytest.raises(ShapeError):
            fuse_temporal(curr, [feature_rows(other, np.zeros(other.dims + (3,), np.float32))])

    def test_mismatched_rows_rejected(self, cyl_spec):
        curr = random_feature_grid(ODD_SPEC, np.random.RandomState(49))
        with pytest.raises(ShapeError):
            fuse_temporal(curr, [FeatureRows(ODD_SPEC, np.array([3]), np.ones((1, 2), dtype=np.float32))])
        with pytest.raises(ShapeError):
            fuse_temporal(curr, [FeatureRows(cyl_spec, np.array([3]), np.ones((1, 3), dtype=np.float32))])


def awkward_features(spec, rng, channels=3):
    """Random features salted with -0.0, +0.0 and f32 subnormals."""
    data = rng.uniform(-1.0, 1.0, spec.dims + (channels,)).astype(np.float32)
    specials = np.array([-0.0, 0.0, 1e-45, -1e-45, 1e-40, -3e-39, 1.1754942e-38], dtype=np.float32)
    pick = rng.rand(*data.shape) < 0.3
    data[pick] = rng.choice(specials, int(pick.sum()))
    return data


def thinned(data, rng, keep):
    """data with about 1 - keep of its voxel rows set to +0.0, so supports differ between inputs."""
    data = data.copy()
    data[rng.rand(*data.shape[:3]) >= keep] = 0.0
    return data


class TestFuseBlocks:
    """fuse_temporal accumulates one block of voxel rows at a time; the
    oracle widens the whole lattice at once. The bits agree."""

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_matches_unblocked(self, n):
        assert ODD_SPEC.num_voxels % lift._FUSE_BLOCK != 0
        rng = np.random.RandomState(40 + n)
        curr = feature_rows(ODD_SPEC, awkward_features(ODD_SPEC, rng))
        hists = [feature_rows(ODD_SPEC, awkward_features(ODD_SPEC, rng)) for _ in range(n)]
        if n:
            # on every other voxel the first history cancels curr to signed zeros
            data = hists[0].dense().copy()
            data[::2] = -curr.dense()[::2]
            hists[0] = feature_rows(ODD_SPEC, data)
        want = fuse_temporal_unblocked(curr, hists)
        assert_bits_equal(fuse_temporal(curr, hists).dense(), want)

    def test_signed_zeros_and_subnormals_kept(self):
        data = np.zeros(ODD_SPEC.dims + (2,), dtype=np.float32)
        flat = data.reshape(-1)
        flat[::3] = -0.0
        flat[1::7] = 1e-45
        curr = feature_rows(ODD_SPEC, data)
        got = fuse_temporal(curr, [feature_rows(ODD_SPEC, data.copy())])
        assert np.signbit(got.dense()).any() and (got.dense().reshape(-1) == np.float32(1e-45)).any()
        assert_bits_equal(got.dense(), fuse_temporal_unblocked(curr, [feature_rows(ODD_SPEC, data.copy())]))

    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("block", [lift._FUSE_BLOCK, 5])
    def test_thinned_rows_match_unblocked(self, n, block):
        rng = np.random.RandomState(48 + n)
        curr = feature_rows(ODD_SPEC, thinned(awkward_features(ODD_SPEC, rng), rng, 0.4))
        hists = [feature_rows(ODD_SPEC, thinned(awkward_features(ODD_SPEC, rng), rng, 0.4)) for _ in range(n)]
        if n:
            # on every other voxel the first history cancels curr to signed zeros, or meets a -0.0 curr row
            data = hists[0].dense().copy()
            data[::2] = -curr.dense()[::2]
            data[1::4] = -0.0
            hists[0] = feature_rows(ODD_SPEC, data)
        want = fuse_temporal_unblocked(curr, hists)
        with mock.patch.object(lift, "_FUSE_BLOCK", block):
            got = fuse_temporal(curr, hists)
            listed = fuse_temporal(listing_every_voxel(curr), hists)
        assert np.signbit(want).any()
        assert_bits_equal(got.dense(), want)
        assert_bits_equal(listed.dense(), want)


PLANAR_STEP = RigidTransform(rot_z(0.05), np.array([0.4, -0.1, 0.0]))
TILTED_STEP = RigidTransform(rot_z(-0.03) @ np.array([[1.0, 0.0, 0.0], [0.0, 0.8, -0.6], [0.0, 0.6, 0.8]]),
                             np.array([0.3, 0.05, 0.1]))


class TestRowsFramePath:
    """The frame path keeps its history as FeatureRows from frame to frame:
    each step returns rows, and every frame matches the dense oracle chain."""

    @pytest.mark.parametrize("spec_name", sorted(SMALL_SPECS))
    def test_frames_match_dense_chain(self, spec_name):
        spec = SMALL_SPECS[spec_name]
        rng = np.random.RandomState(50)
        start = sparse_features(spec, rng, 0.1, 3)
        assert np.signbit(start).any()
        hist = want = feature_rows(spec, start)
        pose = RigidTransform.identity()
        for frame in range(8):
            t_hist, pose = pose, pose.compose(PLANAR_STEP if frame % 2 == 0 else TILTED_STEP)
            curr = feature_rows(spec, thinned(rng.rand(*spec.dims, 3).astype(np.float32), rng, 0.15))
            hist = fuse_temporal(curr, [align_history(hist, t_hist, pose)])
            aligned = feature_rows(spec, dense_align_history(want, t_hist, pose))
            want = feature_rows(spec, fuse_temporal_unblocked(curr, [aligned]))
            assert isinstance(hist, FeatureRows)
            assert_bits_equal(hist.dense(), want.dense())

    def test_every_step_returns_rows(self, cyl_spec, rig6):
        hits = build_hit_set(mask_with(cyl_spec, [(40, 10, 3), (60, 120, 8), (90, 199, 15)]), rig6)
        colored = color_voxels(hits, constant_features(rig6, 0.5))
        t_hist = RigidTransform(rot_z(0.2), np.array([0.3, 0.0, 0.0]))
        outs = [colored]
        for hist in (colored, listing_every_voxel(colored)):
            outs += [align_history(hist, t_hist, RigidTransform.identity()), fuse_temporal(hist, [hist])]
        assert all(isinstance(out, FeatureRows) for out in outs)

    @pytest.mark.parametrize("kind", ["label", "occupancy"])
    def test_non_feature_grid_rejected(self, cyl_spec, kind):
        # FeatureRows alone: a label or occupancy grid, or a bare dense array, is refused
        grid = zero_grid(cyl_spec, kind)
        feature = feature_rows(cyl_spec, np.zeros(cyl_spec.dims + (2,), np.float32))
        for hist in (grid, feature.dense()):
            with pytest.raises(DomainError):
                align_history(hist, RigidTransform.identity(), RigidTransform.identity())
        for curr, aligned in ((grid, []), (feature, [grid]), (feature, [feature, grid]), (feature.dense(), [feature])):
            with pytest.raises(DomainError):
                fuse_temporal(curr, aligned)

    def test_default_lattice_peak_memory(self, cyl_spec):
        # 16 channels on about 6% of the lattice and a planar step, as a frame sees them: the bound
        # leaves no room for one 26 MB dense grid. A -0.0 row would make align interpolate along every axis.
        data = sparse_features(cyl_spec, np.random.RandomState(51), 0.06, 16, negative_zero=False)
        hist = feature_rows(cyl_spec, data)
        del data
        t_hist = RigidTransform(rot_z(0.03), np.array([0.6, 0.02, 0.0]))
        tracemalloc.start()
        try:
            fused = fuse_temporal(hist, [align_history(hist, t_hist, RigidTransform.identity())])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(fused, FeatureRows) and len(fused.voxels) < cyl_spec.num_voxels // 2
        assert peak < 20 * 2**20


class TestNoReferenceCycles:
    """The frame kernels leave no garbage for the cycle collector: a cycle
    would keep a block's index and mask arrays alive until the collector
    runs, and raise the frame path's peak memory. Alignment and fusion run
    once on the set rows and once on rows listing every voxel (the _every_voxel cases)."""

    @pytest.mark.parametrize("kernel", ["bilinear_sample", "color_voxels", "align_history", "fuse_temporal",
                                        "render_erp_depth", "align_every_voxel", "fuse_every_voxel"])
    def test_no_cycles(self, kernel, cyl_spec, rig6):
        rng = np.random.RandomState(45)
        hist = feature_rows(ODD_SPEC, awkward_features(ODD_SPEC, rng))
        cyl = SMALL_SPECS["cylindrical"]
        cyl_hist = feature_rows(cyl, history_data(cyl, "seam"))
        hits = build_hit_set(mask_with(cyl_spec, [(40, 10, 3), (60, 120, 8), (90, 199, 15)]), rig6)
        feats = [FeatureImage(cam.name, rng.rand(16, 16, 3).astype(np.float32)) for cam in rig6]
        pose = RigidTransform(rot_z(0.4), np.array([0.7, -0.3, 0.2]))
        calls = {
            "bilinear_sample": lambda: bilinear_sample(feats[0], rng.uniform(-0.2, 1.2, (500, 2))),
            "color_voxels": lambda: color_voxels(hits, feats),
            "align_history": lambda: align_history(cyl_hist, pose, RigidTransform.identity()),
            "fuse_temporal": lambda: fuse_temporal(hist, [hist, hist]),
            "align_every_voxel": lambda: align_history(listing_every_voxel(cyl_hist), pose, RigidTransform.identity()),
            "fuse_every_voxel": lambda: fuse_temporal(listing_every_voxel(hist), [hist] * 2),
            "render_erp_depth": lambda: render_erp_depth(DEMO07_SCENE, 64, 32, pose),
        }
        gc.collect()
        gc.disable()
        try:
            calls[kernel]()
            assert gc.collect() == 0
        finally:
            gc.enable()
