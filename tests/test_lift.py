"""Coloring and temporal-fusion tests.

Hit sets are validated against a per-camera scalar projection loop; the
averaging, alignment and fusion operations against their defining algebra
(exactness requirements included: constants survive bilinear sampling and
averaging bit-for-bit, lattice-aligned warps reduce to index shifts).
Alignment only interpolates where the history is non-zero, and is compared
bit-for-bit against a dense oracle that interpolates every voxel center.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylocc.errors import DomainError, ShapeError
from cylocc.geom import FisheyeCamera, RigidTransform, rot_z
from cylocc.grid import CYLINDRICAL, GridSpec, VoxelGrid
from cylocc.lift import (
    FeatureImage,
    align_history,
    bilinear_sample,
    build_hit_set,
    color_voxels,
    fuse_temporal,
)
from cylocc.sketch import CandidateMask

from conftest import bin_triple


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
            rows = grid.data.reshape(-1, grid.channels)
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
        assert grid.data[tuple(idx)][0] == pytest.approx(2.0, abs=1e-12)

    def test_rig_permutation_invariance(self, cyl_spec, rig6):
        rng = np.random.RandomState(25)
        idx = np.stack(
            [rng.randint(10, 120, 300), rng.randint(0, 200, 300), rng.randint(0, 16, 300)], axis=1
        )
        mask = mask_with(cyl_spec, idx)
        feats = [FeatureImage(cam.name, rng.rand(24, 24, 3).astype(np.float32)) for cam in rig6]
        a = color_voxels(build_hit_set(mask, rig6), feats)
        for rig in (rig6[::-1], [rig6[i] for i in rng.permutation(6)], [rig6[i] for i in rng.permutation(6)]):
            np.testing.assert_array_equal(color_voxels(build_hit_set(mask, rig), feats).data, a.data)

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


def random_feature_grid(spec, rng, channels=3):
    return VoxelGrid(spec, "feature", rng.rand(*spec.dims, channels).astype(np.float32))


class TestAlignHistory:
    def test_identity_pose_is_exact(self, cyl_spec):
        rng = np.random.RandomState(26)
        hist = random_feature_grid(cyl_spec, rng)
        t = RigidTransform(rot_z(0.3), np.array([1.0, -2.0, 0.5]))
        out = align_history(hist, t, t)
        np.testing.assert_array_equal(out.data, hist.data)

    def test_one_bin_z_shift_is_index_shift(self, cyl_spec):
        rng = np.random.RandomState(27)
        hist = random_feature_grid(cyl_spec, rng)
        # current ego sits 0.4 m below the historical ego: current voxel
        # center p maps to p' = p + (0,0,0.4) in the historical frame
        t_hist = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.0]))
        t_curr = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.4]))
        out = align_history(hist, t_hist, t_curr)
        np.testing.assert_array_equal(out.data[:, :, :-1], hist.data[:, :, 1:])
        assert not out.data[:, :, -1].any()  # boundary layer zero-filled

    def test_double_warp_error_bounded_by_second_differences(self, cyl_spec):
        # smooth low-frequency field: interpolation error is O(h^2 f'')
        d0, d1, d2 = cyl_spec.dims
        i0, i1, i2 = np.meshgrid(np.arange(d0), np.arange(d1), np.arange(d2), indexing="ij")
        field = (
            np.sin(2 * math.pi * i0 / d0) * np.cos(2 * math.pi * i1 / d1)
            + 0.3 * np.sin(2 * math.pi * i2 / d2)
        ).astype(np.float32)[..., None]
        hist = VoxelGrid(cyl_spec, "feature", field)
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
        err = np.abs(back.data[..., 0][interior] - field[..., 0][interior]).max()
        assert err <= sd

    def test_constant_in_theta_invariant_under_yaw(self, cyl_spec):
        rng = np.random.RandomState(28)
        profile = rng.rand(cyl_spec.dims[0], 1, cyl_spec.dims[2], 2).astype(np.float32)
        field = np.repeat(profile, cyl_spec.dims[1], axis=1)
        hist = VoxelGrid(cyl_spec, "feature", field)
        for yaw in (0.013, 0.5, 2.0):
            out = align_history(hist, RigidTransform(rot_z(yaw), np.zeros(3)), RigidTransform.identity())
            assert np.max(np.abs(out.data - field)) < 1e-6

    def test_out_of_range_zeroed(self, cyl_spec):
        hist = VoxelGrid(cyl_spec, "feature", np.ones(cyl_spec.dims + (1,), dtype=np.float32))
        # shift by more than the whole z range: everything out of range
        t_curr = RigidTransform(np.eye(3), np.array([0.0, 0.0, 10.0]))
        out = align_history(hist, RigidTransform.identity(), t_curr)
        assert not out.data.any()


def dense_align_history(hist, t_hist, t_curr):
    """Oracle: trilinear resampling of every voxel center, in float64."""
    spec = hist.spec
    d0, d1, d2 = spec.dims
    ch = hist.channels
    rel = t_hist.inverse().compose(t_curr)
    native = spec.to_native(rel.apply(spec.all_centers()))

    def snap(frac):
        rounded = np.round(frac)
        return np.where(np.abs(frac - rounded) < 1e-9, rounded, frac)

    f0, f1, f2 = (snap(spec.axis_fraction(native[:, k], k) - 0.5) for k in range(3))
    in_range = spec.in_range(native)
    wrap_theta = spec.coord_sys == CYLINDRICAL
    base = [np.floor(f).astype(np.int64) for f in (f0, f1, f2)]
    t = [f - b for f, b in zip((f0, f1, f2), base)]
    data = hist.data.reshape(d0, d1, d2, ch).astype(np.float64)

    def node(o0, o1, o2):
        i0 = base[0] + o0
        i1 = base[1] + o1
        i2 = base[2] + o2
        if wrap_theta:
            i1 = np.mod(i1, d1)
        ok = (i0 >= 0) & (i0 < d0) & (i1 >= 0) & (i1 < d1) & (i2 >= 0) & (i2 < d2)
        out = np.zeros((len(i0), ch), dtype=np.float64)
        if np.any(ok):
            out[ok] = data[i0[ok], i1[ok], i2[ok]]
        return out

    t0 = t[0][:, None]
    t1 = t[1][:, None]
    t2 = t[2][:, None]
    c00 = node(0, 0, 0) + t2 * (node(0, 0, 1) - node(0, 0, 0))
    c01 = node(0, 1, 0) + t2 * (node(0, 1, 1) - node(0, 1, 0))
    c10 = node(1, 0, 0) + t2 * (node(1, 0, 1) - node(1, 0, 0))
    c11 = node(1, 1, 0) + t2 * (node(1, 1, 1) - node(1, 1, 0))
    c0 = c00 + t1 * (c01 - c00)
    c1 = c10 + t1 * (c11 - c10)
    out = c0 + t0 * (c1 - c0)
    out[~in_range] = 0.0
    return out.reshape(d0, d1, d2, ch).astype(np.float32)


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


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype == np.float32
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestAlignMatchesDense:
    @pytest.mark.parametrize("pose", ["identity", "z_shift", "yaw_across_seam", "out_of_range", "sub_snap_shift"])
    @pytest.mark.parametrize("case", ["zero", "dense", "sparse", "seam", "r_bin_0", "edges", "negative_zero"])
    @pytest.mark.parametrize("spec_name", sorted(SMALL_SPECS))
    def test_bit_identical(self, spec_name, case, pose):
        spec = SMALL_SPECS[spec_name]
        hist = VoxelGrid(spec, "feature", history_data(spec, case))
        t_hist, t_curr = align_poses(spec)[pose]
        assert_bits_equal(align_history(hist, t_hist, t_curr).data, dense_align_history(hist, t_hist, t_curr))

    def test_negative_zero_history_keeps_its_sign(self):
        spec = SMALL_SPECS["cuboid"]
        hist = VoxelGrid(spec, "feature", np.full(spec.dims + (2,), -0.0, dtype=np.float32))
        t_hist, t_curr = align_poses(spec)["sub_snap_shift"]
        want = dense_align_history(hist, t_hist, t_curr)
        assert np.signbit(want).any()
        assert_bits_equal(align_history(hist, t_hist, t_curr).data, want)

    @settings(max_examples=40, deadline=None)
    @given(
        spec_name=st.sampled_from(sorted(SMALL_SPECS)),
        yaw=st.floats(-math.pi, math.pi),
        tilt=st.floats(-0.1, 0.1),
        shift=st.tuples(*[st.floats(-1.5, 1.5)] * 3),
    )
    def test_small_poses_bit_identical(self, spec_name, yaw, tilt, shift):
        spec = SMALL_SPECS[spec_name]
        hist = VoxelGrid(spec, "feature", history_data(spec, "sparse"))
        c, s = math.cos(tilt), math.sin(tilt)
        tilt_x = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        t_hist = RigidTransform(rot_z(yaw) @ tilt_x, np.array(shift))
        t_curr = RigidTransform.identity()
        assert_bits_equal(align_history(hist, t_hist, t_curr).data, dense_align_history(hist, t_hist, t_curr))

    def test_default_lattice_sparse_history(self, cyl_spec):
        rng = np.random.RandomState(35)
        hist = VoxelGrid(cyl_spec, "feature", sparse_history(cyl_spec, rng, 0.06, channels=16))
        t_hist = RigidTransform(rot_z(0.3), np.array([1.2, -0.7, 0.1]))
        got = align_history(hist, t_hist, RigidTransform.identity())
        assert_bits_equal(got.data, dense_align_history(hist, t_hist, RigidTransform.identity()))

    def test_default_lattice_peak_memory(self, cyl_spec):
        rng = np.random.RandomState(36)
        hist = VoxelGrid(cyl_spec, "feature", sparse_history(cyl_spec, rng, 0.06, channels=16))
        t_hist = RigidTransform(rot_z(0.3), np.array([1.2, -0.7, 0.1]))
        tracemalloc.start()
        try:
            align_history(hist, t_hist, RigidTransform.identity())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250 * 2**20


class TestFuseTemporal:
    def test_no_history_returns_current(self, cyl_spec):
        rng = np.random.RandomState(29)
        curr = random_feature_grid(cyl_spec, rng)
        out = fuse_temporal(curr, [])
        np.testing.assert_array_equal(out.data, curr.data)

    def test_average_of_equals_is_identity(self, cyl_spec):
        rng = np.random.RandomState(30)
        curr = random_feature_grid(cyl_spec, rng)
        out = fuse_temporal(curr, [VoxelGrid(cyl_spec, "feature", curr.data.copy())])
        np.testing.assert_array_equal(out.data, curr.data)

    def test_three_zero_histories_quarter(self, cyl_spec):
        rng = np.random.RandomState(31)
        curr = random_feature_grid(cyl_spec, rng, channels=2)
        zeros = [VoxelGrid.zeros(cyl_spec, "feature", 2) for _ in range(3)]
        out = fuse_temporal(curr, zeros)
        np.testing.assert_allclose(out.data, curr.data / 4.0, atol=1e-7)

    def test_linearity_in_scale(self, cyl_spec):
        rng = np.random.RandomState(32)
        curr = random_feature_grid(cyl_spec, rng)
        hists = [random_feature_grid(cyl_spec, rng) for _ in range(2)]
        a = fuse_temporal(curr, hists)
        scaled = fuse_temporal(
            VoxelGrid(cyl_spec, "feature", curr.data * 2.0),
            [VoxelGrid(cyl_spec, "feature", h.data * 2.0) for h in hists],
        )
        np.testing.assert_allclose(scaled.data, a.data * 2.0, atol=1e-6)

    def test_spec_mismatch_rejected(self, cyl_spec):
        rng = np.random.RandomState(33)
        curr = random_feature_grid(cyl_spec, rng)
        other = GridSpec("cuboid", (4, 4, 4), ((0, 1), (0, 1), (0, 1)))
        with pytest.raises(ShapeError):
            fuse_temporal(curr, [VoxelGrid.zeros(other, "feature", 3)])
