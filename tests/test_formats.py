"""Codec tests: byte-level layout pinned with struct-built oracles,
round-trip exactness, typed failure on malformed input."""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from cylocc.formats import (
    BadMagic,
    BadVersion,
    FormatError,
    InvalidField,
    Truncated,
    decode_point_cloud,
    decode_raster,
    decode_voxel_grid,
    encode_point_cloud,
    encode_raster,
    encode_voxel_grid,
    pose_from_json,
    pose_to_json,
    rig_from_json,
    rig_to_json,
    scene_from_json,
    scene_to_json,
    spec_from_json,
    spec_to_json,
    weights_from_json,
)
from cylocc.geom import ErpImage, LabeledPointCloud, RigidTransform, surround_rig
from cylocc.grid import GridSpec, VoxelGrid, default_cylindrical_spec
from cylocc.synth import Sphere


def random_label_grid(rng):
    spec = default_cylindrical_spec()
    return VoxelGrid(spec, "label", rng.randint(0, 12, spec.dims).astype(np.uint8))


class TestOvox:
    def test_label_round_trip_bit_exact(self):
        rng = np.random.RandomState(60)
        grid = random_label_grid(rng)
        blob = encode_voxel_grid(grid)
        back = decode_voxel_grid(blob)
        np.testing.assert_array_equal(back.data, grid.data)
        assert back.kind == "label"
        assert back.spec.dims == grid.spec.dims
        # a second pass over the decoded grid reproduces the bytes exactly
        assert encode_voxel_grid(back) == blob

    def test_feature_round_trip(self, cyl_spec):
        rng = np.random.RandomState(61)
        grid = VoxelGrid(cyl_spec, "feature", rng.rand(*cyl_spec.dims, 2).astype(np.float32))
        back = decode_voxel_grid(encode_voxel_grid(grid))
        np.testing.assert_array_equal(back.data, grid.data)
        assert back.channels == 2

    def test_cuboid_occupancy_round_trip(self):
        from cylocc.grid import GridSpec

        spec = GridSpec("cuboid", (6, 5, 4), ((-3, 3), (0, 5), (-1, 1)))
        rng = np.random.RandomState(68)
        grid = VoxelGrid(spec, "occupancy", (rng.rand(6, 5, 4) < 0.4).astype(np.uint8))
        blob = encode_voxel_grid(grid)
        assert blob[8] == 0  # cuboid coordinate code
        assert blob[45] == 1  # occupancy payload code
        back = decode_voxel_grid(blob)
        assert back.kind == "occupancy"
        assert back.spec.coord_sys == "cuboid"
        np.testing.assert_array_equal(back.data, grid.data)

    def test_header_layout_matches_struct_oracle(self, cyl_spec):
        grid = VoxelGrid.zeros(cyl_spec, "label")
        blob = encode_voxel_grid(grid)
        assert blob[:4] == b"OVOX"
        assert struct.unpack_from("<I", blob, 4)[0] == 1
        assert blob[8] == 1  # cylindrical
        assert struct.unpack_from("<3I", blob, 9) == (128, 200, 16)
        ranges = struct.unpack_from("<6f", blob, 21)
        expect = [0.0, 25.6, -math.pi, math.pi, -2.8, 3.6]
        for got, want in zip(ranges, expect):
            assert got == np.float32(want)
        assert blob[45] == 0  # label payload
        assert struct.unpack_from("<I", blob, 46)[0] == 1
        assert len(blob) == 50 + 128 * 200 * 16

    def test_truncated_payload_reports_counts(self, cyl_spec):
        blob = encode_voxel_grid(VoxelGrid.zeros(cyl_spec, "label"))
        with pytest.raises(Truncated) as err:
            decode_voxel_grid(blob[:-10])
        assert str(50 + 128 * 200 * 16) in str(err.value)
        assert str(len(blob) - 10) in str(err.value)

    def test_trailing_bytes_rejected(self, cyl_spec):
        blob = encode_voxel_grid(VoxelGrid.zeros(cyl_spec, "label"))
        with pytest.raises(InvalidField):
            decode_voxel_grid(blob + b"x")

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            decode_voxel_grid(b"NOPE" + bytes(64))

    def test_bad_version(self, cyl_spec):
        blob = bytearray(encode_voxel_grid(VoxelGrid.zeros(cyl_spec, "label")))
        struct.pack_into("<I", blob, 4, 2)
        with pytest.raises(BadVersion):
            decode_voxel_grid(bytes(blob))

    def test_bad_coord_code(self, cyl_spec):
        blob = bytearray(encode_voxel_grid(VoxelGrid.zeros(cyl_spec, "label")))
        blob[8] = 9
        with pytest.raises(InvalidField):
            decode_voxel_grid(bytes(blob))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_feature_rejected(self, bad):
        spec = GridSpec("cuboid", (2, 2, 2), ((0, 1), (0, 1), (0, 1)))
        blob = bytearray(encode_voxel_grid(VoxelGrid.zeros(spec, "feature", 3)))
        # voxel (1, 0, 1) has flat index 5; patch its channel 2
        struct.pack_into("<f", blob, 50 + (5 * 3 + 2) * 4, bad)
        with pytest.raises(InvalidField):
            decode_voxel_grid(bytes(blob))

    @pytest.mark.parametrize("kind", ["feature", "label"])
    def test_decoded_payload_is_writable(self, cyl_spec, kind):
        rng = np.random.RandomState(69)
        if kind == "feature":
            grid = VoxelGrid(cyl_spec, kind, rng.rand(*cyl_spec.dims, 2).astype(np.float32))
        else:
            grid = random_label_grid(rng)
        blob = encode_voxel_grid(grid)
        back = decode_voxel_grid(blob)
        assert back.data.flags.writeable
        np.testing.assert_array_equal(back.data, grid.data)
        back.data[0, 0, 0] = 7
        assert encode_voxel_grid(grid) == blob

    def test_feature_decode_copies_payload_once(self, cyl_spec):
        blob = encode_voxel_grid(VoxelGrid.zeros(cyl_spec, "feature", 16))
        payload = len(blob) - 50
        tracemalloc.start()
        try:
            decode_voxel_grid(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * payload

    def test_label_with_channels_rejected(self, cyl_spec):
        blob = bytearray(encode_voxel_grid(VoxelGrid.zeros(cyl_spec, "label")))
        struct.pack_into("<I", blob, 46, 3)
        with pytest.raises(InvalidField):
            decode_voxel_grid(bytes(blob))


class TestOpcd:
    def test_round_trip_bit_exact(self):
        rng = np.random.RandomState(62)
        pts = (rng.rand(500, 3).astype(np.float32) * 30).astype(np.float32)
        cloud = LabeledPointCloud(pts.astype(np.float64), rng.randint(0, 12, 500).astype(np.uint8))
        blob = encode_point_cloud(cloud)
        back = decode_point_cloud(blob)
        np.testing.assert_array_equal(back.points, cloud.points)
        np.testing.assert_array_equal(back.labels, cloud.labels)
        assert encode_point_cloud(back) == blob

    def test_layout(self):
        cloud = LabeledPointCloud(np.array([[1.0, 2.0, 3.0]]), np.array([7], dtype=np.uint8))
        blob = encode_point_cloud(cloud)
        assert blob[:4] == b"OPCD"
        assert struct.unpack_from("<Q", blob, 8)[0] == 1
        assert struct.unpack_from("<3f", blob, 16) == (1.0, 2.0, 3.0)
        assert blob[28] == 7
        assert len(blob) == 16 + 13

    def test_truncated(self):
        cloud = LabeledPointCloud(np.ones((3, 3)), np.ones(3, dtype=np.uint8))
        with pytest.raises(Truncated):
            decode_point_cloud(encode_point_cloud(cloud)[:-1])

    def test_huge_count_rejected_without_allocation(self):
        blob = struct.pack("<4sIQ", b"OPCD", 1, 2**60)
        with pytest.raises(Truncated):
            decode_point_cloud(blob)


class TestOdpt:
    def test_depth_round_trip(self):
        rng = np.random.RandomState(63)
        img = ErpImage.depth(rng.rand(20, 40).astype(np.float32) * 10)
        blob = encode_raster(img)
        back = decode_raster(blob)
        np.testing.assert_array_equal(back.data, img.data)
        assert back.kind == "depth_meters"
        assert encode_raster(back) == blob

    def test_feature_round_trip(self):
        rng = np.random.RandomState(64)
        img = ErpImage(8, 4, 3, rng.rand(4, 8, 3).astype(np.float32), "feature")
        back = decode_raster(encode_raster(img))
        np.testing.assert_array_equal(back.data, img.data)

    def test_layout(self):
        img = ErpImage.depth(np.zeros((2, 3), dtype=np.float32))
        blob = encode_raster(img)
        assert blob[:4] == b"ODPT"
        assert blob[8] == 0
        assert struct.unpack_from("<3I", blob, 9) == (3, 2, 1)
        assert len(blob) == 21 + 6 * 4

    def test_negative_depth_payload_rejected(self):
        img = ErpImage.depth(np.ones((2, 2), dtype=np.float32))
        blob = bytearray(encode_raster(img))
        struct.pack_into("<f", blob, 21, -1.0)
        with pytest.raises(InvalidField):
            decode_raster(bytes(blob))

    def test_non_finite_feature_payload_rejected(self):
        img = ErpImage(2, 2, 1, np.ones((2, 2), dtype=np.float32), "feature")
        blob = bytearray(encode_raster(img))
        struct.pack_into("<f", blob, 21 + 4, np.nan)
        with pytest.raises(InvalidField):
            decode_raster(bytes(blob))

    def test_zero_dims_rejected(self):
        blob = struct.pack("<4sIB3I", b"ODPT", 1, 0, 0, 2, 1)
        with pytest.raises(InvalidField):
            decode_raster(blob)


class TestFuzz:
    @pytest.mark.parametrize(
        "decoder", [decode_voxel_grid, decode_point_cloud, decode_raster]
    )
    def test_random_prefixes_fail_typed(self, decoder):
        rng = np.random.RandomState(65)
        for _ in range(1500):
            blob = rng.bytes(rng.randint(0, 64))
            with pytest.raises(FormatError):
                decoder(blob)

    @pytest.mark.parametrize(
        "decoder,magic", [(decode_voxel_grid, b"OVOX"), (decode_point_cloud, b"OPCD"), (decode_raster, b"ODPT")]
    )
    def test_magic_plus_garbage_fails_typed(self, decoder, magic):
        rng = np.random.RandomState(66)
        for _ in range(1500):
            blob = magic + struct.pack("<I", 1) + rng.bytes(rng.randint(0, 56))
            try:
                decoder(blob)
            except FormatError:
                pass  # typed failure is the contract; success is impossible here


class TestJsonDocs:
    def test_rig_round_trip(self):
        rig = surround_rig()
        back = rig_from_json(rig_to_json(rig))
        assert [c.name for c in back] == [c.name for c in rig]
        for a, b in zip(rig, back):
            np.testing.assert_allclose(a.pose.matrix(), b.pose.matrix(), atol=1e-12)
            assert a.fov == pytest.approx(b.fov, abs=1e-12)
            assert (a.width, a.height, a.focal) == (b.width, b.height, b.focal)

    def test_rig_field_names_fixed(self):
        doc = json.loads(rig_to_json(surround_rig()))
        assert set(doc[0]) == {
            "name", "model", "width", "height", "focal_px_per_rad", "cx", "cy", "fov_deg", "pose",
        }
        assert doc[0]["model"] == "equidistant_fisheye"
        assert len(doc[0]["pose"]) == 16

    def test_rig_unknown_model_rejected(self):
        doc = json.loads(rig_to_json(surround_rig()))
        doc[0]["model"] = "pinhole"
        with pytest.raises(InvalidField):
            rig_from_json(json.dumps(doc))

    def test_rig_not_json(self):
        with pytest.raises(InvalidField):
            rig_from_json(b"\x00\xff garbage")

    def test_scene_round_trip(self, street_scene):
        scene, labels = scene_from_json(scene_to_json(street_scene))
        assert scene == street_scene
        assert labels.count == 12

    def test_scene_label_names_resolved(self):
        text = json.dumps(
            {"primitives": [{"shape": "sphere", "center": [1, 2, 3], "radius": 0.5, "label": "pole"}]}
        )
        scene, labels = scene_from_json(text)
        assert scene.primitives[0] == Sphere((1.0, 2.0, 3.0), 0.5, labels.index_of("pole"))

    def test_scene_unknown_shape_rejected(self):
        text = json.dumps({"primitives": [{"shape": "torus", "label": "pole"}]})
        with pytest.raises(InvalidField):
            scene_from_json(text)

    def test_scene_unknown_label_rejected(self):
        text = json.dumps(
            {"primitives": [{"shape": "sphere", "center": [0, 0, 0], "radius": 1, "label": "dragon"}]}
        )
        with pytest.raises(InvalidField):
            scene_from_json(text)

    def test_pose_round_trip(self):
        rng = np.random.RandomState(67)
        from conftest import random_transform

        pose = random_transform(rng)
        back = pose_from_json(pose_to_json(pose))
        np.testing.assert_allclose(back.matrix(), pose.matrix(), atol=1e-15)

    def test_pose_accepts_bare_array(self):
        t = RigidTransform.identity()
        back = pose_from_json(json.dumps([float(v) for v in t.matrix().reshape(-1)]))
        np.testing.assert_array_equal(back.matrix(), np.eye(4))

    def test_spec_round_trip(self, cyl_spec):
        back = spec_from_json(spec_to_json(cyl_spec))
        assert back == cyl_spec

    @pytest.mark.parametrize("text", [
        json.dumps({"pose": ["a"] * 16}),
        json.dumps({"pose": [[1, 2], [3]]}),
        json.dumps({"pose": {"x": 1}}),
        json.dumps("not a pose"),
        json.dumps(None),
    ])
    def test_pose_malformed_rejected(self, text):
        with pytest.raises(InvalidField):
            pose_from_json(text)

    @pytest.mark.parametrize("doc", [
        {"coord_sys": "cuboid", "dims": ["a", 1, 1], "ranges": [[0, 1], [0, 1], [0, 1]]},
        {"coord_sys": "cuboid", "dims": [1, 1, 1], "ranges": [[0, "x"], [0, 1], [0, 1]]},
        {"coord_sys": "cuboid", "dims": [1, 1, 1], "ranges": [[0, 1, 2], [0, 1], [0, 1]]},
        [1, 2, 3],
    ])
    def test_spec_malformed_rejected(self, doc):
        with pytest.raises(InvalidField):
            spec_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field,value", [("width", "wide"), ("fov_deg", "x"), ("pose", ["a"] * 16), ("pose", [[1], 2])])
    def test_rig_malformed_field_rejected(self, field, value):
        doc = json.loads(rig_to_json(surround_rig()))
        doc[0][field] = value
        with pytest.raises(InvalidField):
            rig_from_json(json.dumps(doc))

    def test_weights_round_trip(self):
        w = weights_from_json(json.dumps({"frequencies": [0.25, 0.75], "constant": 1.5}))
        np.testing.assert_allclose(w.weights, 1.0 / np.log(np.array([0.25, 0.75]) + 1.5))

    @pytest.mark.parametrize("text", [
        "{not json",
        json.dumps([0.5, 0.5]),
        json.dumps({"constant": 1.02}),
        json.dumps({"frequencies": ["a", "b"]}),
        json.dumps({"frequencies": [0.5, 0.5], "constant": "c"}),
        json.dumps({"frequencies": [0.7, 0.7]}),
    ])
    def test_weights_malformed_rejected(self, text):
        with pytest.raises(InvalidField):
            weights_from_json(text)
