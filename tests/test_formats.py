"""Codec tests: byte-level layout pinned with struct-built oracles,
round-trip exactness, typed failure on malformed input."""

import copy
import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    spec_from_json,
    weights_from_json,
)
from cylocc.geom import ErpImage, LabeledPointCloud, RigidTransform, surround_rig
from cylocc.grid import GridSpec, VoxelGrid, default_cylindrical_spec
from cylocc.synth import Sphere
from oracles import DEMO07_SCENE, scene_to_json, spec_to_json


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
    def test_non_finite_range_rejected(self, cyl_spec, bad):
        blob = bytearray(encode_voxel_grid(VoxelGrid.zeros(cyl_spec, "label")))
        struct.pack_into("<f", blob, 21 + 4, bad)  # r max
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
        # huge but finite rotation entries, which r @ r.T would overflow
        *[json.dumps([1e308 if i == k else float(v) for i, v in enumerate(np.eye(4).reshape(-1))]) for k in (0, 1, 5)],
    ])
    def test_pose_malformed_rejected(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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


CLASSES = ["free", "road", "sidewalk", "ground", "building", "wall", "vegetation", "vehicles", "other", "pole",
           "pedestrian", "roadline"]

STREET_DOC = {"classes": CLASSES, "primitives": [
    {"shape": "box", "min": [9.0, -0.75, -1.3], "max": [10.5, 0.75, 0.3], "label": "vehicles"},
    {"shape": "cylinder", "center": [-6.0, 8.0], "radius": 0.25, "z_min": -1.3, "z_max": 2.3, "label": "pole"},
    {"shape": "sphere", "center": [0.0, -10.0, 0.1], "radius": 0.7, "label": "vegetation"},
    {"shape": "half_space", "height": -1.3, "label": "road"},
]}

DEMO07_DOC = {"classes": CLASSES, "primitives": [
    *[{"shape": "box", "min": [x, -0.15, -1.3], "max": [x_end, 0.15, -1.25], "label": "roadline"}
      for x, x_end in ((2.0, 3.2), (5.0, 6.2), (8.0, 9.2), (11.0, 12.2), (14.0, 15.2))],
    {"shape": "box", "min": [-20.0, 6.0, -1.3], "max": [20.0, 20.0, -1.22], "label": "sidewalk"},
    {"shape": "box", "min": [4.0, -4.5, -1.3], "max": [6.0, -2.5, 0.3], "label": "vehicles"},
    {"shape": "cylinder", "center": [-4.0, 2.0], "radius": 0.3, "z_min": -1.3, "z_max": 2.3, "label": "pole"},
    {"shape": "sphere", "center": [-6.0, -5.0, 0.1], "radius": 1.0, "label": "vegetation"},
    {"shape": "box", "min": [18.0, -10.0, -1.3], "max": [19.0, 10.0, 2.7], "label": "building"},
    {"shape": "half_space", "height": -1.3, "label": "road"},
]}

# row-major camera-to-ego matrices of surround_rig(), as rig_to_json writes them
RIG_POSES = [
    [0.0, 0.0, 1.0, 0.9, -1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.6, 0.0, 0.0, 0.0, 1.0],
    [0.8660254037844386, 0.0, 0.5000000000000001, 0.4500000000000001, -0.5000000000000001, 0.0,
     0.8660254037844386, 0.7794228634059948, 0.0, -1.0, 0.0, 1.6, 0.0, 0.0, 0.0, 1.0],
    [0.8660254037844387, 0.0, -0.4999999999999998, -0.4499999999999998, 0.4999999999999998, 0.0,
     0.8660254037844387, 0.7794228634059949, 0.0, -1.0, 0.0, 1.6, 0.0, 0.0, 0.0, 1.0],
    [1.2246467991473532e-16, 0.0, -1.0, -0.9, 1.0, 0.0, 1.2246467991473532e-16, 1.1021821192326179e-16,
     0.0, -1.0, 0.0, 1.6, 0.0, 0.0, 0.0, 1.0],
    [-0.8660254037844384, 0.0, -0.5000000000000004, -0.4500000000000004, 0.5000000000000004, 0.0,
     -0.8660254037844384, -0.7794228634059945, 0.0, -1.0, 0.0, 1.6, 0.0, 0.0, 0.0, 1.0],
    [-0.8660254037844386, 0.0, 0.5000000000000001, 0.4500000000000001, -0.5000000000000001, 0.0,
     -0.8660254037844386, -0.7794228634059948, 0.0, -1.0, 0.0, 1.6, 0.0, 0.0, 0.0, 1.0],
]

RIG_DOC = [
    {"name": f"cam{i}", "model": "equidistant_fisheye", "width": 640, "height": 640, "focal_px_per_rad": 190.0,
     "cx": 320.0, "cy": 320.0, "fov_deg": 185.0, "pose": pose}
    for i, pose in enumerate(RIG_POSES)
]


class TestWriterBytes:
    """The JSON writers' output is pinned byte for byte: each expected
    string is the indent-2 rendering of a literal document, which fixes key
    order, integer-versus-float numbers and every float's digits."""

    def test_rig(self):
        assert rig_to_json(surround_rig()) == json.dumps(RIG_DOC, indent=2)

    def test_street_scene(self, street_scene):
        assert scene_to_json(street_scene) == json.dumps(STREET_DOC, indent=2)

    def test_demo_scene(self):
        assert scene_to_json(DEMO07_SCENE) == json.dumps(DEMO07_DOC, indent=2)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


# each loader with a writer for what it loads; a loaded object must write
# back as strict JSON, so no non-finite number got into it
LOADERS = {
    rig_from_json: rig_to_json,
    scene_from_json: lambda loaded: scene_to_json(*loaded),
    pose_from_json: pose_to_json,
    spec_from_json: spec_to_json,
    weights_from_json: lambda w: json.dumps([w.weights.tolist(), w.constant, w.frequencies.tolist()]),
}

VALID_DOCS = {
    rig_from_json: RIG_DOC,
    scene_from_json: STREET_DOC,
    pose_from_json: {"pose": RIG_POSES[1]},
    spec_from_json: json.loads(spec_to_json(default_cylindrical_spec())),
    weights_from_json: {"frequencies": [0.25, 0.75], "constant": 1.5},
}

JSON_KEYS = st.sampled_from(
    ["primitives", "classes", "shape", "label", "pose", "coord_sys", "dims", "ranges", "frequencies", "constant"]
) | st.text(max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.integers()
    | st.sampled_from([2**63, -(2**64), 10**400]) | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=12,
)
DELETE = object()


def _paths(doc, prefix=()):
    """Every path of keys and indices into doc, the empty root path included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _load_or_invalid(loader, text):
    """The loader either raises InvalidField or returns an object that writes back as strict JSON."""
    try:
        loaded = loader(text)
    except InvalidField:
        return
    json.loads(LOADERS[loader](loaded), parse_constant=_reject_constant)


class TestJsonFuzz:
    @settings(max_examples=300, deadline=None)
    @given(loader=st.sampled_from(list(LOADERS)), value=JSON_VALUES)
    def test_arbitrary_value(self, loader, value):
        _load_or_invalid(loader, json.dumps(value))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_valid_document_with_one_field_replaced(self, data):
        loader = data.draw(st.sampled_from(list(LOADERS)))
        doc = copy.deepcopy(VALID_DOCS[loader])
        path = data.draw(st.sampled_from(list(_paths(doc))))
        value = data.draw(JSON_VALUES | st.just(DELETE))
        if not path:
            doc = None if value is DELETE else value
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        _load_or_invalid(loader, json.dumps(doc))

    @pytest.mark.parametrize("loader", list(LOADERS))
    def test_valid_documents_load(self, loader):
        """The documents the fuzz starts from are valid, so it exercises every field."""
        LOADERS[loader](loader(json.dumps(VALID_DOCS[loader])))

    @pytest.mark.parametrize("loader", list(LOADERS))
    def test_deep_nesting_rejected(self, loader):
        with pytest.raises(InvalidField):
            loader("[" * 100_000 + "]" * 100_000)
