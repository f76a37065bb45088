"""Binary codecs and JSON config documents.

Three little-endian binary formats, each with a 4-byte magic and a u32
version (currently 1):

OVOX voxel grids
    magic "OVOX", version u32, coord_sys u8 (0 cuboid, 1 cylindrical),
    dims 3 x u32, ranges 6 x f32 (per-axis min/max), payload kind u8
    (0 label u8, 1 occupancy u8, 2 feature f32), channel count u32, then
    the payload in flat index order i = (i0*D1 + i1)*D2 + i2.

OPCD point clouds
    magic "OPCD", version u32, count u64, then per point x/y/z as f32
    followed by a u8 label.

ODPT rasters
    magic "ODPT", version u32, kind u8 (0 depth, 1 semantic, 2 feature),
    W u32, H u32, channels u32, then W*H*channels f32 row-major.

Decoders are strict: wrong magic, wrong version, short or trailing payload
and nonsensical header fields each raise a distinct error type carrying the
byte offset or field name. Range values are stored as f32, so decoded grid
specs carry f32-rounded ranges; payloads round-trip bit-exactly.

JSON documents cover camera rigs, scenes, poses, grid specs and class
weights; their loaders raise InvalidField on malformed content.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import DomainError, ShapeError
from .geom import ErpImage, FisheyeCamera, LabeledPointCloud, RigidTransform
from .grid import CUBOID, CYLINDRICAL, GridSpec, LabelSet, VoxelGrid, default_label_set
from .losses import ClassWeights, class_weights
from .synth import Box, HalfSpace, Scene, Sphere, VerticalCylinder

FORMAT_VERSION = 1


class FormatError(ValueError):
    """Base for codec failures; carries the offending offset or field."""

    def __init__(self, message: str, offset: int | None = None, fieldname: str | None = None):
        detail = message
        if fieldname is not None:
            detail += f" (field {fieldname})"
        if offset is not None:
            detail += f" (offset {offset})"
        super().__init__(detail)
        self.offset = offset
        self.fieldname = fieldname


class BadMagic(FormatError):
    pass


class BadVersion(FormatError):
    pass


class Truncated(FormatError):
    pass


class InvalidField(FormatError):
    pass


def _need(buf: bytes, offset: int, count: int, fieldname: str) -> bytes:
    if len(buf) < offset + count:
        raise Truncated(
            f"need {offset + count} bytes, have {len(buf)}",
            offset=offset,
            fieldname=fieldname,
        )
    return buf[offset : offset + count]


def _check_header(buf: bytes, magic: bytes) -> None:
    got = _need(buf, 0, 4, "magic")
    if got != magic:
        raise BadMagic(f"expected {magic!r}, found {got!r}", offset=0, fieldname="magic")
    (version,) = struct.unpack_from("<I", _need(buf, 4, 4, "version"))
    if version != FORMAT_VERSION:
        raise BadVersion(f"unsupported version {version}", offset=4, fieldname="version")


def _exact_length(buf: bytes, expected_len: int, fieldname: str) -> None:
    """Reject a buffer shorter (Truncated) or longer (InvalidField) than its header implies."""
    if len(buf) < expected_len:
        raise Truncated(
            f"{fieldname} expects {expected_len} bytes total, have {len(buf)}",
            offset=len(buf),
            fieldname=fieldname,
        )
    if len(buf) > expected_len:
        raise InvalidField(
            f"{len(buf) - expected_len} trailing bytes after payload",
            offset=expected_len,
            fieldname="payload",
        )


_COORD_CODES = {CUBOID: 0, CYLINDRICAL: 1}
_COORD_NAMES = {v: k for k, v in _COORD_CODES.items()}
_PAYLOAD_CODES = {"label": 0, "occupancy": 1, "feature": 2}
_PAYLOAD_NAMES = {v: k for k, v in _PAYLOAD_CODES.items()}

_OVOX_HEADER = struct.Struct("<4sIB3I6fBI")


def encode_voxel_grid(grid: VoxelGrid) -> bytes:
    ranges = [v for pair in grid.spec.ranges for v in pair]
    header = _OVOX_HEADER.pack(
        b"OVOX",
        FORMAT_VERSION,
        _COORD_CODES[grid.spec.coord_sys],
        *grid.spec.dims,
        *[float(np.float32(v)) for v in ranges],
        _PAYLOAD_CODES[grid.kind],
        grid.channels,
    )
    if grid.kind == "feature":
        payload = grid.data.astype("<f4").tobytes()
    else:
        payload = grid.data.astype(np.uint8).tobytes()
    return header + payload


def decode_voxel_grid(buf: bytes) -> VoxelGrid:
    _check_header(buf, b"OVOX")
    _need(buf, 0, _OVOX_HEADER.size, "header")
    fields = _OVOX_HEADER.unpack_from(buf)
    coord_code, d0, d1, d2 = fields[2], fields[3], fields[4], fields[5]
    ranges = fields[6:12]
    kind_code, channels = fields[12], fields[13]
    if coord_code not in _COORD_NAMES:
        raise InvalidField(f"unknown coordinate system code {coord_code}", offset=8, fieldname="coord_sys")
    if kind_code not in _PAYLOAD_NAMES:
        raise InvalidField(f"unknown payload kind code {kind_code}", offset=45, fieldname="payload_kind")
    kind = _PAYLOAD_NAMES[kind_code]
    if kind != "feature" and channels != 1:
        raise InvalidField(f"{kind} payload requires 1 channel, header says {channels}", offset=46, fieldname="channels")
    if channels < 1:
        raise InvalidField("channel count must be >= 1", offset=46, fieldname="channels")
    if not all(math.isfinite(v) for v in ranges):
        raise InvalidField("non-finite range value", offset=21, fieldname="ranges")
    try:
        spec = GridSpec(
            _COORD_NAMES[coord_code],
            (d0, d1, d2),
            ((ranges[0], ranges[1]), (ranges[2], ranges[3]), (ranges[4], ranges[5])),
        )
    except (DomainError, ShapeError) as e:
        raise InvalidField(f"invalid grid spec: {e}", offset=9, fieldname="dims/ranges") from e
    item = 4 if kind == "feature" else 1
    expected = _OVOX_HEADER.size + d0 * d1 * d2 * channels * item
    _exact_length(buf, expected, "payload")
    # frombuffer shares buf, so astype/copy make the one writable copy
    count = d0 * d1 * d2 * channels
    if kind == "feature":
        raw = np.frombuffer(buf, dtype="<f4", count=count, offset=_OVOX_HEADER.size)
        data = raw.reshape(d0, d1, d2, channels).astype(np.float32)
    else:
        data = np.frombuffer(buf, dtype=np.uint8, count=count, offset=_OVOX_HEADER.size).reshape(d0, d1, d2).copy()
    try:
        return VoxelGrid(spec, kind, data)
    except (DomainError, ShapeError) as e:
        raise InvalidField(f"invalid payload: {e}", offset=_OVOX_HEADER.size, fieldname="payload") from e


_OPCD_HEADER = struct.Struct("<4sIQ")
_OPCD_POINT = np.dtype([("xyz", "<f4", 3), ("label", "u1")])


def encode_point_cloud(cloud: LabeledPointCloud) -> bytes:
    rec = np.empty(len(cloud), dtype=_OPCD_POINT)
    rec["xyz"] = cloud.points.astype("<f4")
    rec["label"] = cloud.labels
    return _OPCD_HEADER.pack(b"OPCD", FORMAT_VERSION, len(cloud)) + rec.tobytes()


def decode_point_cloud(buf: bytes) -> LabeledPointCloud:
    _check_header(buf, b"OPCD")
    _need(buf, 0, _OPCD_HEADER.size, "header")
    _, _, count = _OPCD_HEADER.unpack_from(buf)
    expected = _OPCD_HEADER.size + count * _OPCD_POINT.itemsize
    _exact_length(buf, expected, "points")
    rec = np.frombuffer(buf, dtype=_OPCD_POINT, count=count, offset=_OPCD_HEADER.size)
    pts = rec["xyz"].astype(np.float64)
    if count and not np.all(np.isfinite(pts)):
        raise InvalidField("non-finite point coordinates", offset=_OPCD_HEADER.size, fieldname="points")
    return LabeledPointCloud(pts, rec["label"].copy())


_ODPT_HEADER = struct.Struct("<4sIB3I")
_ODPT_KIND_CODES = {"depth_meters": 0, "semantic_label": 1, "feature": 2}
_ODPT_KIND_NAMES = {v: k for k, v in _ODPT_KIND_CODES.items()}


def encode_raster(img: ErpImage) -> bytes:
    header = _ODPT_HEADER.pack(
        b"ODPT", FORMAT_VERSION, _ODPT_KIND_CODES[img.kind], img.width, img.height, img.channels
    )
    return header + img.data.astype("<f4").tobytes()


def decode_raster(buf: bytes) -> ErpImage:
    _check_header(buf, b"ODPT")
    _need(buf, 0, _ODPT_HEADER.size, "header")
    _, _, kind_code, width, height, channels = _ODPT_HEADER.unpack_from(buf)
    if kind_code not in _ODPT_KIND_NAMES:
        raise InvalidField(f"unknown raster kind code {kind_code}", offset=8, fieldname="kind")
    if width < 1 or height < 1 or channels < 1:
        raise InvalidField("raster dimensions must be >= 1", offset=9, fieldname="dims")
    expected = _ODPT_HEADER.size + width * height * channels * 4
    _exact_length(buf, expected, "payload")
    data = np.frombuffer(buf, dtype="<f4", count=width * height * channels, offset=_ODPT_HEADER.size)
    shape = (height, width) if channels == 1 else (height, width, channels)
    try:
        return ErpImage(width, height, channels, data.reshape(shape).copy(), _ODPT_KIND_NAMES[kind_code])
    except (DomainError, ShapeError) as e:
        raise InvalidField(f"invalid raster payload: {e}", offset=_ODPT_HEADER.size, fieldname="payload") from e


# ---------------------------------------------------------------------------
# JSON documents


def _load_json(text: str | bytes, what: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise InvalidField(f"{what} is not valid JSON: {e}", fieldname=what) from e


FISHEYE_MODEL = "equidistant_fisheye"


def rig_to_json(rig: list[FisheyeCamera]) -> str:
    entries = []
    for cam in rig:
        entries.append(
            {
                "name": cam.name,
                "model": FISHEYE_MODEL,
                "width": cam.width,
                "height": cam.height,
                "focal_px_per_rad": cam.focal,
                "cx": cam.principal_point[0],
                "cy": cam.principal_point[1],
                "fov_deg": math.degrees(cam.fov),
                "pose": [float(v) for v in cam.pose.matrix().reshape(-1)],
            }
        )
    return json.dumps(entries, indent=2)


def rig_from_json(text: str | bytes) -> list[FisheyeCamera]:
    doc = _load_json(text, "rig config")
    if not isinstance(doc, list) or not doc:
        raise InvalidField("rig config must be a non-empty array of cameras", fieldname="rig")
    rig = []
    for i, entry in enumerate(doc):
        try:
            if entry["model"] != FISHEYE_MODEL:
                raise InvalidField(f"unsupported camera model {entry['model']!r}", fieldname=f"cameras[{i}].model")
            pose = np.asarray(entry["pose"], dtype=np.float64)
            if pose.shape != (16,):
                raise InvalidField("pose must hold 16 numbers", fieldname=f"cameras[{i}].pose")
            rig.append(
                FisheyeCamera(
                    width=int(entry["width"]),
                    height=int(entry["height"]),
                    focal=float(entry["focal_px_per_rad"]),
                    principal_point=(float(entry["cx"]), float(entry["cy"])),
                    fov=math.radians(float(entry["fov_deg"])),
                    pose=RigidTransform.from_matrix(pose.reshape(4, 4)),
                    name=str(entry["name"]),
                )
            )
        except KeyError as e:
            raise InvalidField(f"missing camera field {e}", fieldname=f"cameras[{i}]") from e
        except InvalidField:
            raise
        except (TypeError, ValueError) as e:
            raise InvalidField(f"bad camera entry: {e}", fieldname=f"cameras[{i}]") from e
    return rig


def scene_to_json(scene: Scene, labels: LabelSet | None = None) -> str:
    lab = labels if labels is not None else default_label_set()
    prims = []
    for p in scene.primitives:
        name = lab.names[p.label]
        if isinstance(p, HalfSpace):
            prims.append({"shape": "half_space", "height": p.height, "label": name})
        elif isinstance(p, Box):
            prims.append({"shape": "box", "min": list(p.min_corner), "max": list(p.max_corner), "label": name})
        elif isinstance(p, VerticalCylinder):
            prims.append(
                {
                    "shape": "cylinder",
                    "center": list(p.center),
                    "radius": p.radius,
                    "z_min": p.z_min,
                    "z_max": p.z_max,
                    "label": name,
                }
            )
        elif isinstance(p, Sphere):
            prims.append({"shape": "sphere", "center": list(p.center), "radius": p.radius, "label": name})
        else:
            raise InvalidField(f"unknown primitive type {type(p).__name__}", fieldname="primitives")
    doc = {"classes": list(lab.names), "primitives": prims}
    return json.dumps(doc, indent=2)


def scene_from_json(text: str | bytes) -> tuple[Scene, LabelSet]:
    doc = _load_json(text, "scene config")
    if not isinstance(doc, dict) or "primitives" not in doc:
        raise InvalidField("scene config must be an object with a primitives array", fieldname="scene")
    try:
        labels = LabelSet(tuple(doc["classes"])) if "classes" in doc else default_label_set()
    except (DomainError, TypeError) as e:
        raise InvalidField(f"bad class list: {e}", fieldname="classes") from e
    prims: list = []
    for i, entry in enumerate(doc["primitives"]):
        try:
            label = labels.index_of(entry["label"])
            shape = entry["shape"]
            if shape == "half_space":
                prims.append(HalfSpace(float(entry["height"]), label))
            elif shape == "box":
                prims.append(Box(tuple(map(float, entry["min"])), tuple(map(float, entry["max"])), label))
            elif shape == "cylinder":
                prims.append(
                    VerticalCylinder(
                        tuple(map(float, entry["center"])),
                        float(entry["radius"]),
                        float(entry["z_min"]),
                        float(entry["z_max"]),
                        label,
                    )
                )
            elif shape == "sphere":
                prims.append(Sphere(tuple(map(float, entry["center"])), float(entry["radius"]), label))
            else:
                raise InvalidField(f"unknown shape tag {shape!r}", fieldname=f"primitives[{i}].shape")
        except KeyError as e:
            raise InvalidField(f"missing primitive field {e}", fieldname=f"primitives[{i}]") from e
        except (TypeError, ValueError) as e:
            if isinstance(e, InvalidField):
                raise
            raise InvalidField(f"bad primitive: {e}", fieldname=f"primitives[{i}]") from e
    try:
        return Scene(tuple(prims)), labels
    except DomainError as e:
        raise InvalidField(f"bad scene: {e}", fieldname="primitives") from e


def pose_to_json(pose: RigidTransform) -> str:
    return json.dumps({"pose": [float(v) for v in pose.matrix().reshape(-1)]})


def pose_from_json(text: str | bytes) -> RigidTransform:
    doc = _load_json(text, "pose")
    raw = doc["pose"] if isinstance(doc, dict) and "pose" in doc else doc
    try:
        arr = np.asarray(raw, dtype=np.float64)
        if arr.shape != (16,):
            raise InvalidField("pose must hold 16 numbers, row-major 4x4", fieldname="pose")
        return RigidTransform.from_matrix(arr.reshape(4, 4))
    except InvalidField:
        raise
    except (TypeError, ValueError) as e:
        raise InvalidField(f"bad pose: {e}", fieldname="pose") from e


def spec_to_json(spec: GridSpec) -> str:
    return json.dumps(
        {"coord_sys": spec.coord_sys, "dims": list(spec.dims), "ranges": [list(r) for r in spec.ranges]}
    )


def spec_from_json(text: str | bytes) -> GridSpec:
    doc = _load_json(text, "grid spec")
    try:
        return GridSpec(
            doc["coord_sys"],
            tuple(doc["dims"]),
            tuple((float(lo), float(hi)) for lo, hi in doc["ranges"]),
        )
    except KeyError as e:
        raise InvalidField(f"missing spec field {e}", fieldname="spec") from e
    except (TypeError, ValueError) as e:
        raise InvalidField(f"bad grid spec: {e}", fieldname="spec") from e


def weights_from_json(text: str | bytes) -> ClassWeights:
    """Class weights from {"frequencies": [...], "constant": 1.02}."""
    doc = _load_json(text, "class weights")
    if not isinstance(doc, dict) or "frequencies" not in doc:
        raise InvalidField("class weights must be an object with a frequencies array", fieldname="weights")
    try:
        return class_weights(np.asarray(doc["frequencies"], dtype=np.float64), float(doc.get("constant", 1.02)))
    except (TypeError, ValueError) as e:
        raise InvalidField(f"bad class weights: {e}", fieldname="weights") from e
