"""Binary codecs and JSON config documents.

Three little-endian binary formats, each with a 4-byte magic and a u32
version (currently 1):

OVOX voxel grids
    magic "OVOX", version u32, coord_sys u8 (0 cuboid, 1 cylindrical),
    dims 3 x u32, ranges 6 x f32 (per-axis min/max), payload kind u8
    (0 label u8, 1 occupancy u8, 2 feature f32, 3 feature rows), channel
    count u32, then the payload in flat index order i = (i0*D1 + i1)*D2 + i2.
    Feature rows are a ceil(V/8)-byte bitmap (voxel i is bit i % 8, least
    significant first, of byte i // 8) of the rows with a set bit
    (row_support; -0.0 counts), then those rows' C f32 values. Set padding
    bits and listed rows with no set bit are refused, so a grid has one
    encoding. Feature rows carry at most 256 channels (a bitmap byte decodes
    to at most 8 KiB); a wider grid is written as kind 2, every row's f32.
    A feature grid is read and written as grid.FeatureRows: kind 3 decodes
    to its stored rows and kind 2 to its rows with a set bit, so both
    encodings of one grid decode to the same rows.

OPCD point clouds
    magic "OPCD", version u32, count u64, then per point x/y/z as f32
    followed by a u8 label.

ODPT rasters
    magic "ODPT", version u32, kind u8 (0 depth, 1 semantic, 2 feature),
    W u32, H u32, channels u32, then W*H*channels f32 row-major.

Decoders are strict: wrong magic, wrong version, short or trailing payload
and nonsensical header fields each raise a distinct error type carrying the
byte offset or field name. Ranges are stored as f32 and decode rounded, bar
theta's (exact, see GridSpec); payloads round-trip bit-exactly. Encoders
refuse, with DomainError, what their decoders would reject: a grid whose
f32-rounded ranges make no valid spec, and a point beyond f32 range.

JSON: this module reads rigs, poses and grid specs, cylocc.synth scenes and
cylocc.losses class weights, all through _load_json and its typed readers.
Every loader raises InvalidField on a missing key, a wrong type, a non-finite
number, a vector of the wrong length, a non-integer size or a non-string
name: _fields is the one mapping from what a malformed value raises to
InvalidField, for the JSON loaders and the binary decoders alike.
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager

import numpy as np

from .errors import DomainError, require_finite
from .geom import ErpImage, FisheyeCamera, LabeledPointCloud, RigidTransform
from .grid import CUBOID, CYLINDRICAL, FeatureRows, GridSpec, VoxelGrid, row_support

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


@contextmanager
def _fields(fieldname: str, offset: int | None = None):
    """Re-raise KeyError, TypeError, ValueError (DomainError and ShapeError
    included) and OverflowError met while reading fieldname as InvalidField;
    format errors pass through unchanged."""
    try:
        yield
    except FormatError:
        raise
    except KeyError as e:
        raise InvalidField(f"missing key {e}", offset, fieldname) from e
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidField(str(e), offset, fieldname) from e


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
_FEATURE_ROWS = 3  # feature rows; kind 2, dense features, is written only past _MAX_ROW_CHANNELS
_PAYLOAD_CODES = {"label": 0, "occupancy": 1, "feature": 2}
_PAYLOAD_NAMES = {0: "label", 1: "occupancy", 2: "feature", _FEATURE_ROWS: "feature"}
_MAX_ROW_CHANNELS = 256  # so each bitmap byte decodes to at most 8 KiB: a short file cannot ask for GiBs

_OVOX_HEADER = struct.Struct("<4sIB3I6fBI")


def _f32(values) -> np.ndarray:
    """Values rounded to f32, the precision OVOX stores grid ranges in; inf beyond it."""
    with np.errstate(over="ignore"):
        return np.asarray(values, dtype=np.float32)


def encode_voxel_grid(grid: VoxelGrid | FeatureRows) -> bytes:
    """OVOX bytes of a grid: FeatureRows as kind 3, or as kind 2 past _MAX_ROW_CHANNELS."""
    ranges = _f32(grid.spec.ranges).reshape(-1).tolist()  # a range beyond f32 becomes inf, which the spec check refuses
    try:
        GridSpec(grid.spec.coord_sys, grid.spec.dims, (ranges[0:2], ranges[2:4], ranges[4:6]))
    except DomainError as e:
        raise DomainError(f"grid ranges {grid.spec.ranges} stored as f32 make no valid spec: {e}") from None
    as_rows = grid.kind == "feature" and grid.channels <= _MAX_ROW_CHANNELS
    header = _OVOX_HEADER.pack(
        b"OVOX",
        FORMAT_VERSION,
        _COORD_CODES[grid.spec.coord_sys],
        *grid.spec.dims,
        *ranges,
        _FEATURE_ROWS if as_rows else _PAYLOAD_CODES[grid.kind],
        grid.channels,
    )
    if not as_rows:  # the join is the only copy unless the payload needs converting to C order or the stored dtype
        payload, dtype = (grid.dense(), "<f4") if grid.kind == "feature" else (grid.data, np.uint8)
        return b"".join((header, memoryview(np.ascontiguousarray(payload, dtype))))
    keep = row_support(grid.rows)
    rows = grid.rows if keep.all() else grid.rows[keep]  # every row set: no gather, as the decoder makes no scatter
    listed = np.zeros(grid.spec.num_voxels, dtype=bool)
    listed[grid.voxels[keep]] = True
    return b"".join((header, np.packbits(listed, bitorder="little"), memoryview(np.ascontiguousarray(rows, "<f4"))))


def decode_voxel_grid(buf: bytes) -> VoxelGrid | FeatureRows:
    """An OVOX grid: a label or occupancy payload as a VoxelGrid, a feature payload as FeatureRows.
    Kind 3 keeps its stored rows, and kind 2 lists its rows with a set bit, so the two encodings of
    one grid decode to the same rows."""
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
    with _fields("dims/ranges", offset=9):
        spec = GridSpec(_COORD_NAMES[coord_code], (d0, d1, d2), (ranges[0:2], ranges[2:4], ranges[4:6]))
    voxels = rows = spec.num_voxels
    start, listed, item = _OVOX_HEADER.size, None, np.dtype("<f4" if kind == "feature" else np.uint8)
    if kind_code == _FEATURE_ROWS:
        if channels > _MAX_ROW_CHANNELS:
            raise InvalidField(f"{channels} channels exceed the {_MAX_ROW_CHANNELS} of feature rows", 46, "channels")
        bitmap = np.frombuffer(_need(buf, start, -(-voxels // 8), "row bitmap"), dtype=np.uint8)
        bits = np.unpackbits(bitmap, bitorder="little")
        if bits[voxels:].any():
            raise InvalidField("bits set past the last voxel", offset=start + voxels // 8, fieldname="row bitmap")
        listed = np.flatnonzero(bits[:voxels])
        start, rows = start + len(bitmap), len(listed)
    _exact_length(buf, start + rows * channels * item.itemsize, "payload")
    raw = np.frombuffer(buf, dtype=item, count=rows * channels, offset=start).reshape(rows, channels)
    with _fields("payload", offset=start):  # frombuffer shares buf, so a copy or gather makes the one writable array
        if kind != "feature":
            return VoxelGrid(spec, kind, raw.reshape(spec.dims).copy())
        keep = row_support(raw)
        if listed is None:
            listed = np.flatnonzero(keep)
        elif not keep.all():  # checked on the stored rows alone
            raise InvalidField("a listed row holds no set bit", offset=start, fieldname="row bitmap")
        return FeatureRows(spec, listed, raw.copy() if len(listed) == rows else raw[keep])


_OPCD_HEADER = struct.Struct("<4sIQ")
_OPCD_POINT = np.dtype([("xyz", "<f4", 3), ("label", "u1")])


def encode_point_cloud(cloud: LabeledPointCloud) -> bytes:
    rec = np.empty(len(cloud), dtype=_OPCD_POINT)
    with np.errstate(over="ignore"):
        rec["xyz"] = cloud.points.astype("<f4")
    require_finite("point coordinates stored as f32", rec["xyz"])
    rec["label"] = cloud.labels
    return _OPCD_HEADER.pack(b"OPCD", FORMAT_VERSION, len(cloud)) + rec.tobytes()


def decode_point_cloud(buf: bytes) -> LabeledPointCloud:
    _check_header(buf, b"OPCD")
    _need(buf, 0, _OPCD_HEADER.size, "header")
    _, _, count = _OPCD_HEADER.unpack_from(buf)
    expected = _OPCD_HEADER.size + count * _OPCD_POINT.itemsize
    _exact_length(buf, expected, "points")
    rec = np.frombuffer(buf, dtype=_OPCD_POINT, count=count, offset=_OPCD_HEADER.size)
    with _fields("points", offset=_OPCD_HEADER.size):
        return LabeledPointCloud(rec["xyz"].astype(np.float64), rec["label"].copy())


_ODPT_HEADER = struct.Struct("<4sIB3I")
_ODPT_KIND_CODES = {"depth_meters": 0, "semantic_label": 1, "feature": 2}
_ODPT_KIND_NAMES = {v: k for k, v in _ODPT_KIND_CODES.items()}


def encode_raster(img: ErpImage) -> bytes:
    header = _ODPT_HEADER.pack(
        b"ODPT", FORMAT_VERSION, _ODPT_KIND_CODES[img.kind], img.width, img.height, img.channels
    )
    return b"".join((header, memoryview(np.ascontiguousarray(img.data, dtype="<f4"))))


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
    with _fields("payload", offset=_ODPT_HEADER.size):
        return ErpImage(width, height, channels, data.reshape(shape).copy(), _ODPT_KIND_NAMES[kind_code])


# ---------------------------------------------------------------------------
# JSON documents: loaders read every value through these typed readers


def _num(v) -> float:
    """A finite JSON number; bools are not numbers."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {type(v).__name__}")
    if not math.isfinite(v):  # OverflowError for integers beyond float range
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _int(v) -> int:
    """A JSON integer; bools and fractional numbers are not integers."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {type(v).__name__}")
    return v


def _str(v) -> str:
    if not isinstance(v, str):
        raise TypeError(f"expected a string, got {type(v).__name__}")
    return v


def _vec(n: int | None, read=_num):
    """Reader of a JSON array of exactly n items (any number when n is None), each read by read."""
    def read_vec(v) -> tuple:
        if not isinstance(v, list) or (n is not None and len(v) != n):
            raise ValueError(f"expected an array of {n} items" if n is not None else "expected an array")
        return tuple(read(x) for x in v)

    return read_vec


def _load_json(text: str | bytes, what: str):
    with _fields(what):
        try:
            return json.loads(text)
        except RecursionError as e:
            raise ValueError("arrays or objects nested too deeply") from e


FISHEYE_MODEL = "equidistant_fisheye"

# JSON key and reader of each camera field, in the order rig_to_json writes them
_RIG_FIELDS = (("name", _str), ("model", _str), ("width", _int), ("height", _int), ("focal_px_per_rad", _num),
               ("cx", _num), ("cy", _num), ("fov_deg", _num), ("pose", _vec(16)))


def rig_to_json(rig: list[FisheyeCamera]) -> str:
    entries = []
    for cam in rig:
        cx, cy = cam.principal_point
        pose = [float(v) for v in cam.pose.matrix().reshape(-1)]
        values = (cam.name, FISHEYE_MODEL, cam.width, cam.height, cam.focal, cx, cy, math.degrees(cam.fov), pose)
        entries.append(dict(zip((key for key, _ in _RIG_FIELDS), values)))
    return json.dumps(entries, indent=2)


def rig_from_json(text: str | bytes) -> list[FisheyeCamera]:
    doc = _load_json(text, "rig config")
    if not isinstance(doc, list) or not doc:
        raise InvalidField("rig config must be a non-empty array of cameras", fieldname="rig")
    rig = []
    for i, entry in enumerate(doc):
        with _fields(f"cameras[{i}]"):
            name, model, width, height, focal, cx, cy, fov_deg, pose = (read(entry[k]) for k, read in _RIG_FIELDS)
            if model != FISHEYE_MODEL:
                raise InvalidField(f"unsupported camera model {model!r}", fieldname=f"cameras[{i}].model")
            pose = RigidTransform.from_matrix(np.reshape(pose, (4, 4)))
            rig.append(FisheyeCamera(width, height, focal, (cx, cy), math.radians(fov_deg), pose, name))
    return rig


def pose_to_json(pose: RigidTransform) -> str:
    return json.dumps({"pose": [float(v) for v in pose.matrix().reshape(-1)]})


def pose_from_json(text: str | bytes) -> RigidTransform:
    """A pose from {"pose": [16 numbers]} or a bare array, row-major 4x4."""
    doc = _load_json(text, "pose")
    raw = doc["pose"] if isinstance(doc, dict) and "pose" in doc else doc
    with _fields("pose"):
        return RigidTransform.from_matrix(np.reshape(_vec(16)(raw), (4, 4)))


def spec_from_json(text: str | bytes) -> GridSpec:
    doc = _load_json(text, "grid spec")
    with _fields("spec"):
        return GridSpec(doc["coord_sys"], _vec(3, _int)(doc["dims"]), _vec(3, _vec(2))(doc["ranges"]))

