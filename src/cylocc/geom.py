"""Rigid transforms, fisheye and equirectangular camera geometry.

Conventions used throughout the package:

* Ego frame: x forward, y left, z up (right handed). All world-space
  quantities are meters.
* ERP rasters parameterize the full sphere. Pixel (u, v) samples at the
  pixel center (u + 0.5, v + 0.5); longitude lambda = ((u+0.5)/W)*2*pi - pi,
  latitude phi = pi/2 - ((v+0.5)/H)*pi, direction
  (cos phi * cos lambda, cos phi * sin lambda, sin phi) in ego axes.
* ERP depth is radial (Euclidean) distance along the pixel ray, not planar
  depth. Depth 0 encodes an invalid pixel.
* Fisheye cameras use the equidistant model rho = focal * theta, where
  theta is the incidence angle against the optical axis (+z in the camera
  frame) and rho the radial pixel distance from the principal point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, require_finite

# Label value for points lifted from a depth raster without semantics.
UNLABELED = 255


def _as_points(p) -> tuple[np.ndarray, bool]:
    """Coerce to an (N, 3) float64 array; report whether input was a single point."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.shape == (3,):
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == 3:
        return arr, False
    raise ShapeError(f"expected (3,) or (N, 3) points, got shape {arr.shape}")


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) pose: p_out = rotation @ p_in + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ShapeError("rotation must be 3x3 and translation length 3")
        require_finite("transform entries", r, t)
        # orthonormal rows bound every entry by 1; testing that first keeps
        # r @ r.T from overflowing on huge entries
        if np.max(np.abs(r)) > 1.0 + 1e-9 or np.max(np.abs(r @ r.T - np.eye(3))) > 1e-9:
            raise DomainError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise DomainError("rotation determinant differs from +1 by more than 1e-9")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_matrix(m) -> "RigidTransform":
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ShapeError("expected a 4x4 homogeneous matrix")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-9:
            raise DomainError("last row of a rigid transform must be (0, 0, 0, 1)")
        return RigidTransform(m[:3, :3], m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self @ other)(p) == self(other(p))."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def apply(self, p) -> np.ndarray:
        """Transform a point or an (N, 3) batch of points."""
        pts, single = _as_points(p)
        out = pts @ self.rotation.T + self.translation
        return out[0] if single else out


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


ERP_KINDS = ("depth_meters", "semantic_label", "feature")


@dataclass
class ErpImage:
    """Equirectangular raster of float32 values.

    data has shape (H, W) for a single channel or (H, W, channels). Depth
    and feature rasters must be finite; depth must also be non-negative,
    and 0 means invalid.
    """

    width: int
    height: int
    channels: int
    data: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in ERP_KINDS:
            raise DomainError(f"unknown raster kind {self.kind!r}")
        d = np.asarray(self.data, dtype=np.float32)
        want = (self.height, self.width) if self.channels == 1 else (self.height, self.width, self.channels)
        if d.shape != want:
            raise ShapeError(f"raster data shape {d.shape} does not match {want}")
        if self.kind in ("depth_meters", "feature"):
            require_finite(f"{self.kind} raster", d)
        if self.kind == "depth_meters" and np.any(d < 0):
            raise DomainError("depth raster contains negative values")
        self.data = d

    @staticmethod
    def depth(data) -> "ErpImage":
        d = np.asarray(data, dtype=np.float32)
        return ErpImage(d.shape[1], d.shape[0], 1, d, "depth_meters")

    @staticmethod
    def semantic(data) -> "ErpImage":
        d = np.asarray(data, dtype=np.float32)
        return ErpImage(d.shape[1], d.shape[0], 1, d, "semantic_label")


@dataclass
class LabeledPointCloud:
    """Ego-frame (x, y, z) samples with per-point semantic class ids."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        lab = np.asarray(self.labels, dtype=np.uint8).reshape(-1)
        if len(pts) != len(lab):
            raise ShapeError(f"{len(pts)} points but {len(lab)} labels")
        require_finite("point cloud coordinates", pts)
        self.points = pts
        self.labels = lab

    def __len__(self) -> int:
        return len(self.points)

    @staticmethod
    def empty() -> "LabeledPointCloud":
        return LabeledPointCloud(np.zeros((0, 3)), np.zeros(0, dtype=np.uint8))


def erp_pixel_to_direction(u, v, width: int, height: int) -> np.ndarray:
    """Unit ego-frame direction of ERP pixel(s) (u, v), pixel-center convention.

    u and v may be scalars or same-shaped arrays; returns (..., 3).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(u < 0) or np.any(u >= width) or np.any(v < 0) or np.any(v >= height):
        raise DomainError("pixel coordinates outside the raster")
    lam = (u + 0.5) / width * (2.0 * math.pi) - math.pi
    phi = 0.5 * math.pi - (v + 0.5) / height * math.pi
    cp = np.cos(phi)
    return np.stack([cp * np.cos(lam), cp * np.sin(lam), np.sin(phi)], axis=-1)


def erp_direction_grid(width: int, height: int) -> np.ndarray:
    """(H, W, 3) directions for every pixel of a W x H ERP raster."""
    u = np.arange(width, dtype=np.float64)
    v = np.arange(height, dtype=np.float64)
    uu, vv = np.meshgrid(u, v)
    return erp_pixel_to_direction(uu, vv, width, height)


def erp_depth_to_point_cloud(
    depth: ErpImage,
    semantic: ErpImage | None = None,
    stride: int = 1,
) -> LabeledPointCloud:
    """Lift an ERP depth raster to an ego-frame point cloud.

    Walks the stride lattice (u, v multiples of stride), skips invalid
    pixels (depth == 0), and emits depth * direction per pixel. Labels come
    from the semantic raster when given, else UNLABELED.
    """
    if depth.kind != "depth_meters":
        raise DomainError("depth raster must have kind depth_meters")
    if semantic is not None and (semantic.width, semantic.height) != (depth.width, depth.height):
        raise ShapeError("semantic raster size differs from depth raster")
    if stride < 1:
        raise DomainError("stride must be >= 1")

    d = depth.data[::stride, ::stride]
    valid = d > 0
    if not np.any(valid):
        return LabeledPointCloud.empty()
    vv, uu = np.nonzero(valid)
    dirs = erp_pixel_to_direction(uu * stride, vv * stride, depth.width, depth.height)
    pts = dirs * d[vv, uu].astype(np.float64)[:, None]
    if semantic is None:
        labels = np.full(len(pts), UNLABELED, dtype=np.uint8)
    else:
        labels = semantic.data[::stride, ::stride][vv, uu].astype(np.uint8)
    return LabeledPointCloud(pts, labels)


@dataclass
class FisheyeCamera:
    """Equidistant fisheye camera with a camera-to-ego pose.

    Camera frame: +z along the optical axis, +x along image u, +y along
    image v. focal is pixels per radian; fov is the full field of view in
    radians (incidence angles up to fov/2 project).
    """

    width: int
    height: int
    focal: float
    principal_point: tuple[float, float]
    fov: float
    pose: RigidTransform = field(default_factory=RigidTransform.identity)
    name: str = ""

    def __post_init__(self):
        if not (0.0 < self.fov <= math.pi + 0.35):
            raise DomainError(f"fov {self.fov} outside (0, pi + 0.35]")
        require_finite("focal and principal point", self.focal, self.principal_point)
        if self.focal <= 0:
            raise DomainError("focal must be positive")
        if self.width < 1 or self.height < 1:
            raise DomainError("raster dimensions must be >= 1")

    def project(self, p_ego) -> tuple[np.ndarray, np.ndarray]:
        """Project ego-frame point(s) to pixel coordinates.

        Returns (uv, valid). uv has shape (..., 2); entries with valid ==
        False missed the field of view (or sat on the camera center) and
        their uv values are undefined. A MISS is a value, not an error.
        """
        pts, single = _as_points(p_ego)
        p_cam = self.pose.inverse().apply(pts)
        x, y, z = p_cam[:, 0], p_cam[:, 1], p_cam[:, 2]
        rxy = np.hypot(x, y)
        theta = np.arctan2(rxy, z)
        rnorm = np.sqrt(x * x + y * y + z * z)
        valid = (theta < 0.5 * self.fov) & (rnorm >= 1e-6)
        rho = self.focal * theta
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(rxy > 0, rho / np.where(rxy > 0, rxy, 1.0), 0.0)
        cx, cy = self.principal_point
        uv = np.stack([cx + scale * x, cy + scale * y], axis=-1)
        if single:
            return uv[0], valid[0]
        return uv, valid

    def unproject(self, uv) -> np.ndarray:
        """Camera-frame unit direction(s) for pixel coordinate(s).

        Raises DomainError when the pixel's incidence angle would be at or
        beyond fov/2 (outside the image circle).
        """
        arr = np.asarray(uv, dtype=np.float64)
        single = arr.shape == (2,)
        arr = arr.reshape(-1, 2)
        cx, cy = self.principal_point
        dx, dy = arr[:, 0] - cx, arr[:, 1] - cy
        rho = np.hypot(dx, dy)
        theta = rho / self.focal
        if np.any(theta >= 0.5 * self.fov):
            raise DomainError("pixel lies outside the camera field of view")
        st = np.sin(theta)
        with np.errstate(invalid="ignore"):
            inv = np.where(rho > 0, st / np.where(rho > 0, rho, 1.0), 0.0)
        d = np.stack([dx * inv, dy * inv, np.cos(theta)], axis=-1)
        return d[0] if single else d


def surround_rig() -> list[FisheyeCamera]:
    """The six-camera surround rig: 640 x 640 equidistant fisheyes with a
    185 deg field of view and a focal length of 190 px/rad, mounted 1.6 m
    high on a 0.9 m ring and facing outward, evenly spaced in yaw.

    Camera i, named cam{i}, looks along ego yaw 2*pi*i/6; image u points
    to the camera's right, image v points down.
    """
    rig = []
    for i in range(6):
        yaw = 2.0 * math.pi * i / 6
        fwd = np.array([math.cos(yaw), math.sin(yaw), 0.0])
        right = np.array([math.sin(yaw), -math.cos(yaw), 0.0])
        down = np.array([0.0, 0.0, -1.0])
        r = np.stack([right, down, fwd], axis=1)  # columns: cam x, y, z in ego
        pose = RigidTransform(r, fwd * 0.9 + np.array([0.0, 0.0, 1.6]))
        rig.append(FisheyeCamera(640, 640, 190.0, (320.0, 320.0), math.radians(185.0), pose, f"cam{i}"))
    return rig
