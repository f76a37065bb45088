"""Analytic synthetic scenes: the package's independent reference oracle.

A Scene is an ordered list of labeled primitives with closed-form ray
intersections and interior tests, so rendered depth, sampled point clouds
and voxel ground truth are exact up to floating point. Where a point lies
in several primitives, or a ray hits two surfaces at the same parameter,
the earliest primitive in the list wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DomainError, require_finite
from .geom import ErpImage, LabeledPointCloud, RigidTransform, _as_points, erp_direction_grid
from .grid import GridSpec, VoxelGrid, majority_vote
from .metrics import generate_rays

_T_MIN = 1e-9  # smallest admissible ray parameter
_RENDER_RANGE = 1e6  # meters; farther surfaces render as missed pixels
_MAX_SUPERSAMPLE = 16  # 16^3 = 4,096 probe passes over the lattice
_CLOUD_FAN = (512, 64, (-1.2, 0.4))  # azimuths, elevations, elevation range (rad) per sampled origin
_CLOUD_RANGE = 60.0  # meters; farther surfaces leave no sample


@dataclass(frozen=True)
class HalfSpace:
    """Ground half-space: occupies z <= height; its surface is the plane."""

    height: float
    label: int

    def __post_init__(self):
        require_finite("half-space height", self.height)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return pts[:, 2] <= self.height

    def ray_first(self, o: np.ndarray, d: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (self.height - o[:, 2]) / d[:, 2]
        return np.where(np.isfinite(t) & (t > _T_MIN), t, np.inf)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]
    label: int

    def __post_init__(self):
        require_finite("box corners", self.min_corner, self.max_corner)
        if any(b <= a for a, b in zip(self.min_corner, self.max_corner)):
            raise DomainError("box extents must be positive")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.min_corner)
        hi = np.asarray(self.max_corner)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def ray_first(self, o: np.ndarray, d: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.min_corner)
        hi = np.asarray(self.max_corner)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo[None, :] - o) / d
            t2 = (hi[None, :] - o) / d
        # rays parallel to an axis: inside the slab -> (-inf, inf), else empty
        par = np.abs(d) < 1e-300
        inside = (o >= lo) & (o <= hi)
        tmin = np.where(par, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
        tmax = np.where(par, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
        t_near = tmin.max(axis=1)
        t_far = tmax.min(axis=1)
        valid = t_near <= t_far
        first = np.where(t_near > _T_MIN, t_near, t_far)
        return np.where(valid & (first > _T_MIN), first, np.inf)


@dataclass(frozen=True)
class VerticalCylinder:
    """Capped cylinder with axis parallel to z."""

    center: tuple[float, float]
    radius: float
    z_min: float
    z_max: float
    label: int

    def __post_init__(self):
        require_finite("cylinder center, radius and z extent", self.center, self.radius, self.z_min, self.z_max)
        if self.radius <= 0 or self.z_max <= self.z_min:
            raise DomainError("cylinder needs positive radius and z extent")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        dx = pts[:, 0] - self.center[0]
        dy = pts[:, 1] - self.center[1]
        return (
            (dx * dx + dy * dy <= self.radius * self.radius)
            & (pts[:, 2] >= self.z_min)
            & (pts[:, 2] <= self.z_max)
        )

    def ray_first(self, o: np.ndarray, d: np.ndarray) -> np.ndarray:
        ox = o[:, 0] - self.center[0]
        oy = o[:, 1] - self.center[1]
        a = d[:, 0] ** 2 + d[:, 1] ** 2
        b = 2.0 * (ox * d[:, 0] + oy * d[:, 1])
        c = ox * ox + oy * oy - self.radius**2
        disc = b * b - 4.0 * a * c
        ok = (disc >= 0) & (a > 1e-300)
        sq = np.sqrt(np.where(ok, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            ts = np.stack([(-b - sq) / (2 * a), (-b + sq) / (2 * a)], axis=1)
        ts = np.where(ok[:, None] & np.isfinite(ts), ts, -1.0)
        z_side = o[:, 2, None] + ts * d[:, 2, None]
        side_ok = (ts > _T_MIN) & (z_side >= self.z_min) & (z_side <= self.z_max)
        best = np.where(side_ok, ts, np.inf).min(axis=1)
        for z_cap in (self.z_min, self.z_max):
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (z_cap - o[:, 2]) / d[:, 2]
            t = np.where(np.isfinite(t), t, -1.0)
            px = ox + t * d[:, 0]
            py = oy + t * d[:, 1]
            cap_ok = (t > _T_MIN) & (px * px + py * py <= self.radius**2)
            best = np.minimum(best, np.where(cap_ok, t, np.inf))
        return best


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float
    label: int

    def __post_init__(self):
        require_finite("sphere center and radius", self.center, self.radius)
        if self.radius <= 0:
            raise DomainError("sphere radius must be positive")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        rel = pts - np.asarray(self.center)
        return np.sum(rel * rel, axis=1) <= self.radius * self.radius

    def ray_first(self, o: np.ndarray, d: np.ndarray) -> np.ndarray:
        rel = o - np.asarray(self.center)
        b = 2.0 * np.sum(rel * d, axis=1)
        c = np.sum(rel * rel, axis=1) - self.radius**2
        disc = b * b - 4.0 * c  # a == 1 for unit directions
        ok = disc >= 0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        t1 = 0.5 * (-b - sq)
        t2 = 0.5 * (-b + sq)
        first = np.where(t1 > _T_MIN, t1, t2)
        return np.where(ok & (first > _T_MIN), first, np.inf)


Primitive = HalfSpace | Box | VerticalCylinder | Sphere


@dataclass(frozen=True)
class Scene:
    """Ordered labeled primitives; earlier entries win ties and overlaps.

    An empty scene is legal and hits nothing.
    """

    primitives: tuple[Primitive, ...]

    def __post_init__(self):
        prims = tuple(self.primitives)
        if any(p.label < 1 for p in prims):
            raise DomainError("primitive labels must be semantic (>= 1)")
        object.__setattr__(self, "primitives", prims)

    def first_hit(self, origins: np.ndarray, directions: np.ndarray, max_dist: float):
        """(t, label, hit) arrays for an (N, 3) ray batch; nearest surface
        wins, earlier primitives win exact ties."""
        require_finite("max_dist", max_dist)
        o = _as_points(origins)
        d = _as_points(directions)
        best_t = np.full(len(o), np.inf)
        best_label = np.zeros(len(o), dtype=np.uint8)
        for prim in self.primitives:
            t = prim.ray_first(o, d)
            better = t < best_t
            best_t = np.where(better, t, best_t)
            best_label = np.where(better, prim.label, best_label)
        hit = np.isfinite(best_t) & (best_t <= max_dist)
        return np.where(hit, best_t, np.inf), np.where(hit, best_label, 0), hit

    def label_points(self, pts: np.ndarray) -> np.ndarray:
        """Semantic label per point, 0 outside every primitive."""
        labels = np.zeros(len(pts), dtype=np.uint8)
        unset = np.ones(len(pts), dtype=bool)
        for prim in self.primitives:
            inside = unset & prim.contains(pts)
            labels[inside] = prim.label
            unset &= ~inside
        return labels


def render_erp_depth(
    scene: Scene,
    width: int,
    height: int,
    pose: RigidTransform | None = None,
) -> tuple[ErpImage, ErpImage]:
    """Render radial depth and semantics over a full ERP raster.

    Rays start at the pose translation along pose-rotated pixel directions.
    Pixels with no surface within _RENDER_RANGE carry depth 0 and label 0.
    """
    if width < 1 or height < 1:
        raise DomainError("raster dimensions must be >= 1")
    pose = pose if pose is not None else RigidTransform.identity()
    dirs = erp_direction_grid(width, height).reshape(-1, 3) @ pose.rotation.T
    origins = np.broadcast_to(pose.translation, dirs.shape)
    t, label, hit = scene.first_hit(origins, dirs, _RENDER_RANGE)
    depth = np.where(hit, t, 0.0).reshape(height, width).astype(np.float32)
    sem = label.reshape(height, width).astype(np.float32)
    return ErpImage.depth(depth), ErpImage.semantic(sem)


def analytic_voxel_gt(scene: Scene, spec: GridSpec, supersample: int = 3) -> VoxelGrid:
    """Exact voxel ground truth by stratified interior sampling.

    Each voxel is probed at supersample^3 deterministic points (bin-center
    stratification in the grid's native coordinates) and labeled by majority
    vote with ties toward the smallest class id; free when no probe lands
    inside any primitive. supersample runs from 1 to 16.
    """
    if not 1 <= supersample <= _MAX_SUPERSAMPLE:
        raise DomainError(f"supersample must be in [1, {_MAX_SUPERSAMPLE}]")
    n = supersample
    c = max((p.label for p in scene.primitives), default=1) + 1
    voxel = np.arange(spec.num_voxels)
    idx = np.unravel_index(voxel, spec.dims)
    # one vote per voxel per pass, counted in a type that holds all n^3 of them
    votes = np.zeros((spec.num_voxels, c), dtype=np.min_scalar_type(n**3))
    for off in product(range(n), repeat=3):
        native = np.stack([spec.axis_value(idx[k] + (o + 0.5) / n, k) for k, o in enumerate(off)], axis=1)
        votes[voxel, scene.label_points(spec.to_cartesian(native))] += 1
    return VoxelGrid(spec, "label", majority_vote(votes).reshape(spec.dims))


def sample_scene_point_cloud(scene: Scene, origins) -> LabeledPointCloud:
    """Deterministic labeled surface samples from virtual ray fans.

    One _CLOUD_FAN per origin, the same fan pattern as generate_rays; every
    hit within _CLOUD_RANGE becomes one labeled point.
    """
    pts, labs = [], []
    for o in _as_points(origins):
        fan = generate_rays(*_CLOUD_FAN, o)
        t, label, hit = scene.first_hit(fan.origins, fan.directions, _CLOUD_RANGE)
        if np.any(hit):
            pts.append(fan.origins[hit] + t[hit, None] * fan.directions[hit])
            labs.append(label[hit])
    if not pts:
        return LabeledPointCloud.empty()
    return LabeledPointCloud(np.concatenate(pts), np.concatenate(labs).astype(np.uint8))
