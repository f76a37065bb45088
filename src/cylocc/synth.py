"""Analytic synthetic scenes: the package's independent reference oracle.

A Scene is an ordered list of labeled primitives with closed-form ray
intersections and interior tests, so rendered depth, sampled point clouds
(both cast by one culled kernel) and voxel ground truth are exact up to
floating point. Where a point lies in several primitives, or a ray hits
two surfaces at the same parameter, the earliest primitive wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DomainError, require_count, require_finite
from .formats import InvalidField, _fields, _load_json, _num, _str, _vec
from .geom import UNLABELED, ErpImage, LabeledPointCloud, RigidTransform, _as_points, _erp_trig
from .grid import CUBOID, CYLINDRICAL, GridSpec, LabelSet, VoxelGrid, default_label_set, majority_vote
from .metrics import generate_rays

_T_MIN = 1e-9  # smallest admissible ray parameter
_RENDER_RANGE = 1e6  # meters; farther surfaces render as missed pixels
_MAX_SUPERSAMPLE = 16  # 16^3 = 4,096 probe passes over the lattice
_MAX_PIXELS = 1 << 25  # 33,554,432 pixels (8192 x 4096): two f32 rasters of 128 MiB each
_RENDER_BLOCK_PIXELS = 50_000  # pixels per row block of a render (25 rows at 2000 wide)
_BOUNDS_MARGIN = 1e-6  # relative widening of every culling box, far above float rounding
_CLOUD_FAN = (512, 64, (-1.2, 0.4))  # azimuths, elevations, elevation range (rad) per sampled origin
_CLOUD_RANGE = 60.0  # meters; farther surfaces leave no sample
_MAX_RADIUS = 2.0**512  # the smallest float whose square overflows


def _widened(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The box [lo, hi] grown by _BOUNDS_MARGIN relative to its largest |x| or |y| along x and y, |z| along z."""
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    big = np.maximum(np.abs(lo), np.abs(hi))
    m = _BOUNDS_MARGIN * (1.0 + np.maximum(big, [big[:2].max(), big[:2].max(), 0.0]))  # a column's r and theta mix x, y
    return lo - m, hi + m


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
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Conservative Cartesian box (lo, hi) around every point contains() accepts."""
        return _widened(self.min_corner, self.max_corner)

    def ray_first(self, o: np.ndarray, d: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.min_corner)
        hi = np.asarray(self.max_corner)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
        if not 0 < self.radius < _MAX_RADIUS or self.z_max <= self.z_min:
            raise DomainError("cylinder needs a positive radius below 2**512 and a positive z extent")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # far points overflow to inf, outside
            dx = pts[:, 0] - self.center[0]
            dy = pts[:, 1] - self.center[1]
            inside = dx * dx + dy * dy <= self.radius * self.radius
        return inside & (pts[:, 2] >= self.z_min) & (pts[:, 2] <= self.z_max)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Conservative Cartesian box (lo, hi) around every point contains() accepts."""
        (cx, cy), r = self.center, self.radius
        return _widened((cx - r, cy - r, self.z_min), (cx + r, cy + r, self.z_max))

    def ray_first(self, o: np.ndarray, d: np.ndarray) -> np.ndarray:
        # far origins and centers overflow the squares to inf and the
        # discriminant to nan, and a nearly horizontal ray meets a cap plane
        # so far out that px * px overflows: all of these miss
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ox = o[:, 0] - self.center[0]
            oy = o[:, 1] - self.center[1]
            a = d[:, 0] ** 2 + d[:, 1] ** 2
            b = 2.0 * (ox * d[:, 0] + oy * d[:, 1])
            c = ox * ox + oy * oy - self.radius**2
            disc = b * b - 4.0 * a * c
            ok = (disc >= 0) & (a > 1e-300)
            sq = np.sqrt(np.where(ok, disc, 0.0))
            ts = np.stack([(-b - sq) / (2 * a), (-b + sq) / (2 * a)], axis=1)
            ts = np.where(ok[:, None] & np.isfinite(ts), ts, -1.0)
            z_side = o[:, 2, None] + ts * d[:, 2, None]
            side_ok = (ts > _T_MIN) & (z_side >= self.z_min) & (z_side <= self.z_max)
            best = np.where(side_ok, ts, np.inf).min(axis=1)
            for z_cap in (self.z_min, self.z_max):
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
        if not 0 < self.radius < _MAX_RADIUS:
            raise DomainError("sphere radius must be positive and below 2**512")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # far points overflow to inf, outside
            rel = pts - np.asarray(self.center)
            return np.sum(rel * rel, axis=1) <= self.radius * self.radius

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Conservative Cartesian box (lo, hi) around every point contains() accepts."""
        c = np.asarray(self.center, dtype=np.float64)
        return _widened(c - self.radius, c + self.radius)

    def ray_first(self, o: np.ndarray, d: np.ndarray) -> np.ndarray:
        # far origins and centers overflow to inf and nan, which miss
        with np.errstate(over="ignore", invalid="ignore"):
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
    """Ordered primitives labeled 1 to 254; earlier entries win ties and overlaps.

    An empty scene is legal and hits nothing.
    """

    primitives: tuple[Primitive, ...]

    def __post_init__(self):
        prims = tuple(self.primitives)
        if any(not 1 <= p.label < UNLABELED for p in prims):
            raise DomainError(f"primitive labels must be semantic, from 1 to {UNLABELED - 1}")
        object.__setattr__(self, "primitives", prims)

    def label_points(self, pts: np.ndarray) -> np.ndarray:
        """Semantic label per point, 0 outside every primitive."""
        labels = np.zeros(len(pts), dtype=np.uint8)
        unset = np.ones(len(pts), dtype=bool)
        for prim in self.primitives:
            inside = unset & prim.contains(pts)
            labels[inside] = prim.label
            unset &= ~inside
        return labels


# shape tag -> (primitive class, JSON key and reader of each constructor
# argument before the label, in field order)
_SHAPES = {
    "half_space": (HalfSpace, (("height", _num),)),
    "box": (Box, (("min", _vec(3)), ("max", _vec(3)))),
    "cylinder": (VerticalCylinder, (("center", _vec(2)), ("radius", _num), ("z_min", _num), ("z_max", _num))),
    "sphere": (Sphere, (("center", _vec(3)), ("radius", _num))),
}


def scene_from_json(text: str | bytes) -> tuple[Scene, LabelSet]:
    """A scene and its class names from {"classes": [...], "primitives": [...]}; classes default to the default set."""
    doc = _load_json(text, "scene config")
    if not isinstance(doc, dict) or not isinstance(doc.get("primitives"), list):
        raise InvalidField("scene config must be an object with a primitives array", fieldname="scene")
    with _fields("classes"):
        labels = LabelSet(_vec(None, _str)(doc["classes"])) if "classes" in doc else default_label_set()
    prims = []
    for i, entry in enumerate(doc["primitives"]):
        with _fields(f"primitives[{i}]"):
            if entry["shape"] not in _SHAPES:
                raise InvalidField(f"unknown shape tag {entry['shape']!r}", fieldname=f"primitives[{i}].shape")
            cls, args = _SHAPES[entry["shape"]]
            prims.append(cls(*(read(entry[key]) for key, read in args), labels.index_of(entry["label"])))
    with _fields("primitives"):
        return Scene(tuple(prims)), labels


def _erp_rows(width: int, height: int, v0: int, v1: int) -> np.ndarray:
    """(v1 - v0, W, 3) ego-frame directions (cos phi * cos lambda, cos phi * sin lambda,
    sin phi) of rows v0..v1-1 of a W x H ERP raster, from the depth lift's trig table."""
    cos_lam, sin_lam, cos_phi, sin_phi = _erp_trig(width, height)
    cp = cos_phi[v0:v1, None]
    return np.stack(np.broadcast_arrays(cp * cos_lam, cp * sin_lam, sin_phi[v0:v1, None]), axis=-1)


def _pixel_rects(prim: Primitive, pose: RigidTransform, width: int, height: int, el0: float,
                 d_el: float) -> list[tuple[int, int, int, int]]:
    """Half-open pixel rectangles (v0, v1, u0, u1) holding every pixel whose
    ray from the pose origin can hit prim, on the grid of width azimuth bin
    centres over [-pi, pi) and height rows at elevations el0 + (v + 0.5) * d_el.

    The primitive's bounds, moved into the ego frame, give a conservative
    (lambda, phi) rectangle, grown by one pixel on every side and split at
    the lambda = +-pi seam. Bounds around the vertical axis span every
    azimuth, and bounds around the origin every azimuth and elevation: the
    whole grid, as a half-space gets. A rectangle with v0 >= v1 holds no row.
    """
    if isinstance(prim, HalfSpace):
        return [(0, height, 0, width)]
    lo, hi = prim.bounds()
    t = pose.translation
    rt = pose.rotation.T
    center = rt @ (0.5 * lo + 0.5 * hi - t)  # halved first: hi - lo overflows for a box wider than the float range
    half = np.abs(rt) @ (0.5 * hi - 0.5 * lo)
    m = _BOUNDS_MARGIN * (1.0 + max(np.abs(lo).max(), np.abs(hi).max(), np.abs(t).max()))
    (x0, y0, z0), (x1, y1, z1) = center - half - m, center + half + m
    rho_min = math.hypot(max(x0, -x1, 0.0), max(y0, -y1, 0.0))
    rho_max = math.hypot(max(-x0, x1), max(-y0, y1))
    # elevation rises with z and, above the horizon, falls with horizontal distance
    phi_hi = math.atan2(z1, rho_min if z1 >= 0 else rho_max)
    phi_lo = math.atan2(z0, rho_max if z0 >= 0 else rho_min)  # +-pi/2 straight up or down at rho_min = 0
    v_a, v_b = sorted((phi - el0) / d_el - 0.5 for phi in (phi_lo, phi_hi))
    v0, v1 = max(math.floor(v_a) - 1, 0), min(math.ceil(v_b) + 2, height)
    if rho_min == 0.0:  # the box spans the vertical axis: every azimuth
        return [(v0, v1, 0, width)]
    # the xy box misses the axis, so its azimuths lie within pi of its center's
    lam_c = math.atan2(0.5 * (y0 + y1), 0.5 * (x0 + x1))
    offs = [(math.atan2(y, x) - lam_c + math.pi) % (2.0 * math.pi) - math.pi for x in (x0, x1) for y in (y0, y1)]
    u0 = math.floor((lam_c + min(offs) + math.pi) / (2.0 * math.pi) * width - 0.5) - 1
    u1 = math.ceil((lam_c + max(offs) + math.pi) / (2.0 * math.pi) * width - 0.5) + 2
    if u1 - u0 >= width:
        return [(v0, v1, 0, width)]
    if u0 < 0:
        return [(v0, v1, 0, u1), (v0, v1, u0 + width, width)]
    if u1 > width:
        return [(v0, v1, u0, width), (v0, v1, 0, u1 - width)]
    return [(v0, v1, u0, u1)]


def _grid_first_hits(scene: Scene, pose: RigidTransform, grid: tuple, rows_of, max_dist: float):
    """Yield (b0, b1, t, label, hit) per block of about _RENDER_BLOCK_PIXELS pixels of
    the _pixel_rects grid = (width, height, el0, d_el): the nearest surface's parameter
    and label from the pose origin along the (pixels, 3) directions rows_of(b0, b1) of
    rows b0..b1-1, hit where t <= max_dist. A primitive meets only its rectangles, so
    the nearest surface, and the earlier primitive on a tie, win as if it met every ray."""
    width, height = grid[:2]
    rects = [(p, _pixel_rects(p, pose, *grid)) for p in scene.primitives]
    rows = max(1, _RENDER_BLOCK_PIXELS // width)
    for b0 in range(0, height, rows):
        b1 = min(b0 + rows, height)
        dirs = rows_of(b0, b1).reshape(b1 - b0, width, 3)
        best_t = np.full((b1 - b0, width), np.inf)
        best_label = np.zeros((b1 - b0, width), dtype=np.uint8)
        for prim, prim_rects in rects:
            for v0, v1, u0, u1 in prim_rects:
                r0, r1 = max(v0, b0) - b0, min(v1, b1) - b0  # the rectangle's rows within this block
                if r0 >= r1:
                    continue
                d = dirs[r0:r1, u0:u1].reshape(-1, 3)
                t = prim.ray_first(np.broadcast_to(pose.translation, d.shape), d).reshape(r1 - r0, u1 - u0)
                better = t < best_t[r0:r1, u0:u1]
                best_t[r0:r1, u0:u1][better] = t[better]
                best_label[r0:r1, u0:u1][better] = prim.label
        yield b0, b1, best_t, best_label, best_t <= max_dist


def render_erp_depth(
    scene: Scene,
    width: int,
    height: int,
    pose: RigidTransform | None = None,
) -> tuple[ErpImage, ErpImage]:
    """Render radial depth and semantics over a full ERP raster.

    Rays start at the pose translation along pose-rotated pixel directions.
    Pixels with no surface within _RENDER_RANGE carry depth 0 and label 0.
    A raster may hold at most _MAX_PIXELS pixels. Its rows, at elevations
    pi/2 - (v + 0.5) * pi / height, are cast in blocks by _grid_first_hits.
    """
    if width < 1 or height < 1:
        raise DomainError("raster dimensions must be >= 1")
    if width * height > _MAX_PIXELS:
        raise DomainError(f"a {width}x{height} raster exceeds the {_MAX_PIXELS}-pixel cap")
    pose = pose if pose is not None else RigidTransform.identity()
    depth = np.empty((height, width), dtype=np.float32)
    sem = np.empty((height, width), dtype=np.float32)
    for b0, b1, t, label, hit in _grid_first_hits(
            scene, pose, (width, height, 0.5 * math.pi, -math.pi / height),
            lambda b0, b1: _erp_rows(width, height, b0, b1).reshape(-1, 3) @ pose.rotation.T, _RENDER_RANGE):
        depth[b0:b1] = np.where(hit, t, 0.0)
        sem[b0:b1] = np.where(hit, label, 0)
    return ErpImage.depth(depth), ErpImage.semantic(sem)


def _bins(spec: GridSpec, box: np.ndarray, k: int) -> slice:
    """The axis-k bins from the one holding box[0, k] to the one holding box[1, k], clipped to the lattice."""
    return slice(*np.clip(np.floor(spec.axis_fraction(box[:, k], k)) + (0, 1), 0, spec.dims[k]).astype(int))


@np.errstate(over="ignore")  # the fractions and gaps of far bounds overflow to inf
def _boundary_cells(scene: Scene, spec: GridSpec) -> np.ndarray:
    """Ascending flat indices of the cells that may hold a probe inside a bounded primitive's bounds.

    Bounds box = (lo, hi) flag the cells of their z bins that lie in their x and y
    bins (cuboid), or whose column centre c (as index_to_center computes it) lies
    within the column's reach, hypot(max(lo - c, 0, c - hi)) <= reach (cylindrical):
    the distance from c to its farthest corner, an outer one as r_i + r_i+1 = 2 r_c,
    plus _BOUNDS_MARGIN * (1 + r_max). Exact: probes sit at least 0.5 / supersample
    of a bin inside their cell, so floored fractions of bounds around a probe keep
    its bin; an annular sector lies within its reach of its centre; the margins of
    the reach and of bounds() absorb the rounding of centres and probes; and bounds
    whose fractions or gaps overflow flag nothing.
    """
    flag = np.zeros(spec.dims, dtype=bool)
    if spec.coord_sys == CYLINDRICAL:
        d0, d1, _ = spec.dims
        r_c, r = spec.axis_value(np.arange(d0) + 0.5, 0), spec.axis_value(np.arange(d0) + 1.0, 0)
        centre = [np.multiply.outer(r_c, f(spec.axis_value(np.arange(d1) + 0.5, 1))) for f in (np.cos, np.sin)]
        # sqrt(r^2 + r_c^2 - 2 r r_c cos(dtheta / 2)) at the outer edge r as a sum of squares, never negative
        far = np.hypot(r - r_c, 2.0 * math.sin(0.25 * spec.deltas[1]) * np.sqrt(r * r_c))
        reach = far[:, None] + _BOUNDS_MARGIN * (1.0 + spec.ranges[0][1])
    for box in (np.array(p.bounds()) for p in scene.primitives if not isinstance(p, HalfSpace)):
        if spec.coord_sys == CUBOID:
            flag[_bins(spec, box, 0), _bins(spec, box, 1), _bins(spec, box, 2)] = True
        else:
            gap = [np.maximum(np.maximum(box[0, k] - c, c - box[1, k]), 0.0) for k, c in enumerate(centre)]
            flag[np.hypot(*gap) <= reach, _bins(spec, box, 2)] = True
    return np.flatnonzero(flag)


def _probe_vote(scene: Scene, spec: GridSpec, flat: np.ndarray, n: int) -> np.ndarray:
    """Majority vote of the cells with the given flat indices over their n^3 bin-center probes."""
    c = max((p.label for p in scene.primitives), default=1) + 1
    idx = np.unravel_index(flat, spec.dims)
    rows = np.arange(len(flat))
    # one vote per cell per pass, counted in a type that holds all n^3 of them
    votes = np.zeros((len(flat), c), dtype=np.min_scalar_type(n**3))
    for off in product(range(n), repeat=3):
        native = np.stack([spec.axis_value(idx[k] + (o + 0.5) / n, k) for k, o in enumerate(off)], axis=1)
        votes[rows, scene.label_points(spec.to_cartesian(native))] += 1
    return majority_vote(votes)


def analytic_voxel_gt(scene: Scene, spec: GridSpec, supersample: int = 3) -> VoxelGrid:
    """Exact voxel ground truth by stratified interior sampling.

    Each voxel is probed at supersample^3 deterministic points (bin-center
    stratification in the grid's native coordinates) and labeled by majority
    vote with ties toward the smallest class id; free when no probe lands
    inside any primitive. supersample runs from 1 to 16.

    A half-space reads only z, which both lattices pass through unchanged, so
    a cell with no probe in a bounded primitive's bounds votes as cell (0, 0, k)
    of its layer, flat index k, does among the half-spaces alone.
    Only the cells _boundary_cells flags are probed in the whole scene.
    """
    if not 1 <= require_count("supersample", supersample)[0] <= _MAX_SUPERSAMPLE:
        raise DomainError(f"supersample must be in [1, {_MAX_SUPERSAMPLE}]")
    ground = Scene(tuple(p for p in scene.primitives if isinstance(p, HalfSpace)))
    labels = np.tile(_probe_vote(ground, spec, np.arange(spec.dims[2]), supersample), spec.num_voxels // spec.dims[2])
    voxel = _boundary_cells(scene, spec)
    labels[voxel] = _probe_vote(scene, spec, voxel, supersample)
    return VoxelGrid(spec, "label", labels.reshape(spec.dims))


def sample_scene_point_cloud(scene: Scene, origins) -> LabeledPointCloud:
    """Deterministic labeled surface samples from virtual ray fans.

    One _CLOUD_FAN per origin, with generate_rays' directions in its
    azimuth-major order; every hit within _CLOUD_RANGE becomes one labeled
    point. _grid_first_hits casts the fan's elevation rows, culled as the
    render is, and the (elevation, azimuth) results are transposed back.
    """
    az, el, (lo, hi) = _CLOUD_FAN
    grid = (az, el, lo, (hi - lo) / el)
    dirs = generate_rays(*_CLOUD_FAN).directions  # the same fan from every origin
    rows = dirs.reshape(az, el, 3).transpose(1, 0, 2)
    pts, labs = [], []
    for o in _as_points(origins):
        blocks = _grid_first_hits(scene, RigidTransform(np.eye(3), o), grid, lambda b0, b1: rows[b0:b1], _CLOUD_RANGE)
        t, label, hit = (np.concatenate(part).T.reshape(-1) for part in list(zip(*blocks))[2:])
        pts.append(o + t[hit, None] * dirs[hit])
        labs.append(label[hit])
    if not pts:
        return LabeledPointCloud.empty()
    return LabeledPointCloud(np.concatenate(pts), np.concatenate(labs).astype(np.uint8))
