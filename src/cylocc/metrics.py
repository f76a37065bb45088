"""Ray-based occupancy evaluation.

Query rays are cast into label grids to find the first non-free voxel along
each ray. The parametric caster is exact: it collects every parameter value
where the ray crosses a lattice surface (r cylinders, azimuth planes and z
planes for cylindrical grids; axis planes for cuboid grids), sorts them,
and classifies the intervals by their midpoints in order up to the first
occupied one, so cells are visited in true geometric order and hits report
the entry distance into the first occupied cell.

RayIoU scores a prediction against ground truth per class: a ray whose
ground-truth hit has class c counts as TP_c when the prediction hits class
c within a distance threshold, else FN_c plus an FP of the predicted class;
prediction hits on rays without a ground-truth hit are FPs. Per-class IoU
is TP / (TP + FP + FN), averaged over classes that occur, then over
thresholds. Rays hitting nothing in either grid are ignored, and the free
class is never scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, require_finite
from .geom import _as_points
from .grid import CYLINDRICAL, GridSpec, VoxelGrid, default_label_set

_CHUNK = 2048  # rays per casting chunk; caps peak memory
_BLOCK = 32  # sorted intervals classified per pass over a chunk's active rays
_MIN_SEGMENT = 1e-12  # intervals shorter than this are degenerate
_MAX_RAYS = 2**20  # largest fan generate_rays builds: 64x the default 512 x 32


class Rays:
    """Batch of rays: (N, 3) ego-frame origins and unit directions."""

    def __init__(self, origins, directions):
        o, d = _as_points(origins), _as_points(directions)
        if d.shape != o.shape:
            raise ShapeError("origins and directions must have the same length")
        require_finite("ray origins and directions", o, d)
        norms = np.linalg.norm(d, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise DomainError("all ray directions must be unit length within 1e-9")
        self.origins = o
        self.directions = d

    def __len__(self) -> int:
        return len(self.origins)


def generate_rays(
    azimuth_count: int,
    elevation_count: int,
    elevation_range: tuple[float, float],
    origin=(0.0, 0.0, 0.0),
) -> Rays:
    """Deterministic fan: azimuth bin centers over [-pi, pi) crossed with
    elevation bin centers over the given range, at most _MAX_RAYS rays."""
    if azimuth_count < 1 or elevation_count < 1:
        raise DomainError("ray counts must be >= 1")
    if azimuth_count * elevation_count > _MAX_RAYS:
        raise DomainError(f"a fan holds at most {_MAX_RAYS} rays, got {azimuth_count}x{elevation_count}")
    lo, hi = elevation_range
    if not lo < hi:
        raise DomainError("elevation range must have lo < hi")
    az = -math.pi + (np.arange(azimuth_count) + 0.5) * (2.0 * math.pi / azimuth_count)
    el = lo + (np.arange(elevation_count) + 0.5) * ((hi - lo) / elevation_count)
    aa, ee = np.meshgrid(az, el, indexing="ij")
    ce = np.cos(ee)
    d = np.stack([ce * np.cos(aa), ce * np.sin(aa), np.sin(ee)], axis=-1).reshape(-1, 3)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    o = np.broadcast_to(np.asarray(origin, dtype=np.float64), d.shape).copy()
    return Rays(o, d)


def default_ray_fan() -> Rays:
    """512 x 32 lidar-like fan from the ego origin over elevations (-0.35, 0.15) rad."""
    return generate_rays(512, 32, (-0.35, 0.15))


@dataclass
class BatchHits:
    """Vectorized cast results: entry distance, label and flat voxel index of
    each ray's first hit; misses carry inf distance, label 0, voxel -1."""

    distance: np.ndarray
    label: np.ndarray
    voxel: np.ndarray

    @property
    def hit(self) -> np.ndarray:
        return np.isfinite(self.distance)

    def __len__(self) -> int:
        return len(self.distance)


def _plane_crossings(spec: GridSpec, o: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
    """Crossing parameters with the bin-edge planes of Cartesian axis k;
    rays parallel to the planes give non-finite entries."""
    edges = spec.axis_value(np.arange(spec.dims[k] + 1), k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (edges[None, :] - o[:, k : k + 1]) / d[:, k : k + 1]


def _cylindrical_crossings(spec: GridSpec, o: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Candidate crossing parameters with every r shell, azimuth plane and
    z plane of a cylindrical lattice; invalid entries are NaN."""
    cols = [_plane_crossings(spec, o, d, 2)]

    a = d[:, 0] ** 2 + d[:, 1] ** 2
    b = 2.0 * (o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1])
    c0 = o[:, 0] ** 2 + o[:, 1] ** 2
    rk = spec.axis_value(np.arange(spec.dims[0] + 1), 0)
    disc = b[:, None] ** 2 - 4.0 * a[:, None] * (c0[:, None] - rk[None, :] ** 2)
    # tangent guard: near-zero discriminants are treated as no crossing
    ok = (disc >= 1e-12) & (a[:, None] > 1e-30)
    sq = np.sqrt(np.where(ok, disc, np.nan))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv2a = 0.5 / a[:, None]
    cols.append((-b[:, None] - sq) * inv2a)
    cols.append((-b[:, None] + sq) * inv2a)

    # azimuth planes step from exactly -pi, not from the stored theta range,
    # which decoded specs carry rounded to f32
    d1 = spec.dims[1]
    alpha = -math.pi + np.arange(d1) * (2.0 * math.pi / d1)
    nx, ny = -np.sin(alpha), np.cos(alpha)
    den = d[:, 0:1] * nx[None, :] + d[:, 1:2] * ny[None, :]
    num = -(o[:, 0:1] * nx[None, :] + o[:, 1:2] * ny[None, :])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cols.append(num / den)

    return np.concatenate(cols, axis=1)


def _sorted_crossings(spec: GridSpec, o: np.ndarray, d: np.ndarray, max_dist: float) -> np.ndarray:
    """Row-sorted crossing parameters: 0, every lattice crossing inside
    (0, max_dist), and max_dist for the rest, so each row ends in zero-length
    max_dist padding. Interval j lies between columns j and j + 1."""
    n = len(o)
    if spec.coord_sys == CYLINDRICAL:
        raw = _cylindrical_crossings(spec, o, d)
    else:
        raw = np.concatenate([_plane_crossings(spec, o, d, k) for k in range(3)], axis=1)
    t = np.where(np.isfinite(raw) & (raw > 0.0) & (raw < max_dist), raw, max_dist)
    ts = np.concatenate([np.zeros((n, 1)), t, np.full((n, 1), max_dist)], axis=1)
    ts.sort(axis=1)
    return ts


def _grid_max_distance(spec: GridSpec, origins: np.ndarray) -> float:
    """Ray length guaranteed to leave the grid from any of the (N, 3) origins;
    inf when the farthest origin's norm overflows."""
    if spec.coord_sys == CYLINDRICAL:
        (_, r_hi), _, (z_lo, z_hi) = spec.ranges
        diag = math.hypot(2.0 * r_hi, z_hi - z_lo)
    else:
        diag = math.sqrt(sum((hi - lo) ** 2 for lo, hi in spec.ranges))
    with np.errstate(over="ignore"):
        extra = float(np.max(np.linalg.norm(origins, axis=1), initial=0.0))
    return diag + extra + 1.0


def cast_rays(rays: Rays, grid: VoxelGrid) -> BatchHits:
    """Exact first-hit cast of a ray batch into a label grid.

    Rays run far enough to leave the grid from every origin
    (_grid_max_distance). Each ray's sorted intervals are classified by
    midpoint in blocks of _BLOCK columns over the rays still active; a ray
    retires at its first occupied interval, or at the block that reaches its
    first max_dist column, after which only zero-length padding remains. A
    ray starting in an occupied cell never becomes active.
    """
    if grid.kind != "label":
        raise DomainError("ray casting needs a label grid")
    max_dist = _grid_max_distance(grid.spec, rays.origins)
    # the r-shell discriminant reaches about 8 * max_dist**2
    if not math.isfinite(8.0 * max_dist * max_dist):
        raise DomainError("ray origins lie too far from the grid: the squared ray length overflows")
    n = len(rays)
    # flat index -1 (outside the grid) reads the free class appended to the payload
    labels = np.append(grid.data.reshape(-1), 0)
    distance = np.full(n, np.inf)
    voxel = np.full(n, -1, dtype=np.int64)
    for s in range(0, n, _CHUNK):
        o = rays.origins[s : s + _CHUNK]
        d = rays.directions[s : s + _CHUNK]
        # a ray starting inside an occupied cell (per the point convention, which
        # also settles origins sitting exactly on a lattice plane) hits at t = 0
        cell0 = grid.spec.point_to_flat(o)
        start = labels[cell0] != 0
        distance[s : s + _CHUNK][start] = 0.0
        voxel[s : s + _CHUNK][start] = cell0[start]
        ts = _sorted_crossings(grid.spec, o, d, max_dist)
        live = np.argmax(ts == max_dist, axis=1)  # intervals before the padding
        ts = ts[:, : live.max() + 1]
        active = np.flatnonzero(~start)
        for j in range(0, ts.shape[1] - 1, _BLOCK):
            if not active.size:
                break
            block = ts[active, j : j + _BLOCK + 1]
            mids = 0.5 * (block[:, :-1] + block[:, 1:])
            pos = o[active, None, :] + mids[..., None] * d[active, None, :]
            cells = grid.spec.point_to_flat(pos.reshape(-1, 3)).reshape(len(active), -1)
            occupied = (labels[cells] != 0) & (np.diff(block, axis=1) > _MIN_SEGMENT)
            hit = occupied.any(axis=1)
            rows = np.flatnonzero(hit)
            first = occupied[rows].argmax(axis=1)
            distance[s + active[rows]] = block[rows, first]
            voxel[s + active[rows]] = cells[rows, first]
            active = active[~hit & (live[active] > j + cells.shape[1])]
    return BatchHits(distance, labels[voxel].astype(np.int64), voxel)


@dataclass
class ThresholdCounts:
    """Per-class confusion counts at one distance threshold."""

    threshold: float
    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray

    def per_class_iou(self) -> np.ndarray:
        denom = self.tp + self.fp + self.fn
        with np.errstate(invalid="ignore", divide="ignore"):
            iou = np.where(denom > 0, self.tp / np.maximum(denom, 1), np.nan)
        return iou

    def mean_iou(self) -> float:
        iou = self.per_class_iou()[1:]  # free class is never scored
        valid = ~np.isnan(iou)
        return float(np.mean(iou[valid])) if np.any(valid) else float("nan")


def _json_iou(v) -> float | None:
    return None if math.isnan(v) else float(v)


@dataclass
class RayIoUReport:
    """Confusion counts, per-class IoU and mean RayIoU, optionally per band."""

    class_names: tuple[str, ...]
    thresholds: tuple[float, ...]
    counts: list[ThresholdCounts]
    ray_iou: float
    per_threshold: np.ndarray
    bands: dict[tuple[float, float], "RayIoUReport"] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form; undefined (NaN) IoUs become None, i.e. JSON null."""
        out = {
            "classes": list(self.class_names),
            "thresholds": list(self.thresholds),
            "ray_iou": _json_iou(self.ray_iou),
            "per_threshold": [
                {
                    "threshold": c.threshold,
                    "mean_iou": _json_iou(c.mean_iou()),
                    "tp": c.tp.tolist(),
                    "fp": c.fp.tolist(),
                    "fn": c.fn.tolist(),
                    "per_class_iou": [_json_iou(v) for v in c.per_class_iou()],
                }
                for c in self.counts
            ],
            "config": self.config,
        }
        if self.bands:
            out["bands"] = {
                f"{lo}:{hi}": rep.to_dict() for (lo, hi), rep in self.bands.items()
            }
        return out


def _confusion(gt_hits: BatchHits, pred_hits: BatchHits, tau: float, num_classes: int,
               ray_mask: np.ndarray) -> ThresholdCounts:
    gt_hit = gt_hits.hit & ray_mask
    pred_hit = pred_hits.hit & ray_mask
    with np.errstate(invalid="ignore"):
        close = np.abs(pred_hits.distance - gt_hits.distance) <= tau
    tp_ray = gt_hit & pred_hit & (gt_hits.label == pred_hits.label) & close
    tp = np.bincount(gt_hits.label[tp_ray], minlength=num_classes)
    fn = np.bincount(gt_hits.label[gt_hit & ~tp_ray], minlength=num_classes)
    fp = np.bincount(pred_hits.label[pred_hit & ~tp_ray], minlength=num_classes)
    return ThresholdCounts(tau, tp[:num_classes], fp[:num_classes], fn[:num_classes])


def _report_from_hits(gt_hits, pred_hits, thresholds, names, ray_mask, config) -> RayIoUReport:
    c = len(names)
    counts = [_confusion(gt_hits, pred_hits, tau, c, ray_mask) for tau in thresholds]
    per = np.array([tc.mean_iou() for tc in counts])
    mean = float(np.mean(per)) if len(per) and not np.all(np.isnan(per)) else float("nan")
    return RayIoUReport(tuple(names), tuple(thresholds), counts, mean, per, {}, config)


def ray_iou(
    pred: VoxelGrid,
    gt: VoxelGrid,
    rays: Rays,
    thresholds=(1.0, 2.0, 4.0),
    bands=None,
) -> RayIoUReport:
    """Score pred against gt over the given rays.

    Thresholds are non-negative distances. bands, when given, are (lo, hi)
    meter pairs with lo < hi; each band sub-report restricts accounting to
    rays whose ground-truth hit distance d satisfies lo <= d < hi. Rays
    without a ground-truth hit belong to no band.
    """
    if pred.spec != gt.spec:
        raise ShapeError("pred and gt grids must share a spec")
    if pred.kind != "label" or gt.kind != "label":
        raise DomainError("RayIoU needs label grids")
    # comparisons written so that NaN fails them
    if not all(tau >= 0 for tau in thresholds):
        raise DomainError("distance thresholds must be non-negative")
    if bands and not all(lo < hi for lo, hi in bands):
        raise DomainError("each band needs lo < hi")
    names = default_label_set().names
    gt_hits = cast_rays(rays, gt)
    pred_hits = cast_rays(rays, pred)
    all_rays = np.ones(len(rays), dtype=bool)
    config = {
        "thresholds": list(thresholds),
        "num_rays": len(rays),
        "bands": [list(b) for b in bands] if bands else None,
    }
    report = _report_from_hits(gt_hits, pred_hits, thresholds, names, all_rays, config)
    if bands:
        for lo, hi in bands:
            mask = gt_hits.hit & (gt_hits.distance >= lo) & (gt_hits.distance < hi)
            report.bands[(float(lo), float(hi))] = _report_from_hits(
                gt_hits, pred_hits, thresholds, names, mask, {"band": [lo, hi]}
            )
    return report
