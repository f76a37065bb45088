"""Ray-based occupancy evaluation.

Query rays are cast into label grids to find the first non-free voxel along
each ray. The parametric caster is exact: it sorts every parameter where a
ray crosses a lattice surface (r cylinders, azimuth and z planes; axis planes
for cuboid grids), leaving out the near r roots and azimuth planes of a ray
block that can only meet them at t <= 0, and classifies the intervals by
midpoint in order up to the first occupied one, so hits report the entry
distance into the first occupied cell. A ray from the z axis bins midpoints
by one atan2 per ray and m |d_xy| (z as point_to_flat does, which re-bins
those within w_k of an edge), and in a grid free at every r of its azimuth
bin over the layers it reaches within r_max it is a sure miss, culled before
its crossings are built; cuboid specs and off-axis origins are never culled.
Crossings and cells depend only on the rays and the spec, so a cast into
several grids computes them once per ray: ray_iou casts gt and pred in one pass.

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

from .errors import DomainError, ShapeError, require_count, require_finite
from .geom import _as_points
from .grid import _EDGE_GUARD, CYLINDRICAL, GridSpec, VoxelGrid, default_label_set

_CHUNK = 2048  # rays per casting chunk; caps peak memory
_BLOCK = 32  # sorted intervals classified per pass over a chunk's active rays
_MIN_SEGMENT = 1e-12  # intervals shorter than this are degenerate
_MAX_RAYS = 2**20  # largest fan generate_rays builds: 64x the default 512 x 32
# An axis ray's per-ray bin fractions (atan2(d_y, d_x), m |d_xy|) differ from
# point_to_flat's of o + m d by under 2**-48 of the largest in-range fraction
# (r_max / dr, or D1). A margin w_k = _EDGE_GUARD + 2**-40 of it (256x) around each
# integer covers the floor there and in_range, _EDGE_GUARD above r_min and r_max.
_MARGIN = 2.0**-40


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
    azimuth_count, elevation_count = require_count("ray counts", azimuth_count, elevation_count)
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


def _plane_crossings(spec: GridSpec, o: np.ndarray, d: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write into out the crossing parameters with the bin-edge planes of
    Cartesian axis k; rays parallel to the planes give non-finite entries."""
    edges = spec.axis_value(np.arange(spec.dims[k] + 1), k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(np.subtract(edges, o[:, k : k + 1], out=out), d[:, k : k + 1], out=out)


def _sorted_crossings(spec: GridSpec, o: np.ndarray, d: np.ndarray, max_dist: float) -> np.ndarray:
    """Row-sorted crossing parameters: 0, every lattice crossing inside
    (0, max_dist), and max_dist for the rest, so each row ends in zero-length
    max_dist padding. Interval j lies between columns j and j + 1. A
    cylindrical block builds its near r roots only if some ray has
    b = 2 (o.d)_xy < 0, and its azimuth planes only if some origin is off
    the axis: else every such entry is <= 0 or NaN, which could only add
    padding after a row's first max_dist column."""
    dims = spec.dims
    if spec.coord_sys == CYLINDRICAL:
        a = d[:, 0] ** 2 + d[:, 1] ** 2
        b = 2.0 * (o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1])
        c0 = o[:, 0] ** 2 + o[:, 1] ** 2
        near = bool(np.any(b < 0.0))
        # test the coordinates: c0 underflows to 0 at |o_xy| ~ 1e-300, the plane numerators do not
        off_axis = bool(np.any(o[:, :2] != 0.0))
        widths = [dims[2] + 1, dims[0] + 1, near * (dims[0] + 1), off_axis * dims[1]]
    else:
        widths = [n + 1 for n in dims]
    ts = np.empty((len(o), sum(widths) + 2))
    ts[:, 0], ts[:, -1] = 0.0, max_dist
    mid = ts[:, 1:-1]
    cols = np.split(mid, np.cumsum(widths)[:-1], axis=1)
    if spec.coord_sys != CYLINDRICAL:
        for k, col in enumerate(cols):
            _plane_crossings(spec, o, d, k, col)
    else:
        _plane_crossings(spec, o, d, 2, cols[0])
        rk2 = spec.axis_value(np.arange(dims[0] + 1), 0) ** 2
        # b^2 - 4a (c0 - rk^2); on the axis b = +-0 and c0 = +0, so it is (4a) rk^2, and -b + sq is sq, bit for bit
        disc = np.subtract(c0[:, None], rk2, out=cols[1]) if off_axis else rk2
        disc = np.multiply((4.0 * a)[:, None], disc, out=cols[1])
        if off_axis:
            np.subtract((b**2)[:, None], disc, out=disc)
        # tangent guard: near-zero discriminants are treated as no crossing
        np.copyto(disc, np.nan, where=~((disc >= 1e-12) & (a[:, None] > 1e-30)))
        sq = np.sqrt(disc, out=cols[2] if near else disc)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv2a = 0.5 / a[:, None]
        np.multiply(np.add(-b[:, None], sq, out=cols[1]) if off_axis else sq, inv2a, out=cols[1])
        if near:
            np.multiply(np.subtract(-b[:, None], sq, out=cols[2]), inv2a, out=cols[2])
        if off_axis:
            # azimuth planes step from exactly -pi, not from the stored theta
            # range, which decoded specs carry rounded to f32
            alpha = -math.pi + np.arange(dims[1]) * (2.0 * math.pi / dims[1])
            nx, ny = -np.sin(alpha), np.cos(alpha)
            num = np.add(np.multiply(o[:, 0:1], nx, out=cols[3]), o[:, 1:2] * ny, out=cols[3])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                np.divide(np.negative(num, out=num), d[:, 0:1] * nx + d[:, 1:2] * ny, out=num)
    np.copyto(mid, max_dist, where=~((mid > 0.0) & (mid < max_dist)))
    ts.sort(axis=1)
    return ts


def _axis_rays(spec: GridSpec, o: np.ndarray, d: np.ndarray):
    """(flag, |d_xy|, azimuth bin floor(fa) mod D1) per ray; the flag marks rays from the z axis of a cylindrical
    spec w1 clear of azimuth edges and +-pi, whose midpoints m with m |d_xy| >= 1e-100 point_to_flat bins there."""
    h, theta = np.hypot(d[:, 0], d[:, 1]), np.arctan2(d[:, 1], d[:, 0])
    fa = spec.axis_fraction(theta, 1) + _EDGE_GUARD
    w1 = _EDGE_GUARD + _MARGIN * spec.dims[1]  # +-pi is an edge: atan2 takes a zero y's sign, f32 ranges bin +-pi apart
    axis = (o[:, 0] == 0.0) & (o[:, 1] == 0.0) & (spec.coord_sys == CYLINDRICAL)  # as _sorted_crossings tests o
    axis &= (np.abs(fa - np.rint(fa)) >= w1) & (math.pi - np.abs(theta) >= w1 * spec.deltas[1])
    return axis, h, (np.floor(fa) % spec.dims[1]).astype(np.int64)


def _midpoint_cells(spec: GridSpec, mids: np.ndarray, long, o, d, axis, h, sector) -> np.ndarray:
    """Flat cells of the (rays, columns) midpoints m of rays o + t d, exact where long marks an interval
    over _MIN_SEGMENT (no other cell is read); rays flagged by _axis_rays bin m by azimuth bin and m |d_xy|."""
    if not axis.any():
        pos = np.empty(mids.shape + (3,))
        for k in range(3):  # o_k + m * d_k, one axis at a time
            np.multiply(mids, d[:, k : k + 1], out=pos[..., k])
            pos[..., k] += o[:, k : k + 1]
        return spec.point_to_flat(pos.reshape(-1, 3)).reshape(mids.shape)
    ((r_lo, r_hi), _, (z_lo, z_hi)), (d0, d1, d2), dr = spec.ranges, spec.dims, spec.deltas[0]
    fr = mids * (h / dr)[:, None] + (_EDGE_GUARD - r_lo / dr)
    q0 = np.floor(fr)
    near = np.abs(fr - q0 - 0.5) > 0.5 - (_EDGE_GUARD + _MARGIN * r_hi / dr)
    redo = (near | (mids * np.where(axis, h, 0.0)[:, None] < 1e-100)) & long  # and subnormal m d, unflagged rays
    z = mids * d[:, 2:3] + o[:, 2:3]
    q2 = np.minimum(np.floor(spec.axis_fraction(z, 2) + _EDGE_GUARD), d2 - 1)
    cells = (q0 * d1 + sector[:, None]) * d2 + q2
    cells = np.where((q0 < 0) | (q0 >= d0) | (z < z_lo) | (z > z_hi), -1.0, cells).astype(np.int64)
    if redo.any():
        rows, cols = np.nonzero(redo)
        cells[rows, cols] = spec.point_to_flat(mids[rows, cols, None] * d[rows] + o[rows])
    return cells


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


def _cast_grids(rays: Rays, grids: list[VoxelGrid]) -> list[BatchHits]:
    """Exact first-hit casts of one ray batch into label grids on one spec.

    The geometry depends only on the rays and the spec, so each ray's
    crossings are sorted, and each interval's midpoint binned to a cell, once
    for all grids; each grid then reads its own labels at those cells, keeps
    its own first hit and retires the ray on its own. Every grid's result
    equals a cast into that grid alone, bit for bit.

    Before any crossing is built, a ray flagged by _axis_rays with |d_xy| >=
    4e-100 / _MIN_SEGMENT (so m |d_xy| >= 1e-100 on every long interval) is
    culled in a grid free at every r of its azimuth bin over the layers from
    bin(o_z) to bin(o_z + t_end d_z), clipped to [0, D2), with t_end the
    lesser of max_dist and (r_max / |d_xy|)(1 + _MARGIN). It keeps its miss:
    (1) both binning paths compute z as m d_z + o_z with the same operations,
    monotone in m; (2) every cell read lies in its azimuth bin, re-bins
    included (the _MARGIN argument); (3) past t_end no midpoint lies, or both
    give -1, by q0 >= D0 and by r > r_max in in_range; (4) the t = 0 cell is
    settled by the start test. Cuboid specs and off-axis rays are never culled.
    """
    if any(g.spec != grids[0].spec for g in grids):
        raise ShapeError("grids cast together must share a spec")
    if any(g.kind != "label" for g in grids):
        raise DomainError("ray casting needs label grids")
    if not grids:
        return []
    spec = grids[0].spec
    max_dist = _grid_max_distance(spec, rays.origins)
    # the r-shell discriminant reaches about 8 * max_dist**2
    if not math.isfinite(8.0 * max_dist * max_dist):
        raise DomainError("ray origins lie too far from the grid: the squared ray length overflows")
    n = len(rays)
    # flat index -1 (outside the grid) reads the free class appended to each payload
    labels = np.stack([np.append(g.data.reshape(-1), 0) for g in grids])
    if spec.coord_sys == CYLINDRICAL:  # layers[g, sector, k]: the layers below k grid g occupies at some r
        layers = np.stack([np.cumsum(np.pad((g.data != 0).any(axis=0), ((0, 0), (1, 0))), axis=1) for g in grids])
    distance = np.empty((len(grids), n))
    voxel = np.empty((len(grids), n), dtype=np.int64)
    for s in range(0, n, _CHUNK):
        o, d = rays.origins[s : s + _CHUNK], rays.directions[s : s + _CHUNK]
        # a ray starting inside an occupied cell (per the point convention, which
        # also settles origins sitting exactly on a lattice plane) hits at t = 0;
        # every other ray misses until a hit is found
        cell0 = spec.point_to_flat(o)
        act = labels[:, cell0] == 0  # (grids, rays): still looking for a hit
        distance[:, s : s + _CHUNK] = np.where(act, np.inf, 0.0)
        voxel[:, s : s + _CHUNK] = np.where(act, -1, cell0)
        axis, h, sector = _axis_rays(spec, o, d)
        sure = axis & (h >= 4e-100 / _MIN_SEGMENT)
        if sure.any():
            t_end = np.minimum(spec.ranges[0][1] / np.where(sure, h, np.inf) * (1.0 + _MARGIN), max_dist)
            z = np.stack([o[:, 2], t_end * d[:, 2] + o[:, 2]])
            k = np.clip(np.floor(spec.axis_fraction(z, 2) + _EDGE_GUARD), 0, spec.dims[2] - 1).astype(np.int64)
            act &= ~sure | (layers[:, sector, k.max(axis=0) + 1] > layers[:, sector, k.min(axis=0)])
        keep = np.flatnonzero(act.any(axis=0))  # culled or starting occupied in every grid: never active
        if not keep.size:
            continue
        ray, act = s + keep, act[:, keep]
        o, d, axis, h, sector = per_ray = [x[keep] for x in (o, d, axis, h, sector)]
        ts = _sorted_crossings(spec, o, d, max_dist)
        live = np.argmax(ts == max_dist, axis=1)  # intervals before the padding
        ts = ts[:, : live.max() + 1]
        active = np.arange(len(ray))
        for j in range(0, ts.shape[1] - 1, _BLOCK):
            if not active.size:
                break
            block = ts[active, j : j + _BLOCK + 1]
            mids = 0.5 * (block[:, :-1] + block[:, 1:])
            long = np.diff(block, axis=1) > _MIN_SEGMENT
            cells = _midpoint_cells(spec, mids, long, *(x[active] for x in per_ray))
            for g, lab in enumerate(labels):
                occupied = (lab[cells] != 0) & long
                hit = occupied.any(axis=1) & act[g, active]
                rows = np.flatnonzero(hit)
                first = occupied[rows].argmax(axis=1)
                distance[g, ray[active[rows]]] = block[rows, first]
                voxel[g, ray[active[rows]]] = cells[rows, first]
                act[g, active[rows]] = False
            # past its first max_dist column a ray holds only zero-length padding
            act[:, active[live[active] <= j + cells.shape[1]]] = False
            active = active[act[:, active].any(axis=0)]
    return [BatchHits(distance[g], lab[voxel[g]].astype(np.int64), voxel[g]) for g, lab in enumerate(labels)]


def cast_rays(rays: Rays, grid: VoxelGrid) -> BatchHits:
    """Exact first-hit cast of a ray batch into a label grid.

    Rays run far enough to leave the grid from every origin
    (_grid_max_distance). Each ray's sorted intervals are classified by
    midpoint in blocks of _BLOCK columns over the rays still active; a ray
    retires at its first occupied interval, or at the block that reaches its
    first max_dist column, after which only zero-length padding remains.
    Only rays off the z axis, and midpoints near bin edges, use point_to_flat.
    A ray starting in an occupied cell, or from the z axis with its azimuth
    bin free over every layer it reaches (see _cast_grids), never becomes
    active, and its crossings are never computed. ray_iou casts gt and pred
    together through the same kernel, which computes the crossings and cells
    once per ray and reads the labels per grid.
    """
    return _cast_grids(rays, [grid])[0]


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
    # comparisons written so that NaN fails them
    if not all(tau >= 0 for tau in thresholds):
        raise DomainError("distance thresholds must be non-negative")
    if bands and not all(lo < hi for lo, hi in bands):
        raise DomainError("each band needs lo < hi")
    names = default_label_set().names
    gt_hits, pred_hits = _cast_grids(rays, [gt, pred])
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
