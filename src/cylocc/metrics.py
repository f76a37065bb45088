"""Ray-based occupancy evaluation.

Query rays are cast into label grids to find the first non-free voxel along
each ray and the entry distance into it. A ray from the z axis of a
cylindrical grid keeps one azimuth bin and moves outward in r, so it covers
one run of r bins per z layer: a table of each grid's next occupied r bin
gives its first hit with one lookup per layer. Other rays sort their lattice
crossings and classify the intervals by midpoint up to the first occupied
one. Both match the all-intervals caster bit for bit, and ray_iou casts gt
and pred in one pass that computes the geometry once.

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
from .grid import _EDGE_GUARD, _MARGIN, CYLINDRICAL, GridSpec, VoxelGrid, default_label_set

_CHUNK = 2048  # rays per casting chunk; caps peak memory
_BLOCK = 32  # sorted intervals classified per pass over a chunk's active rays
_MIN_SEGMENT = 1e-12  # intervals shorter than this are degenerate
_MAX_RAYS = 2**20  # largest fan generate_rays builds: 64x the default 512 x 32
# An axis ray's azimuth fraction atan2(d_y, d_x) and a run end's r fraction t |d_xy| differ from point_to_flat's at
# o + t d, and from the far roots', by under 2**-48 of D1 or r_max / dr. The margins (in bins) w1 = _EDGE_GUARD +
# _MARGIN D1 and w0 = _RUN_MARGIN + _MARGIN r_max / dr cover that 256x over; w0 keeps run-end intervals long.
_RUN_MARGIN = 2.0**-13


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


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # parallel and tangent rays give non-finite entries
def _sorted_crossings(spec: GridSpec, o: np.ndarray, d: np.ndarray, max_dist: float) -> np.ndarray:
    """Row-sorted crossing parameters: 0, every lattice crossing inside
    (0, max_dist), and max_dist for the rest, so each row ends in zero-length
    max_dist padding. Interval j lies between columns j and j + 1. Every
    block builds every crossing family: a cylindrical one D2 + 1 z planes,
    the far and the near root of each of the D0 + 1 r shells and D1 azimuth
    planes, a cuboid one D_k + 1 planes per axis."""
    dims = spec.dims
    cyl = spec.coord_sys == CYLINDRICAL
    widths = [dims[2] + 1, dims[0] + 1, dims[0] + 1, dims[1]] if cyl else [n + 1 for n in dims]
    ts = np.empty((len(o), sum(widths) + 2))
    ts[:, 0], ts[:, -1] = 0.0, max_dist
    mid = ts[:, 1:-1]
    cols = np.split(mid, np.cumsum(widths)[:-1], axis=1)
    for k, col in zip([2] if cyl else range(3), cols):  # the planes of Cartesian axis k
        edges = spec.axis_value(np.arange(dims[k] + 1), k)
        np.divide(np.subtract(edges, o[:, k : k + 1], out=col), d[:, k : k + 1], out=col)
    if cyl:
        a = d[:, 0] ** 2 + d[:, 1] ** 2
        b = 2.0 * (o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1])
        c0 = o[:, 0] ** 2 + o[:, 1] ** 2
        rk2 = spec.axis_value(np.arange(dims[0] + 1), 0) ** 2
        disc = np.multiply((4.0 * a)[:, None], np.subtract(c0[:, None], rk2, out=cols[1]), out=cols[1])
        np.subtract((b**2)[:, None], disc, out=disc)  # b^2 - 4a (c0 - rk^2)
        # tangent guard: near-zero discriminants are treated as no crossing
        np.copyto(disc, np.nan, where=~((disc >= 1e-12) & (a[:, None] > 1e-30)))
        sq = np.sqrt(disc, out=cols[2])
        inv2a = 0.5 / a[:, None]
        np.multiply(np.add(-b[:, None], sq, out=cols[1]), inv2a, out=cols[1])
        np.multiply(np.subtract(-b[:, None], sq, out=cols[2]), inv2a, out=cols[2])
        # azimuth planes step from exactly -pi, not from the stored theta
        # range, which decoded specs carry rounded to f32
        alpha = -math.pi + np.arange(dims[1]) * (2.0 * math.pi / dims[1])
        nx, ny = -np.sin(alpha), np.cos(alpha)
        num = np.add(np.multiply(o[:, 0:1], nx, out=cols[3]), o[:, 1:2] * ny, out=cols[3])
        np.divide(np.negative(num, out=num), d[:, 0:1] * nx + d[:, 1:2] * ny, out=num)
    np.copyto(mid, max_dist, where=~((mid > 0.0) & (mid < max_dist)))
    ts.sort(axis=1)
    return ts


def _next_occupied(data: np.ndarray) -> np.ndarray:
    """nxt[(i * D1 + s) * D2 + k], i <= D0: the first occupied r bin >= i in azimuth bin s and layer k, or D0."""
    d0 = len(data)
    nxt = np.empty((d0 + 1, data[0].size), dtype=np.min_scalar_type(d0))
    nxt[:d0], nxt[d0] = (data.reshape(d0, -1) == 0) * nxt.dtype.type(d0), d0  # then r bin i where occupied
    np.maximum(nxt[:d0], np.arange(d0, dtype=nxt.dtype)[:, None], out=nxt[:d0])
    for i in range(d0 - 1, -1, -1):
        np.minimum(nxt[i], nxt[i + 1], out=nxt[i])
    return nxt.reshape(-1)


@np.errstate(over="ignore")  # crossings and fractions far past the grid overflow to inf
def _layer_runs(spec: GridSpec, o: np.ndarray, d: np.ndarray, max_dist: float, rk2: np.ndarray):
    """The rows of the rays o + t d that take layer runs (see _cast_grids), their |d_xy|^2, and per (run in travel
    order, ray): the flat cell of its first r bin a (at least 0), its last r bin (-1: none read), its start and a."""
    (r_lo, r_hi), _, (z_lo, z_hi) = spec.ranges
    (d0, d1, d2), dr = spec.dims, spec.deltas[0]
    a2 = d[:, 0] ** 2 + d[:, 1] ** 2  # as _sorted_crossings has it, so the far roots and their guard match
    theta = np.arctan2(d[:, 1], d[:, 0])
    fa = spec.axis_fraction(theta, 1) + _EDGE_GUARD
    w1 = _EDGE_GUARD + _MARGIN * d1
    ok = (o[:, 0] == 0.0) & (o[:, 1] == 0.0)  # off the axis r turns back and the azimuth moves
    ok &= d[:, 2] != 0.0  # else no z plane bounds a run
    # near an azimuth edge, or +-pi (atan2 takes a zero y's sign, f32 ranges bin +-pi apart), a midpoint may change bin
    ok &= (np.abs(fa - np.rint(fa)) >= w1) & (math.pi - np.abs(theta) >= w1 * spec.deltas[1])
    # where a shell with r > 0 fails the tangent guard, the sorted path reads one midpoint over several r bins
    ok &= (a2 > 1e-30) & (4.0 * a2 * rk2[int(r_lo == 0.0)] >= 1e-12)
    ok &= spec.coord_sys == CYLINDRICAL and dr > 2**14 * _MIN_SEGMENT  # see the l bound below
    rows = np.flatnonzero(ok)
    oz, dz, a2, h = o[rows, 2], d[rows, 2], a2[rows], np.hypot(d[rows, 0], d[rows, 1])
    # run ends as the sorted crossings hold them: 0, the z planes inside (0, max_dist) in travel order, max_dist
    edges = spec.axis_value(np.arange(d2 + 1), 2)[:, None]
    ends = np.empty((d2 + 3, len(rows)))
    ends[0], ends[-1] = 0.0, max_dist
    np.divide(np.subtract(np.where(dz > 0.0, edges, edges[::-1]), oz, out=ends[1:-1]), dz, out=ends[1:-1])
    np.copyto(ends, 0.0, where=~(ends > 0.0))
    f = spec.axis_fraction(np.minimum(ends, max_dist, out=ends) * h, 0)
    w0 = _RUN_MARGIN + _MARGIN * r_hi / dr
    # every ray's ends before lo are 0, and from hi on lie w0 past r_max: no run there reads a cell
    lo = len(ends) - 1 - np.count_nonzero(ends, axis=0).max(initial=0)
    hi = max(np.count_nonzero(f <= d0 + w0, axis=0).max(initial=0), lo + 1)
    ends, f = ends[lo : hi + 1], f[lo : hi + 1]
    # a run end within w0 of an r edge it can cross (not r = 0 at r_min = 0) leaves its bin and inner shells unsure
    bad = (np.abs(np.clip(np.rint(f), float(r_lo == 0.0), d0) - f) < w0).any(axis=0)
    t0, t1 = ends[:-1], ends[1:]
    long = t1 - t0 > _MIN_SEGMENT  # shorter runs hold only intervals the sorted path skips
    # w0 keeps each interval at a run end over l = min(t1 - t0, 2**-14 dr / |d_xy|) > _MIN_SEGMENT long, so every
    # midpoint of a run lies in [t0 + l / 4, t1 - l / 4], and its z bin is monotone in t: equal z codes (layer, or
    # below or above the range) there give all of them one layer, unequal ones may put one in the z guard's reach
    quarter = 0.25 * np.minimum(t1 - t0, 2**-14 * dr / h)
    z = np.stack([t0 + quarter, t1 - quarter]) * dz + oz  # z as point_to_flat takes a midpoint's
    code = np.minimum(np.floor(spec.axis_fraction(z, 2) + _EDGE_GUARD), d2 - 1)
    code[z < z_lo], code[z > z_hi] = -1.0, d2
    bad |= (long & (code[0] != code[1])).any(axis=0)
    a = np.clip(np.floor(f), -1, d0)  # r bins: -1 inside r_min, D0 past r_max
    cell = (np.maximum(a[:-1], 0) * d1 + np.floor(fa[rows]) % d1) * d2 + np.clip(code[0], 0, d2 - 1)
    last = np.where(long & (code[0] >= 0) & (code[0] < d2), np.minimum(a[1:], d0 - 1), -1)
    out = (rows, a2, cell.astype(np.int64), last, t0, a[:-1])
    return out if not bad.any() else tuple(x[..., ~bad] for x in out)


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

    Each ray's geometry is computed once for all grids, and each grid keeps
    its own hits: every result equals cast_all_intervals into that grid, bit
    for bit. A ray starting in an occupied cell hits there at t = 0.

    Layer runs. A ray from the z axis of a cylindrical spec keeps one azimuth
    bin s, and r = t |d_xy| only grows, so between two z-plane crossings it
    covers one run of r bins [a, b] in one layer k. The sorted path splits the
    run at the far roots of shells a + 1 .. b and reads (a, s, k) .. (b, s, k)
    in order, each first at its left crossing, so the first hit lies in the
    first run with nxt[s, k, max(a, 0)] <= min(b, D0 - 1) (_next_occupied), at
    the run's start for bin a, else at the far root sqrt((4a) r_i^2) (0.5 / a),
    with the sorted path's own operations, so the bits match. A ray for which
    a step of this may fail takes the sorted path; _layer_runs says why each
    such condition is needed.

    Sorted path. Each other ray sorts its crossings and bins their interval
    midpoints with point_to_flat, in blocks of _BLOCK columns up to its first
    occupied interval in every grid or its first max_dist column.
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
    # flat index -1 (outside the grid) reads the free class appended to each payload
    labels = np.stack([np.append(g.data.reshape(-1), np.uint8(0)) for g in grids])
    rk2, nxt = spec.axis_value(np.arange(spec.dims[0] + 1), 0) ** 2, None
    distance = np.empty((len(grids), len(rays)))
    voxel = np.empty((len(grids), len(rays)), dtype=np.int64)
    for s in range(0, len(rays), _CHUNK):
        # start cells by the point convention, which also settles origins sitting exactly on a lattice plane
        cell0 = spec.point_to_flat(rays.origins[s : s + _CHUNK])
        act = labels[:, cell0] == 0  # (grids, rays): still looking for a hit
        distance[:, s : s + _CHUNK] = np.where(act, np.inf, 0.0)
        voxel[:, s : s + _CHUNK] = np.where(act, -1, cell0)
        ray = s + np.flatnonzero(act.any(axis=0))  # starting occupied in every grid: never active
        rows, a2, cell, last, t0, first = _layer_runs(spec, rays.origins[ray], rays.directions[ray], max_dist, rk2)
        if rows.size:
            nxt = nxt or [_next_occupied(g.data) for g in grids]  # casts from off the axis never build them
            for g in range(len(grids)):
                i = nxt[g][cell]
                hit = i <= last
                r = np.flatnonzero(hit.any(axis=0) & act[g, ray[rows] - s])
                k = hit[:, r].argmax(axis=0)
                ib, j = i[k, r].astype(np.int64), first[k, r].astype(np.int64)
                voxel[g, ray[rows[r]]] = cell[k, r] + (ib - np.maximum(j, 0)) * (spec.dims[1] * spec.dims[2])
                distance[g, ray[rows[r]]] = np.where(ib == j, t0[k, r], np.sqrt(4.0 * a2[r] * rk2[ib]) * (0.5 / a2[r]))
            ray = np.delete(ray, rows)
        if not len(ray):
            continue
        o, d, act = rays.origins[ray], rays.directions[ray], act[:, ray - s]
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
            cells = spec.point_to_flat((mids[..., None] * d[active, None] + o[active, None]).reshape(-1, 3))
            cells = cells.reshape(mids.shape)
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
    """Exact first-hit cast of a ray batch into a label grid, far enough to
    leave it from every origin: one lookup per z layer for rays from the z
    axis, sorted crossing intervals for the rest (see _cast_grids)."""
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
