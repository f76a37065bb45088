"""Test-only oracles and fixtures, written against cylocc's public API and
the contract constants and checks it shares with the library: geom's
_as_points, grid's _EDGE_GUARD, the losses' _check_pair and _probs_array,
the caster's _CHUNK and _MIN_SEGMENT, and synth's _RENDER_RANGE.

The all-intervals caster, which casts one grid at a time and bins every
midpoint with point_to_flat, is the exact reference for the block-wise
early exit of cast_rays, for the layer-run lookups of rays from the z axis,
and for the shared pass in which ray_iou casts gt and pred together,
computing the geometry once per ray and reading labels per grid;
the fixed-step marcher is the brute-force one. The all-intervals caster sorts its
crossings with its own builder, sorted_crossings_all_families, which
computes every crossing family (z planes, both r roots of every shell,
every azimuth plane) for every ray from its own primitives, so it shares
no crossing code with metrics._sorted_crossings; the two must agree bit
for bit up to each row's first max_dist column. The synth oracle has two:
analytic_voxel_gt_all_probes, which probes every voxel supersample^3
times and votes once, for analytic_voxel_gt's vote, which votes each layer
once among the half-spaces and probes only the cells near a bounded
primitive, and
scene_first_hit, every ray meeting every primitive, for the culled
row-block kernel that render_erp_depth and sample_scene_point_cloud
share. render_erp_depth_all_pixels (scene_first_hit over every pixel of
erp_direction_grid at once) backs the render, and fan_point_cloud with
synth._CLOUD_FAN backs the cloud. The frame path streams in row blocks
and has four, each matched bit for bit: erp_lift_per_pixel (per-pixel
trig) for the table-driven depth lift, point_to_flat_unblocked for
point_to_flat, dense_align_history (every voxel center interpolated) for
align_history, and fuse_temporal_unblocked for fuse_temporal. Depth and
points reach voxels with no cloud and no dense vote table, and each path
keeps its full form as the judge: sketch_of_cloud, sketch_from_points of
the lifted cloud, for sketch_from_depth, and voxelize_dense_vote, the
(voxels, classes) count table that grid.majority_vote argmaxes, for
voxelize_semantic's key vote. The losses
take each call's per-class statistics in one pass, and their judges work
one class at a time: dice_loss compares one class against both grids, and
dice_macro must equal its mean over the present classes exactly;
scal_loss_per_class and scal_loss_grad_per_class take one boolean mask per
class, and scal_loss and scal_loss_grad must match them within 1e-12
relative; weighted_ce_formula and weighted_ce_grad_formula evaluate the
cross-entropy out of place, and the shared in-place kernel must match them
bit for bit. central_diff is the finite-difference check of the analytic
gradients. ray_iou_per_ray scores RayIoU one ray at a time in plain Python
for the report's vectorized counts over every threshold at once. The JSON
writers produce the documents the loaders read back.
feature_rows lists a dense feature array's set rows as FeatureRows, the
library's only feature grid; only tests start from dense features. The rest
are inputs the tests share but the library never needs.
"""

import json
import math
from itertools import product

import numpy as np

from cylocc import synth
from cylocc.errors import DomainError, ShapeError, require_finite
from cylocc.geom import (UNLABELED, ErpImage, LabeledPointCloud, RigidTransform, _as_points, erp_depth_to_point_cloud,
                         erp_pixel_to_direction)
from cylocc.grid import (_EDGE_GUARD, CUBOID, CYLINDRICAL, FeatureRows, GridSpec, LabelSet, VoxelGrid,
                         default_label_set, majority_vote, row_support)
from cylocc.losses import EPS, _check_pair, _probs_array
from cylocc.metrics import _CHUNK, _MIN_SEGMENT, BatchHits, Rays, generate_rays
from cylocc.sketch import sketch_from_points
from cylocc.synth import _RENDER_RANGE, Box, HalfSpace, Scene, Sphere, VerticalCylinder


def point_to_flat_unblocked(spec: GridSpec, p) -> np.ndarray:
    """GridSpec.point_to_flat binning all N points in one pass, with
    full-length temporaries: the exact reference for its row blocks."""
    native = spec.to_native(np.asarray(p, dtype=np.float64).reshape(-1, 3))
    flat = np.zeros(len(native), dtype=np.int64)
    for k, d in enumerate(spec.dims):
        with np.errstate(invalid="ignore"):
            q = np.floor(spec.axis_fraction(native[:, k], k) + _EDGE_GUARD).astype(np.int64)
        if spec.coord_sys == CYLINDRICAL and k == 1:
            np.mod(q, d, out=q)
        else:
            np.clip(q, 0, d - 1, out=q)
        flat *= d
        flat += q
    flat[~spec.in_range(native.T)] = -1
    return flat


def all_centers(spec: GridSpec) -> np.ndarray:
    """(D0*D1*D2, 3) Cartesian centers of every voxel, in flat index order."""
    return spec.index_to_center(np.arange(spec.num_voxels))


def plane_crossings(spec: GridSpec, o: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
    """Crossing parameters with the bin-edge planes of Cartesian axis k;
    rays parallel to the planes give non-finite entries."""
    edges = spec.axis_value(np.arange(spec.dims[k] + 1), k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (edges[None, :] - o[:, k : k + 1]) / d[:, k : k + 1]


def cylindrical_crossings(spec: GridSpec, o: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Candidate crossing parameters with every r shell (both roots),
    azimuth plane and z plane of a cylindrical lattice; invalid entries are
    NaN."""
    cols = [plane_crossings(spec, o, d, 2)]

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

    # azimuth planes step from -pi by their own formula, not through spec.axis_value as the caster's do
    d1 = spec.dims[1]
    alpha = -math.pi + np.arange(d1) * (2.0 * math.pi / d1)
    nx, ny = -np.sin(alpha), np.cos(alpha)
    den = d[:, 0:1] * nx[None, :] + d[:, 1:2] * ny[None, :]
    num = -(o[:, 0:1] * nx[None, :] + o[:, 1:2] * ny[None, :])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cols.append(num / den)

    return np.concatenate(cols, axis=1)


def sorted_crossings_all_families(spec: GridSpec, o: np.ndarray, d: np.ndarray, max_dist: float) -> np.ndarray:
    """metrics._sorted_crossings building every crossing family for every
    ray (z planes, both r roots, all azimuth planes; or the three axis plane
    families): 0, every lattice crossing inside (0, max_dist), and max_dist
    for the rest, row-sorted. The exact reference for the kernel, which
    builds its columns in place: the two agree bit for bit up to each row's
    first max_dist column."""
    n = len(o)
    if spec.coord_sys == CYLINDRICAL:
        raw = cylindrical_crossings(spec, o, d)
    else:
        raw = np.concatenate([plane_crossings(spec, o, d, k) for k in range(3)], axis=1)
    t = np.where(np.isfinite(raw) & (raw > 0.0) & (raw < max_dist), raw, max_dist)
    ts = np.concatenate([np.zeros((n, 1)), t, np.full((n, 1), max_dist)], axis=1)
    ts.sort(axis=1)
    return ts


def ray_intervals(spec: GridSpec, o: np.ndarray, d: np.ndarray, max_dist: float):
    """Sorted crossing parameters and midpoint cell classification of every
    interval, padding included.

    Returns (ts, cells, seg_len): ts has one more column than the interval
    arrays; cells/seg_len describe the interval between consecutive ts
    entries, cells as flat voxel indices with -1 for intervals outside the
    grid.
    """
    ts = sorted_crossings_all_families(spec, o, d, max_dist)
    seg_len = np.diff(ts, axis=1)
    mids = 0.5 * (ts[:, :-1] + ts[:, 1:])
    pos = o[:, None, :] + mids[..., None] * d[:, None, :]
    cells = spec.point_to_flat(pos.reshape(-1, 3)).reshape(len(o), -1)
    return ts, cells, seg_len


def cast_all_intervals(rays, grid, max_dist: float) -> BatchHits:
    """cast_rays classifying every sorted interval of every ray, with the
    same start-cell rule: the exact reference its early exit must match bit
    for bit."""
    labels = np.append(grid.data.reshape(-1), 0)
    parts = []
    for s in range(0, len(rays), _CHUNK):
        o = rays.origins[s : s + _CHUNK]
        d = rays.directions[s : s + _CHUNK]
        ts, cells, seg_len = ray_intervals(grid.spec, o, d, max_dist)
        occupied = (labels[cells] != 0) & (seg_len > _MIN_SEGMENT)
        rows = np.arange(len(o))
        first = occupied.argmax(axis=1)
        hit = occupied.any(axis=1)
        cell0 = grid.spec.point_to_flat(o)
        start = labels[cell0] != 0
        parts.append((
            np.where(start, 0.0, np.where(hit, ts[rows, first], np.inf)),
            np.where(start, cell0, np.where(hit, cells[rows, first], -1)),
        ))
    distance, voxel = (np.concatenate(p) for p in zip(*parts))
    return BatchHits(distance, labels[voxel].astype(np.int64), voxel)


def march_fixed_step(rays, grid, max_dist: float, step: float = 0.01) -> BatchHits:
    """Sample each ray every `step` meters from its origin and report the
    first sample landing in a non-free voxel. Skips cells whose chord along
    the ray is shorter than the step; distances are quantized to the step."""
    t = np.arange(int(math.floor(max_dist / step)) + 1, dtype=np.float64) * step
    chunk = max(1, 2_000_000 // len(t))  # about 2M samples per chunk
    # flat index -1 (outside the grid) reads the free class appended to the payload
    labels = np.append(grid.data.reshape(-1), 0).astype(np.int64)
    parts = []
    for s in range(0, len(rays), chunk):
        o = rays.origins[s : s + chunk]
        d = rays.directions[s : s + chunk]
        pos = o[:, None, :] + t[None, :, None] * d[:, None, :]
        flat = grid.spec.point_to_flat(pos.reshape(-1, 3)).reshape(len(o), len(t))
        lab = labels[flat]
        occupied = lab != 0
        rows = np.arange(len(o))
        first = occupied.argmax(axis=1)
        hit = occupied.any(axis=1)
        parts.append((
            np.where(hit, t[first], np.inf),
            np.where(hit, lab[rows, first], 0),
            np.where(hit, flat[rows, first], -1),
        ))
    return BatchHits(*(np.concatenate(p) for p in zip(*parts)))


def within_range(rays, hits, max_dist: float):
    """The rays, and their cast hits, that a marcher over [0, max_dist] can
    reproduce: the misses and the hits nearer than max_dist."""
    keep = ~hits.hit | (hits.distance < max_dist)
    return (Rays(rays.origins[keep], rays.directions[keep]),
            BatchHits(hits.distance[keep], hits.label[keep], hits.voxel[keep]))


def ray_iou_per_ray(gt_hits: BatchHits, pred_hits: BatchHits, thresholds, num_classes: int, ray_mask):
    """RayIoU scored ray by ray in plain Python, over the rays in ray_mask: per threshold the
    (tp, fp, fn) lists and the mean IoU over the classes 1 .. num_classes - 1 with
    TP + FP + FN > 0, and the mean of the defined per-threshold means (NaN where none is).
    A ray whose gt hits class g is TP_g if pred hits g within tau, else FN_g plus an FP of
    pred's class if pred hits; a pred hit on a ray gt misses is an FP. Labels >= num_classes
    are not counted."""
    counts, means = [], []
    for tau in thresholds:
        tp, fp, fn = [0] * num_classes, [0] * num_classes, [0] * num_classes
        for i in range(len(gt_hits)):
            if not ray_mask[i]:
                continue
            gd, pd = float(gt_hits.distance[i]), float(pred_hits.distance[i])
            g, p = int(gt_hits.label[i]), int(pred_hits.label[i])
            if math.isfinite(gd) and math.isfinite(pd) and g == p and abs(pd - gd) <= tau:
                if g < num_classes:
                    tp[g] += 1
                continue
            if math.isfinite(gd) and g < num_classes:
                fn[g] += 1
            if math.isfinite(pd) and p < num_classes:
                fp[p] += 1
        ious = [tp[c] / (tp[c] + fp[c] + fn[c]) for c in range(1, num_classes) if tp[c] + fp[c] + fn[c]]
        counts.append((tp, fp, fn))
        means.append(sum(ious) / len(ious) if ious else math.nan)
    defined = [m for m in means if not math.isnan(m)]
    return counts, means, sum(defined) / len(defined) if defined else math.nan


def scene_first_hit(scene, origins, directions, max_dist: float):
    """(t, label, hit) arrays for an (N, 3) ray batch, every ray meeting
    every primitive: the nearest surface wins, earlier primitives win exact
    ties, and t and label are inf and 0 where no surface lies within
    max_dist. The unculled reference for the library's culled first-hit
    kernel."""
    require_finite("max_dist", max_dist)
    o = _as_points(origins)
    d = _as_points(directions)
    best_t = np.full(len(o), np.inf)
    best_label = np.zeros(len(o), dtype=np.uint8)
    for prim in scene.primitives:
        t = prim.ray_first(o, d)
        better = t < best_t
        best_t = np.where(better, t, best_t)
        best_label = np.where(better, prim.label, best_label)
    hit = np.isfinite(best_t) & (best_t <= max_dist)
    return np.where(hit, best_t, np.inf), np.where(hit, best_label, 0), hit


def fan_point_cloud(scene, origins, azimuth_count: int, elevation_count: int, elevation_range) -> LabeledPointCloud:
    """Labeled surface samples within synth._CLOUD_RANGE from a chosen fan
    per origin, every ray meeting every primitive: the unculled reference
    for sample_scene_point_cloud with synth._CLOUD_FAN, and denser or
    narrower fans for tests that need them."""
    pts, labs = [], []
    for o in origins:
        fan = generate_rays(azimuth_count, elevation_count, elevation_range, o)
        t, label, hit = scene_first_hit(scene, fan.origins, fan.directions, synth._CLOUD_RANGE)
        pts.append(fan.origins[hit] + t[hit, None] * fan.directions[hit])
        labs.append(label[hit])
    return LabeledPointCloud(np.concatenate(pts), np.concatenate(labs).astype(np.uint8))


def lidar_ring_origins(count: int = 8, radius: float = 2.0, heights=(0.5, 1.8)) -> np.ndarray:
    """Sensor origins on rings around the ego, one ring per height."""
    ang = 2.0 * math.pi * np.arange(count) / count
    return np.concatenate([
        np.stack([radius * np.cos(ang), radius * np.sin(ang), np.full(count, float(h))], axis=1) for h in heights
    ])


# the scene of demos/07_full_pipeline.py
DEMO07_SCENE = Scene((
    *[Box((x, -0.15, -1.3), (x + 1.2, 0.15, -1.25), 11) for x in (2.0, 5.0, 8.0, 11.0, 14.0)],
    Box((-20.0, 6.0, -1.3), (20.0, 20.0, -1.22), 2),
    Box((4.0, -4.5, -1.3), (6.0, -2.5, 0.3), 7),
    VerticalCylinder((-4.0, 2.0), 0.3, -1.3, 2.3, 9),
    Sphere((-6.0, -5.0, 0.1), 1.0, 6),
    Box((18.0, -10.0, -1.3), (19.0, 10.0, 2.7), 4),
    HalfSpace(-1.3, 1),
))


# the scene of the representation experiment, acceptance test_09
REPRESENTATION_SCENE = Scene((
    *[Box((x, -0.15, -1.3), (x + 1.2, 0.15, -1.25), 11) for x in (2.0, 5.0, 8.0, 11.0, 14.0)],
    *[Box((-0.15, y, -1.3), (0.15, y + 1.2, -1.25), 11) for y in (2.5, 6.5, 10.5)],
    Box((-20.0, 6.0, -1.3), (20.0, 20.0, -1.22), 2),
    Box((4.0, -4.5, -1.3), (6.0, -2.5, 0.3), 7),
    VerticalCylinder((-4.0, 2.0), 0.3, -1.3, 2.3, 9),
    Sphere((-6.0, -5.0, 0.1), 1.0, 6),
    Box((18.0, -10.0, -1.3), (19.0, 10.0, 2.7), 4),
    Box((-22.0, -8.0, -1.3), (-21.0, 8.0, 2.7), 4),
    HalfSpace(-1.3, 1),
))


def default_cuboid_spec() -> GridSpec:
    """64^3 cuboid lattice over the same footprint as the cylindrical default."""
    return GridSpec(CUBOID, (64, 64, 64), ((-25.6, 25.6), (-25.6, 25.6), (-2.8, 3.6)))


def zero_grid(spec: GridSpec, kind: str) -> VoxelGrid:
    """An all-free label grid or an all-empty occupancy grid on spec."""
    return VoxelGrid(spec, kind, np.zeros(spec.dims, dtype=np.uint8))


def weighted_ce_formula(pred, gt: VoxelGrid, w: np.ndarray) -> float:
    """weighted_ce evaluated out of place: the mean of -w_y * ln(min(p_y + eps, 1))."""
    p = _probs_array(pred)
    y = _check_pair(p, gt)
    py = np.take_along_axis(p, y[..., None].astype(np.int64), axis=-1)[..., 0]
    terms = -w[y] * np.log(np.minimum(py + EPS, 1.0))
    return float(terms.mean())


def weighted_ce_grad_formula(pred, gt: VoxelGrid, w: np.ndarray) -> np.ndarray:
    """d(weighted_ce)/d(probs) as -w_y / (p_y + eps) / n at each voxel's true class."""
    p = _probs_array(pred)
    y = _check_pair(p, gt)
    n = y.size
    grad = np.zeros_like(p)
    py = np.take_along_axis(p, y[..., None].astype(np.int64), axis=-1)[..., 0]
    gy = np.where(py + EPS < 1.0, -w[y] / (py + EPS) / n, 0.0)
    np.put_along_axis(grad, y[..., None].astype(np.int64), gy[..., None], axis=-1)
    return grad


def dice_loss(pred_labels: VoxelGrid, gt: VoxelGrid, class_id: int) -> float:
    """1 - 2TP / (2TP + FP + FN) for one class; 0 when absent from both grids."""
    if pred_labels.spec != gt.spec:
        raise ShapeError("prediction and ground truth grids must share a spec")
    if pred_labels.kind != "label" or gt.kind != "label":
        raise DomainError("dice needs label grids")
    pc = pred_labels.data == class_id
    gc = gt.data == class_id
    tp = int(np.sum(pc & gc))
    fp = int(np.sum(pc & ~gc))
    fn = int(np.sum(~pc & gc))
    if tp + fp + fn == 0:
        return 0.0
    return 1.0 - 2.0 * tp / (2.0 * tp + fp + fn)


def _scal_stats_one_class(p: np.ndarray, y: np.ndarray, c: int):
    pc = p[..., c]
    is_c = y == c
    n_pos = int(is_c.sum())
    n_neg = is_c.size - n_pos
    s_all = float(pc.sum())
    s_true = float(pc[is_c].sum())
    precision = s_true / (s_all + EPS)
    recall = s_true / n_pos
    specificity = float((1.0 - pc[~is_c]).sum()) / n_neg if n_neg else 1.0
    return pc, is_c, n_pos, n_neg, s_all, precision, recall, specificity


def scal_loss_per_class(pred, gt: VoxelGrid) -> float:
    """scal_loss with one boolean mask per present class."""
    p = _probs_array(pred)
    y = _check_pair(p, gt)
    present = [c for c in range(1, p.shape[-1]) if np.any(y == c)]
    if not present:
        return 0.0
    total = 0.0
    for c in present:
        _, _, _, _, _, prec, rec, spec = _scal_stats_one_class(p, y, c)
        total += -(math.log(prec + EPS) + math.log(rec + EPS) + math.log(spec + EPS))
    return total / len(present)


def scal_loss_grad_per_class(pred, gt: VoxelGrid) -> np.ndarray:
    """scal_loss_grad with one boolean mask per present class."""
    p = _probs_array(pred)
    y = _check_pair(p, gt)
    present = [c for c in range(1, p.shape[-1]) if np.any(y == c)]
    grad = np.zeros_like(p)
    if not present:
        return grad
    scale = 1.0 / len(present)
    for c in present:
        pc, is_c, n_pos, n_neg, s_all, prec, rec, spec = _scal_stats_one_class(p, y, c)
        g = np.zeros_like(pc)
        # precision = s_true / (s_all + EPS)
        dprec = (is_c.astype(np.float64) - prec) / (s_all + EPS)
        g -= dprec / (prec + EPS)
        # recall = s_true / n_pos
        g -= is_c / (n_pos * (rec + EPS))
        # specificity = sum(1 - pc over negatives) / n_neg
        if n_neg:
            g += (~is_c) / (n_neg * (spec + EPS))
        grad[..., c] += scale * g
    return grad


def central_diff(fn, p: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the scalar fn at p, one entry at a
    time; p is perturbed in place and restored."""
    g = np.zeros_like(p)
    flat = p.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(p)
        flat[i] = orig - h
        lo = fn(p)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * h)
    return g


def cell_probes(spec: GridSpec, n: int):
    """Yield, per each of the n^3 probe offsets in analytic_voxel_gt's order,
    the (D0*D1*D2, 3) Cartesian probes of every cell: bin-center
    stratification in the grid's native coordinates."""
    idx = np.unravel_index(np.arange(spec.num_voxels), spec.dims)
    for off in product(range(n), repeat=3):
        yield spec.to_cartesian(np.stack([spec.axis_value(idx[k] + (o + 0.5) / n, k) for k, o in enumerate(off)], axis=1))


def analytic_voxel_gt_all_probes(scene, spec: GridSpec, supersample: int) -> VoxelGrid:
    """analytic_voxel_gt as one vote over every probe at once: all
    supersample^3 probe labels are held, broadcast against the voxel
    indices into (voxel, class) keys and bincounted; argmax takes the
    first maximum, so ties go to the smallest class id."""
    n = supersample
    num = spec.num_voxels
    c = max((p.label for p in scene.primitives), default=1) + 1
    labels = np.empty((n**3, num), dtype=np.uint8)
    for row, pts in zip(labels, cell_probes(spec, n)):
        row[:] = scene.label_points(pts)
    keys = np.arange(num, dtype=np.int64) * c + labels
    votes = np.bincount(keys.reshape(-1), minlength=num * c).reshape(num, c)
    return VoxelGrid(spec, "label", np.argmax(votes, axis=1).astype(np.uint8).reshape(spec.dims))


def erp_direction_grid(width: int, height: int) -> np.ndarray:
    """(H, W, 3) directions for every pixel of a W x H ERP raster."""
    u = np.arange(width, dtype=np.float64)
    v = np.arange(height, dtype=np.float64)
    uu, vv = np.meshgrid(u, v)
    return erp_pixel_to_direction(uu, vv, width, height)


def feature_rows(spec: GridSpec, data) -> FeatureRows:
    """The FeatureRows of a dense (D0, D1, D2, C) float32 feature array: the
    rows holding any set bit (row_support, so a -0.0 row is listed), a view
    of data, not a copy, when every row is set."""
    data = np.asarray(data, dtype=np.float32)
    if data.ndim != 4 or data.shape[:3] != spec.dims:
        raise ShapeError(f"feature data must be {spec.dims} + (channels,), got {data.shape}")
    flat = data.reshape(spec.num_voxels, -1)
    voxels = np.flatnonzero(row_support(flat))
    return FeatureRows(spec, voxels, flat if len(voxels) == len(flat) else flat[voxels])


def dense_align_history(hist, t_hist, t_curr):
    """align_history interpolating every voxel center, in float64, with no
    stencil support and no row blocks: the exact reference it must match bit
    for bit."""
    spec = hist.spec
    d0, d1, d2 = spec.dims
    ch = hist.channels
    rel = t_hist.inverse().compose(t_curr)
    native = spec.to_native(rel.apply(all_centers(spec)))

    def snap(frac):
        rounded = np.round(frac)
        return np.where(np.abs(frac - rounded) < 1e-9, rounded, frac)

    f0, f1, f2 = (snap(spec.axis_fraction(native[:, k], k) - 0.5) for k in range(3))
    in_range = spec.in_range(native.T)
    wrap_theta = spec.coord_sys == CYLINDRICAL
    base = [np.floor(f).astype(np.int64) for f in (f0, f1, f2)]
    t = [f - b for f, b in zip((f0, f1, f2), base)]
    data = hist.dense().astype(np.float64)

    def node(o0, o1, o2):
        i0 = base[0] + o0
        i1 = base[1] + o1
        i2 = base[2] + o2
        if wrap_theta:
            i1 = np.mod(i1, d1)
        ok = (i0 >= 0) & (i0 < d0) & (i1 >= 0) & (i1 < d1) & (i2 >= 0) & (i2 < d2)
        out = np.zeros((len(i0), ch), dtype=np.float64)
        if np.any(ok):
            out[ok] = data[i0[ok], i1[ok], i2[ok]]
        return out

    t0 = t[0][:, None]
    t1 = t[1][:, None]
    t2 = t[2][:, None]
    c00 = node(0, 0, 0) + t2 * (node(0, 0, 1) - node(0, 0, 0))
    c01 = node(0, 1, 0) + t2 * (node(0, 1, 1) - node(0, 1, 0))
    c10 = node(1, 0, 0) + t2 * (node(1, 0, 1) - node(1, 0, 0))
    c11 = node(1, 1, 0) + t2 * (node(1, 1, 1) - node(1, 1, 0))
    c0 = c00 + t1 * (c01 - c00)
    c1 = c10 + t1 * (c11 - c10)
    out = c0 + t0 * (c1 - c0)
    out[~in_range] = 0.0
    return out.reshape(d0, d1, d2, ch).astype(np.float32)


def fuse_temporal_unblocked(curr, aligned):
    """fuse_temporal widening the whole lattice to float64 at once: the exact
    reference for its block-by-block accumulation."""
    acc = curr.dense().astype(np.float64)
    for g in aligned:
        acc += g.dense()
    acc /= len(aligned) + 1
    return acc.astype(np.float32)


def erp_lift_per_pixel(depth, semantic=None, stride: int = 1) -> LabeledPointCloud:
    """erp_depth_to_point_cloud lifting every valid pixel of the stride
    lattice at once: erp_pixel_to_direction of the pixel times its depth,
    with trig per pixel. The exact reference for the lift's per-column and
    per-row trig tables and its row blocks."""
    d = depth.data[::stride, ::stride]
    vv, uu = np.nonzero(d > 0)
    dirs = erp_pixel_to_direction(uu * stride, vv * stride, depth.width, depth.height)
    pts = dirs * d[vv, uu].astype(np.float64)[:, None]
    if semantic is None:
        labels = np.full(len(pts), UNLABELED, dtype=np.uint8)
    else:
        labels = semantic.data[::stride, ::stride][vv, uu].astype(np.uint8)
    return LabeledPointCloud(pts, labels)


def sketch_of_cloud(depth, spec: GridSpec, min_points: int = 1, stride: int = 1):
    """sketch_from_points of the lifted cloud: the exact reference for sketch_from_depth's cloud-free binning."""
    return sketch_from_points(erp_depth_to_point_cloud(depth, None, stride), spec, min_points)


def voxelize_dense_vote(cloud, spec: GridSpec, labels: LabelSet) -> VoxelGrid:
    """voxelize_semantic as a bincount over every (voxel, class) pair and majority_vote's argmax
    of that dense table: the exact reference for its vote over the sorted unique keys."""
    c = labels.count
    flat = spec.point_to_flat(cloud.points)
    inside = flat >= 0
    counts = np.bincount(flat[inside] * c + cloud.labels[inside], minlength=spec.num_voxels * c)
    return VoxelGrid(spec, "label", majority_vote(counts.reshape(-1, c)).reshape(spec.dims))


def render_erp_depth_all_pixels(scene, width: int, height: int, pose=None) -> tuple[ErpImage, ErpImage]:
    """render_erp_depth as one scene_first_hit over every pixel's ray and
    every primitive: the exact reference its culled row blocks must match
    bit for bit."""
    pose = pose if pose is not None else RigidTransform.identity()
    dirs = erp_direction_grid(width, height).reshape(-1, 3) @ pose.rotation.T
    origins = np.broadcast_to(pose.translation, dirs.shape)
    t, label, hit = scene_first_hit(scene, origins, dirs, _RENDER_RANGE)
    depth = np.where(hit, t, 0.0).reshape(height, width).astype(np.float32)
    sem = label.reshape(height, width).astype(np.float32)
    return ErpImage.depth(depth), ErpImage.semantic(sem)


def _primitive_doc(p) -> dict:
    """JSON fields of one primitive before its label, in the loader's key order."""
    if isinstance(p, HalfSpace):
        return {"shape": "half_space", "height": p.height}
    if isinstance(p, Box):
        return {"shape": "box", "min": list(p.min_corner), "max": list(p.max_corner)}
    if isinstance(p, VerticalCylinder):
        return {"shape": "cylinder", "center": list(p.center), "radius": p.radius, "z_min": p.z_min,
                "z_max": p.z_max}
    if isinstance(p, Sphere):
        return {"shape": "sphere", "center": list(p.center), "radius": p.radius}
    raise TypeError(f"unknown primitive type {type(p).__name__}")


def scene_to_json(scene, labels: LabelSet | None = None) -> str:
    """The scene document scene_from_json reads, class names included."""
    lab = labels if labels is not None else default_label_set()
    prims = [{**_primitive_doc(p), "label": lab.names[p.label]} for p in scene.primitives]
    return json.dumps({"classes": list(lab.names), "primitives": prims}, indent=2)


def spec_to_json(spec: GridSpec) -> str:
    """The grid spec document spec_from_json reads."""
    return json.dumps({"coord_sys": spec.coord_sys, "dims": list(spec.dims), "ranges": [list(r) for r in spec.ranges]})
