"""Test-only oracles and fixtures, written against cylocc's public API.

The all-intervals caster is the exact reference for cast_rays' block-wise
early exit, the fixed-step marcher the brute-force one, and the
broadcast-key vote the reference for analytic_voxel_gt's pass-by-pass
count; the JSON writers produce the documents the loaders read back. The
rest are inputs the tests share but the library never needs.
"""

import json
import math
from itertools import product

import numpy as np

from cylocc.geom import LabeledPointCloud
from cylocc.grid import CUBOID, GridSpec, LabelSet, VoxelGrid, default_label_set
from cylocc.losses import ClassWeights
from cylocc.metrics import _CHUNK, _MIN_SEGMENT, BatchHits, Rays, _sorted_crossings, generate_rays
from cylocc.synth import Box, HalfSpace, Scene, Sphere, VerticalCylinder


def ray_intervals(spec: GridSpec, o: np.ndarray, d: np.ndarray, max_dist: float):
    """Sorted crossing parameters and midpoint cell classification of every
    interval, padding included.

    Returns (ts, cells, seg_len): ts has one more column than the interval
    arrays; cells/seg_len describe the interval between consecutive ts
    entries, cells as flat voxel indices with -1 for intervals outside the
    grid.
    """
    ts = _sorted_crossings(spec, o, d, max_dist)
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


def fan_point_cloud(scene, origins, azimuth_count: int, elevation_count: int, elevation_range) -> LabeledPointCloud:
    """Labeled surface samples within 60 m from a chosen fan per origin,
    built as sample_scene_point_cloud builds its fixed one, for tests that
    need a denser or narrower fan."""
    pts, labs = [], []
    for o in origins:
        fan = generate_rays(azimuth_count, elevation_count, elevation_range, o)
        t, label, hit = scene.first_hit(fan.origins, fan.directions, 60.0)
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


def default_cuboid_spec() -> GridSpec:
    """64^3 cuboid lattice over the same footprint as the cylindrical default."""
    return GridSpec(CUBOID, (64, 64, 64), ((-25.6, 25.6), (-25.6, 25.6), (-2.8, 3.6)))


def unit_weights(num_classes: int) -> ClassWeights:
    """Weight 1 for every class: the weighted losses reduce to their plain forms."""
    return ClassWeights(np.ones(num_classes), math.e, np.zeros(num_classes))


def analytic_voxel_gt_all_probes(scene, spec: GridSpec, supersample: int) -> VoxelGrid:
    """analytic_voxel_gt as one vote over every probe at once: all
    supersample^3 probe labels are held, broadcast against the voxel
    indices into (voxel, class) keys and bincounted; argmax takes the
    first maximum, so ties go to the smallest class id."""
    n = supersample
    num = spec.num_voxels
    c = max((p.label for p in scene.primitives), default=1) + 1
    idx = np.unravel_index(np.arange(num), spec.dims)
    labels = np.empty((n**3, num), dtype=np.uint8)
    for row, off in zip(labels, product(range(n), repeat=3)):
        native = np.stack([spec.axis_value(idx[k] + (o + 0.5) / n, k) for k, o in enumerate(off)], axis=1)
        row[:] = scene.label_points(spec.to_cartesian(native))
    keys = np.arange(num, dtype=np.int64) * c + labels
    votes = np.bincount(keys.reshape(-1), minlength=num * c).reshape(num, c)
    return VoxelGrid(spec, "label", np.argmax(votes, axis=1).astype(np.uint8).reshape(spec.dims))


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
