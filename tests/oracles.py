"""Test-only oracles and fixtures, written against cylocc's public API.

The fixed-step marcher is the brute-force reference for the exact caster,
and the broadcast-key vote the reference for analytic_voxel_gt's pass-by-pass
count; the JSON writers produce the documents the loaders read back. The
rest are inputs the tests share but the library never needs.
"""

import json
import math
from itertools import product

import numpy as np

from cylocc.grid import CUBOID, GridSpec, LabelSet, VoxelGrid, default_label_set
from cylocc.losses import ClassWeights
from cylocc.metrics import BatchHits
from cylocc.synth import Box, HalfSpace, Scene, Sphere, VerticalCylinder


def march_fixed_step(rays, grid, max_dist: float, step: float = 0.01) -> BatchHits:
    """Sample each ray every `step` meters from its origin and report the
    first sample landing in a non-free voxel. Skips cells whose chord along
    the ray is shorter than the step; distances are quantized to the step."""
    t = np.arange(int(math.floor(max_dist / step)) + 1, dtype=np.float64) * step
    chunk = max(1, 2_000_000 // len(t))  # about 2M samples per chunk
    parts = []
    for s in range(0, len(rays), chunk):
        o = rays.origins[s : s + chunk]
        d = rays.directions[s : s + chunk]
        pos = o[:, None, :] + t[None, :, None] * d[:, None, :]
        idx = grid.spec.point_to_index(pos.reshape(-1, 3)).reshape(len(o), len(t), 3)
        # OUTSIDE rows index the last voxel; the mask zeroes them
        lab = np.where(idx[..., 0] >= 0, grid.data[idx[..., 0], idx[..., 1], idx[..., 2]], 0).astype(np.int64)
        occupied = lab != 0
        rows = np.arange(len(o))
        first = occupied.argmax(axis=1)
        hit = occupied.any(axis=1)
        parts.append((
            np.where(hit, t[first], np.inf),
            np.where(hit, lab[rows, first], 0),
            np.where(hit[:, None], idx[rows, first], -1),
        ))
    return BatchHits(*(np.concatenate(p) for p in zip(*parts)))


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
    idx = spec.all_indices()
    labels = np.empty((n**3, num), dtype=np.uint8)
    for row, off in zip(labels, product(range(n), repeat=3)):
        native = np.stack([spec.axis_value(idx[:, k] + (o + 0.5) / n, k) for k, o in enumerate(off)], axis=1)
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
