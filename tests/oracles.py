"""Test-only oracles and fixtures, written against cylocc's public API.

The fixed-step marcher is the brute-force reference for the exact caster;
the rest are inputs the tests share but the library never needs.
"""

import math

import numpy as np

from cylocc.grid import CUBOID, GridSpec
from cylocc.losses import ClassWeights
from cylocc.metrics import BatchHits


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


def default_cuboid_spec() -> GridSpec:
    """64^3 cuboid lattice over the same footprint as the cylindrical default."""
    return GridSpec(CUBOID, (64, 64, 64), ((-25.6, 25.6), (-25.6, 25.6), (-2.8, 3.6)))


def unit_weights(num_classes: int) -> ClassWeights:
    """Weight 1 for every class: the weighted losses reduce to their plain forms."""
    return ClassWeights(np.ones(num_classes), math.e, np.zeros(num_classes))
