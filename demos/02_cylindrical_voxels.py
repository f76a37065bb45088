"""
Cylindrical voxel lattices
==========================

Index math on the default 128 x 200 x 16 cylindrical grid, majority-vote
voxelization, and the near-field density property that motivates the polar
layout.
"""

import numpy as np

from cylocc import (
    LabeledPointCloud,
    class_frequencies,
    default_cylindrical_spec,
    default_label_set,
    voxelize_semantic,
)

spec = default_cylindrical_spec()
print("dims:", spec.dims, "ranges:", spec.ranges)
print("bin widths (dr, dtheta, dz):", tuple(round(d, 6) for d in spec.deltas))

# points bin to flat indices (i_r * D1 + i_theta) * D2 + i_z, -1 outside;
# one meter ahead of the ego, one behind (the azimuth axis wraps: theta = pi
# is bin 0) and one beyond r_max
pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [30.0, 0.0, 0.0]])
flat = spec.point_to_flat(pts)
assert np.unravel_index(flat[1], spec.dims)[1] == 0 and flat[2] == -1
for p, f in zip(pts, flat):
    if f < 0:
        print(f"{p} -> outside (flat -1)")
    else:
        triple = tuple(int(i) for i in np.unravel_index(f, spec.dims))
        print(f"{p} -> flat {f} = {triple} -> center {np.round(spec.index_to_center([f])[0], 4)}")

# voxel footprint area r * dtheta * dr grows with radius: near cells are finer
dr, dt, _ = spec.deltas
centers_r = (np.arange(spec.dims[0]) + 0.5) * dr
area = centers_r * dt * dr
assert np.all(np.diff(area) > 0)
print(f"voxel footprint at r=0.3: {0.3 * dt * dr * 1e4:.2f} cm^2, "
      f"at r=25.5: {25.5 * dt * dr * 1e4:.2f} cm^2")

# majority voting with deterministic ties (smallest class id wins)
labels = default_label_set()
rng = np.random.RandomState(0)
pts = np.stack([rng.uniform(-20, 20, 50000), rng.uniform(-20, 20, 50000), rng.uniform(-2, 3, 50000)], axis=1)
cloud = LabeledPointCloud(pts, rng.randint(0, labels.count, 50000).astype(np.uint8))
grid = voxelize_semantic(cloud, spec, labels)
freq = class_frequencies(grid, labels.count)
print("occupied fraction:", 1.0 - freq[0])
for name, f in zip(labels.names, freq):
    if f > 0:
        print(f"  {name:>11s}: {f:.4f}")
