"""
Coloring candidate voxels and fusing frames over time
=====================================================

Project candidate voxel centers into all six fisheye cameras, average the
bilinearly sampled features over the cameras that see each voxel, then
align a historical feature grid into the current frame and average.
"""

import numpy as np

from cylocc import (
    CandidateMask,
    FeatureImage,
    RigidTransform,
    VoxelGrid,
    align_history,
    build_hit_set,
    color_voxels,
    default_cylindrical_spec,
    fuse_temporal,
    surround_rig,
)
from cylocc.geom import rot_z

spec = default_cylindrical_spec()
rig = surround_rig()

# sparse candidate mask
rng = np.random.RandomState(1)
occ = (rng.rand(*spec.dims) < 0.002).astype(np.uint8)
mask = CandidateMask(VoxelGrid(spec, "occupancy", occ))

hits = build_hit_set(mask, rig)
counts = hits.hit_counts
print(f"{len(hits)} candidates; camera coverage histogram "
      f"{np.bincount(counts, minlength=7).tolist()} (index = #cameras)")

# synthetic feature rasters, one per camera
features = [FeatureImage(cam.name, rng.rand(32, 32, 8).astype(np.float32)) for cam in rig]
colored = color_voxels(hits, features)
print("colored grid channels:", colored.channels)
print("unseen candidates stay zero:", int(hits.unhit.sum()))
assert np.array_equal(colored.voxels, hits.voxels) and not colored.rows[hits.unhit].any()

# one historical frame, taken from a slightly different pose
t_curr = RigidTransform.identity()
t_hist = RigidTransform(rot_z(0.02), np.array([0.35, -0.1, 0.0]))
aligned = align_history(colored, t_hist, t_curr)
fused = fuse_temporal(colored, [aligned])
print("fused = (curr + aligned) / 2; max abs value.", float(np.abs(fused.rows).max()))
assert np.array_equal(fused.dense(), (colored.dense() + aligned.dense()) / 2)

# the algebra is exact: fusing a grid with itself returns it bit-for-bit
self_fused = fuse_temporal(colored, [colored])
exact = bool(np.array_equal(self_fused.dense(), colored.dense()))
print("self-fusion exact:", exact)
assert exact
