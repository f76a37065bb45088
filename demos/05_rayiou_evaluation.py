"""
RayIoU evaluation with distance bands
=====================================

Build analytic ground truth for a scene, damage a copy of it, and score the
damaged prediction with query rays: per-class IoU over first-hit agreement
within distance thresholds, reported overall and per distance band.
"""

import numpy as np

from cylocc import (
    Box,
    HalfSpace,
    Scene,
    Sphere,
    VerticalCylinder,
    VoxelGrid,
    analytic_voxel_gt,
    default_cylindrical_spec,
    default_label_set,
    default_ray_fan,
    ray_iou,
)

scene = Scene((
    Box((6.0, -2.0, -1.3), (8.0, 0.0, 0.3), 7),
    VerticalCylinder((-4.0, 3.0), 0.3, -1.3, 2.3, 9),
    Sphere((2.0, 9.0, 0.2), 0.8, 6),
    Box((19.0, -8.0, -1.3), (20.0, 8.0, 2.7), 4),
    HalfSpace(-1.3, 1),
))

spec = default_cylindrical_spec()
labels = default_label_set()
gt = analytic_voxel_gt(scene, spec, 3)

# prediction = ground truth with far-range label noise
pred = VoxelGrid(spec, "label", gt.data.copy())
rng = np.random.RandomState(3)
centers = spec.index_to_center(np.arange(spec.num_voxels))
rr = np.hypot(centers[:, 0], centers[:, 1]).reshape(spec.dims)
flip = (pred.data != 0) & (rr > 12.0) & (rng.rand(*spec.dims) < 0.4)
pred.data[flip] = rng.randint(1, labels.count, size=int(flip.sum())).astype(np.uint8)
print(f"corrupted {int(flip.sum())} far voxels")

rays = default_ray_fan()
report = ray_iou(
    pred, gt, rays,
    thresholds=(1.0, 2.0, 4.0),
    bands=[(0.0, 8.5), (8.5, 17.0), (17.0, 60.0)],
)
print(f"RayIoU (mean over thresholds 1/2/4 m): {report.ray_iou:.4f}")
for tc in report.counts:
    print(f"  tau={tc.threshold}: mean IoU {tc.mean_iou():.4f}")
for band, sub in report.bands.items():
    print(f"  band {band[0]:>4.1f}-{band[1]:<4.1f} m: RayIoU {sub.ray_iou:.4f}")
# the noise lies past 12 m, so every ray whose ground truth hits within 8.5 m agrees
assert report.bands[(0.0, 8.5)].ray_iou == 1.0
print("per-class IoU at tau=2 m:")
for name, iou in zip(labels.names, report.counts[1].per_class_iou()):
    if not np.isnan(iou):
        print(f"  {name:>11s}: {iou:.4f}")
