"""
End-to-end pipeline and the cylindrical-vs-cuboid experiment
============================================================

Runs the whole chain through the binary file formats, exactly as the CLI
composes it, then repeats the representation comparison: with an equal
voxel budget, the cylindrical grid wins the near band because its cells
are finer where it matters.

Writes intermediate files into pipeline_out under the working directory
(about 3 MB).
"""

from pathlib import Path

from cylocc import (
    Box,
    HalfSpace,
    Scene,
    Sphere,
    VerticalCylinder,
    analytic_voxel_gt,
    default_cylindrical_spec,
    default_label_set,
    default_ray_fan,
    default_schedule,
    dilate_radial,
    erp_depth_to_point_cloud,
    ray_iou,
    render_erp_depth,
    sketch_from_depth,
    voxelize_semantic,
)
from cylocc.formats import decode_raster, decode_voxel_grid, encode_raster, encode_voxel_grid
from cylocc.grid import CUBOID, GridSpec

out = Path("pipeline_out")
out.mkdir(exist_ok=True)

scene = Scene((
    *[Box((x, -0.15, -1.3), (x + 1.2, 0.15, -1.25), 11) for x in (2.0, 5.0, 8.0, 11.0, 14.0)],
    Box((-20.0, 6.0, -1.3), (20.0, 20.0, -1.22), 2),
    Box((4.0, -4.5, -1.3), (6.0, -2.5, 0.3), 7),
    VerticalCylinder((-4.0, 2.0), 0.3, -1.3, 2.3, 9),
    Sphere((-6.0, -5.0, 0.1), 1.0, 6),
    Box((18.0, -10.0, -1.3), (19.0, 10.0, 2.7), 4),
    HalfSpace(-1.3, 1),
))

# 1. render omnidirectional depth and semantics, write ODPT rasters
depth, sem = render_erp_depth(scene, 1600, 800)
(out / "depth.odpt").write_bytes(encode_raster(depth))
(out / "semantic.odpt").write_bytes(encode_raster(sem))
print("rendered ERP depth:", depth.width, "x", depth.height)

# 2. depth -> sketch -> dilation (through the files), binned without a point cloud
depth = decode_raster((out / "depth.odpt").read_bytes())
spec = default_cylindrical_spec()
mask = dilate_radial(sketch_from_depth(depth, spec), default_schedule())
(out / "sketch.ovox").write_bytes(encode_voxel_grid(mask.grid))
print(f"sketch after dilation: {mask.occupied_count} voxels ({mask.occupied_fraction:.2%})")

# 3. semantic prediction = voxelized labeled pseudo cloud; ground truth = analytic
cloud = erp_depth_to_point_cloud(depth, decode_raster((out / "semantic.odpt").read_bytes()))
labels = default_label_set()
pred_cyl = voxelize_semantic(cloud, spec, labels)
gt_cyl = analytic_voxel_gt(scene, spec, 3)
(out / "pred_cyl.ovox").write_bytes(encode_voxel_grid(pred_cyl))
(out / "gt_cyl.ovox").write_bytes(encode_voxel_grid(gt_cyl))

# 4. evaluate through the files, banded
pred = decode_voxel_grid((out / "pred_cyl.ovox").read_bytes())
gt = decode_voxel_grid((out / "gt_cyl.ovox").read_bytes())
fan = default_ray_fan()
report = ray_iou(pred, gt, fan, thresholds=(0.25, 0.5, 1.0), bands=[(0.0, 8.5), (8.5, 17.0), (17.0, 60.0)])
print(f"cylindrical RayIoU: {report.ray_iou:.4f}")
for band, sub in report.bands.items():
    print(f"  band {band[0]:>4.1f}-{band[1]:<4.1f} m: {sub.ray_iou:.4f}")

# 5. equal-voxel-budget cuboid comparison (160*160*16 == 128*200*16)
cub = GridSpec(CUBOID, (160, 160, 16), ((-25.6, 25.6), (-25.6, 25.6), (-2.8, 3.6)))
pred_cub = voxelize_semantic(cloud, cub, labels)
gt_cub = analytic_voxel_gt(scene, cub, 3)
rep_cub = ray_iou(pred_cub, gt_cub, fan, thresholds=(0.25, 0.5, 1.0), bands=[(0.0, 8.5)])
near_cyl = report.bands[(0.0, 8.5)].ray_iou
near_cub = rep_cub.bands[(0.0, 8.5)].ray_iou
assert near_cyl > near_cub
print(f"near band (0-8.5 m): cylindrical {near_cyl:.4f} vs cuboid {near_cub:.4f} -> cylindrical wins")
