"""
Fisheye and equirectangular geometry
====================================

Project points through an equidistant fisheye, unproject pixels back, and
lift an ERP depth raster into an ego-frame point cloud.
"""

import math

import numpy as np

from cylocc import (
    ErpImage,
    FisheyeCamera,
    erp_depth_to_point_cloud,
    erp_pixel_to_direction,
    surround_rig,
)

# a single 185-degree fisheye, principal point at the raster center
cam = FisheyeCamera(
    width=640, height=640, focal=190.0, principal_point=(320.0, 320.0),
    fov=math.radians(185.0), name="demo",
)

# every geometry call takes a batch: one point is a (1, 3) array
p = np.array([[4.0, 1.0, 0.5]])  # ego frame: x forward, y left, z up
uv, ok = cam.project(p)
print(f"point {p[0]} projects to pixel {np.round(uv[0], 2)} (in view: {bool(ok[0])})")
assert ok[0]

direction = cam.unproject(uv)
print("unprojected direction (camera frame):", np.round(direction[0], 6))

# round trip: scale the direction to any depth and project again
back, _ = cam.project(cam.pose.apply(direction * 7.0))
err = np.abs(back - uv).max()
print("round-trip pixel error:", err)
assert err < 1e-9

# ERP pixels cover the full sphere; the raster center looks along +x
d_center = erp_pixel_to_direction(999.5, 499.5, 2000, 1000)
print("ERP raster center direction:", d_center)
assert np.allclose(d_center, [1.0, 0.0, 0.0], rtol=0.0, atol=1e-12)

# lift a synthetic depth raster: constant 5 m shell around the ego
depth = ErpImage.depth(np.full((200, 400), 5.0, dtype=np.float32))
cloud = erp_depth_to_point_cloud(depth, stride=4)
norms = np.linalg.norm(cloud.points, axis=1)
print(f"lifted {len(cloud)} points, radial norm spread "
      f"[{norms.min():.9f}, {norms.max():.9f}] (all 5 m to within 1e-12)")
assert np.abs(norms - 5.0).max() < 1e-12

# the default six-camera surround rig
rig = surround_rig()
for c in rig[:3]:
    axis = c.pose.rotation @ np.array([0.0, 0.0, 1.0])
    print(f"{c.name}: optical axis {np.round(axis, 3)}, mounted at {np.round(c.pose.translation, 2)}")
print("...")
