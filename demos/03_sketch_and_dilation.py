"""
Cylinder sketch and radial dilation
===================================

Bin an ERP depth render straight into candidate voxels (the pseudo point
cloud is never built), then widen the sketch radially with a distance-keyed
window (bigger windows where depth is blurrier).
"""

import numpy as np

from cylocc import (
    Box,
    HalfSpace,
    Scene,
    Sphere,
    default_cylindrical_spec,
    default_schedule,
    dilate_radial,
    render_erp_depth,
    sketch_from_depth,
)

scene = Scene((
    Box((8.0, -2.0, -1.3), (10.0, 2.0, 0.5), 7),
    Sphere((-5.0, 6.0, 0.0), 1.0, 6),
    HalfSpace(-1.3, 1),
))

depth, _ = render_erp_depth(scene, 800, 400)
print(f"depth raster: {np.count_nonzero(depth.data)} valid pixels, each one pseudo point")

spec = default_cylindrical_spec()
mask = sketch_from_depth(depth, spec, min_points=1)
print(f"sketch: {mask.occupied_count} voxels occupied ({mask.occupied_fraction:.2%})")

schedule = default_schedule()
print("dilation schedule:", schedule.bands)
dilated = dilate_radial(mask, schedule)
print(f"after dilation: {dilated.occupied_count} voxels ({dilated.occupied_fraction:.2%})")

# dilation only grows the mask, and only along the radial axis
grew = dilated.occupied & ~mask.occupied
assert not (mask.occupied & ~dilated.occupied).any()
assert mask.occupied.any(axis=0)[grew.any(axis=0)].all()  # every grown (theta, z) column held a sketched voxel
r_bins = np.argwhere(grew)[:, 0]
print(f"grown voxels: {grew.sum()}, radial bins {r_bins.min()}..{r_bins.max()} "
      f"(window 0 below 8.5 m keeps the near field untouched)")
assert spec.axis_value(r_bins.min(), 0) >= 8.5
