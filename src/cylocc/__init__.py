"""Cylindrical-grid occupancy tooling.

Geometry (fisheye and equirectangular cameras, rigid transforms), voxel
lattices in cylindrical and cuboid coordinates, candidate sketching with
radial dilation, feature lifting and temporal fusion, ray-cast RayIoU
evaluation, class-imbalance losses, analytic scene oracles, and binary
codecs for the OVOX / OPCD / ODPT file formats.
"""

from .errors import DomainError, ShapeError
from .geom import (
    UNLABELED,
    ErpImage,
    FisheyeCamera,
    LabeledPointCloud,
    RigidTransform,
    erp_depth_to_point_cloud,
    erp_pixel_to_direction,
    surround_rig,
)
from .grid import (
    CUBOID,
    CYLINDRICAL,
    FeatureRows,
    GridSpec,
    LabelSet,
    VoxelGrid,
    class_frequencies,
    default_cylindrical_spec,
    default_label_set,
    voxelize_semantic,
)
from .lift import FeatureImage, HitSet, align_history, build_hit_set, color_voxels, fuse_temporal
from .losses import (
    ProbGrid,
    class_weights,
    dice_macro,
    scal_loss,
    scal_loss_grad,
    sem2d_loss,
    weighted_ce,
    weighted_ce_grad,
)
from .metrics import (
    BatchHits,
    RayIoUReport,
    Rays,
    cast_rays,
    default_ray_fan,
    generate_rays,
    ray_iou,
)
from .sketch import (CandidateMask, DilationSchedule, default_schedule, dilate_radial, sketch_from_depth,
                     sketch_from_points)
from .synth import (
    Box,
    HalfSpace,
    Scene,
    Sphere,
    VerticalCylinder,
    analytic_voxel_gt,
    render_erp_depth,
    sample_scene_point_cloud,
)

__version__ = "0.1.0"
