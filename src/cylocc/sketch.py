"""Class-agnostic cylinder sketch and distance-keyed radial dilation.

The sketch marks every cylindrical voxel holding at least min_points of the
pseudo point cloud, ignoring labels. Dilation then spreads occupancy along
the radial axis only, with a per-distance window: each occupied seed voxel
at radius band w turns (i_r - w .. i_r + w, i_theta, i_z) occupied. The
window is keyed on the seed voxel's own center radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_finite
from .geom import LabeledPointCloud
from .grid import CYLINDRICAL, GridSpec, VoxelGrid


@dataclass(frozen=True)
class DilationSchedule:
    """Ordered (range_end_meters, window_bins) bands partitioning (r_min, r_max]."""

    bands: tuple[tuple[float, int], ...]

    def __post_init__(self):
        bands = tuple((float(e), int(w)) for e, w in self.bands)
        if not bands:
            raise DomainError("schedule needs at least one band")
        ends = [e for e, _ in bands]
        require_finite("band range ends", ends)
        if not all(b > a for a, b in zip(ends, ends[1:])):
            raise DomainError("band range ends must be strictly increasing")
        windows = [w for _, w in bands]
        if any(w < 0 for w in windows):
            raise DomainError("windows must be >= 0")
        if any(b < a for a, b in zip(windows, windows[1:])):
            raise DomainError("windows must be non-decreasing with distance")
        object.__setattr__(self, "bands", bands)

    def validate_for(self, spec: GridSpec) -> None:
        if not abs(self.bands[-1][0] - spec.ranges[0][1]) <= 1e-9:
            raise DomainError("last band end must equal the grid's r_max")

    def window_at(self, radius) -> np.ndarray:
        """Window size(s) for center radius value(s)."""
        r = np.asarray(radius, dtype=np.float64)
        ends = np.array([e for e, _ in self.bands])
        windows = np.array([w for _, w in self.bands], dtype=np.int64)
        band = np.searchsorted(ends, r, side="left")
        return windows[np.minimum(band, len(windows) - 1)]


def default_schedule() -> DilationSchedule:
    """Window 0 to 8.5 m, 1 to 17 m, 2 out to the default lattice's 25.6 m."""
    return DilationSchedule(((8.5, 0), (17.0, 1), (25.6, 2)))


@dataclass
class CandidateMask:
    """Occupancy over a cylindrical lattice: the sketch's candidate voxels."""

    grid: VoxelGrid

    def __post_init__(self):
        if self.grid.kind != "occupancy":
            raise DomainError("candidate mask needs an occupancy grid")
        if self.grid.spec.coord_sys != CYLINDRICAL:
            raise DomainError("candidate mask is defined over cylindrical grids")

    @property
    def spec(self) -> GridSpec:
        return self.grid.spec

    @property
    def occupied(self) -> np.ndarray:
        return self.grid.data.astype(bool)

    @property
    def occupied_count(self) -> int:
        return int(self.grid.data.sum())

    @property
    def occupied_fraction(self) -> float:
        return self.occupied_count / self.spec.num_voxels


def sketch_from_points(
    cloud: LabeledPointCloud, spec: GridSpec, min_points: int = 1
) -> CandidateMask:
    """Occupy every voxel containing at least min_points cloud points."""
    if spec.coord_sys != CYLINDRICAL:
        raise DomainError("sketching requires a cylindrical grid spec")
    if min_points < 1:
        raise DomainError("min_points must be >= 1")
    flat = spec.point_to_flat(cloud.points)
    counts = np.bincount(flat[flat >= 0], minlength=spec.num_voxels)
    occ = (counts >= min_points).astype(np.uint8).reshape(spec.dims)
    return CandidateMask(VoxelGrid(spec, "occupancy", occ))


def dilate_radial(mask: CandidateMask, schedule: DilationSchedule) -> CandidateMask:
    """Spread occupancy +-window bins along r; theta and z are untouched."""
    schedule.validate_for(mask.spec)
    spec = mask.spec
    d0 = spec.dims[0]
    windows = schedule.window_at(spec.axis_value(np.arange(d0) + 0.5, 0))
    src = mask.occupied
    out = src.copy()
    for k in range(d0):
        w = int(windows[k])
        if w == 0 or not src[k].any():
            continue
        out[max(0, k - w) : min(d0, k + w + 1)] |= src[k][None, :, :]
    return CandidateMask(VoxelGrid(spec, "occupancy", out.astype(np.uint8)))
