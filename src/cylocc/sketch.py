"""Class-agnostic cylinder sketch and distance-keyed radial dilation.

The sketch marks every cylindrical voxel holding at least min_points of the
pseudo point cloud, ignoring labels; sketch_from_depth bins an ERP depth
raster's lift blocks as they come, with no cloud. Dilation then spreads
occupancy along r only, with a per-distance window keyed on the seed voxel's
own center radius: a seed at radius band w turns (i_r - w .. i_r + w,
i_theta, i_z) occupied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_count, require_finite
from .formats import _f32
from .geom import ErpImage, LabeledPointCloud, _lift, _lift_blocks, _lift_lattice
from .grid import _EDGE_GUARD, _MARGIN, CYLINDRICAL, GridSpec, VoxelGrid


@dataclass(frozen=True)
class DilationSchedule:
    """Ordered (range_end_meters, window_bins) bands partitioning (r_min, r_max].

    Radii compare with the band ends at f32 precision, so a grid decoded from
    OVOX, whose ranges carry f32 rounding, dilates as its in-memory original.
    """

    bands: tuple[tuple[float, int], ...]

    def __post_init__(self):
        require_count("windows", *(w for _, w in self.bands))
        bands = tuple((float(e), int(w)) for e, w in self.bands)
        if not bands:
            raise DomainError("schedule needs at least one band")
        ends = [e for e, _ in bands]
        require_finite("band range ends", ends)
        if not np.all(np.diff(_f32(ends)) > 0):
            raise DomainError("band range ends must be strictly increasing at f32 precision")
        windows = [w for _, w in bands]
        if any(w < 0 for w in windows):
            raise DomainError("windows must be >= 0")
        if any(b < a for a, b in zip(windows, windows[1:])):
            raise DomainError("windows must be non-decreasing with distance")
        object.__setattr__(self, "bands", bands)

    def validate_for(self, spec: GridSpec) -> None:
        if _f32(self.bands[-1][0]) != _f32(spec.ranges[0][1]):
            raise DomainError("last band end must equal the grid's r_max")

    def window_at(self, radius) -> np.ndarray:
        """Window size(s) for center radius value(s)."""
        r = _f32(radius)
        ends = _f32([e for e, _ in self.bands])
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


def _occupy(spec: GridSpec, min_points: int, flats) -> CandidateMask:
    """The mask of the voxels that at least min_points of the flat indices flats yields hit; -1 hits none."""
    if spec.coord_sys != CYLINDRICAL:
        raise DomainError("sketching requires a cylindrical grid spec")
    if require_count("min_points", min_points)[0] < 1:
        raise DomainError("min_points must be >= 1")
    counts = np.zeros(spec.num_voxels, dtype=np.int64)
    for flat in flats:
        np.add.at(counts, flat[flat >= 0], 1)
    return CandidateMask(VoxelGrid(spec, "occupancy", (counts >= min_points).astype(np.uint8).reshape(spec.dims)))


def sketch_from_points(cloud: LabeledPointCloud, spec: GridSpec, min_points: int = 1) -> CandidateMask:
    """Occupy every voxel containing at least min_points cloud points."""
    return _occupy(spec, min_points, map(spec.point_to_flat, [cloud.points]))


def sketch_from_depth(depth: ErpImage, spec: GridSpec, min_points: int = 1, stride: int = 1) -> CandidateMask:
    """sketch_from_points of erp_depth_to_point_cloud(depth, None, stride), bit for bit, with no cloud.

    Each lift row block is binned as it comes: z by sin phi * depth (the lift's own z), the azimuth
    by one table over columns, r by cos phi * depth. Pixels whose r or azimuth fraction lies within a
    rounding margin of a bin edge, range ends included, are binned by point_to_flat of their points.
    """
    d, trig = _lift_lattice(depth, stride)
    return _occupy(spec, min_points, _depth_flats(spec, d, trig))


def _depth_flats(spec: GridSpec, d: np.ndarray, trig):
    """Per row block of the stride lattice d: the flat indices of its pixels off every edge, then of the rest.
    cos phi * depth and a column's atan2 stray from point_to_flat's r and theta by a few ulps of r_max and pi."""
    (d0, d1, d2), r_hi, (z_lo, z_hi) = spec.dims, spec.ranges[0][1], spec.ranges[2]
    w0, w1 = _EDGE_GUARD + _MARGIN * (1.0 + r_hi / spec.deltas[0]), _EDGE_GUARD + _MARGIN * (1.0 + d1)
    fa = spec.axis_fraction(np.arctan2(trig[1], trig[0]), 1) + _EDGE_GUARD
    col_bin, col_edge = np.floor(fa).astype(np.int64) % d1, np.abs(fa - np.rint(fa)) < w1
    for vv, uu, r in _lift_blocks(d, d > 0):
        fr = spec.axis_fraction(trig[2][vv] * r, 0) + _EDGE_GUARD
        z = trig[3][vv] * r
        edge = col_edge[uu] | (np.abs(np.clip(np.rint(fr), 0, d0) - fr) < w0)
        keep = ~edge & (fr > 0) & (fr < d0) & (z >= z_lo) & (z <= z_hi)
        iz = np.clip(np.floor(spec.axis_fraction(z[keep], 2) + _EDGE_GUARD).astype(np.int64), 0, d2 - 1)
        yield (fr[keep].astype(np.int64) * d1 + col_bin[uu[keep]]) * d2 + iz
        yield spec.point_to_flat(_lift(trig, vv[edge], uu[edge], r[edge], np.empty((np.count_nonzero(edge), 3))))


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
