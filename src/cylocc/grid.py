"""Cylindrical and cuboid voxel lattices.

A GridSpec fixes the lattice: bin counts per axis and per-axis ranges,
uniformly binned. Cylindrical axes are (r, theta, z) with theta spanning
exactly [-pi, pi) and wrapping; cuboid axes are (x, y, z). VoxelGrid pairs
a spec with a payload array in flat index order
i = (i0 * D1 + i1) * D2 + i2 (C order).

Bin assignment uses floor((v - min) / delta + 1e-9). The 1e-9 guard (in bin
units, i.e. sub-nanometer positions) snaps values sitting a rounding error
below an exactly-representable bin edge into the upper bin, which is where
exact real arithmetic puts them; e.g. z = 0 under the default spec belongs
to bin 7 although (0 + 2.8) / 0.4 evaluates to 6.99999999999999 in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, require_finite
from .geom import LabeledPointCloud, _as_points

CYLINDRICAL = "cylindrical"
CUBOID = "cuboid"

_EDGE_GUARD = 1e-9  # bin-relative tolerance at bin edges


@dataclass(frozen=True)
class GridSpec:
    """Lattice geometry: coordinate system, bin counts, per-axis ranges."""

    coord_sys: str
    dims: tuple[int, int, int]
    ranges: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        if self.coord_sys not in (CYLINDRICAL, CUBOID):
            raise DomainError(f"unknown coordinate system {self.coord_sys!r}")
        dims = tuple(int(d) for d in self.dims)
        ranges = tuple((float(lo), float(hi)) for lo, hi in self.ranges)
        if len(dims) != 3 or len(ranges) != 3:
            raise ShapeError("dims and ranges must each have three entries")
        if any(d < 1 for d in dims):
            raise DomainError("all bin counts must be >= 1")
        for lo, hi in ranges:
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise DomainError("each axis range must be finite with max > min")
        if self.coord_sys == CYLINDRICAL:
            lo, hi = ranges[1]
            if abs(lo + math.pi) > 1e-6 or abs(hi - math.pi) > 1e-6:
                raise DomainError("cylindrical theta range must be [-pi, pi)")
            if ranges[0][0] < 0:
                raise DomainError("cylindrical r range must be non-negative")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ranges", ranges)

    @property
    def deltas(self) -> tuple[float, float, float]:
        return tuple((hi - lo) / d for (lo, hi), d in zip(self.ranges, self.dims))

    @property
    def num_voxels(self) -> int:
        d0, d1, d2 = self.dims
        return d0 * d1 * d2

    def axis_fraction(self, values: np.ndarray, k: int) -> np.ndarray:
        """Fractional bin coordinate (v - min) / delta of native values on axis k."""
        return (values - self.ranges[k][0]) / self.deltas[k]

    def axis_value(self, frac: np.ndarray, k: int) -> np.ndarray:
        """Native value at fractional bin coordinate frac on axis k; inverse of axis_fraction."""
        return self.ranges[k][0] + frac * self.deltas[k]

    def in_range(self, native: np.ndarray) -> np.ndarray:
        """Mask of native (N, 3) coordinates inside the axis ranges; the
        cylindrical azimuth wraps and never leaves the range."""
        inside = np.ones(len(native), dtype=bool)
        for k, (lo, hi) in enumerate(self.ranges):
            if not (self.coord_sys == CYLINDRICAL and k == 1):
                inside &= (native[:, k] >= lo) & (native[:, k] <= hi)
        return inside

    def point_to_flat(self, p) -> np.ndarray:
        """Flat indices (i0 * D1 + i1) * D2 + i2 of (N, 3) Cartesian points; -1 outside.

        For cylindrical grids theta wraps (theta = pi maps to bin 0) while r
        and z fall outside beyond their ranges; the r = 0 axis uses
        atan2(0, 0) = 0.
        """
        native = self.to_native(_as_points(p))
        flat = np.zeros(len(native), dtype=np.int64)
        # one axis at a time keeps a single axis's temporaries alive
        for k, d in enumerate(self.dims):
            # fractions beyond int64 (points past ~1e18 m) cast to garbage on rows in_range sends to -1
            with np.errstate(invalid="ignore"):
                q = np.floor(self.axis_fraction(native[:, k], k) + _EDGE_GUARD).astype(np.int64)
            if self.coord_sys == CYLINDRICAL and k == 1:
                np.mod(q, d, out=q)
            else:
                np.clip(q, 0, d - 1, out=q)
            flat *= d
            flat += q
        flat[~self.in_range(native)] = -1
        return flat

    def index_to_center(self, flat) -> np.ndarray:
        """(N, 3) Cartesian centers of the voxels at (N,) integer flat indices."""
        flat = np.asarray(flat)
        if flat.ndim != 1:
            raise ShapeError(f"flat indices must be (N,), got shape {flat.shape}")
        # an empty list arrives as float64; anything else non-integer would truncate
        if flat.dtype.kind not in "iu" and flat.size:
            raise ShapeError(f"flat indices must be integers, got dtype {flat.dtype}")
        flat = flat.astype(np.int64, copy=False)
        if np.any(flat < 0) or np.any(flat >= self.num_voxels):
            raise DomainError("flat voxel index outside the grid")
        idx = np.unravel_index(flat, self.dims)
        return self.to_cartesian(np.stack([self.axis_value(i + 0.5, k) for k, i in enumerate(idx)], axis=1))

    def all_centers(self) -> np.ndarray:
        """(D0*D1*D2, 3) Cartesian centers in flat index order."""
        return self.index_to_center(np.arange(self.num_voxels))

    def to_native(self, pts: np.ndarray) -> np.ndarray:
        """(N, 3) Cartesian points in the grid's native axes: (r, theta, z) or (x, y, z)."""
        if self.coord_sys == CUBOID:
            return pts
        r = np.hypot(pts[:, 0], pts[:, 1])
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        return np.stack([r, theta, pts[:, 2]], axis=1)

    def to_cartesian(self, native: np.ndarray) -> np.ndarray:
        """Inverse of to_native."""
        if self.coord_sys == CUBOID:
            return native.copy()
        r, theta, z = native[:, 0], native[:, 1], native[:, 2]
        return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def default_cylindrical_spec() -> GridSpec:
    """128 x 200 x 16 cylindrical lattice, r in (0, 25.6], z in (-2.8, 3.6]."""
    return GridSpec(
        CYLINDRICAL,
        (128, 200, 16),
        ((0.0, 25.6), (-math.pi, math.pi), (-2.8, 3.6)),
    )


PAYLOAD_KINDS = ("label", "occupancy", "feature")
_PAYLOAD_DTYPES = {"label": np.uint8, "occupancy": np.uint8, "feature": np.float32}


@dataclass
class VoxelGrid:
    """Voxel payload over a GridSpec.

    data is shaped (D0, D1, D2) for label/occupancy payloads and
    (D0, D1, D2, channels) for feature payloads; C order matches the flat
    index convention. Feature payloads must be finite.
    """

    spec: GridSpec
    kind: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in PAYLOAD_KINDS:
            raise DomainError(f"unknown payload kind {self.kind!r}")
        arr = np.asarray(self.data, dtype=_PAYLOAD_DTYPES[self.kind])
        want = self.spec.dims if self.kind != "feature" else None
        if self.kind == "feature":
            if arr.ndim != 4 or arr.shape[:3] != self.spec.dims:
                raise ShapeError(f"feature data must be {self.spec.dims} + (channels,), got {arr.shape}")
        else:
            if arr.shape != want:
                raise ShapeError(f"payload shape {arr.shape} does not match dims {want}")
        if self.kind == "occupancy" and arr.size and arr.max() > 1:
            raise DomainError("occupancy payload must be 0/1")
        if self.kind == "feature":
            require_finite("feature payload", arr)
        self.data = arr

    @property
    def channels(self) -> int:
        return 1 if self.kind != "feature" else self.data.shape[3]

    @staticmethod
    def zeros(spec: GridSpec, kind: str, channels: int = 1) -> "VoxelGrid":
        if kind == "feature":
            return VoxelGrid(spec, kind, np.zeros(spec.dims + (channels,), dtype=np.float32))
        return VoxelGrid(spec, kind, np.zeros(spec.dims, dtype=np.uint8))


DEFAULT_CLASS_NAMES = (
    "free",
    "road",
    "sidewalk",
    "ground",
    "building",
    "wall",
    "vegetation",
    "vehicles",
    "other",
    "pole",
    "pedestrian",
    "roadline",
)


@dataclass(frozen=True)
class LabelSet:
    """Ordered semantic class names; index 0 is always the free class."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        if not names or names[0] != "free":
            raise DomainError("class 0 must be named 'free'")
        if len(set(names)) != len(names):
            raise DomainError("class names must be unique")
        object.__setattr__(self, "names", names)

    @property
    def count(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DomainError(f"unknown class name {name!r}") from None


def default_label_set() -> LabelSet:
    return LabelSet(DEFAULT_CLASS_NAMES)


def majority_vote(counts: np.ndarray) -> np.ndarray:
    """Winning class per voxel of a (voxels, classes) vote-count table.

    argmax takes the first maximum: a voxel takes its most frequent class,
    ties going to the smallest class id, and a voxel without votes stays
    free (0). Returns (voxels,) uint8.
    """
    return np.argmax(counts, axis=1).astype(np.uint8)


def voxelize_semantic(cloud: LabeledPointCloud, spec: GridSpec, labels: LabelSet) -> VoxelGrid:
    """Majority-vote semantic voxelization.

    Every in-range point votes for its class in its voxel; a voxel takes the
    most frequent class, breaking ties toward the smallest class id. Voxels
    without points stay free (0). Point order does not matter.
    """
    c = labels.count
    if len(cloud) and int(cloud.labels.max()) >= c:
        raise DomainError(f"point label >= class count {c}")
    flat = spec.point_to_flat(cloud.points)
    inside = flat >= 0
    counts = np.bincount(flat[inside] * c + cloud.labels[inside], minlength=spec.num_voxels * c)
    return VoxelGrid(spec, "label", majority_vote(counts.reshape(-1, c)).reshape(spec.dims))


def class_frequencies(grid: VoxelGrid, num_classes: int) -> np.ndarray:
    """Fraction of voxels per class, at least num_classes entries; sums to 1."""
    if grid.kind != "label":
        raise DomainError("class frequencies need a label grid")
    counts = np.bincount(grid.data.reshape(-1), minlength=num_classes).astype(np.float64)
    return counts / grid.spec.num_voxels
