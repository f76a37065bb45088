"""Lifting image features onto candidate voxels, and temporal fusion.

The coloring step projects every candidate voxel center into every rig
camera, keeps the in-view hits as normalized reference points, bilinearly
samples each camera's feature raster there, and averages the per-camera
samples. Hit sets keep cameras in name order, so rig ordering can never
change the result. Voxels seen by no camera are flagged and stay zero.

Temporal alignment resamples a historical feature grid at the positions of
the current voxel centers expressed in the historical ego frame, with
trilinear interpolation in fractional index space (wrapping the azimuth
axis); samples outside the historical grid's r/z range contribute zeros.
Only samples whose trilinear stencil touches a non-zero history voxel are
interpolated, so alignment cost scales with the history's non-zero support
(the sketched candidates), not with the lattice.
Fusion averages the current grid with the aligned histories, dividing by
N + 1 with no renormalization for out-of-range zeros.

The frame kernels stream in fixed row blocks, so their float64 temporaries
stay cache-sized: alignment gathers and interpolates its supported rows a
few thousand at a time, and fusion widens and accumulates one block of
voxel rows at a time. The voxel centers alignment warps come from
GridSpec.all_centers(), which is computed once per spec and read-only.
Every output is bit-identical to the unblocked oracles in tests/oracles.py
(dense_align_history, fuse_temporal_unblocked).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, require_finite
from .geom import FisheyeCamera, RigidTransform
from .grid import CYLINDRICAL, GridSpec, VoxelGrid
from .sketch import CandidateMask

_SNAP = 1e-9  # fractional index snap, keeps lattice-aligned warps exact
_ALIGN_BLOCK = 1 << 12  # supported rows gathered and interpolated per block
_FUSE_BLOCK = 1 << 12  # voxel rows accumulated in float64 per block


@dataclass
class FeatureImage:
    """Per-camera feature raster addressed by normalized [0, 1]^2 coordinates."""

    camera: str
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] < 1:
            raise ShapeError("feature data must be (H, W) or (H, W, channels)")
        require_finite("feature raster", arr)
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass
class HitSet:
    """Per-candidate-voxel projection hits across the rig.

    voxels holds the candidate voxels' flat indices (M,) in ascending order;
    cameras holds the rig's names (at least one) in name order, and row k of
    valid (K, M) and uv (K, M, 2) holds camera k's validity mask and
    normalized coordinates. Voxels with hit_count 0 are flagged via `unhit`
    and must not be averaged.
    """

    spec: GridSpec
    voxels: np.ndarray
    cameras: tuple[str, ...]
    valid: np.ndarray
    uv: np.ndarray

    @property
    def hit_counts(self) -> np.ndarray:
        return self.valid.sum(axis=0)

    @property
    def unhit(self) -> np.ndarray:
        return self.hit_counts == 0

    def __len__(self) -> int:
        return len(self.voxels)


def build_hit_set(mask: CandidateMask, rig: list[FisheyeCamera]) -> HitSet:
    """Project candidate voxel centers into every rig camera, in name order.

    A hit requires the projection to succeed (inside the field of view) and
    the pixel to land inside the camera raster, so recorded normalized
    coordinates are in bounds by construction.
    """
    if not rig:
        raise DomainError("rig must contain at least one camera")
    # name order, not rig order: permutation invariance by construction
    rig = sorted(rig, key=lambda cam: cam.name)
    names = tuple(cam.name for cam in rig)
    if len(set(names)) != len(names):
        raise DomainError("rig camera names must be unique")
    occ = np.flatnonzero(mask.grid.data)
    centers = mask.spec.index_to_center(occ)
    valid = np.zeros((len(rig), len(occ)), dtype=bool)
    uv = np.zeros((len(rig), len(occ), 2))
    for k, cam in enumerate(rig):
        px, ok = cam.project(centers)
        ok = ok & (px[:, 0] >= 0) & (px[:, 0] < cam.width) & (px[:, 1] >= 0) & (px[:, 1] < cam.height)
        valid[k] = ok
        uv[k, ok] = px[ok] / (cam.width, cam.height)
    return HitSet(mask.spec, occ, names, valid, uv)


def bilinear_sample(image: FeatureImage, uv_norm: np.ndarray) -> np.ndarray:
    """Sample a feature raster at normalized coordinates, (M, channels).

    Interpolation nodes sit at pixel centers; coordinates are clamped to the
    node range at the borders. The two-stage lerp form keeps constant rasters
    exactly constant.
    """
    f = image.data
    h, w = image.height, image.width
    x = np.clip(uv_norm[:, 0] * w - 0.5, 0.0, w - 1.0)
    y = np.clip(uv_norm[:, 1] * h - 0.5, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(x).astype(np.int64), w - 2) if w > 1 else np.zeros(len(x), dtype=np.int64)
    y0 = np.minimum(np.floor(y).astype(np.int64), h - 2) if h > 1 else np.zeros(len(y), dtype=np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    tx = (x - x0)[:, None]
    ty = (y - y0)[:, None]
    # gather the float32 corners, then widen: the raster itself stays float32
    f00, f01, f10, f11 = (f[yi, xi].astype(np.float64) for yi, xi in ((y0, x0), (y0, x1), (y1, x0), (y1, x1)))
    top = f00 + tx * (f01 - f00)
    bot = f10 + tx * (f11 - f10)
    return top + ty * (bot - top)


def color_voxels(hits: HitSet, features: list[FeatureImage]) -> VoxelGrid:
    """Average per-camera feature samples into a voxel feature grid.

    features holds one FeatureImage per camera of the hit set, matched by
    camera name. Voxels without hits get zeros.
    """
    by_name = {img.camera: img for img in features}
    missing = [c for c in hits.cameras if c not in by_name]
    if missing:
        raise DomainError(f"no feature image for cameras {missing}")
    channels = {by_name[c].channels for c in hits.cameras}
    if len(channels) != 1:
        raise ShapeError(f"feature channel counts differ across cameras: {sorted(channels)}")
    d = channels.pop()
    acc = np.zeros((len(hits), d), dtype=np.float64)
    for cam, ok, uv in zip(hits.cameras, hits.valid, hits.uv):
        if np.any(ok):
            acc[ok] += bilinear_sample(by_name[cam], uv[ok])
    counts = hits.hit_counts
    hit_rows = counts > 0
    acc[hit_rows] /= counts[hit_rows, None]
    grid = VoxelGrid.zeros(hits.spec, "feature", d)
    grid.data.reshape(-1, d)[hits.voxels] = acc
    return grid


def _snap(frac: np.ndarray) -> np.ndarray:
    rounded = np.round(frac)
    return np.where(np.abs(frac - rounded) < _SNAP, rounded, frac)


def _stencil_support(touched: np.ndarray, wrap_theta: bool) -> np.ndarray:
    """Mark the trilinear bases b whose nodes b + {0,1}^3 include a touched voxel.

    Bases run from -1 to D-1 and sit at index b + 1, except on a wrapping
    azimuth axis, where they sit at b mod D1.
    """
    for k in range(3):
        if k == 1 and wrap_theta:
            touched = touched | np.roll(touched, -1, axis=1)
            continue
        pad = [(0, 0)] * 3
        pad[k] = (1, 1)
        q = np.pad(touched, pad)
        lo, hi = [slice(None)] * 3, [slice(None)] * 3
        lo[k], hi[k] = slice(None, -1), slice(1, None)
        touched = q[tuple(lo)] | q[tuple(hi)]
    return touched


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """a + t * (b - a), computed in b's buffer."""
    b -= a
    b *= t
    b += a
    return b


def align_history(
    hist: VoxelGrid,
    t_hist: RigidTransform,
    t_curr: RigidTransform,
) -> VoxelGrid:
    """Resample a historical feature grid into the current ego frame.

    Each current voxel center p is read at p' = t_hist^-1 * t_curr * p in
    the historical grid, trilinearly in fractional index space. The azimuth
    axis wraps; nodes past the r/z ends pad with zeros; samples outside the
    r/z range yield the zero vector. Fractional coordinates within 1e-9 of
    a lattice node snap to it, so lattice-aligned warps are exact.

    Only in-range samples with a non-zero history voxel (any set bit, so
    -0.0 counts) among their eight nodes are interpolated; every other
    sample is exactly +0.0 either way, so the cost follows the history's
    non-zero support rather than the lattice.
    """
    if hist.kind != "feature":
        raise DomainError("alignment needs a feature grid")
    spec = hist.spec
    d0, d1, d2 = spec.dims
    ch = hist.channels
    rel = t_hist.inverse().compose(t_curr)
    native = spec.to_native(rel.apply(spec.all_centers()))
    frac = [_snap(spec.axis_fraction(native[:, k], k) - 0.5) for k in range(3)]
    base = [np.floor(f).astype(np.int64) for f in frac]
    wrap_theta = spec.coord_sys == CYLINDRICAL

    support = _stencil_support(np.bitwise_or.reduce(hist.data.view(np.uint32), axis=3) != 0, wrap_theta)
    rows = np.flatnonzero(spec.in_range(native))
    b0, b1, b2 = (b[rows] for b in base)
    b1 = np.mod(b1, d1) if wrap_theta else b1 + 1
    rows = rows[support[b0 + 1, b1, b2 + 1]]

    src = hist.data.reshape(-1, ch)
    out = np.zeros((spec.num_voxels, ch), dtype=np.float32)
    for s in range(0, len(rows), _ALIGN_BLOCK):
        blk = rows[s : s + _ALIGN_BLOCK]
        b = [a[blk] for a in base]
        t = [(f[blk] - a)[:, None] for f, a in zip(frac, b)]
        out[blk] = _trilinear(src, spec.dims, wrap_theta, b, t)
    return VoxelGrid(spec, "feature", out.reshape(d0, d1, d2, ch))


def _trilinear(src: np.ndarray, dims, wrap_theta: bool, base: list, t: list) -> np.ndarray:
    """Float64 trilinear samples (M, C) of the (V, C) history rows src at
    integer bases base[k] (M,) and fractions t[k] (M, 1) per axis k."""
    _, d1, d2 = dims
    # per axis, the indices of both stencil nodes and whether each is on the lattice
    idx, on = [], []
    for k, (b, d) in enumerate(zip(base, dims)):
        nodes = (b, b + 1)
        if k == 1 and wrap_theta:
            nodes = tuple(np.mod(n, d) for n in nodes)
        idx.append(nodes)
        on.append(tuple((n >= 0) & (n < d) for n in nodes))

    def node(o0, o1, o2):
        ok = on[0][o0] & on[1][o1] & on[2][o2]
        flat = np.where(ok, (idx[0][o0] * d1 + idx[1][o1]) * d2 + idx[2][o2], 0)
        vals = np.take(src, flat, axis=0).astype(np.float64)
        vals[~ok] = 0.0  # nodes past the r/z ends pad with zeros
        return vals

    # lerp along axis 2, then 1, then 0; constants stay exact
    t0, t1, t2 = t
    c0 = _lerp(_lerp(node(0, 0, 0), node(0, 0, 1), t2), _lerp(node(0, 1, 0), node(0, 1, 1), t2), t1)
    c1 = _lerp(_lerp(node(1, 0, 0), node(1, 0, 1), t2), _lerp(node(1, 1, 0), node(1, 1, 1), t2), t1)
    return _lerp(c0, c1, t0)


def fuse_temporal(curr: VoxelGrid, aligned: list[VoxelGrid]) -> VoxelGrid:
    """Average the current grid with N aligned histories: (curr + sum) / (N+1)."""
    if curr.kind != "feature":
        raise DomainError("fusion needs feature grids")
    for g in aligned:
        if g.spec != curr.spec or g.kind != "feature" or g.channels != curr.channels:
            raise ShapeError("all grids must share spec, kind and channel count")
    ch = curr.channels
    grids = [g.data.reshape(-1, ch) for g in [curr, *aligned]]
    out = np.empty_like(grids[0])
    for s in range(0, len(out), _FUSE_BLOCK):
        acc = grids[0][s : s + _FUSE_BLOCK].astype(np.float64)
        for g in grids[1:]:
            acc += g[s : s + _FUSE_BLOCK]
        acc /= len(aligned) + 1
        out[s : s + _FUSE_BLOCK] = acc
    return VoxelGrid(curr.spec, "feature", out.reshape(curr.data.shape))
