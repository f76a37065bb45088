"""Lifting image features onto candidate voxels, and temporal fusion.

The coloring step projects every candidate voxel center into every rig
camera, keeps the in-view hits as normalized reference points, bilinearly
samples each camera's feature raster there, and averages the per-camera
samples. Hit sets keep cameras in name order, so rig ordering can never
change the result. Voxels seen by no camera are flagged and stay zero.

Temporal alignment resamples a historical feature grid at the positions of
the current voxel centers in the historical ego frame, trilinearly in
fractional index space (wrapping the azimuth axis), with the same kernel,
_multilinear, that samples the rasters and reads only nodes on its lattice;
nodes past the r/z ends are zero-row padding, out-of-range samples zero.
Only samples whose trilinear stencil touches a non-zero history voxel are
interpolated, so alignment cost scales with the history's non-zero support
(the sketched candidates), not with the lattice; an axis whose fraction is
0 at all of them reads one node unless the history holds a -0.0.
Fusion averages the current grid with the aligned histories, dividing by
N + 1 with no renormalization for out-of-range zeros.

The frame kernels stream in fixed row blocks, so their float64 temporaries
stay cache-sized: alignment gathers and interpolates its supported rows a
few thousand at a time, and fusion widens and accumulates one block of the
inputs' listed voxels at a time. Under a planar ego motion (a yaw plus a
shift) voxel columns stay whole, so alignment warps the D0*D1 column
centers and one column's D2 layers; any other pose warps every center.

Each step has one kernel, and it keeps features sparse from end to end:
color_voxels, align_history and fuse_temporal return grid.FeatureRows,
which list only the voxels they wrote, and alignment and fusion take
FeatureRows alone, raising DomainError on any other grid. A result's
dense() is bit-identical to the unblocked oracles in tests/oracles.py
(dense_align_history, fuse_temporal_unblocked).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, require_finite
from .geom import FisheyeCamera, RigidTransform
from .grid import CYLINDRICAL, FeatureRows, GridSpec, row_support
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
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ShapeError("feature data must be (H, W) or (H, W, channels), each at least 1")
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
    exactly constant. Every coordinate must be finite.
    """
    require_finite("sample coordinates", uv_norm)
    dims = (image.height, image.width)
    # clamped bases keep base + 1 on the raster, except on a one-node axis, which wraps it
    # back to base at t = 0: a + 0 * (a - a) has the bits of a + 0 * (0 - a), -0.0 included
    c = [np.clip(uv_norm[:, 1 - k] * n - 0.5, 0.0, n - 1.0) for k, n in enumerate(dims)]
    base = [np.minimum(np.floor(x).astype(np.int64), max(n - 2, 0)) for x, n in zip(c, dims)]
    t = [(x - b)[:, None] for x, b in zip(c, base)]
    return _multilinear(image.data.reshape(-1, image.channels), dims, base, t, wrap=(0, 1))


def color_voxels(hits: HitSet, features: list[FeatureImage]) -> FeatureRows:
    """Average per-camera feature samples into one row per candidate voxel.

    features holds one FeatureImage per camera of the hit set, matched by
    camera name. Every candidate voxel is listed; voxels without hits get zero rows.
    """
    by_name = {img.camera: img for img in features}
    missing = [c for c in hits.cameras if c not in by_name]
    if missing:
        raise DomainError(f"no feature image for cameras {missing}")
    channels = {by_name[c].channels for c in hits.cameras}
    if len(channels) != 1:
        raise ShapeError(f"feature channel counts differ across cameras: {sorted(channels)}")
    acc = np.zeros((len(hits), channels.pop()), dtype=np.float64)
    for cam, ok, uv in zip(hits.cameras, hits.valid, hits.uv):
        if np.any(ok):
            acc[ok] += bilinear_sample(by_name[cam], uv[ok])
    counts = hits.hit_counts
    hit_rows = counts > 0
    acc[hit_rows] /= counts[hit_rows, None]
    return FeatureRows(hits.spec, hits.voxels, acc)


def _snap(frac: np.ndarray) -> np.ndarray:
    rounded = np.round(frac)
    return np.where(np.abs(frac - rounded) < _SNAP, rounded, frac)


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """a + t * (b - a), computed in b's buffer."""
    b -= a
    b *= t
    b += a
    return b


def _multilinear(src: np.ndarray, dims, base: list, t: list, wrap=(), slot=None) -> np.ndarray:
    """Float64 multilinear samples (M, C) of the (V, C) float32 rows src of a
    C-order lattice of shape dims, at integer bases base[k] (M,) and fractions
    t[k] (M, 1) per axis k.

    Axis k reads nodes base[k] and base[k] + 1, or only base[k] where t[k] is
    None. Every node lies on the lattice; a wrap axis takes its nodes mod
    dims[k]. With a slot map, node i reads row slot[i] of src.
    """
    nodes = []  # per axis, each node's flat-index term
    for k, d in enumerate(dims):
        step = math.prod(dims[k + 1 :])
        ns = (base[k],) if t[k] is None else (base[k], base[k] + 1)
        nodes.append([(np.mod(n, d) if k in wrap else n) * step for n in ns])
    return _lerp_nodes(src, slot, nodes, t, 0, 0)


def _lerp_nodes(src: np.ndarray, slot, nodes: list, t: list, k: int, flat) -> np.ndarray:
    """Gather and lerp the nodes of axes k.. under flat-index prefix flat, last
    axis first; unlike a nested closure, this recursion leaves no cycle."""
    if k == len(nodes):
        return np.take(src, flat if slot is None else slot[flat], axis=0).astype(np.float64)
    vals = [_lerp_nodes(src, slot, nodes, t, k + 1, flat + n) for n in nodes[k]]
    return vals[0] if t[k] is None else _lerp(*vals, t[k])


def _require_rows(*grids) -> None:
    for g in grids:
        if not isinstance(g, FeatureRows):
            raise DomainError(f"features are FeatureRows, got a {getattr(g, 'kind', type(g).__name__)} grid")


def align_history(hist: FeatureRows, t_hist: RigidTransform, t_curr: RigidTransform) -> FeatureRows:
    """Resample a historical feature grid into the current ego frame.

    Each current voxel center p is read at p' = t_hist^-1 * t_curr * p in
    the historical grid, trilinearly in fractional index space. The azimuth
    axis wraps; nodes past the r/z ends pad with zeros; samples outside the
    r/z range yield the zero vector. Fractional coordinates within 1e-9 of
    a lattice node snap to it, so lattice-aligned warps are exact.

    Under a planar relative pose (exactly a yaw plus a shift) a voxel
    column stays a column, so only the D0*D1 layer-0 centers and one
    column's D2 centers are warped; any other pose warps every center.
    Only in-range samples with a non-zero history voxel (any set bit, so
    -0.0 counts) among their nodes are interpolated; every other sample is
    exactly +0.0 either way, so the cost follows the history's non-zero
    support. An axis whose fraction is 0 at every such sample reads only its
    base node, unless the history holds a -0.0 (a lerp at t = 0 turns it +0.0).

    Nodes are read through a flat-index -> row slot map whose unlisted
    voxels read one zero row, padded with a layer of them at each end of
    every axis but a wrapping azimuth: a base b, from -1 to D-1, sits at
    b + 1, so both its nodes lie on the padded lattice. The result lists the
    interpolated samples, in flat order.
    """
    _require_rows(hist)
    spec, m = hist.spec, len(hist.voxels)
    d2 = spec.dims[2]
    wrap = (1,) if spec.coord_sys == CYLINDRICAL else ()
    lead = [0 if k in wrap else 1 for k in range(3)]
    slot = np.full(spec.num_voxels, m, dtype=np.min_scalar_type(m))
    slot[hist.voxels] = np.arange(m)
    slot = np.pad(slot.reshape(spec.dims), [(n, n) for n in lead], constant_values=m)
    src = np.concatenate([hist.rows, np.zeros((1, hist.channels), dtype=np.float32)])

    rel = t_hist.inverse().compose(t_curr)
    cols = spec.index_to_center(np.arange(0, spec.num_voxels, d2))
    layers = spec.index_to_center(np.arange(d2))
    if np.all(rel.rotation[2] == (0.0, 0.0, 1.0)) and np.all(rel.rotation[:2, 2] == 0):
        # per-axis (columns, 1) or (1, D2) arrays: r and theta follow the column, z the layer
        native = spec.to_native(rel.apply(cols))
        axes, by = [native[:, :1], native[:, 1:2], rel.apply(layers)[None, :, 2]], (1, 1, 2)
    else:
        pts = np.column_stack([np.repeat(cols[:, :2], d2, axis=0), np.tile(layers[:, 2], len(cols))])
        axes, by = list(spec.to_native(rel.apply(pts)).reshape(len(cols), d2, 3).transpose(2, 0, 1)), (0, 0, 0)
    frac = [_snap(spec.axis_fraction(a, k) - 0.5) for k, a in enumerate(axes)]
    base = [np.floor(f).astype(np.int64) for f in frac]

    keep = spec.in_range(axes)  # (columns, D2)
    signed_zero = src.view(np.int32).min() == np.iinfo(np.int32).min  # only -0.0 has these bits
    fixed = [not signed_zero and not np.any(keep & (f != b)) for f, b in zip(frac, base)]
    support = np.append(row_support(hist.rows), False)[slot]  # the voxels holding a set bit
    for k in [k for k, fix in enumerate(fixed) if not fix]:  # the zero end layers roll round as zero
        support |= np.roll(support, -1, axis=k)  # now base b, at b + lead, marks a node b + {0,1}^3 with a set bit
    node = [(b + n) % d for b, n, d in zip(base, lead, slot.shape)]  # only out-of-range bases wrap; keep masks them
    flat = np.flatnonzero(keep & support[tuple(node)])  # each interpolated sample's row, column * D2 + layer

    out = np.empty((len(flat), hist.channels), dtype=np.float32)
    for s in range(0, len(flat), _ALIGN_BLOCK):
        at = (flat[s : s + _ALIGN_BLOCK], *np.divmod(flat[s : s + _ALIGN_BLOCK], d2))  # row, column and layer
        i = [at[j] for j in by]
        b = [a.ravel()[ik] for a, ik in zip(base, i)]
        t = [None if fix else (f.ravel()[ik] - a)[:, None] for f, ik, a, fix in zip(frac, i, b, fixed)]
        b = [a + n for a, n in zip(b, lead)]
        out[s : s + _ALIGN_BLOCK] = _multilinear(src, slot.shape, b, t, wrap=wrap, slot=slot.ravel())
    return FeatureRows(spec, flat, out)


def fuse_temporal(curr: FeatureRows, aligned: list[FeatureRows]) -> FeatureRows:
    """Average the current grid with N aligned histories: (curr + sum) / (N+1).

    Over the union of the inputs' voxels, each input adds its row, or +0.0
    where it has none, in float64, one block of union rows at a time; every
    other voxel is +0.0.
    """
    grids = [curr, *aligned]
    _require_rows(*grids)
    if any(g.spec != curr.spec or g.channels != curr.channels for g in grids):
        raise ShapeError("all grids must share spec and channel count")
    union = np.zeros(curr.spec.num_voxels, dtype=bool)
    for g in grids:
        union[g.voxels] = True
    voxels = np.flatnonzero(union)
    pos = [np.searchsorted(voxels, g.voxels) for g in grids]
    out = np.empty((len(voxels), curr.channels), dtype=np.float32)
    for s in range(0, len(voxels), _FUSE_BLOCK):
        terms = np.zeros((len(grids), len(out[s : s + _FUSE_BLOCK]), curr.channels))
        for term, g, p in zip(terms, grids, pos):  # each grid's rows, +0.0 where it has none
            lo, hi = np.searchsorted(p, (s, s + _FUSE_BLOCK))
            term[p[lo:hi] - s] = g.rows[lo:hi]
        for term in terms[1:]:
            terms[0] += term
        out[s : s + _FUSE_BLOCK] = terms[0] / (len(aligned) + 1)
    return FeatureRows(curr.spec, voxels, out)
