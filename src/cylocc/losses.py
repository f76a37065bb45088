"""Training-loss terms over probability grids and label grids.

All four terms are pure numeric functions: weighted cross-entropy, the
per-class affinity loss over precision/recall/specificity, dice loss, and
per-pixel weighted cross-entropy on 2D semantics. weighted_ce and
scal_loss come with analytic gradients with respect to the probability
tensor so they can be checked against finite differences.

Each call takes every class's statistics in one pass, dice from one
confusion table. Against the per-class oracles in tests/oracles.py, dice and
cross-entropy are bit-identical, scal_loss and its gradient within 1e-12.

Natural logarithms throughout, guarded by eps = 1e-12. Cross-entropy clamps
p + eps at 1 so a perfect prediction scores exactly 0 and the loss stays
non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, require_finite
from .formats import InvalidField, _fields, _load_json, _num, _vec
from .geom import UNLABELED, ErpImage
from .grid import GridSpec, VoxelGrid

EPS = 1e-12
_STATS_BLOCK = 1 << 12  # voxel rows per block of the affinity-loss statistics


@dataclass
class ProbGrid:
    """Per-voxel class probability vectors over a grid, kept as float32 or
    float64 as given; the losses widen what they read to float64."""

    spec: GridSpec
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs)
        p = p.astype(np.promote_types(p.dtype, np.float32), copy=False)
        if p.ndim != 4 or p.shape[:3] != self.spec.dims or p.shape[3] < 2:
            raise ShapeError(f"probs must be {self.spec.dims} + (C,), got {p.shape}")
        q, ones = p.reshape(-1, p.shape[3]), np.ones(p.shape[3])
        for s in range(0, len(q), _STATS_BLOCK):
            blk = q[s : s + _STATS_BLOCK].astype(np.float64, copy=False)
            # written so that NaN fails both checks; the matrix product sums rows fastest
            if not blk.min() >= 0:
                raise DomainError("probabilities must be non-negative and finite")
            if not (np.max(np.abs(blk @ ones - 1.0)) <= 1e-6):
                raise DomainError("per-voxel probabilities must sum to 1 within 1e-6")
        self.probs = p

    @property
    def num_classes(self) -> int:
        return self.probs.shape[3]


@dataclass(frozen=True)
class ClassWeights:
    """Inverse-log-frequency class weights: w_c = 1 / ln(f_c + constant)."""

    weights: np.ndarray
    constant: float
    frequencies: np.ndarray


def class_weights(frequencies, constant: float = 1.02) -> ClassWeights:
    """Weights from per-class voxel fractions."""
    f = np.asarray(frequencies, dtype=np.float64)
    require_finite("class fractions and constant", f, constant)
    if np.any(f < 0) or np.any(f > 1):
        raise DomainError("class fractions must lie in [0, 1]")
    if abs(f.sum() - 1.0) > 1e-6:
        raise DomainError("class fractions must sum to 1")
    if np.any(f + constant <= 1.0):
        raise DomainError("f_c + constant must exceed 1 for every class")
    return ClassWeights(1.0 / np.log(f + constant), float(constant), f)


def weights_from_json(text: str | bytes) -> ClassWeights:
    """Class weights from {"frequencies": [...], "constant": c}; without c, class_weights' default."""
    doc = _load_json(text, "class weights")
    if not isinstance(doc, dict) or "frequencies" not in doc:
        raise InvalidField("class weights must be an object with a frequencies array", fieldname="weights")
    with _fields("weights"):
        return class_weights(_vec(None)(doc["frequencies"]), *([_num(doc["constant"])] if "constant" in doc else []))


def _probs_array(pred) -> np.ndarray:
    """Accept a ProbGrid or a raw (..., C) probability array."""
    if isinstance(pred, ProbGrid):
        return pred.probs
    p = np.asarray(pred, dtype=np.float64)
    if p.ndim < 2:
        raise ShapeError("probability tensor must have a trailing class axis")
    return p


def _check_pair(pred_probs: np.ndarray, gt: VoxelGrid) -> np.ndarray:
    if gt.kind != "label":
        raise DomainError("ground truth must be a label grid")
    if pred_probs.ndim != 4 or pred_probs.shape[:3] != gt.spec.dims:
        raise ShapeError(f"probabilities must be {gt.spec.dims} + (C,), got {pred_probs.shape}")
    y = gt.data
    if int(y.max(initial=0)) >= pred_probs.shape[-1]:
        raise DomainError("ground-truth label outside the prediction's class range")
    return y


def _weight_vector(w: ClassWeights, num_classes: int) -> np.ndarray:
    if len(w.weights) != num_classes:
        raise ShapeError(f"{len(w.weights)} class weights for {num_classes} classes")
    return w.weights


def _cross_entropy(p: np.ndarray, y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """-w_y * ln(min(p_y + eps, 1)), in float64, per sample of p (..., C) labeled y (...)."""
    t = np.take_along_axis(p, y[..., None].astype(np.int64), axis=-1)[..., 0].astype(np.float64, copy=False)
    np.log(np.minimum(t + EPS, 1.0, out=t), out=t)
    return np.multiply(t, (-weights)[y], out=t)


def weighted_ce(pred, gt: VoxelGrid, w: ClassWeights) -> float:
    """Mean over voxels of -w_y * ln(min(p_y + eps, 1))."""
    p = _probs_array(pred)
    y = _check_pair(p, gt)
    return float(_cross_entropy(p, y, _weight_vector(w, p.shape[-1])).mean())


def weighted_ce_grad(pred, gt: VoxelGrid, w: ClassWeights) -> np.ndarray:
    """d(weighted_ce)/d(probs): nonzero only at each voxel's true class."""
    p = _probs_array(pred)
    y = _check_pair(p, gt)
    weights = _weight_vector(w, p.shape[-1])
    n = y.size
    grad = np.zeros(p.shape)
    py = np.take_along_axis(p, y[..., None].astype(np.int64), axis=-1)[..., 0].astype(np.float64, copy=False)
    gy = np.where(py + EPS < 1.0, -weights[y] / (py + EPS) / n, 0.0)
    np.put_along_axis(grad, y[..., None].astype(np.int64), gy[..., None], axis=-1)
    return grad


def dice_macro(pred_labels: VoxelGrid, gt: VoxelGrid, num_classes: int) -> float:
    """Mean over non-free classes present in either grid of the dice loss
    1 - 2TP / (2TP + FP + FN), counted in one confusion table."""
    if pred_labels.spec != gt.spec:
        raise ShapeError("prediction and ground truth grids must share a spec")
    if pred_labels.kind != "label" or gt.kind != "label":
        raise DomainError("dice needs label grids")
    keys = (pred_labels.data.astype(np.int64) << 8) | gt.data
    confusion = np.bincount(keys.reshape(-1), minlength=1 << 16).reshape(256, 256)  # [predicted, labeled]
    both = confusion.sum(axis=1) + confusion.sum(axis=0)  # (TP + FP) + (TP + FN)
    c = 1 + np.flatnonzero(both[1:num_classes])
    return float(np.mean(1.0 - 2.0 * np.diagonal(confusion)[c] / both[c])) if len(c) else 0.0


def _scal_stats(p: np.ndarray, y: np.ndarray):
    """Per-class arrays: presence (non-free and labeled), precision, recall,
    specificity, mass S_c and the counts of voxels labeled c and not."""
    q = p.reshape(-1, p.shape[-1])
    yf = y.reshape(-1, 1).astype(np.int64)
    n_pos = np.bincount(yf[:, 0], minlength=q.shape[1])
    s_true, s_all, s_neg = np.zeros((3, q.shape[1]))
    # true-negative mass from each negative's own 1 - p_c: n_neg - (s_all - s_true)
    # cancels when p_c nears 1 on negatives. einsum sums columns faster than sum.
    for s in range(0, len(q), _STATS_BLOCK):
        blk, yb = q[s : s + _STATS_BLOCK].astype(np.float64, copy=False), yf[s : s + _STATS_BLOCK]
        s_true += np.bincount(yb[:, 0], np.take_along_axis(blk, yb, 1)[:, 0], q.shape[1])
        s_all += np.einsum("ij->j", blk)
        comp = 1.0 - blk
        np.put_along_axis(comp, yb, 0.0, axis=1)
        s_neg += np.einsum("ij->j", comp)
    n_neg = len(yf) - n_pos
    present = (n_pos > 0) & (np.arange(q.shape[1]) > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        spec = np.where(n_neg > 0, s_neg / n_neg, 1.0)
        return present, s_true / (s_all + EPS), s_true / n_pos, spec, s_all, n_pos, n_neg


def scal_loss(pred, gt: VoxelGrid) -> float:
    """Affinity loss: mean over present semantic classes of
    -[ln P_c + ln R_c + ln S_c] with precision, recall and specificity of
    the class's probability mass against the label grid."""
    p = _probs_array(pred)
    present, prec, rec, spec, *_ = _scal_stats(p, _check_pair(p, gt))
    terms = -(np.log(prec[present] + EPS) + np.log(rec[present] + EPS) + np.log(spec[present] + EPS))
    return float(terms.mean()) if len(terms) else 0.0


def scal_loss_grad(pred, gt: VoxelGrid) -> np.ndarray:
    """Analytic d(scal_loss)/d(probs), each entry formed on its own side:
    voxels labeled c, or not."""
    p = _probs_array(pred)
    y = _check_pair(p, gt)
    present, prec, rec, spec, s_all, n_pos, n_neg = _scal_stats(p, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        g_pos = -((1.0 - prec) / (s_all + EPS)) / (prec + EPS) - 1.0 / (n_pos * (rec + EPS))
        g_neg = (prec / (s_all + EPS)) / (prec + EPS) + 1.0 / (n_neg * (spec + EPS))
    scale = 1.0 / max(np.count_nonzero(present), 1)
    grad = np.broadcast_to(np.where(present, scale * g_neg, 0.0), p.shape).copy()
    g_pos = np.where(present, scale * g_pos, 0.0)[y]
    np.put_along_axis(grad, y[..., None].astype(np.int64), g_pos[..., None], axis=-1)
    return grad


def sem2d_loss(
    pred,
    gt: ErpImage,
    w: ClassWeights | None = None,
) -> float:
    """Per-pixel weighted cross-entropy on an ERP semantic raster.

    UNLABELED pixels drop out of the mean; with none left the loss is 0.
    """
    p = np.asarray(pred, dtype=np.float64)
    if gt.kind != "semantic_label":
        raise DomainError("2D loss needs a semantic raster")
    if p.ndim != 3 or p.shape[:2] != (gt.height, gt.width):
        raise ShapeError("prediction raster must be (H, W, C) matching the labels")
    weights = np.ones(p.shape[2]) if w is None else _weight_vector(w, p.shape[2])
    y = gt.data.astype(np.int64)
    keep = y != UNLABELED
    if not np.any(keep):
        return 0.0
    if int(y[keep].max()) >= p.shape[2]:
        raise DomainError("semantic label outside the prediction's class range")
    return float(_cross_entropy(p[keep], y[keep], weights).mean())
