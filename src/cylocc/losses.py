"""Training-loss terms over probability grids and label grids.

All four terms are pure numeric functions: weighted cross-entropy, the
per-class affinity loss over precision/recall/specificity, dice loss, and
per-pixel weighted cross-entropy on 2D semantics. weighted_ce and
scal_loss come with analytic gradients with respect to the probability
tensor so they can be checked against finite differences.

Natural logarithms throughout, guarded by eps = 1e-12. Cross-entropy clamps
p + eps at 1 so a perfect prediction scores exactly 0 and the loss stays
non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, require_finite
from .geom import UNLABELED, ErpImage
from .grid import GridSpec, VoxelGrid

EPS = 1e-12


@dataclass
class ProbGrid:
    """Per-voxel class probability vectors over a grid."""

    spec: GridSpec
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 4 or p.shape[:3] != self.spec.dims or p.shape[3] < 2:
            raise ShapeError(f"probs must be {self.spec.dims} + (C,), got {p.shape}")
        # written so that NaN fails both checks
        if not np.all(p >= 0):
            raise DomainError("probabilities must be non-negative and finite")
        if not (np.max(np.abs(p.sum(axis=3) - 1.0)) <= 1e-6):
            raise DomainError("per-voxel probabilities must sum to 1 within 1e-6")
        self.probs = p

    @property
    def num_classes(self) -> int:
        return self.probs.shape[3]

    @staticmethod
    def from_voxel_grid(grid: VoxelGrid) -> "ProbGrid":
        if grid.kind != "feature":
            raise DomainError("probability grids load from feature payloads")
        return ProbGrid(grid.spec, grid.data.astype(np.float64))


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
    if pred_probs.shape[:3] != gt.spec.dims:
        raise ShapeError("prediction and ground truth grids differ in shape")
    y = gt.data
    if int(y.max(initial=0)) >= pred_probs.shape[-1]:
        raise DomainError("ground-truth label outside the prediction's class range")
    return y


def weighted_ce(pred, gt: VoxelGrid, w: ClassWeights) -> float:
    """Mean over voxels of -w_y * ln(min(p_y + eps, 1))."""
    p = _probs_array(pred)
    y = _check_pair(p, gt)
    py = np.take_along_axis(p, y[..., None].astype(np.int64), axis=-1)[..., 0]
    terms = -w.weights[y] * np.log(np.minimum(py + EPS, 1.0))
    return float(terms.mean())


def weighted_ce_grad(pred, gt: VoxelGrid, w: ClassWeights) -> np.ndarray:
    """d(weighted_ce)/d(probs): nonzero only at each voxel's true class."""
    p = _probs_array(pred)
    y = _check_pair(p, gt)
    n = y.size
    grad = np.zeros_like(p)
    py = np.take_along_axis(p, y[..., None].astype(np.int64), axis=-1)[..., 0]
    gy = np.where(py + EPS < 1.0, -w.weights[y] / (py + EPS) / n, 0.0)
    np.put_along_axis(grad, y[..., None].astype(np.int64), gy[..., None], axis=-1)
    return grad


def dice_loss(pred_labels: VoxelGrid, gt: VoxelGrid, class_id: int) -> float:
    """1 - 2TP / (2TP + FP + FN) for one class; 0 when absent from both grids."""
    if pred_labels.spec != gt.spec:
        raise ShapeError("prediction and ground truth grids must share a spec")
    if pred_labels.kind != "label" or gt.kind != "label":
        raise DomainError("dice needs label grids")
    pc = pred_labels.data == class_id
    gc = gt.data == class_id
    tp = int(np.sum(pc & gc))
    fp = int(np.sum(pc & ~gc))
    fn = int(np.sum(~pc & gc))
    if tp + fp + fn == 0:
        return 0.0
    return 1.0 - 2.0 * tp / (2.0 * tp + fp + fn)


def dice_macro(pred_labels: VoxelGrid, gt: VoxelGrid, num_classes: int) -> float:
    """Mean dice loss over non-free classes present in either grid."""
    vals = []
    for c in range(1, num_classes):
        if np.any(pred_labels.data == c) or np.any(gt.data == c):
            vals.append(dice_loss(pred_labels, gt, c))
    return float(np.mean(vals)) if vals else 0.0


def _scal_stats(p: np.ndarray, y: np.ndarray, c: int):
    pc = p[..., c]
    is_c = y == c
    n_pos = int(is_c.sum())
    n_neg = is_c.size - n_pos
    s_all = float(pc.sum())
    s_true = float(pc[is_c].sum())
    precision = s_true / (s_all + EPS)
    recall = s_true / n_pos
    specificity = float((1.0 - pc[~is_c]).sum()) / n_neg if n_neg else 1.0
    return pc, is_c, n_pos, n_neg, s_all, precision, recall, specificity


def scal_loss(pred, gt: VoxelGrid) -> float:
    """Affinity loss: mean over present semantic classes of
    -[ln P_c + ln R_c + ln S_c] with precision, recall and specificity of
    the class's probability mass against the label grid."""
    p = _probs_array(pred)
    y = _check_pair(p, gt)
    present = [c for c in range(1, p.shape[-1]) if np.any(y == c)]
    if not present:
        return 0.0
    total = 0.0
    for c in present:
        _, _, _, _, _, prec, rec, spec = _scal_stats(p, y, c)
        total += -(math.log(prec + EPS) + math.log(rec + EPS) + math.log(spec + EPS))
    return total / len(present)


def scal_loss_grad(pred, gt: VoxelGrid) -> np.ndarray:
    """Analytic d(scal_loss)/d(probs)."""
    p = _probs_array(pred)
    y = _check_pair(p, gt)
    present = [c for c in range(1, p.shape[-1]) if np.any(y == c)]
    grad = np.zeros_like(p)
    if not present:
        return grad
    scale = 1.0 / len(present)
    for c in present:
        pc, is_c, n_pos, n_neg, s_all, prec, rec, spec = _scal_stats(p, y, c)
        g = np.zeros_like(pc)
        # precision = s_true / (s_all + EPS)
        dprec = (is_c.astype(np.float64) - prec) / (s_all + EPS)
        g -= dprec / (prec + EPS)
        # recall = s_true / n_pos
        g -= is_c / (n_pos * (rec + EPS))
        # specificity = sum(1 - pc over negatives) / n_neg
        if n_neg:
            g += (~is_c) / (n_neg * (spec + EPS))
        grad[..., c] += scale * g
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
    y = gt.data.astype(np.int64)
    keep = y != UNLABELED
    if not np.any(keep):
        return 0.0
    if int(y[keep].max()) >= p.shape[2]:
        raise DomainError("semantic label outside the prediction's class range")
    weights = w.weights if w is not None else np.ones(p.shape[2])
    yk = y[keep]
    pk = p[keep]
    py = pk[np.arange(len(yk)), yk]
    terms = -weights[yk] * np.log(np.minimum(py + EPS, 1.0))
    return float(terms.mean())
