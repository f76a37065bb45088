"""
Class-imbalance losses
======================

The four training-loss terms as plain numeric functions: inverse-log
frequency weights, weighted cross-entropy, the precision/recall/specificity
affinity loss, dice, and per-pixel 2D cross-entropy. Analytic gradients are
checked against central finite differences on the spot.
"""

import numpy as np

from cylocc import (
    ErpImage,
    VoxelGrid,
    class_frequencies,
    class_weights,
    default_label_set,
    dice_macro,
    scal_loss,
    scal_loss_grad,
    sem2d_loss,
    weighted_ce,
    weighted_ce_grad,
)
from cylocc.grid import CUBOID, GridSpec

labels = default_label_set()
spec = GridSpec(CUBOID, (8, 8, 4), ((0, 8), (0, 8), (0, 4)))
rng = np.random.RandomState(4)

# an imbalanced label grid: mostly free, some road, a little of the rest
y = rng.choice(labels.count, size=spec.dims, p=[0.7, 0.2] + [0.1 / 10] * 10).astype(np.uint8)
gt = VoxelGrid(spec, "label", y)
freq = class_frequencies(gt, labels.count)
w = class_weights(freq)  # w_c = 1 / ln(f_c + 1.02)
print("rarer classes weigh more:")
for name, f, wt in zip(labels.names, freq, w):
    if f > 0:
        print(f"  {name:>11s}: f={f:.3f}  w={wt:.2f}")
present = freq > 0
assert np.all(np.diff(w[present][np.argsort(freq[present])]) <= 0)

probs = rng.rand(*spec.dims, labels.count) + 0.05
probs /= probs.sum(axis=-1, keepdims=True)

ce = weighted_ce(probs, gt, w)
scal = scal_loss(probs, gt)
pred_labels = VoxelGrid(spec, "label", np.argmax(probs, axis=-1).astype(np.uint8))
dice = dice_macro(pred_labels, gt, labels.count)

sem = ErpImage.semantic(rng.randint(0, labels.count, (16, 32)).astype(np.float32))
p2d = rng.rand(16, 32, labels.count) + 0.05
p2d /= p2d.sum(axis=-1, keepdims=True)
sem2d = sem2d_loss(p2d, sem, w)

print(f"ce={ce:.4f}  scal={scal:.4f}  dice={dice:.4f}  sem2d={sem2d:.4f}")
print("total (plain sum):", ce + scal + dice + sem2d)

# spot-check the analytic gradients with central differences on one entry
h = 1e-5
for name, loss, grad in (
    ("weighted_ce", lambda q: weighted_ce(q, gt, w), lambda q: weighted_ce_grad(q, gt, w)),
    ("scal_loss", lambda q: scal_loss(q, gt), lambda q: scal_loss_grad(q, gt)),
):
    g = grad(probs)
    i = np.unravel_index(np.argmax(np.abs(g)), g.shape)
    probe = probs.copy()
    probe[i] += h
    hi = loss(probe)
    probe[i] -= 2 * h
    lo = loss(probe)
    numeric = (hi - lo) / (2 * h)
    print(f"{name}: analytic {g[i]:+.6f} vs central-difference {numeric:+.6f}")
    assert abs(g[i] - numeric) <= 1e-5 * abs(g[i])
