"""Loss-term tests: closed-form unit cases (mpmath-verified constants),
invariants, analytic-vs-central-difference gradient checks, and the one-pass
statistics against the per-class oracles on drawn grids."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylocc.errors import DomainError, ShapeError
from cylocc.geom import UNLABELED, ErpImage
from cylocc.grid import CUBOID, GridSpec, VoxelGrid
from cylocc.losses import (
    _STATS_BLOCK,
    ClassWeights,
    ProbGrid,
    class_weights,
    dice_macro,
    scal_loss,
    scal_loss_grad,
    sem2d_loss,
    weighted_ce,
    weighted_ce_grad,
)

from oracles import (
    central_diff,
    dice_loss,
    scal_loss_grad_per_class,
    scal_loss_per_class,
    unit_weights,
    weighted_ce_formula,
    weighted_ce_grad_formula,
)


def small_spec(d0=4, d1=5, d2=2):
    return GridSpec(CUBOID, (d0, d1, d2), ((0, d0), (0, d1), (0, d2)))


def random_probs(rng, dims, c, floor=0.05):
    p = rng.rand(*dims, c) + floor
    return p / p.sum(axis=-1, keepdims=True)


class TestClassWeights:
    def test_known_value(self):
        # mpmath 50-digit oracle: 1/ln(1.52) = 2.3882859264476830274
        f = np.array([0.5, 0.5])
        w = class_weights(f, 1.02)
        assert w.weights[0] == pytest.approx(2.3882859264476830274, abs=1e-12)

    def test_ln_e_gives_unit_weight(self):
        f = np.array([0.0, 1.0])
        w = class_weights(f, math.e)
        assert w.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_rare_class_weighs_more(self):
        f = np.array([0.9, 0.07, 0.03])
        w = class_weights(f).weights
        assert w[2] > w[1] > w[0]

    def test_log_positivity_enforced(self):
        with pytest.raises(DomainError):
            class_weights(np.array([0.0, 1.0]), 1.0)

    def test_fractions_validated(self):
        with pytest.raises(DomainError):
            class_weights(np.array([0.7, 0.7]))

    @pytest.mark.parametrize("frequencies,constant", [
        ([0.5, 0.5], math.nan), ([0.5, 0.5], math.inf), ([math.nan, 1.0], 1.02),
    ])
    def test_non_finite_inputs_rejected(self, frequencies, constant):
        with pytest.raises(DomainError):
            class_weights(np.array(frequencies), constant)


class TestWeightedCe:
    def test_perfect_prediction_is_zero(self):
        spec = small_spec()
        rng = np.random.RandomState(40)
        y = rng.randint(0, 3, spec.dims).astype(np.uint8)
        p = np.eye(3)[y]
        gt = VoxelGrid(spec, "label", y)
        w = unit_weights(3)
        assert weighted_ce(p, gt, w) == 0.0

    def test_uniform_prediction_ln12(self):
        spec = small_spec()
        rng = np.random.RandomState(41)
        y = rng.randint(0, 12, spec.dims).astype(np.uint8)
        p = np.full(spec.dims + (12,), 1.0 / 12.0)
        gt = VoxelGrid(spec, "label", y)
        loss = weighted_ce(p, gt, unit_weights(12))
        # mpmath oracle: ln 12 = 2.4849066497880003102
        assert loss == pytest.approx(2.4849066497880003102, abs=1e-9)

    def test_linear_in_weights(self):
        spec = small_spec()
        rng = np.random.RandomState(42)
        y = rng.randint(0, 4, spec.dims).astype(np.uint8)
        p = random_probs(rng, spec.dims, 4)
        gt = VoxelGrid(spec, "label", y)
        w1 = class_weights(np.full(4, 0.25))
        w2 = ClassWeights(w1.weights * 2.0, w1.constant, w1.frequencies)
        assert weighted_ce(p, gt, w2) == pytest.approx(2.0 * weighted_ce(p, gt, w1), rel=1e-12)

    def test_non_negative(self):
        spec = small_spec()
        rng = np.random.RandomState(43)
        for _ in range(5):
            y = rng.randint(0, 3, spec.dims).astype(np.uint8)
            p = random_probs(rng, spec.dims, 3, floor=0.0)
            gt = VoxelGrid(spec, "label", y)
            assert weighted_ce(p, gt, unit_weights(3)) >= 0.0

    def test_accepts_prob_grid(self):
        spec = small_spec()
        rng = np.random.RandomState(44)
        p = random_probs(rng, spec.dims, 5)
        y = rng.randint(0, 5, spec.dims).astype(np.uint8)
        gt = VoxelGrid(spec, "label", y)
        w = unit_weights(5)
        assert weighted_ce(ProbGrid(spec, p), gt, w) == weighted_ce(p, gt, w)


class TestProbGrid:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        spec = small_spec()
        p = np.full(spec.dims + (2,), 0.5)
        p[1, 2, 0] = [bad, 0.5]
        with pytest.raises(DomainError):
            ProbGrid(spec, p)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_payload_kept(self, dtype):
        spec = small_spec()
        p = np.full(spec.dims + (4,), 0.25, dtype=dtype)
        assert ProbGrid(spec, p).probs is p
        # anything else widens to at least float32
        assert ProbGrid(spec, p.astype(np.float16)).probs.dtype == np.float32
        assert ProbGrid(spec, np.eye(4, dtype=np.int64)[np.zeros(spec.dims, int)]).probs.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("row", [0, _STATS_BLOCK - 1, _STATS_BLOCK, -1])
    @pytest.mark.parametrize("bad", ["nan", "negative", "sum"])
    def test_every_row_block_checked(self, dtype, row, bad):
        spec = small_spec(16, 20, 16)  # 5120 rows: two blocks
        p = np.full(spec.dims + (2,), 0.5, dtype=dtype)
        q = p.reshape(-1, 2)
        q[row] = {"nan": [np.nan, 0.5], "negative": [-0.25, 1.25], "sum": [0.5, 0.50001]}[bad]
        with pytest.raises(DomainError):
            ProbGrid(spec, p)

    def test_float32_payload_scores_as_widened(self):
        # the losses widen what they read: a float32 grid scores bit for bit as
        # its float64 copy, over more rows than one statistics block
        rng = np.random.RandomState(81)
        spec = small_spec(16, 20, 16)
        p32 = random_probs(rng, spec.dims, 6).astype(np.float32)
        p32 /= p32.sum(axis=-1, keepdims=True)
        gt = VoxelGrid(spec, "label", rng.randint(0, 6, spec.dims).astype(np.uint8))
        narrow, wide = ProbGrid(spec, p32), ProbGrid(spec, p32.astype(np.float64))
        assert narrow.probs.dtype == np.float32
        w = class_weights(np.full(6, 1 / 6))
        assert weighted_ce(narrow, gt, w) == weighted_ce(wide, gt, w)
        assert scal_loss(narrow, gt) == scal_loss(wide, gt)
        for grad in (lambda pg: weighted_ce_grad(pg, gt, w), lambda pg: scal_loss_grad(pg, gt)):
            g = grad(narrow)
            assert g.dtype == np.float64
            np.testing.assert_array_equal(g, grad(wide))


class TestDice:
    def grids(self, pred_labels, gt_labels):
        spec = GridSpec(CUBOID, (len(pred_labels), 1, 1), ((0, len(pred_labels)), (0, 1), (0, 1)))
        mk = lambda v: VoxelGrid(spec, "label", np.asarray(v, dtype=np.uint8).reshape(-1, 1, 1))
        return mk(pred_labels), mk(gt_labels)

    def test_identical_with_class_present(self):
        a, b = self.grids([3, 3, 0, 1], [3, 3, 0, 1])
        assert dice_loss(a, b, 3) == 0.0
        assert dice_macro(a, b, 4) == 0.0

    def test_disjoint_supports(self):
        a, b = self.grids([3, 3, 0, 0], [0, 0, 3, 3])
        assert dice_loss(a, b, 3) == 1.0
        assert dice_macro(a, b, 4) == 1.0

    def test_hand_confusion_third(self):
        # TP=1, FP=1, FN=0 -> 1 - 2/3
        a, b = self.grids([3, 3, 0], [3, 0, 0])
        assert dice_loss(a, b, 3) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert dice_macro(a, b, 4) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_absent_from_both_is_zero(self):
        a, b = self.grids([0, 1], [1, 0])
        assert dice_loss(a, b, 5) == 0.0
        # class 5 adds no term to the macro mean; only free voxels leave none
        assert dice_macro(a, b, 6) == dice_macro(a, b, 2) == 1.0
        assert dice_macro(*self.grids([0, 0], [0, 0]), 6) == 0.0

    def test_symmetric_under_swap(self):
        rng = np.random.RandomState(45)
        spec = small_spec()
        a = VoxelGrid(spec, "label", rng.randint(0, 4, spec.dims).astype(np.uint8))
        b = VoxelGrid(spec, "label", rng.randint(0, 4, spec.dims).astype(np.uint8))
        for c in range(4):
            assert dice_loss(a, b, c) == dice_loss(b, a, c)
        assert dice_macro(a, b, 4) == dice_macro(b, a, 4)

    def test_bounded(self):
        rng = np.random.RandomState(46)
        spec = small_spec()
        for _ in range(10):
            a = VoxelGrid(spec, "label", rng.randint(0, 3, spec.dims).astype(np.uint8))
            b = VoxelGrid(spec, "label", rng.randint(0, 3, spec.dims).astype(np.uint8))
            assert 0.0 <= dice_macro(a, b, 3) <= 1.0


class TestScal:
    def test_perfect_prediction_near_zero(self):
        spec = small_spec()
        rng = np.random.RandomState(47)
        y = rng.randint(0, 3, spec.dims).astype(np.uint8)
        p = np.eye(3)[y]
        gt = VoxelGrid(spec, "label", y)
        assert abs(scal_loss(p, gt)) < 1e-9

    def test_half_half_reference_value(self):
        # 2-voxel grid, gt = [free, c], p_c = 0.5 everywhere:
        # P = R = S = 0.5 -> loss = -3 ln 0.5 = 2.0794415416798359283
        spec = GridSpec(CUBOID, (2, 1, 1), ((0, 2), (0, 1), (0, 1)))
        gt = VoxelGrid(spec, "label", np.array([0, 1], dtype=np.uint8).reshape(2, 1, 1))
        p = np.full((2, 1, 1, 2), 0.5)
        assert scal_loss(p, gt) == pytest.approx(2.0794415416798359283, abs=1e-9)

    def test_permutation_invariance(self):
        spec = small_spec()
        rng = np.random.RandomState(48)
        y = rng.randint(0, 4, spec.dims).astype(np.uint8)
        p = random_probs(rng, spec.dims, 4)
        gt = VoxelGrid(spec, "label", y)
        base = scal_loss(p, gt)
        perm = rng.permutation(spec.num_voxels)
        y2 = y.reshape(-1)[perm].reshape(spec.dims)
        p2 = p.reshape(-1, 4)[perm].reshape(spec.dims + (4,))
        assert scal_loss(p2, VoxelGrid(spec, "label", y2)) == pytest.approx(base, rel=1e-12)


class TestGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_weighted_ce_gradient(self, seed):
        spec = small_spec()
        rng = np.random.RandomState(100 + seed)
        y = rng.randint(0, 4, spec.dims).astype(np.uint8)
        gt = VoxelGrid(spec, "label", y)
        w = class_weights(np.full(4, 0.25))
        p = random_probs(rng, spec.dims, 4)
        analytic = weighted_ce_grad(p, gt, w)
        numeric = central_diff(lambda q: weighted_ce(q, gt, w), p)
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-5

    @pytest.mark.parametrize("seed", range(10))
    def test_scal_gradient(self, seed):
        spec = small_spec()
        rng = np.random.RandomState(200 + seed)
        y = rng.randint(0, 4, spec.dims).astype(np.uint8)
        gt = VoxelGrid(spec, "label", y)
        p = random_probs(rng, spec.dims, 4)
        analytic = scal_loss_grad(p, gt)
        numeric = central_diff(lambda q: scal_loss(q, gt), p)
        scale = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-5


class TestSem2d:
    def test_perfect_prediction(self):
        y = np.array([[0, 1], [2, 1]], dtype=np.float32)
        gt = ErpImage.semantic(y)
        p = np.eye(3)[y.astype(int)]
        assert sem2d_loss(p, gt) == 0.0

    def test_uniform_prediction_ln12(self):
        rng = np.random.RandomState(50)
        y = rng.randint(0, 12, (6, 8)).astype(np.float32)
        gt = ErpImage.semantic(y)
        p = np.full((6, 8, 12), 1.0 / 12.0)
        assert sem2d_loss(p, gt) == pytest.approx(math.log(12.0), abs=1e-9)

    def test_unlabeled_pixels_ignored(self):
        y = np.array([[1, UNLABELED], [UNLABELED, 2]], dtype=np.float32)
        gt = ErpImage.semantic(y)
        p = np.zeros((2, 2, 3))
        p[0, 0] = [0.0, 0.5, 0.5]
        p[1, 1] = [0.0, 0.5, 0.5]
        p[0, 1] = [1.0, 0.0, 0.0]  # ignored pixels may hold anything
        p[1, 0] = [1.0, 0.0, 0.0]
        # mean over the two labeled pixels of -ln(0.5)
        assert sem2d_loss(p, gt) == pytest.approx(-math.log(0.5), abs=1e-9)

    def test_all_unlabeled_is_zero(self):
        gt = ErpImage.semantic(np.full((2, 2), UNLABELED, dtype=np.float32))
        assert sem2d_loss(np.full((2, 2, 3), 1 / 3), gt) == 0.0


class TestInputErrors:
    @pytest.mark.parametrize("count", [2, 5])
    @pytest.mark.parametrize("fn", [weighted_ce, weighted_ce_grad])
    def test_weight_count_must_match_classes(self, fn, count):
        spec = small_spec()
        p = np.full(spec.dims + (3,), 1.0 / 3.0)
        gt = VoxelGrid(spec, "label", np.full(spec.dims, 2, dtype=np.uint8))
        with pytest.raises(ShapeError):
            fn(p, gt, unit_weights(count))

    @pytest.mark.parametrize("count", [2, 5])
    def test_sem2d_weight_count_must_match_classes(self, count):
        gt = ErpImage.semantic(np.array([[0, 1], [2, 2]], dtype=np.float32))
        with pytest.raises(ShapeError):
            sem2d_loss(np.full((2, 2, 3), 1.0 / 3.0), gt, unit_weights(count))

    @pytest.mark.parametrize("fn", [
        lambda p, gt: weighted_ce(p, gt, unit_weights(3)),
        lambda p, gt: weighted_ce_grad(p, gt, unit_weights(3)),
        scal_loss,
        scal_loss_grad,
    ], ids=["weighted_ce", "weighted_ce_grad", "scal_loss", "scal_loss_grad"])
    def test_probabilities_must_be_4d(self, fn):
        spec = small_spec()
        gt = VoxelGrid(spec, "label", np.zeros(spec.dims, dtype=np.uint8))
        with pytest.raises(ShapeError):
            fn(np.full(spec.dims + (1, 3), 1.0 / 3.0), gt)


@st.composite
def loss_grids(draw):
    """(probs, gt, pred_labels, weights) on a 1-5 cells per axis grid with
    2-6 classes: labels from a drawn subset of the classes (so some are
    absent, and one may fill the grid), probabilities that are random,
    one-hot, or 1 - U(0, 10^-k) on one class's negatives, and prediction
    labels up to num_classes + 2."""
    dims = tuple(draw(st.integers(1, 5)) for _ in range(3))
    c = draw(st.integers(2, 6))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    used = draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=c, unique=True))
    y = rng.choice(used, dims).astype(np.uint8)
    form = draw(st.sampled_from(["random", "one_hot", "near_one"]))
    if form == "one_hot":
        p = np.eye(c)[np.where(rng.rand(*dims) < 0.7, y, rng.randint(0, c, dims))]
    else:
        p = random_probs(rng, dims, c, floor=draw(st.sampled_from([0.0, 0.05])))
    if form == "near_one":
        k = draw(st.integers(0, c - 1))
        neg = y != k
        rest = rng.uniform(0.0, 10.0 ** -draw(st.integers(1, 12)), dims)
        others = np.delete(p, k, axis=-1)
        others *= (rest / others.sum(axis=-1))[..., None]
        p[neg] = np.insert(others, k, 1.0 - rest, axis=-1)[neg]
    spec = GridSpec(CUBOID, dims, ((0, dims[0]), (0, dims[1]), (0, dims[2])))
    pred_labels = VoxelGrid(spec, "label", rng.randint(0, c + 3, dims).astype(np.uint8))
    w = ClassWeights(rng.rand(c) + 0.5, 1.02, np.full(c, 1.0 / c))
    return p, VoxelGrid(spec, "label", y), pred_labels, w


class TestOracles:
    @settings(max_examples=300, deadline=None)
    @given(case=loss_grids())
    def test_one_pass_statistics_match_per_class_oracles(self, case):
        p, gt, pred_labels, w = case
        c = p.shape[-1]
        vals = [dice_loss(pred_labels, gt, k) for k in range(1, c)
                if np.any(pred_labels.data == k) or np.any(gt.data == k)]
        assert dice_macro(pred_labels, gt, c) == (float(np.mean(vals)) if vals else 0.0)

        assert weighted_ce(p, gt, w) == weighted_ce_formula(p, gt, w)
        np.testing.assert_array_equal(weighted_ce_grad(p, gt, w), weighted_ce_grad_formula(p, gt, w))
        h, wd = gt.spec.dims[0], gt.spec.dims[1] * gt.spec.dims[2]
        erp = ErpImage.semantic(gt.data.reshape(h, wd).astype(np.float32))
        assert sem2d_loss(p.reshape(h, wd, c), erp, w) == weighted_ce_formula(p, gt, w)

        want = scal_loss_per_class(p, gt)
        assert abs(scal_loss(p, gt) - want) <= 1e-12 * abs(want)
        want = scal_loss_grad_per_class(p, gt)
        assert np.all(np.abs(scal_loss_grad(p, gt) - want) <= 1e-12 * np.abs(want))
