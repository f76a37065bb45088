"""Lattice tests. Index examples are checked against a pure-Python scalar
re-implementation of the binning formulas; voting against a dict-based
counter."""

import math
from collections import Counter

import numpy as np
import pytest

from cylocc.errors import DomainError
from cylocc.geom import LabeledPointCloud
from cylocc.grid import (
    CUBOID,
    CYLINDRICAL,
    GridSpec,
    LabelSet,
    VoxelGrid,
    class_frequencies,
    default_label_set,
    voxelize_semantic,
)

from oracles import default_cuboid_spec


def scalar_cyl_index(p, spec):
    """Independent scalar re-implementation with exact-real edge handling."""
    r = math.hypot(p[0], p[1])
    theta = math.atan2(p[1], p[0])
    (r_lo, r_hi), _, (z_lo, z_hi) = spec.ranges
    if r < r_lo or r > r_hi or p[2] < z_lo or p[2] > z_hi:
        return (-1, -1, -1)
    out = []
    for v, lo, hi, d in ((r, r_lo, r_hi, spec.dims[0]), (theta, -math.pi, math.pi, spec.dims[1]), (p[2], z_lo, z_hi, spec.dims[2])):
        q = (v - lo) / ((hi - lo) / d)
        i = math.floor(q + 1e-9)
        out.append(i)
    out[1] %= spec.dims[1]
    out[0] = min(out[0], spec.dims[0] - 1)
    out[2] = min(out[2], spec.dims[2] - 1)
    return tuple(out)


class TestPointToIndex:
    def test_meter_forward_point(self, cyl_spec):
        # dr=0.2 -> bin 5; theta=0 -> bin 100; dz=0.4, z=0 -> bin 7
        np.testing.assert_array_equal(cyl_spec.point_to_index([1.0, 0.0, 0.0]), [5, 100, 7])

    def test_outside_radius(self, cyl_spec):
        np.testing.assert_array_equal(cyl_spec.point_to_index([30.0, 0.0, 0.0]), [-1, -1, -1])

    def test_theta_pi_wraps_to_bin_zero(self, cyl_spec):
        np.testing.assert_array_equal(cyl_spec.point_to_index([-1.0, 0.0, 0.0]), [5, 0, 7])

    def test_against_scalar_reimplementation(self, cyl_spec):
        rng = np.random.RandomState(0)
        pts = np.stack(
            [rng.uniform(-30, 30, 3000), rng.uniform(-30, 30, 3000), rng.uniform(-4, 5, 3000)], axis=1
        )
        idx = cyl_spec.point_to_index(pts)
        for p, got in zip(pts, idx):
            assert tuple(got) == scalar_cyl_index(p, cyl_spec)

    def test_axis_point_uses_atan2_zero(self, cyl_spec):
        np.testing.assert_array_equal(cyl_spec.point_to_index([0.0, 0.0, 0.0]), [0, 100, 7])

    def test_r_max_edge_is_inside(self, cyl_spec):
        idx = cyl_spec.point_to_index([25.6, 0.0, 0.0])
        assert idx[0] == 127

    def test_cuboid_floor_division(self):
        spec = GridSpec(CUBOID, (1, 1, 1), ((0, 1), (0, 1), (0, 1)))
        np.testing.assert_array_equal(spec.point_to_index([0.5, 0.5, 0.5]), [0, 0, 0])
        np.testing.assert_array_equal(spec.point_to_index([1.5, 0.5, 0.5]), [-1, -1, -1])


class TestIndexToCenter:
    def test_known_center(self, cyl_spec):
        c = cyl_spec.index_to_center([5, 100, 7])
        # r=1.1, theta=dtheta/2, z=0.2, evaluated in closed form
        dt = math.pi / 100
        np.testing.assert_allclose(
            c, [1.1 * math.cos(dt / 2), 1.1 * math.sin(dt / 2), 0.2], atol=1e-12
        )

    def test_unit_cuboid_center(self):
        spec = GridSpec(CUBOID, (1, 1, 1), ((0, 1), (0, 1), (0, 1)))
        np.testing.assert_allclose(spec.index_to_center([0, 0, 0]), [0.5, 0.5, 0.5])

    def test_out_of_dims_rejected(self, cyl_spec):
        with pytest.raises(DomainError):
            cyl_spec.index_to_center([128, 0, 0])

    def test_exhaustive_bijection_cylindrical(self, cyl_spec):
        centers = cyl_spec.all_centers()
        idx = cyl_spec.point_to_index(centers)
        d0, d1, d2 = cyl_spec.dims
        i0, i1, i2 = np.meshgrid(np.arange(d0), np.arange(d1), np.arange(d2), indexing="ij")
        expect = np.stack([i0.ravel(), i1.ravel(), i2.ravel()], axis=1)
        np.testing.assert_array_equal(idx, expect)

    def test_exhaustive_bijection_cuboid(self):
        spec = default_cuboid_spec()
        centers = spec.all_centers()
        idx = spec.point_to_index(centers)
        d0, d1, d2 = spec.dims
        i0, i1, i2 = np.meshgrid(np.arange(d0), np.arange(d1), np.arange(d2), indexing="ij")
        expect = np.stack([i0.ravel(), i1.ravel(), i2.ravel()], axis=1)
        np.testing.assert_array_equal(idx, expect)


class TestThetaWrap:
    def test_adjacent_bins_across_seam(self, cyl_spec):
        eps = 1e-7
        hi = cyl_spec.point_to_index([math.cos(math.pi - eps), math.sin(math.pi - eps), 0.0])
        lo = cyl_spec.point_to_index([math.cos(-math.pi + eps), math.sin(-math.pi + eps), 0.0])
        assert hi[1] == cyl_spec.dims[1] - 1
        assert lo[1] == 0


class TestDensityAllocation:
    def test_near_field_is_denser(self, cyl_spec):
        dr, dt, _ = cyl_spec.deltas
        assert dt * 0.3 < dt * 25.5
        centers_r = 0.0 + (np.arange(cyl_spec.dims[0]) + 0.5) * dr
        footprint = centers_r * dt * dr
        assert np.all(np.diff(footprint) > 0)


class TestVoxelize:
    def test_empty_cloud_all_free(self, cyl_spec):
        grid = voxelize_semantic(LabeledPointCloud.empty(), cyl_spec, default_label_set())
        assert not grid.data.any()

    def test_majority_vote(self, cyl_spec):
        p = cyl_spec.index_to_center([10, 50, 8])
        cloud = LabeledPointCloud(np.tile(p, (3, 1)), np.array([3, 7, 3], dtype=np.uint8))
        grid = voxelize_semantic(cloud, cyl_spec, default_label_set())
        assert grid.data[10, 50, 8] == 3

    def test_tie_breaks_to_smaller_id(self, cyl_spec):
        p = cyl_spec.index_to_center([10, 50, 8])
        cloud = LabeledPointCloud(np.tile(p, (2, 1)), np.array([7, 3], dtype=np.uint8))
        grid = voxelize_semantic(cloud, cyl_spec, default_label_set())
        assert grid.data[10, 50, 8] == 3

    def test_label_out_of_range_rejected(self, cyl_spec):
        cloud = LabeledPointCloud(np.zeros((1, 3)), np.array([12], dtype=np.uint8))
        with pytest.raises(DomainError):
            voxelize_semantic(cloud, cyl_spec, default_label_set())

    def test_matches_counter_oracle(self, cyl_spec):
        rng = np.random.RandomState(1)
        n = 20000
        pts = np.stack(
            [rng.uniform(-26, 26, n), rng.uniform(-26, 26, n), rng.uniform(-3, 4, n)], axis=1
        )
        labels = rng.randint(0, 12, n).astype(np.uint8)
        cloud = LabeledPointCloud(pts, labels)
        grid = voxelize_semantic(cloud, cyl_spec, default_label_set())

        votes = {}
        idx = cyl_spec.point_to_index(pts)
        kept = 0
        for (i0, i1, i2), lab in zip(idx, labels):
            if i0 < 0:
                continue
            kept += 1
            votes.setdefault((i0, i1, i2), Counter())[int(lab)] += 1
        # payload conservation: every in-range point lands in exactly one voxel
        assert kept == sum(sum(c.values()) for c in votes.values())
        expect = np.zeros(cyl_spec.dims, dtype=np.uint8)
        for key, counter in votes.items():
            best = max(counter.items(), key=lambda kv: (kv[1], -kv[0]))
            expect[key] = best[0]
        np.testing.assert_array_equal(grid.data, expect)

    def test_order_invariance(self, cyl_spec):
        rng = np.random.RandomState(2)
        n = 5000
        pts = np.stack(
            [rng.uniform(-20, 20, n), rng.uniform(-20, 20, n), rng.uniform(-2, 3, n)], axis=1
        )
        labels = rng.randint(0, 12, n).astype(np.uint8)
        perm = rng.permutation(n)
        a = voxelize_semantic(LabeledPointCloud(pts, labels), cyl_spec, default_label_set())
        b = voxelize_semantic(LabeledPointCloud(pts[perm], labels[perm]), cyl_spec, default_label_set())
        np.testing.assert_array_equal(a.data, b.data)


class TestFrequencies:
    def test_all_free(self, cyl_spec):
        grid = VoxelGrid.zeros(cyl_spec, "label")
        f = class_frequencies(grid, 12)
        assert f[0] == 1.0
        assert not f[1:].any()

    def test_half_and_half(self):
        spec = GridSpec(CUBOID, (2, 1, 1), ((0, 2), (0, 1), (0, 1)))
        grid = VoxelGrid(spec, "label", np.array([0, 1], dtype=np.uint8).reshape(2, 1, 1))
        f = class_frequencies(grid, 2)
        np.testing.assert_array_equal(f, [0.5, 0.5])

    def test_matches_histogram_oracle(self, cyl_spec):
        rng = np.random.RandomState(3)
        grid = VoxelGrid(cyl_spec, "label", rng.randint(0, 12, cyl_spec.dims).astype(np.uint8))
        f = class_frequencies(grid, 12)
        hist = np.array([(grid.data == c).sum() for c in range(12)]) / cyl_spec.num_voxels
        np.testing.assert_array_equal(f, hist)
        assert abs(f.sum() - 1.0) < 1e-12


class TestPayloadValidation:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_feature_rejected(self, bad):
        spec = GridSpec(CUBOID, (2, 2, 2), ((0, 1), (0, 1), (0, 1)))
        data = np.zeros((2, 2, 2, 3), dtype=np.float32)
        data[1, 0, 1, 2] = bad
        with pytest.raises(DomainError):
            VoxelGrid(spec, "feature", data)


class TestSpecValidation:
    def test_theta_range_must_be_full_circle(self):
        with pytest.raises(DomainError):
            GridSpec(CYLINDRICAL, (4, 4, 4), ((0, 10), (-1.0, 1.0), (0, 1)))

    def test_f32_rounded_theta_accepted(self):
        pi32 = float(np.float32(math.pi))
        spec = GridSpec(CYLINDRICAL, (4, 4, 4), ((0, 10), (-pi32, pi32), (0, 1)))
        assert spec.dims == (4, 4, 4)

    def test_degenerate_range_rejected(self):
        with pytest.raises(DomainError):
            GridSpec(CUBOID, (4, 4, 4), ((0, 0), (0, 1), (0, 1)))

    def test_label_set_requires_free_first(self):
        with pytest.raises(DomainError):
            LabelSet(("road", "free"))
