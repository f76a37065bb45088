"""Lattice tests. Index examples are checked against a pure-Python scalar
re-implementation of the binning formulas; voting against a dict-based
counter."""

import math
from collections import Counter

import numpy as np
import pytest

from cylocc.errors import DomainError, ShapeError
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

from conftest import bin_triple
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
        assert bin_triple(cyl_spec, [1.0, 0.0, 0.0]) == (5, 100, 7)

    def test_outside_radius(self, cyl_spec):
        assert bin_triple(cyl_spec, [30.0, 0.0, 0.0]) == (-1, -1, -1)

    def test_theta_pi_wraps_to_bin_zero(self, cyl_spec):
        assert bin_triple(cyl_spec, [-1.0, 0.0, 0.0]) == (5, 0, 7)

    def test_against_scalar_reimplementation(self, cyl_spec):
        rng = np.random.RandomState(0)
        pts = np.stack(
            [rng.uniform(-30, 30, 3000), rng.uniform(-30, 30, 3000), rng.uniform(-4, 5, 3000)], axis=1
        )
        flat = cyl_spec.point_to_flat(pts)
        for p, got in zip(pts, flat):
            want = scalar_cyl_index(p, cyl_spec)
            assert got == (-1 if want[0] < 0 else np.ravel_multi_index(want, cyl_spec.dims))

    def test_axis_point_uses_atan2_zero(self, cyl_spec):
        assert bin_triple(cyl_spec, [0.0, 0.0, 0.0]) == (0, 100, 7)

    def test_r_max_edge_is_inside(self, cyl_spec):
        assert bin_triple(cyl_spec, [25.6, 0.0, 0.0])[0] == 127

    def test_cuboid_floor_division(self):
        spec = GridSpec(CUBOID, (1, 1, 1), ((0, 1), (0, 1), (0, 1)))
        np.testing.assert_array_equal(spec.point_to_flat([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]]), [0, -1])

    @pytest.mark.parametrize("coord", ["cylindrical", "cuboid"])
    def test_far_points_outside_without_warning(self, coord, cyl_spec):
        # bin fractions past int64 range: the cast is silenced, the rows read -1
        spec = cyl_spec if coord == "cylindrical" else default_cuboid_spec()
        pts = [[1e19, 0.0, 0.0], [0.0, -1e300, 0.5], [0.0, 0.0, 1e19], [1.0, 0.0, 0.0]]
        flat = spec.point_to_flat(pts)
        np.testing.assert_array_equal(flat[:3], -1)
        assert flat[3] >= 0
        cloud = LabeledPointCloud(np.array(pts), np.array([1, 2, 3, 4], dtype=np.uint8))
        grid = voxelize_semantic(cloud, spec, default_label_set())
        assert np.count_nonzero(grid.data) == 1 and grid.data.reshape(-1)[flat[3]] == 4


class TestIndexToCenter:
    def test_known_center(self, cyl_spec):
        c = cyl_spec.index_to_center([np.ravel_multi_index((5, 100, 7), cyl_spec.dims)])[0]
        # r=1.1, theta=dtheta/2, z=0.2, evaluated in closed form
        dt = math.pi / 100
        np.testing.assert_allclose(
            c, [1.1 * math.cos(dt / 2), 1.1 * math.sin(dt / 2), 0.2], atol=1e-12
        )

    def test_unit_cuboid_center(self):
        spec = GridSpec(CUBOID, (1, 1, 1), ((0, 1), (0, 1), (0, 1)))
        np.testing.assert_allclose(spec.index_to_center([0]), [[0.5, 0.5, 0.5]])

    def test_out_of_dims_rejected(self, cyl_spec):
        # num_voxels is the flat form of (128, 0, 0); -1 is the miss sentinel
        for flat in (cyl_spec.num_voxels, -1):
            with pytest.raises(DomainError):
                cyl_spec.index_to_center([flat])

    def test_index_triples_rejected(self, cyl_spec):
        with pytest.raises(ShapeError):
            cyl_spec.index_to_center([[5, 100, 7]])

    @pytest.mark.parametrize("flat", [[1.7], np.array([1.0]), np.array([True, False])],
                             ids=["float-list", "float-array", "bool"])
    def test_non_integer_indices_rejected(self, cyl_spec, flat):
        # casting would truncate 1.7 to voxel 1 and read True as voxel 1
        with pytest.raises(ShapeError, match="integers"):
            cyl_spec.index_to_center(flat)

    def test_exhaustive_bijection_cylindrical(self, cyl_spec):
        centers = cyl_spec.all_centers()
        np.testing.assert_array_equal(cyl_spec.point_to_flat(centers), np.arange(cyl_spec.num_voxels))

    def test_exhaustive_bijection_cuboid(self):
        spec = default_cuboid_spec()
        centers = spec.all_centers()
        np.testing.assert_array_equal(spec.point_to_flat(centers), np.arange(spec.num_voxels))


class TestThetaWrap:
    def test_adjacent_bins_across_seam(self, cyl_spec):
        eps = 1e-7
        hi = bin_triple(cyl_spec, [math.cos(math.pi - eps), math.sin(math.pi - eps), 0.0])
        lo = bin_triple(cyl_spec, [math.cos(-math.pi + eps), math.sin(-math.pi + eps), 0.0])
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
        p = cyl_spec.index_to_center([np.ravel_multi_index((10, 50, 8), cyl_spec.dims)])
        cloud = LabeledPointCloud(np.tile(p, (3, 1)), np.array([3, 7, 3], dtype=np.uint8))
        grid = voxelize_semantic(cloud, cyl_spec, default_label_set())
        assert grid.data[10, 50, 8] == 3

    def test_tie_breaks_to_smaller_id(self, cyl_spec):
        p = cyl_spec.index_to_center([np.ravel_multi_index((10, 50, 8), cyl_spec.dims)])
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
        flat = cyl_spec.point_to_flat(pts)
        kept = 0
        for f, lab in zip(flat, labels):
            if f < 0:
                continue
            kept += 1
            votes.setdefault(np.unravel_index(f, cyl_spec.dims), Counter())[int(lab)] += 1
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
