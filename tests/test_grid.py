"""Lattice tests. Index examples are checked against a pure-Python scalar
re-implementation of the binning formulas; voting against a dict-based
counter."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylocc import grid
from cylocc.errors import DomainError, ShapeError
from cylocc.formats import decode_voxel_grid, encode_voxel_grid, spec_from_json
from cylocc.geom import LabeledPointCloud, erp_depth_to_point_cloud
from cylocc.grid import (
    CUBOID,
    CYLINDRICAL,
    FeatureRows,
    GridSpec,
    LabelSet,
    VoxelGrid,
    class_frequencies,
    default_label_set,
    voxelize_semantic,
)
from cylocc.synth import render_erp_depth

from conftest import bin_triple
from oracles import (all_centers, default_cuboid_spec, feature_rows, point_to_flat_unblocked, voxelize_dense_vote,
                     zero_grid)


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


def mixed_points(n: int, rng) -> np.ndarray:
    """n points cycling through in-range, out-of-range, r = 0 and theta = pi
    rows, in a shuffled order."""
    kinds = [
        np.stack([rng.uniform(-25, 25, n), rng.uniform(-25, 25, n), rng.uniform(-2.8, 3.6, n)], axis=1),
        np.stack([rng.uniform(-60, 60, n), rng.uniform(-60, 60, n), rng.uniform(-9, 9, n)], axis=1),
        np.stack([np.zeros(n), np.zeros(n), rng.uniform(-3, 4, n)], axis=1),  # r = 0
        np.stack([-rng.uniform(0, 30, n), np.zeros(n), rng.uniform(-3, 4, n)], axis=1),  # theta = pi
        np.tile([[1e19, 0.0, 0.0], [0.0, 0.0, -1e300]], (n, 1))[:n],  # past int64 bins
    ]
    pts = np.stack(kinds, axis=1).reshape(-1, 3)[:n]
    return pts[rng.permutation(n)]


class TestPointToFlatBlocks:
    """point_to_flat bins in fixed row blocks; the oracle bins all N points
    in one pass. They agree on every row at and around the block edges."""

    @pytest.mark.parametrize("coord", ["cylindrical", "cuboid"])
    @pytest.mark.parametrize("offset", ["0", "1", "B-1", "B", "B+1", "2B+1"])
    def test_matches_unblocked(self, coord, offset, cyl_spec):
        b = grid._BIN_BLOCK
        n = {"0": 0, "1": 1, "B-1": b - 1, "B": b, "B+1": b + 1, "2B+1": 2 * b + 1}[offset]
        spec = cyl_spec if coord == "cylindrical" else default_cuboid_spec()
        pts = mixed_points(n, np.random.RandomState(n))
        got = spec.point_to_flat(pts)
        assert got.dtype == np.int64 and got.shape == (n,)
        np.testing.assert_array_equal(got, point_to_flat_unblocked(spec, pts))
        if n > 5 and coord == "cylindrical":
            assert (got == -1).any() and (got >= 0).any()


def small_cyl() -> GridSpec:
    """A fresh 12 x 16 x 6 cylindrical spec; every call builds a new object."""
    return GridSpec(CYLINDRICAL, (12, 16, 6), ((0.0, 6.0), (-math.pi, math.pi), (-1.0, 1.4)))


class TestAllCenters:
    @pytest.mark.parametrize("make", [small_cyl, default_cuboid_spec], ids=["cylindrical", "cuboid"])
    def test_equal_specs_give_equal_bits(self, make):
        a, b = make(), make()
        assert a == b and a is not b
        np.testing.assert_array_equal(all_centers(a).view(np.uint64), all_centers(b).view(np.uint64))
        fresh = a.index_to_center(np.arange(a.num_voxels))
        np.testing.assert_array_equal(all_centers(a).view(np.uint64), fresh.view(np.uint64))


class TestSpecCounts:
    """Bin counts are Python or numpy integers: int() would truncate 2.7 to 2 and take True as 1."""

    @pytest.mark.parametrize("dims", [(2.7, 3, 4), (2.0, 3, 4), (True, 3, 4), (2, np.bool_(True), 4),
                                      (2, 3, np.float64(4.0))])
    def test_non_integral_counts_rejected(self, dims):
        with pytest.raises(DomainError, match="integers"):
            GridSpec(CUBOID, dims, ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))

    def test_numpy_integer_counts_accepted(self):
        spec = GridSpec(CUBOID, (np.int64(2), np.uint8(3), 4), ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
        assert spec.dims == (2, 3, 4) and all(type(d) is int for d in spec.dims)


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
        centers = all_centers(cyl_spec)
        np.testing.assert_array_equal(cyl_spec.point_to_flat(centers), np.arange(cyl_spec.num_voxels))

    def test_exhaustive_bijection_cuboid(self):
        spec = default_cuboid_spec()
        centers = all_centers(spec)
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


def assert_same_labels(got: VoxelGrid, want: VoxelGrid):
    assert got.spec == want.spec and got.data.dtype == want.data.dtype == np.uint8
    np.testing.assert_array_equal(got.data, want.data)


SMALL_SPECS = {
    "cylindrical": GridSpec(CYLINDRICAL, (5, 8, 3), ((0.5, 10.0), (-math.pi, math.pi), (-1.0, 2.0))),
    "cuboid": GridSpec(CUBOID, (6, 5, 3), ((-10.0, 10.0), (-8.0, 8.0), (-1.0, 2.0))),
}


class TestKeyVote:
    """voxelize_semantic votes over the sorted unique (voxel, class) keys; the dense
    (voxels, classes) table that majority_vote argmaxes is its judge, bit for bit."""

    @pytest.mark.parametrize("lattice", ["cylindrical", "cuboid"])
    def test_street_cloud(self, street_scene, cyl_spec, lattice):
        depth, sem = render_erp_depth(street_scene, 1000, 500)
        cloud = erp_depth_to_point_cloud(depth, sem)
        spec = cyl_spec if lattice == "cylindrical" else default_cuboid_spec()
        got = voxelize_semantic(cloud, spec, default_label_set())
        assert np.count_nonzero(got.data) > 1000
        assert_same_labels(got, voxelize_dense_vote(cloud, spec, default_label_set()))

    @settings(max_examples=80, deadline=None)
    @given(
        lattice=st.sampled_from(sorted(SMALL_SPECS)),
        votes=st.lists(st.tuples(st.integers(0, 89), st.lists(st.integers(0, 3), min_size=4, max_size=4)),
                       max_size=30),
        outside=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_ties(self, lattice, votes, outside, seed):
        # up to 3 votes for each of 4 classes per drawn voxel: equal counts, zero counts and
        # class 0 winning are all common; a voxel drawn twice adds both vote sets
        spec = SMALL_SPECS[lattice]
        flat = [v for v, counts in votes for c, n in enumerate(counts) for _ in range(n)]
        labels = [c for _, counts in votes for c, n in enumerate(counts) for _ in range(n)]
        pts = np.concatenate([spec.index_to_center(np.array(flat, dtype=np.int64)).reshape(-1, 3),
                              np.tile([[50.0, 0.0, 0.0]], (outside, 1))])
        labels = np.array(labels + [1] * outside, dtype=np.uint8)
        order = np.random.default_rng(seed).permutation(len(pts))
        cloud = LabeledPointCloud(pts[order], labels[order])
        labelset = LabelSet(("free", "a", "b", "c"))
        assert_same_labels(voxelize_semantic(cloud, spec, labelset), voxelize_dense_vote(cloud, spec, labelset))


class TestFrequencies:
    def test_all_free(self, cyl_spec):
        grid = zero_grid(cyl_spec, "label")
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
            feature_rows(spec, data)

    def test_zero_channel_feature_rejected(self):
        # the OVOX decoder refuses channel count 0, and alignment cannot reshape it
        spec = GridSpec(CUBOID, (2, 2, 2), ((0, 1), (0, 1), (0, 1)))
        with pytest.raises(ShapeError):
            FeatureRows(spec, np.arange(8), np.zeros((8, 0), dtype=np.float32))

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 2, 2, 3)])
    def test_feature_voxel_grid_refused(self, shape):
        # FeatureRows is the only feature grid
        spec = GridSpec(CUBOID, (2, 2, 2), ((0, 1), (0, 1), (0, 1)))
        with pytest.raises(DomainError):
            VoxelGrid(spec, "feature", np.zeros(shape, dtype=np.float32))
        assert zero_grid(spec, "label").channels == VoxelGrid.channels == 1


class TestRowSupport:
    """row_support tests rows in fixed blocks and, up to 32 channels, ORs the
    flags of up to eight channels per word; the oracle ORs every channel's bits
    in one pass."""

    @pytest.mark.parametrize("channels", [1, 3, 8, 12, 16, 24, 33])  # 33: past the word OR, any(axis=1)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_bitwise_or_oracle(self, channels, order):
        spec = GridSpec(CUBOID, (5, 7, grid._BIN_BLOCK // 35 + 3), ((0, 1), (0, 1), (0, 1)))  # crosses a block edge
        rng = np.random.RandomState(channels)
        data = np.where(rng.rand(*spec.dims, channels) < 0.05, rng.randn(*spec.dims, channels), 0.0).astype(np.float32)
        data[rng.rand(*spec.dims) < 0.01, rng.randint(channels)] = -0.0  # a set bit on its own
        got = grid.row_support(np.asarray(data.reshape(-1, channels), order=order))
        want = (np.bitwise_or.reduce(data.view(np.uint32), axis=3) != 0).reshape(-1)
        assert got.dtype == bool and got.shape == (spec.num_voxels,)
        np.testing.assert_array_equal(got, want)
        assert 0 < got.sum() < spec.num_voxels

    def test_label_rows(self):
        spec = GridSpec(CUBOID, (2, 2, 3), ((0, 1), (0, 1), (0, 1)))
        labels = np.arange(12, dtype=np.uint8).reshape(2, 2, 3) % 3
        np.testing.assert_array_equal(grid.row_support(labels.reshape(-1, 1)), labels.reshape(-1) != 0)


class TestFeatureRows:
    """FeatureRows: sorted flat indices and their finite float32 rows; every
    other voxel reads +0.0. dense() rebuilds the array the rows came from bit for bit."""

    SPEC = GridSpec(CUBOID, (3, 4, 5), ((0, 1), (0, 1), (0, 1)))

    @pytest.mark.parametrize(
        "voxels",
        [[3, 1, 7], [1, 3, 3], [-1, 2, 5], [2, 5, 60], [0.0, 1.0, 2.0]],
        ids=["unsorted", "duplicate", "negative", "past_the_grid", "float"],
    )
    def test_bad_voxels_rejected(self, voxels):
        with pytest.raises((ShapeError, DomainError)):
            FeatureRows(self.SPEC, np.array(voxels), np.ones((3, 2), dtype=np.float32))

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3,), (3, 2, 1), (3, 0)])
    def test_rows_shape_must_match(self, shape):
        with pytest.raises(ShapeError):
            FeatureRows(self.SPEC, np.array([1, 4, 9]), np.ones(shape, dtype=np.float32))

    def test_voxels_must_be_one_dimensional(self):
        with pytest.raises(ShapeError):
            FeatureRows(self.SPEC, np.array([[1, 4, 9]]), np.ones((3, 2), dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_row_rejected(self, bad):
        rows = np.ones((3, 2), dtype=np.float32)
        rows[2, 1] = bad
        with pytest.raises(DomainError):
            FeatureRows(self.SPEC, np.array([1, 4, 9]), rows)

    def test_empty_rows_accepted(self):
        fr = FeatureRows(self.SPEC, np.zeros(0, dtype=np.int64), np.zeros((0, 4), dtype=np.float32))
        assert fr.channels == 4
        np.testing.assert_array_equal(fr.dense(), np.zeros(self.SPEC.dims + (4,), dtype=np.float32))

    def test_data_is_the_dense_payload(self):
        fr = FeatureRows(self.SPEC, np.array([1, 4, 9]), np.full((3, 2), -0.0, dtype=np.float32))
        np.testing.assert_array_equal(fr.data.view(np.uint32), fr.dense().view(np.uint32))
        assert fr.data.shape == self.SPEC.dims + (2,) and fr.data is not fr.data  # built again on every read

    @pytest.mark.parametrize("listed", ["some", "every"])
    def test_data_is_read_only(self, listed):
        voxels = np.array([1, 4, 9]) if listed == "some" else np.arange(self.SPEC.num_voxels)
        fr = FeatureRows(self.SPEC, voxels, np.ones((len(voxels), 2), dtype=np.float32))
        with pytest.raises(ValueError):
            fr.data[...] = np.inf
        assert np.all(fr.rows == 1.0) and fr.rows.flags.writeable

    @pytest.mark.parametrize("case", ["sparse_with_negative_zero_row", "every_row", "empty"])
    def test_round_trip_bit_for_bit(self, case):
        rng = np.random.RandomState(81)
        data = np.zeros(self.SPEC.dims + (3,), dtype=np.float32)
        if case == "sparse_with_negative_zero_row":
            data[rng.rand(*self.SPEC.dims) < 0.2] = rng.randn(3)
            data[1, 2, 3] = -0.0  # a row holding only -0.0 is a listed row
            data[0, 0, 0, 1] = -0.0
        elif case == "every_row":
            data = rng.randn(*self.SPEC.dims, 3).astype(np.float32)
        fr = feature_rows(self.SPEC, data)
        np.testing.assert_array_equal(fr.voxels, np.flatnonzero(grid.row_support(data.reshape(-1, 3))))
        assert fr.voxels.dtype == np.int64 and fr.rows.dtype == np.float32
        back = fr.dense()
        assert type(back) is np.ndarray and back.dtype == np.float32 and back.shape == self.SPEC.dims + (3,)
        np.testing.assert_array_equal(back.view(np.uint32), data.view(np.uint32))
        if case == "every_row":  # no copy either way
            assert np.shares_memory(fr.rows, data) and np.shares_memory(back, data)
        if case == "empty":
            assert len(fr.voxels) == 0


class TestSpecValidation:
    def test_theta_range_must_be_full_circle(self):
        for theta in ((-1.0, 1.0), (-math.pi - 2e-6, math.pi), (-math.pi, math.pi + 2e-6),
                      (-math.pi + 2e-6, math.pi - 2e-6)):
            with pytest.raises(DomainError):
                GridSpec(CYLINDRICAL, (4, 4, 4), ((0, 10), theta, (0, 1)))

    def test_f32_rounded_theta_accepted(self):
        # within 1e-6 of +-pi a theta range, f32 +-pi among them, is held as the one azimuth lattice
        exact = GridSpec(CYLINDRICAL, (4, 4, 4), ((0, 10), (-math.pi, math.pi), (0, 1)))
        pi32 = float(np.float32(math.pi))
        for lo, hi in ((-pi32, pi32), (-math.pi + 9.99e-7, math.pi - 9.99e-7), (-math.pi - 1e-12, math.pi)):
            spec = GridSpec(CYLINDRICAL, (4, 4, 4), ((0, 10), (lo, hi), (0, 1)))
            assert spec.ranges[1] == (-math.pi, math.pi) and spec == exact

    def test_decoded_spec_keeps_the_azimuth_lattice(self, cyl_spec):
        # OVOX stores theta as f32 +-3.14159274; the decoded spec holds exact +-pi, so both
        # signs of a zero y on the -x axis bin to azimuth 0, as on the in-memory spec (its r
        # bin may differ: r_max comes back f32-rounded)
        spec = decode_voxel_grid(encode_voxel_grid(zero_grid(cyl_spec, "label"))).spec
        assert spec.ranges[1] == (-math.pi, math.pi)
        for y in (0.0, -0.0):
            assert bin_triple(spec, [-5.0, y, 0.5])[1] == bin_triple(cyl_spec, [-5.0, y, 0.5])[1] == 0

    def test_json_theta_to_six_places_is_the_default_spec(self, cyl_spec):
        doc = {"coord_sys": CYLINDRICAL, "dims": [128, 200, 16], "ranges": [[0.0, 25.6], [-3.141593, 3.141593],
                                                                             [-2.8, 3.6]]}
        assert spec_from_json(json.dumps(doc)) == cyl_spec == grid.default_cylindrical_spec()

    def test_degenerate_range_rejected(self):
        with pytest.raises(DomainError):
            GridSpec(CUBOID, (4, 4, 4), ((0, 0), (0, 1), (0, 1)))

    def test_label_set_requires_free_first(self):
        with pytest.raises(DomainError):
            LabelSet(("road", "free"))
