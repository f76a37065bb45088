"""Sketch and dilation tests; dilation is checked against a brute-force
per-seed neighborhood union."""

import numpy as np
import pytest

from cylocc.errors import DomainError
from cylocc.formats import decode_voxel_grid, encode_voxel_grid
from cylocc.geom import LabeledPointCloud
from cylocc.grid import VoxelGrid
from cylocc.sketch import (
    CandidateMask,
    DilationSchedule,
    default_schedule,
    dilate_radial,
    sketch_from_points,
)

from conftest import bin_triple
from oracles import default_cuboid_spec, fan_point_cloud, lidar_ring_origins


def brute_force_dilate(mask: CandidateMask, schedule: DilationSchedule) -> np.ndarray:
    spec = mask.spec
    d0 = spec.dims[0]
    dr = (spec.ranges[0][1] - spec.ranges[0][0]) / d0
    out = mask.occupied.copy()
    for i_r, i_t, i_z in np.argwhere(mask.occupied):
        center_r = spec.ranges[0][0] + (i_r + 0.5) * dr
        w = int(schedule.window_at(center_r))
        for k in range(-w, w + 1):
            if 0 <= i_r + k < d0:
                out[i_r + k, i_t, i_z] = True
    return out


def random_mask(spec, rng, density=0.01) -> CandidateMask:
    occ = (rng.rand(*spec.dims) < density).astype(np.uint8)
    return CandidateMask(VoxelGrid(spec, "occupancy", occ))


class TestSchedule:
    def test_band_lookup(self):
        s = default_schedule()
        assert s.window_at(0.5) == 0
        assert s.window_at(8.5) == 0  # band ends are inclusive
        assert s.window_at(8.6) == 1
        assert s.window_at(17.1) == 2
        assert s.window_at(25.6) == 2

    def test_decreasing_windows_rejected(self):
        with pytest.raises(DomainError):
            DilationSchedule(((8.5, 2), (17.0, 1), (25.6, 2)))

    def test_unsorted_ends_rejected(self):
        with pytest.raises(DomainError):
            DilationSchedule(((17.0, 0), (8.5, 1)))

    def test_ends_equal_at_f32_rejected(self):
        # 8.5 and 8.5 + 1e-7 round to one f32, so the middle band could never be reached
        with pytest.raises(DomainError):
            DilationSchedule(((8.5, 0), (8.5 + 1e-7, 1), (25.6, 2)))

    def test_nan_inner_end_rejected(self):
        with pytest.raises(DomainError):
            DilationSchedule(((float("nan"), 0), (25.6, 2)))

    def test_mismatched_r_max_rejected(self, cyl_spec):
        s = DilationSchedule(((10.0, 1),))
        mask = random_mask(cyl_spec, np.random.RandomState(0))
        with pytest.raises(DomainError):
            dilate_radial(mask, s)

    def test_decoded_mask_dilates_as_in_memory(self, cyl_spec):
        """OVOX stores the spec's ranges as f32, so a decoded mask carries
        r_max 25.600000381 and bin 42's center 8.500000127 m, just past the
        8.5 m band end that the in-memory center 8.5 m sits on."""
        mask = random_mask(cyl_spec, np.random.RandomState(8), density=0.02)
        assert mask.occupied[42].any()
        decoded = CandidateMask(decode_voxel_grid(encode_voxel_grid(mask.grid)))
        assert decoded.spec.ranges[0][1] != cyl_spec.ranges[0][1]
        expect = dilate_radial(mask, default_schedule())
        np.testing.assert_array_equal(dilate_radial(decoded, default_schedule()).grid.data, expect.grid.data)
        off = DilationSchedule(((8.5, 0), (17.0, 1), (25.601, 2)))  # last end 1 mm past r_max
        for m in (mask, decoded):
            with pytest.raises(DomainError):
                dilate_radial(m, off)

    def test_nan_single_end_rejected_at_construction(self):
        with pytest.raises(DomainError):
            DilationSchedule(((float("nan"), 1),))

    def test_nan_last_end_rejected(self, cyl_spec):
        mask = random_mask(cyl_spec, np.random.RandomState(0))
        with pytest.raises(DomainError):
            dilate_radial(mask, DilationSchedule(((float("nan"), 1),)))


class TestSketch:
    def test_empty_cloud(self, cyl_spec):
        mask = sketch_from_points(LabeledPointCloud.empty(), cyl_spec)
        assert mask.occupied_count == 0

    def test_single_point(self, cyl_spec):
        p = np.array([[3.3, -1.2, 0.7]])
        mask = sketch_from_points(LabeledPointCloud(p, np.array([4], dtype=np.uint8)), cyl_spec)
        assert mask.occupied_count == 1
        assert mask.occupied[bin_triple(cyl_spec, p[0])]

    def test_labels_ignored(self, cyl_spec):
        p = np.tile([[3.3, -1.2, 0.7]], (2, 1))
        a = sketch_from_points(LabeledPointCloud(p, np.array([1, 2], dtype=np.uint8)), cyl_spec)
        b = sketch_from_points(LabeledPointCloud(p, np.array([9, 9], dtype=np.uint8)), cyl_spec)
        np.testing.assert_array_equal(a.grid.data, b.grid.data)

    def test_min_points_threshold_matches_counting_oracle(self, cyl_spec):
        rng = np.random.RandomState(1)
        n = 10000
        pts = np.stack(
            [rng.uniform(-20, 20, n), rng.uniform(-20, 20, n), np.full(n, 0.1)], axis=1
        )
        cloud = LabeledPointCloud(pts, np.ones(n, dtype=np.uint8))
        mask = sketch_from_points(cloud, cyl_spec, min_points=2)
        counts = {}
        for f in cyl_spec.point_to_flat(pts):
            if f >= 0:
                counts[f] = counts.get(f, 0) + 1
        expect = np.zeros(cyl_spec.num_voxels, dtype=bool)
        for f, c in counts.items():
            expect[f] = c >= 2
        np.testing.assert_array_equal(mask.occupied, expect.reshape(cyl_spec.dims))

    def test_cuboid_spec_rejected(self):
        with pytest.raises(DomainError):
            sketch_from_points(LabeledPointCloud.empty(), default_cuboid_spec())


class TestDilation:
    def test_zero_window_is_identity(self, cyl_spec):
        rng = np.random.RandomState(2)
        mask = random_mask(cyl_spec, rng)
        s = DilationSchedule(((25.6, 0),))
        out = dilate_radial(mask, s)
        np.testing.assert_array_equal(out.grid.data, mask.grid.data)

    def test_window_two_spreads_two_bins(self, cyl_spec):
        occ = np.zeros(cyl_spec.dims, dtype=np.uint8)
        occ[10, 40, 5] = 1
        mask = CandidateMask(VoxelGrid(cyl_spec, "occupancy", occ))
        out = dilate_radial(mask, DilationSchedule(((25.6, 2),)))
        hit = np.argwhere(out.occupied)
        np.testing.assert_array_equal(sorted(h[0] for h in hit), [8, 9, 10, 11, 12])
        assert all((h[1], h[2]) == (40, 5) for h in hit)

    def test_matches_brute_force_union(self, cyl_spec):
        rng = np.random.RandomState(3)
        schedules = [
            default_schedule(),
            DilationSchedule(((25.6, 1),)),
            DilationSchedule(((5.0, 0), (25.6, 3))),
            DilationSchedule(((12.8, 2), (25.6, 2))),
            DilationSchedule(((2.0, 0), (20.0, 1), (25.6, 4))),
        ]
        for schedule in schedules:
            for _ in range(4):
                mask = random_mask(cyl_spec, rng, density=0.003)
                out = dilate_radial(mask, schedule)
                np.testing.assert_array_equal(out.occupied, brute_force_dilate(mask, schedule))

    def test_monotone_superset(self, cyl_spec):
        rng = np.random.RandomState(4)
        for _ in range(5):
            mask = random_mask(cyl_spec, rng, density=0.01)
            out = dilate_radial(mask, default_schedule())
            assert np.all(out.occupied >= mask.occupied)
            assert out.occupied_count >= mask.occupied_count

    def test_double_dilation_equals_doubled_window_single_band(self, cyl_spec):
        rng = np.random.RandomState(5)
        mask = random_mask(cyl_spec, rng, density=0.005)
        once_w2 = dilate_radial(mask, DilationSchedule(((25.6, 2),)))
        twice_w1 = dilate_radial(dilate_radial(mask, DilationSchedule(((25.6, 1),))), DilationSchedule(((25.6, 1),)))
        np.testing.assert_array_equal(once_w2.occupied, twice_w1.occupied)

    def test_zero_window_band_gains_nothing_from_own_seeds(self, cyl_spec):
        # seeds only in the window-0 band: no spread at all
        occ = np.zeros(cyl_spec.dims, dtype=np.uint8)
        occ[10:20, 50, 3] = 1  # r in (2.0, 4.0), inside the 0-window band
        mask = CandidateMask(VoxelGrid(cyl_spec, "occupancy", occ))
        out = dilate_radial(mask, default_schedule())
        np.testing.assert_array_equal(out.occupied, mask.occupied)

    def test_cross_band_bleed_is_allowed(self, cyl_spec):
        # a seed just beyond the band edge spreads back into the 0-window band
        occ = np.zeros(cyl_spec.dims, dtype=np.uint8)
        seed_r = 43  # center 8.7 m -> window 1 band
        occ[seed_r, 50, 3] = 1
        mask = CandidateMask(VoxelGrid(cyl_spec, "occupancy", occ))
        out = dilate_radial(mask, default_schedule())
        assert out.occupied[seed_r - 1, 50, 3]  # center 8.5 m, window-0 band
        assert out.occupied[seed_r + 1, 50, 3]

    def test_sparsity_stays_below_half(self, cyl_spec, street_scene):
        cloud = fan_point_cloud(street_scene, lidar_ring_origins(count=4, heights=(1.0,)), 256, 32, (-0.9, 0.3))
        mask = dilate_radial(sketch_from_points(cloud, cyl_spec), default_schedule())
        assert mask.occupied_fraction < 0.5
