"""Sketch and dilation tests; dilation is checked against a brute-force
per-seed neighborhood union, and the cloud-free depth sketch against
sketch_from_points of the lifted cloud, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylocc.errors import DomainError
from cylocc.formats import decode_voxel_grid, encode_voxel_grid
from cylocc.geom import ErpImage, LabeledPointCloud, _erp_trig
from cylocc.grid import _EDGE_GUARD, CYLINDRICAL, GridSpec, VoxelGrid
from cylocc.synth import render_erp_depth
from cylocc.sketch import (
    CandidateMask,
    DilationSchedule,
    default_schedule,
    dilate_radial,
    sketch_from_depth,
    sketch_from_points,
)

from conftest import bin_triple
from oracles import (DEMO07_SCENE, default_cuboid_spec, fan_point_cloud, lidar_ring_origins, sketch_of_cloud,
                     zero_grid)


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

    @pytest.mark.parametrize("window", [1.7, 1.0, True, np.float32(2.0)])
    def test_non_integral_window_rejected(self, window):
        # int() would truncate 1.7 to 1 and take True as 1
        with pytest.raises(DomainError, match="integers"):
            DilationSchedule(((8.5, 0), (25.6, window)))

    def test_numpy_integer_windows_accepted(self):
        assert DilationSchedule(((8.5, np.int64(0)), (25.6, np.uint8(2)))).bands == ((8.5, 0), (25.6, 2))

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

    @pytest.mark.parametrize("min_points", [0, -1, 1.5, 2.0, True])
    def test_min_points_not_a_positive_integer_rejected(self, cyl_spec, min_points):
        with pytest.raises(DomainError):
            sketch_from_points(LabeledPointCloud.empty(), cyl_spec, min_points)


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


@pytest.fixture(scope="module")
def depth_rasters(street_scene):
    """Depth of the street scene at 2000 x 1000 and of the demo-07 scene at demo 07's 1600 x 800."""
    return {"street": render_erp_depth(street_scene, 2000, 1000)[0],
            "demo07": render_erp_depth(DEMO07_SCENE, 1600, 800)[0]}


def assert_same_mask(got: CandidateMask, want: CandidateMask):
    assert got.spec == want.spec and got.grid.data.dtype == want.grid.data.dtype == np.uint8
    np.testing.assert_array_equal(got.grid.data, want.grid.data)


def fallback_rows(monkeypatch) -> list:
    """Record how many points each point_to_flat call bins: sketch_from_depth calls it on its edge pixels only."""
    seen = []
    real = GridSpec.point_to_flat
    monkeypatch.setattr(GridSpec, "point_to_flat", lambda self, p: seen.append(len(p)) or real(self, p))
    return seen


@st.composite
def depth_cases(draw):
    """A depth raster, a cylindrical spec and the sketch's min_points and stride. One drawn
    lattice pixel's cos phi * depth lies on an r bin edge or range end, or where its guarded
    fraction is a whole number, another's sin phi * depth likewise on a z one, and the azimuth
    bins may put every column centre on an edge (D1 = 2W)."""
    h, w, stride = draw(st.integers(1, 24)), draw(st.integers(1, 48)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.uniform(0.05, 30.0, (h, w)).astype(np.float32)
    data[rng.random((h, w)) < 0.05] = 9.9e5
    data[rng.random((h, w)) < 0.2] = 0.0
    lattice = data[::stride, ::stride]  # a view: anchors written to it land in data
    _, _, cos_phi, sin_phi = _erp_trig(w, h, stride)
    edges = []
    for trig, bins in ((cos_phi, draw(st.integers(1, 12))), (sin_phi, draw(st.integers(1, 6)))):
        v, u = draw(st.integers(0, lattice.shape[0] - 1)), draw(st.integers(0, lattice.shape[1] - 1))
        row = draw(st.booleans())  # the whole lattice row at the anchor's depth: one edge value per pixel of it
        lattice[v, slice(None) if row else u] = depth = np.float32(draw(st.floats(0.1, 30.0)))
        at = trig[v] * np.float64(depth)  # the lift's own product
        k, delta = draw(st.integers(0, bins)), draw(st.floats(0.05, 4.0))
        guard = draw(st.sampled_from([0.0, _EDGE_GUARD]))  # on the edge, or where the guarded fraction is k
        lo = at - (k - guard) * delta
        if trig is cos_phi and lo < 0:  # r starts at 0
            lo, delta = 0.0, at / (k - guard)
        edges.append((lo, lo + bins * delta, bins))
    (r_lo, r_hi, d0), (z_lo, z_hi, d2) = edges
    d1 = draw(st.one_of(st.integers(1, 24), st.just(2 * w)))
    spec = GridSpec(CYLINDRICAL, (d0, d1, d2), ((r_lo, r_hi), (-math.pi, math.pi), (z_lo, z_hi)))
    return ErpImage.depth(data), spec, draw(st.integers(1, 3)), stride


class TestSketchFromDepth:
    """sketch_from_depth bins the lift's row blocks with no cloud; sketch_from_points of the
    lifted cloud is its judge, and the masks agree bit for bit."""

    @pytest.mark.parametrize("min_points", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    @pytest.mark.parametrize("which", ["street", "demo07"])
    def test_scene_rasters(self, depth_rasters, cyl_spec, which, stride, min_points):
        depth = depth_rasters[which]
        want = sketch_of_cloud(depth, cyl_spec, min_points, stride)
        assert want.occupied_count > 0
        assert_same_mask(sketch_from_depth(depth, cyl_spec, min_points, stride), want)

    def test_decoded_spec(self, depth_rasters, cyl_spec):
        # OVOX stores ranges as f32: r and z come back rounded, theta as exactly [-pi, pi)
        spec = decode_voxel_grid(encode_voxel_grid(zero_grid(cyl_spec, "label"))).spec
        assert spec.ranges[1] == (-math.pi, math.pi) and spec != cyl_spec
        depth = depth_rasters["demo07"]
        assert_same_mask(sketch_from_depth(depth, spec), sketch_of_cloud(depth, spec))

    def test_fallback_share_on_default_raster(self, depth_rasters, cyl_spec, monkeypatch):
        depth = depth_rasters["street"]
        seen = fallback_rows(monkeypatch)
        sketch_from_depth(depth, cyl_spec)
        assert sum(seen) < 0.01 * np.count_nonzero(depth.data)

    def test_edges_fall_back(self, monkeypatch):
        # every column centre on an azimuth edge (D1 = 2W), and r and z range ends on the one depth
        w, h, depth = 12, 6, np.float32(7.3)
        _, _, cos_phi, sin_phi = _erp_trig(w, h)
        r_end, z_end = cos_phi[1] * np.float64(depth), sin_phi[1] * np.float64(depth)
        data = np.full((h, w), depth, dtype=np.float32)
        for r, z in (((0.0, r_end), (z_end - 2.0, z_end)), ((r_end, r_end + 3.0), (z_end, z_end + 1.0))):
            spec = GridSpec(CYLINDRICAL, (4, 2 * w, 2), (r, (-math.pi, math.pi), z))
            seen = fallback_rows(monkeypatch)
            got = sketch_from_depth(ErpImage.depth(data), spec)
            monkeypatch.undo()
            assert sum(seen) == data.size
            assert got.occupied_count > 0
            assert_same_mask(got, sketch_of_cloud(ErpImage.depth(data), spec))

    @pytest.mark.parametrize("w", [11, 29, 35])
    def test_column_edges(self, w, monkeypatch):
        # D1 = 2W with the azimuth range shifted by the edge guard: each column's guarded fraction
        # is an integer, and at these widths some pixels' atan2 bins on the other side of it
        rng = np.random.default_rng(w)
        depth = ErpImage.depth(rng.uniform(0.01, 1000.0, (8, w)).astype(np.float32))
        shift = _EDGE_GUARD * 2.0 * math.pi / (2 * w)
        spec = GridSpec(CYLINDRICAL, (4, 2 * w, 2), ((0.0, 10.0), (-math.pi + shift, math.pi + shift), (-1.0, 1.0)))
        seen = fallback_rows(monkeypatch)
        got = sketch_from_depth(depth, spec)
        monkeypatch.undo()
        assert sum(seen) == depth.data.size
        assert_same_mask(got, sketch_of_cloud(depth, spec))

    @settings(max_examples=150, deadline=None)
    @given(case=depth_cases())
    def test_drawn_rasters(self, case):
        depth, spec, min_points, stride = case
        want = sketch_of_cloud(depth, spec, min_points, stride)
        assert_same_mask(sketch_from_depth(depth, spec, min_points, stride), want)

    def test_empty_raster(self, cyl_spec):
        assert sketch_from_depth(ErpImage.depth(np.zeros((4, 8), dtype=np.float32)), cyl_spec).occupied_count == 0

    @pytest.mark.parametrize("min_points", [0, -1, 1.5, 2.0, True])
    def test_min_points_not_a_positive_integer_rejected(self, cyl_spec, min_points):
        with pytest.raises(DomainError):
            sketch_from_depth(ErpImage.depth(np.ones((4, 8), dtype=np.float32)), cyl_spec, min_points)

    @pytest.mark.parametrize("stride", [0, -1, 1.5, True])
    def test_stride_not_a_positive_integer_rejected(self, cyl_spec, stride):
        with pytest.raises(DomainError):
            sketch_from_depth(ErpImage.depth(np.ones((4, 8), dtype=np.float32)), cyl_spec, 1, stride)

    def test_cuboid_spec_and_non_depth_raster_rejected(self, cyl_spec):
        with pytest.raises(DomainError):
            sketch_from_depth(ErpImage.depth(np.ones((4, 8), dtype=np.float32)), default_cuboid_spec())
        with pytest.raises(DomainError):
            sketch_from_depth(ErpImage.semantic(np.ones((4, 8), dtype=np.float32)), cyl_spec)
