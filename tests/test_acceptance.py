"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from cylocc.formats import (
    FormatError,
    decode_point_cloud,
    decode_raster,
    decode_voxel_grid,
    encode_point_cloud,
    encode_raster,
    encode_voxel_grid,
)
from cylocc.geom import ErpImage, LabeledPointCloud, RigidTransform, erp_depth_to_point_cloud, surround_rig
from cylocc.grid import (
    CUBOID,
    GridSpec,
    VoxelGrid,
    default_cylindrical_spec,
    default_label_set,
    voxelize_semantic,
)
from cylocc.lift import FeatureImage, align_history, build_hit_set, color_voxels, fuse_temporal
from cylocc.losses import class_weights, dice_macro, scal_loss, scal_loss_grad, weighted_ce, weighted_ce_grad
from cylocc.metrics import Rays, cast_rays, default_ray_fan, ray_iou
from cylocc.sketch import CandidateMask, DilationSchedule, dilate_radial
from cylocc.synth import (
    Box,
    HalfSpace,
    Scene,
    Sphere,
    VerticalCylinder,
    analytic_voxel_gt,
    render_erp_depth,
)

from oracles import (
    REPRESENTATION_SCENE,
    all_centers,
    central_diff,
    default_cuboid_spec,
    fan_point_cloud,
    feature_rows,
    lidar_ring_origins,
    march_fixed_step,
    within_range,
    zero_grid,
)


def report(n, name, detail=""):
    print(f"\nACCEPTANCE {n} {name}: PASS {detail}")


def five_scenes():
    scenes = []
    for i in range(5):
        ang = 2 * math.pi * i / 5
        cx, cy = 6 * math.cos(ang), 6 * math.sin(ang)
        scenes.append(
            Scene(
                (
                    Box((cx - 1, cy - 1, -1.3), (cx + 1, cy + 1, 0.3 + 0.2 * i), 7),
                    VerticalCylinder((-cy * 1.5, cx * 1.5), 0.3, -1.3, 1.9, 9),
                    Sphere((cy, -cx, 0.1), 0.6 + 0.1 * i, 6),
                    HalfSpace(-1.3, 1),
                )
            )
        )
    return scenes


class TestAcceptance:
    def test_01_metric_self_identity(self):
        t0 = time.perf_counter()
        spec = default_cylindrical_spec()
        fan = default_ray_fan()
        for scene in five_scenes():
            gt = analytic_voxel_gt(scene, spec, 1)
            rep = ray_iou(gt, gt, fan, thresholds=(1.0, 2.0, 4.0))
            assert rep.ray_iou == 1.0
            for counts in rep.counts:
                assert not counts.fp.any() and not counts.fn.any()
                assert counts.tp.sum() > 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        report(1, "metric self-identity", f"(5 scenes, 512x32 rays, {elapsed:.1f} s)")

    def test_02_ray_caster_exactness(self):
        # random rays: lidar-like fan (axis origins, near-horizontal
        # elevations); see the decisions ledger for why steeper fans exceed
        # the 0.01 m marcher's documented thin-cell blind-spot budget
        t0 = time.perf_counter()
        rng = np.random.RandomState(0)
        n = 10000

        def lidar_rays():
            az = rng.uniform(-math.pi, math.pi, n)
            el = rng.uniform(-0.05, 0.05, n)
            z0 = rng.uniform(-0.4, 1.2, n)
            o = np.stack([np.zeros(n), np.zeros(n), z0], axis=1)
            d = np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1)
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            return Rays(o, d)

        results = {}
        for name, spec, free in (
            ("cylindrical", default_cylindrical_spec(), lambda occ: occ.__setitem__(np.s_[:5], False)),
            (
                "cuboid",
                GridSpec(CUBOID, (24, 24, 16), ((-25.6, 25.6), (-25.6, 25.6), (-2.8, 3.6))),
                lambda occ: occ.__setitem__(np.s_[10:14, 10:14, :], False),
            ),
        ):
            g = zero_grid(spec, "label")
            occ = rng.rand(*spec.dims) < 0.03
            free(occ)
            g.data[occ] = rng.randint(1, 12, size=int(occ.sum()))
            rays = lidar_rays()
            rays, a = within_range(rays, cast_rays(rays, g), 30.0)
            b = march_fixed_step(rays, g, 30.0, step=0.01)
            agree = a.voxel == b.voxel
            rate = agree.mean()
            assert rate >= 0.999, f"{name}: voxel agreement {rate:.4f}"
            both = agree & a.hit
            dd = np.abs(a.distance[both] - b.distance[both])
            assert dd.max(initial=0.0) <= 0.02
            results[name] = (rate, dd.max(initial=0.0))
        elapsed = time.perf_counter() - t0
        report(
            2,
            "ray-caster exactness",
            f"(agreement cyl={results['cylindrical'][0]:.4f} cub={results['cuboid'][0]:.4f}, {elapsed:.1f} s)",
        )

    def test_03_gt_pipeline_fidelity(self, street_scene):
        spec = default_cylindrical_spec()
        cloud = fan_point_cloud(street_scene, lidar_ring_origins(count=8, heights=(0.6, 1.6)), 1024, 128, (-1.2, 0.25))
        grid = voxelize_semantic(cloud, spec, default_label_set())
        gt = analytic_voxel_gt(street_scene, spec, 3)
        flat = spec.point_to_flat(cloud.points)
        counts = np.bincount(flat[flat >= 0], minlength=spec.num_voxels).reshape(spec.dims)
        touched = counts >= 10
        agreement = (grid.data[touched] == gt.data[touched]).mean()
        assert agreement >= 0.99
        report(3, "gt pipeline fidelity", f"({int(touched.sum())} voxels with >=10 pts, agreement {agreement:.4f})")

    def test_04_indexing_bijection(self):
        t0 = time.perf_counter()
        for spec in (default_cylindrical_spec(), default_cuboid_spec()):
            centers = all_centers(spec)
            np.testing.assert_array_equal(spec.point_to_flat(centers), np.arange(spec.num_voxels))
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report(4, "indexing bijection", f"(409600 + 64^3 indices, {elapsed:.2f} s)")

    def test_05_temporal_fusion_algebra(self):
        spec = default_cylindrical_spec()
        rng = np.random.RandomState(5)
        grid = feature_rows(spec, rng.rand(*spec.dims, 4).astype(np.float32))
        pose = RigidTransform.identity()
        for n in (1, 2, 3):
            aligned = [align_history(grid, pose, pose) for _ in range(n)]
            fused = fuse_temporal(grid, aligned)
            assert np.max(np.abs(fused.dense() - grid.dense())) <= 1e-6
        # one-bin z shift equals an index shift exactly on interior voxels
        t_curr = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.4]))
        shifted = align_history(grid, RigidTransform.identity(), t_curr)
        np.testing.assert_array_equal(shifted.dense()[:, :, :-1], grid.dense()[:, :, 1:])
        report(5, "temporal fusion algebra")

    def test_06_coloring_determinism(self):
        spec = default_cylindrical_spec()
        rig = surround_rig()
        rng = np.random.RandomState(6)
        occ = np.zeros(spec.dims, dtype=np.uint8)
        sel = rng.rand(*spec.dims) < 0.002
        occ[sel] = 1
        mask = CandidateMask(VoxelGrid(spec, "occupancy", occ))
        hits = build_hit_set(mask, rig)
        assert int((~hits.unhit).sum()) > 100
        for k in (0.5, -1.75, 0.123):
            feats = [FeatureImage(cam.name, np.full((20, 20, 3), k, dtype=np.float32)) for cam in rig]
            colored = color_voxels(hits, feats)
            values = colored.dense().reshape(-1, 3)[hits.voxels[~hits.unhit]]
            assert np.all(values == np.float32(k))
        feats = [FeatureImage(cam.name, rng.rand(20, 20, 3).astype(np.float32)) for cam in rig]
        base = color_voxels(build_hit_set(mask, rig), feats)
        for perm in (rig[::-1], rig[3:] + rig[:3]):
            again = color_voxels(build_hit_set(mask, perm), feats)
            np.testing.assert_array_equal(again.dense(), base.dense())
        report(6, "coloring determinism", f"({int((~hits.unhit).sum())} hit voxels, 6 cameras)")

    def test_07_dilation_oracle(self):
        spec = default_cylindrical_spec()
        rng = np.random.RandomState(7)
        schedules = [
            DilationSchedule(((8.5, 0), (17.0, 1), (25.6, 2))),
            DilationSchedule(((25.6, 0),)),
            DilationSchedule(((25.6, 2),)),
            DilationSchedule(((5.0, 1), (25.6, 3))),
            DilationSchedule(((10.0, 0), (20.0, 2), (25.6, 4))),
        ]
        dr = 25.6 / 128
        centers = (np.arange(128) + 0.5) * dr
        checked = 0
        for schedule in schedules:
            windows = schedule.window_at(centers)
            for _ in range(20):
                occ = (rng.rand(*spec.dims) < 0.002).astype(np.uint8)
                mask = CandidateMask(VoxelGrid(spec, "occupancy", occ))
                out = dilate_radial(mask, schedule)
                # brute-force union of per-seed radial neighborhoods
                expect = mask.occupied.copy()
                for i_r, i_t, i_z in np.argwhere(mask.occupied):
                    w = int(windows[i_r])
                    expect[max(0, i_r - w) : min(128, i_r + w + 1), i_t, i_z] = True
                np.testing.assert_array_equal(out.occupied, expect)
                assert np.all(out.occupied >= mask.occupied)
                checked += 1
        # the window-2 figure case: seed at i_r spreads to i_r-2 .. i_r+2
        occ = np.zeros(spec.dims, dtype=np.uint8)
        occ[100, 7, 3] = 1
        out = dilate_radial(
            CandidateMask(VoxelGrid(spec, "occupancy", occ)), DilationSchedule(((25.6, 2),))
        )
        np.testing.assert_array_equal(sorted(i[0] for i in np.argwhere(out.occupied)), [98, 99, 100, 101, 102])
        report(7, "dilation oracle", f"({checked} mask x schedule cases)")

    def test_08_loss_gradients_and_units(self):
        spec = GridSpec(CUBOID, (4, 5, 2), ((0, 4), (0, 5), (0, 2)))
        rng = np.random.RandomState(8)
        w = class_weights(np.full(4, 0.25))

        worst = 0.0
        for _ in range(10):
            y = rng.randint(0, 4, spec.dims).astype(np.uint8)
            gt = VoxelGrid(spec, "label", y)
            p = rng.rand(*spec.dims, 4) + 0.05
            p /= p.sum(axis=-1, keepdims=True)
            for loss, grad in (
                (lambda q: weighted_ce(q, gt, w), lambda q: weighted_ce_grad(q, gt, w)),
                (lambda q: scal_loss(q, gt), lambda q: scal_loss_grad(q, gt)),
            ):
                a = grad(p)
                n = central_diff(loss, p)
                rel = np.max(np.abs(a - n) / np.maximum(np.abs(n), 1e-6))
                worst = max(worst, rel)
                assert rel < 1e-5
        # unit cases: dice 1/3 and the inverse-log weight 1/ln(1.52)
        s2 = GridSpec(CUBOID, (3, 1, 1), ((0, 3), (0, 1), (0, 1)))
        mk = lambda v: VoxelGrid(s2, "label", np.asarray(v, dtype=np.uint8).reshape(3, 1, 1))
        assert dice_macro(mk([3, 3, 0]), mk([3, 0, 0]), 4) == pytest.approx(1.0 / 3.0, abs=1e-9)
        wv = class_weights(np.array([0.5, 0.5]), 1.02)[0]
        assert wv == pytest.approx(1.0 / math.log(1.52), abs=1e-9)
        assert wv == pytest.approx(2.3882859264476830274, abs=1e-9)
        report(8, "loss gradients", f"(worst relative gradient error {worst:.2e})")

    def test_09_representation_experiment(self):
        t0 = time.perf_counter()
        scene = REPRESENTATION_SCENE
        cyl = default_cylindrical_spec()
        cub = GridSpec(CUBOID, (160, 160, 16), ((-25.6, 25.6), (-25.6, 25.6), (-2.8, 3.6)))
        assert cyl.num_voxels == cub.num_voxels  # equal voxel budget

        depth, sem = render_erp_depth(scene, 1600, 800)
        cloud = erp_depth_to_point_cloud(depth, sem)
        labels = default_label_set()
        rng = np.random.RandomState(9)
        fan = default_ray_fan()
        near = {}
        for name, spec in (("cylindrical", cyl), ("cuboid", cub)):
            pred = voxelize_semantic(cloud, spec, labels)
            gt = analytic_voxel_gt(scene, spec, 3)
            centers = all_centers(spec)
            rr = np.hypot(centers[:, 0], centers[:, 1]).reshape(spec.dims)
            flip = (pred.data != 0) & (rr > 17.0) & (rng.rand(*spec.dims) < 0.3)
            pred.data[flip] = rng.randint(1, 12, size=int(flip.sum())).astype(np.uint8)
            rep = ray_iou(pred, gt, fan, thresholds=(0.25, 0.5, 1.0), bands=[(0.0, 8.5)])
            near[name] = rep.bands[(0.0, 8.5)].ray_iou
        assert near["cylindrical"] > near["cuboid"]
        elapsed = time.perf_counter() - t0
        report(
            9,
            "representation experiment",
            f"(near-band RayIoU cyl={near['cylindrical']:.4f} > cub={near['cuboid']:.4f}, {elapsed:.1f} s)",
        )

    def test_10_format_robustness(self):
        rng = np.random.RandomState(10)
        decoders = {
            "OVOX": decode_voxel_grid,
            "OPCD": decode_point_cloud,
            "ODPT": decode_raster,
        }
        for magic, decoder in decoders.items():
            crashes = 0
            for i in range(10000):
                if i % 3 == 0:
                    blob = rng.bytes(int(rng.randint(0, 64)))
                else:
                    blob = magic.encode() + rng.bytes(int(rng.randint(0, 60)))
                try:
                    decoder(blob)
                except FormatError:
                    pass
                except Exception:
                    crashes += 1
            assert crashes == 0
        # bit-exact round trips for all three codecs
        spec = default_cylindrical_spec()
        grid = VoxelGrid(spec, "label", rng.randint(0, 12, spec.dims).astype(np.uint8))
        assert encode_voxel_grid(decode_voxel_grid(encode_voxel_grid(grid))) == encode_voxel_grid(grid)
        cloud = LabeledPointCloud(
            (rng.rand(400, 3) * 20).astype(np.float32).astype(np.float64),
            rng.randint(0, 12, 400).astype(np.uint8),
        )
        blob = encode_point_cloud(cloud)
        back = decode_point_cloud(blob)
        assert encode_point_cloud(back) == blob
        np.testing.assert_array_equal(back.points, cloud.points)
        raster = ErpImage.depth(rng.rand(30, 60).astype(np.float32))
        assert encode_raster(decode_raster(encode_raster(raster))) == encode_raster(raster)
        report(10, "format robustness", "(30000 fuzzed headers, 0 crashes)")
