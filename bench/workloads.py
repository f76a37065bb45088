"""The benchmark's workloads: seeded input generators, ops and output checks.

Every workload draws its inputs from the seed it is given; cylocc only ever
sees the generated inputs. An op is one unit of work (a frame, a checkpoint
evaluation, a scene through the CLI). Calls into cylocc go through module
attributes (``lift.align_history``, not a name imported from it) so the
traced run's wrappers see them.

`inspect` turns an op's output into a record, a small dict of integers and
floats, and lists the seed-free invariants the output breaks. It runs outside
the timed window. For seeds with shipped references the record must also
equal the reference of the op's slot (floats within `TOLERANCE`).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np

from cylocc import cli, formats, geom, grid, lift, losses, metrics, sketch, synth
from cylocc.geom import ErpImage, RigidTransform, rot_z
from cylocc.synth import Box, HalfSpace, Scene, Sphere, VerticalCylinder

ERP_SIZE = (2000, 1000)
CHANNELS = 16
FEATURE_SIZE = 160  # feature rasters at 1/4 of the 640 x 640 fisheye images
THRESHOLDS = (1.0, 2.0, 4.0)
BANDS = ((0.0, 8.5), (8.5, 17.0), (17.0, 25.6))
NUM_CLASSES = 12

# relative tolerances for float outputs; integers must match exactly
TOLERANCE = {
    "ray_iou": 1e-9,
    "band_iou": 1e-9,
    "ce": 1e-6,
    "scal": 1e-6,
    "dice": 1e-9,
    "fused_sum": 1e-5,
    "fused_abs": 1e-5,
}

# the scene of demos/07_full_pipeline.py
DEMO07_SCENE = Scene((
    *[Box((x, -0.15, -1.3), (x + 1.2, 0.15, -1.25), 11) for x in (2.0, 5.0, 8.0, 11.0, 14.0)],
    Box((-20.0, 6.0, -1.3), (20.0, 20.0, -1.22), 2),
    Box((4.0, -4.5, -1.3), (6.0, -2.5, 0.3), 7),
    VerticalCylinder((-4.0, 2.0), 0.3, -1.3, 2.3, 9),
    Sphere((-6.0, -5.0, 0.1), 1.0, 6),
    Box((18.0, -10.0, -1.3), (19.0, 10.0, 2.7), 4),
    HalfSpace(-1.3, 1),
))

# the street scene of tests/conftest.py: ground plus three obstacles at 8-11 m
STREET_SCENE = Scene((
    Box((9.0, -0.75, -1.3), (10.5, 0.75, 0.3), 7),
    VerticalCylinder((-6.0, 8.0), 0.25, -1.3, 2.3, 9),
    Sphere((0.0, -10.0, 0.1), 0.7, 6),
    HalfSpace(-1.3, 1),
))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def feature_rasters(rig, seed: int) -> dict[str, np.ndarray]:
    """One seeded (H, W, C) float32 feature raster in [0, 1) per camera."""
    rng = _rng(seed, 7)
    return {cam.name: rng.random((FEATURE_SIZE, FEATURE_SIZE, CHANNELS), dtype=np.float32) for cam in rig}


def ego_step(rng: np.random.Generator, start: RigidTransform) -> RigidTransform:
    """The pose after one seeded frame of forward motion with a small yaw."""
    yaw = rng.uniform(-0.05, 0.05)
    step = RigidTransform(rot_z(yaw), np.array([rng.uniform(0.3, 0.8), rng.uniform(-0.05, 0.05), 0.0]))
    return start.compose(step)


def _weighted_sum(data: np.ndarray) -> float:
    weights = np.arange(1, data.shape[-1] + 1, dtype=np.float64)
    return float(data.reshape(-1, data.shape[-1]).sum(axis=0, dtype=np.float64) @ weights)


def _feature_summary(data: np.ndarray) -> dict:
    return {"fused_sum": _weighted_sum(data), "fused_abs": float(np.abs(data).sum(dtype=np.float64))}


def _feature_problems(data: np.ndarray) -> list[str]:
    # features are drawn from [0, 1); coloring, trilinear alignment and
    # fusion are all convex combinations, so fused values stay in [0, 1]
    if not np.all(np.isfinite(data)):
        return ["fused features hold non-finite values"]
    if data.min() < 0.0 or data.max() > 1.0 + 1e-6:
        return ["fused features leave [0, 1]"]
    return []


def _confusion(report) -> dict:
    out = {"tp": [], "fp": [], "fn": []}
    for rep in [report] + [report.bands[b] for b in sorted(report.bands)]:
        for key in out:
            out[key].append([getattr(c, key).tolist() for c in rep.counts])
    return out


def _confusion_problems(tp, fp, fn) -> list[str]:
    # per report (overall + each band): the rays a grid hits do not depend on
    # the threshold, so tp+fn and tp+fp sums are the same at every threshold
    problems = []
    for t, p, n in zip(tp, fp, fn):
        t, p, n = np.asarray(t), np.asarray(p), np.asarray(n)
        if np.any(t < 0) or np.any(p < 0) or np.any(n < 0):
            problems.append("negative confusion count")
        if len(set((t + n).sum(axis=1).tolist())) != 1 or len(set((t + p).sum(axis=1).tolist())) != 1:
            problems.append("ray totals differ across thresholds")
    return problems


def _unit(value, name) -> list[str]:
    if value is None or not (0.0 <= value <= 1.0):
        return [f"{name} {value!r} outside [0, 1]"]
    return []


class OnlineFrames:
    """Per-frame perception on the demo-07 scene along a seeded trajectory.

    Set-up renders ERP depth at two seeded ego poses and the ego drives back
    and forth between them, so every frame aligns the previous fused grid
    across a real ego motion while set-up renders only two rasters. Frame k
    sees pose k % 2; the history before frame 0 is the colored grid of pose 1.
    """

    name = "online_frames"
    setups = 2  # each set-up renders two 2000 x 1000 rasters (about 12 s)
    reference_slots = 16

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.spec = grid.default_cylindrical_spec()
        self.schedule = sketch.default_schedule()
        self.rig = geom.surround_rig()

    def sizes(self) -> dict:
        return {"scene": "demos/07_full_pipeline.py", "erp": list(ERP_SIZE), "lattice": list(self.spec.dims),
                "rig": "surround_rig", "cameras": len(self.rig), "channels": CHANNELS,
                "feature_raster": [FEATURE_SIZE, FEATURE_SIZE], "poses": 2}

    def setup(self):
        rng = _rng(self.seed, 1)
        start = RigidTransform(rot_z(rng.uniform(-0.15, 0.15)),
                               np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0), 0.0]))
        self.poses = [start, ego_step(rng, start)]
        self.depths = [synth.render_erp_depth(DEMO07_SCENE, *ERP_SIZE, pose=p)[0] for p in self.poses]
        self.features = [lift.FeatureImage(n, d) for n, d in feature_rasters(self.rig, self.seed).items()]
        cloud = geom.erp_depth_to_point_cloud(self.depths[1])
        mask = sketch.dilate_radial(sketch.sketch_from_points(cloud, self.spec), self.schedule)
        self.history0 = lift.color_voxels(lift.build_hit_set(mask, self.rig), self.features)
        self.restart()

    def restart(self):
        self.history = self.history0

    def op(self, k: int):
        j = k % 2
        cloud = geom.erp_depth_to_point_cloud(self.depths[j])
        raw = sketch.sketch_from_points(cloud, self.spec)
        mask = sketch.dilate_radial(raw, self.schedule)
        hits = lift.build_hit_set(mask, self.rig)
        colored = lift.color_voxels(hits, self.features)
        aligned = lift.align_history(self.history, self.poses[1 - j], self.poses[j])
        fused = lift.fuse_temporal(colored, [aligned])
        self.history = fused
        return raw, mask, hits, fused

    def slot(self, k: int):
        return k if k < self.reference_slots else None

    def inspect(self, out) -> tuple[dict, list[str]]:
        raw, mask, hits, fused = out
        rec = {"candidates_raw": raw.occupied_count, "candidates": mask.occupied_count,
               "unhit": int(hits.unhit.sum()), **_feature_summary(fused.data)}
        found = _feature_problems(fused.data)
        if not 0 < rec["candidates_raw"] <= rec["candidates"] <= self.spec.num_voxels:
            found.append("candidate counts out of order")
        if not 0 <= rec["unhit"] <= rec["candidates"]:
            found.append("unhit count out of range")
        return rec, found

    def release(self, out):
        pass


class EvalSweep:
    """K seeded checkpoints scored against one shared analytic ground truth.

    Each checkpoint is the voxelized ERP pseudo cloud of the street scene with
    seeded label noise, radial surface shifts and dropout, plus a probability
    grid around its labels. Op k scores checkpoint k % K; every call gets the
    same ground-truth VoxelGrid object.
    """

    name = "eval_sweep"
    setups = 3
    checkpoints = 4
    reference_slots = checkpoints

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.spec = grid.default_cylindrical_spec()
        self.fan = metrics.default_ray_fan()

    def sizes(self) -> dict:
        return {"scene": "tests/conftest.py street_scene", "erp": list(ERP_SIZE), "lattice": list(self.spec.dims),
                "rays": [512, 32], "thresholds": list(THRESHOLDS), "bands": [list(b) for b in BANDS],
                "checkpoints": self.checkpoints, "classes": NUM_CLASSES, "gt_supersample": 3}

    def setup(self):
        self.gt = synth.analytic_voxel_gt(STREET_SCENE, self.spec, 3)
        depth, semantic = synth.render_erp_depth(STREET_SCENE, *ERP_SIZE)
        cloud = geom.erp_depth_to_point_cloud(depth, semantic)
        base = grid.voxelize_semantic(cloud, self.spec, grid.default_label_set())
        self.weights = losses.class_weights(grid.class_frequencies(self.gt, NUM_CLASSES))
        rng = _rng(self.seed, 2)
        self.preds, self.probs = [], []
        for _ in range(self.checkpoints):
            labels = self._perturb(rng, base.data)
            self.preds.append(grid.VoxelGrid(self.spec, "label", labels))
            self.probs.append(self._probabilities(rng, labels))

    @staticmethod
    def _perturb(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
        labels = base.copy()
        occ = np.argwhere(labels != 0)
        n = len(occ)
        # surface error: move a share of occupied voxels 1-2 bins along r
        moved = occ[rng.random(n) < rng.uniform(0.05, 0.2)]
        shift = rng.choice(np.array([-2, -1, 1, 2]), size=len(moved))
        target = moved.copy()
        target[:, 0] = np.clip(moved[:, 0] + shift, 0, labels.shape[0] - 1)
        values = labels[moved[:, 0], moved[:, 1], moved[:, 2]]
        labels[moved[:, 0], moved[:, 1], moved[:, 2]] = 0
        labels[target[:, 0], target[:, 1], target[:, 2]] = values
        # dropout and label noise on the original occupied set
        drop = occ[rng.random(n) < rng.uniform(0.0, 0.05)]
        labels[drop[:, 0], drop[:, 1], drop[:, 2]] = 0
        noisy = occ[rng.random(n) < rng.uniform(0.02, 0.1)]
        keep = labels[noisy[:, 0], noisy[:, 1], noisy[:, 2]] != 0
        noisy = noisy[keep]
        labels[noisy[:, 0], noisy[:, 1], noisy[:, 2]] = rng.integers(1, NUM_CLASSES, len(noisy))
        return labels

    @staticmethod
    def _probabilities(rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
        eps = rng.uniform(0.05, 0.3)
        q = rng.random(labels.shape + (NUM_CLASSES,), dtype=np.float32)
        q /= q.sum(axis=-1, keepdims=True)
        p = eps * q
        np.put_along_axis(p, labels[..., None].astype(np.int64),
                          np.take_along_axis(p, labels[..., None].astype(np.int64), -1) + (1.0 - eps), -1)
        return p.astype(np.float32)

    def restart(self):
        pass

    def op(self, k: int):
        c = k % self.checkpoints
        pred = self.preds[c]
        report = metrics.ray_iou(pred, self.gt, self.fan, THRESHOLDS, bands=BANDS)
        pg = losses.ProbGrid(self.spec, self.probs[c])
        ce = losses.weighted_ce(pg, self.gt, self.weights)
        scal = losses.scal_loss(pg, self.gt)
        dice = losses.dice_macro(pred, self.gt, NUM_CLASSES)
        return report, ce, scal, dice

    def slot(self, k: int):
        return k % self.checkpoints

    def inspect(self, out) -> tuple[dict, list[str]]:
        report, ce, scal, dice = out
        rec = {"ray_iou": report.ray_iou,
               "band_iou": [report.bands[b].ray_iou for b in sorted(report.bands)],
               **_confusion(report), "ce": ce, "scal": scal, "dice": dice}
        found = _unit(rec["ray_iou"], "RayIoU") + _confusion_problems(rec["tp"], rec["fp"], rec["fn"])
        for name in ("ce", "scal"):
            if not (math.isfinite(rec[name]) and rec[name] >= 0.0):
                found.append(f"{name} loss {rec[name]!r} is not a finite non-negative number")
        return rec, found + _unit(rec["dice"], "dice")

    def release(self, out):
        pass


class CliFiles:
    """One seeded random scene per op, driven in-process through cylocc.cli.

    Scenes are obstacle layouts over the ground half-space (two boxes, a pole
    and a sphere at seeded places and sizes), so clutter and hit distances
    vary while the primitive count, and with it the oracle's cost, does not.
    Op k runs scene k % N through synth -> sketch -> voxelize -> lift ->
    align -> fuse -> eval, every step writing and reading files.
    """

    name = "cli_files"
    setups = 3
    scenes = 3
    reference_slots = scenes

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.root = workdir

    def sizes(self) -> dict:
        return {"erp": list(ERP_SIZE), "lattice": [128, 200, 16], "rig": "surround_rig", "cameras": 6,
                "channels": CHANNELS, "feature_raster": [FEATURE_SIZE, FEATURE_SIZE], "rays": [512, 32],
                "bands": [list(b) for b in BANDS], "scenes": self.scenes, "primitives_per_scene": 5,
                "gt_supersample": 3}

    @staticmethod
    def random_scene(rng: np.random.Generator) -> dict:
        def place(r_lo, r_hi):
            r, th = rng.uniform(r_lo, r_hi), rng.uniform(-math.pi, math.pi)
            return r * math.cos(th), r * math.sin(th)

        prims = []
        for label in rng.choice(["vehicles", "building", "wall", "other"], size=2):
            x, y = place(4.0, 20.0)
            hx, hy = rng.uniform(0.5, 2.2), rng.uniform(0.5, 1.2)
            prims.append({"shape": "box", "min": [x - hx, y - hy, -1.3],
                          "max": [x + hx, y + hy, -1.3 + rng.uniform(1.0, 3.0)], "label": str(label)})
        x, y = place(3.0, 22.0)
        prims.append({"shape": "cylinder", "center": [x, y], "radius": rng.uniform(0.1, 0.35),
                      "z_min": -1.3, "z_max": rng.uniform(1.5, 3.0), "label": "pole"})
        x, y = place(4.0, 20.0)
        prims.append({"shape": "sphere", "center": [x, y, rng.uniform(-0.5, 0.8)],
                      "radius": rng.uniform(0.4, 1.2), "label": "vegetation"})
        prims.append({"shape": "half_space", "height": -1.3, "label": "road"})
        return {"primitives": prims}

    def setup(self):
        if self.root.exists():
            shutil.rmtree(self.root)
        (self.root / "features").mkdir(parents=True)
        rng = _rng(self.seed, 3)
        rig = geom.surround_rig()
        (self.root / "rig.json").write_text(formats.rig_to_json(rig))
        for name, data in feature_rasters(rig, self.seed).items():
            img = ErpImage(FEATURE_SIZE, FEATURE_SIZE, CHANNELS, data, "feature")
            (self.root / "features" / f"{name}.odpt").write_bytes(formats.encode_raster(img))
        hist = RigidTransform.identity()
        (self.root / "pose_hist.json").write_text(formats.pose_to_json(hist))
        (self.root / "pose_curr.json").write_text(formats.pose_to_json(ego_step(rng, hist)))
        for i in range(self.scenes):
            (self.root / f"scene{i}.json").write_text(json.dumps(self.random_scene(rng)))

    def restart(self):
        pass

    def op(self, k: int):
        w = self.root
        o = w / f"op{k}"
        steps = [
            ["synth", "--scene", w / f"scene{k % self.scenes}.json", "--rig", w / "rig.json", "--out", o],
            ["sketch", "--depth", o / "depth.odpt", "--out", o / "sketch.ovox"],
            ["voxelize", "--cloud", o / "cloud.opcd", "--out", o / "pred.ovox"],
            ["lift", "--mask", o / "sketch.ovox", "--rig", w / "rig.json", "--features", w / "features",
             "--out", o / "colored.ovox"],
            ["align", "--hist", o / "colored.ovox", "--pose-hist", w / "pose_hist.json",
             "--pose-curr", w / "pose_curr.json", "--out", o / "aligned.ovox"],
            ["fuse", "--curr", o / "colored.ovox", "--aligned", o / "aligned.ovox", "--out", o / "fused.ovox"],
            ["eval", "--pred", o / "pred.ovox", "--gt", o / "gt_cylindrical.ovox", "--rays", "512x32",
             "--thresholds", ",".join(f"{t:g}" for t in THRESHOLDS),
             "--bands", ",".join(f"{lo:g}:{hi:g}" for lo, hi in BANDS), "--report", o / "report.json"],
        ]
        codes = []
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            for argv in steps:
                codes.append(cli.main([str(a) for a in argv]))
                if codes[-1] != 0:
                    break
        return o, codes, err.getvalue()

    def slot(self, k: int):
        return k % self.scenes

    def inspect(self, out) -> tuple[dict, list[str]]:
        o, codes, err = out
        rec: dict = {"exit_codes": codes}
        if codes != [0] * 7:
            return rec, [f"cli exit codes {codes}"]

        def reject(token):
            raise ValueError(f"report holds the non-standard JSON constant {token}")

        doc = json.loads((o / "report.json").read_text(), parse_constant=reject)
        reports = [doc] + [doc["bands"][b] for b in sorted(doc["bands"], key=lambda b: float(b.split(":")[0]))]
        rec["ray_iou"] = doc["ray_iou"]
        rec["band_iou"] = [rep["ray_iou"] for rep in reports[1:]]
        for key in ("tp", "fp", "fn"):
            rec[key] = [[t[key] for t in rep["per_threshold"]] for rep in reports]
        rec["candidates"] = int(re.search(r"sketch occupies (\d+) voxels", err).group(1))
        colored, total = re.search(r"colored (\d+)/(\d+) candidate voxels", err).groups()
        rec["unhit"] = int(total) - int(colored)
        fused = formats.decode_voxel_grid((o / "fused.ovox").read_bytes()).data
        rec.update(_feature_summary(fused))
        found = _unit(rec["ray_iou"], "RayIoU") + _confusion_problems(rec["tp"], rec["fp"], rec["fn"])
        if not 0 <= rec["unhit"] <= rec["candidates"]:
            found.append("unhit count out of range")
        return rec, found + _feature_problems(fused)

    def release(self, out):
        shutil.rmtree(out[0], ignore_errors=True)


WORKLOADS = {w.name: w for w in (OnlineFrames, EvalSweep, CliFiles)}
