"""Command-line tests: exit-code contract and an end-to-end file pipeline
(synth -> sketch -> voxelize -> lift -> align -> fuse -> eval -> loss)."""

import contextlib
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylocc import cli, lift
from cylocc.cli import main
from cylocc.formats import (
    decode_raster,
    decode_voxel_grid,
    encode_point_cloud,
    encode_raster,
    encode_voxel_grid,
    pose_from_json,
    pose_to_json,
    rig_from_json,
    rig_to_json,
)
from cylocc.geom import ErpImage, LabeledPointCloud, RigidTransform, rot_z, surround_rig
from cylocc.grid import GridSpec, VoxelGrid, default_cylindrical_spec
from cylocc.sketch import CandidateMask
from conftest import sparse_features
from oracles import dense_align_history, feature_rows, fuse_temporal_unblocked, scene_to_json, zero_grid


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.fixture()
def scene_file(tmp_path, street_scene):
    p = tmp_path / "scene.json"
    p.write_text(scene_to_json(street_scene))
    return p


@pytest.fixture()
def rig_file(tmp_path):
    p = tmp_path / "rig.json"
    p.write_text(rig_to_json(surround_rig()))
    return p


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert main(["eval", "--pred", "x.ovox"]) == 1

    def test_info_on_missing_file_is_io_error(self):
        assert main(["info", "/nonexistent/path.ovox"]) == 2

    def test_info_on_garbage_is_format_error(self, tmp_path):
        p = tmp_path / "garbage.bin"
        p.write_bytes(b"NOPE1234")
        assert main(["info", str(p)]) == 2

    def test_eval_spec_mismatch_is_domain_error(self, tmp_path):
        a = tmp_path / "a.ovox"
        b = tmp_path / "b.ovox"
        a.write_bytes(encode_voxel_grid(zero_grid(default_cylindrical_spec(), "label")))
        other = GridSpec("cuboid", (4, 4, 4), ((0, 1), (0, 1), (0, 1)))
        b.write_bytes(encode_voxel_grid(zero_grid(other, "label")))
        assert main(["eval", "--pred", str(a), "--gt", str(b)]) == 3

    def test_info_on_valid_file_succeeds(self, tmp_path, capsys):
        p = tmp_path / "g.ovox"
        p.write_bytes(encode_voxel_grid(zero_grid(default_cylindrical_spec(), "label")))
        assert main(["info", str(p)]) == 0
        out = capsys.readouterr().out
        assert "cylindrical" in out and "(128, 200, 16)" in out

    def test_info_on_cloud_and_raster(self, tmp_path, capsys):
        from cylocc.formats import encode_point_cloud
        from cylocc.geom import ErpImage, LabeledPointCloud

        cloud = tmp_path / "c.opcd"
        cloud.write_bytes(
            encode_point_cloud(LabeledPointCloud(np.ones((3, 3)), np.array([1, 2, 2], dtype=np.uint8)))
        )
        assert main(["info", str(cloud)]) == 0
        assert "points=3" in capsys.readouterr().out
        raster = tmp_path / "d.odpt"
        raster.write_bytes(encode_raster(ErpImage.depth(np.zeros((4, 8), dtype=np.float32))))
        assert main(["info", str(raster)]) == 0
        assert "8x4" in capsys.readouterr().out

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_removed_global_flags_are_usage_errors(self):
        assert main(["--seed", "1", "info", "x"]) == 1
        assert main(["--threads", "2", "info", "x"]) == 1

    REQUIRED = {
        "eval": ["--pred", "p.ovox", "--gt", "g.ovox"],
        "synth": ["--scene", "s.json", "--out", "out"],
        "sketch": ["--depth", "d.odpt", "--out", "out"],
        "loss": ["--pred", "p.ovox", "--gt", "g.ovox"],
    }

    @pytest.mark.parametrize("command,flag,value", [
        ("eval", "--rays", "512"),
        ("eval", "--rays", "ax32"),
        ("eval", "--thresholds", "a"),
        ("eval", "--thresholds", "1,,2"),
        ("eval", "--thresholds", "1,nan"),
        ("eval", "--bands", "0:8.5,8.5"),
        ("eval", "--bands", "0:1:2"),
        ("eval", "--bands", "nan:5"),
        ("eval", "--origin", "0,0"),
        ("eval", "--origin", "0,0,z"),
        ("eval", "--origin", "inf,0,0"),
        ("eval", "--elev", "-20deg"),
        ("eval", "--elev", "a:b"),
        ("synth", "--erp", "2000"),
        ("synth", "--erp", "wxh"),
        ("synth", "--erp", "1" + "0" * 400 + "x2"),
        ("sketch", "--schedule", "8.5:0,17"),
        ("sketch", "--schedule", "8.5:a"),
        ("sketch", "--spec", "cylindrical:128x200x16:0:25.6"),
        ("sketch", "--spec", "cuboid:4x4:a:1:0:1:0:1"),
        ("sketch", "--schedule", "nan:0,25.6:1"),
        ("sketch", "--schedule", "8.5:1.5"),
        ("sketch", "--spec", "cylindrical:8x16x4:0:nan:-2.8:3.6"),
        ("sketch", "--spec", "cylindrical:8x16:0:25.6:-2.8:3.6"),
        ("loss", "--terms", "ce,foo"),
        ("loss", "--terms", ""),
    ])
    def test_malformed_flag_value_is_usage_error(self, command, flag, value, capsys):
        assert main([command, *self.REQUIRED[command], f"{flag}={value}"]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "Traceback" not in err

    def test_bad_weights_file_is_format_error(self, tmp_path):
        spec = GridSpec("cuboid", (2, 2, 1), ((0, 2), (0, 2), (0, 1)))
        gt = tmp_path / "gt.ovox"
        gt.write_bytes(encode_voxel_grid(zero_grid(spec, "label")))
        pred = tmp_path / "pred.ovox"
        pred.write_bytes(encode_voxel_grid(feature_rows(spec, np.full((2, 2, 1, 2), 0.5, np.float32))))
        weights = tmp_path / "w.json"
        weights.write_text('{"frequencies": "many"}')
        assert main(["loss", "--pred", str(pred), "--gt", str(gt), "--weights", str(weights)]) == 2

    def test_non_finite_weights_constant_is_format_error(self, tmp_path, capsys):
        spec = GridSpec("cuboid", (2, 2, 1), ((0, 2), (0, 2), (0, 1)))
        gt = tmp_path / "gt.ovox"
        gt.write_bytes(encode_voxel_grid(zero_grid(spec, "label")))
        pred = tmp_path / "pred.ovox"
        pred.write_bytes(encode_voxel_grid(feature_rows(spec, np.full((2, 2, 1, 2), 0.5, np.float32))))
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"frequencies": [0.5, 0.5], "constant": math.nan}))
        report = tmp_path / "report.json"
        args = ["loss", "--pred", str(pred), "--gt", str(gt), "--weights", str(weights), "--report", str(report)]
        assert main(args) == 2
        assert "format error" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("frequencies", [[0.5, 0.5], [0.1] * 10])
    def test_weight_count_not_matching_classes_is_domain_error(self, tmp_path, frequencies, capsys):
        spec = GridSpec("cuboid", (2, 2, 1), ((0, 2), (0, 2), (0, 1)))
        gt = tmp_path / "gt.ovox"
        gt.write_bytes(encode_voxel_grid(VoxelGrid(spec, "label", np.array([0, 1, 4, 4], np.uint8).reshape(2, 2, 1))))
        pred = tmp_path / "pred.ovox"
        pred.write_bytes(encode_voxel_grid(feature_rows(spec, np.full((2, 2, 1, 5), 0.2, np.float32))))
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"frequencies": frequencies}))
        report = tmp_path / "report.json"
        args = ["loss", "--pred", str(pred), "--gt", str(gt), "--weights", str(weights), "--report", str(report)]
        assert main(args) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not report.exists()

    def test_weight_count_checked_without_ce(self, tmp_path, capsys):
        spec = GridSpec("cuboid", (2, 2, 1), ((0, 2), (0, 2), (0, 1)))
        gt = tmp_path / "gt.ovox"
        gt.write_bytes(encode_voxel_grid(VoxelGrid(spec, "label", np.array([0, 1, 4, 4], np.uint8).reshape(2, 2, 1))))
        pred = tmp_path / "pred.ovox"
        pred.write_bytes(encode_voxel_grid(feature_rows(spec, np.full((2, 2, 1, 5), 0.2, np.float32))))
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"frequencies": [0.5, 0.5]}))
        report = tmp_path / "report.json"
        args = ["loss", "--pred", str(pred), "--gt", str(gt), "--weights", str(weights), "--report", str(report),
                "--terms", "dice,scal"]
        assert main(args) == 3
        assert "domain error" in capsys.readouterr().err
        assert not report.exists()

    def test_auto_weights_only_when_ce_runs(self, tmp_path, monkeypatch):
        spec = GridSpec("cuboid", (2, 2, 1), ((0, 2), (0, 2), (0, 1)))
        gt = tmp_path / "gt.ovox"
        gt.write_bytes(encode_voxel_grid(VoxelGrid(spec, "label", np.array([0, 1, 2, 2], np.uint8).reshape(2, 2, 1))))
        pred = tmp_path / "pred.ovox"
        onehot = np.eye(3, dtype=np.float32)[[0, 1, 2, 2]].reshape(2, 2, 1, 3)
        pred.write_bytes(encode_voxel_grid(feature_rows(spec, np.full((2, 2, 1, 3), 0.25, np.float32) + onehot / 4)))
        counted = []
        frequencies = cli.class_frequencies

        def counting(grid, num_classes):
            counted.append(num_classes)
            return frequencies(grid, num_classes)

        monkeypatch.setattr(cli, "class_frequencies", counting)
        report = tmp_path / "report.json"
        args = ["loss", "--pred", str(pred), "--gt", str(gt), "--report", str(report)]
        assert main([*args, "--terms", "dice,scal"]) == 0
        assert counted == []
        assert main([*args, "--terms", "scal,ce"]) == 0
        assert counted == [3]
        assert set(json.loads(report.read_text())["terms"]) == {"ce", "scal"}

    def test_dice_refuses_labels_beyond_u8(self, tmp_path):
        # argmax class 257 would wrap to class 1 in a u8 label grid
        spec = GridSpec("cuboid", (2, 1, 1), ((0, 2), (0, 1), (0, 1)))
        gt = tmp_path / "gt.ovox"
        gt.write_bytes(encode_voxel_grid(VoxelGrid(spec, "label", np.array([1, 1], np.uint8).reshape(2, 1, 1))))
        p = np.zeros((2, 1, 1, 300), np.float32)
        p[0, 0, 0, 1] = p[1, 0, 0, 257] = 1.0
        pred = tmp_path / "pred.ovox"
        pred.write_bytes(encode_voxel_grid(feature_rows(spec, p)))
        report = tmp_path / "report.json"
        args = ["loss", "--pred", str(pred), "--gt", str(gt), "--report", str(report)]
        assert main([*args, "--terms", "ce,dice"]) == 3
        assert not report.exists()
        assert main([*args, "--terms", "ce,scal"]) == 0
        assert set(json.loads(report.read_text())["terms"]) == {"ce", "scal"}

    @pytest.mark.parametrize("scene", [
        {"primitives": 5},
        {"primitives": [{"shape": "sphere", "center": [0, -10], "radius": 0.7, "label": "vegetation"}]},
        {"primitives": [{"shape": "box", "min": [9, -1], "max": [10, 1, 0.3], "label": "vehicles"}]},
        {"primitives": [{"shape": "box", "min": [9, -1, -1.3], "max": [10, 1], "label": "vehicles"}]},
        {"primitives": [{"shape": "sphere", "center": [0, -10, 0], "radius": math.nan, "label": "vegetation"}]},
        {"primitives": [{"shape": "half_space", "height": math.inf, "label": "road"}]},
        {"primitives": [{"shape": "cylinder", "center": [-6, 8, 0], "radius": 0.25, "z_min": -1.3, "z_max": 2.3,
                         "label": "pole"}]},
        # radii whose square overflows
        {"primitives": [{"shape": "sphere", "center": [0, -10, 0], "radius": 1e160, "label": "vegetation"}]},
        {"primitives": [{"shape": "cylinder", "center": [-6, 8], "radius": 1e160, "z_min": -1.3, "z_max": 2.3,
                         "label": "pole"}]},
    ])
    def test_malformed_scene_is_format_error(self, tmp_path, scene, capsys):
        p = tmp_path / "scene.json"
        p.write_text(json.dumps(scene))
        assert main(["synth", "--scene", str(p), "--erp", "8x4", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "format error" in err and "Traceback" not in err

    @pytest.mark.parametrize("count", [256, 300])
    def test_class_index_past_uint8_labels_writes_nothing(self, tmp_path, count, capsys):
        # class 255 would read as unlabeled in the cloud, and 299 does not fit a uint8 label
        names = ["free"] + [f"c{i}" for i in range(1, count)]
        p = tmp_path / "scene.json"
        p.write_text(json.dumps({"classes": names, "primitives": [
            {"shape": "sphere", "center": [4, 0, 0], "radius": 1, "label": names[-1]}]}))
        out = tmp_path / "out"
        assert main(["synth", "--scene", str(p), "--erp", "8x4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "format error" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("field,value", [
        ("focal_px_per_rad", math.nan), ("cx", math.nan), ("cx", math.inf), ("cy", -math.inf), ("width", 2.7),
    ])
    def test_malformed_rig_is_format_error(self, tmp_path, scene_file, field, value, capsys):
        doc = json.loads(rig_to_json(surround_rig()))
        doc[0][field] = value
        rig = tmp_path / "rig.json"
        rig.write_text(json.dumps(doc))
        args = ["synth", "--scene", str(scene_file), "--rig", str(rig), "--erp", "8x4", "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert "format error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--thresholds=-1,2", "--bands=17:8.5", "--bands=0:8.5,8.5:8.5"])
    def test_negative_threshold_or_empty_band_is_domain_error(self, tmp_path, flag, capsys):
        g = zero_grid(default_cylindrical_spec(), "label")
        g.data[40:60, :, 5] = 4
        path = tmp_path / "g.ovox"
        path.write_bytes(encode_voxel_grid(g))
        report = tmp_path / "report.json"
        assert main(["eval", "--pred", str(path), "--gt", str(path), "--rays", "16x4", flag,
                     "--report", str(report)]) == 3
        assert "domain error" in capsys.readouterr().err
        assert not report.exists()

    def test_oversized_ray_fan_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "g.ovox"
        path.write_bytes(encode_voxel_grid(zero_grid(default_cylindrical_spec(), "label")))
        report = tmp_path / "report.json"
        assert main(["eval", "--pred", str(path), "--gt", str(path), "--rays", "10000000x10000000",
                     "--report", str(report)]) == 3
        err = capsys.readouterr().err
        assert "domain error" in err and "Traceback" not in err
        assert not report.exists()

    @pytest.mark.parametrize("origin,code", [("1e308,0,0", 3), ("2e154,0,0", 3), ("1e20,0,0", 0)])
    def test_far_ray_origin(self, tmp_path, origin, code, capsys):
        # warnings are errors under pytest, so any numpy RuntimeWarning fails this test
        path = tmp_path / "g.ovox"
        path.write_bytes(encode_voxel_grid(zero_grid(default_cylindrical_spec(), "label")))
        report = tmp_path / "report.json"
        assert main(["eval", "--pred", str(path), "--gt", str(path), f"--origin={origin}",
                     "--report", str(report)]) == code
        err = capsys.readouterr().err
        assert "Warning" not in err and "Traceback" not in err
        assert ("domain error: ray origins" in err) == (code == 3)
        assert report.exists() == (code == 0)

    @pytest.mark.parametrize("flag,value", [("--spec", "cuboid:4x4x4:0:1:0:1:0:1"), ("--supersample", "0"),
                                            ("--supersample", "100000000000000000000")])
    def test_rejected_synth_input_writes_nothing(self, tmp_path, scene_file, flag, value, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--scene", str(scene_file), "--erp", "8x4", flag, value, "--out", str(out)]) == 3
        assert "domain error" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_far_rig_camera_writes_nothing(self, tmp_path, scene_file, capsys):
        # the cloud seen from x = 1e160 lies beyond f32 range, so its encoder refuses it before
        # any file is written; warnings are errors under pytest, so the oracle must not warn
        doc = json.loads(rig_to_json(surround_rig()))
        doc[0]["pose"][3] = 1e160
        rig = tmp_path / "rig.json"
        rig.write_text(json.dumps(doc))
        out = tmp_path / "out"
        args = ["synth", "--scene", str(scene_file), "--rig", str(rig), "--erp", "8x4",
                "--spec", "cylindrical:4x8x2:0:25.6:-2.8:3.6", "--out", str(out)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "domain error: point coordinates stored as f32" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_far_rig_camera_lifts(self, tmp_path, capsys):
        # camera-frame coordinates seen from x = 1e160 square past f64 range; warnings are
        # errors under pytest, so the projection must not warn, and that camera sees no voxel
        doc = json.loads(rig_to_json(surround_rig()))
        doc[0]["pose"][3] = 1e160
        rig = tmp_path / "rig.json"
        rig.write_text(json.dumps(doc))
        spec = default_cylindrical_spec()
        occ = np.zeros(spec.dims, dtype=np.uint8)
        occ[30:60, ::10, 6:10] = 1
        mask = tmp_path / "mask.ovox"
        mask.write_bytes(encode_voxel_grid(VoxelGrid(spec, "occupancy", occ)))
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        for cam in surround_rig():
            raster = ErpImage(16, 16, 2, np.full((16, 16, 2), 2.5, dtype=np.float32), "feature")
            (feat_dir / f"{cam.name}.odpt").write_bytes(encode_raster(raster))
        out = tmp_path / "colored.ovox"
        args = ["lift", "--mask", str(mask), "--rig", str(rig), "--features", str(feat_dir), "--out", str(out)]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "Warning" not in err and "Traceback" not in err
        assert np.all(decode_voxel_grid(out.read_bytes()).dense()[occ == 0] == 0)

    @pytest.mark.parametrize("spec", ["cylindrical:4x8x2:0:1e300:-1:1", "cuboid:4x4x2:-1:1:-1:1:100000000:100000001"],
                             ids=["range-overflows-f32", "range-collapses-at-f32"])
    def test_voxelize_spec_invalid_at_f32_writes_nothing(self, tmp_path, spec, capsys):
        cloud = tmp_path / "cloud.opcd"
        cloud.write_bytes(encode_point_cloud(LabeledPointCloud(np.array([[0.5, 0.5, 0.5]]), np.array([4], np.uint8))))
        out = tmp_path / "grid.ovox"
        assert main(["voxelize", "--cloud", str(cloud), "--spec", spec, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "domain error: grid ranges" in err and "Traceback" not in err
        assert not out.exists()

    def test_oversized_erp_is_domain_error(self, tmp_path, scene_file, capsys):
        # 10^10 pixels: one float64 plane of them is 80 GB, so the cap must reject it first
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["synth", "--scene", str(scene_file), "--erp", "100000x100000", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err
        assert "domain error" in err and "pixel cap" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("kind", ["depth", "semantic"])
    def test_lift_non_feature_raster_is_format_error(self, tmp_path, rig_file, kind, capsys):
        spec = default_cylindrical_spec()
        occ = np.zeros(spec.dims, dtype=np.uint8)
        occ[30:60, ::10, 6:10] = 1
        mask = tmp_path / "mask.ovox"
        mask.write_bytes(encode_voxel_grid(VoxelGrid(spec, "occupancy", occ)))
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        raster = getattr(ErpImage, kind)(np.ones((16, 16), dtype=np.float32))
        for cam in surround_rig():
            (feat_dir / f"{cam.name}.odpt").write_bytes(encode_raster(raster))
        out = tmp_path / "colored.ovox"
        args = ["lift", "--mask", str(mask), "--rig", str(rig_file), "--features", str(feat_dir), "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "format error" in err and "cam0.odpt" in err
        assert not out.exists()

    def test_empty_grids_report_is_strict_json(self, tmp_path):
        g = tmp_path / "empty.ovox"
        g.write_bytes(encode_voxel_grid(zero_grid(default_cylindrical_spec(), "label")))
        report = tmp_path / "report.json"
        assert main(["eval", "--pred", str(g), "--gt", str(g), "--rays", "16x4",
                     "--bands", "0:8.5", "--report", str(report)]) == 0

        doc = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert doc["ray_iou"] is None
        assert all(t["mean_iou"] is None for t in doc["per_threshold"])
        assert doc["bands"]["0.0:8.5"]["ray_iou"] is None


# every path the argv fuzz passes: it does not exist, so a command that
# parses fails on its first read and none renders
MISSING = "missing-cylocc-input/none"

# flags of each subcommand; those in PATHS take MISSING, the rest a drawn value
FLAGS = {
    "info": ["--help"],
    "synth": ["--scene", "--rig", "--out", "--erp", "--spec", "--supersample"],
    "voxelize": ["--cloud", "--out", "--spec"],
    "sketch": ["--depth", "--out", "--spec", "--min-points", "--schedule", "--stride"],
    "lift": ["--mask", "--rig", "--features", "--out"],
    "align": ["--hist", "--pose-hist", "--pose-curr", "--out"],
    "fuse": ["--curr", "--aligned", "--out"],
    "eval": ["--pred", "--gt", "--report", "--rays", "--elev", "--origin", "--thresholds", "--bands"],
    "loss": ["--pred", "--gt", "--weights", "--report", "--terms"],
}
PATHS = {"--scene", "--rig", "--out", "--cloud", "--depth", "--mask", "--features", "--hist", "--pose-hist",
         "--pose-curr", "--curr", "--aligned", "--pred", "--gt", "--weights", "--report"}
WELL_FORMED = ["2000x1000", "default", "cylindrical:8x16x4:0:25.6:-2.8:3.6", "cuboid:4x4x4:0:1:0:1:0:1", "3",
               "8.5:0,17:1,25.6:2", "none", "512x32", "-20:8.6deg", "-0.35:0.15rad", "0,0,0", "1,2,4",
               "0:8.5,8.5:17", "ce,dice,scal"]
# separator and count of the numbers a numeric flag takes
NUMERIC = {"--erp": ("x", 2), "--rays": ("x", 2), "--supersample": ("", 1), "--min-points": ("", 1),
           "--stride": ("", 1), "--schedule": (":", 2), "--elev": (":", 2), "--origin": (",", 3),
           "--thresholds": (",", 3), "--bands": (":", 2)}
NUMBER = st.one_of(st.integers(min_value=-10**400, max_value=10**400), st.just(10**400), st.floats())
TEXT = st.one_of(st.sampled_from(WELL_FORMED), st.text(alphabet="0123456789.:,x-+eEinfadgrcylubo ", max_size=16))


def flag_value(flag):
    """Well-formed or random text, or numbers in the flag's own syntax."""
    if flag not in NUMERIC:
        return TEXT
    sep, count = NUMERIC[flag]
    return TEXT | st.lists(NUMBER, min_size=count, max_size=count).map(lambda xs: sep.join(map(str, xs)))


@st.composite
def argv(draw):
    """A subcommand with a drawn subset of its flags in drawn order."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    args = [MISSING] if command == "info" else []
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), unique=True)):
        if flag == "--help":
            args.append(flag)
        else:
            args.append(f"{flag}={MISSING if flag in PATHS else draw(flag_value(flag))}")
    return [command, *draw(st.permutations(args))]


class TestArgvFuzz:
    @settings(max_examples=400, deadline=None)
    @given(args=argv())
    def test_exit_code_without_traceback(self, args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()


class TestPipeline:
    def test_synth_to_eval_round(self, tmp_path, scene_file, rig_file, capsys):
        out = tmp_path / "synth"
        assert (
            main(
                [
                    "synth",
                    "--scene", str(scene_file),
                    "--rig", str(rig_file),
                    "--erp", "400x200",
                    "--supersample", "1",
                    "--out", str(out),
                ]
            )
            == 0
        )
        for name in ("depth.odpt", "semantic.odpt", "cloud.opcd", "gt_cylindrical.ovox", "gt_cuboid.ovox"):
            assert (out / name).exists(), name

        sketch_path = tmp_path / "sketch.ovox"
        assert (
            main(
                [
                    "sketch",
                    "--depth", str(out / "depth.odpt"),
                    "--min-points", "1",
                    "--schedule", "8.5:0,17:1,25.6:2",
                    "--out", str(sketch_path),
                ]
            )
            == 0
        )
        mask = decode_voxel_grid(sketch_path.read_bytes())
        assert mask.kind == "occupancy"
        assert mask.data.sum() > 0

        vox_path = tmp_path / "vox.ovox"
        assert main(["voxelize", "--cloud", str(out / "cloud.opcd"), "--out", str(vox_path)]) == 0

        report_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "eval",
                    "--pred", str(out / "gt_cylindrical.ovox"),
                    "--gt", str(out / "gt_cylindrical.ovox"),
                    "--rays", "64x8",
                    "--thresholds", "1,2,4",
                    "--bands", "0:8.5,8.5:17,17:25.6",
                    "--report", str(report_path),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text(), parse_constant=_reject_constant)
        assert report["ray_iou"] == 1.0
        assert set(report["bands"]) == {"0.0:8.5", "8.5:17.0", "17.0:25.6"}

    def test_lift_align_fuse(self, tmp_path, rig_file):
        spec = default_cylindrical_spec()
        rig = surround_rig()
        occ = np.zeros(spec.dims, dtype=np.uint8)
        occ[30:60, ::10, 6:10] = 1
        mask_path = tmp_path / "mask.ovox"
        mask_path.write_bytes(encode_voxel_grid(VoxelGrid(spec, "occupancy", occ)))

        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        for cam in rig:
            raster = ErpImage(16, 16, 2, np.full((16, 16, 2), 2.5, dtype=np.float32), "feature")
            (feat_dir / f"{cam.name}.odpt").write_bytes(encode_raster(raster))

        colored = tmp_path / "colored.ovox"
        assert (
            main(
                [
                    "lift",
                    "--mask", str(mask_path),
                    "--rig", str(rig_file),
                    "--features", str(feat_dir),
                    "--out", str(colored),
                ]
            )
            == 0
        )
        grid = decode_voxel_grid(colored.read_bytes())
        assert grid.kind == "feature"
        hit_values = grid.dense()[grid.dense() != 0]
        assert np.all(hit_values == np.float32(2.5))

        pose_a = tmp_path / "pose_a.json"
        pose_b = tmp_path / "pose_b.json"
        pose_a.write_text(pose_to_json(RigidTransform.identity()))
        pose_b.write_text(pose_to_json(RigidTransform.identity()))
        aligned = tmp_path / "aligned.ovox"
        assert (
            main(
                ["align", "--hist", str(colored), "--pose-hist", str(pose_a), "--pose-curr", str(pose_b), "--out", str(aligned)]
            )
            == 0
        )
        np.testing.assert_array_equal(decode_voxel_grid(aligned.read_bytes()).dense(), grid.dense())

        fused = tmp_path / "fused.ovox"
        assert (
            main(["fuse", "--curr", str(colored), "--aligned", str(aligned), str(aligned), "--out", str(fused)])
            == 0
        )
        np.testing.assert_allclose(
            decode_voxel_grid(fused.read_bytes()).dense(), grid.dense(), atol=1e-6
        )

    def test_loss_report(self, tmp_path):
        spec = GridSpec("cuboid", (4, 4, 2), ((0, 4), (0, 4), (0, 2)))
        rng = np.random.RandomState(70)
        y = rng.randint(0, 3, spec.dims).astype(np.uint8)
        gt_path = tmp_path / "gt.ovox"
        gt_path.write_bytes(encode_voxel_grid(VoxelGrid(spec, "label", y)))
        p = rng.rand(*spec.dims, 3) + 0.1
        p /= p.sum(axis=-1, keepdims=True)
        pred_path = tmp_path / "pred.ovox"
        pred_path.write_bytes(
            encode_voxel_grid(feature_rows(spec, p.astype(np.float32)))
        )
        report_path = tmp_path / "loss.json"
        assert (
            main(
                ["loss", "--pred", str(pred_path), "--gt", str(gt_path), "--terms", "ce,dice,scal", "--report", str(report_path)]
            )
            == 0
        )
        doc = json.loads(report_path.read_text(), parse_constant=_reject_constant)
        assert set(doc["terms"]) == {"ce", "dice", "scal"}
        assert doc["sum"] == pytest.approx(sum(doc["terms"].values()))
        assert all(v >= 0 or t == "scal" for t, v in doc["terms"].items())


class TestRowSparseSteps:
    """lift, align and fuse read and write feature rows without building the
    dense lattice, and keep their exit codes. lift writes the bytes of
    lift.color_voxels; align and fuse write the bytes of the dense oracles
    dense_align_history and fuse_temporal_unblocked."""

    PLANAR = RigidTransform(rot_z(0.03), np.array([0.6, 0.02, 0.0]))
    TILTED = RigidTransform(rot_z(0.2) @ np.array([[1.0, 0.0, 0.0], [0.0, 0.8, -0.6], [0.0, 0.6, 0.8]]),
                            np.array([0.5, -0.3, 0.1]))

    @staticmethod
    def write(path, grid):
        path.write_bytes(grid if isinstance(grid, bytes) else encode_voxel_grid(grid))
        return str(path)

    @staticmethod
    def poses(tmp_path, pose):
        paths = [tmp_path / "pose_hist.json", tmp_path / "pose_curr.json"]
        paths[0].write_text(pose_to_json(RigidTransform.identity()))
        paths[1].write_text(pose_to_json(pose))
        return [str(q) for q in paths]

    def align_and_fuse(self, tmp_path, hist_path, pose):
        """Run align, then fuse with zero, one and two --aligned files; check every output's bytes."""
        hist = decode_voxel_grid(Path(hist_path).read_bytes())
        poses = self.poses(tmp_path, pose)
        aligned = tmp_path / "aligned.ovox"
        assert main(["align", "--hist", hist_path, "--pose-hist", poses[0], "--pose-curr", poses[1],
                     "--out", str(aligned)]) == 0
        t_hist, t_curr = (pose_from_json(Path(q).read_bytes()) for q in poses)
        want_aligned = feature_rows(hist.spec, dense_align_history(hist, t_hist, t_curr))
        assert aligned.read_bytes() == encode_voxel_grid(want_aligned)
        for n in (0, 1, 2):
            fused = tmp_path / f"fused{n}.ovox"
            assert main(["fuse", "--curr", hist_path, "--aligned", *[str(aligned)] * n, "--out", str(fused)]) == 0
            want = feature_rows(hist.spec, fuse_temporal_unblocked(hist, [want_aligned] * n))
            assert fused.read_bytes() == encode_voxel_grid(want)

    def test_street_scene(self, tmp_path, scene_file, rig_file, capsys):
        out = tmp_path / "synth"
        assert main(["synth", "--scene", str(scene_file), "--rig", str(rig_file), "--erp", "400x200",
                     "--supersample", "1", "--out", str(out)]) == 0
        mask_path = tmp_path / "sketch.ovox"
        assert main(["sketch", "--depth", str(out / "depth.odpt"), "--out", str(mask_path)]) == 0
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        rng = np.random.RandomState(90)
        for cam in surround_rig():
            raster = ErpImage(24, 24, 4, rng.rand(24, 24, 4).astype(np.float32), "feature")
            (feat_dir / f"{cam.name}.odpt").write_bytes(encode_raster(raster))
        colored = tmp_path / "colored.ovox"
        capsys.readouterr()
        assert main(["lift", "--mask", str(mask_path), "--rig", str(rig_file), "--features", str(feat_dir),
                     "--out", str(colored)]) == 0
        rig = rig_from_json(rig_file.read_bytes())
        hits = lift.build_hit_set(CandidateMask(decode_voxel_grid(mask_path.read_bytes())), rig)
        feats = [lift.FeatureImage(c.name, decode_raster((feat_dir / f"{c.name}.odpt").read_bytes()).data) for c in rig]
        assert colored.read_bytes() == encode_voxel_grid(lift.color_voxels(hits, feats))
        assert 0 < int(hits.unhit.sum()) < len(hits)
        # bench/workloads.py parses this line
        assert capsys.readouterr().err == f"colored {int((~hits.unhit).sum())}/{len(hits)} candidate voxels\n"
        self.align_and_fuse(tmp_path, str(colored), self.PLANAR)

    @pytest.mark.parametrize("pose", ["planar", "tilted"])
    def test_sparse_history_with_negative_zero_row(self, tmp_path, pose):
        spec = default_cylindrical_spec()
        data = sparse_features(spec, np.random.RandomState(91), 0.06, 16)
        assert np.signbit(data).any()
        hist = self.write(tmp_path / "hist.ovox", feature_rows(spec, data))
        self.align_and_fuse(tmp_path, hist, self.PLANAR if pose == "planar" else self.TILTED)

    def test_wide_history_is_written_dense(self, tmp_path):
        spec = GridSpec("cylindrical", (6, 10, 4), ((0.0, 6.0), (-math.pi, math.pi), (-1.0, 1.4)))
        data = sparse_features(spec, np.random.RandomState(92), 0.3, 300)
        hist = self.write(tmp_path / "hist.ovox", feature_rows(spec, data))
        assert Path(hist).read_bytes()[45] == 2  # payload kind 2: every row's f32
        self.align_and_fuse(tmp_path, hist, self.PLANAR)

    def files(self, tmp_path):
        spec = default_cylindrical_spec()
        rng = np.random.RandomState(93)
        small = GridSpec("cuboid", (4, 4, 4), ((0, 1), (0, 1), (0, 1)))
        feat = self.write(tmp_path / "feat.ovox", feature_rows(spec, sparse_features(spec, rng, 0.05, 4)))
        return {
            "feature": feat,
            "label": self.write(tmp_path / "label.ovox", VoxelGrid(spec, "label", rng.randint(0, 3, spec.dims))),
            "occupancy": self.write(tmp_path / "occ.ovox", VoxelGrid(spec, "occupancy", rng.randint(0, 2, spec.dims))),
            "channels": self.write(tmp_path / "c3.ovox", feature_rows(spec, sparse_features(spec, rng, 0.05, 3))),
            "spec": self.write(tmp_path / "small.ovox", feature_rows(small, np.ones((4, 4, 4, 4), dtype=np.float32))),
            "truncated": self.write(tmp_path / "cut.ovox", Path(feat).read_bytes()[:-5]),
        }

    @pytest.mark.parametrize("hist,code", [("label", 3), ("occupancy", 3), ("truncated", 2), ("feature", 0)])
    def test_align_exit_codes(self, tmp_path, hist, code, capsys):
        poses = self.poses(tmp_path, self.PLANAR)
        out = tmp_path / "out.ovox"
        argv = ["align", "--hist", self.files(tmp_path)[hist], "--pose-hist", poses[0], "--pose-curr", poses[1]]
        assert main([*argv, "--out", str(out)]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("curr,aligned,code", [
        ("label", [], 3), ("occupancy", ["feature"], 3), ("feature", ["label"], 3), ("feature", ["channels"], 3),
        ("feature", ["spec"], 3), ("spec", ["feature"], 3), ("truncated", ["feature"], 2),
        ("feature", ["feature", "truncated"], 2), ("feature", ["feature", "feature"], 0),
    ])
    def test_fuse_exit_codes(self, tmp_path, curr, aligned, code, capsys):
        files = self.files(tmp_path)
        out = tmp_path / "out.ovox"
        assert main(["fuse", "--curr", files[curr], "--aligned", *[files[a] for a in aligned], "--out", str(out)]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("argv,says", [
        (["eval", "--pred", "probs", "--gt", "label", "--report"], "ray casting needs label grids"),
        (["lift", "--mask", "probs", "--rig", "rig", "--features", ".", "--out"],
         "candidate mask needs an occupancy grid"),
        (["loss", "--pred", "probs", "--gt", "probs", "--report"], "class frequencies need a label grid"),
        (["loss", "--pred", "label", "--gt", "label", "--report"], "probability grids load from feature payloads"),
    ], ids=["eval_pred", "lift_mask", "loss_gt", "loss_pred"])
    def test_payload_kind_exit_codes(self, tmp_path, rig_file, argv, says, capsys):
        # a feature file where a label or occupancy grid belongs, or a label file where features belong
        spec = GridSpec("cuboid", (2, 2, 1), ((0, 2), (0, 2), (0, 1)))
        probs = feature_rows(spec, np.full((2, 2, 1, 2), 0.5, np.float32))
        labels = VoxelGrid(spec, "label", np.eye(2, dtype=np.uint8)[..., None])
        files = {"rig": str(rig_file), "probs": self.write(tmp_path / "probs.ovox", probs),
                 "label": self.write(tmp_path / "label.ovox", labels)}
        out = tmp_path / "out"
        assert main([files.get(a, a) for a in argv] + [str(out)]) == 3
        err = capsys.readouterr().err
        assert f"domain error: {says}" in err and "Traceback" not in err
        assert not out.exists()

    def test_default_lattice_peak_memory(self, tmp_path):
        # 16 channels on about 6% of the default lattice, as colored; dense steps held two
        # (align) or three (fuse) 26 MB grids, and peaked at about 56 and 78.5 MiB. A -0.0
        # anywhere makes align interpolate along every axis, which costs more rows.
        spec = default_cylindrical_spec()
        data = sparse_features(spec, np.random.RandomState(94), 0.06, 16, negative_zero=False)
        hist = self.write(tmp_path / "hist.ovox", feature_rows(spec, data))
        poses = self.poses(tmp_path, self.PLANAR)
        aligned = str(tmp_path / "aligned.ovox")
        for argv in (["align", "--hist", hist, "--pose-hist", poses[0], "--pose-curr", poses[1], "--out", aligned],
                     ["fuse", "--curr", hist, "--aligned", aligned, "--out", str(tmp_path / "fused.ovox")]):
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < 20 * 2**20, (argv[0], peak / 2**20)


def traced_main(argv) -> tuple[int, int]:
    """main(argv)'s exit code and its peak traced memory in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStepPeaks:
    """No step holds more than its output needs: info reads feature rows without the dense
    grid, synth drops each raster once encoded, sketch bins depth without a cloud, and
    voxelize votes without a (voxels, classes) table."""

    def test_info_on_feature_rows(self, tmp_path, capsys):
        # 16 channels on about 6% of the default lattice; the dense grid alone is 25 MiB
        spec = default_cylindrical_spec()
        path = tmp_path / "feat.ovox"
        path.write_bytes(encode_voxel_grid(feature_rows(spec, sparse_features(spec, np.random.RandomState(95),
                                                                                     0.06, 16))))
        code, peak = traced_main(["info", str(path)])
        assert code == 0
        g = decode_voxel_grid(path.read_bytes())
        assert capsys.readouterr().out == (f"OVOX {g.spec.coord_sys} dims={g.spec.dims} ranges={g.spec.ranges}\n"
                                           f"payload=feature channels=16 voxels={g.spec.num_voxels}\n")
        assert peak < 6 * 2**20, peak / 2**20

    @pytest.mark.parametrize("kind", ["label", "occupancy"])
    def test_info_lines_on_dense_payloads(self, tmp_path, capsys, kind):
        spec = default_cylindrical_spec()
        grid = VoxelGrid(spec, kind, np.random.RandomState(96).randint(0, 2, spec.dims))
        path = tmp_path / "g.ovox"
        path.write_bytes(encode_voxel_grid(grid))
        assert main(["info", str(path)]) == 0
        g = decode_voxel_grid(path.read_bytes())
        assert capsys.readouterr().out == (f"OVOX {g.spec.coord_sys} dims={g.spec.dims} ranges={g.spec.ranges}\n"
                                           f"payload={kind} channels=1 voxels={g.spec.num_voxels}\n"
                                           f"nonzero={int(np.count_nonzero(grid.data))}\n")

    def test_default_raster_steps(self, tmp_path, scene_file, rig_file):
        # on the street scene at the default 2000 x 1000 raster, the steps peaked at about 40, 50 and 46 MiB
        # while synth held both rasters beside their bytes, sketch lifted a float64 cloud and voxelize bincounted
        # a dense 409,600 x 12 int64 table; synth read about 33 MiB in 200,000-pixel render blocks, 24 in 50,000
        out = tmp_path / "synth"
        steps = [
            (["synth", "--scene", str(scene_file), "--rig", str(rig_file), "--out", str(out)], 28),
            (["sketch", "--depth", str(out / "depth.odpt"), "--out", str(tmp_path / "sketch.ovox")], 24),
            (["voxelize", "--cloud", str(out / "cloud.opcd"), "--out", str(tmp_path / "pred.ovox")], 12),
        ]
        for argv, bound in steps:
            code, peak = traced_main(argv)
            assert code == 0
            assert peak < bound * 2**20, (argv[0], peak / 2**20)
