"""Command-line tests: exit-code contract and an end-to-end file pipeline
(synth -> sketch -> voxelize -> lift -> align -> fuse -> eval -> loss)."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylocc.cli import main
from cylocc.formats import (
    decode_voxel_grid,
    encode_raster,
    encode_voxel_grid,
    pose_to_json,
    rig_to_json,
)
from cylocc.geom import ErpImage, RigidTransform, surround_rig
from cylocc.grid import GridSpec, VoxelGrid, default_cylindrical_spec
from oracles import scene_to_json


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
        a.write_bytes(encode_voxel_grid(VoxelGrid.zeros(default_cylindrical_spec(), "label")))
        other = GridSpec("cuboid", (4, 4, 4), ((0, 1), (0, 1), (0, 1)))
        b.write_bytes(encode_voxel_grid(VoxelGrid.zeros(other, "label")))
        assert main(["eval", "--pred", str(a), "--gt", str(b)]) == 3

    def test_info_on_valid_file_succeeds(self, tmp_path, capsys):
        p = tmp_path / "g.ovox"
        p.write_bytes(encode_voxel_grid(VoxelGrid.zeros(default_cylindrical_spec(), "label")))
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
        gt.write_bytes(encode_voxel_grid(VoxelGrid.zeros(spec, "label")))
        pred = tmp_path / "pred.ovox"
        pred.write_bytes(encode_voxel_grid(VoxelGrid(spec, "feature", np.full((2, 2, 1, 2), 0.5, np.float32))))
        weights = tmp_path / "w.json"
        weights.write_text('{"frequencies": "many"}')
        assert main(["loss", "--pred", str(pred), "--gt", str(gt), "--weights", str(weights)]) == 2

    def test_non_finite_weights_constant_is_format_error(self, tmp_path, capsys):
        spec = GridSpec("cuboid", (2, 2, 1), ((0, 2), (0, 2), (0, 1)))
        gt = tmp_path / "gt.ovox"
        gt.write_bytes(encode_voxel_grid(VoxelGrid.zeros(spec, "label")))
        pred = tmp_path / "pred.ovox"
        pred.write_bytes(encode_voxel_grid(VoxelGrid(spec, "feature", np.full((2, 2, 1, 2), 0.5, np.float32))))
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"frequencies": [0.5, 0.5], "constant": math.nan}))
        report = tmp_path / "report.json"
        args = ["loss", "--pred", str(pred), "--gt", str(gt), "--weights", str(weights), "--report", str(report)]
        assert main(args) == 2
        assert "format error" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("scene", [
        {"primitives": 5},
        {"primitives": [{"shape": "sphere", "center": [0, -10], "radius": 0.7, "label": "vegetation"}]},
        {"primitives": [{"shape": "box", "min": [9, -1], "max": [10, 1, 0.3], "label": "vehicles"}]},
        {"primitives": [{"shape": "box", "min": [9, -1, -1.3], "max": [10, 1], "label": "vehicles"}]},
        {"primitives": [{"shape": "sphere", "center": [0, -10, 0], "radius": math.nan, "label": "vegetation"}]},
        {"primitives": [{"shape": "half_space", "height": math.inf, "label": "road"}]},
        {"primitives": [{"shape": "cylinder", "center": [-6, 8, 0], "radius": 0.25, "z_min": -1.3, "z_max": 2.3,
                         "label": "pole"}]},
    ])
    def test_malformed_scene_is_format_error(self, tmp_path, scene, capsys):
        p = tmp_path / "scene.json"
        p.write_text(json.dumps(scene))
        assert main(["synth", "--scene", str(p), "--erp", "8x4", "--out", str(tmp_path / "out")]) == 2
        assert "format error" in capsys.readouterr().err

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
        g = VoxelGrid.zeros(default_cylindrical_spec(), "label")
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
        path.write_bytes(encode_voxel_grid(VoxelGrid.zeros(default_cylindrical_spec(), "label")))
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
        path.write_bytes(encode_voxel_grid(VoxelGrid.zeros(default_cylindrical_spec(), "label")))
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
        g.write_bytes(encode_voxel_grid(VoxelGrid.zeros(default_cylindrical_spec(), "label")))
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
        hit_values = grid.data[grid.data != 0]
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
        np.testing.assert_array_equal(decode_voxel_grid(aligned.read_bytes()).data, grid.data)

        fused = tmp_path / "fused.ovox"
        assert (
            main(["fuse", "--curr", str(colored), "--aligned", str(aligned), str(aligned), "--out", str(fused)])
            == 0
        )
        np.testing.assert_allclose(
            decode_voxel_grid(fused.read_bytes()).data, grid.data, atol=1e-6
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
            encode_voxel_grid(VoxelGrid(spec, "feature", p.astype(np.float32)))
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
