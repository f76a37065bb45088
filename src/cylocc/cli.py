"""Command-line surface tying the library into file-based pipelines.

Exit codes: 0 success, 1 usage error, 2 I/O or format error, 3 domain
error. Diagnostics go to stderr; machine-readable reports are JSON written
to --report paths or stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import lift as lift_mod
from . import synth as synth_mod
from .errors import DomainError, ShapeError
from .formats import (
    FormatError,
    decode_point_cloud,
    decode_raster,
    decode_voxel_grid,
    encode_point_cloud,
    encode_raster,
    encode_voxel_grid,
    pose_from_json,
    rig_from_json,
    scene_from_json,
    spec_from_json,
    weights_from_json,
)
from .geom import UNLABELED, LabeledPointCloud, erp_depth_to_point_cloud, surround_rig
from .grid import (
    CUBOID,
    CYLINDRICAL,
    GridSpec,
    VoxelGrid,
    class_frequencies,
    default_cylindrical_spec,
    default_label_set,
    voxelize_semantic,
)
from .losses import ProbGrid, class_weights, dice_macro, scal_loss, weighted_ce
from .metrics import generate_rays, ray_iou
from .sketch import CandidateMask, DilationSchedule, dilate_radial, sketch_from_points


# argparse type converters: each parses one flag's syntax, so a malformed
# value is a usage error; the library objects are built by the commands,
# which keep domain errors on exit code 3


def _numbers(text: str, sep: str, count: int | None = None, kind=float) -> tuple:
    """sep-separated finite numbers; exactly count of them when count is given."""
    parts = text.split(sep)
    vals = tuple(kind(v) for v in parts)
    # float() of the text reads an integer beyond float range as inf instead of overflowing
    if (count is not None and len(vals) != count) or not all(math.isfinite(float(v)) for v in parts):
        raise ValueError(text)
    return vals


def _size(text: str) -> tuple[int, int]:
    return _numbers(text, "x", 2, int)


def _floats(text: str) -> tuple[float, ...]:
    return _numbers(text, ",")


def _point(text: str) -> tuple[float, float, float]:
    return _numbers(text, ",", 3)


def _range(text: str) -> tuple[float, float]:
    return _numbers(text, ":", 2)


def _bands(text: str) -> list[tuple[float, float]]:
    return [_range(b) for b in text.split(",")]


def _angle_range(text: str) -> tuple[float, float]:
    """lo:hi in degrees (optional "deg" suffix) or radians ("rad" suffix)."""
    if text.endswith("rad"):
        return _range(text[:-3])
    lo, hi = _range(text.removesuffix("deg"))
    return math.radians(lo), math.radians(hi)


def _schedule(text: str) -> tuple[tuple[float, int], ...] | None:
    """Comma-separated end:window dilation bands, or "none"."""
    if text == "none":
        return None
    bands = []
    for part in text.split(","):
        end, window = part.split(":")
        bands.append((*_numbers(end, ":", 1), *_numbers(window, ":", 1, int)))
    return tuple(bands)


def _spec(text: str):
    """Inline spec text parsed to GridSpec arguments; "default" and JSON file paths pass through."""
    if not text.startswith((CYLINDRICAL + ":", CUBOID + ":")):
        return text
    coord, dims, nums = text.split(":", 2)
    dims = _numbers(dims, "x", 3, int)
    nums = _numbers(nums, ":")
    if coord == CYLINDRICAL and len(nums) == 4:
        return coord, dims, ((nums[0], nums[1]), (-math.pi, math.pi), (nums[2], nums[3]))
    if coord == CUBOID and len(nums) == 6:
        return coord, dims, ((nums[0], nums[1]), (nums[2], nums[3]), (nums[4], nums[5]))
    raise argparse.ArgumentTypeError(
        "inline specs are cylindrical:DIMS:rmin:rmax:zmin:zmax or cuboid:DIMS:xmin:xmax:ymin:ymax:zmin:zmax"
    )


def _terms(text: str) -> list[str]:
    """Comma-separated loss terms, each one of ce, dice and scal."""
    terms = text.split(",")
    if not set(terms) <= {"ce", "dice", "scal"}:
        raise ValueError(text)
    return terms


def _load_spec(arg) -> GridSpec:
    if arg == "default":
        return default_cylindrical_spec()
    if isinstance(arg, tuple):
        return GridSpec(*arg)
    return spec_from_json(Path(arg).read_bytes())


def _write_report(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if path is None or path == "-":
        print(text)
    else:
        Path(path).write_text(text + "\n")


def _load_grid(path: str) -> VoxelGrid:
    return decode_voxel_grid(Path(path).read_bytes())


def _cmd_info(args) -> int:
    buf = Path(args.path).read_bytes()
    magic = buf[:4]
    if magic == b"OVOX":
        g = decode_voxel_grid(buf)
        print(f"OVOX {g.spec.coord_sys} dims={g.spec.dims} ranges={g.spec.ranges}")
        print(f"payload={g.kind} channels={g.channels} voxels={g.spec.num_voxels}")
        if g.kind != "feature":
            print(f"nonzero={int(np.count_nonzero(g.data))}")
    elif magic == b"OPCD":
        c = decode_point_cloud(buf)
        print(f"OPCD points={len(c)} classes={sorted(set(c.labels.tolist()))}")
    elif magic == b"ODPT":
        r = decode_raster(buf)
        print(f"ODPT kind={r.kind} size={r.width}x{r.height} channels={r.channels}")
    else:
        raise FormatError(f"unrecognized magic {magic!r}", offset=0, fieldname="magic")
    return 0


def _cmd_synth(args) -> int:
    scene, labels = scene_from_json(Path(args.scene).read_bytes())
    rig = rig_from_json(Path(args.rig).read_bytes()) if args.rig else surround_rig()
    cyl_spec = _load_spec(args.spec)
    if cyl_spec.coord_sys != CYLINDRICAL:
        raise DomainError("synth --spec must be cylindrical; the cuboid grid is derived from it")
    r_max = cyl_spec.ranges[0][1]
    cub_spec = GridSpec(CUBOID, (160, 160, 16), ((-r_max, r_max), (-r_max, r_max), cyl_spec.ranges[2]))
    # everything is computed before the first write, so a bad input leaves no files
    gt_cyl = synth_mod.analytic_voxel_gt(scene, cyl_spec, args.supersample)
    gt_cub = synth_mod.analytic_voxel_gt(scene, cub_spec, args.supersample)
    depth, semantic = synth_mod.render_erp_depth(scene, *args.erp)
    origins = np.stack([cam.pose.translation for cam in rig])
    cloud = synth_mod.sample_scene_point_cloud(scene, origins)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "depth.odpt").write_bytes(encode_raster(depth))
    (out / "semantic.odpt").write_bytes(encode_raster(semantic))
    (out / "cloud.opcd").write_bytes(encode_point_cloud(cloud))
    (out / "gt_cylindrical.ovox").write_bytes(encode_voxel_grid(gt_cyl))
    (out / "gt_cuboid.ovox").write_bytes(encode_voxel_grid(gt_cub))
    print(f"wrote rasters, cloud and ground truth to {out}", file=sys.stderr)
    return 0


def _cmd_voxelize(args) -> int:
    cloud = decode_point_cloud(Path(args.cloud).read_bytes())
    spec = _load_spec(args.spec)
    labels = default_label_set()
    keep = cloud.labels != UNLABELED
    if not np.all(keep):
        print(f"dropping {int((~keep).sum())} unlabeled points", file=sys.stderr)
        cloud = LabeledPointCloud(cloud.points[keep], cloud.labels[keep])
    grid = voxelize_semantic(cloud, spec, labels)
    Path(args.out).write_bytes(encode_voxel_grid(grid))
    return 0


def _cmd_sketch(args) -> int:
    depth = decode_raster(Path(args.depth).read_bytes())
    spec = _load_spec(args.spec)
    cloud = erp_depth_to_point_cloud(depth, None, stride=args.stride)
    mask = sketch_from_points(cloud, spec, args.min_points)
    if args.schedule is not None:
        mask = dilate_radial(mask, DilationSchedule(args.schedule))
    Path(args.out).write_bytes(encode_voxel_grid(mask.grid))
    print(
        f"sketch occupies {mask.occupied_count} voxels ({mask.occupied_fraction:.2%})",
        file=sys.stderr,
    )
    return 0


def _cmd_lift(args) -> int:
    mask = CandidateMask(_load_grid(args.mask))
    rig = rig_from_json(Path(args.rig).read_bytes())
    features = []
    for cam in rig:
        path = Path(args.features) / f"{cam.name}.odpt"
        raster = decode_raster(path.read_bytes())
        if raster.kind != "feature":
            raise FormatError(f"{path} holds a {raster.kind} raster, not features", fieldname="kind")
        features.append(lift_mod.FeatureImage(cam.name, raster.data))
    hits = lift_mod.build_hit_set(mask, rig)
    grid = lift_mod.color_voxels(hits, features)
    Path(args.out).write_bytes(encode_voxel_grid(grid))
    print(f"colored {int((~hits.unhit).sum())}/{len(hits)} candidate voxels", file=sys.stderr)
    return 0


def _cmd_align(args) -> int:
    hist = _load_grid(args.hist)
    t_hist = pose_from_json(Path(args.pose_hist).read_bytes())
    t_curr = pose_from_json(Path(args.pose_curr).read_bytes())
    aligned = lift_mod.align_history(hist, t_hist, t_curr)
    Path(args.out).write_bytes(encode_voxel_grid(aligned))
    return 0


def _cmd_fuse(args) -> int:
    curr = _load_grid(args.curr)
    aligned = [_load_grid(p) for p in args.aligned]
    fused = lift_mod.fuse_temporal(curr, aligned)
    Path(args.out).write_bytes(encode_voxel_grid(fused))
    return 0


def _cmd_eval(args) -> int:
    pred = _load_grid(args.pred)
    gt = _load_grid(args.gt)
    rays = generate_rays(*args.rays, args.elev, args.origin)
    report = ray_iou(pred, gt, rays, args.thresholds, bands=args.bands)
    doc = report.to_dict()
    doc["config"].update({"rays": args.rays, "elev_rad": args.elev, "origin": args.origin})
    _write_report(doc, args.report)
    print(f"RayIoU {report.ray_iou:.4f}", file=sys.stderr)
    return 0


def _cmd_loss(args) -> int:
    pred = ProbGrid.from_voxel_grid(_load_grid(args.pred))
    gt = _load_grid(args.gt)
    if gt.spec != pred.spec:
        raise ShapeError("pred and gt grids must share a spec")
    c = pred.num_classes
    if args.weights == "auto":
        w = class_weights(class_frequencies(gt, c))
    else:
        w = weights_from_json(Path(args.weights).read_bytes())
    doc: dict = {"terms": {}}
    pred_labels = VoxelGrid(gt.spec, "label", np.argmax(pred.probs, axis=3).astype(np.uint8))
    for term in args.terms:
        if term == "ce":
            doc["terms"]["ce"] = weighted_ce(pred, gt, w)
        elif term == "dice":
            doc["terms"]["dice"] = dice_macro(pred_labels, gt, c)
        elif term == "scal":
            doc["terms"]["scal"] = scal_loss(pred, gt)
    doc["sum"] = float(sum(doc["terms"].values()))
    _write_report(doc, args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cylocc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("info", help="summarize a binary file")
    s.add_argument("path")
    s.set_defaults(func=_cmd_info)

    s = sub.add_parser("synth", help="render a scene: rasters, cloud, ground-truth grids")
    s.add_argument("--scene", required=True)
    s.add_argument("--rig", default=None)
    s.add_argument("--erp", type=_size, default="2000x1000")
    s.add_argument("--spec", type=_spec, default="default")
    s.add_argument("--supersample", type=int, default=3)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_synth)

    s = sub.add_parser("voxelize", help="majority-vote voxelization of a point cloud")
    s.add_argument("--cloud", required=True)
    s.add_argument("--spec", type=_spec, default="default")
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_voxelize)

    s = sub.add_parser("sketch", help="candidate mask from an ERP depth raster")
    s.add_argument("--depth", required=True)
    s.add_argument("--spec", type=_spec, default="default")
    s.add_argument("--min-points", type=int, default=1, dest="min_points")
    s.add_argument("--schedule", type=_schedule, default="8.5:0,17:1,25.6:2")
    s.add_argument("--stride", type=int, default=1)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_sketch)

    s = sub.add_parser("lift", help="color candidate voxels from camera features")
    s.add_argument("--mask", required=True)
    s.add_argument("--rig", required=True)
    s.add_argument("--features", required=True, help="directory of <camera>.odpt rasters")
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_lift)

    s = sub.add_parser("align", help="warp a historical feature grid to the current frame")
    s.add_argument("--hist", required=True)
    s.add_argument("--pose-hist", required=True, dest="pose_hist")
    s.add_argument("--pose-curr", required=True, dest="pose_curr")
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_align)

    s = sub.add_parser("fuse", help="average current and aligned feature grids")
    s.add_argument("--curr", required=True)
    s.add_argument("--aligned", nargs="*", default=[])
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_fuse)

    s = sub.add_parser("eval", help="RayIoU of prediction vs ground truth")
    s.add_argument("--pred", required=True)
    s.add_argument("--gt", required=True)
    s.add_argument("--rays", type=_size, default="512x32")
    s.add_argument("--elev", type=_angle_range, default="-20:8.6deg")
    s.add_argument("--origin", type=_point, default="0,0,0")
    s.add_argument("--thresholds", type=_floats, default="1,2,4")
    s.add_argument("--bands", type=_bands, default=None)
    s.add_argument("--report", default=None)
    s.set_defaults(func=_cmd_eval)

    s = sub.add_parser("loss", help="loss terms of a probability grid against labels")
    s.add_argument("--pred", required=True)
    s.add_argument("--gt", required=True)
    s.add_argument("--weights", default="auto")
    s.add_argument("--terms", type=_terms, default="ce,dice,scal")
    s.add_argument("--report", default=None)
    s.set_defaults(func=_cmd_loss)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except (DomainError, ShapeError) as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
