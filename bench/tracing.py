"""Span recorder for the traced benchmark run.

Spans come from wrappers installed on the public functions of each cylocc
layer. A wrapper replaces the function everywhere a cylocc module binds it
(its own module, the package root, and modules that import it by name, such
as ``cylocc.cli``), so calls made through module globals nest correctly:
``ray_iou`` -> ``cast_rays`` gives a child span. Each span records its name,
start, end, parent, op id and the counters taken at that boundary. Spans stay
in memory until the run writes them out.

With ``memory`` on, tracemalloc must be running and each span also records
its peak traced memory above the level at which it started.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc

import numpy as np

MIB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counters", "start_mem", "peak_abs")

    def __init__(self, name, start, parent, op, start_mem):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counters = {}
        self.start_mem = start_mem
        self.peak_abs = start_mem

    @property
    def peak_mib(self) -> float:
        return (self.peak_abs - self.start_mem) / MIB

    def to_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "counters": self.counters,
                "peak_mib": self.peak_mib if self.start_mem is not None else None}


class Recorder:
    """Collects spans; `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None
        self.memory = False

    def open(self, name: str) -> int:
        mem = None
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self.stack:
                parent = self.spans[self.stack[-1]]
                parent.peak_abs = max(parent.peak_abs, peak)
            tracemalloc.reset_peak()
            mem = cur
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.op, mem))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        if self.memory:
            span.peak_abs = max(span.peak_abs, tracemalloc.get_traced_memory()[1])
            if self.stack:
                parent = self.spans[self.stack[-1]]
                parent.peak_abs = max(parent.peak_abs, span.peak_abs)
        return span

    def self_times(self) -> list[float]:
        """Per-span duration minus the time covered by its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own


# ---------------------------------------------------------------------------
# counters taken at span boundaries: (result, args) -> {counter: value}


def _points(out, args):
    return {"geom.points_lifted": len(out)}


def _candidates_raw(out, args):
    return {"sketch.candidates_raw": out.occupied_count}


def _candidates(out, args):
    return {"sketch.candidates": out.occupied_count,
            "sketch.candidate_frac": out.occupied_count / out.spec.num_voxels}


def _hits(out, args):
    counts = out.hit_counts
    return {"lift.unhit_voxels": int(np.count_nonzero(counts == 0)),
            "lift.cameras_per_candidate": float(counts.mean()) if len(counts) else 0.0}


def _aligned(out, args):
    nonzero = np.any(out.data != 0, axis=-1)
    return {"lift.aligned_nonzero_frac": float(np.count_nonzero(nonzero)) / nonzero.size}


def _rays(out, args):
    return {"metrics.rays_cast": len(out)}


def _gt_hits(out, args):
    rays = len(args[2])
    first = out.counts[0]
    total = int(first.tp.sum() + first.fn.sum())
    counters = {"metrics.gt_hit_frac": total / rays if rays else 0.0}
    for tag, (_, band) in zip(("near", "mid", "far"), sorted(out.bands.items())):
        c = band.counts[0]
        counters[f"metrics.gt_hits.{tag}"] = int(c.tp.sum() + c.fn.sum())
    return counters


def _written(out, args):
    return {"formats.bytes_written": len(out)}


def _read(out, args):
    return {"formats.bytes_read": len(args[0])}


def _exit(out, args):
    return {"cli.nonzero_exits": int(out != 0)}


# (module, attribute, span name, counter function); cli.main spans are named
# after the subcommand, cli.<cmd>
TARGETS = [
    ("cylocc.geom", "erp_depth_to_point_cloud", "geom.erp_depth_to_point_cloud", _points),
    ("cylocc.grid", "voxelize_semantic", "grid.voxelize_semantic", None),
    ("cylocc.sketch", "sketch_from_points", "sketch.sketch_from_points", _candidates_raw),
    ("cylocc.sketch", "dilate_radial", "sketch.dilate_radial", _candidates),
    ("cylocc.lift", "build_hit_set", "lift.build_hit_set", _hits),
    ("cylocc.lift", "color_voxels", "lift.color_voxels", None),
    ("cylocc.lift", "align_history", "lift.align_history", _aligned),
    ("cylocc.lift", "fuse_temporal", "lift.fuse_temporal", None),
    ("cylocc.metrics", "cast_rays", "metrics.cast_rays", _rays),
    ("cylocc.metrics", "ray_iou", "metrics.ray_iou", _gt_hits),
    ("cylocc.losses", "weighted_ce", "losses.weighted_ce", None),
    ("cylocc.losses", "scal_loss", "losses.scal_loss", None),
    ("cylocc.losses", "dice_macro", "losses.dice_macro", None),
    ("cylocc.synth", "render_erp_depth", "synth.render_erp_depth", None),
    ("cylocc.synth", "analytic_voxel_gt", "synth.analytic_voxel_gt", None),
    ("cylocc.synth", "sample_scene_point_cloud", "synth.sample_scene_point_cloud", None),
    ("cylocc.formats", "encode_voxel_grid", "formats.encode", _written),
    ("cylocc.formats", "encode_point_cloud", "formats.encode", _written),
    ("cylocc.formats", "encode_raster", "formats.encode", _written),
    ("cylocc.formats", "decode_voxel_grid", "formats.decode", _read),
    ("cylocc.formats", "decode_point_cloud", "formats.decode", _read),
    ("cylocc.formats", "decode_raster", "formats.decode", _read),
    ("cylocc.cli", "main", None, _exit),
]


def _wrap(rec: Recorder, fn, name, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is None:  # between ops: the benchmark's own checks
            return fn(*args, **kwargs)
        span_name = name if name is not None else "cli." + str(args[0][0])
        index = rec.open(span_name)
        try:
            out = fn(*args, **kwargs)
        finally:
            span = rec.close(index)
        if counter is not None:
            span.counters.update(counter(out, args))
        return out

    return wrapper


def install(rec: Recorder):
    """Install span wrappers; returns an undo function restoring the originals."""
    import cylocc.cli  # noqa: F401  (binds codecs and metrics by name)
    import cylocc.losses

    undo = []
    for mod_name, attr, name, counter in TARGETS:
        fn = getattr(sys.modules[mod_name], attr)
        wrapper = _wrap(rec, fn, name, counter)
        for mod_key, mod in list(sys.modules.items()):
            if mod_key != "cylocc" and not mod_key.startswith("cylocc."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, fn))
    # ProbGrid is a class checked with isinstance, so its constructor is
    # wrapped in place rather than the name
    prob_init = cylocc.losses.ProbGrid.__init__
    cylocc.losses.ProbGrid.__init__ = _wrap(rec, prob_init, "losses.ProbGrid", None)
    undo.append((cylocc.losses.ProbGrid, "__init__", prob_init))

    def restore():
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics

CLI_COMMANDS = ("synth", "sketch", "voxelize", "lift", "align", "fuse", "eval")
SPAN_MS = [
    "geom.erp_depth_to_point_cloud", "grid.voxelize_semantic",
    "sketch.sketch_from_points", "sketch.dilate_radial",
    "lift.build_hit_set", "lift.color_voxels", "lift.align_history", "lift.fuse_temporal",
    "metrics.cast_rays", "metrics.ray_iou",
    "losses.ProbGrid", "losses.weighted_ce", "losses.scal_loss", "losses.dice_macro",
    "synth.render_erp_depth", "synth.analytic_voxel_gt", "synth.sample_scene_point_cloud",
    "formats.encode", "formats.decode",
] + [f"cli.{c}" for c in CLI_COMMANDS]
SPAN_PEAK = [
    "lift.align_history", "lift.fuse_temporal", "lift.color_voxels", "metrics.cast_rays",
    "synth.render_erp_depth", "synth.analytic_voxel_gt",
]
# counter -> (unit, how one op's calls combine)
COUNTERS = {
    "geom.points_lifted": ("count", "sum"),
    "sketch.candidates_raw": ("count", "sum"),
    "sketch.candidates": ("count", "sum"),
    "sketch.candidate_frac": ("ratio", "mean"),
    "lift.unhit_voxels": ("count", "sum"),
    "lift.cameras_per_candidate": ("count", "mean"),
    "lift.aligned_nonzero_frac": ("ratio", "mean"),
    "metrics.rays_cast": ("count", "sum"),
    "metrics.gt_hit_frac": ("ratio", "mean"),
    "metrics.gt_hits.near": ("count", "sum"),
    "metrics.gt_hits.mid": ("count", "sum"),
    "metrics.gt_hits.far": ("count", "sum"),
    "formats.bytes_written": ("bytes", "sum"),
    "formats.bytes_read": ("bytes", "sum"),
}
TRACE_METRICS = {
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_frac": "ratio",
    "trace.op_ms": "ms",
    "trace.glue_ms": "ms",
    "trace.glue_frac": "ratio",
}


def per_layer_catalog() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{n}.ms", "ms") for n in SPAN_MS]
    out += [(f"cli.{c}.self_ms", "ms") for c in CLI_COMMANDS]
    out += [(f"{n}.peak_mib", "MiB") for n in SPAN_PEAK]
    out += [("metrics.cast_rays.calls", "count"), ("metrics.rays_per_s", "rays/s"),
            ("cli.nonzero_exits", "count")]
    out += [(n, unit) for n, (unit, _) in COUNTERS.items()]
    out += list(TRACE_METRICS.items())
    return out


def _median(values, default=0.0):
    return float(statistics.median(values)) if values else default


def per_layer_metrics(timed: Recorder, timed_ops: list, memory: Recorder, overhead: dict) -> dict:
    """Reduce spans to per-layer values.

    `timed` holds set-up spans (op "setup") and the spans of the traced timed
    ops, whose (op id, wall seconds) pairs are `timed_ops`; `memory` holds the
    spans of the tracemalloc pass. A `.ms` value is a span's self time summed
    within one op, median over the timed ops that call it (`cli.<cmd>.ms` is
    the command's whole time, its self time is `.self_ms`). A function only
    set-up calls reports its set-up total; one never called reports 0.
    """
    ops = [op for op, _ in timed_ops]
    own: dict[tuple, float] = {}
    whole: dict[tuple, float] = {}
    calls: dict[tuple, int] = {}
    counters: dict[tuple, list] = {}
    for span, t in zip(timed.spans, timed.self_times()):
        key = (span.op, span.name)
        own[key] = own.get(key, 0.0) + t
        whole[key] = whole.get(key, 0.0) + (span.end - span.start)
        calls[key] = calls.get(key, 0) + 1
        for c, v in span.counters.items():
            counters.setdefault((span.op, c), []).append(v)

    def over_ops(table, name, reduce=lambda v: v):
        vals = [reduce(table[(op, name)]) for op in ops if (op, name) in table]
        if not vals and ("setup", name) in table:
            vals = [reduce(table[("setup", name)])]
        return _median(vals)

    out = {}
    for n in SPAN_MS:
        out[f"{n}.ms"] = 1e3 * over_ops(whole if n.startswith("cli.") else own, n)
    for c in CLI_COMMANDS:
        out[f"cli.{c}.self_ms"] = 1e3 * over_ops(own, f"cli.{c}")
    for n in SPAN_PEAK:
        out[f"{n}.peak_mib"] = max((s.peak_mib for s in memory.spans if s.name == n), default=0.0)
    out["metrics.cast_rays.calls"] = over_ops(calls, "metrics.cast_rays")
    rays = sum(sum(counters.get((op, "metrics.rays_cast"), [])) for op in ops)
    cast_s = sum(own.get((op, "metrics.cast_rays"), 0.0) for op in ops)
    out["metrics.rays_per_s"] = rays / cast_s if cast_s > 0 else 0.0
    out["cli.nonzero_exits"] = sum(sum(v) for (_, c), v in counters.items() if c == "cli.nonzero_exits")
    for c, (_, how) in COUNTERS.items():
        out[c] = over_ops(counters, c, sum if how == "sum" else statistics.fmean)
    tops: dict = {}
    for span in timed.spans:
        if span.parent < 0:
            tops[span.op] = tops.get(span.op, 0.0) + (span.end - span.start)
    walls = [w for _, w in timed_ops]
    glue = [w - tops.get(op, 0.0) for op, w in timed_ops]
    out["trace.op_ms"] = 1e3 * _median(walls)
    out["trace.glue_ms"] = 1e3 * _median(glue)
    out["trace.glue_frac"] = _median([g / w for g, w in zip(glue, walls)])
    out.update(overhead)
    return out
