"""cylocc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload online_frames --seed 0 --seconds 15 --trace 0

Run from the repository root; cylocc is imported from ./src. With --trace 0
the run sets the workload up several times (setup_s is the median), runs ops
back to back for --seconds of op time with tracing off, then measures one op's
peak traced memory in an untimed tracemalloc pass. With --trace 1 it reports
per-layer metrics instead: span wrappers record a traced set-up, an untraced
and a traced timed phase (their ops_per_s give the tracing overhead) and a
tracemalloc pass for span peaks. Every op's output is checked outside the
timed window; see README.md in this directory.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full result, with provenance (and spans
for traced runs), goes to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIB = 1024.0 * 1024.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_peak_mib": "MiB"}


def cap_blas_threads(nproc: int) -> dict:
    """Cap BLAS pools at the usable core count; must run before numpy loads."""
    for var in BLAS_VARS:
        try:
            n = int(os.environ.get(var, nproc))
        except ValueError:
            n = nproc
        os.environ[var] = str(max(1, min(n, nproc)))
    return {var: os.environ[var] for var in BLAS_VARS}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(args, wl, nproc: int, threads: dict) -> dict:
    import cylocc
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": threads, "cylocc": cylocc.__version__, "git_commit": git_commit(),
        "setups": wl.setups, "sizes": wl.sizes(), "loop": "closed, one op at a time",
    }


def _same(got, want, tol: float) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(_same(g, w, tol) for g, w in zip(got, want))
    if isinstance(want, float) or isinstance(got, float):
        if got is None or want is None:
            return got is want
        if math.isnan(want):
            return math.isnan(got)
        return math.isclose(got, want, rel_tol=tol, abs_tol=1e-12)
    return got == want


class Checker:
    """Checks every op's output and counts attempted and failed ops."""

    def __init__(self, wl, references, tolerance):
        self.wl = wl
        self.references = references
        self.tolerance = tolerance
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_op(self, k: int):
        """Run op k; returns (seconds, output or None when it raised)."""
        t0 = time.perf_counter()
        try:
            out = self.wl.op(k)
        except Exception:
            seconds = time.perf_counter() - t0
            self.fail(k, ["op raised: " + traceback.format_exc()])
            return seconds, None
        return time.perf_counter() - t0, out

    def fail(self, k: int, problems: list[str]):
        self.attempted += 1
        self.failed += 1
        self.failures.append({"op": k, "problems": problems})
        print(f"op {k} failed: " + "; ".join(problems), file=sys.stderr)

    def check(self, k: int, out):
        if out is None:
            return
        try:
            rec, problems = self.wl.inspect(out)
            slot = self.wl.slot(k)
            if self.references is not None and slot is not None and slot < len(self.references):
                for key, want in self.references[slot].items():
                    if key not in rec:
                        problems.append(f"{key} missing from the output record")
                    elif not _same(rec[key], want, self.tolerance.get(key, 0.0)):
                        problems.append(f"{key} = {rec[key]!r} differs from the reference {want!r}")
        except Exception:
            problems = ["output check raised: " + traceback.format_exc()]
        finally:
            self.wl.release(out)
        if problems:
            self.fail(k, problems)
        else:
            self.attempted += 1


def timed_phase(checker: Checker, seconds: float, first: int, rec=None):
    """Closed loop: ops back to back until their summed time reaches `seconds`.

    Returns [(op id, seconds)]; checks run between ops, outside the timing.
    """
    ops = []
    k = first
    while sum(t for _, t in ops) < seconds:
        if rec is not None:
            rec.op = k
        t, out = checker.run_op(k)
        if rec is not None:
            rec.op = None
        ops.append((k, t))
        checker.check(k, out)
        k += 1
    return ops


def peak_op(checker: Checker) -> float:
    """Peak traced memory (MiB) of op 0 above its starting level."""
    checker.wl.restart()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, out = checker.run_op(0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    checker.check(0, out)
    return peak / MIB


def end_to_end(checker: Checker, seconds: float, notes: dict) -> dict:
    wl = checker.wl
    setup = []
    for _ in range(wl.setups):
        t0 = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t0)
    ops = timed_phase(checker, seconds, 0)
    lat = [t for _, t in ops]
    peak = peak_op(checker)
    notes.update({"setup_s_samples": setup, "op_seconds": lat})
    notes["summary"] = {
        "setup_s": f"median of {len(setup)} set-ups",
        "ops_per_s": f"{len(lat)} ops in {sum(lat):.3f} s of op time",
        "op_ms_p50": f"median of n={len(lat)} ops",
        "op_peak_mib": "op 0, tracemalloc, untimed",
    }
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": 1e3 * statistics.median(lat),
        "op_peak_mib": peak,
    }


def per_layer(checker: Checker, seconds: float, notes: dict) -> dict:
    import tracing

    wl = checker.wl
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        rec.op = "setup"
        wl.setup()
        rec.op = None
    finally:
        restore()
    untraced = timed_phase(checker, seconds, 0)
    restore = tracing.install(rec)
    try:
        traced = timed_phase(checker, seconds, untraced[-1][0] + 1, rec)
    finally:
        restore()

    mem = tracing.Recorder()
    mem.memory = True
    restore = tracing.install(mem)
    tracemalloc.start()
    try:
        mem.op = "setup"
        wl.setup()
        mem.op = 0
        _, out = checker.run_op(0)
        mem.op = None
    finally:
        tracemalloc.stop()
        restore()
    checker.check(0, out)

    rate_u = len(untraced) / sum(t for _, t in untraced)
    rate_t = len(traced) / sum(t for _, t in traced)
    overhead = {"trace.ops_per_s_untraced": rate_u, "trace.ops_per_s_traced": rate_t,
                "trace.overhead_frac": 1.0 - rate_t / rate_u}
    notes["spans"] = [s.to_dict(i) for i, s in enumerate(rec.spans)]
    notes["memory_spans"] = [s.to_dict(i) for i, s in enumerate(mem.spans)]
    notes["op_seconds"] = {"untraced": untraced, "traced": traced}
    return tracing.per_layer_metrics(rec, traced, mem, overhead)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    nproc = len(os.sched_getaffinity(0))
    threads = cap_blas_threads(nproc)
    src = ROOT / "src"
    if not (src / "cylocc" / "__init__.py").is_file():
        print(f"error: no cylocc package at {src / 'cylocc'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import cylocc
    import tracing
    import workloads

    if Path(cylocc.__file__).resolve().parent != (src / "cylocc").resolve():
        print(f"error: imported cylocc from {cylocc.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    ref_path = BENCH / "references.json"
    refs = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    references = refs.get(args.workload, {}).get(str(args.seed))
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    checker = Checker(wl, references, workloads.TOLERANCE)
    notes: dict = {}
    try:
        if args.trace:
            values = per_layer(checker, args.seconds, notes)
            units = dict(tracing.per_layer_catalog())
        else:
            values = end_to_end(checker, args.seconds, notes)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    prov = provenance(args, wl, nproc, threads)
    error_rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"cylocc benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f"  references={'yes' if references is not None else 'no (invariants only)'}")
    for name, unit in units.items():
        note = notes.get("summary", {}).get(name, "")
        print(f"  {name:<34} {values[name]:>16.6f} {unit:<7} {note}")
    print(f"  {'error_rate':<34} {error_rate:>16.6f} ratio   {checker.failed} of {checker.attempted} ops failed")
    print("provenance " + json.dumps(prov, sort_keys=True))

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": checker.failed == 0, "attempted": checker.attempted, "failed": checker.failed,
              "metrics": metrics}
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    detail = {**result, "error_rate": error_rate, "provenance": prov, "failures": checker.failures,
              "references": references is not None, **notes}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
