"""Record the reference outputs that bench/run.py checks ops against.

    python3 bench/record_references.py [--seeds 0-9] [--workload NAME]

Runs every reference slot of each workload for each seed (online_frames:
its first frames in order; eval_sweep: each checkpoint; cli_files: each
scene) and writes bench/references.json. Re-record only when a change is
meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def record(name: str, seed: int) -> list[dict]:
    work = BENCH / ".work" / f"record-{name}-{seed}"
    wl = workloads.WORKLOADS[name](seed, work)
    try:
        wl.setup()
        out_records = []
        for k in range(wl.reference_slots):
            out = wl.op(k)
            rec, problems = wl.inspect(out)
            wl.release(out)
            if problems:
                raise SystemExit(f"{name} seed {seed} op {k}: {problems}")
            out_records.append(rec)
        return out_records
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9", help="inclusive range lo-hi")
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None)
    args = p.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    path = BENCH / "references.json"
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        for seed in range(lo, hi + 1):
            records = record(name, seed)
            refs = json.loads(path.read_text()) if path.is_file() else {}
            refs.setdefault(name, {})[str(seed)] = records
            path.write_text(json.dumps(refs, allow_nan=False, sort_keys=True) + "\n")
            print(f"recorded {name} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
