#!/usr/bin/env python3
"""Benchmark of the randkf command line, end to end and per layer.

python3 perfbench/run.py --workload mc-dropout --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is loaded from `src/`.

Workloads (inputs drawn from --seed; see workloads.py):
  mc-dropout          `randkf montecarlo` on configs/simulation1.yaml: the
                      paper's headline experiment, split between truth
                      sampling/NEES and the filter; models are memoized
  sweep-dropout       `randkf sweep` on the sim1 model over a seeded gamma
                      grid: covariance only, dominated by model rebuilds
  filter-partitioned  `randkf filter` on a B=8 block-dropout model and a
                      151-row measurement CSV: dominated by the 2^B model
                      build; the largest memory footprint

--trace 0 calls the CLI's entry point back to back for --seconds in one
child process (child.py) and reports per-call medians of
  steps_per_s      predict/update cycles per second of CLI wall time
  cpu_ms_per_step  user + system CPU of the child per cycle
  peak_rss_mb      peak resident memory of the child (from wait4)
  setup_s          import randkf, parse the workload config and build the
                   step-0 model in a fresh interpreter; median of several
Times are scaled to a nominal host: each is multiplied by REF_S over the
time of a fixed reference loop run next to it (measure.py, child.py), so
that the shared host's changes of speed cancel; the unscaled steps_per_s
and the host's speed are printed on their own line.
--trace 1 runs the CLI in process, alternating an untraced invocation with
a traced one, and reports per-layer calls and self times (medians over the
traced invocations), the tracing overhead and the one-shot scaling rows of
scale.py.  The spans of the first traced invocation are written to
.bench_work/trace-<workload>.json.

Every invocation's outputs are checked; a failed check or a non-zero exit
counts in `failed`.  The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

# Only the standard library until the launcher runs: see launch.py.
from launch import Launcher

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 170      # the whole run, including set-up and scaling rows


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "randkf" / "cli.py").is_file():
        print(f"perfbench: no randkf sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    launcher = Launcher()
    try:
        import numpy as np

        import measure
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        sys.path.insert(0, str(measure.SRC))
        deadline = measure.Deadline(TIME_LIMIT_S)
        measure.WORK_DIR.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                     dir=measure.WORK_DIR))
        try:
            wl = WORKLOADS[args.workload](ROOT, work, args.seed)
            if args.trace:
                attempted, failed, errors, metrics = measure.traced_run(
                    wl, work, args.seconds, args.seed, deadline)
            else:
                attempted, failed, errors, metrics = measure.timed_run(
                    launcher, wl, work, args.seconds, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    finally:
        launcher.close()

    env = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
           "numpy": np.__version__, "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha()}
    print("env " + json.dumps(env))
    for err in errors:
        print(f"FAILED {err}")
    print(f"{wl.name} failed_ops {failed}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
