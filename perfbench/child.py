"""Child process of a timed run: repeated CLI calls, or one set-up sample.

  python3 perfbench/child.py calls SECONDS OUT RECORDS -- ARGV...
      calls `randkf.cli.main(ARGV + ["--out", OUT/<i>])` back to back for
      SECONDS, with a block of the reference loop before the first call and
      after every call, and writes per-call and per-block times to RECORDS
  python3 perfbench/child.py setup CONFIG
      prints the seconds to import randkf, parse CONFIG and build the step-0
      model, then the seconds of one repetition of the reference loop

The reference loop is a fixed 2x2 Kalman covariance recursion in numpy,
the same mix of interpreter and small-array work as the library's.  The
shared host this benchmark runs on changes speed by up to 2x over minutes;
a call timed against the reference loop run next to it reads the same in a
slow and a fast minute, while a program change moves the call but not the
loop.  Only the standard library is imported at the top, so that the set-up
sample times numpy's import as randkf pays it.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

REF_ITERS = 1000       # recursion steps per repetition of the loop
REF_SHARE = 0.1        # a block runs at least this share of the last call
REF_MIN_REPS = 3
REF_FIRST_S = 0.2      # the block before the first call


def reference_loop() -> None:
    import numpy as np
    F = np.array([[1.0, 0.1], [0.0, 1.0]])
    H = np.array([[1.0, 0.0]])
    Q, R, I = 0.01 * np.eye(2), np.array([[0.5]]), np.eye(2)
    P = np.eye(2)
    for _ in range(REF_ITERS):
        P = F @ P @ F.T + Q
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        P = (I - K @ H) @ P
        P = 0.5 * (P + P.T)


def timed(fn, *args) -> tuple[object, float, float]:
    """Result, wall and CPU seconds of one call."""
    w, c = perf_counter(), process_time()
    result = fn(*args)
    return result, perf_counter() - w, process_time() - c


def reference_block(seconds: float) -> dict:
    """Median wall and CPU seconds of one repetition, over a block."""
    reps, end = [], perf_counter() + seconds
    while len(reps) < REF_MIN_REPS or perf_counter() < end:
        reps.append(timed(reference_loop)[1:])
    return {"wall": median(r[0] for r in reps),
            "cpu": median(r[1] for r in reps), "reps": len(reps)}


def calls(seconds: float, out: Path, records: Path, argv: list[str]) -> None:
    from randkf.cli import main

    def call(i: int) -> int:
        try:
            return main([*argv, "--out", str(out / str(i))])
        except Exception:
            traceback.print_exc()
            return -1

    reference_block(0.0)                # warm numpy's first-call paths
    stop = perf_counter() + seconds
    blocks, runs = [reference_block(REF_FIRST_S)], []
    while not runs or perf_counter() + median(
            r["wall"] for r in runs) < stop:
        rc, wall, cpu = timed(call, len(runs))
        runs.append({"rc": rc, "wall": wall, "cpu": cpu})
        blocks.append(reference_block(REF_SHARE * wall))
    records.write_text(json.dumps({"calls": runs, "reference": blocks}))


def setup(config: str) -> None:
    t0 = perf_counter()
    from randkf.config import parse_config
    cfg = parse_config(Path(config).read_text())
    cfg.provider()(0)
    setup_s = perf_counter() - t0
    reference_loop()
    print(setup_s, reference_block(0.0)["wall"])


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "calls":
        sep = rest.index("--")
        seconds, out, records = rest[:sep]
        calls(float(seconds), Path(out), Path(records), rest[sep + 1:])
    elif mode == "setup":
        setup(rest[0])
    else:
        sys.exit(f"child.py: unknown mode {mode!r}")
