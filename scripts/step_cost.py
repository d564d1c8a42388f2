#!/usr/bin/env python3
"""Per-step cost of the data-independent and run-axis halves, by tree.

    python scripts/step_cost.py TREE [TREE ...]

Each TREE is a checkout of this repository.  Every one of ROUNDS rounds
runs each tree once in its own child process, alternating the order of
the trees from round to round.  The child builds the config of each
workload in the tree's perfbench/workloads.py at SEED, and times each
case REPEATS times after one warm-up call (garbage collection off, as
`timeit` does).  The data-independent half is
`sim_harness.covariance_recursion` on the model that workload filters:

- mc-dropout: configs/simulation1.yaml's model over its horizon;
- sweep-dropout: that model stacked over the workload's seeded arrival
  probabilities, as `sweep` runs it;
- filter-partitioned: the B = 8 partitioned model over its horizon;
- sim2: configs/simulation2.yaml's model (a random F) over its horizon,
  which no workload runs.

The two routes of P are timed side by side, each forced by setting
`filter_core.SCAN_MAX_R` (a tree without it always loops):

- `lone r=N=n loop|scan`: a seeded lone model with random F and H at
  r = N = n for n in LONE_DIMS, over LONE_STEPS steps;
- `mc-dropout loop|scan` and `filter-partitioned loop|scan`: sim1's
  model and the B = 8 partitioned model;
- `sweep-dropout xM loop|scan`: the sweep's M gamma models run one at a
  time, lone, against which the `sweep-dropout` row's one stacked
  recursion (the loop) is the route the sweep takes.

SCAN_MAX_R is the largest n whose scan row is faster.

The run-axis half is timed on the Monte-Carlo workload's model, at its
own `--runs` and at BIG_RUNS, with the per-run seeds `monte_carlo`
derives from SEED:

- `<workload> truth xR`: `sim_harness.simulate_truth` of R runs;
- `<workload> filter xR`: `filter_core.filter_sequence` over those
  runs' measurements.

The report gives each tree's minimum and median over every timed call
and the median over rounds of each round's minimum, in µs per recorded
step (the record's K + 1 steps), and the minimum in ms per call.  Compare
trees by the median of round minima: one round that runs unusually slow
or fast cannot move it past the other rounds' values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SEED = 4242
ROUNDS = 6
REPEATS = 20
BIG_RUNS = 500
LONE_DIMS = (2, 4, 6, 8, 10)
LONE_STEPS = 300

# run in the tree's directory, with the tree's src/ on the path; prints
# {case: [K + 1, seconds of each timed call]}
CHILD = """
import json, sys, tempfile, timeit
from pathlib import Path
sys.path.insert(0, "perfbench")
from workloads import WORKLOADS
import numpy as np
import randkf.filter_core as fc
from randkf.config import parse_config
from randkf.filter_core import (InitialCondition, StepModel,
                                constant_provider, filter_sequence,
                                stack_models)
from randkf.random_matrix import MatrixDist, moments_from_dist
from randkf.sim_harness import (covariance_recursion, derive_run_seeds,
                                simulate_truth)

seed, repeats, big_runs, dims, lone_steps = json.loads(sys.argv[1])
out = {}

def record(case, run, K):
    run()
    out[case] = [K + 1, timeit.repeat(run, number=1, repeat=repeats)]

def routes(case, models, ic, K):
    # each model's own recursion, on the loop and on the scan
    provs = [constant_provider(m) for m in models]
    saved = getattr(fc, "SCAN_MAX_R", 0)
    for route, limit in (("loop", 0), ("scan", 10**9)):
        fc.SCAN_MAX_R = limit
        record(f"{case} {route}",
               lambda: [covariance_recursion(p, ic, K) for p in provs], K)
    fc.SCAN_MAX_R = saved

def lone_model(rng, n):
    # random F (samples of 2-norm 0.9, so X stays bounded) and H, each
    # of three equally likely samples; Rv, Rw >= 0.5 I
    def dist(scale):
        mats = rng.standard_normal((3, n, n))
        if scale:
            mats *= 0.9 / np.linalg.norm(mats, 2, axis=(1, 2))[:, None, None]
        return moments_from_dist(MatrixDist.of([(a, 1 / 3) for a in mats]))
    def psd():
        a = rng.standard_normal((n, n))
        return a @ a.T / n + 0.5 * np.eye(n)
    return StepModel(F=dist(True), H=dist(False), Rv=psd(), Rw=psd())

with tempfile.TemporaryDirectory() as work:
    for name, make in WORKLOADS.items():
        w = make(Path("."), Path(work), seed)
        cfg = parse_config(w.config.read_text())
        m = (stack_models([cfg.model_for_gamma(g) for g in cfg.gammas])
             if cfg.mode == "sweep" else cfg.step_model)
        prov, ic, K = constant_provider(m), cfg.initial, cfg.horizon
        record(name, lambda: covariance_recursion(prov, ic, K), K)
        if cfg.mode == "sweep":
            routes(f"{name} x{len(cfg.gammas)}",
                   [cfg.model_for_gamma(g) for g in cfg.gammas], ic, K)
        else:
            routes(name, [m], ic, K)
        if "--runs" not in w.argv:
            continue
        for runs in (int(w.argv[w.argv.index("--runs") + 1]), big_runs):
            seeds = derive_run_seeds(seed, runs)
            truth = lambda: simulate_truth(prov, ic, K, seeds)
            ys = truth().measurements
            record(f"{name} truth x{runs}", truth, K)
            record(f"{name} filter x{runs}",
                   lambda: filter_sequence(prov, ic, ys), K)
cfg = parse_config(Path("configs/simulation2.yaml").read_text())
prov, ic, K = constant_provider(cfg.step_model), cfg.initial, cfg.horizon
record("sim2", lambda: covariance_recursion(prov, ic, K), K)
rng = np.random.default_rng(seed)
for n in dims:
    ic = InitialCondition(mean=rng.standard_normal(n), cov=np.eye(n))
    routes(f"lone r=N={n}", [lone_model(rng, n)], ic, lone_steps)
print(json.dumps(out))
"""


def measure(tree: Path) -> dict[str, list]:
    """One child process of `tree`: each case's K + 1 and call times."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD,
         json.dumps([SEED, REPEATS, BIG_RUNS, LONE_DIMS, LONE_STEPS])],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise RuntimeError(f"{tree}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def summary(rounds: list[list[float]], steps: int) -> list[float]:
    """Of call times in seconds, grouped by round: the minimum, the
    median and the median of round minima in µs per step, and the
    minimum in ms per call."""
    us = [[1e6 * t / steps for t in calls] for calls in rounds]
    every = [t for calls in us for t in calls]
    return [min(every), statistics.median(every),
            statistics.median(min(calls) for calls in us),
            1e-3 * min(every) * steps]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", type=Path,
                    help="checkouts of this repository")
    args = ap.parse_args(argv)
    trees = [t.resolve() for t in args.trees]
    for tree in trees:
        if not (tree / "src" / "randkf").is_dir():
            ap.error(f"{tree} has no src/randkf")
    steps: dict[str, int] = {}
    times: dict[Path, dict[str, list[list[float]]]] = {t: {} for t in trees}
    for i in range(ROUNDS):
        for tree in trees if i % 2 == 0 else trees[::-1]:
            for case, (n, secs) in measure(tree).items():
                steps[case] = n
                times[tree].setdefault(case, []).append(secs)
    print(f"{'case':<28} {'min µs/step':>11} {'median µs/step':>14} "
          f"{'median of round mins':>20} {'min ms/call':>11}  tree")
    for case in times[trees[0]]:
        for tree in trees:
            lo, mid, round_mid, call = summary(times[tree][case], steps[case])
            print(f"{case:<28} {lo:11.2f} {mid:14.2f} {round_mid:20.2f}"
                  f" {call:11.2f}  {tree}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
