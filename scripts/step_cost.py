#!/usr/bin/env python3
"""Microseconds per step of the covariance recursion, tree against tree.

    python scripts/step_cost.py TREE [TREE ...]

Each TREE is a checkout of this repository.  Every one of ROUNDS rounds
runs each tree once in its own child process, alternating the order of
the trees from round to round.  The child builds the config of each
workload in the tree's perfbench/workloads.py at SEED, and times
`sim_harness.covariance_recursion` on the model that workload filters,
REPEATS times after one warm-up call (garbage collection off, as
`timeit` does):

- mc-dropout: configs/simulation1.yaml's model over its horizon;
- sweep-dropout: that model stacked over the workload's seeded arrival
  probabilities, as `sweep` runs it;
- filter-partitioned: the B = 8 partitioned model over its horizon.

The report gives each tree's minimum and median over every timed call,
in µs per recorded step (the record's K + 1 steps).
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

# run in the tree's directory, with the tree's src/ on the path
CHILD = """
import json, sys, tempfile, timeit
from pathlib import Path
sys.path.insert(0, "perfbench")
from workloads import WORKLOADS
from randkf.config import parse_config
from randkf.filter_core import constant_provider, stack_models
from randkf.sim_harness import covariance_recursion

seed, repeats = json.loads(sys.argv[1])
out = {}
with tempfile.TemporaryDirectory() as work:
    for name, make in WORKLOADS.items():
        cfg = parse_config(make(Path("."), Path(work), seed).config
                           .read_text())
        m = (stack_models([cfg.model_for_gamma(g) for g in cfg.gammas])
             if cfg.gammas else cfg.step_model)
        prov, K = constant_provider(m), cfg.horizon
        run = lambda: covariance_recursion(prov, cfg.initial, K)
        run()
        out[name] = [1e6 * t / (K + 1)
                     for t in timeit.repeat(run, number=1, repeat=repeats)]
print(json.dumps(out))
"""


def measure(tree: Path) -> dict[str, list[float]]:
    """One child process of `tree`: µs per step of each case's calls."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([SEED, REPEATS])],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise RuntimeError(f"{tree}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", type=Path,
                    help="checkouts of this repository")
    args = ap.parse_args(argv)
    trees = [t.resolve() for t in args.trees]
    for tree in trees:
        if not (tree / "src" / "randkf").is_dir():
            ap.error(f"{tree} has no src/randkf")
    times: dict[Path, dict[str, list[float]]] = {t: {} for t in trees}
    for i in range(ROUNDS):
        for tree in trees if i % 2 == 0 else trees[::-1]:
            for case, us in measure(tree).items():
                times[tree].setdefault(case, []).extend(us)
    print(f"{'case':<20} {'min µs':>8} {'median µs':>10}  tree")
    for case in times[trees[0]]:
        for tree in trees:
            us = times[tree][case]
            print(f"{case:<20} {min(us):8.2f} {statistics.median(us):10.2f}"
                  f"  {tree}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
