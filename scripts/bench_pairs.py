#!/usr/bin/env python3
"""Paired benchmark runs of two revisions of this repository.

    python scripts/bench_pairs.py BASE HEAD --seed 4711 --pairs 10 \\
        --work /tmp/pairs --out BENCH_label.json

Both revisions are exported with `git archive` into WORK/base and
WORK/head, side by side at the same depth: `setup_s` moves with where a
checkout sits, so two trees compared from different places differ even
when their code does not.  For each workload of BENCHMARK.json, each side
first runs once unrecorded (the first run of a series reads about twice
its usual `setup_s`).  Then come PAIRS pairs, alternating which side runs
first, each run being the tree's own unchanged `perfbench/run.py` at the
benchmark's `run_seconds` (or --seconds), untraced.  Last, each side runs
TRACES times traced (alternating which side runs first), for the
per-layer counts and self times: a traced self time moves by about 20%
from run to run, so one traced run per side cannot resolve a smaller
change.

The output file holds every run's metrics, each side's median and
quartiles per end-to-end metric, the pairs the head wins (ties count for
neither), whether a gain meets the rule (wins in at least 9/10 of the
pairs, medians apart by more than the base's interquartile range),
whether the head's median stays within the metric's regression bound,
and each side's median, min and max of every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
TRACES = 3
TRACE_SECONDS = 5.0


def export(rev: str, dest: Path) -> str:
    """The tree of `rev` in dest; returns the full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    if archive.wait():
        raise RuntimeError(f"git archive {rev} failed")
    return sha


def run_bench(tree: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One perfbench run of `tree`: its JSON result, plus when it ran.
    Raises unless the run exited 0 with every operation correct."""
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{tree.name} {workload}: exit {proc.returncode}"
                           f"\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        # perfbench exits 0 after failed operations
        raise RuntimeError("\n".join(
            [f"{tree.name} {workload}: failed "
             f"{result['failed']}/{result['attempted']}"]
            + [line for line in lines if line.startswith("FAILED ")]))
    result["started"] = started
    return result


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(metric: dict, base: list[dict], head: list[dict]) -> dict:
    """Medians, quartiles, wins and the gain and bound verdicts of one
    end-to-end metric over the recorded pairs."""
    name, higher = metric["name"], metric["better"] == "higher"
    b = [r["metrics"][name]["value"] for r in base]
    h = [r["metrics"][name]["value"] for r in head]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(b, h))
    ties = sum(x == y for x, y in zip(b, h))
    sb, sh = quartiles(b), quartiles(h)
    change = (sh["median"] - sb["median"]) / sb["median"]
    gain = change if higher else -change
    return {
        "unit": metric["unit"], "better": metric["better"],
        "base": sb, "head": sh, "pairs": len(b), "head_wins": wins,
        "ties": ties, "relative_change": change,
        "gain_meets_rule": bool(
            wins >= WIN_SHARE * len(b) and gain > 0
            and abs(sh["median"] - sb["median"]) > sb["q3"] - sb["q1"]),
        "bound": metric["bound"],
        "within_bound": bool(-gain <= metric["bound"]),
    }


def spread(name: str, runs: list[dict]) -> dict:
    """Median, min and max of one per-layer metric over traced runs."""
    values = [r["metrics"][name]["value"] for r in runs]
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision measured as the baseline")
    ap.add_argument("head", help="git revision measured against it")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--workloads", nargs="*", default=None)
    ap.add_argument("--work", type=Path, required=True,
                    help="new directory for the two exported trees")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        # quartiles need two points; fail before any tree is exported
        ap.error("--pairs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    trees = {"base": args.work / "base", "head": args.work / "head"}
    shas = {side: export(rev, trees[side])
            for side, rev in (("base", args.base), ("head", args.head))}
    report = {"base": shas["base"], "head": shas["head"], "seed": args.seed,
              "seconds": seconds, "pairs": args.pairs, "workloads": {}}
    try:
        for wl in workloads:
            for side in ("base", "head"):   # the discarded first runs
                run_bench(trees[side], wl, args.seed, seconds, 0)
            runs = {"base": [], "head": []}
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    res = run_bench(trees[side], wl, args.seed, seconds, 0)
                    runs[side].append(res)
                    print(f"{wl} pair {i} {side}: " + ", ".join(
                        f"{m} {v['value']:.6g}"
                        for m, v in res["metrics"].items()), flush=True)
            traced = {"base": [], "head": []}
            for i in range(TRACES):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    traced[side].append(run_bench(trees[side], wl, args.seed,
                                                  TRACE_SECONDS, 1))
            report["workloads"][wl] = {
                "end_to_end": {m["name"]: summarize(m, runs["base"],
                                                    runs["head"])
                               for m in spec["end_to_end"]},
                "per_layer": {m["name"]: {side: spread(m["name"], traced[side])
                                          for side in traced}
                              for m in spec["per_layer"]},
                "runs": runs, "traced": traced}
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    for wl, res in report["workloads"].items():
        for name, s in res["end_to_end"].items():
            print(f"{wl} {name}: base {s['base']['median']:.6g} "
                  f"head {s['head']['median']:.6g} "
                  f"({100 * s['relative_change']:+.1f}%), head wins "
                  f"{s['head_wins']}/{s['pairs']}, gain rule "
                  f"{s['gain_meets_rule']}, within bound "
                  f"{s['within_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
