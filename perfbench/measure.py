"""Timed (untraced, child-process) and traced (in-process) benchmark runs."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from launch import Launcher
from workloads import CheckFailed, Workload, output_bytes, same_outputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_REPEATS = 15     # set-up samples per run, each in a fresh interpreter
# Seconds of one repetition of child.reference_loop on the nominal host.
# Times are reported as on that host: a call's time is scaled by REF_S over
# the loop's time next to it, which takes out the shared host's drift.
REF_S = 0.02

END_TO_END_UNITS = {"steps_per_s": "1/s", "cpu_ms_per_step": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}
# (layer, key) -> metric name and unit
PER_LAYER = {
    ("config.parse_config", "self_s"): "s",
    ("adapters.build", "calls"): "count",
    ("adapters.build", "self_s"): "s",
    ("adapters.build", "distinct_ratio"): "ratio",
    ("random_matrix.moments_from_dist", "calls"): "count",
    ("random_matrix.moments_from_dist", "self_s"): "s",
    ("random_matrix.quad_form", "calls"): "count",
    ("random_matrix.quad_form", "self_s"): "s",
    ("random_matrix.sample_matrix", "calls"): "count",
    ("random_matrix.sample_matrix", "self_s"): "s",
    ("filter_core.predict", "calls"): "count",
    ("filter_core.predict", "self_s"): "s",
    ("filter_core.update", "calls"): "count",
    ("filter_core.update", "self_s"): "s",
    ("filter_core.filter_sequence", "self_s"): "s",
    ("sim_harness.simulate_truth", "calls"): "count",
    ("sim_harness.simulate_truth", "self_s"): "s",
    ("sim_harness.nees", "calls"): "count",
    ("sim_harness.nees", "self_s"): "s",
    ("sim_harness.covariance_recursion", "calls"): "count",
    ("sim_harness.covariance_recursion", "self_s"): "s",
    ("sim_harness.monte_carlo", "self_s"): "s",
    ("cli.run", "self_s"): "s",
}


class Deadline:
    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        return max(self.end - perf_counter(), 0.0)


def more(stop: float, deadline: Deadline, next_run_s: float) -> bool:
    """Whether to start another invocation: time is left, and room for it."""
    return perf_counter() < stop and deadline.left() > next_run_s


def child_env() -> dict:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def setup_seconds(wl: Workload, deadline: Deadline) -> float:
    """One set-up sample in a fresh interpreter, scaled to the nominal host."""
    proc = subprocess.run([sys.executable, CHILD, "setup", str(wl.config)],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=deadline.left(), check=True)
    setup_s, ref_s = map(float, proc.stdout.split())
    return setup_s * REF_S / ref_s


def check_outputs(wl: Workload, out: Path,
                  reference: Path | None) -> str | None:
    """Why the outputs are wrong, or None."""
    try:
        wl.check(out)
    except (CheckFailed, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if reference is not None and not same_outputs(out, reference):
        return "outputs differ from an earlier invocation with the same inputs"
    return None


def timed_run(launcher: Launcher, wl: Workload, work: Path, seconds: float,
              deadline: Deadline) -> tuple[int, int, list[str], dict]:
    """CLI calls in one child for `seconds`, then the set-up samples."""
    out, records, log = work / "out", work / "records.json", work / "stderr"
    out.mkdir()
    child = launcher.run(
        [sys.executable, CHILD, "calls", seconds, out, records, "--",
         *wl.argv], cwd=ROOT, env=child_env(), stderr=log,
        timeout=deadline.left())
    if child["rc"] != 0:
        tail = log.read_text(errors="replace")[-2000:]
        return 1, 1, [f"child exit status {child['rc']}: {tail}"], {}
    rec = json.loads(records.read_text())
    calls, ref = rec["calls"], rec["reference"]
    errors, reference = [], None
    for i, call in enumerate(calls):
        if call["rc"] != 0:
            call["error"] = f"call {i}: exit status {call['rc']}"
        else:
            call["error"] = check_outputs(wl, out / str(i), reference)
        if call["error"]:
            errors.append(call["error"])
        elif reference is None:
            reference = out / str(i)
        # the reference blocks before and after the call
        call["ref_wall"] = (ref[i]["wall"] + ref[i + 1]["wall"]) / 2
        call["ref_cpu"] = (ref[i]["cpu"] + ref[i + 1]["cpu"]) / 2
    setup = [setup_seconds(wl, deadline) for _ in range(SETUP_REPEATS)]
    ok = [c for c in calls if c["error"] is None] or calls
    raw_steps_per_s = statistics.median(wl.steps / c["wall"] for c in ok)
    host = statistics.median(REF_S / c["ref_wall"] for c in ok)
    print(f"{wl.name} calls {len(calls)}, unscaled steps_per_s "
          f"{raw_steps_per_s:.6g} 1/s, host speed {host:.4g} x nominal")
    metrics = {
        "steps_per_s": statistics.median(
            wl.steps * c["ref_wall"] / (REF_S * c["wall"]) for c in ok),
        "cpu_ms_per_step": statistics.median(
            1e3 * c["cpu"] * REF_S / (c["ref_cpu"] * wl.steps) for c in ok),
        "peak_rss_mb": child["rss_mb"],
        "setup_s": statistics.median(setup),
    }
    return len(calls), len(errors), errors, {
        k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced_run(wl: Workload, work: Path, seconds: float, seed: int,
               deadline: Deadline) -> tuple[int, int, list[str], dict]:
    import randkf.cli
    from scale import scale_rows
    from tracing import EXERCISED, MC_ONLY, Tracer, median_layers

    def in_process(out: Path,
                   tracer: Tracer | None) -> tuple[float, str | None]:
        t0 = perf_counter()
        if tracer is None:
            rc = randkf.cli.main([*wl.argv, "--out", str(out)])
        else:
            with tracer.installed():
                rc = randkf.cli.main([*wl.argv, "--out", str(out)])
        wall = perf_counter() - t0
        return wall, (f"exit status {rc}" if rc else None)

    walls = {"untraced": [], "traced": []}
    layers, errors, failed, pairs = [], [], 0, 0
    stop = perf_counter() + seconds
    while not pairs or more(stop, deadline, max(walls["traced"]) * 2.5):
        plain, traced = work / f"plain{pairs}", work / f"traced{pairs}"
        tracer = Tracer()
        order = [(plain, None), (traced, tracer)]
        errs = {"untraced": [], "traced": []}
        for out, tr in order if pairs % 2 == 0 else order[::-1]:
            side = "untraced" if tr is None else "traced"
            wall, err = in_process(out, tr)
            walls[side].append(wall)
            errs[side].append(err or check_outputs(wl, out, None))
        if not any(filter(None, errs["untraced"] + errs["traced"])) \
                and not same_outputs(plain, traced):
            errs["traced"].append("outputs differ from untraced outputs")
        found = tracer.layers()
        missing = sorted(n for n in EXERCISED[wl.name]
                         if not found.get(n, {}).get("calls"))
        if missing:
            errs["traced"].append(
                f"no calls recorded for {', '.join(missing)}")
        extra = sorted(n for n in MC_ONLY - EXERCISED[wl.name]
                       if found.get(n, {}).get("calls"))
        if extra:
            errs["traced"].append(f"unexpected calls to {', '.join(extra)}")
        for side, found_errs in errs.items():
            found_errs = [e for e in found_errs if e]
            failed += bool(found_errs)
            errors += [f"{side}: {e}" for e in found_errs]
        if pairs == 0:
            tracer.dump(WORK_DIR / f"trace-{wl.name}.json")
            written = float(output_bytes(traced))
        layers.append(found)
        shutil.rmtree(plain, ignore_errors=True)
        shutil.rmtree(traced, ignore_errors=True)
        pairs += 1

    med = median_layers(layers)
    metrics = {f"{layer}.{key}": (med.get(layer, {}).get(key, 0.0), unit)
               for (layer, key), unit in PER_LAYER.items()}
    metrics["random_matrix.dev_cov_bytes"] = (
        med["random_matrix.moments_from_dist"]["dev_cov_bytes"], "bytes")
    metrics["cli.bytes_read"] = (
        float(sum(p.stat().st_size for p in wl.inputs)), "bytes")
    metrics["cli.bytes_written"] = (written, "bytes")
    metrics["trace.overhead_ratio"] = (
        statistics.median(walls["traced"])
        / statistics.median(walls["untraced"]),
        "ratio")
    metrics.update(scale_rows(seed))
    return 2 * pairs, failed, errors, metrics
