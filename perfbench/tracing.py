"""In-process spans around the public functions of each randkf module.

A `Tracer` wraps every traced function and installs the wrapper under every
name the function is looked up by: each `randkf` module attribute that holds
it, and each dict value that does (the config module keeps its builders in
one).  Spans stay in memory as (id, parent id, name, start, end) and are
aggregated per layer once the traced invocation ends; a layer's self time is
its span time minus the time of its direct child spans.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# module -> public functions traced; a span is named "<module>.<function>",
# except that every StepModel builder is the one layer "adapters.build"
TRACED = {
    "config": ("parse_config",),
    "adapters": ("build_nahi", "build_uncertain_obs", "build_partitioned",
                 "build_multimodel"),
    "random_matrix": ("moments_from_dist", "quad_form", "sample_matrix"),
    "filter_core": ("predict", "update", "filter_sequence"),
    "sim_harness": ("simulate_truth", "run_filter_on", "nees", "monte_carlo",
                    "covariance_recursion", "gamma_sweep"),
    "cli": ("run",),
}
BUILD = "adapters.build"
MOMENTS = "random_matrix.moments_from_dist"

# Layers each workload must exercise.  The truth-sampling layers must not
# run anywhere else: there a call would mean the workload measures
# something other than it claims.
_COMMON = {"config.parse_config", BUILD, MOMENTS, "random_matrix.quad_form",
           "filter_core.predict", "filter_core.update", "cli.run"}
MC_ONLY = {"random_matrix.sample_matrix", "sim_harness.simulate_truth",
           "sim_harness.nees"}
EXERCISED = {
    "mc-dropout": _COMMON | MC_ONLY | {"sim_harness.monte_carlo",
                                       "sim_harness.run_filter_on",
                                       "filter_core.filter_sequence"},
    "sweep-dropout": _COMMON | {"sim_harness.gamma_sweep",
                                "sim_harness.covariance_recursion"},
    "filter-partitioned": _COMMON | {"filter_core.filter_sequence"},
}


def span_name(module: str, function: str) -> str:
    return BUILD if module == "adapters" else f"{module}.{function}"


class Tracer:
    """Spans of one traced invocation, plus the results of two layers."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        # the StepModels built and the moment specs made, for the
        # distinct-model ratio and the deviation-tensor bytes
        self.kept = {BUILD: [], MOMENTS: []}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open
        kept = self.kept.get(name)

        def traced(*args, **kwargs):
            # a layer calling itself (build_nahi -> build_uncertain_obs)
            # stays one span
            if stack and spans[stack[-1]][2] == name:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append([sid, stack[-1] if stack else -1, name, 0.0, 0.0])
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid][3:] = (t0, t1)
            if kept is not None:
                kept.append(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in wherever randkf holds a traced function."""
        wrappers = {}
        for module, functions in TRACED.items():
            mod = sys.modules[f"randkf.{module}"]
            for function in functions:
                fn = getattr(mod, function)
                wrappers[fn] = self._wrap(span_name(module, function), fn)
        undo = []
        for modname, mod in list(sys.modules.items()):
            if modname != "randkf" and not modname.startswith("randkf."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, dict):
                    for key, item in val.items():
                        if _is_traced(item, wrappers):
                            val[key] = wrappers[item]
                            undo.append((val.__setitem__, key, item))
                elif _is_traced(val, wrappers):
                    setattr(mod, attr, wrappers[val])
                    undo.append((setattr, mod, attr, val))
        try:
            yield self
        finally:
            for restore, *args in reversed(undo):
                restore(*args)

    def layers(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per layer."""
        child = [0.0] * len(self.spans)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for sid, _, name, t0, t1 in self.spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[sid]
        out = {name: {"calls": float(calls[name]), "self_s": self_s[name]}
               for name in set(calls) | {BUILD, MOMENTS}}
        builds = self.kept[BUILD]
        out[BUILD]["distinct_ratio"] = (
            len({_digest(m) for m in builds}) / len(builds) if builds else 0.0)
        out[MOMENTS]["dev_cov_bytes"] = float(sum(
            dev_cov_bytes(spec) for spec in self.kept[MOMENTS]))
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start_s", "end_s"],
             "spans": self.spans}, separators=(",", ":")) + "\n")


def _is_traced(val, wrappers: dict) -> bool:
    try:
        return val in wrappers
    except TypeError:  # unhashable module attribute
        return False


def _digest(obj) -> str:
    """Content hash of a model: equal models hash equal across builds."""
    h = hashlib.blake2b(digest_size=16)

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(repr((x.dtype.str, x.shape)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, (tuple, list)):
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def dev_cov_bytes(spec) -> int:
    """Bytes of a spec's deviation-covariance tensor, 0 if it has none."""
    dev = getattr(spec, "dev_cov", None)
    return dev.nbytes if isinstance(dev, np.ndarray) else 0


def median_layers(runs: list[dict]) -> dict[str, dict[str, float]]:
    """Per-layer medians over traced invocations; absent layers read 0."""
    names = {name for run in runs for name in run}
    return {name: {key: statistics.median(run.get(name, {}).get(key, 0.0)
                                          for run in runs)
                   for key in {k for run in runs for k in run.get(name, {})}}
            for name in names}
