"""The benchmark's contract with the library.

The benchmark under perfbench/ wraps library functions by name and drives
the CLI with its own seeded inputs.  These tests import it as it stands
(its directory goes on sys.path, nothing in it changes) and check that
every name it traces still exists, that each workload's CLI call passes
the workload's own output check, that under the benchmark's own tracer
each call records the layers the benchmark requires of it and none it
forbids (a traced benchmark run counts either as a failed operation),
and that the scaling rows still run.
"""

import importlib
import math

import pytest

from conftest import REPO
from randkf.cli import main

SEED = 811


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(REPO / "perfbench"))
        yield {name: importlib.import_module(name)
               for name in ("tracing", "workloads", "scale")}


def test_every_traced_function_exists(bench):
    for module, functions in bench["tracing"].TRACED.items():
        mod = importlib.import_module(f"randkf.{module}")
        for function in functions:
            assert callable(getattr(mod, function, None)), (
                f"randkf.{module}.{function}")


def test_each_workload_passes_its_own_check(bench, tmp_path):
    for name, make in bench["workloads"].WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        wl = make(REPO, work, SEED)
        out = work / "out"
        assert main([*wl.argv, "--out", str(out)]) == 0, name
        wl.check(out)


def test_each_workload_exercises_its_layers(bench, tmp_path):
    tracing = bench["tracing"]
    for name, make in bench["workloads"].WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        wl = make(REPO, work, SEED)
        tracer = tracing.Tracer()
        with tracer.installed():
            assert main([*wl.argv, "--out", str(work / "out")]) == 0, name
        calls = {layer: found["calls"]
                 for layer, found in tracer.layers().items()}
        missing = sorted(n for n in tracing.EXERCISED[name]
                         if not calls.get(n))
        extra = sorted(n for n in tracing.MC_ONLY - tracing.EXERCISED[name]
                       if calls.get(n))
        assert not missing and not extra, (name, missing, extra)


def test_scale_rows_run(bench):
    rows = bench["scale"].scale_rows(SEED)
    assert rows
    assert all(math.isfinite(value) for value, _ in rows.values())
