"""The shipped experiments' outputs against checked-in references.

tests/reference/ holds what the CLI writes for configs/simulation1.yaml
and configs/simulation2.yaml: `simulate` (at the config's seed),
`montecarlo --runs 200 --seed 7`, `filter` on the simulated
measurements.csv, and sim1's `sweep`.  A run matches its reference by
scripts/compare_outputs.py's rule: equal bytes, or every CSV cell within
its TOLERANCE relative to the largest magnitude in its column.

A change that moves these outputs on purpose regenerates them by running
RUNS into tests/reference/ and states in CHANGES.md which files moved and
by how much.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from conftest import REPO, SIM1, SIM2
from randkf.cli import main

REF = REPO / "tests" / "reference"
# output directory under REF -> CLI arguments, without --out
RUNS = {"sim1/sweep": ["sweep", "--config", str(SIM1)]}
for _i, _cfg in ((1, SIM1), (2, SIM2)):
    _ys = REF / f"sim{_i}" / "simulate" / "measurements.csv"
    for _command, _extra in (("simulate", []),
                             ("montecarlo", ["--runs", "200", "--seed", "7"]),
                             ("filter", ["--measurements", str(_ys)])):
        RUNS[f"sim{_i}/{_command}"] = [_command, "--config", str(_cfg),
                                       *_extra]


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", REPO / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def output_files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def test_shipped_outputs_match_their_references(tmp_path, compare_outputs):
    for name, argv in RUNS.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0, name
    assert output_files(tmp_path) == output_files(REF)
    report, largest = [], (0.0, "every file")
    for path in output_files(REF):
        got, want = tmp_path / path, REF / path
        if got.read_bytes() == want.read_bytes():
            report.append(f"{path}: equal")
            continue
        assert path.suffix == ".csv", f"{path} differs"
        diff = compare_outputs.csv_difference(want, got)
        assert not isinstance(diff, str), f"{path}: {diff}"
        report.append(f"{path}: max relative difference {diff:.3g}")
        largest = max(largest, (diff, str(path)))
    report.append("largest relative difference %.3g (%s)" % largest)
    print("\n".join(report))
    assert largest[0] <= compare_outputs.TOLERANCE, "\n".join(report)


CHILD = """
import json, sys
from randkf.cli import main
out, runs = sys.argv[1], json.loads(sys.argv[2])
sys.exit(max(main([*argv, "--out", f"{out}/{name}"])
             for name, argv in runs.items()))
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # one child per thread count, both at once; only the children's
    # environments set the count
    children = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(REPO / "src"),
                                 os.environ.get("PYTHONPATH")]))}
        children[threads] = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(tmp_path / threads),
             json.dumps(RUNS)], env=env, stderr=subprocess.PIPE, text=True)
    for threads, child in children.items():
        _, err = child.communicate(timeout=300)
        assert child.returncode == 0, f"{threads} thread(s): {err}"
    one, two = tmp_path / "1", tmp_path / "2"
    assert output_files(one) == output_files(two) == output_files(REF)
    for path in output_files(one):
        assert (one / path).read_bytes() == (two / path).read_bytes(), path
