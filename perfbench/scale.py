"""One-shot scaling rows: model cost as the block count and state grow.

These time single library calls, untraced, outside any CLI invocation, and
give the "before" numbers for replacing the enumerated and tensor
representations of matrix randomness: `build_partitioned` enumerates 2^B
block patterns, and a random-F model holds an r^4 deviation tensor.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from tracing import dev_cov_bytes
from workloads import partitioned_model

BLOCKS = (8, 12, 16)
BLOCK_ROWS, BLOCK_STATE = 1, 4   # a smaller state than filter-partitioned's,
                                 # so that B=16 builds in seconds
STATES = (10, 30, 60)
BANK_PROBS = (0.1, 0.2, 0.7)   # three-model transition bank, as sim2
QUAD_FORM_REPEATS = 5


def _timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def scale_rows(seed: int) -> dict[str, tuple[float, str]]:
    from randkf.adapters import (MultiModelDynamics, PartitionedObsModel,
                                 build_multimodel, build_partitioned)
    from randkf.random_matrix import MatrixDist, quad_form

    rows = {}
    for B in BLOCKS:
        node = partitioned_model(seed, B, BLOCK_ROWS, BLOCK_STATE)
        model = PartitionedObsModel(
            blocks=tuple((np.array(b["h"]), b["p"]) for b in node["blocks"]),
            F=np.array(node["f"]), Rv=np.array(node["rv"]),
            Rw=np.array(node["rw"]))
        _, secs = _timed(build_partitioned, model, 0)
        rows[f"scale.build_partitioned.B{B}_s"] = (secs, "s")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    for r in STATES:
        bank = []
        for prob in BANK_PROBS:
            q, _ = np.linalg.qr(rng.standard_normal((r, r)))
            bank.append((0.9 * q, prob))
        model = MultiModelDynamics(
            transition_dist=MatrixDist.of(bank),
            H=rng.standard_normal((2, r)), Rv=np.eye(r), Rw=np.eye(2))
        step, secs = _timed(build_multimodel, model, 0)
        rows[f"scale.build_multimodel.r{r}_s"] = (secs, "s")
        a = rng.standard_normal((r, r))
        X = a @ a.T
        rows[f"scale.quad_form.r{r}_s"] = (statistics.median(
            _timed(quad_form, step.F, X)[1]
            for _ in range(QUAD_FORM_REPEATS)), "s")
        rows[f"scale.dev_cov_mb.r{r}"] = (dev_cov_bytes(step.F) / 1e6, "MB")
        del step, model
    return rows
