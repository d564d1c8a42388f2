"""Seeded inputs, CLI argument lists and output checks of the workloads.

Every input is drawn here with the benchmark's own numpy generator, keyed
by the workload seed, so a change to the library's sampling order cannot
change what a workload feeds the program.  The library itself is used only
by the filter-partitioned check, as the reference its outputs must match.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml
from scipy import stats

# CLI calls are kept near a second or two, so a run holds a dozen or more
# of them and their median steadies.
MC_RUNS = 15           # Monte-Carlo runs per `montecarlo` invocation
SWEEP_GAMMAS = 6       # arrival probabilities per `sweep` invocation
PART_BLOCKS = 8        # dropout blocks of the partitioned model ...
PART_ROWS = 1          # ... each with this many measurement rows
PART_STATE = 6         # state dimension of the partitioned model
PART_HORIZON = 150     # half the paper's horizon
PART_RADIUS = 0.7      # spectral radius of the partitioned model's F
NEES_TAIL = 50         # mc-dropout: NEES averaged over steps 50..K, as A3
COV_RTOL = 1e-9


class CheckFailed(Exception):
    """An invocation's outputs are wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list[str]        # randkf CLI arguments, without --out
    config: Path           # config the CLI reads; setup_s parses it too
    inputs: list[Path]     # every file the CLI reads
    steps: int             # predict/update cycles per invocation
    check: Callable[[Path], None]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path.name} is empty")
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: non-numeric cell ({exc})") from None
    return rows[0], data


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _horizon(config: Path) -> int:
    return int(yaml.safe_load(config.read_text())["horizon"])


def _nees_band(dof: int, runs: int) -> tuple[float, float]:
    """99% band of one step's NEES averaged over `runs` runs.

    As in acceptance test A3, the band is applied to the time average of
    that mean: errors of a random-matrix system are non-Gaussian mixtures,
    so the time average is not chi-square, but its expectation is `dof`
    whenever the reported covariance is the true one.
    """
    return (stats.chi2.ppf(0.005, dof * runs) / runs,
            stats.chi2.ppf(0.995, dof * runs) / runs)


# mc-dropout ---------------------------------------------------------------

def mc_dropout(root: Path, work: Path, seed: int) -> Workload:
    """The paper's headline experiment: Monte-Carlo runs of the sim1 model."""
    config = root / "configs" / "simulation1.yaml"
    horizon = _horizon(config)
    lo, hi = _nees_band(2, MC_RUNS)

    def check(out: Path) -> None:
        header, rows = _read_csv(out / "metrics.csv")
        _require(header == ["k", "E_k2", "mean_nees"],
                 f"metrics.csv header {header}")
        _require(rows.shape == (horizon + 1, 3),
                 f"metrics.csv has shape {rows.shape}")
        _require(bool(np.isfinite(rows).all()), "non-finite metrics row")
        _require(bool((rows[:, 0] == np.arange(horizon + 1)).all()),
                 "metrics.csv steps out of order")
        avg = float(rows[NEES_TAIL:, 2].mean())
        _require(lo <= avg <= hi, f"time-averaged mean NEES {avg:.4f} "
                 f"outside the 99% band [{lo:.4f}, {hi:.4f}]")

    return Workload(
        name="mc-dropout",
        argv=["montecarlo", "--config", str(config), "--seed", str(seed),
              "--runs", str(MC_RUNS)],
        config=config, inputs=[config], steps=MC_RUNS * (horizon + 1),
        check=check)


# sweep-dropout ------------------------------------------------------------

def sweep_dropout(root: Path, work: Path, seed: int) -> Workload:
    """Covariance-only arrival-rate sweep of the sim1 model, seeded grid."""
    doc = yaml.safe_load((root / "configs" / "simulation1.yaml").read_text())
    gammas = np.sort(_rng(seed, 2).uniform(0.3, 1.0, SWEEP_GAMMAS))
    doc.update(mode="sweep", gammas=[float(g) for g in gammas])
    config = work / "sweep.yaml"
    config.write_text(yaml.safe_dump(doc, sort_keys=False))
    horizon = int(doc["horizon"])

    def check(out: Path) -> None:
        header, rows = _read_csv(out / "sweep.csv")
        _require(header == ["gamma", "trace_P_K"],
                 f"sweep.csv header {header}")
        _require(rows.shape == (SWEEP_GAMMAS, 2),
                 f"sweep.csv has shape {rows.shape}")
        _require(bool(np.isfinite(rows).all()), "non-finite sweep row")
        _require(bool((rows[:, 0] == gammas).all()),
                 "sweep.csv gammas differ from the config")
        traces = rows[:, 1]
        _require(bool((traces > 0).all()), "non-positive trace(P_K)")
        _require(bool((np.diff(traces) <= 0).all()),
                 f"trace(P_K) increases with gamma: {traces.tolist()}")

    return Workload(name="sweep-dropout",
                    argv=["sweep", "--config", str(config)],
                    config=config, inputs=[config],
                    steps=SWEEP_GAMMAS * (horizon + 1), check=check)


# filter-partitioned -------------------------------------------------------

def partitioned_model(seed: int, blocks: int, rows: int = PART_ROWS,
                      r: int = PART_STATE) -> dict:
    """Config `model` node of a random, stable partitioned-dropout system."""
    rng = _rng(seed, 4)
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    return {
        "kind": "partitioned",
        "blocks": [{"h": rng.standard_normal((rows, r)).tolist(),
                    "p": float(rng.uniform(0.6, 0.95))}
                   for _ in range(blocks)],
        "f": (PART_RADIUS * q).tolist(),
        "rv": (0.3 * np.eye(r)).tolist(),
        "rw": (0.5 * np.eye(rows * blocks)).tolist(),
    }


def _sample_partitioned(rng: np.random.Generator, doc: dict) -> tuple:
    """Truth and measurements of one trajectory, by direct simulation."""
    model, ini = doc["model"], doc["initial"]
    F = np.array(model["f"])
    hs = [np.array(b["h"]) for b in model["blocks"]]
    ps = np.array([b["p"] for b in model["blocks"]])
    lv = np.linalg.cholesky(np.array(model["rv"]))
    lw = np.linalg.cholesky(np.array(model["rw"]))
    x = np.array(ini["mean"]) + np.linalg.cholesky(
        np.array(ini["cov"])) @ rng.standard_normal(PART_STATE)
    states, ys = [], []
    for k in range(doc["horizon"] + 1):
        on = rng.random(len(hs)) < ps
        H = np.vstack([h * bit for h, bit in zip(hs, on)])
        ys.append(H @ x + lw @ rng.standard_normal(H.shape[0]))
        states.append(x)
        x = F @ x + lv @ rng.standard_normal(PART_STATE)
    return np.array(states), np.array(ys)


def _write_rows(path: Path, header: list[str], rows: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([[repr(float(v)) for v in row] for row in rows])


def filter_partitioned(root: Path, work: Path, seed: int) -> Workload:
    """Batch filtering of one recorded trajectory, B=8 dropout blocks."""
    rng = _rng(seed, 3)
    doc = {
        "mode": "filter",
        "horizon": PART_HORIZON,
        "model": partitioned_model(seed, PART_BLOCKS),
        "initial": {"mean": rng.normal(0.0, 5.0, PART_STATE).tolist(),
                    "cov": np.eye(PART_STATE).tolist()},
    }
    states, ys = _sample_partitioned(rng, doc)
    config = work / "partitioned.yaml"
    config.write_text(yaml.safe_dump(doc, sort_keys=False))
    measurements = work / "measurements.csv"
    _write_rows(measurements, [f"y{i + 1}" for i in range(ys.shape[1])], ys)
    _write_rows(work / "truth.csv",
                [f"x_{i + 1}" for i in range(PART_STATE)], states)

    from randkf.config import parse_config
    from randkf.sim_harness import covariance_recursion
    cfg = parse_config(config.read_text())
    m0 = cfg.provider()(0)
    # The model is time-invariant, so the step-0 model stands for every
    # step and the reference costs one build instead of 301.
    ref = covariance_recursion(lambda k: m0, cfg.initial, PART_HORIZON)[-1].cov
    r = PART_STATE
    iu = np.triu_indices(r)
    lo, hi = _nees_band(r, 1)

    def check(out: Path) -> None:
        header, rows = _read_csv(out / "estimates.csv")
        _require(len(header) == 1 + r + len(iu[0]),
                 f"estimates.csv has {len(header)} columns")
        _require(rows.shape[0] == PART_HORIZON + 1,
                 f"estimates.csv has {rows.shape[0]} rows")
        _require(bool(np.isfinite(rows).all()), "non-finite estimate row")
        covs = np.zeros((rows.shape[0], r, r))
        covs[:, iu[0], iu[1]] = rows[:, 1 + r:]
        covs[:, iu[1], iu[0]] = rows[:, 1 + r:]
        err = float(np.abs(covs[-1] - ref).max() / np.abs(ref).max())
        _require(err <= COV_RTOL, f"final covariance differs from "
                 f"covariance_recursion by {err:.3g} relative")
        errs = rows[:, 1:1 + r] - states
        avg = float(np.mean([e @ np.linalg.solve(P, e)
                             for e, P in zip(errs, covs)]))
        _require(lo <= avg <= hi, f"time-averaged NEES {avg:.4f} outside "
                 f"the 99% band [{lo:.4f}, {hi:.4f}]")

    return Workload(
        name="filter-partitioned",
        argv=["filter", "--config", str(config),
              "--measurements", str(measurements)],
        config=config, inputs=[config, measurements],
        steps=PART_HORIZON + 1, check=check)


WORKLOADS = {
    "mc-dropout": mc_dropout,
    "sweep-dropout": sweep_dropout,
    "filter-partitioned": filter_partitioned,
}


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def same_outputs(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return (names == sorted(p.name for p in b.iterdir())
            and all((a / n).read_bytes() == (b / n).read_bytes()
                    for n in names))
