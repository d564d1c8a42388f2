"""Command-line front end.

Subcommands:
    filter      run the filter over a measurements CSV, write estimates
    simulate    sample one truth trajectory, write truth + measurements
    montecarlo  average tracking error and NEES over seeded runs
    sweep       trace(P_K) of the deterministic recursion vs. dropout prob

Floats are serialized with 17 significant digits so every file parses
back to the exact same doubles it was written from.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import sim_harness
from .config import MODES, ConfigError, ExperimentConfig, parse_config
from .filter_core import filter_sequence


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Header, then each row of the 2-D array ``rows`` with 17 significant
    digits per cell, comma-separated with CRLF line ends as csv writes.
    Makes the directory, so a run that fails first writes nothing."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(line % tuple(row)
                      for row in np.asarray(rows, dtype=float).tolist())


def _read_measurements(path: Path, N: int) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = [f"y{i + 1}" for i in range(N)]
        if header != expected:
            raise ConfigError(
                f"{path}: expected header {','.join(expected)}, "
                f"got {','.join(header or [])}")
        rows = []
        for row in filter(None, reader):
            if len(row) != N:
                raise ConfigError(f"{path}: line {reader.line_num} has "
                                  f"{len(row)} cells, expected {N}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {reader.line_num} has a "
                                  f"non-numeric cell ({exc})") from None
    if not rows:
        raise ConfigError(f"{path}: no measurement rows")
    return np.array(rows)


def _estimates_rows(rec) -> np.ndarray:
    """k, estimate and covariance upper triangle (by rows) of each step."""
    iu = np.triu_indices(rec.cov.shape[-1])
    return np.column_stack([np.arange(len(rec)), rec.mean,
                            rec.cov[:, iu[0], iu[1]]])


def _estimates_header(r: int) -> list[str]:
    return (["k"] + [f"xhat_{i + 1}" for i in range(r)]
            + [f"P_{i + 1}{j + 1}" for i in range(r) for j in range(i, r)])


def run(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Execute one experiment; returns a process exit status."""
    provider = cfg.provider()
    ic = cfg.initial
    N, r = cfg.step_model.H.shape

    if cfg.mode == "filter":
        if not cfg.measurements:
            raise ConfigError("filter mode needs a 'measurements' CSV path")
        ys = _read_measurements(Path(cfg.measurements), N)
        _write_csv(out_dir / "estimates.csv", _estimates_header(r),
                   _estimates_rows(filter_sequence(provider, ic, ys)))
    elif cfg.mode == "simulate":
        seed = sim_harness.derive_run_seeds(cfg.seed, 1)[0]
        traj = sim_harness.simulate_truth(provider, ic, cfg.horizon, seed)
        _write_csv(out_dir / "truth.csv",
                   ["k"] + [f"x_{i + 1}" for i in range(r)],
                   np.column_stack([np.arange(cfg.horizon + 1),
                                    traj.states]))
        _write_csv(out_dir / "measurements.csv",
                   [f"y{i + 1}" for i in range(N)], traj.measurements)
    elif cfg.mode == "montecarlo":
        metrics = sim_harness.monte_carlo(provider, ic, cfg.horizon,
                                          cfg.runs, cfg.seed)
        _write_csv(out_dir / "metrics.csv", ["k", "E_k2", "mean_nees"],
                   np.column_stack([np.arange(cfg.horizon + 1),
                                    metrics.per_step_sq_error,
                                    metrics.per_step_nees]))
        summary = {"runs": cfg.runs, "seed": cfg.seed,
                   "horizon": cfg.horizon, "config": cfg.raw}
        (out_dir / "summary.json").write_text(
            json.dumps(summary, indent=2, default=str) + "\n")
    elif cfg.mode == "sweep":
        if not cfg.gammas:
            raise ConfigError("sweep mode needs a non-empty 'gammas' list")
        results = sim_harness.gamma_sweep(cfg.model_for_gamma, ic,
                                          cfg.gammas, cfg.horizon)
        _write_csv(out_dir / "sweep.csv", ["gamma", "trace_P_K"], results)
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="randkf",
        description="Kalman filtering with random parameter matrices")
    ap.set_defaults(seed=None, runs=None, measurements=None)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in MODES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", required=True, help="output directory")
        if name in ("simulate", "montecarlo"):
            p.add_argument("--seed", type=int, help="override the config seed")
        if name == "montecarlo":
            p.add_argument("--runs", type=int,
                           help="override the config run count")
        if name == "filter":
            p.add_argument("--measurements",
                           help="override the measurements CSV path")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text(), mode=args.command,
                           seed=args.seed, runs=args.runs,
                           measurements=args.measurements)
        return run(cfg, Path(args.out))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
