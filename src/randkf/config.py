"""Experiment configuration: strict YAML parsing and model construction.

Configs are plain key/value documents with nested lists for matrices.
Rotation dynamics get a shorthand, ``f: {rotation: {period: 300}}``,
expanding to the 2x2 matrix [[cos a, sin a], [-sin a, cos a]] with
a = 2*pi/period, so tracking configs read like the model definitions.
Unknown fields are rejected, naming the offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Any

import numpy as np
import yaml

from .adapters import (
    MultiModelDynamics,
    NahiModel,
    PartitionedObsModel,
    UncertainObsModel,
    build_multimodel,
    build_nahi,
    build_partitioned,
    build_uncertain_obs,
)
from .filter_core import (
    SCAN_MAX_R,
    InitialCondition,
    ModelProvider,
    StepModel,
    constant_provider,
)
from .random_matrix import MatrixDist

MODES = ("filter", "simulate", "montecarlo", "sweep")
# Most bytes the arrays of one run may take (8 GiB); a horizon or run
# count past it fails at parse time instead of exhausting memory.
MAX_RUN_BYTES = 8 * 2**30


# libyaml's parser where it is installed; both build documents with
# SafeConstructor, and the C one scans several times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _require_keys(node: dict, allowed: set[str], required: set[str],
                  where: str) -> None:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown field '{sorted(unknown)[0]}'")
    missing = required - set(node)
    if missing:
        raise ConfigError(f"{where}: missing field '{sorted(missing)[0]}'")


def rotation_matrix(period: float) -> np.ndarray:
    a = 2.0 * math.pi / period
    return np.array([[math.cos(a), math.sin(a)],
                     [-math.sin(a), math.cos(a)]])


def _matrix(node: Any, where: str) -> np.ndarray:
    if isinstance(node, dict):
        _require_keys(node, {"rotation"}, {"rotation"}, where)
        rot = node["rotation"]
        _require_keys(rot, {"period"}, {"period"}, f"{where}.rotation")
        period = _number(rot["period"], f"{where}.rotation.period")
        if period == 0:
            raise ConfigError(f"{where}.rotation.period: must be nonzero")
        return rotation_matrix(period)
    if not (isinstance(node, list) and node and all(
            isinstance(r, list) and len(r) == len(node[0]) for r in node)):
        raise ConfigError(f"{where}: expected a matrix (list of rows)")
    return np.array(_list(node, where, _list))


def _number(node: Any, where: str, kind: type = float,
            low: float = -math.inf):
    """node (a number, or a string read by float(): YAML 1.1 reads 3e2 as
    one) as a finite float, or an int neither boolean nor fraction, >= low;
    else ConfigError."""
    try:
        if isinstance(node, str):
            node = float(node)
        value = kind(node)
        fraction = kind is int and isinstance(node, float) and value != node
        if isinstance(node, bool) or fraction:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: not {what}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: not finite")
    if value < low:
        raise ConfigError(f"{where}: must be >= {low}")
    return value


def _prob(node: Any, where: str) -> float:
    p = _number(node, where)
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"{where}: probability {p} outside [0, 1]")
    return p


def _list(node: Any, where: str, parse=_number) -> list:
    """Each entry of a list parsed by ``parse``, named by its index."""
    if not isinstance(node, list):
        raise ConfigError(f"{where}: expected a list")
    return [parse(x, f"{where}[{i}]") for i, x in enumerate(node)]


def _entries(nodes: Any, where: str, keys: dict) -> tuple[tuple, ...]:
    """A non-empty list of mappings, each with exactly ``keys`` (YAML key
    -> parser), as one tuple of parsed values per entry."""
    if not isinstance(nodes, list) or not nodes:
        raise ConfigError(f"{where}: expected a non-empty list")
    out = []
    for i, entry in enumerate(nodes):
        here = f"{where}[{i}]"
        _require_keys(entry, set(keys), set(keys), here)
        out.append(tuple(parse(entry[key], f"{here}.{key}")
                         for key, parse in keys.items()))
    return tuple(out)


def _weighted_matrices(nodes: Any, where: str) -> MatrixDist:
    pairs = _entries(nodes, where, {"matrix": _matrix, "prob": _prob})
    try:
        return MatrixDist.of(pairs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# kind -> (adapter model, {YAML key: (its argument, parser)}); every key is
# required, and each kind's keys are parsed in the order given
_KINDS = {
    "general": (UncertainObsModel, {
        "measurements": ("measurement_dist", _weighted_matrices),
        "rw": ("Rw", _matrix), "f": ("F", _matrix), "rv": ("Rv", _matrix)}),
    "nahi": (NahiModel, {
        "h": ("h", _matrix), "p": ("p", _prob), "f": ("F", _matrix),
        "rv": ("Rv", _matrix), "rw": ("Rw", _matrix)}),
    "partitioned": (PartitionedObsModel, {
        "blocks": ("blocks", partial(_entries,
                                     keys={"h": _matrix, "p": _prob})),
        "f": ("F", _matrix), "rv": ("Rv", _matrix), "rw": ("Rw", _matrix)}),
    "multimodel": (MultiModelDynamics, {
        "transitions": ("transition_dist", _weighted_matrices),
        "h": ("H", _matrix), "rv": ("Rv", _matrix), "rw": ("Rw", _matrix)}),
}
MODEL_KINDS = tuple(_KINDS)


def _build_model(node: Any):
    if not isinstance(node, dict):
        raise ConfigError("model: expected a mapping")
    if "kind" not in node:
        raise ConfigError("model: missing field 'kind'")
    kind = node["kind"]
    # a tuple, not the dict: an unhashable kind is reported, not raised
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind: '{kind}' not one of {MODEL_KINDS}")
    model, fields = _KINDS[kind]
    _require_keys(node, {"kind", *fields}, {"kind", *fields}, "model")
    return model(**{arg: parse(node[key], f"model.{key}")
                    for key, (arg, parse) in fields.items()})


_BUILDERS = {
    NahiModel: build_nahi,
    UncertainObsModel: build_uncertain_obs,
    PartitionedObsModel: build_partitioned,
    MultiModelDynamics: build_multimodel,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description and its built model; frozen."""

    mode: str
    model: object
    initial: InitialCondition
    horizon: int
    runs: int
    seed: int
    measurements: str | None
    gammas: list[float]
    raw: dict
    step_model: StepModel

    def provider(self) -> ModelProvider:
        return constant_provider(self.step_model)

    def model_for_gamma(self, gamma: float) -> StepModel:
        if not isinstance(self.model, NahiModel):
            raise ConfigError("sweep mode requires a 'nahi' model")
        return build_nahi(replace(self.model, p=float(gamma)), 0)


_TOP_ALLOWED = {"mode", "model", "initial", "horizon", "runs", "seed",
                "measurements", "gammas"}


def parse_config(text: str, *, mode: str | None = None,
                 seed: int | None = None, runs: int | None = None,
                 measurements: str | None = None) -> ExperimentConfig:
    """Parse and validate a config document; strict about unknown fields.

    The keywords are the command line's overrides, each checked as its
    field is and named by its option (``--seed``); ``raw`` stays the
    document as written.
    """
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config document: {exc}") from exc
    _require_keys(doc, _TOP_ALLOWED, {"mode", "model", "initial", "horizon"},
                  "config")
    for value in (doc["mode"],) if mode is None else (doc["mode"], mode):
        if value not in MODES:
            raise ConfigError(f"mode: '{value}' not one of {MODES}")
    horizon = _number(doc["horizon"], "horizon", int, 1)
    doc_runs = _number(doc.get("runs", 50), "runs", int, 1)
    ini = doc["initial"]
    _require_keys(ini, {"mean", "cov"}, {"mean", "cov"}, "initial")
    mean = _list(ini["mean"], "initial.mean")
    cov = _matrix(ini["cov"], "initial.cov")
    try:
        ic = InitialCondition(mean=mean, cov=cov)
    except ValueError as exc:
        raise ConfigError(f"initial: {exc}") from exc
    gammas = _list(doc.get("gammas", []), "gammas", _prob)
    if not isinstance(doc.get("measurements"), (str, type(None))):
        raise ConfigError("measurements: expected a file path")
    model = _build_model(doc["model"])
    doc_seed = _number(doc.get("seed", 0), "seed", int, 0)

    run_count = doc_runs if runs is None else _number(runs, "--runs", int, 1)
    seed = doc_seed if seed is None else _number(seed, "--seed", int, 0)
    # built once (no builder reads k); a misfit fails here, at parse time
    try:
        m0 = _BUILDERS[type(model)](model, 0)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    if m0.F.shape[0] != ic.mean.size:
        raise ConfigError(
            f"initial.mean: dimension {ic.mean.size} does not match "
            f"state dimension {m0.F.shape[0]}")
    cfg = ExperimentConfig(
        mode=mode or doc["mode"], model=model, initial=ic, horizon=horizon,
        runs=run_count, seed=seed,
        measurements=measurements or doc.get("measurements"), gammas=gammas,
        raw=doc, step_model=m0)
    _check_run_size(cfg, "runs" if runs is None else "--runs")
    return cfg


def _step_floats(m: StepModel, scan: bool) -> tuple[int, int]:
    """Upper bounds of the floats a run's arrays take per step: per run,
    the draws' uniforms, the noise normals (N + r), state noise (kept in
    the states), state, measurement, a drawn H (N r), filter mean and
    error; per member, P, X, Rv_eff and the means pass's A_k (r^2 each;
    the X pass's doubling temporary, at most half of X's steps, is gone
    before P and A_k exist), the gain (N r), Rw_eff with quad_form's
    temporaries (2 N^2 + N r), and the step's entries in the filter's
    lists of models and certified steps (2).  A run the filter scans
    (``scan``) adds the scan's per-step F and H, its elements A, C and
    J, the pairs' elements and their temporaries, which tracemalloc
    peaks put within 8 r^2 + 5 N r + N^2 more."""
    N, r = m.H.shape
    per_run = (sum(s.source.width for s in (m.F, m.H) if s.source)
               + 2 * N + 5 * r + N * r)
    per_member = 4 * r * r + 2 * N * N + 2 * N * r + 2
    if scan:
        per_member += 8 * r * r + 5 * N * r + N * N
    return per_run, per_member


def _check_run_size(cfg: ExperimentConfig, runs_path: str) -> None:
    """Raise unless the ``_step_floats`` bound of the arrays a run grows
    with its horizon fits in MAX_RUN_BYTES, counting the scan's arrays
    wherever r <= SCAN_MAX_R (a sweep's stack never scans; at such r the
    overcount is small)."""
    runs, members = {"montecarlo": (cfg.runs, 1), "simulate": (1, 0),
                     "sweep": (0, len(cfg.gammas))}.get(cfg.mode, (0, 0))
    m = cfg.step_model
    per_run, per_member = _step_floats(m, m.F.shape[0] <= SCAN_MAX_R)
    one, size = (8 * (cfg.horizon + 1) * (n * per_run + members * per_member)
                 for n in (min(runs, 1), runs))
    if size > MAX_RUN_BYTES:
        what = (f"{cfg.horizon} steps would allocate {size / 2**30:.3g} GiB"
                f", over the {MAX_RUN_BYTES // 2**30} GiB limit")
        raise ConfigError(f"{runs_path}: {runs} runs of {what}"
                          if one <= MAX_RUN_BYTES else f"horizon: {what}")
