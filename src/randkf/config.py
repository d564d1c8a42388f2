"""Experiment configuration: strict YAML parsing and model construction.

Configs are plain key/value documents with nested lists for matrices.
Rotation dynamics get a shorthand, ``f: {rotation: {period: 300}}``,
expanding to the 2x2 matrix [[cos a, sin a], [-sin a, cos a]] with
a = 2*pi/period, so tracking configs read like the model definitions.
Unknown fields are rejected, naming the offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
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
    InitialCondition,
    ModelProvider,
    StepModel,
    constant_provider,
)
from .random_matrix import MatrixDist

MODES = ("filter", "simulate", "montecarlo", "sweep")
MODEL_KINDS = ("general", "nahi", "partitioned", "multimodel")


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
    try:
        m = np.array(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: not a numeric matrix ({exc})") from exc
    if m.ndim != 2:
        raise ConfigError(f"{where}: expected a matrix (list of rows)")
    return m


def _number(node: Any, where: str, kind: type = float,
            low: float = -math.inf):
    """node as a float, or an int (neither a boolean nor a fraction),
    >= low; else a ConfigError naming where."""
    try:
        value = kind(node)
        if isinstance(node, bool) or isinstance(node, float) and value != node:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: not {what}") from None
    if value < low:
        raise ConfigError(f"{where}: must be >= {low}")
    return value


def _prob(node: Any, where: str) -> float:
    p = _number(node, where)
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"{where}: probability {p} outside [0, 1]")
    return p


def _weighted_matrices(nodes: Any, where: str) -> MatrixDist:
    if not isinstance(nodes, list) or not nodes:
        raise ConfigError(f"{where}: expected a non-empty list")
    pairs = []
    for i, entry in enumerate(nodes):
        here = f"{where}[{i}]"
        _require_keys(entry, {"matrix", "prob"}, {"matrix", "prob"}, here)
        pairs.append((_matrix(entry["matrix"], f"{here}.matrix"),
                      _prob(entry["prob"], f"{here}.prob")))
    try:
        return MatrixDist.of(pairs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_model(node: dict):
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError("model: missing field 'kind'")
    kind = node["kind"]
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind: '{kind}' not one of {MODEL_KINDS}")

    if kind == "nahi":
        _require_keys(node, {"kind", "h", "p", "f", "rv", "rw"},
                      {"kind", "h", "p", "f", "rv", "rw"}, "model")
        return NahiModel(h=_matrix(node["h"], "model.h"),
                         p=_prob(node["p"], "model.p"),
                         F=_matrix(node["f"], "model.f"),
                         Rv=_matrix(node["rv"], "model.rv"),
                         Rw=_matrix(node["rw"], "model.rw"))
    if kind == "general":
        allowed = {"kind", "measurements", "f", "rv", "rw", "per_model_noise"}
        _require_keys(node, allowed, {"kind", "measurements", "f", "rv"},
                      "model")
        dist = _weighted_matrices(node["measurements"], "model.measurements")
        rw = _matrix(node["rw"], "model.rw") if "rw" in node else None
        pmn = None
        if "per_model_noise" in node:
            if not isinstance(node["per_model_noise"], list):
                raise ConfigError("model.per_model_noise: expected a list")
            pmn = [_matrix(m, f"model.per_model_noise[{i}]")
                   for i, m in enumerate(node["per_model_noise"])]
        try:
            return UncertainObsModel(measurement_dist=dist,
                                     F=_matrix(node["f"], "model.f"),
                                     Rv=_matrix(node["rv"], "model.rv"),
                                     Rw=rw, per_model_noise=pmn)
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc
    if kind == "partitioned":
        _require_keys(node, {"kind", "blocks", "f", "rv", "rw"},
                      {"kind", "blocks", "f", "rv", "rw"}, "model")
        if not isinstance(node["blocks"], list) or not node["blocks"]:
            raise ConfigError("model.blocks: expected a non-empty list")
        blocks = []
        for i, b in enumerate(node["blocks"]):
            here = f"model.blocks[{i}]"
            _require_keys(b, {"h", "p"}, {"h", "p"}, here)
            blocks.append((_matrix(b["h"], f"{here}.h"),
                           _prob(b["p"], f"{here}.p")))
        return PartitionedObsModel(blocks=tuple(blocks),
                                   F=_matrix(node["f"], "model.f"),
                                   Rv=_matrix(node["rv"], "model.rv"),
                                   Rw=_matrix(node["rw"], "model.rw"))
    # multimodel
    _require_keys(node, {"kind", "transitions", "h", "rv", "rw"},
                  {"kind", "transitions", "h", "rv", "rw"}, "model")
    return MultiModelDynamics(
        transition_dist=_weighted_matrices(node["transitions"],
                                           "model.transitions"),
        H=_matrix(node["h"], "model.h"),
        Rv=_matrix(node["rv"], "model.rv"),
        Rw=_matrix(node["rw"], "model.rw"))


_BUILDERS = {
    NahiModel: build_nahi,
    UncertainObsModel: build_uncertain_obs,
    PartitionedObsModel: build_partitioned,
    MultiModelDynamics: build_multimodel,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, ready to run; frozen, so the
    model built once by ``step_model`` stays the config's model."""

    mode: str
    model: object
    initial: InitialCondition
    horizon: int
    runs: int = 50
    seed: int = 0
    measurements: str | None = None
    gammas: list[float] = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    # YAML probabilities are numbers: a config's model is the same every
    # step, so it is built once and serves every step
    @cached_property
    def step_model(self) -> StepModel:
        return _BUILDERS[type(self.model)](self.model, 0)

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
    for value in (doc["mode"], mode):
        if value is not None and value not in MODES:
            raise ConfigError(f"mode: '{value}' not one of {MODES}")
    horizon = _number(doc["horizon"], "horizon", int, 1)
    doc_runs = _number(doc.get("runs", 50), "runs", int, 1)
    ini = doc["initial"]
    _require_keys(ini, {"mean", "cov"}, {"mean", "cov"}, "initial")
    try:
        ic = InitialCondition(
            mean=np.asarray(ini["mean"], dtype=float),
            cov=_matrix(ini["cov"], "initial.cov"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"initial: {exc}") from exc
    if not isinstance(doc.get("gammas", []), list):
        raise ConfigError("gammas: expected a list")
    gammas = [_prob(g, f"gammas[{i}]")
              for i, g in enumerate(doc.get("gammas", []))]
    if not isinstance(doc.get("measurements"), (str, type(None))):
        raise ConfigError("measurements: expected a file path")
    model = _build_model(doc["model"])
    doc_seed = _number(doc.get("seed", 0), "seed", int, 0)

    cfg = ExperimentConfig(
        mode=mode or doc["mode"], model=model, initial=ic, horizon=horizon,
        runs=doc_runs if runs is None else _number(runs, "--runs", int, 1),
        seed=doc_seed if seed is None else _number(seed, "--seed", int, 0),
        measurements=measurements or doc.get("measurements"), gammas=gammas,
        raw=doc)
    # surface dimension mismatches at parse time
    try:
        m0 = cfg.step_model
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    if m0.F.shape[0] != ic.mean.size:
        raise ConfigError(
            f"initial.mean: dimension {ic.mean.size} does not match "
            f"state dimension {m0.F.shape[0]}")
    return cfg
