"""StepModel builders for the uncertain-observation and multi-model cases.

Each adapter turns a domain-level description (sensor dropout
probabilities, a bank of candidate dynamics, ...) into the generic
StepModel the filter consumes, by constructing the finite distribution
of the random matrix and taking its moments.  Dropout is a
``BlockDropout``: a single dropping sensor (Nahi) is one block, and
independently dropping measurement blocks are B blocks, which give B
deviation factors and are sampled with one Bernoulli draw per block, so
neither the build nor a draw enumerates the 2^B on/off patterns.  A step's
StepModel depends only on the model and that step's probability values,
so each model keeps the last one it built and returns it while those
values repeat: a model with constant probabilities is built once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .filter_core import StepModel, _check_psd
from .random_matrix import (
    BlockDropout,
    MatrixDist,
    deterministic,
    moments_from_dist,
)

ProbFn = Callable[[int], float] | float


def _prob_at(p: ProbFn, k: int, name: str) -> float:
    val = float(p(k)) if callable(p) else float(p)
    if not 0.0 <= val <= 1.0:
        raise ValueError(f"{name} = {val} is outside [0, 1]")
    return val


def _last_build(m, probs: Sequence[float],
                build: Callable[[], StepModel]) -> StepModel:
    """m's StepModel for these probability values, built only if they
    differ bitwise from those of m's previous build."""
    key = np.asarray(probs, dtype=float).tobytes()
    last = m._last
    if last is None or last[0] != key:
        last = (key, build())
        object.__setattr__(m, "_last", last)
    return last[1]


@dataclass(frozen=True)
class UncertainObsModel:
    """Measurement matrix drawn from a known finite set each step.

    ``per_model_noise`` optionally gives one noise covariance per
    candidate matrix; otherwise ``Rw`` is shared by all of them.
    """

    measurement_dist: MatrixDist
    F: np.ndarray
    Rv: np.ndarray
    Rw: np.ndarray | None = None
    per_model_noise: Sequence[np.ndarray] | None = None
    _last: tuple[bytes, StepModel] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.Rw is None) == (self.per_model_noise is None):
            raise ValueError("give exactly one of Rw or per_model_noise")
        if self.per_model_noise is not None and \
                len(self.per_model_noise) != len(self.measurement_dist):
            raise ValueError(
                f"{len(self.per_model_noise)} noise covariances for "
                f"{len(self.measurement_dist)} measurement models"
            )


@dataclass(frozen=True)
class NahiModel:
    """Single sensor whose reading contains the signal only with probability p."""

    h: np.ndarray
    p: ProbFn
    F: np.ndarray
    Rv: np.ndarray
    Rw: np.ndarray
    _last: tuple[bytes, StepModel] | None = field(
        default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class PartitionedObsModel:
    """Measurement split into independent blocks, each with its own dropout."""

    blocks: Sequence[tuple[np.ndarray, ProbFn]]
    F: np.ndarray
    Rv: np.ndarray
    Rw: np.ndarray
    _last: tuple[bytes, StepModel] | None = field(
        default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class MultiModelDynamics:
    """Transition matrix drawn i.i.d. per step from a finite model bank."""

    transition_dist: MatrixDist
    H: np.ndarray
    Rv: np.ndarray
    Rw: np.ndarray
    _last: tuple[bytes, StepModel] | None = field(
        default=None, init=False, repr=False, compare=False)


def build_uncertain_obs(m: UncertainObsModel, k: int) -> StepModel:
    """General uncertain-observation step: H moments from the finite dist.

    With per-model noises the effective measurement noise is the
    probability mixture sum(p_i * Rw_i); the cross term between the
    H-deviation and the selected noise vanishes because each noise is
    zero-mean and independent of the state.
    """
    def build() -> StepModel:
        if m.per_model_noise is not None:
            Rw = sum(p * _check_psd(R, "per-model Rw")
                     for p, R in zip(m.measurement_dist.probs,
                                     m.per_model_noise))
        else:
            Rw = np.asarray(m.Rw, dtype=float)
        return StepModel(F=deterministic(m.F),
                         H=moments_from_dist(m.measurement_dist),
                         Rv=np.asarray(m.Rv, dtype=float), Rw=Rw)

    return _last_build(m, (), build)


def build_nahi(m: NahiModel, k: int) -> StepModel:
    """Single-sensor dropout as the one-block BlockDropout of h: mean
    p h and the one factor sqrt(p (1-p)) h."""
    p = _prob_at(m.p, k, "p(k)")
    return _last_build(m, (p,), lambda: StepModel(
        F=deterministic(m.F),
        H=moments_from_dist(BlockDropout(blocks=(m.h,), probs=[p])),
        Rv=np.asarray(m.Rv, dtype=float), Rw=np.asarray(m.Rw, dtype=float)))


def build_partitioned(m: PartitionedObsModel, k: int) -> StepModel:
    """Stacked measurement with independent per-block dropout.

    The blocks and their probabilities form a BlockDropout, whose B
    deviation factors make the quad form block-diagonal with blocks
    (1-p_i) p_i h_i X h_i^T.
    """
    ps = [_prob_at(p, k, f"block {i} probability")
          for i, (_, p) in enumerate(m.blocks)]

    def build() -> StepModel:
        dist = BlockDropout(blocks=tuple(h for h, _ in m.blocks), probs=ps)
        Rw, N = np.asarray(m.Rw, dtype=float), dist.stacked.shape[1]
        if Rw.shape != (N, N):
            raise ValueError(f"Rw is {Rw.shape}, stacked blocks give N={N}")
        return StepModel(F=deterministic(m.F), H=moments_from_dist(dist),
                         Rv=np.asarray(m.Rv, dtype=float), Rw=Rw)

    return _last_build(m, ps, build)


def build_multimodel(m: MultiModelDynamics, k: int) -> StepModel:
    """Random transition from a finite model bank, deterministic H."""
    return _last_build(m, (), lambda: StepModel(
        F=moments_from_dist(m.transition_dist), H=deterministic(m.H),
        Rv=np.asarray(m.Rv, dtype=float), Rw=np.asarray(m.Rw, dtype=float)))
