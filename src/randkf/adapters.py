"""StepModel builders for the uncertain-observation and multi-model cases.

Each adapter turns a domain-level description (sensor dropout
probabilities, a bank of candidate dynamics, ...) into the generic
StepModel the filter consumes, by constructing the finite distribution
of the random matrix and taking its moments.  Dropout is a
``BlockDropout``: a single dropping sensor (Nahi) is one block, and
independently dropping measurement blocks are B blocks, which give B
deviation factors and are sampled with one Bernoulli draw per block, so
neither the build nor a draw enumerates the 2^B on/off patterns.

Each ``build_*(m, k)`` builds and validates a new StepModel from the
model alone: k is not read, and is kept because callers build every kind
alike as ``build_x(m, 0)``.  An adapter model is the same every step, so
its caller builds it once and serves it with
``constant_provider(build_x(m, 0))``.  A model that varies over time is
a provider of its own, such as
``lambda k: build_nahi(replace(m, p=p(k)), k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .filter_core import StepModel
from .random_matrix import (
    BlockDropout,
    MatrixDist,
    deterministic,
    moments_from_dist,
)

@dataclass(frozen=True)
class UncertainObsModel:
    """Measurement matrix drawn from a known finite set each step; the
    noise covariance ``Rw`` is shared by all of them."""

    measurement_dist: MatrixDist
    F: np.ndarray
    Rv: np.ndarray
    Rw: np.ndarray


@dataclass(frozen=True)
class NahiModel:
    """Single sensor whose reading contains the signal only with probability p."""

    h: np.ndarray
    p: float
    F: np.ndarray
    Rv: np.ndarray
    Rw: np.ndarray


@dataclass(frozen=True)
class PartitionedObsModel:
    """Measurement split into independent blocks, each with its own dropout."""

    blocks: Sequence[tuple[np.ndarray, float]]
    F: np.ndarray
    Rv: np.ndarray
    Rw: np.ndarray


@dataclass(frozen=True)
class MultiModelDynamics:
    """Transition matrix drawn i.i.d. per step from a finite model bank."""

    transition_dist: MatrixDist
    H: np.ndarray
    Rv: np.ndarray
    Rw: np.ndarray


def build_uncertain_obs(m: UncertainObsModel, k: int) -> StepModel:
    """General uncertain-observation step: H moments from the finite dist."""
    return StepModel(F=deterministic(m.F),
                     H=moments_from_dist(m.measurement_dist), Rv=m.Rv, Rw=m.Rw)


def build_nahi(m: NahiModel, k: int) -> StepModel:
    """Single-sensor dropout: the one-block partitioned model of h, with
    mean p h and the one factor sqrt(p (1-p)) h."""
    return build_partitioned(
        PartitionedObsModel(blocks=((m.h, m.p),), F=m.F, Rv=m.Rv, Rw=m.Rw), k)


def build_partitioned(m: PartitionedObsModel, k: int) -> StepModel:
    """Stacked measurement with independent per-block dropout.

    The blocks and their probabilities form a BlockDropout, whose B
    deviation factors make the quad form block-diagonal with blocks
    (1-p_i) p_i h_i X h_i^T.  BlockDropout names the first block whose
    probability is outside [0, 1].
    """
    dist = BlockDropout(blocks=tuple(h for h, _ in m.blocks),
                        probs=[p for _, p in m.blocks])
    return StepModel(F=deterministic(m.F), H=moments_from_dist(dist),
                     Rv=m.Rv, Rw=m.Rw)


def build_multimodel(m: MultiModelDynamics, k: int) -> StepModel:
    """Random transition from a finite model bank, deterministic H."""
    return StepModel(F=moments_from_dist(m.transition_dist),
                     H=deterministic(m.H), Rv=m.Rv, Rw=m.Rw)
