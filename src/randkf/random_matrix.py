"""Random matrices represented by their mean and deviation factors.

A random matrix M enters the filter recursion only through its mean and
the extra covariance it injects, E(M~ X M~^T) with M~ = M - E(M).
``RandomMatrixSpec`` carries exactly that: the mean and deviation factors
G_l of the mean's shape, with E(M~ X M~^T) = sum_l G_l X G_l^T, which
``quad_form`` evaluates.  A deterministic matrix has no factors.

``moments_from_dist`` builds a spec from a finite distribution: a
``MatrixDist`` (sample matrices with probabilities) gives one factor per
sample, and a ``BlockDropout`` (stacked blocks, each present
independently) one per block, so B blocks cost O(B), not 2^B patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_SUM_TOL = 1e-12


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MatrixDist:
    """Finite distribution over matrices of a common shape.

    ``samples`` is a tuple of p-by-q arrays, ``probs`` the matching
    probability vector (nonnegative, summing to one).  ``stacked`` is
    the (l, p, q) array whose rows the samples are; a draw picks a row
    with one uniform (its ``width``) through the cumulative ``cdf``.
    """

    samples: tuple[np.ndarray, ...]
    probs: np.ndarray
    stacked: np.ndarray = field(init=False, repr=False, compare=False)
    cdf: np.ndarray = field(init=False, repr=False, compare=False)
    width = 1

    def __post_init__(self):
        samples = tuple(_frozen(np.atleast_2d(s)) for s in self.samples)
        probs = _frozen(np.asarray(self.probs, dtype=float).ravel())
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "probs", probs)
        if len(samples) < 1:
            raise ValueError("MatrixDist needs at least one sample")
        if len(samples) != probs.size:
            raise ValueError(
                f"{len(samples)} samples but {probs.size} probabilities"
            )
        shape = samples[0].shape
        for s in samples[1:]:
            if s.shape != shape:
                raise ValueError(
                    f"sample shape mismatch: {s.shape} vs {shape}"
                )
        if not np.isfinite(probs).all():
            raise ValueError("non-finite probability in MatrixDist")
        if np.any(probs < 0):
            raise ValueError("negative probability in MatrixDist")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "stacked", _frozen(np.stack(samples)))
        object.__setattr__(self, "cdf", _frozen(cdf))

    @classmethod
    def of(cls, pairs) -> "MatrixDist":
        """Build from an iterable of (matrix, probability) pairs."""
        mats, probs = zip(*pairs)
        return cls(samples=tuple(mats), probs=np.asarray(probs, dtype=float))


@dataclass(frozen=True)
class BlockDropout:
    """Stacked blocks h_i, each present independently with probability p_i.

    A draw stacks b_i h_i, block after block, with independent
    Bernoulli(p_i) variables b_i.  ``stacked`` is the (B, N, q) array
    whose layer i is h_i in its own rows and zero elsewhere.  A draw
    takes one uniform per block: ``width`` is B.
    """

    blocks: tuple[np.ndarray, ...]
    probs: np.ndarray
    stacked: np.ndarray = field(init=False, repr=False, compare=False)
    width = property(lambda self: self.probs.size)

    def __post_init__(self):
        blocks = tuple(_frozen(np.atleast_2d(h)) for h in self.blocks)
        probs = _frozen(np.asarray(self.probs, dtype=float).ravel())
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "probs", probs)
        if not blocks:
            raise ValueError("need at least one block")
        if len(blocks) != probs.size:
            raise ValueError(
                f"{len(blocks)} blocks but {probs.size} probabilities")
        if len({h.shape[1] for h in blocks}) > 1:
            raise ValueError("blocks disagree on state dimension")
        ok = (probs >= 0) & (probs <= 1)  # False for NaN
        if not ok.all():
            i = np.argmin(ok)
            raise ValueError(f"block {i}: probability {probs[i]} outside "
                             "[0, 1]")
        rows = np.repeat(np.arange(probs.size), [h.shape[0] for h in blocks])
        on = rows == np.arange(probs.size)[:, None]
        stacked = np.where(on[..., None], np.vstack(blocks), 0.0)
        stacked.setflags(write=False)
        object.__setattr__(self, "stacked", stacked)


@dataclass(frozen=True)
class RandomMatrixSpec:
    """Mean and deviation factors of a random matrix.

    ``factors`` has shape (L, p, q): E(M~ X M~^T) = sum_l G_l X G_l^T,
    and a deterministic matrix has L = 0.  ``source`` is the finite
    distribution the moments came from; only ``moments_from_dist`` sets
    it, so a spec cannot disagree with its source.  A stack of
    specs carries leading axes on both arrays, ``mean`` (..., p, q) and
    ``factors`` (..., L, p, q); ``shape`` is that of one member.
    """

    mean: np.ndarray
    factors: np.ndarray
    source: MatrixDist | BlockDropout | None = field(default=None, init=False)

    def __post_init__(self):
        mean = _frozen(np.atleast_2d(self.mean))
        factors = _frozen(self.factors)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "factors", factors)
        if (factors.ndim != mean.ndim + 1
                or factors.shape[:-3] + factors.shape[-2:] != mean.shape):
            raise ValueError(f"factors shape {factors.shape} does not "
                             f"match mean {mean.shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.mean.shape[-2:]


def deterministic(matrix) -> RandomMatrixSpec:
    """Spec for a non-random matrix: no deviation factors."""
    mean = np.atleast_2d(np.asarray(matrix, dtype=float))
    return RandomMatrixSpec(mean=mean, factors=np.zeros((0,) + mean.shape))


def moments_from_dist(dist: MatrixDist | BlockDropout) -> RandomMatrixSpec:
    """Mean and deviation factors of a finite matrix distribution.

    A MatrixDist has mean sum_t p_t M_t and factors sqrt(p_t) (M_t - mean);
    a BlockDropout has mean [p_i h_i] and factors sqrt(p_i (1 - p_i)) h_i,
    each zero-padded to the full rows.  The spec's ``source`` is ``dist``.
    """
    p = dist.probs
    mean = np.einsum("t,tij->ij", p, dist.stacked)
    if isinstance(dist, BlockDropout):
        factors = np.sqrt(p * (1.0 - p))[:, None, None] * dist.stacked
    else:
        factors = np.sqrt(p)[:, None, None] * (dist.stacked - mean)
    spec = RandomMatrixSpec(mean=mean, factors=factors)
    object.__setattr__(spec, "source", dist)
    return spec


def quad_form(spec: RandomMatrixSpec, X, out: np.ndarray | None = None
              ) -> np.ndarray:
    """E(M~ X M~^T) = sum_l G_l X G_l^T, added into one output factor by
    factor, in order, with no (..., L, p, p) tensor of the terms.  It is
    symmetric only to rounding (the filter symmetrizes what it records).
    Leading axes of a stacked spec and of X (a batch of steps, say)
    broadcast; each member is bit-identical to its own unstacked call.
    ``out``, if given, is zeroed and takes the sum in place of a new
    array.
    """
    X = np.asarray(X, dtype=float)
    G = np.moveaxis(spec.factors, -3, 0)
    p, q = G.shape[-2:]
    if X.shape[-2:] != (q, q):
        raise ValueError(f"X has shape {X.shape}, expected ({q}, {q})")
    shape = np.broadcast_shapes(G.shape[1:-2], X.shape[:-2]) + (p, p)
    if out is None:
        out = np.zeros(shape)
    else:
        out[...] = 0.0
    for g in G:
        out += g @ X @ g.mT
    return out


def sample_matrix(dist: MatrixDist | BlockDropout,
                  u: np.ndarray) -> np.ndarray:
    """Map uniforms (..., dist.width) to matrices (..., p, q).

    A MatrixDist's one uniform per draw is inverted through its CDF as
    ``rng.choice`` does, without that method's validation of ``probs``; a
    BlockDropout keeps block i where its uniform is below p_i.  Equal
    uniforms give equal draws.
    """
    if isinstance(dist, BlockDropout):
        return np.tensordot(u < dist.probs, dist.stacked, axes=1)
    return dist.stacked.take(dist.cdf.searchsorted(u[..., 0], "right"),
                             axis=0)
