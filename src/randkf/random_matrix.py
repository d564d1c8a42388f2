"""Random matrices represented by moments or finite distributions.

A random matrix enters the filter recursion only through its mean and the
covariances of its entries.  ``RandomMatrixSpec`` carries exactly that:
the mean matrix and a fourth-order tensor ``dev_cov`` with

    dev_cov[i, j, m, n] = Cov(M_ij, M_mn).

Finite distributions (a list of sample matrices with probabilities) are
the constructor of record for all the application models; the tensor is
the filter-facing interface.  ``quad_form`` evaluates the extra
covariance injected by matrix randomness, E(M~ X M~^T), from the tensor;
``quad_form_discrete`` evaluates the same quantity by mixture summation
and serves as the internal cross-check of the tensor path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_SUM_TOL = 1e-12
MOMENT_TOL = 1e-12


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MatrixDist:
    """Finite distribution over matrices of a common shape.

    ``samples`` is a tuple of p-by-q arrays, ``probs`` the matching
    probability vector (nonnegative, summing to one).  ``stacked`` is
    the (l, p, q) array whose rows the samples are.
    """

    samples: tuple[np.ndarray, ...]
    probs: np.ndarray
    stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        samples = tuple(_frozen(np.atleast_2d(s)) for s in self.samples)
        probs = _frozen(np.asarray(self.probs, dtype=float).ravel())
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
        if np.any(probs < 0):
            raise ValueError("negative probability in MatrixDist")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        stacked = np.stack(samples)
        stacked.setflags(write=False)
        object.__setattr__(self, "stacked", stacked)
        # the samples become views of the stack, so their data is held once
        object.__setattr__(self, "samples", tuple(stacked))

    @classmethod
    def of(cls, pairs) -> "MatrixDist":
        """Build from an iterable of (matrix, probability) pairs."""
        mats, probs = zip(*pairs)
        return cls(samples=tuple(mats), probs=np.asarray(probs, dtype=float))

    @property
    def shape(self) -> tuple[int, int]:
        return self.samples[0].shape

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class RandomMatrixSpec:
    """Mean and entrywise deviation covariance of a random matrix.

    ``dev_cov`` has shape (p, q, p, q) and is symmetric under swapping
    the index pairs; ``source`` records the finite distribution the
    moments came from, when there was one.
    """

    mean: np.ndarray
    dev_cov: np.ndarray
    source: MatrixDist | None = None

    def __post_init__(self):
        mean = _frozen(np.atleast_2d(self.mean))
        dev = _frozen(self.dev_cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "dev_cov", dev)
        p, q = mean.shape
        if dev.shape != (p, q, p, q):
            raise ValueError(
                f"dev_cov shape {dev.shape} does not match mean {mean.shape}"
            )
        flat = dev.reshape(p * q, p * q)
        if not np.allclose(flat, flat.T, atol=MOMENT_TOL, rtol=0):
            raise ValueError("dev_cov not symmetric under pair swap")
        if np.any(np.diag(flat) < -MOMENT_TOL):
            raise ValueError("negative entry variance in dev_cov")
        if self.source is not None:
            ref_mean, ref_dev = _dist_moments(self.source)
            scale = max(1.0, float(np.abs(ref_mean).max()))
            if not (
                np.allclose(mean, ref_mean, atol=MOMENT_TOL * scale, rtol=0)
                and np.allclose(dev, ref_dev,
                                atol=MOMENT_TOL * scale ** 2, rtol=0)
            ):
                raise ValueError("moments inconsistent with source dist")

    @property
    def shape(self) -> tuple[int, int]:
        return self.mean.shape

    @property
    def is_deterministic(self) -> bool:
        return not np.any(self.dev_cov)


def deterministic(matrix) -> RandomMatrixSpec:
    """Spec for a non-random matrix: zero deviation covariance."""
    mean = np.atleast_2d(np.asarray(matrix, dtype=float))
    p, q = mean.shape
    return RandomMatrixSpec(mean=mean, dev_cov=np.zeros((p, q, p, q)))


def _dist_moments(dist: MatrixDist) -> tuple[np.ndarray, np.ndarray]:
    mean = np.einsum("t,tij->ij", dist.probs, dist.stacked)
    devs = dist.stacked - mean
    dev_cov = np.einsum("t,tij,tmn->ijmn", dist.probs, devs, devs)
    return mean, dev_cov


def moments_from_dist(dist: MatrixDist) -> RandomMatrixSpec:
    """First and second moments of a finite matrix distribution.

    mean = sum_j p_j M_j and
    dev_cov[i,j,m,n] = sum_t p_t (M_t - mean)_ij (M_t - mean)_mn.
    """
    mean, dev_cov = _dist_moments(dist)
    return RandomMatrixSpec(mean=mean, dev_cov=dev_cov, source=dist)


def _check_quad_input(shape: tuple[int, int], X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    q = shape[1]
    if X.shape != (q, q):
        raise ValueError(f"X has shape {X.shape}, expected ({q}, {q})")
    return X


def quad_form(spec: RandomMatrixSpec, X) -> np.ndarray:
    """E(M~ X M~^T) from the deviation covariance tensor.

    Entrywise, result[m, n] = sum_{i,j} Cov(M_mi, M_nj) X[i, j].  The
    numeric result is symmetrized to kill round-off asymmetry since the
    downstream Riccati steps assume symmetry.
    """
    X = _check_quad_input(spec.shape, X)
    out = np.einsum("minj,ij->mn", spec.dev_cov, X)
    return 0.5 * (out + out.T)


def quad_form_discrete(dist: MatrixDist, X) -> np.ndarray:
    """E(M~ X M~^T) by direct mixture summation over the samples.

    Equals quad_form(moments_from_dist(dist), X) up to round-off; the
    two paths cross-check each other.
    """
    X = _check_quad_input(dist.shape, X)
    mean = np.einsum("t,tij->ij", dist.probs, dist.stacked)
    devs = dist.stacked - mean
    out = np.einsum("t,tij,jk,tlk->il", dist.probs, devs, X, devs)
    return 0.5 * (out + out.T)


def sample_matrix(dist: MatrixDist, rng: np.random.Generator,
                  size: int | None = None) -> np.ndarray:
    """Draw one sample matrix, or a (size, p, q) stack of them.

    Identical seeds yield identical draws.  This is ``rng.choice``'s
    inverse-CDF draw without its validation of ``probs``, which costs
    several times the draw.
    """
    cdf = dist.probs.cumsum()
    cdf /= cdf[-1]
    return dist.stacked.take(cdf.searchsorted(rng.random(size), "right"),
                             axis=0)
