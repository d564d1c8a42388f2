"""Recursive linear-minimum-variance filter for random parameter matrices.

The system x_{k+1} = F_k x_k + v_k, y_k = H_k x_k + w_k with random F_k,
H_k is handled by filtering the converted system with mean matrices
Fbar, Hbar and inflated noise covariances

    Rv_eff = Rv + E(F~ X F~^T),    Rw_eff = Rw + E(H~ X H~^T),

where X_k = E(x_k x_k^T) is propagated by its own data-independent
recursion alongside the usual mean/covariance pair.  With deterministic
parameter matrices everything reduces to a standard Kalman filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .random_matrix import RandomMatrixSpec, deterministic, quad_form

# Gain path switches from a symmetric solve to an eigendecomposition
# pseudo-inverse when the innovation covariance gets this ill-conditioned.
COND_LIMIT = 1e12
PINV_CUTOFF = 1e-12


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _check_psd(m: np.ndarray, name: str, tol: float = 1e-10) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} is not square: {m.shape}")
    if not np.allclose(m, m.T, atol=tol * max(1.0, abs(np.trace(m)))):
        raise ValueError(f"{name} is not symmetric")
    w = np.linalg.eigvalsh(symmetrize(m))
    if w.min(initial=0.0) < -tol * max(1.0, abs(np.trace(m))):
        raise ValueError(f"{name} is not positive semidefinite")
    return symmetrize(m)


@dataclass(frozen=True)
class InitialCondition:
    """Prior mean and covariance of the initial state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = _check_psd(self.cov, "initial covariance")
        if cov.shape[0] != mean.size:
            raise ValueError("initial mean/cov dimension mismatch")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class StepModel:
    """One step of the system: transition F, measurement H, noise covariances.

    ``Rv`` and ``Rw`` are read-only, as the spec arrays are: one model may
    serve every step and both the sampler and the filter.
    """

    F: RandomMatrixSpec
    H: RandomMatrixSpec
    Rv: np.ndarray
    Rw: np.ndarray

    def __post_init__(self):
        Rv = _check_psd(self.Rv, "Rv")
        Rw = _check_psd(self.Rw, "Rw")
        r = self.F.shape[0]
        if self.F.shape != (r, r):
            raise ValueError("F must be square")
        if self.H.shape[1] != r:
            raise ValueError("H column count must match state dimension")
        if Rv.shape[0] != r:
            raise ValueError("Rv dimension must match state dimension")
        if Rw.shape[0] != self.H.shape[0]:
            raise ValueError("Rw dimension must match measurement dimension")
        for name, a in (("Rv", Rv), ("Rw", Rw)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


ModelProvider = Callable[[int], StepModel]


def memoized(provider: ModelProvider) -> ModelProvider:
    """Cache provider results per step.

    The adapters already reuse their last StepModel; this serves
    providers the library does not build, which may make a new model on
    every call (e.g. ``naive_kf_provider``).
    """
    cache: dict[int, StepModel] = {}

    def cached(k: int) -> StepModel:
        if k not in cache:
            cache[k] = provider(k)
        return cache[k]

    return cached


def deterministic_model(F, H, Rv, Rw) -> StepModel:
    """StepModel with non-random F and H."""
    return StepModel(F=deterministic(F), H=deterministic(H),
                     Rv=np.asarray(Rv, dtype=float),
                     Rw=np.asarray(Rw, dtype=float))


def constant_provider(model: StepModel) -> ModelProvider:
    return lambda k: model


@dataclass(frozen=True)
class FilterState:
    """Posterior mean/covariance plus the unconditional second moment.

    ``mean`` is (r,), or (runs, r) with one row per run; ``cov`` and
    ``second_moment`` are data-independent and shared by all runs.
    """

    step: int
    mean: np.ndarray
    cov: np.ndarray
    second_moment: np.ndarray


@dataclass(frozen=True)
class PredictedState:
    step: int
    mean: np.ndarray
    cov: np.ndarray
    second_moment: np.ndarray


def init(ic: InitialCondition) -> FilterState:
    """Initial filter state; X_0 = mu_0 mu_0^T + P_0."""
    x0 = np.outer(ic.mean, ic.mean) + ic.cov
    return FilterState(step=0, mean=ic.mean.copy(), cov=ic.cov.copy(),
                       second_moment=x0)


def _require_finite(step: int, **mats: np.ndarray) -> None:
    for name, a in mats.items():
        if not np.isfinite(a).all():
            raise ValueError(f"{name} is not finite at step {step}")


def predict(s: FilterState | PredictedState, m: StepModel) -> PredictedState:
    """Time update through the random transition matrix.

    Propagates the mean through Fbar, the covariance through the
    Riccati step with the inflated process noise Rv + E(F~ X F~^T),
    and the unconditional second moment through its own recursion.
    """
    Fbar = m.F.mean
    if Fbar.shape[1] != s.mean.shape[-1]:
        raise ValueError("state dimension does not match transition matrix")
    qf = quad_form(m.F, s.second_moment)
    cov = symmetrize(Fbar @ s.cov @ Fbar.T + m.Rv + qf)
    second = symmetrize(Fbar @ s.second_moment @ Fbar.T + qf + m.Rv)
    _require_finite(s.step + 1, P=cov, X=second)
    return PredictedState(step=s.step + 1, mean=s.mean @ Fbar.T, cov=cov,
                          second_moment=second)


def _gain(cov: np.ndarray, Hbar: np.ndarray, S: np.ndarray) -> np.ndarray:
    """K = cov Hbar^T S^+, pseudo-inverting only when S is ill-conditioned."""
    w = np.linalg.eigvalsh(S)
    wmax = w.max(initial=0.0)
    if wmax <= 0.0:
        return np.zeros((cov.shape[0], S.shape[0]))
    if w.min() > 0 and wmax / w.min() < COND_LIMIT:
        return np.linalg.solve(S, Hbar @ cov).T
    w, V = np.linalg.eigh(S)
    keep = w > PINV_CUTOFF * wmax
    S_pinv = (V[:, keep] / w[keep]) @ V[:, keep].T
    return cov @ Hbar.T @ S_pinv


def update(p: PredictedState, y, m: StepModel, *,
           joseph: bool = False) -> FilterState:
    """Measurement update with the random measurement matrix.

    The innovation covariance uses Rw + E(H~ X H~^T) evaluated at the
    predicted second moment; it and the gain serve every run (row) of
    the mean and of ``y``.  The second moment itself is unconditional
    and passes through unchanged.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    Hbar = m.H.mean
    if y.shape[-1] != Hbar.shape[0]:
        raise ValueError("measurement dimension mismatch")
    if Hbar.shape[1] != p.mean.shape[-1]:
        raise ValueError("state dimension does not match measurement matrix")
    Rw_eff = m.Rw + quad_form(m.H, p.second_moment)
    S = symmetrize(Hbar @ p.cov @ Hbar.T + Rw_eff)
    _require_finite(p.step, measurement=y, S=S)
    K = _gain(p.cov, Hbar, S)
    mean = p.mean + (y - p.mean @ Hbar.T) @ K.T
    if joseph:
        A = np.eye(Hbar.shape[1]) - K @ Hbar
        cov = A @ p.cov @ A.T + K @ Rw_eff @ K.T
    else:
        cov = (np.eye(Hbar.shape[1]) - K @ Hbar) @ p.cov
    return FilterState(step=p.step, mean=mean, cov=symmetrize(cov),
                       second_moment=p.second_moment)


def step(s: FilterState, y, m: StepModel, *, joseph: bool = False) -> FilterState:
    """One predict/update cycle, step counter incremented."""
    return update(predict(s, m), y, m, joseph=joseph)


def filter_sequence(provider: ModelProvider, ic: InitialCondition,
                    measurements: Sequence, *,
                    joseph: bool = False) -> list[FilterState]:
    """Run the filter over measurements y_0 ... y_K.

    ``measurements`` is (K+1, N), or (runs, K+1, N) for runs of one model
    sequence; the state means then carry the run axis.  y_0 is absorbed
    by a measurement-only update of the prior at step 0 (the prior plays
    the role of the step-0 prediction); each later y_k follows a predict
    through provider(k-1) and an update with provider(k)'s measurement
    model.  A non-finite measurement, P, X or S raises a ValueError that
    names its step.
    """
    ys = np.asarray(measurements, dtype=float)
    if ys.ndim not in (2, 3) or ys.shape[-2] == 0:
        raise ValueError("need (K+1, N) or (runs, K+1, N) measurements")
    return _recursion(provider, ic, ys, joseph=joseph)


def _recursion(provider: ModelProvider, ic: InitialCondition, ys: np.ndarray,
               *, joseph: bool = False) -> list[FilterState]:
    """P/X/S/K once per step, and the mean of every run in ys (..., K+1, N).

    With no runs (an empty leading axis) only the data-independent part
    is left.
    """
    provider = memoized(provider)
    s0 = init(ic)
    mean = np.broadcast_to(s0.mean, ys.shape[:-2] + s0.mean.shape)
    prior = PredictedState(step=0, mean=mean, cov=s0.cov,
                           second_moment=s0.second_moment)
    states = [update(prior, ys[..., 0, :], provider(0), joseph=joseph)]
    for k in range(1, ys.shape[-2]):
        p = predict(states[-1], provider(k - 1))
        states.append(update(p, ys[..., k, :], provider(k), joseph=joseph))
    return states
