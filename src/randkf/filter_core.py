"""Recursive linear-minimum-variance filter for random parameter matrices.

The system x_{k+1} = F_k x_k + v_k, y_k = H_k x_k + w_k with random F_k,
H_k is handled by filtering the converted system with mean matrices
Fbar, Hbar and inflated noise covariances

    Rv_eff = Rv + E(F~ X F~^T),    Rw_eff = Rw + E(H~ X H~^T),

where X_k = E(x_k x_k^T) takes the same time update as P_k; the two are
stacked as one ``moments`` array, and ``filter_sequence`` records every
step's in one ``FilterRecord`` (De Koning's gain schedule).  With
deterministic parameter matrices it reduces to a standard Kalman filter.
``filter_sequence`` is the one entry point: it checks its inputs once and
scans the record's P and X for finiteness once, and ``predict``/``update``
are its steps, which only write its record; ``update`` symmetrizes each
step's [P, X] once.  A step whose every member the S >= Rw certificate
covers is solved by LAPACK's gufunc directly (``_lapack_solve``).  The
data-independent half (P, X, S, K) accepts a leading model axis
(``stack_models``); each member is bit-identical to its own run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
# the gufunc np.linalg.solve wraps; a numpy without it fails this import
from numpy.linalg._umath_linalg import solve as _lapack_solve

from .random_matrix import RandomMatrixSpec, quad_form

# Gain path switches from a symmetric solve to a pseudo-inverse (cutoff
# w_max / COND_LIMIT) when S may be this ill-conditioned.
COND_LIMIT = 1e12
# trace-scaled tolerance of the symmetry and PSD checks on covariances
PSD_TOL = 1e-10


def symmetrize(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(a + a^T) / 2, halved in place or written into ``out``."""
    s = a + a.mT
    return np.multiply(s, 0.5, out=s if out is None else out)


def _check_psd(m: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """m symmetrized and its (each member's) smallest eigenvalue, after
    checking that it (each member of a stack (..., n, n)) is square,
    finite, symmetric and PSD to PSD_TOL."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name} is not square: {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} is not finite")
    atol = PSD_TOL * np.maximum(1.0, np.abs(np.trace(m, axis1=-2, axis2=-1)))
    if not np.allclose(m, m.mT, rtol=0, atol=atol[..., None, None]):
        raise ValueError(f"{name} is not symmetric")
    m = symmetrize(m)
    w_min = np.linalg.eigvalsh(m).min(axis=-1, initial=np.inf)
    if np.any(w_min < -atol):
        raise ValueError(f"{name} is not positive semidefinite")
    return m, w_min


@dataclass(frozen=True)
class InitialCondition:
    """Prior mean and covariance of the initial state, as read-only copies."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).ravel()
        if not np.isfinite(mean).all():
            raise ValueError("mean is not finite")
        cov, _ = _check_psd(self.cov, "cov")
        if cov.shape[0] != mean.size:
            raise ValueError("mean/cov dimension mismatch")
        for name, a in (("mean", mean), ("cov", cov)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class StepModel:
    """One step of the system: transition F, measurement H, noise covariances.

    ``Rv`` and ``Rw`` are read-only, as the spec arrays are: one model may
    serve every step and both the sampler and the filter.  A stacked
    model (``stack_models``) has the same leading model axes on all four.
    ``S_trace_max`` is (each member's) COND_LIMIT / 2 * lambda_min(Rw),
    the trace of S below which ``update`` certifies a member's solve, and
    the float ``S_trace_sum_max`` is its smallest member's: a trace of S
    summed over the members below it certifies every member.
    """

    F: RandomMatrixSpec
    H: RandomMatrixSpec
    Rv: np.ndarray
    Rw: np.ndarray
    S_trace_max: np.ndarray = field(init=False, repr=False)
    S_trace_sum_max: float = field(init=False, repr=False)

    def __post_init__(self):
        Rv, _ = _check_psd(self.Rv, "Rv")
        Rw, Rw_min = _check_psd(self.Rw, "Rw")
        r = self.F.shape[0]
        if self.F.shape != (r, r):
            raise ValueError("F must be square")
        if self.H.shape[1] != r:
            raise ValueError("H column count must match state dimension")
        if Rv.shape[-1] != r:
            raise ValueError("Rv dimension must match state dimension")
        if Rw.shape[-1] != self.H.shape[0]:
            raise ValueError("Rw dimension must match measurement dimension")
        lead = self.F.mean.shape[:-2]
        if not (self.H.mean.shape[:-2] == Rv.shape[:-2] == Rw.shape[:-2]
                == lead):
            raise ValueError("F, H, Rv and Rw disagree on the model axes")
        S_trace_max = COND_LIMIT / 2 * Rw_min
        for name, a in (("Rv", Rv), ("Rw", Rw), ("S_trace_max", S_trace_max)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "S_trace_sum_max",
                           float(np.min(S_trace_max, initial=np.inf)))


ModelProvider = Callable[[int], StepModel]


def stack_models(models: Sequence[StepModel]) -> StepModel:
    """One StepModel whose arrays carry a leading model axis; member i
    is models[i].  The members must share every matrix shape and their
    numbers of deviation factors."""
    models = list(models)
    if not models:
        raise ValueError("need at least one model to stack")
    shapes = {(m.F.factors.shape, m.H.factors.shape, m.Rv.shape, m.Rw.shape)
              for m in models}
    if len(shapes) > 1:
        raise ValueError(f"cannot stack models of different shapes: "
                         f"{sorted(shapes)}")

    def spec(specs: list[RandomMatrixSpec]) -> RandomMatrixSpec:
        return RandomMatrixSpec(mean=np.stack([s.mean for s in specs]),
                                factors=np.stack([s.factors for s in specs]))

    return StepModel(F=spec([m.F for m in models]),
                     H=spec([m.H for m in models]),
                     Rv=np.stack([m.Rv for m in models]),
                     Rw=np.stack([m.Rw for m in models]))


def constant_provider(model: StepModel) -> ModelProvider:
    return lambda k: model


class _Moments:
    """``cov`` (P) and ``second_moment`` (X) as views of ``moments``."""

    cov = property(lambda self: self.moments[..., 0, :, :])
    second_moment = property(lambda self: self.moments[..., 1, :, :])


@dataclass(frozen=True)
class FilterState(_Moments):
    """Mean, covariance and unconditional second moment after a
    measurement update or (from ``predict``) before one.

    ``mean`` is (r,), or (runs, r) with one row per run; ``moments`` is
    [P, X] (2, r, r), data-independent and shared by all runs.  A
    stacked model puts its model axes in front of both.
    """

    step: int
    mean: np.ndarray
    moments: np.ndarray


@dataclass(frozen=True)
class FilterRecord(_Moments):
    """Every step's ``mean`` ([models,] [runs,] K+1, r) and ``moments``
    (K+1, [models,] 2, r, r); ``rec[k]`` is step k's FilterState, whose
    arrays are views of the record's.  ``filter_sequence`` stores the
    means step-major, (K+1, [models,] [runs,] r), and ``mean`` is an
    np.moveaxis view of that storage, so each step's are one contiguous
    block."""

    mean: np.ndarray
    moments: np.ndarray

    def __len__(self) -> int:
        return len(self.moments)

    def __getitem__(self, k: int) -> FilterState:
        k = range(len(self.moments))[operator.index(k)]
        return FilterState(k, self.mean[..., k, :], self.moments[k])


def init(ic: InitialCondition) -> FilterState:
    """Initial filter state; X_0 = mu_0 mu_0^T + P_0."""
    x0 = np.outer(ic.mean, ic.mean) + ic.cov
    return FilterState(0, ic.mean.copy(), np.stack([ic.cov, x0]))


def _effective_noise(R: np.ndarray, spec: RandomMatrixSpec,
                     s: FilterState) -> np.ndarray:
    """R + E(M~ X M~^T) at s's X; a matrix without deviation factors adds
    nothing and reads no X."""
    return (R + quad_form(spec, s.second_moment) if spec.factors.shape[-3]
            else R)


def predict(s: FilterState, m: StepModel, *, out: FilterState) -> FilterState:
    """Time update through the random transition matrix, written into
    ``out`` (a FilterRecord's step): P and X both take
    Fbar M Fbar^T + Rv + E(F~ X F~^T), in one product over the stacked
    moments, as summed (``update`` symmetrizes the slot); the means (if
    any runs) go through Fbar."""
    Fbar = m.F.mean
    Rv_eff = _effective_noise(m.Rv, m.F, s)
    F = Fbar[..., None, :, :]
    moments = np.matmul(F @ s.moments, F.mT, out=out.moments)
    moments += Rv_eff[..., None, :, :]
    if s.mean.size:
        np.matmul(s.mean, Fbar.mT, out=out.mean)
    return out


def _gain(HP: np.ndarray, S: np.ndarray, good: np.ndarray) -> np.ndarray:
    """K = (Hbar P)^T S^+ for one S (N, N) or a stack (..., N, N).

    The members ``update`` certifies (``good``) are solved in one batch;
    every other member gets one batched eigenvalue-truncated
    pseudo-inverse of S's lower triangle (K = 0 where S = 0).
    """
    K = np.empty(HP.mT.shape)
    if good.any():
        K[good] = _lapack_solve(S[good], HP[good]).mT
    w, V = np.linalg.eigh(S[~good])
    keep = (COND_LIMIT * w > w[..., -1:])[..., None, :]
    Vw = np.divide(V, w[..., None, :], where=keep, out=np.zeros_like(V))
    K[~good] = HP[~good].mT @ Vw @ V.mT
    return K


def update(p: FilterState, y: np.ndarray, m: StepModel) -> FilterState:
    """Measurement update with the random measurement matrix, in place:
    ``p`` (a FilterRecord's step) takes the posterior and is returned.

    Both gain paths read one S = Hbar P Hbar^T + Rw + E(H~ X H~^T), at
    the predicted P and X as ``predict`` summed them, unsymmetrized.  S
    dominates Rw, so cond(S) <= tr(S) / lambda_min(Rw) certifies the
    members with tr(S) < S_trace_max (2 to spare for rounding); every
    tr(S) is at least 0, so a trace summed over the members below
    S_trace_sum_max certifies them all.  Such a step is solved here by
    LAPACK's gufunc, without ``np.linalg.solve``'s wrapper: S is square
    float64 and, certified, finite and nonsingular, so none of the
    wrapper's checks could fire.  Any other step goes to ``_gain`` with
    the members' certificate if S is finite (a non-finite diagonal never
    passes the sum).  S and the gain serve every run (row) of the mean
    and of ``y``.  P takes P - K (Hbar P), X is kept, and the slot
    [P, X] is symmetrized once.
    """
    Hbar = m.H.mean
    P = p.cov
    HP = Hbar @ P
    S = HP @ Hbar.mT + _effective_noise(m.Rw, m.H, p)
    if np.add.reduce(S.diagonal(0, -2, -1), axis=None) < m.S_trace_sum_max:
        K = _lapack_solve(S, HP).mT
    elif np.isfinite(S).all():
        K = _gain(HP, S, S.trace(axis1=-2, axis2=-1) < m.S_trace_max)
    else:
        raise ValueError(f"S is not finite at step {p.step}")
    if p.mean.size:
        np.add(p.mean, (y - p.mean @ Hbar.mT) @ K.mT, out=p.mean)
    P -= K @ HP
    symmetrize(p.moments, out=p.moments)
    return p


def _check_shapes(m: StepModel, k: int, shapes: tuple) -> None:
    """Raise unless step k's Fbar and Hbar have the run's ``shapes``:
    its state and measurement dimensions and step 0's model axes."""
    got = (m.F.mean.shape, m.H.mean.shape)
    if got != shapes:
        raise ValueError(f"model at step {k} has F {got[0]} and H {got[1]}; "
                         f"the run needs F {shapes[0]} and H {shapes[1]}")


def _check_finite(moments: np.ndarray) -> None:
    """Raise naming the first of steps 1, 2, ... of ``moments`` whose P,
    or else X, is not finite."""
    ok = np.isfinite(moments).all(axis=(-2, -1))
    ok = ok.all(axis=tuple(range(1, ok.ndim - 1)))  # (steps, [P, X])
    if not ok.all():
        k = int(np.argmin(ok.all(axis=1)))
        raise ValueError(f"{'X' if ok[k, 0] else 'P'} is not finite at "
                         f"step {k + 1}")


def filter_sequence(provider: ModelProvider, ic: InitialCondition,
                    measurements: Sequence) -> FilterRecord:
    """Run the filter over measurements y_0 ... y_K.

    ``measurements`` is (K+1, N), or (runs, K+1, N) for runs of one model
    sequence; the state means then carry the run axis.  The measurements
    are read through a step-major np.moveaxis view, so a TruthTrajectory's
    are used as they are, with no copy, and the means are recorded
    step-major (see FilterRecord).  y_0 is absorbed
    by a measurement-only update of the prior at step 0 (the prior plays
    the role of the step-0 prediction); each later y_k follows a predict
    through provider(k-1) and an update with provider(k)'s measurement
    model.  provider(k) is called once per step, in order, and the prior
    takes provider(0)'s model axes.  With no runs (runs = 0) only the
    data-independent P, X, S, K are left.  A non-finite measurement, P, X
    or S, and a model whose dimensions or model axes differ from the
    run's, raise a ValueError that names its (first) step.  P and X are
    scanned once, after the last step or at the first other failure.
    """
    ys = np.asarray(measurements, dtype=float)
    if ys.ndim not in (2, 3) or ys.shape[-2] == 0:
        raise ValueError("need (K+1, N) or (runs, K+1, N) measurements")
    ys = np.moveaxis(ys, -2, 0)  # step-major view: ys[k] is step k's
    if not np.isfinite(ys).all():
        step = np.nonzero(~np.isfinite(ys))[0].min()
        raise ValueError(f"measurement is not finite at step {step}")
    m = provider(0)
    lead, steps = m.Rv.shape[:-2], len(ys)
    if lead and ys.ndim == 2:
        # a 1-D mean would meet the model axis twice (through Hbar, then
        # through the gain) and come out with a wrong shape
        raise ValueError("a stacked model needs a run axis: "
                         "(runs, K+1, N) measurements")
    r, N = ic.mean.size, ys.shape[-1]
    runs = ys.shape[1:-1] + (r,)
    shapes = (lead + (r, r), lead + (N, r))
    _check_shapes(m, 0, shapes)
    rec = FilterRecord(np.moveaxis(np.empty((steps,) + lead + runs), 0, -2),
                       np.empty((steps,) + lead + (2, r, r)))
    rec.mean[..., 0, :] = ic.mean
    rec.moments[0] = init(ic).moments
    s = update(rec[0], ys[0], m)
    k = 0  # the last step written, for the scan
    try:
        for k in range(1, steps):
            p = predict(s, m, out=rec[k])
            m, prev = provider(k), m
            if m is not prev:
                _check_shapes(m, k, shapes)
            s = update(p, ys[k], m)
    finally:  # a P or X that is not finite is named before a later failure
        _check_finite(rec.moments[1:k + 1])
    return rec
