"""Recursive linear-minimum-variance filter for random parameter matrices.

x_{k+1} = F_k x_k + v_k, y_k = H_k x_k + w_k with random F_k, H_k is
filtered as the system of mean matrices Fbar, Hbar and noises Rv +
E(F~ X F~^T), Rw + E(H~ X H~^T); X_k = E(x_k x_k^T) follows a linear map
that reads neither P, nor H, nor the data (De Koning).  ``second_moments``
runs that map first, so the Riccati loop of ``filter_sequence``, the one
entry point, carries P alone; its steps ``predict`` and ``update`` write
its ``FilterRecord``'s step-major arrays in place.  With deterministic
matrices this is a Kalman filter.  P, X, S and K accept a leading model
axis (``stack_models``); each member is bit-identical to its own run."""

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


@dataclass(frozen=True)
class FilterState:
    """A record's step ``rec[k]``: its mean ((r,), or (runs, r)), P
    (``cov``) and X (``second_moment``), views of the record's arrays
    after step ``step``'s update; model axes lead all three."""

    step: int
    mean: np.ndarray
    cov: np.ndarray
    second_moment: np.ndarray


@dataclass(frozen=True)
class FilterRecord:
    """Every step's ``mean`` ([models,] [runs,] K+1, r), an np.moveaxis
    view of step-major storage, and ``cov`` and ``second_moment`` (K+1,
    [models,] r, r); ``rec[k]`` is step k's FilterState of views."""

    mean: np.ndarray
    cov: np.ndarray
    second_moment: np.ndarray

    def __len__(self) -> int:
        return len(self.cov)

    def __getitem__(self, k: int) -> FilterState:
        k = range(len(self.cov))[operator.index(k)]
        return FilterState(k, self.mean[..., k, :], self.cov[k],
                           self.second_moment[k])


def _spans(models: Sequence[StepModel]) -> list[tuple[StepModel, slice]]:
    """(model, its steps) for each longest run of consecutive steps that
    one model object serves, in step order."""
    cuts = [k for k in range(1, len(models)) if models[k] is not models[k - 1]]
    return [(models[a], slice(a, b))
            for a, b in zip([0] + cuts, cuts + [len(models)])]


def second_moments(models: Sequence[StepModel], ic: InitialCondition
                   ) -> tuple[np.ndarray, list, list]:
    """X (K+1, [models,] r, r) of ``models``' steps, and the noises
    ``Rv_eff[k]`` of the predict from step k and ``Rw_eff[k]`` of step
    k's update.  X_0 = mu_0 mu_0^T + P_0 and X_{k+1} = sym(Fbar X_k
    Fbar^T + Rv_eff[k]), Rv_eff[k] = Rv + E(F~ X_k F~^T) of models[k] (a
    random F's [Fbar; G_l] take X through one product); Rw_eff[k] = Rw +
    E(H~ X_k H~^T), by one ``quad_form`` per span of steps over X."""
    lead, spans = models[0].Rv.shape[:-2], _spans(models)
    X = np.empty((len(models),) + lead + ic.cov.shape)
    X[0] = np.outer(ic.mean, ic.mean) + ic.cov
    stack = {i: np.concatenate([m.F.mean[..., None, :, :], m.F.factors], -3)
             for i, m in {id(m): m for m, _ in spans}.items()
             if m.F.factors.shape[-3]}
    Xe, Rv_eff = X[..., None, :, :], [m.Rv for m in models[:-1]]
    for k, m in enumerate(models[:-1]):
        Xn = X[k + 1]
        if (A := stack.get(id(m))) is not None:
            T = A @ Xe[k] @ A.mT
            Rv_eff[k] = np.add.reduce(T[..., 1:, :, :], axis=-3)
            Rv_eff[k] += m.Rv
            FXF = T[..., 0, :, :]
        else:
            Fbar = m.F.mean
            FXF = np.matmul(Fbar @ X[k], Fbar.mT, out=Xn)
        np.add(FXF, Rv_eff[k], out=Xn)
        symmetrize(Xn, out=Xn)
    Rw_eff = [m.Rw for m in models]
    for m, at in spans:
        if m.H.factors.shape[-3]:
            noise = quad_form(m.H, X[at])
            noise += m.Rw
            Rw_eff[at] = noise
    return X, Rv_eff, Rw_eff


def predict(mean: np.ndarray, P: np.ndarray, k: int, m: StepModel,
            Rv_eff: np.ndarray) -> None:
    """Time update of the step-major ``mean`` and ``P`` from step k-1
    into step k: P[k] = Fbar P[k-1] Fbar^T + Rv_eff, unsymmetrized, and
    the means (if any runs) go through Fbar."""
    Fbar = m.F.mean
    Pk = np.matmul(Fbar @ P[k - 1], Fbar.mT, out=P[k])
    Pk += Rv_eff
    if mean.size:
        np.matmul(mean[k - 1], Fbar.mT, out=mean[k])


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


def update(mean: np.ndarray, P: np.ndarray, k: int, y: np.ndarray,
           m: StepModel, Rw_eff: np.ndarray) -> None:
    """Measurement update of step k of the step-major ``mean`` and ``P``
    in place: S = Hbar P Hbar^T + Rw_eff >= Rw, so a step whose summed
    tr(S) StepModel certifies is solved by LAPACK's gufunc without
    ``np.linalg.solve``'s checks, any other with a finite S by ``_gain``;
    P[k] takes P - K Hbar P, symmetrized."""
    Hbar, Pk = m.H.mean, P[k]
    HP = Hbar @ Pk
    S = HP @ Hbar.mT + Rw_eff
    if np.add.reduce(S.diagonal(0, -2, -1), axis=None) < m.S_trace_sum_max:
        K = _lapack_solve(S, HP).mT
    elif np.isfinite(S).all():
        K = _gain(HP, S, S.trace(axis1=-2, axis2=-1) < m.S_trace_max)
    else:
        raise ValueError(f"S is not finite at step {k}")
    if mean.size:
        x = mean[k]
        np.add(x, (y - x @ Hbar.mT) @ K.mT, out=x)
    Pk -= K @ HP
    symmetrize(Pk, out=Pk)


def _check_shapes(m: StepModel, k: int, shapes: tuple) -> None:
    """Raise unless step k's Fbar and Hbar have the run's ``shapes``:
    its state and measurement dimensions and step 0's model axes."""
    got = (m.F.mean.shape, m.H.mean.shape)
    if got != shapes:
        raise ValueError(f"model at step {k} has F {got[0]} and H {got[1]}; "
                         f"the run needs F {shapes[0]} and H {shapes[1]}")


def filter_sequence(provider: ModelProvider, ic: InitialCondition,
                    measurements: Sequence) -> FilterRecord:
    """Run the filter over measurements y_0 ... y_K.

    ``measurements`` is (K+1, N), or (runs, K+1, N) for runs of one model
    sequence (read through a step-major view), and the means take its run
    axis.  provider(k) is called once per step, in order; a model that
    does not fit the run (provider(0)'s model axes) raises a ValueError
    naming its step.  After ``second_moments``, y_0 updates the prior and
    each later y_k follows a predict through provider(k-1).  A non-finite
    measurement, P, X or S raises a ValueError naming its (first) step;
    P, then X, are scanned once, after the last step or at the first
    other failure.  With no runs only P, X, S and K are left."""
    ys = np.asarray(measurements, dtype=float)
    if ys.ndim not in (2, 3) or ys.shape[-2] == 0:
        raise ValueError("need (K+1, N) or (runs, K+1, N) measurements")
    ys = np.moveaxis(ys, -2, 0)  # step-major view: ys[k] is step k's
    if not np.isfinite(ys).all():
        step = np.nonzero(~np.isfinite(ys))[0].min()
        raise ValueError(f"measurement is not finite at step {step}")
    models = [provider(0)]
    lead = models[0].Rv.shape[:-2]
    if lead and ys.ndim == 2:
        # a 1-D mean would meet the model axis twice, in a wrong shape
        raise ValueError("a stacked model needs a run axis: "
                         "(runs, K+1, N) measurements")
    r, N = ic.mean.size, ys.shape[-1]
    shapes = (lead + (r, r), lead + (N, r))
    _check_shapes(models[0], 0, shapes)
    for k in range(1, len(ys)):
        models.append(provider(k))
        if models[k] is not models[k - 1]:
            _check_shapes(models[k], k, shapes)
    X, Rv_eff, Rw_eff = second_moments(models, ic)
    mean = np.empty((len(ys),) + lead + ys.shape[1:-1] + (r,))
    P = np.empty_like(X)
    mean[0], P[0] = ic.mean, ic.cov
    update(mean, P, 0, ys[0], models[0], Rw_eff[0])
    k = 0  # the last step written, for the scan
    try:
        for k in range(1, len(ys)):
            predict(mean, P, k, models[k - 1], Rv_eff[k - 1])
            update(mean, P, k, ys[k], models[k], Rw_eff[k])
    finally:  # the first step whose P, or else X, is not finite
        ok = [np.isfinite(a[1:k + 1]).all(axis=tuple(range(1, a.ndim)))
              for a in (P, X)]
        if not (ok[0] & ok[1]).all():
            i = int(np.argmin(ok[0] & ok[1]))
            raise ValueError(f"{'X' if ok[0][i] else 'P'} is not finite "
                             f"at step {i + 1}")
    return FilterRecord(np.moveaxis(mean, 0, -2), P, X)
