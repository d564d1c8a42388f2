"""Recursive linear-minimum-variance filter for random parameter matrices.

x_{k+1} = F_k x_k + v_k, y_k = H_k x_k + w_k with random F_k, H_k is
filtered as the system of mean matrices Fbar, Hbar and noises Rv +
E(F~ X F~^T), Rw + E(H~ X H~^T); X_k = E(x_k x_k^T) follows a linear map
that reads neither P, nor H, nor the data (De Koning).  ``second_moments``
runs that map first, over each run of one deterministic Fbar by doubling,
so every coefficient of the P recursion of ``filter_sequence``, the one
entry point, is known before it runs.  P takes one of two routes.  A
lone model (no model axis) with r <= SCAN_MAX_R whose every step is
certified runs it as one associative scan in O(log K) batched calls;
any other runs the Riccati loop, whose steps ``predict`` and ``update``
write P and each step's gain into its ``FilterRecord``'s step-major
arrays in place (after the scan they give the gains, over slices of
steps).  The means follow, as one affine recursion driven by the
recorded gains.  With deterministic matrices this is a Kalman filter.
P, X, S and K accept a leading model axis (``stack_models``); each
member, its gain routed by its own ``S_trace_max``, is bit-identical to
its own run as a one-member stack where the members' Fbar and Rv change
at the same steps."""

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
# relative margin by which each member's tr E(y y^T) must clear its
# certificate to certify the step's S before the loop: it covers the
# rounding by which the computed P and X may break P <= X
BOUND_RTOL = 1e-9
# largest state dimension whose lone, certified runs take the scan
SCAN_MAX_R = 6


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
    if not (np.abs(m - m.mT) <= atol[..., None, None]).all():
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
    the trace of S below which a member's gain is a plain solve.
    """

    F: RandomMatrixSpec
    H: RandomMatrixSpec
    Rv: np.ndarray
    Rw: np.ndarray
    S_trace_max: np.ndarray = field(init=False, repr=False)

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
    view of step-major storage, ``cov`` and ``second_moment`` (K+1,
    [models,] r, r), and ``gain`` (K+1, [models,] N, r), each step's
    K^T = S^-1 Hbar P^-; ``rec[k]`` is step k's FilterState of views."""

    mean: np.ndarray
    cov: np.ndarray
    second_moment: np.ndarray
    gain: np.ndarray

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


def _same_map(m: StepModel, prev: StepModel) -> bool:
    """Whether m's Fbar and Rv, all a deterministic F's X step reads,
    equal prev's bytes for bytes."""
    return all(a is b or a.tobytes() == b.tobytes()
               for a, b in ((m.F.mean, prev.F.mean), (m.Rv, prev.Rv)))


def _double(X: np.ndarray, a: int, n_steps: int, Fbar: np.ndarray,
            Rv: np.ndarray) -> None:
    """X[a+1 : a+n_steps+1] from X[a] by n_steps steps of X' = sym(Fbar
    X Fbar^T + Rv), by doubling (Smith 1968): X[a+n : a+2n] = sym(Phi_n
    X[a : a+n] Phi_n^T + Q_n) for n = 1, 2, 4, ..., with Phi_1 = Fbar,
    Q_1 = Rv, Phi_2n = Phi_n Phi_n and Q_2n = sym(Phi_n Q_n Phi_n^T +
    Q_n).  A step's block depends on its offset from a alone."""
    Phi, Q, n = Fbar, Rv, 1
    while True:
        block = X[a + n:a + min(2 * n, n_steps + 1)]
        np.matmul(Phi @ X[a:a + len(block)], Phi.mT, out=block)
        block += Q
        symmetrize(block, out=block)
        n *= 2
        if n > n_steps:
            return
        Q = symmetrize(Phi @ Q @ Phi.mT + Q)
        Phi = Phi @ Phi


def second_moments(models: Sequence[StepModel], ic: InitialCondition
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """X (K+1, [models,] r, r) of ``models``' steps, the noises
    ``Rv_eff[k]`` (K, [models,] r, r) of the predict from step k and
    ``Rw_eff[k]`` (K+1, [models,] N, N) of step k's update, and each
    step's tr E(y_k y_k^T) = tr(Hbar X_k Hbar^T) + tr(Rw_eff[k]), per
    member (K+1, [models]).  X_0 = mu_0 mu_0^T + P_0 and X_{k+1} =
    sym(Fbar X_k Fbar^T + Rv_eff[k]), Rv_eff[k] = Rv + E(F~ X_k F~^T) of
    models[k].  A random F's steps run one at a time, its [Fbar; G_l]
    taking X through one product.  Each longest run of
    deterministic-F steps whose Fbar and Rv are equal (by content,
    whatever the model objects) is filled by ``_double`` in O(log
    steps) batched products, so a run of one step is the stepwise
    map's, and its Rv_eff is Rv by broadcast.  Rw_eff[k] = Rw + E(H~ X_k
    H~^T), by one ``quad_form`` per span of steps over X (Rw by
    broadcast where H has no factors), and the traces by one ``einsum``
    per span."""
    lead, spans, K = models[0].Rv.shape[:-2], _spans(models), len(models) - 1
    X = np.empty((len(models),) + lead + ic.cov.shape)
    X[0] = np.outer(ic.mean, ic.mean) + ic.cov
    stack = {i: np.concatenate([m.F.mean[..., None, :, :], m.F.factors], -3)
             for i, m in {id(m): m for m, _ in spans}.items()
             if m.F.factors.shape[-3]}
    runs = []  # [model, first step, last step + 1] that X_{k+1} reads
    for m, at in spans:
        b = min(at.stop, K)
        if (runs and id(m) not in stack and id(runs[-1][0]) not in stack
                and _same_map(m, runs[-1][0])):
            runs[-1][2] = b
        elif at.start < b:
            runs.append([m, at.start, b])
    Xe, Rv_eff = X[..., None, :, :], np.empty((K,) + X.shape[1:])
    for m, a, b in runs:
        if (A := stack.get(id(m))) is None:
            _double(X, a, b - a, m.F.mean, m.Rv)
            Rv_eff[a:b] = m.Rv
            continue
        for k in range(a, b):
            T = A @ Xe[k] @ A.mT
            noise = np.add.reduce(T[..., 1:, :, :], axis=-3, out=Rv_eff[k])
            noise += m.Rv
            Xn = np.add(T[..., 0, :, :], noise, out=X[k + 1])
            symmetrize(Xn, out=Xn)
    N = models[0].Rw.shape[-1]
    Rw_eff = np.empty((len(models),) + lead + (N, N))
    Eyy = np.empty((len(models),) + lead)
    for m, at in spans:
        # tr(Hbar X Hbar^T) = <Hbar^T Hbar, X>
        np.einsum("...ij,...ij->...", X[at], m.H.mean.mT @ m.H.mean,
                  out=Eyy[at])
        noise = Rw_eff[at]
        if m.H.factors.shape[-3]:
            quad_form(m.H, X[at], out=noise)
            noise += m.Rw
        else:
            noise[...] = m.Rw
        Eyy[at] += noise.trace(axis1=-2, axis2=-1)
    return X, Rv_eff, Rw_eff, Eyy


def predict(P: np.ndarray, k: int | slice, m: StepModel,
            Rv_eff: np.ndarray, prior: np.ndarray | None = None) -> None:
    """Time update of the step-major ``P`` into step k, or into each
    step of a slice k of steps after step 0, from the step before it:
    prior[k] = Fbar P[k-1] Fbar^T + Rv_eff, unsymmetrized, where
    ``prior`` is P itself unless given."""
    Fbar = m.F.mean
    before = P[k.start - 1:k.stop - 1] if isinstance(k, slice) else P[k - 1]
    Pk = np.matmul(Fbar @ before, Fbar.mT,
                   out=(P if prior is None else prior)[k])
    Pk += Rv_eff


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


def update(gain: np.ndarray, P: np.ndarray, k: int | slice, m: StepModel,
           Rw_eff: np.ndarray, certified: bool = False) -> None:
    """Measurement update of step k, or of each step of a slice k of
    steps certified before the loop, of the step-major ``P`` in place,
    writing K^T = S^-1 Hbar P into ``gain[k]``: S = Hbar P Hbar^T +
    Rw_eff >= Rw, so a step certified before the loop (``certified``),
    or whose every member has tr(S) below its ``S_trace_max``, is solved
    by LAPACK's gufunc without ``np.linalg.solve``'s checks; any other
    with a finite S goes to ``_gain`` with that per-member mask; P[k]
    takes P - K Hbar P, symmetrized."""
    Hbar, Pk = m.H.mean, P[k]
    HP = Hbar @ Pk
    S = HP @ Hbar.mT + Rw_eff
    if certified or (good := np.add.reduce(S.diagonal(0, -2, -1), axis=-1)
                     < m.S_trace_max).all():
        K = _lapack_solve(S, HP, out=gain[k]).mT
    elif np.isfinite(S).all():
        K = _gain(HP, S, good)
        gain[k] = K.mT
    else:
        raise ValueError(f"S is not finite at step {k}")
    Pk -= K @ HP
    symmetrize(Pk, out=Pk)


def _combine(Ci: np.ndarray, Aj: np.ndarray, Cj: np.ndarray, Jj: np.ndarray,
             Ai: np.ndarray | None = None, Ji: np.ndarray | None = None):
    """Elements i (Ai, Ci, Ji) then j combined, batched: with Z = (I +
    Ci Jj)^-1 [Ai | Ci] by one solve, A = Aj Z_A, C = sym(Aj Z_C Aj^T +
    Cj) and J = sym(Ai^T Jj Z_A + Ji); only C where Ai is None, as for
    every prefix of the elements, whose A and J are 0."""
    r = Ci.shape[-1]
    T = Ci @ Jj
    T.reshape(-1, r * r)[:, ::r + 1] += 1.0  # the diagonals
    Z = _lapack_solve(T, Ci if Ai is None else np.concatenate([Ai, Ci], -1))
    C = symmetrize(Aj @ Z[..., -r:] @ Aj.mT + Cj)
    if Ai is None:
        return C
    ZA = Z[..., :r]
    return Aj @ ZA, C, symmetrize(Ai.mT @ Jj @ ZA + Ji)


def _scan(A: np.ndarray, C: np.ndarray, J: np.ndarray) -> None:
    """C[k] becomes the C of elements 0..k combined, in place, for
    elements whose first has A = J = 0: each pair (2i, 2i+1) is
    combined in one batch, the pairs' elements are scanned the same
    way, which gives every odd k, and each even k > 0 combines the
    prefix k-1 with element k.  The pairing is fixed by index, so a
    prefix of the elements scans to a prefix of the result."""
    n = len(C)
    if n < 2:
        return
    Ap, Cp, Jp = _combine(C[0:n - 1:2], A[1::2], C[1::2], J[1::2],
                          A[0:n - 1:2], J[0:n - 1:2])
    _scan(Ap, Cp, Jp)
    C[1::2] = Cp
    C[2::2] = _combine(C[1:n - 1:2], A[2::2], C[2::2], J[2::2])


def _elements(P0: np.ndarray, Fbar: np.ndarray, Hbar: np.ndarray,
              Q: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, ...]:
    """The scan's elements (A, C, J), each (K+1, r, r): element 0 is
    (0, P0, 0), and step k's, with F = Fbar[k-1], H = Hbar[k], Q[k-1]
    and S = H Q H^T + R[k-1], is A = F - K H F, C = sym(Q - K H Q) and
    J = sym((H F)^T S^-1 H F), K^T and S^-1 H F by one batched solve."""
    r = P0.shape[-1]
    H = Hbar[1:]
    HQ = H @ Q
    HQF = np.concatenate([HQ, H @ Fbar[:-1]], -1)
    Z = _lapack_solve(HQ @ H.mT + R, HQF)
    A, C, J = (np.empty((len(Fbar), r, r)) for _ in range(3))
    A[0], C[0], J[0] = 0.0, P0, 0.0
    KT = Z[..., :r].mT
    np.subtract(Fbar[:-1], KT @ HQF[..., r:], out=A[1:])
    symmetrize(Q - KT @ HQ, out=C[1:])
    symmetrize(HQF[..., r:].mT @ Z[..., r:], out=J[1:])
    return A, C, J


def _scan_steps(P: np.ndarray, gain: np.ndarray, models: Sequence[StepModel],
                Rv_eff: np.ndarray, Rw_eff: np.ndarray) -> bool:
    """P[1:] and gain[1:] of a lone model whose steps are all certified,
    from P[0] after step 0's update, by one associative scan over
    ``_elements`` (Sarkka and Garcia-Fernandez, IEEE TAC 66(1), 2021);
    False, and the loop's to redo, where the scan's P is not finite
    (the pairs' A and J hold products of up to half the steps' F, which
    overflow where F grows fast and the prior is near zero).
    Each element's S is <= the loop's, so its step's certificate holds
    for it too.  The scan's C are the filtered P; then ``predict`` and
    ``update``, once per span over its steps, give P^- from them and
    the gains as the loop forms them (the P^+ this recomputes is
    dropped)."""
    K, (N, r), spans = len(P) - 1, models[0].H.shape, _spans(models)
    Fbar, Hbar = np.empty((K + 1, r, r)), np.empty((K + 1, N, r))
    for m, at in spans:
        Fbar[at], Hbar[at] = m.F.mean, m.H.mean
    with np.errstate(over="ignore", invalid="ignore"):
        A, C, J = _elements(P[0], Fbar, Hbar, Rv_eff, Rw_eff[1:])
        _scan(A, C, J)
    if not np.isfinite(C).all():
        return False
    P[1:] = C[1:]
    prior = C  # P^- of each step, over the scan's C
    for m, at in spans:  # step k's predict reads models[k - 1]
        if at.start < K:
            predict(P, slice(at.start + 1, min(at.stop, K) + 1), m,
                    Rv_eff[at], prior)
        steps = slice(max(at.start, 1), at.stop)
        if steps.start < steps.stop:
            update(gain, prior, steps, m, Rw_eff[steps], True)
    return True


def _filter_means(mean: np.ndarray, ys: np.ndarray, gain: np.ndarray,
                  models: Sequence[StepModel], mu0: np.ndarray) -> None:
    """Every step's filtered means, into the step-major ``mean`` (K+1,
    [models,] runs, r) from ``ys`` (K+1, runs, N): x_k = x_{k-1} A_k +
    y_k K_k^T, A_k = Fbar_{k-1}^T - (Hbar_k Fbar_{k-1})^T K_k^T, with
    x_{-1} = mu_0 and Fbar_{-1} = I.  Every y_k K_k^T is one batched
    product, each span's A_k another, and then a step is one product
    and one add over its contiguous block of runs."""
    lead, r = gain.shape[1:-2], mean.shape[-1]
    np.matmul(np.expand_dims(ys, tuple(range(1, 1 + len(lead)))), gain,
              out=mean)
    A = np.empty(gain.shape[:-2] + (r, r))
    for m, at in _spans(models):
        a = at.start
        for F, steps in ((models[a - 1].F.mean if a else np.eye(r),
                          slice(a, a + 1)),
                         (m.F.mean, slice(a + 1, at.stop))):
            Ak = np.matmul((m.H.mean @ F).mT, gain[steps], out=A[steps])
            np.subtract(F.mT, Ak, out=Ak)
    mean[0] += (mu0 @ A[0])[..., None, :]
    for k in range(1, len(mean)):
        mean[k] += mean[k - 1] @ A[k]


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
    naming its step.  After ``second_moments``, step 0's update
    conditions P_0; a step where every member's tr E(y y^T) clears its
    ``S_trace_max`` by BOUND_RTOL is certified before P runs (P^- <= X,
    so tr(S) is below it too).  A lone model with r <= SCAN_MAX_R whose
    every step is certified, the one rule that picks the route, takes
    ``_scan_steps``; every other run, and a scan whose P overflows,
    takes the Riccati loop: each later update follows a predict through
    provider(k-1), recording every gain.  The scan's P and gains agree
    with the loop's to rounding (about 1e-15 of each step's largest
    entry on the shipped models), not bit for bit.  The means then take
    one affine pass over the gains (``_filter_means``).  A non-finite
    measurement, P, X or S raises a ValueError naming its (first) step;
    P, then X, are scanned once, after the last step or at the first
    other failure (a step with a non-finite X or S is never certified,
    so it always takes the loop).  With no runs only P, X and the gains
    are left."""
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
    X, Rv_eff, Rw_eff, Eyy = second_moments(models, ic)
    certified = np.empty(Eyy.shape, dtype=bool)
    for m, at in _spans(models):
        np.less(Eyy[at] * (1 + BOUND_RTOL), m.S_trace_max, out=certified[at])
    certified = certified.reshape(len(ys), -1).all(axis=1).tolist()
    P = np.empty_like(X)
    gain = np.empty((len(ys),) + lead + (N, r))
    P[0] = ic.cov
    update(gain, P, 0, models[0], Rw_eff[0], certified[0])
    scan = not lead and r <= SCAN_MAX_R and all(certified)
    if not (scan and _scan_steps(P, gain, models, Rv_eff, Rw_eff)):
        k = 0  # the last step written, for the check
        try:
            for k in range(1, len(ys)):
                predict(P, k, models[k - 1], Rv_eff[k - 1])
                update(gain, P, k, models[k], Rw_eff[k], certified[k])
        finally:  # the first step whose P, or else X, is not finite
            ok = [np.isfinite(a[1:k + 1]).all(axis=tuple(range(1, a.ndim)))
                  for a in (P, X)]
            if not (ok[0] & ok[1]).all():
                i = int(np.argmin(ok[0] & ok[1]))
                raise ValueError(f"{'X' if ok[0][i] else 'P'} is not finite "
                                 f"at step {i + 1}")
    mean = np.empty((len(ys),) + lead + ys.shape[1:-1] + (r,))
    if mean.size:
        # a single run without a run axis goes through run-axis views
        runs = ys.ndim == 3
        _filter_means(mean if runs else mean[..., None, :],
                      ys if runs else ys[:, None, :], gain, models, ic.mean)
    return FilterRecord(np.moveaxis(mean, 0, -2), P, X, gain)
