"""Truth simulation, Monte-Carlo experiments and probability sweeps.

Everything here is a pure function of (configuration, seed): trajectories
regenerate bit-identically from their seed, and Monte-Carlo runs derive
per-run seeds deterministically from the base seed: adding runs leaves
existing runs' truth unchanged, and their filtered means to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .filter_core import (
    FilterRecord,
    InitialCondition,
    ModelProvider,
    StepModel,
    _check_shapes,
    _spans,
    constant_provider,
    filter_sequence,
    stack_models,
)
from .random_matrix import sample_matrix


@dataclass(frozen=True)
class TruthTrajectory:
    """Sampled states and measurements; from a list of seeds, with a run
    axis first.  Both are stored step-major, (K+1, [runs,] .), so each
    step's runs are one contiguous block; the fields are np.moveaxis
    views of that storage with the shapes below."""

    states: np.ndarray        # ([runs,] K+1, r)
    measurements: np.ndarray  # ([runs,] K+1, N)


@dataclass(frozen=True)
class RunMetrics:
    """Per-step Monte-Carlo averages across runs."""

    per_step_sq_error: np.ndarray
    per_step_nees: np.ndarray


def derive_run_seeds(base_seed: int, runs: int) -> list[int]:
    """Deterministic per-run seeds; a prefix is stable under more runs."""
    state = np.random.SeedSequence(base_seed).generate_state(runs, np.uint64)
    return [int(s) for s in state]


def _gauss_factor(cov: np.ndarray) -> np.ndarray:
    # eigh square root of each covariance; tolerates semidefinite ones
    w, V = np.linalg.eigh(cov)
    return V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def _mv(A: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    # per-run matrix-vector products; a run's result is bit-identical
    # however many runs share the call
    return np.einsum("...ij,...j->...i", A, x, out=out)


def _draw_width(spec, name: str, k: int) -> int:
    # uniforms one draw of the matrix takes; none for a deterministic one
    if spec.source is None and spec.factors.any():
        raise ValueError(f"{name} at step {k} is random but has no "
                         "source distribution to sample from")
    return 0 if spec.source is None else spec.source.width


def simulate_truth(provider: ModelProvider, ic: InitialCondition,
                   K: int, seed: int | Sequence[int]) -> TruthTrajectory:
    """Sample states and measurements for steps 0..K.

    ``seed`` is one seed, or a list of per-run seeds for arrays with a run
    axis.  Each run's generator draws the uniforms of its random matrices
    in step order, H_0..H_K then F_0..F_{K-1} (each step takes its source
    distribution's ``width``), then the normals of x_0 and every noise, so
    a run depends on its own seed only.  F is realized one step at a time
    inside the state recursion; H once per span of consecutive steps that
    one model object serves, the noise factors once per object.  A
    deterministic matrix takes its mean; a random one without a source
    distribution, and a model whose F and H do not fit the prior's state
    dimension and step 0's measurement rows (a stacked model never does),
    raise a ValueError naming its first step.  Each span's noises are
    written into its slice of the states and measurements, to which F x
    and H x are then added; every run-axis array is stored step-major, so
    each step reads and writes one contiguous block of runs.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    models = [provider(k) for k in range(K + 1)]
    seeds = list(seed) if np.ndim(seed) else [seed]
    runs, r, N = len(seeds), ic.mean.size, models[0].H.shape[0]
    spans = _spans(models)
    for m, at in spans:  # in step order
        _check_shapes(m, at.start, ((r, r), (N, r)))
    nH = {id(m): _draw_width(m.H, "H", at.start) for m, at in spans}
    nF = {id(m): _draw_width(m.F, "F", at.start) for m, at in spans
          if at.start < K}
    # where each step's uniforms start: H_0..H_K, then F_0..F_{K-1}
    start = np.cumsum([0] + [nH[id(m)] for m in models]
                      + [nF[id(m)] for m in models[:K]])
    u = np.empty((runs, start[-1]))
    z = np.empty((runs, r + (K + 1) * N + K * r))
    for i, s in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(s))  # default_rng(s)
        u[i] = rng.random(u.shape[1])
        z[i] = rng.standard_normal(z.shape[1])
    # step-major: the uniforms as a copy, the normals as views
    u = u.T.copy()
    z0, zw, zv = np.split(z, [r, r + (K + 1) * N], axis=1)
    zw = np.moveaxis(zw.reshape(runs, K + 1, N), 0, 1)
    zv = np.moveaxis(zv.reshape(runs, K, r), 0, 1)

    states = np.empty((K + 1, runs, r))
    ys = np.empty((K + 1, runs, N))
    L = {i: (_gauss_factor(m.Rv), _gauss_factor(m.Rw))  # once per object
         for i, m in {id(m): m for m, _ in spans}.items()}
    for m, at in spans:  # each span's noise, from contiguous normals
        f = slice(at.start, min(at.stop, K))
        Lv, Lw = L[id(m)]
        _mv(Lv, zv[f].copy(), out=states[f.start + 1:f.stop + 1])
        _mv(Lw, zw[at].copy(), out=ys[at])
    states[0] = ic.mean + _mv(_gauss_factor(ic.cov), z0)
    f_at = start[K + 1:]
    for k, m in enumerate(models[:K]):
        a, b = f_at[k], f_at[k + 1]
        F = sample_matrix(m.F.source, u[a:b].T) if b > a else m.F.mean
        states[k + 1] += _mv(F, states[k])
    for m, at in spans:
        H, n = m.H.mean, nH[id(m)]
        if n:  # the span's uniforms are one block of u
            a, steps = start[at.start], at.stop - at.start
            H = sample_matrix(m.H.source, np.moveaxis(
                u[a:a + steps * n].reshape(steps, n, runs), -1, -2))
        ys[at] += _mv(H, states[at])
    if np.ndim(seed):
        return TruthTrajectory(np.moveaxis(states, 1, 0),
                               np.moveaxis(ys, 1, 0))
    return TruthTrajectory(states[:, 0], ys[:, 0])


def nees(err: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """e^T P^+ e, broadcast: errors (runs, K+1, r) against the shared
    covariances (K+1, r, r) take one pseudo-inverse per step."""
    return np.einsum("...i,...ij,...j->...", err, np.linalg.pinv(cov), err)


def run_filter_on(traj: TruthTrajectory, provider: ModelProvider,
                  ic: InitialCondition):
    """Filter the recorded measurements; report squared errors and NEES."""
    rec = filter_sequence(provider, ic, traj.measurements)
    errs = rec.mean - traj.states
    return rec, np.sum(errs ** 2, axis=-1), nees(errs, rec.cov)


def monte_carlo(provider: ModelProvider, ic: InitialCondition, K: int,
                runs: int, base_seed: int) -> RunMetrics:
    """Average squared error and NEES over independent seeded runs.

    All runs are sampled as one trajectory with a run axis and filtered
    in one pass; the K+1 models are built once and serve both.
    """
    if runs < 1:
        raise ValueError("need runs >= 1")
    model_at = [provider(k) for k in range(K + 1)].__getitem__
    traj = simulate_truth(model_at, ic, K, derive_run_seeds(base_seed, runs))
    _, sq, nn = run_filter_on(traj, model_at, ic)
    return RunMetrics(per_step_sq_error=sq.mean(axis=0),
                      per_step_nees=nn.mean(axis=0))


def covariance_recursion(provider: ModelProvider, ic: InitialCondition,
                         K: int) -> FilterRecord:
    """Data-independent P/X recursion: the filter's, for zero runs."""
    N = provider(0).H.shape[0]
    return filter_sequence(provider, ic, np.empty((0, K + 1, N)))


def gamma_sweep(model_for_gamma: Callable[[float], StepModel],
                ic: InitialCondition, gammas: Sequence[float],
                K: int) -> list[tuple[float, float]]:
    """trace(P_K) of the deterministic recursion for each probability.

    ``model_for_gamma`` gives the time-invariant model of one gamma.  The
    models are stacked once along a leading model axis, and one recursion
    from ``ic`` runs every gamma.
    """
    gammas = [float(g) for g in gammas]
    stack = stack_models([model_for_gamma(g) for g in gammas])
    final = covariance_recursion(constant_provider(stack), ic, K).cov[-1]
    return [(g, float(np.trace(cov))) for g, cov in zip(gammas, final)]
