"""Truth simulation, Monte-Carlo experiments and probability sweeps.

Everything here is a pure function of (configuration, seed): trajectories
regenerate bit-identically from their seed, and Monte-Carlo runs derive
per-run seeds deterministically from the base seed so that adding runs
never perturbs existing ones.
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
    constant_provider,
    deterministic_model,
    filter_sequence,
    stack_models,
)
from .random_matrix import sample_matrix


@dataclass(frozen=True)
class TruthTrajectory:
    """Sampled realizations; from a list of seeds, with a run axis first."""

    states: np.ndarray        # ([runs,] K+1, r)
    realized_F: np.ndarray    # ([runs,] K, r, r)
    realized_H: np.ndarray    # ([runs,] K+1, N, r)
    measurements: np.ndarray  # ([runs,] K+1, N)
    seed: int | tuple[int, ...]


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
    # eigh square root; tolerates semidefinite covariances
    w, V = np.linalg.eigh(cov)
    return V * np.sqrt(np.clip(w, 0.0, None))


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    # per-run matrix-vector products; a run's result is bit-identical
    # however many runs share the call
    return np.einsum("...ij,...j->...i", A, x)


def _draw_groups(specs: Sequence, name: str) -> list:
    # (distribution, steps) of the steps whose matrix has a source
    # distribution (a MatrixDist or a BlockDropout), grouped by its type
    # and content in order of first use; one draw per run covers each.
    # Steps are grouped by object first, so a shared distribution's
    # content is read once, not once per step.
    by_object: dict[int, tuple] = {}
    for k, spec in enumerate(specs):
        if (dist := spec.source) is not None:
            by_object.setdefault(id(dist), (dist, []))[1].append(k)
        elif not spec.is_deterministic:
            raise ValueError(f"{name} at step {k} is random but has no "
                             "source distribution to sample from")
    groups: dict = {}
    for dist, steps in by_object.values():
        key = (type(dist), dist.stacked.tobytes(), dist.probs.tobytes())
        groups.setdefault(key, (dist, []))[1].extend(steps)
    return [(dist, sorted(steps)) for dist, steps in groups.values()]


def simulate_truth(provider: ModelProvider, ic: InitialCondition,
                   K: int, seed: int | Sequence[int]) -> TruthTrajectory:
    """Sample states, realized matrices and measurements for steps 0..K.

    ``seed`` is one seed, or a list of per-run seeds for arrays with a run
    axis.  Each run's generator draws its whole block (its random H, then
    F, matrices: a sample index per step, or an on/off bit per dropout
    block and step; then the normals of x_0 and every noise), so a run
    depends on its own seed only.  A deterministic matrix takes
    its mean; a random one without a source distribution raises a
    ValueError naming the matrix and the step.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    models = [provider(k) for k in range(K + 1)]
    seeds = list(seed) if np.ndim(seed) else [seed]
    runs, r, N = len(seeds), ic.mean.size, models[0].H.shape[0]
    Hs = np.repeat([[m.H.mean for m in models]], runs, axis=0)
    Fs = np.repeat([[m.F.mean for m in models[:K]]], runs, axis=0)
    # (output, distribution, count, index), a slice if it covers every step
    draws = [(out, dist, len(steps), slice(None) if len(steps) == len(specs)
              else np.array(steps))
             for out, specs, name in ((Hs, [m.H for m in models], "H"),
                                      (Fs, [m.F for m in models[:K]], "F"))
             for dist, steps in _draw_groups(specs, name)]
    z = np.empty((runs, r + (K + 1) * N + K * r))
    for i, s in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(s))  # default_rng(s)
        for out, dist, size, index in draws:
            out[i, index] = sample_matrix(dist, rng, size)
        z[i] = rng.standard_normal(z.shape[1])
    z0, zw, zv = np.split(z, [r, r + (K + 1) * N], axis=1)
    zw, zv = zw.reshape(runs, K + 1, N), zv.reshape(runs, K, r)

    factors: dict[bytes, np.ndarray] = {}

    def factor_of(cov: np.ndarray) -> np.ndarray:
        key = cov.tobytes()
        if key not in factors:
            factors[key] = _gauss_factor(cov)
        return factors[key]

    wn = _mv(np.array([factor_of(m.Rw) for m in models]), zw)
    vn = _mv(np.array([factor_of(m.Rv) for m in models[:K]]), zv)
    states = np.empty((runs, K + 1, r))
    states[:, 0] = x = ic.mean + _mv(factor_of(ic.cov), z0)
    for k in range(K):
        states[:, k + 1] = x = _mv(Fs[:, k], x) + vn[:, k]
    ys = _mv(Hs, states) + wn
    if np.ndim(seed):
        return TruthTrajectory(states, Fs, Hs, ys, tuple(seeds))
    return TruthTrajectory(states[0], Fs[0], Hs[0], ys[0], seed)


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


def naive_kf_provider(provider: ModelProvider) -> ModelProvider:
    """Standard-KF baseline: keeps the mean matrices, drops the quad forms."""
    def naive(k: int) -> StepModel:
        m = provider(k)
        return deterministic_model(m.F.mean, m.H.mean, m.Rv, m.Rw)
    return naive


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
    if any(b < a for a, b in zip(gammas, gammas[1:])):
        raise ValueError("gammas must be sorted ascending")
    if any(not 0.0 < g <= 1.0 for g in gammas):
        raise ValueError("gammas must lie in (0, 1]")
    if not gammas:
        return []
    stack = stack_models([model_for_gamma(g) for g in gammas])
    final = covariance_recursion(constant_provider(stack), ic, K).cov[-1]
    return [(g, float(np.trace(cov))) for g, cov in zip(gammas, final)]
