"""Truth simulation, Monte-Carlo experiments and the batch oracle.

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
    FilterState,
    InitialCondition,
    ModelProvider,
    StepModel,
    _recursion,
    deterministic_model,
    filter_sequence,
    memoized,
    symmetrize,
)
from .random_matrix import quad_form, sample_matrix

MAX_ORACLE_HORIZON = 4


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
    runs: int


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


def _draw_groups(specs: Sequence) -> list:
    # (distribution, steps) of the steps whose matrix has a source
    # distribution, grouped by its content; one draw per run covers each
    groups: dict = {}
    for k, spec in enumerate(specs):
        if (dist := spec.source) is not None:
            key = (dist.stacked.tobytes(), dist.probs.tobytes())
            groups.setdefault(key, (dist, []))[1].append(k)
    return list(groups.values())


def simulate_truth(provider: ModelProvider, ic: InitialCondition,
                   K: int, seed: int | Sequence[int]) -> TruthTrajectory:
    """Sample states, realized matrices and measurements for steps 0..K.

    ``seed`` is one seed, or a list of per-run seeds for arrays with a run
    axis.  Each run's generator draws its whole block (the indices of its
    random H, then F, matrices, then the normals of x_0 and every noise),
    so a run depends on its own seed only.  A matrix without a source
    distribution takes its mean.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    provider = memoized(provider)
    models = [provider(k) for k in range(K + 1)]
    seeds = list(seed) if np.ndim(seed) else [seed]
    runs, r, N = len(seeds), ic.mean.size, models[0].H.shape[0]
    Hs = np.repeat([[m.H.mean for m in models]], runs, axis=0)
    Fs = np.repeat([[m.F.mean for m in models[:K]]], runs, axis=0)
    draws = [(Hs, _draw_groups([m.H for m in models])),
             (Fs, _draw_groups([m.F for m in models[:K]]))]
    z = np.empty((runs, r + (K + 1) * N + K * r))
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        for out, groups in draws:
            for dist, steps in groups:
                out[i, steps] = sample_matrix(dist, rng, size=len(steps))
        z[i] = rng.standard_normal(z.shape[1])
    z0, zw, zv = np.split(z, [r, r + (K + 1) * N], axis=1)
    zw, zv = zw.reshape(runs, K + 1, N), zv.reshape(runs, K, r)

    factors: dict[bytes, np.ndarray] = {}

    def factor_of(cov: np.ndarray) -> np.ndarray:
        key = cov.tobytes()
        if key not in factors:
            factors[key] = _gauss_factor(cov)
        return factors[key]

    states = np.empty((runs, K + 1, r))
    ys = np.empty((runs, K + 1, N))
    x = ic.mean + _mv(factor_of(ic.cov), z0)
    for k, m in enumerate(models):
        states[:, k] = x
        ys[:, k] = _mv(Hs[:, k], x) + _mv(factor_of(m.Rw), zw[:, k])
        if k < K:
            x = _mv(Fs[:, k], x) + _mv(factor_of(m.Rv), zv[:, k])
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
    states = filter_sequence(provider, ic, traj.measurements)
    errs = np.stack([s.mean for s in states], axis=-2) - traj.states
    covs = np.array([s.cov for s in states])
    return states, np.sum(errs ** 2, axis=-1), nees(errs, covs)


Estimator = Callable[[TruthTrajectory], tuple[np.ndarray, np.ndarray]]


def monte_carlo(provider: ModelProvider, ic: InitialCondition, K: int,
                runs: int, base_seed: int, *,
                filter_provider: ModelProvider | None = None,
                estimator: Estimator | None = None) -> RunMetrics:
    """Average squared error and NEES over independent seeded runs.

    All runs are sampled as one trajectory with a run axis and filtered
    in one pass.  ``filter_provider`` lets a mismatched filter (e.g. a
    naive standard KF that ignores parameter randomness) run against
    truth sampled from ``provider``.  ``estimator`` overrides the filter
    entirely: it maps that trajectory to means shaped like its states
    and covariances that broadcast against them.
    """
    if runs < 1:
        raise ValueError("need runs >= 1")
    provider = memoized(provider)
    traj = simulate_truth(provider, ic, K, derive_run_seeds(base_seed, runs))
    if estimator is not None:
        means, covs = estimator(traj)
        errs = means - traj.states
        sq, nn = np.sum(errs ** 2, axis=-1), nees(errs, covs)
    else:
        fp = filter_provider if filter_provider is not None else provider
        _, sq, nn = run_filter_on(traj, fp, ic)
    return RunMetrics(per_step_sq_error=sq.mean(axis=0),
                      per_step_nees=nn.mean(axis=0), runs=runs)


def naive_kf_provider(provider: ModelProvider) -> ModelProvider:
    """Standard-KF baseline: keeps the mean matrices, drops the quad forms."""
    def naive(k: int) -> StepModel:
        m = provider(k)
        return deterministic_model(m.F.mean, m.H.mean, m.Rv, m.Rw)
    return naive


def batch_lmv_oracle(provider: ModelProvider, ic: InitialCondition,
                     measurements: Sequence, *,
                     max_horizon: int = MAX_ORACLE_HORIZON):
    """Batch linear-minimum-variance estimate of x_K from y_0..y_K.

    Builds the exact joint second moments of (x_K, y_0, ..., y_K) under
    the converted system, whose effective noises are white and
    uncorrelated with the initial state, then evaluates

        E(x_K) + Cov(x_K, Y) Cov(Y)^+ (Y - E(Y))

    and its error covariance.  Deliberately a different computational
    path from the recursive filter; used to certify it.
    """
    ys = [np.asarray(y, dtype=float).ravel() for y in measurements]
    K = len(ys) - 1
    if K < 0:
        raise ValueError("need at least one measurement")
    if K > max_horizon:
        raise ValueError(f"horizon {K} exceeds oracle limit {max_horizon}")
    models = [provider(k) for k in range(K + 1)]

    mean_x = [np.asarray(ic.mean, dtype=float)]
    X = [np.outer(ic.mean, ic.mean) + ic.cov]
    var_x = [np.asarray(ic.cov, dtype=float)]
    for k in range(K):
        Fbar = models[k].F.mean
        qf = quad_form(models[k].F, X[k])
        mean_x.append(Fbar @ mean_x[k])
        X.append(symmetrize(Fbar @ X[k] @ Fbar.T + qf + models[k].Rv))
        var_x.append(symmetrize(X[k + 1] - np.outer(mean_x[k + 1],
                                                    mean_x[k + 1])))

    r = mean_x[0].size
    # phi[k][l] = Fbar_{k-1} ... Fbar_l (state transition from l to k)
    phi = [[None] * (K + 1) for _ in range(K + 1)]
    for l in range(K + 1):
        acc = np.eye(r)
        phi[l][l] = acc
        for k in range(l, K):
            acc = models[k].F.mean @ acc
            phi[k + 1][l] = acc

    def cov_xx(i: int, j: int) -> np.ndarray:
        if i >= j:
            return phi[i][j] @ var_x[j]
        return (phi[j][i] @ var_x[i]).T

    Ns = [m.H.shape[0] for m in models]
    offs = np.concatenate(([0], np.cumsum(Ns)))
    total = int(offs[-1])
    Hbars = [m.H.mean for m in models]
    Rw_eff = [models[k].Rw + quad_form(models[k].H, X[k])
              for k in range(K + 1)]

    EY = np.concatenate([Hbars[k] @ mean_x[k] for k in range(K + 1)])
    Y = np.concatenate(ys)
    if Y.size != total:
        raise ValueError("measurement dimensions do not match the model")
    covY = np.zeros((total, total))
    covXY = np.zeros((r, total))
    for i in range(K + 1):
        si = slice(offs[i], offs[i + 1])
        covXY[:, si] = cov_xx(K, i) @ Hbars[i].T
        for j in range(K + 1):
            sj = slice(offs[j], offs[j + 1])
            block = Hbars[i] @ cov_xx(i, j) @ Hbars[j].T
            if i == j:
                block = block + Rw_eff[i]
            covY[si, sj] = block
    covY = symmetrize(covY)
    gain = covXY @ np.linalg.pinv(covY)
    mean = mean_x[K] + gain @ (Y - EY)
    cov = symmetrize(var_x[K] - gain @ covXY.T)
    return mean, cov


def covariance_recursion(provider: ModelProvider, ic: InitialCondition,
                         K: int) -> list[FilterState]:
    """Data-independent P/X recursion: the filter's, for zero runs."""
    provider = memoized(provider)
    N = provider(0).H.shape[0]
    return _recursion(provider, ic, np.empty((0, K + 1, N)))


def gamma_sweep(model_for_gamma: Callable[[float], tuple[ModelProvider,
                                                         InitialCondition]],
                gammas: Sequence[float], K: int) -> list[tuple[float, float]]:
    """trace(P_K) of the deterministic recursion for each probability."""
    gammas = [float(g) for g in gammas]
    if any(b < a for a, b in zip(gammas, gammas[1:])):
        raise ValueError("gammas must be sorted ascending")
    if any(not 0.0 < g <= 1.0 for g in gammas):
        raise ValueError("gammas must lie in (0, 1]")
    out = []
    for g in gammas:
        provider, ic = model_for_gamma(g)
        final = covariance_recursion(provider, ic, K)[-1]
        out.append((g, float(np.trace(final.cov))))
    return out


def sample_converted_noises(provider: ModelProvider, ic: InitialCondition,
                            K: int, n: int, seed: int):
    """Draws of the converted-system noises for moment checks.

    Returns (x0, nu_tilde, omega_tilde) with shapes (n, r), (n, K, r) and
    (n, K+1, N), where nu_tilde_k = x_{k+1} - Fbar_k x_k and
    omega_tilde_k = y_k - Hbar_k x_k across n trajectories that
    simulate_truth samples from per-run seeds derived from ``seed``.
    """
    provider = memoized(provider)
    traj = simulate_truth(provider, ic, K, derive_run_seeds(seed, n))
    Fbar = np.array([provider(k).F.mean for k in range(K)])
    Hbar = np.array([provider(k).H.mean for k in range(K + 1)])
    x = traj.states
    nu = x[:, 1:] - np.einsum("kij,nkj->nki", Fbar, x[:, :-1])
    om = traj.measurements - np.einsum("kij,nkj->nki", Hbar, x)
    return x[:, 0], nu, om
