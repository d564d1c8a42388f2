"""Test-only references: the exact batch LMV oracle and the sampled
converted-system noises.

Both take the library's step models but none of its filter code paths,
so the recursive filter and the covariance recursion can be certified
against them.
"""

from typing import Sequence

import numpy as np

from randkf.filter_core import InitialCondition, ModelProvider, symmetrize
from randkf.random_matrix import quad_form
from randkf.sim_harness import derive_run_seeds, simulate_truth

MAX_ORACLE_HORIZON = 4


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


def sample_converted_noises(provider: ModelProvider, ic: InitialCondition,
                            K: int, n: int, seed: int):
    """Draws of the converted-system noises for moment checks.

    Returns (x0, nu_tilde, omega_tilde) with shapes (n, r), (n, K, r) and
    (n, K+1, N), where nu_tilde_k = x_{k+1} - Fbar_k x_k and
    omega_tilde_k = y_k - Hbar_k x_k across n trajectories that
    simulate_truth samples from per-run seeds derived from ``seed``.
    """
    traj = simulate_truth(provider, ic, K, derive_run_seeds(seed, n))
    Fbar = np.array([provider(k).F.mean for k in range(K)])
    Hbar = np.array([provider(k).H.mean for k in range(K + 1)])
    x = traj.states
    nu = x[:, 1:] - np.einsum("kij,nkj->nki", Fbar, x[:, :-1])
    om = traj.measurements - np.einsum("kij,nkj->nki", Hbar, x)
    return x[:, 0], nu, om
