"""Shared fixtures, reference implementations and random model generators.

The references here are deliberately written from the printed formulas,
independently of the library's code paths, so tests comparing the two
actually check something.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from randkf.adapters import (
    MultiModelDynamics,
    NahiModel,
    build_multimodel,
    build_nahi,
)
from randkf.config import rotation_matrix
from randkf.filter_core import (
    InitialCondition,
    StepModel,
    constant_provider,
    stack_models,
)
from randkf.random_matrix import MatrixDist, deterministic, moments_from_dist

REPO = Path(__file__).resolve().parent.parent
SIM1 = REPO / "configs" / "simulation1.yaml"
SIM2 = REPO / "configs" / "simulation2.yaml"

# arrival probabilities at and next to the ends of [0, 1]
EDGE_PROBS = (0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0)

# The two shipped experiments, restated so that modules can use them at
# import; the parser's tests check them against SIM1 and SIM2 bit for bit.
H_SIM1 = np.array([[1.0, 1.0], [1.0, -1.0]])
SIM1_IC = InitialCondition(mean=[50.0, 0.0], cov=0.5 * np.eye(2))


def sim1_model(gamma=0.95) -> StepModel:
    """Simulation 1's model at arrival probability gamma."""
    return build_nahi(NahiModel(h=H_SIM1, p=gamma, F=rotation_matrix(300),
                                Rv=2 * np.eye(2), Rw=np.eye(2)), 0)


def sim1_provider(gamma=0.95):
    return constant_provider(sim1_model(gamma))


def sim2_model() -> StepModel:
    """Simulation 2: three rotation speeds drawn i.i.d. per step."""
    bank = MatrixDist.of([(rotation_matrix(period), p)
                          for period, p in ((300, 0.1), (250, 0.2),
                                            (100, 0.7))])
    return build_multimodel(MultiModelDynamics(
        transition_dist=bank, H=H_SIM1, Rv=2 * np.eye(2), Rw=np.eye(2)), 0)


def sim2_provider():
    return constant_provider(sim2_model())


def model_arrays(m) -> list[np.ndarray]:
    """Every array of a StepModel that the filter or the sampler reads."""
    arrays = [m.Rv, m.Rw]
    for spec in (m.F, m.H):
        arrays += [spec.mean, spec.factors]
        if spec.source is not None:
            arrays += [spec.source.stacked, spec.source.probs]
    return arrays


def assert_allclose_rel(a, b, tol):
    """a within tol of b, relative to b's largest magnitude (at least 1)."""
    scale = max(1.0, np.abs(b).max())
    np.testing.assert_allclose(a, b, rtol=0, atol=tol * scale)


def deterministic_model(F, H, Rv, Rw) -> StepModel:
    """StepModel with non-random F and H."""
    return StepModel(F=deterministic(F), H=deterministic(H),
                     Rv=np.asarray(Rv, dtype=float),
                     Rw=np.asarray(Rw, dtype=float))


def fit_model(r, N, members):
    """A deterministic model with state dimension r and N measurement
    rows; a stack of `members` copies if members > 0."""
    m = deterministic_model(np.eye(r), np.ones((N, r)), np.eye(r), np.eye(N))
    return stack_models([m] * members) if members else m


def textbook_kf(F, H, Q, R, mu0, P0, ys):
    """Plain Kalman filter with explicit inverses.

    Mirrors the library's measurement convention: y_0 updates the prior
    in place, later measurements follow a predict.
    """
    F, H, Q, R = (np.atleast_2d(np.asarray(a, dtype=float))
                  for a in (F, H, Q, R))
    x = np.asarray(mu0, dtype=float).ravel()
    P = np.atleast_2d(np.asarray(P0, dtype=float))
    I = np.eye(x.size)
    out = []
    for k, y in enumerate(ys):
        if k > 0:
            x = F @ x
            P = F @ P @ F.T + Q
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        x = x + K @ (np.asarray(y, dtype=float).ravel() - H @ x)
        P = (I - K @ H) @ P
        out.append((x.copy(), P.copy()))
    return out


def naive_kf_provider(provider):
    """Standard-KF baseline: keeps the mean matrices, drops the quad forms."""
    def naive(k):
        m = provider(k)
        return deterministic_model(m.F.mean, m.H.mean, m.Rv, m.Rw)
    return naive


def nahi_reference(h, p, F, Rv, Rw, mu0, P0, ys):
    """Specialized dropout recursion with p factored out of the gain.

    Uses the gain written as p * P h^T (p^2 h P h^T + Rw_eff)^-1 and the
    covariance update P <- (I - p K h) P, with Rw_eff evaluated at the
    predicted second moment of the step being updated.
    """
    h, F, Rv, Rw = (np.atleast_2d(np.asarray(a, dtype=float))
                    for a in (h, F, Rv, Rw))
    x = np.asarray(mu0, dtype=float).ravel()
    P = np.atleast_2d(np.asarray(P0, dtype=float))
    X = np.outer(x, x) + P
    I = np.eye(x.size)
    out = []
    for k, y in enumerate(ys):
        if k > 0:
            x = F @ x
            P = F @ P @ F.T + Rv
            X = F @ X @ F.T + Rv
        Rw_eff = Rw + (1.0 - p) * p * h @ X @ h.T
        S = p * p * h @ P @ h.T + Rw_eff
        K = p * P @ h.T @ np.linalg.inv(S)
        x = x + K @ (np.asarray(y, dtype=float).ravel() - p * h @ x)
        P = (I - p * K @ h) @ P
        out.append((x.copy(), P.copy(), X.copy()))
    return out


def quad_form_discrete(dist, X):
    """E(M~ X M~^T) by direct summation over a MatrixDist's samples."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mean = sum(p * M for p, M in zip(dist.probs, dist.samples))
    out = sum(p * (M - mean) @ X @ (M - mean).T
              for p, M in zip(dist.probs, dist.samples))
    return 0.5 * (out + out.T)


def dev_cov_tensor(dist):
    """Cov(M_ij, M_mn) of a MatrixDist, as a (p, q, p, q) tensor."""
    mean = sum(p * M for p, M in zip(dist.probs, dist.samples))
    return sum(p * np.multiply.outer(M - mean, M - mean)
               for p, M in zip(dist.probs, dist.samples))


def factor_tensor(spec):
    """The (p, q, p, q) covariance tensor a spec's deviation factors imply."""
    return np.einsum("lij,lmn->ijmn", spec.factors, spec.factors)


def enumerated_partition_dist(blocks):
    """All 2^B on/off patterns of (h_i, p_i) dropout blocks, with product
    probabilities, as one MatrixDist."""
    hs = [np.atleast_2d(np.asarray(h, dtype=float)) for h, _ in blocks]
    ps = [float(p) for _, p in blocks]
    pairs = []
    for on in itertools.product((1, 0), repeat=len(hs)):
        H = np.vstack([h if bit else np.zeros_like(h)
                       for h, bit in zip(hs, on)])
        prob = float(np.prod([p if bit else 1.0 - p
                              for p, bit in zip(ps, on)]))
        pairs.append((H, prob))
    return MatrixDist.of(pairs)


def partitioned_quad_form(m, X):
    """Block-diagonal E(H~ X H~^T) of a PartitionedObsModel, block by
    block: (1 - p_i) p_i h_i X h_i^T."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    blocks = []
    for h, p in m.blocks:
        h = np.atleast_2d(np.asarray(h, dtype=float))
        blocks.append((1.0 - p) * p * h @ X @ h.T)
    N = sum(b.shape[0] for b in blocks)
    out = np.zeros((N, N))
    at = 0
    for b in blocks:
        n = b.shape[0]
        out[at:at + n, at:at + n] = b
        at += n
    return out


def rand_psd(rng, n, floor=0.0):
    A = rng.standard_normal((n, n))
    return A @ A.T + floor * np.eye(n)


def rand_dist(rng, p, q, n_samples=None, scale=1.0):
    """Random finite matrix distribution with nondegenerate probabilities."""
    l = n_samples if n_samples is not None else int(rng.integers(2, 4))
    probs = rng.uniform(0.2, 1.0, size=l)
    probs /= probs.sum()
    mats = [scale * rng.standard_normal((p, q)) for _ in range(l)]
    return MatrixDist.of(list(zip(mats, probs)))


def rand_random_model(rng, r, N, *, stable=True):
    """StepModel with finite-dist F and H and well-conditioned noises."""
    fdist = rand_dist(rng, r, r)
    if stable:
        # keep the mean dynamics non-expansive so horizons stay tame
        rho = max(abs(np.linalg.eigvals(moments_from_dist(fdist).mean)))
        if rho > 0.95:
            scaled = [(0.95 / rho) * m for m in fdist.samples]
            fdist = MatrixDist.of(list(zip(scaled, fdist.probs)))
    hdist = rand_dist(rng, N, r)
    return StepModel(F=moments_from_dist(fdist), H=moments_from_dist(hdist),
                     Rv=rand_psd(rng, r, floor=0.1),
                     Rw=rand_psd(rng, N, floor=0.5))


def edge_nahi_models(Rw=np.diag([1.0, 0.0])):
    """Sim1's dropout sensor at each of EDGE_PROBS, on 0.99 times sim1's
    rotation, so that the second moment X stays bounded at long horizons.

    The default Rw = diag(1, 0) is singular, so the S >= Rw certificate
    holds for no member and every member takes the pseudo-inverse gain
    path; at p = 0 the innovation covariance S equals Rw and is singular.
    """
    F = 0.99 * rotation_matrix(300)
    return [build_nahi(NahiModel(h=H_SIM1, p=p, F=F, Rv=2 * np.eye(2),
                                 Rw=Rw), 0)
            for p in EDGE_PROBS]


def mixed_nahi_models():
    """The edge members, each followed by its twin with Rw = I, which the
    certificate sends to the solve: a stack taking both gain paths."""
    pairs = zip(edge_nahi_models(), edge_nahi_models(np.eye(2)))
    return [m for pair in pairs for m in pair]


def joseph_recursion(m, ic, K):
    """P and X over steps 0..K of one time-invariant (possibly stacked)
    StepModel, by the Joseph form.

    The gain is P Hbar^T S^+ (numpy's pseudo-inverse, cutoff 1e-12) and
    the update (I - K Hbar) P (I - K Hbar)^T + K Rw_eff K^T, which holds
    for any gain; the noise inflation sums G X G^T over the deviation
    factors G directly.  Returns arrays (K+1, [models,] r, r).
    """
    def inflated(R, spec, X):
        G = spec.factors
        return R + np.einsum("...lij,...jk,...lmk->...im", G, X, G)

    Fbar, Hbar = m.F.mean, m.H.mean
    lead = m.Rv.shape[:-2]
    P = np.broadcast_to(ic.cov, lead + ic.cov.shape)
    X = np.broadcast_to(np.outer(ic.mean, ic.mean) + ic.cov, P.shape)
    I = np.eye(P.shape[-1])
    Ps, Xs = [], []
    for k in range(K + 1):
        if k > 0:
            Rv_eff = inflated(m.Rv, m.F, X)
            P = Fbar @ P @ Fbar.mT + Rv_eff
            X = Fbar @ X @ Fbar.mT + Rv_eff
        Rw_eff = inflated(m.Rw, m.H, X)
        S = Hbar @ P @ Hbar.mT + Rw_eff
        G = P @ Hbar.mT @ np.linalg.pinv(S, rcond=1e-12, hermitian=True)
        A = I - G @ Hbar
        P = A @ P @ A.mT + G @ Rw_eff @ G.mT
        P = 0.5 * (P + P.mT)
        Ps.append(P)
        Xs.append(X)
    return np.array(Ps), np.array(Xs)


def rand_ic(rng, r):
    return InitialCondition(mean=rng.standard_normal(r),
                            cov=rand_psd(rng, r, floor=0.1))


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)
