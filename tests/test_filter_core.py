import numpy as np
import pytest

from conftest import rand_ic, rand_psd, rand_random_model, textbook_kf
from randkf import (
    InitialCondition,
    MatrixDist,
    deterministic,
    filter_sequence,
    init,
    moments_from_dist,
    predict,
    step,
    update,
)
from randkf.filter_core import (
    FilterState,
    PredictedState,
    StepModel,
    deterministic_model,
)
from randkf.sim_harness import derive_run_seeds, run_filter_on, simulate_truth


def rotation(period):
    a = 2 * np.pi / period
    return np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])


def scalar_spec(mean, var):
    """1x1 random matrix spec with given mean and deviation variance."""
    dev = np.zeros((1, 1, 1, 1))
    dev[0, 0, 0, 0] = var
    from randkf.random_matrix import RandomMatrixSpec
    return RandomMatrixSpec(mean=np.array([[mean]]), dev_cov=dev)


class TestInit:
    def test_second_moment_from_tracking_prior(self):
        ic = InitialCondition(mean=np.array([50.0, 0.0]), cov=0.5 * np.eye(2))
        s = init(ic)
        np.testing.assert_allclose(
            s.second_moment, [[2500.5, 0.0], [0.0, 0.5]], rtol=0, atol=0)
        assert s.step == 0

    def test_zero_mean_identity_cov(self):
        s = init(InitialCondition(mean=np.zeros(3), cov=np.eye(3)))
        np.testing.assert_array_equal(s.second_moment, np.eye(3))

    def test_zero_cov_gives_outer_product(self):
        mu = np.array([1.0, 2.0])
        s = init(InitialCondition(mean=mu, cov=np.zeros((2, 2))))
        np.testing.assert_array_equal(s.second_moment, np.outer(mu, mu))

    def test_rejects_indefinite_cov(self):
        with pytest.raises(ValueError, match="semidefinite"):
            InitialCondition(mean=np.zeros(2),
                             cov=np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestPredict:
    def test_identity_dynamics_noise_free(self, rng):
        m = deterministic_model(np.eye(2), np.eye(2), np.zeros((2, 2)),
                                np.eye(2))
        s = init(InitialCondition(mean=rng.standard_normal(2),
                                  cov=rand_psd(rng, 2)))
        p = predict(s, m)
        np.testing.assert_allclose(p.mean, s.mean, atol=1e-15)
        np.testing.assert_allclose(p.cov, s.cov, atol=1e-14)
        np.testing.assert_allclose(p.second_moment, s.second_moment,
                                   atol=1e-12)

    def test_scalar_hand_evaluated(self):
        # mean 1, cov 1, X 2; F mean 1 with deviation variance 1, Rv 0:
        # cov' = 1*1*1 + 0 + 1*2 = 3, X' = 1*2*1 + 1*2 + 0 = 4
        m = StepModel(F=scalar_spec(1.0, 1.0), H=deterministic([[1.0]]),
                      Rv=np.zeros((1, 1)), Rw=np.eye(1))
        s = FilterState(step=0, mean=np.array([1.0]), cov=np.array([[1.0]]),
                        second_moment=np.array([[2.0]]))
        p = predict(s, m)
        np.testing.assert_allclose(p.mean, [1.0])
        np.testing.assert_allclose(p.cov, [[3.0]])
        np.testing.assert_allclose(p.second_moment, [[4.0]])

    def test_rotation_preserves_scaled_identity(self):
        m = deterministic_model(rotation(300), np.eye(2), 2.0 * np.eye(2),
                                np.eye(2))
        s = FilterState(step=0, mean=np.zeros(2), cov=0.5 * np.eye(2),
                        second_moment=0.5 * np.eye(2))
        p = predict(s, m)
        np.testing.assert_allclose(p.cov, 2.5 * np.eye(2), atol=1e-14)

    def test_rejects_dimension_mismatch(self):
        m = deterministic_model(np.eye(3), np.eye(3), np.eye(3), np.eye(3))
        s = init(InitialCondition(mean=np.zeros(2), cov=np.eye(2)))
        with pytest.raises(ValueError):
            predict(s, m)


class TestUpdate:
    def test_zero_innovation_keeps_mean(self, rng):
        m = rand_random_model(rng, 2, 2)
        p = PredictedState(step=1, mean=rng.standard_normal(2),
                           cov=rand_psd(rng, 2, floor=0.1),
                           second_moment=rand_psd(rng, 2, floor=0.5))
        s = update(p, m.H.mean @ p.mean, m)
        np.testing.assert_allclose(s.mean, p.mean, atol=1e-12)

    def test_scalar_hand_evaluated(self):
        m = deterministic_model([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        p = PredictedState(step=1, mean=np.array([0.0]),
                           cov=np.array([[1.0]]),
                           second_moment=np.array([[1.0]]))
        s = update(p, np.array([1.0]), m)
        np.testing.assert_allclose(s.mean, [0.5])
        np.testing.assert_allclose(s.cov, [[0.5]])

    def test_deterministic_matches_textbook_update(self, rng):
        F, H = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        Rv, Rw = rand_psd(rng, 2, 0.1), rand_psd(rng, 2, 0.5)
        ic = rand_ic(rng, 2)
        y = rng.standard_normal(2)
        ref = textbook_kf(F, H, Rv, Rw, ic.mean, ic.cov, [y])
        got = filter_sequence(
            lambda k: deterministic_model(F, H, Rv, Rw), ic, [y])
        np.testing.assert_allclose(got[0].mean, ref[0][0], rtol=1e-13,
                                   atol=1e-13)
        np.testing.assert_allclose(got[0].cov, ref[0][1], rtol=1e-13,
                                   atol=1e-13)

    def test_second_moment_not_conditioned_on_data(self, rng):
        m = rand_random_model(rng, 2, 2)
        p = PredictedState(step=1, mean=np.zeros(2), cov=np.eye(2),
                           second_moment=rand_psd(rng, 2, 1.0))
        s = update(p, rng.standard_normal(2), m)
        np.testing.assert_array_equal(s.second_moment, p.second_moment)

    def test_singular_innovation_uses_pseudo_inverse(self):
        # informationless measurement with zero noise: gain collapses to 0
        m = StepModel(F=deterministic(np.eye(2)),
                      H=deterministic(np.zeros((1, 2))),
                      Rv=np.zeros((2, 2)), Rw=np.zeros((1, 1)))
        p = PredictedState(step=1, mean=np.array([1.0, 2.0]), cov=np.eye(2),
                           second_moment=2 * np.eye(2))
        s = update(p, np.array([0.3]), m)
        np.testing.assert_array_equal(s.mean, p.mean)
        np.testing.assert_allclose(s.cov, p.cov)


class TestStep:
    def test_equals_update_after_predict(self, rng):
        for _ in range(100):
            m = rand_random_model(rng, 2, 2)
            s = FilterState(step=int(rng.integers(0, 5)),
                            mean=rng.standard_normal(2),
                            cov=rand_psd(rng, 2, 0.1),
                            second_moment=rand_psd(rng, 2, 0.5))
            y = rng.standard_normal(2)
            a = step(s, y, m)
            b = update(predict(s, m), y, m)
            assert a.step == s.step + 1
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.cov, b.cov)

    def test_two_deterministic_steps_match_textbook(self, rng):
        F = 0.9 * rng.standard_normal((2, 2))
        F /= max(1.0, max(abs(np.linalg.eigvals(F))))
        H = rng.standard_normal((2, 2))
        Rv, Rw = rand_psd(rng, 2, 0.1), rand_psd(rng, 2, 1.0)
        ic = rand_ic(rng, 2)
        ys = [rng.standard_normal(2) for _ in range(3)]
        ref = textbook_kf(F, H, Rv, Rw, ic.mean, ic.cov, ys)
        got = filter_sequence(lambda k: deterministic_model(F, H, Rv, Rw),
                              ic, ys)
        for (rx, rP), g in zip(ref, got):
            np.testing.assert_allclose(g.mean, rx, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(g.cov, rP, rtol=1e-12, atol=1e-12)

    def test_joseph_form_agrees_when_well_conditioned(self, rng):
        m = rand_random_model(rng, 2, 2)
        ic = rand_ic(rng, 2)
        ys = [rng.standard_normal(2) for _ in range(5)]
        plain = filter_sequence(lambda k: m, ic, ys)
        joseph = filter_sequence(lambda k: m, ic, ys, joseph=True)
        for a, b in zip(plain, joseph):
            np.testing.assert_allclose(a.cov, b.cov, rtol=1e-9, atol=1e-10)


def test_batched_filter_matches_per_run_calls(rng):
    # one pass over (runs, K+1, N) measurements against one call per run
    runs, K, r, N = 7, 40, 3, 2
    m = rand_random_model(rng, r, N)
    ic = rand_ic(rng, r)
    ys = 3 * rng.standard_normal((runs, K + 1, N))
    batched = filter_sequence(lambda k: m, ic, ys)
    for i in range(runs):
        single = filter_sequence(lambda k: m, ic, ys[i])
        for b, s in zip(batched, single, strict=True):
            assert b.mean.shape == (runs, r) and b.cov.shape == (r, r)
            np.testing.assert_array_equal(b.cov, s.cov)
            np.testing.assert_array_equal(b.second_moment, s.second_moment)
            np.testing.assert_allclose(b.mean[i], s.mean, rtol=0,
                                       atol=1e-13 * np.abs(s.mean).max())


def test_covariance_monotone_in_measurement_noise(rng):
    # PSD-larger Rw never shrinks trace(P_k) at fixed data, deterministic H
    F = rotation(200)
    H = np.array([[1.0, 0.0]])
    Rv = 0.5 * np.eye(2)
    ic = rand_ic(rng, 2)
    ys = [rng.standard_normal(1) for _ in range(20)]
    for _ in range(10):
        Rw = rand_psd(rng, 1, 0.2)
        bump = rand_psd(rng, 1, 0.1)
        base = filter_sequence(
            lambda k: deterministic_model(F, H, Rv, Rw), ic, ys)
        noisier = filter_sequence(
            lambda k: deterministic_model(F, H, Rv, Rw + bump), ic, ys)
        for a, b in zip(base, noisier):
            assert np.trace(b.cov) >= np.trace(a.cov) - 1e-12


def test_second_moment_dominates_conditional_decomposition():
    # E(x x^T) = P + E(xhat xhat^T) holds in expectation for the LMV
    # filter; the Monte-Carlo average must not overshoot materially.
    # Fixed seed keeps the statistical check deterministic.
    rng = np.random.default_rng(5)
    fdist = MatrixDist.of([(rotation(80), 0.4), (rotation(40), 0.6)])
    m = StepModel(F=moments_from_dist(fdist),
                  H=deterministic(np.array([[1.0, 1.0]])),
                  Rv=0.3 * np.eye(2), Rw=np.array([[1.0]]))
    ic = InitialCondition(mean=np.array([2.0, -1.0]), cov=0.5 * np.eye(2))
    K, runs = 12, 500
    provider = lambda k: m
    per_run = []
    states = None
    for seed in derive_run_seeds(17, runs):
        traj = simulate_truth(provider, ic, K, seed)
        states, _, _ = run_filter_on(traj, provider, ic)
        per_run.append([np.trace(s.second_moment - s.cov) - s.mean @ s.mean
                        for s in states])
    per_run = np.array(per_run)
    gap = per_run.mean(axis=0)
    se = per_run.std(axis=0, ddof=1) / np.sqrt(runs)
    traces = np.array([np.trace(s.second_moment) for s in states])
    assert np.all(gap >= -1e-8 * traces - 5 * se)
