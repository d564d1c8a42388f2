import numpy as np
import pytest

from conftest import rand_ic, rand_psd, rand_random_model, textbook_kf
from randkf import (
    InitialCondition,
    MatrixDist,
    MultiModelDynamics,
    NahiModel,
    build_multimodel,
    build_nahi,
    deterministic_model,
    filter_sequence,
    monte_carlo,
    run_filter_on,
    simulate_truth,
)
from randkf.filter_core import constant_provider
from randkf.sim_harness import (
    batch_lmv_oracle,
    covariance_recursion,
    derive_run_seeds,
    gamma_sweep,
    nees,
    sample_converted_noises,
)


def rotation(period):
    a = 2 * np.pi / period
    return np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])


def sim1_provider(gamma=0.95):
    m = NahiModel(h=np.array([[1.0, 1.0], [1.0, -1.0]]), p=gamma,
                  F=rotation(300), Rv=2 * np.eye(2), Rw=np.eye(2))
    return lambda k: build_nahi(m, k)


SIM1_IC = InitialCondition(mean=np.array([50.0, 0.0]), cov=0.5 * np.eye(2))


class TestSimulateTruth:
    def test_frozen_noise_free_system(self):
        prov = constant_provider(
            deterministic_model(np.eye(2), np.eye(2), np.zeros((2, 2)),
                                np.zeros((2, 2))))
        ic = InitialCondition(mean=np.array([1.0, -2.0]),
                              cov=np.zeros((2, 2)))
        traj = simulate_truth(prov, ic, 5, seed=0)
        for x, y in zip(traj.states, traj.measurements):
            np.testing.assert_array_equal(x, ic.mean)
            np.testing.assert_array_equal(y, ic.mean)

    def test_noise_free_rotation_preserves_radius(self):
        m = NahiModel(h=np.array([[1.0, 1.0], [1.0, -1.0]]), p=1.0,
                      F=rotation(300), Rv=np.zeros((2, 2)),
                      Rw=np.zeros((2, 2)))
        ic = InitialCondition(mean=np.array([50.0, 0.0]),
                              cov=np.zeros((2, 2)))
        traj = simulate_truth(lambda k: build_nahi(m, k), ic, 300, seed=3)
        radii = np.linalg.norm(traj.states, axis=1)
        np.testing.assert_allclose(radii, 50.0, rtol=1e-10)

    def test_same_seed_bit_identical(self, rng):
        prov = constant_provider(rand_random_model(rng, 2, 2))
        ic = rand_ic(rng, 2)
        a = simulate_truth(prov, ic, 20, seed=11)
        b = simulate_truth(prov, ic, 20, seed=11)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.measurements, b.measurements)
        np.testing.assert_array_equal(a.realized_F, b.realized_F)
        np.testing.assert_array_equal(a.realized_H, b.realized_H)

    def test_seed_list_equals_stacked_single_seeds(self):
        m2 = MultiModelDynamics(
            transition_dist=MatrixDist.of([(rotation(300), 0.1),
                                           (rotation(250), 0.2),
                                           (rotation(100), 0.7)]),
            H=np.array([[1.0, 1.0], [1.0, -1.0]]), Rv=2 * np.eye(2),
            Rw=np.eye(2))
        # time-varying arrival probability: several draw groups per run
        m3 = NahiModel(h=np.array([[1.0, 1.0], [1.0, -1.0]]),
                       p=lambda k: 0.5 + 0.1 * (k % 4), F=rotation(300),
                       Rv=2 * np.eye(2), Rw=np.eye(2))
        seeds = derive_run_seeds(13, 5)
        for prov in (sim1_provider(), lambda k: build_multimodel(m2, k),
                     lambda k: build_nahi(m3, k)):
            batched = simulate_truth(prov, SIM1_IC, 40, seeds)
            assert batched.seed == tuple(seeds)
            for i, s in enumerate(seeds):
                one = simulate_truth(prov, SIM1_IC, 40, s)
                for field in ("states", "realized_F", "realized_H",
                              "measurements"):
                    np.testing.assert_array_equal(
                        getattr(batched, field)[i], getattr(one, field))

    def test_shapes_consistent(self, rng):
        prov = constant_provider(rand_random_model(rng, 3, 2))
        traj = simulate_truth(prov, rand_ic(rng, 3), 7, seed=5)
        assert traj.states.shape == (8, 3)
        assert traj.realized_F.shape == (7, 3, 3)
        assert traj.realized_H.shape == (8, 2, 3)
        assert traj.measurements.shape == (8, 2)


class TestRunFilterOn:
    def test_perfect_information_recovers_state(self):
        prov = constant_provider(
            deterministic_model(np.eye(2), np.eye(2), np.zeros((2, 2)),
                                np.zeros((2, 2))))
        ic = InitialCondition(mean=np.zeros(2), cov=np.eye(2))
        traj = simulate_truth(prov, ic, 5, seed=1)
        _, sq_err, _ = run_filter_on(traj, prov, ic)
        assert np.all(sq_err[1:] < 1e-12)

    def test_nees_nonnegative_finite(self, rng):
        prov = constant_provider(rand_random_model(rng, 2, 2))
        ic = rand_ic(rng, 2)
        traj = simulate_truth(prov, ic, 30, seed=2)
        _, _, nees_vals = run_filter_on(traj, prov, ic)
        assert np.all(np.isfinite(nees_vals))
        assert np.all(nees_vals >= 0)

    def test_two_step_scalar_hand_computed(self):
        # F = H = Rv = Rw = 1, mu0 = 0, P0 = 1, ys = (1, 2):
        # update0: S = 2, K = 1/2 -> x = 0.5, P = 0.5
        # predict: x = 0.5, P = 1.5; update: S = 2.5, K = 0.6
        #          -> x = 0.5 + 0.6 * 1.5 = 1.4, P = 0.6
        prov = constant_provider(
            deterministic_model([[1.0]], [[1.0]], [[1.0]], [[1.0]]))
        ic = InitialCondition(mean=np.zeros(1), cov=np.eye(1))
        states = filter_sequence(prov, ic, [[1.0], [2.0]])
        np.testing.assert_allclose(states[0].mean, [0.5])
        np.testing.assert_allclose(states[0].cov, [[0.5]])
        np.testing.assert_allclose(states[1].mean, [1.4])
        np.testing.assert_allclose(states[1].cov, [[0.6]])


def test_batched_nees_matches_per_run_pinv(rng):
    runs, K, r = 6, 5, 3
    covs = np.array([rand_psd(rng, r, 0.1) for _ in range(K)])
    v = rng.standard_normal(r)
    covs[2] = np.outer(v, v)  # rank one: the pseudo-inverse path
    errs = rng.standard_normal((runs, K, r))
    got = nees(errs, covs)
    assert got.shape == (runs, K)
    for i in range(runs):
        for k in range(K):
            e = errs[i, k]
            np.testing.assert_allclose(got[i, k],
                                       e @ np.linalg.pinv(covs[k]) @ e,
                                       rtol=1e-12)


class TestMonteCarlo:
    def test_truth_estimator_gives_zero_error(self, rng):
        prov = constant_provider(rand_random_model(rng, 2, 2))
        ic = rand_ic(rng, 2)
        truth_double = lambda traj: (traj.states,
                                     np.stack([np.eye(2)] * len(traj.states)))
        metrics = monte_carlo(prov, ic, 10, 1, 42, estimator=truth_double)
        np.testing.assert_array_equal(metrics.per_step_sq_error,
                                      np.zeros(11))

    def test_prefix_runs_unchanged_when_doubling(self):
        prov = sim1_provider()
        # per-run seeds are prefix-stable, so doubling the run count
        # leaves the shared runs' contributions bit-identical
        assert derive_run_seeds(7, 4) == derive_run_seeds(7, 8)[:4]
        a = monte_carlo(prov, SIM1_IC, 10, 4, 7)
        b = monte_carlo(prov, SIM1_IC, 10, 8, 7)
        extra = sum(
            run_filter_on(simulate_truth(prov, SIM1_IC, 10, s), prov,
                          SIM1_IC)[1]
            for s in derive_run_seeds(7, 8)[4:])
        np.testing.assert_allclose(
            b.per_step_sq_error * 8,
            a.per_step_sq_error * 4 + extra, rtol=1e-13)

    def test_metrics_finite_on_tracking_config(self):
        metrics = monte_carlo(sim1_provider(), SIM1_IC, 50, 5, 123)
        assert np.all(np.isfinite(metrics.per_step_sq_error))
        assert np.all(metrics.per_step_sq_error >= 0)
        assert metrics.runs == 5


class TestBatchOracle:
    def test_deterministic_matches_textbook(self, rng):
        F, H = rotation(40), rng.standard_normal((2, 2))
        Rv, Rw = 0.3 * np.eye(2), np.eye(2)
        ic = rand_ic(rng, 2)
        ys = [rng.standard_normal(2) for _ in range(3)]
        mean, cov = batch_lmv_oracle(
            constant_provider(deterministic_model(F, H, Rv, Rw)), ic, ys)
        ref = textbook_kf(F, H, Rv, Rw, ic.mean, ic.cov, ys)[-1]
        np.testing.assert_allclose(mean, ref[0], rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(cov, ref[1], rtol=1e-10, atol=1e-10)

    def test_nahi_scalar_golden(self):
        # frozen output of this oracle on the scalar dropout model;
        # the recursive filter must agree
        m = NahiModel(h=np.array([[1.0]]), p=0.5, F=np.array([[1.0]]),
                      Rv=np.array([[1.0]]), Rw=np.array([[1.0]]))
        prov = lambda k: build_nahi(m, k)
        ic = InitialCondition(mean=np.zeros(1), cov=np.eye(1))
        ys = [[0.7], [-0.3], [1.1]]
        mean, cov = batch_lmv_oracle(prov, ic, ys)
        np.testing.assert_allclose(mean, [0.5909502262443443], rtol=1e-12)
        np.testing.assert_allclose(cov, [[1.789592760180995]], rtol=1e-12)
        rec = filter_sequence(prov, ic, ys)[-1]
        np.testing.assert_allclose(rec.mean, mean, rtol=1e-9)
        np.testing.assert_allclose(rec.cov, cov, rtol=1e-9)

    def test_three_model_bank_matches_recursion(self, rng):
        dist = MatrixDist.of([(rotation(300), 0.1), (rotation(250), 0.2),
                              (rotation(100), 0.7)])
        from randkf import MultiModelDynamics, build_multimodel
        mm = MultiModelDynamics(transition_dist=dist,
                                H=np.array([[1.0, 1.0], [1.0, -1.0]]),
                                Rv=2 * np.eye(2), Rw=np.eye(2))
        prov = lambda k: build_multimodel(mm, k)
        ys = [rng.standard_normal(2) * 30 for _ in range(4)]
        mean, cov = batch_lmv_oracle(prov, SIM1_IC, ys)
        rec = filter_sequence(prov, SIM1_IC, ys)[-1]
        scale = max(1.0, np.abs(mean).max())
        np.testing.assert_allclose(rec.mean, mean, rtol=0,
                                   atol=1e-9 * scale)
        np.testing.assert_allclose(rec.cov, cov, rtol=0,
                                   atol=1e-9 * max(1.0, np.abs(cov).max()))

    def test_rejects_long_horizon(self, rng):
        prov = constant_provider(rand_random_model(rng, 2, 2))
        ys = [np.zeros(2)] * 9
        with pytest.raises(ValueError, match="horizon"):
            batch_lmv_oracle(prov, rand_ic(rng, 2), ys)


class TestGammaSweep:
    @staticmethod
    def _factory(gamma):
        return sim1_provider(gamma), SIM1_IC

    def test_full_information_has_smallest_trace(self):
        res = gamma_sweep(self._factory, [0.5, 0.8, 1.0], K=60)
        traces = [t for _, t in res]
        assert traces[-1] == min(traces)

    def test_strictly_decreasing_on_tracking_model(self):
        res = gamma_sweep(self._factory, [0.5, 0.7, 0.9, 0.95, 1.0], K=300)
        traces = [t for _, t in res]
        assert all(a > b for a, b in zip(traces, traces[1:]))

    def test_equal_gammas_equal_traces(self):
        res = gamma_sweep(self._factory, [0.7, 0.7], K=30)
        assert res[0][1] == res[1][1]

    def test_rejects_unsorted_or_out_of_range(self):
        with pytest.raises(ValueError, match="sorted"):
            gamma_sweep(self._factory, [0.9, 0.5], K=5)
        with pytest.raises(ValueError, match="0, 1"):
            gamma_sweep(self._factory, [0.0, 0.5], K=5)


def test_covariance_recursion_is_data_independent(rng):
    prov = sim1_provider()
    rec = covariance_recursion(prov, SIM1_IC, 20)
    traj = simulate_truth(prov, SIM1_IC, 20, seed=9)
    states, _, _ = run_filter_on(traj, prov, SIM1_IC)
    for a, b in zip(rec, states):
        np.testing.assert_allclose(a.cov, b.cov, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a.second_moment, b.second_moment,
                                   rtol=1e-12, atol=1e-12)


def test_covariance_recursion_rejects_non_finite_moments():
    # unstable mean dynamics: X grows 100-fold per step until it overflows
    prov = constant_provider(deterministic_model(
        10 * np.eye(2), np.eye(2), np.eye(2), np.eye(2)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"X is not finite at step \d+"):
        covariance_recursion(prov, SIM1_IC, 400)


def test_sample_converted_noises_shapes_and_determinism(rng):
    prov = sim1_provider()
    x0, nu, om = sample_converted_noises(prov, SIM1_IC, 4, 100, seed=8)
    assert x0.shape == (100, 2)
    assert nu.shape == (100, 4, 2)
    assert om.shape == (100, 5, 2)
    x0b, nub, omb = sample_converted_noises(prov, SIM1_IC, 4, 100, seed=8)
    np.testing.assert_array_equal(nu, nub)
    np.testing.assert_array_equal(om, omb)
