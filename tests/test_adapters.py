import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import (
    H_SIM1,
    factor_tensor,
    model_arrays,
    nahi_reference,
    partitioned_quad_form,
    quad_form_discrete,
    rand_ic,
    rand_psd,
    sim1_model,
    sim2_model,
    textbook_kf,
)
from randkf.adapters import (
    MultiModelDynamics,
    NahiModel,
    PartitionedObsModel,
    UncertainObsModel,
    build_multimodel,
    build_nahi,
    build_partitioned,
    build_uncertain_obs,
)
from randkf.config import rotation_matrix
from randkf.filter_core import InitialCondition, filter_sequence
from randkf.random_matrix import MatrixDist, quad_form
from randkf.sim_harness import covariance_recursion, simulate_truth

class TestUncertainObs:
    def test_single_certain_matrix_is_deterministic(self):
        m = UncertainObsModel(
            measurement_dist=MatrixDist.of([(H_SIM1, 1.0)]),
            F=rotation_matrix(300), Rv=2 * np.eye(2), Rw=np.eye(2))
        sm = build_uncertain_obs(m, 0)
        assert not sm.H.factors.any()
        np.testing.assert_array_equal(sm.H.mean, H_SIM1)

    def test_dropout_noise_inflation(self):
        dist = MatrixDist.of([(H_SIM1, 0.95), (np.zeros((2, 2)), 0.05)])
        m = UncertainObsModel(measurement_dist=dist, F=rotation_matrix(300),
                              Rv=2 * np.eye(2), Rw=np.eye(2))
        sm = build_uncertain_obs(m, 0)
        np.testing.assert_allclose(sm.H.mean, 0.95 * H_SIM1, atol=1e-15)
        extra = quad_form(sm.H, np.eye(2))
        np.testing.assert_allclose(extra, 0.0475 * H_SIM1 @ H_SIM1.T,
                                   rtol=1e-12, atol=1e-14)

    def test_identical_samples_have_no_deviation(self):
        dist = MatrixDist.of([(H_SIM1, 1 / 3), (H_SIM1, 1 / 3),
                              (H_SIM1, 1 / 3)])
        sm = build_uncertain_obs(
            UncertainObsModel(measurement_dist=dist, F=np.eye(2),
                              Rv=np.eye(2), Rw=np.eye(2)), 0)
        assert not sm.H.factors.any()


class TestNahi:
    def test_certain_observation_reduces_to_standard_kf(self, rng):
        F, h = rotation_matrix(100), rng.standard_normal((2, 2))
        Rv, Rw = rand_psd(rng, 2, 0.1), rand_psd(rng, 2, 0.5)
        m = NahiModel(h=h, p=1.0, F=F, Rv=Rv, Rw=Rw)
        ic = rand_ic(rng, 2)
        ys = [rng.standard_normal(2) for _ in range(10)]
        got = filter_sequence(lambda k: build_nahi(m, k), ic, ys)
        ref = textbook_kf(F, h, Rv, Rw, ic.mean, ic.cov, ys)
        for g, (rx, rP) in zip(got, ref):
            np.testing.assert_allclose(g.mean, rx, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(g.cov, rP, rtol=1e-12, atol=1e-12)

    def test_pure_noise_observation(self, rng):
        # p = 0: the measurement is informationless; with Rw > 0 the
        # ordinary solve applies, with Rw = 0 the pseudo-inverse path
        h = np.array([[1.0, 0.0]])
        ic = InitialCondition(mean=np.array([1.0, 2.0]), cov=np.eye(2))
        for Rw in (np.array([[1.0]]), np.array([[0.0]])):
            m = NahiModel(h=h, p=0.0, F=np.eye(2), Rv=np.zeros((2, 2)),
                          Rw=Rw)
            got = filter_sequence(lambda k: build_nahi(m, k), ic,
                                  [np.array([3.0])])
            np.testing.assert_array_equal(got[0].mean, ic.mean)
            np.testing.assert_allclose(got[0].cov, ic.cov)

    def test_extra_noise_term_matches_closed_form(self):
        sm = sim1_model()
        np.testing.assert_allclose(quad_form(sm.H, np.eye(2)),
                                   0.0475 * H_SIM1 @ H_SIM1.T,
                                   rtol=1e-12, atol=1e-14)

    def test_equals_general_adapter_bitwise(self):
        dist = MatrixDist.of([(H_SIM1, 0.95), (np.zeros((2, 2)), 1 - 0.95)])
        g = build_uncertain_obs(
            UncertainObsModel(measurement_dist=dist, F=rotation_matrix(300),
                              Rv=2 * np.eye(2), Rw=np.eye(2)), 0)
        n = sim1_model()
        # p h exactly on both routes; Nahi's one block factor against the
        # two-sample distribution's two imply the same covariance tensor
        np.testing.assert_array_equal(n.H.mean, g.H.mean)
        np.testing.assert_allclose(factor_tensor(n.H), factor_tensor(g.H),
                                   rtol=0, atol=1e-15)

    def test_time_varying_probability(self):
        # a p(k) schedule is a provider: one model of its own each step
        m = NahiModel(h=H_SIM1, p=1.0, F=np.eye(2), Rv=np.eye(2),
                      Rw=np.eye(2))
        provider = lambda k: build_nahi(replace(m, p=1.0 / (k + 1)), k)
        np.testing.assert_allclose(provider(0).H.mean, H_SIM1)
        np.testing.assert_allclose(provider(3).H.mean, 0.25 * H_SIM1)

    def test_probability_out_of_range_rejected(self):
        m = NahiModel(h=H_SIM1, p=1.2, F=np.eye(2), Rv=np.eye(2),
                      Rw=np.eye(2))
        with pytest.raises(ValueError, match=r"^block 0: probability 1\.2 "
                           r"outside \[0, 1\]$"):
            build_nahi(m, 0)

    def test_matches_specialized_recursion(self, rng):
        m = NahiModel(h=H_SIM1, p=0.9, F=rotation_matrix(150),
                      Rv=0.5 * np.eye(2), Rw=np.eye(2))
        ic = rand_ic(rng, 2)
        ys = [rng.standard_normal(2) for _ in range(15)]
        got = filter_sequence(lambda k: build_nahi(m, k), ic, ys)
        ref = nahi_reference(H_SIM1, 0.9, rotation_matrix(150),
                             0.5 * np.eye(2), np.eye(2), ic.mean, ic.cov, ys)
        for g, (rx, rP, rX) in zip(got, ref):
            np.testing.assert_allclose(g.mean, rx, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(g.cov, rP, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(g.second_moment, rX, rtol=1e-12,
                                       atol=1e-12)


class TestPartitioned:
    def test_two_scalar_blocks_quad_form(self):
        m = PartitionedObsModel(
            blocks=((np.array([[1.0]]), 0.5), (np.array([[1.0]]), 0.5)),
            F=np.eye(1), Rv=np.eye(1), Rw=np.eye(2))
        sm = build_partitioned(m, 0)
        out = quad_form(sm.H, np.eye(1))
        np.testing.assert_allclose(out, np.diag([0.25, 0.25]), atol=1e-15)

    def test_all_certain_blocks_deterministic(self):
        h1, h2 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        m = PartitionedObsModel(blocks=((h1, 1.0), (h2, 1.0)), F=np.eye(2),
                                Rv=np.eye(2), Rw=np.eye(2))
        sm = build_partitioned(m, 0)
        assert not sm.H.factors.any()
        np.testing.assert_array_equal(sm.H.mean, np.vstack([h1, h2]))

    def test_single_block_equals_nahi(self):
        m1 = PartitionedObsModel(blocks=((H_SIM1, 0.7),),
                                 F=rotation_matrix(300), Rv=np.eye(2),
                                 Rw=np.eye(2))
        m2 = NahiModel(h=H_SIM1, p=0.7, F=rotation_matrix(300), Rv=np.eye(2),
                       Rw=np.eye(2))
        a, b = build_partitioned(m1, 0), build_nahi(m2, 0)
        # both are the one-block BlockDropout of h
        np.testing.assert_array_equal(a.H.mean, b.H.mean)
        np.testing.assert_array_equal(a.H.factors, b.H.factors)

    def test_rw_dimension_mismatch_rejected(self):
        m = PartitionedObsModel(
            blocks=((np.array([[1.0]]), 0.5), (np.array([[1.0]]), 0.5)),
            F=np.eye(1), Rv=np.eye(1), Rw=np.eye(3))
        with pytest.raises(ValueError, match="Rw"):
            build_partitioned(m, 0)


class TestMultiModel:
    def test_single_model_reduces_to_standard_kf(self, rng):
        F = rotation_matrix(120)
        m = MultiModelDynamics(
            transition_dist=MatrixDist.of([(F, 1.0)]), H=H_SIM1,
            Rv=np.eye(2), Rw=np.eye(2))
        ic = rand_ic(rng, 2)
        ys = [rng.standard_normal(2) for _ in range(8)]
        got = filter_sequence(lambda k: build_multimodel(m, k), ic, ys)
        ref = textbook_kf(F, H_SIM1, np.eye(2), np.eye(2), ic.mean, ic.cov,
                          ys)
        for g, (rx, rP) in zip(got, ref):
            np.testing.assert_allclose(g.mean, rx, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(g.cov, rP, rtol=1e-12, atol=1e-12)

    def test_three_rotation_bank_noise_inflation(self):
        # sim2's bank against the mixture-sum oracle over its candidates
        sm = sim2_model()
        np.testing.assert_allclose(quad_form(sm.F, np.eye(2)),
                                   quad_form_discrete(sm.F.source, np.eye(2)),
                                   rtol=1e-12, atol=1e-16)

    def test_two_scalar_models(self):
        dist = MatrixDist.of([(np.array([[2.0]]), 0.5),
                              (np.array([[0.0]]), 0.5)])
        sm = build_multimodel(
            MultiModelDynamics(transition_dist=dist, H=np.eye(1),
                               Rv=np.zeros((1, 1)), Rw=np.eye(1)), 0)
        r_eff = sm.Rv + quad_form(sm.F, np.array([[1.0]]))
        np.testing.assert_allclose(r_eff, [[1.0]], atol=1e-15)


class TestProbabilityLeavingRange:
    """A p(k) schedule is a provider; where p leaves [0, 1] its build
    raises, and the filter and the sampler stop there."""

    @staticmethod
    def providers(p):
        """(provider, its message at p(k) = 1.2): Nahi's one block and
        the second of two partitioned blocks follow p(k)."""
        nahi = NahiModel(h=H_SIM1, p=0.9, F=rotation_matrix(300),
                         Rv=2 * np.eye(2), Rw=np.eye(2))
        part = PartitionedObsModel(
            blocks=((H_SIM1[:1], 0.6), (H_SIM1[1:], 0.9)),
            F=rotation_matrix(300), Rv=2 * np.eye(2), Rw=np.eye(2))
        return (
            (lambda k: build_nahi(replace(nahi, p=p(k)), k),
             "block 0: probability 1.2 outside [0, 1]"),
            (lambda k: build_partitioned(replace(part, blocks=(
                (H_SIM1[:1], 0.6), (H_SIM1[1:], p(k)))), k),
             "block 1: probability 1.2 outside [0, 1]"),
        )

    def test_probability_leaving_range_raises_at_its_step(self, rng):
        def p(k):
            return 1.2 if k == 7 else 0.9

        # filtered and sampled, the provider is called through step 7
        # only, and its own error comes out unchanged
        ic = rand_ic(rng, 2)
        ys = rng.standard_normal((10, 2))
        for provider, message in self.providers(p):
            for run in (partial(filter_sequence, ic=ic, measurements=ys),
                        partial(simulate_truth, ic=ic, K=9, seed=0)):
                calls, raised = [], []

                def spy(k):
                    calls.append(k)
                    try:
                        return provider(k)
                    except ValueError as exc:
                        raised.append(exc)
                        raise

                with pytest.raises(ValueError) as exc:
                    run(spy)
                assert calls == list(range(8))
                assert len(raised) == 1 and raised[0] is exc.value
                assert str(exc.value) == message


class TestScale:
    """About 100 dropout blocks, or a state of about 100, without 2^B work
    or r^4 memory."""

    def test_hundred_dropout_blocks_and_hundred_states(self, rng):
        t0 = time.perf_counter()
        B, r = 100, 4
        m = PartitionedObsModel(
            blocks=tuple((rng.standard_normal((1, r)),
                          float(rng.uniform(0.05, 0.95))) for _ in range(B)),
            F=0.9 * np.linalg.qr(rng.standard_normal((r, r)))[0],
            Rv=np.eye(r), Rw=np.eye(B))
        sm = build_partitioned(m, 0)
        assert sm.H.factors.shape == (B, B, r)
        assert max(a.size for a in model_arrays(sm)) == B * B * r
        states = covariance_recursion(lambda k: sm, rand_ic(rng, r), 50)
        assert len(states) == 51
        X = states[-1].second_moment
        np.testing.assert_allclose(quad_form(sm.H, X),
                                   partitioned_quad_form(m, X), rtol=0,
                                   atol=1e-12 * np.abs(X).max())

        n = 100
        bank = MatrixDist.of([
            (0.9 * np.linalg.qr(rng.standard_normal((n, n)))[0], p)
            for p in (0.1, 0.2, 0.7)])
        sm = build_multimodel(MultiModelDynamics(
            transition_dist=bank, H=rng.standard_normal((2, n)),
            Rv=np.eye(n), Rw=np.eye(2)), 0)
        assert sm.F.factors.shape == (3, n, n)
        assert max(a.size for a in model_arrays(sm)) == 3 * n * n
        X = rand_psd(rng, n)
        mean = sm.F.mean
        expected = sum(p * (M - mean) @ X @ (M - mean).T
                       for p, M in zip(bank.probs, bank.samples))
        np.testing.assert_allclose(quad_form(sm.F, X), expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())
        # typically 0.07 s on 2 vCPUs; OpenBLAS's threaded solve of the
        # 100x100 S has stretched it to 1 s on a busy host
        assert time.perf_counter() - t0 < 5.0
