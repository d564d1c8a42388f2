import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import randkf.filter_core
from conftest import (
    EDGE_PROBS,
    H_SIM1,
    SIM1_IC,
    assert_allclose_rel,
    deterministic_model,
    edge_nahi_models,
    fit_model,
    joseph_recursion,
    mixed_nahi_models,
    rand_dist,
    rand_ic,
    rand_psd,
    rand_random_model,
    sim1_model,
    sim1_provider,
    sim2_model,
    sim2_provider,
    textbook_kf,
)
from lmv_oracle import batch_lmv_oracle, sample_converted_noises
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
from randkf.filter_core import (
    InitialCondition,
    StepModel,
    constant_provider,
    filter_sequence,
    stack_models,
)
from randkf.random_matrix import (
    MatrixDist,
    RandomMatrixSpec,
    deterministic,
    moments_from_dist,
    quad_form,
)
from randkf.sim_harness import (
    _gauss_factor,
    _mv,
    covariance_recursion,
    derive_run_seeds,
    gamma_sweep,
    monte_carlo,
    nees,
    run_filter_on,
    simulate_truth,
)


def switch_at(step, before, after):
    """fit_model(*before) before `step`, fit_model(*after) from it on."""
    return lambda k: fit_model(*(after if k >= step else before))


# {case: (provider, the whole message)}; every run has a 2-D prior
SAMPLER_MISFITS = {
    "state dimension": (switch_at(3, (2, 2, 0), (3, 2, 0)),
                        "model at step 3 has F (3, 3) and H (2, 3); "
                        "the run needs F (2, 2) and H (2, 2)"),
    "measurement rows": (switch_at(3, (2, 2, 0), (2, 1, 0)),
                         "model at step 3 has F (2, 2) and H (1, 2); "
                         "the run needs F (2, 2) and H (2, 2)"),
    "step 0 against the prior": (constant_provider(fit_model(3, 2, 0)),
                                 "model at step 0 has F (3, 3) and H (2, 3); "
                                 "the run needs F (2, 2) and H (2, 2)"),
    "deterministic stack": (constant_provider(fit_model(2, 2, 3)),
                            "model at step 0 has F (3, 2, 2) and H (3, 2, 2); "
                            "the run needs F (2, 2) and H (2, 2)"),
    "nahi stack": (constant_provider(stack_models(edge_nahi_models())),
                   "model at step 0 has F (5, 2, 2) and H (5, 2, 2); "
                   "the run needs F (2, 2) and H (2, 2)"),
}


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

    def test_random_spec_without_source_rejected(self):
        # moments alone do not say how to draw the matrix; drawing its
        # mean would drop randomness that the filter accounts for
        random = RandomMatrixSpec(mean=np.ones((1, 1)),
                                  factors=np.full((1, 1, 1), 0.5))
        fixed = deterministic(np.ones((1, 1)))
        ic = InitialCondition(mean=np.zeros(1), cov=np.eye(1))
        for F, H, name in ((fixed, random, "H"), (random, fixed, "F")):
            prov = constant_provider(StepModel(F=F, H=H, Rv=np.eye(1),
                                               Rw=np.eye(1)))
            with pytest.raises(ValueError, match=f"{name} at step 0 is "
                               "random but has no source"):
                simulate_truth(prov, ic, 12, seed=0)

    @pytest.mark.parametrize("case", SAMPLER_MISFITS)
    def test_model_that_does_not_fit_the_run_names_its_step(self, rng, case):
        # the filter's shape rule: F (r, r) and H (N, r), with the prior's
        # r and step 0's N, and no model axes
        provider, message = SAMPLER_MISFITS[case]
        with pytest.raises(ValueError) as exc:
            simulate_truth(provider, rand_ic(rng, 2), 5,
                           derive_run_seeds(1, 2))
        assert str(exc.value) == message

    def test_rejects_no_steps(self):
        with pytest.raises(ValueError, match="^need K >= 1$"):
            simulate_truth(sim1_provider(), SIM1_IC, 0, seed=0)

    def test_noise_free_rotation_preserves_radius(self):
        m = NahiModel(h=H_SIM1, p=1.0, F=rotation_matrix(300),
                      Rv=np.zeros((2, 2)), Rw=np.zeros((2, 2)))
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

    def test_seed_list_equals_stacked_single_seeds(self):
        # time-varying arrival probability: a model of its own each step
        m3 = NahiModel(h=H_SIM1, p=0.5, F=rotation_matrix(300),
                       Rv=2 * np.eye(2), Rw=np.eye(2))
        varying = lambda k: build_nahi(replace(m3, p=0.5 + 0.1 * (k % 4)), k)
        seeds = derive_run_seeds(13, 5)
        for prov in (sim1_provider(), lambda k: sim2_model(), varying):
            batched = simulate_truth(prov, SIM1_IC, 40, seeds)
            for i, s in enumerate(seeds):
                one = simulate_truth(prov, SIM1_IC, 40, s)
                for field in ("states", "measurements"):
                    np.testing.assert_array_equal(
                        getattr(batched, field)[i], getattr(one, field))

    def test_partitioned_draws_whole_blocks(self):
        # noise-free measurements: each block's rows are h_i x (present)
        # or zero (absent), independently, at its own rate; a seed list
        # equals single seeds
        hs = (np.array([[1.0, 2.0]]), np.array([[3.0, 4.0], [5.0, 6.0]]))
        m = PartitionedObsModel(blocks=((hs[0], 0.3), (hs[1], 0.8)),
                                F=0.9 * np.eye(2), Rv=np.eye(2),
                                Rw=np.zeros((3, 3)))
        prov = lambda k: build_partitioned(m, k)
        seeds = derive_run_seeds(4, 50)
        traj = simulate_truth(prov, SIM1_IC, 200, seeds)
        ys = traj.measurements

        def present_absent(h, rows):
            hx = np.einsum("ij,...j->...i", h, traj.states)
            on = np.isclose(ys[..., rows], hx, rtol=1e-12, atol=0).all(-1)
            return on, (ys[..., rows] == 0).all(-1)

        (on1, off1), (on2, off2) = (present_absent(hs[0], slice(0, 1)),
                                    present_absent(hs[1], slice(1, 3)))
        assert np.all(on1 != off1) and np.all(on2 != off2)
        se = 0.5 / np.sqrt(on1.size)
        for freq, p in ((on1.mean(), 0.3), (on2.mean(), 0.8),
                        ((on1 & on2).mean(), 0.24)):
            assert abs(freq - p) < 5 * se
        for i in (0, 17):
            one = simulate_truth(prov, SIM1_IC, 200, seeds[i])
            np.testing.assert_array_equal(one.states, traj.states[i])
            np.testing.assert_array_equal(one.measurements,
                                          traj.measurements[i])

    def test_shapes_consistent(self, rng):
        prov = constant_provider(rand_random_model(rng, 3, 2))
        traj = simulate_truth(prov, rand_ic(rng, 3), 7, seed=5)
        assert traj.states.shape == (8, 3)
        assert traj.measurements.shape == (8, 2)

    @pytest.mark.parametrize("kind", ["nahi", "partitioned", "multimodel"])
    def test_fresh_equal_model_each_step_draws_as_one_model(self, kind):
        # draws depend on the step only, not on which steps share a model
        # object: a new, equal model every step, two equal models
        # alternating (a span per step), and two served A A B B ... (spans
        # of two steps, each reading its uniforms from inside u), sample
        # the same bits
        build, m = {
            "nahi": (build_nahi, NahiModel(
                h=H_SIM1, p=0.7, F=rotation_matrix(300), Rv=2 * np.eye(2),
                Rw=np.eye(2))),
            "partitioned": (build_partitioned, PartitionedObsModel(
                blocks=((H_SIM1[:1], 0.3), (H_SIM1[1:], 0.8)),
                F=0.9 * np.eye(2), Rv=np.eye(2), Rw=np.eye(2))),
            "multimodel": (build_multimodel, MultiModelDynamics(
                transition_dist=MatrixDist.of([(rotation_matrix(300), 0.1),
                                               (rotation_matrix(100), 0.9)]),
                H=H_SIM1, Rv=2 * np.eye(2), Rw=np.eye(2))),
        }[kind]
        seeds = derive_run_seeds(21, 6)
        shared = simulate_truth(constant_provider(build(m, 0)), SIM1_IC, 30,
                                seeds)
        fresh = simulate_truth(lambda k: build(m, k), SIM1_IC, 30, seeds)
        two = (build(m, 0), build(m, 0))
        alternating = simulate_truth(lambda k: two[k % 2], SIM1_IC, 30,
                                     seeds)
        pairs = simulate_truth(lambda k: two[k // 2 % 2], SIM1_IC, 30, seeds)
        for traj in (fresh, alternating, pairs):
            np.testing.assert_array_equal(traj.states, shared.states)
            np.testing.assert_array_equal(traj.measurements,
                                          shared.measurements)

    def test_each_step_takes_its_own_noise_factors(self, rng):
        # two models with different Rv and Rw alternate (as many groups
        # as state dimensions); each noise takes its own step's factor,
        # bit for bit as a factorization of that covariance alone.  With
        # deterministic F and H a run draws no uniforms, then the normals
        # of x_0, w_0..w_K and v_0..v_{K-1}.
        F, H = rotation_matrix(300), H_SIM1
        models = [deterministic_model(F, H, 2 * np.eye(2), np.eye(2)),
                  deterministic_model(F, H, rand_psd(rng, 2),
                                      rand_psd(rng, 2, floor=0.1))]
        K, seed = 9, 5
        traj = simulate_truth(lambda k: models[k % 2], SIM1_IC, K, seed)
        z = np.random.default_rng(seed).standard_normal(2 + 4 * K + 2)
        z0, zw, zv = z[:2], z[2:2 * K + 4], z[2 * K + 4:]
        x = SIM1_IC.mean + _mv(_gauss_factor(SIM1_IC.cov), z0)
        for k in range(K + 1):
            m, now = models[k % 2], slice(2 * k, 2 * k + 2)
            np.testing.assert_array_equal(traj.states[k], x)
            np.testing.assert_array_equal(
                traj.measurements[k],
                _mv(H, x) + _mv(_gauss_factor(m.Rw), zw[now]))
            if k < K:
                x = _mv(F, x) + _mv(_gauss_factor(m.Rv), zv[now])


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


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("runs", [0, 1, 15])
def test_run_axis_arrays_are_step_major(runs, stacked):
    # each step's runs are one contiguous block behind the documented
    # ([models,] [runs,] K+1, .) shapes
    K, gammas = 12, (0.5, 0.95)
    m = (stack_models([sim1_model(g) for g in gammas]) if stacked
         else sim1_model())
    lead = (len(gammas),) if stacked else ()
    traj = simulate_truth(sim1_provider(), SIM1_IC, K,
                          derive_run_seeds(3, runs))
    rec = filter_sequence(constant_provider(m), SIM1_IC, traj.measurements)
    assert traj.states.shape == traj.measurements.shape == (runs, K + 1, 2)
    assert rec.mean.shape == lead + (runs, K + 1, 2)
    for k in (0, 5, K):
        assert traj.states[:, k].flags.c_contiguous
        assert traj.measurements[:, k].flags.c_contiguous
        assert rec[k].mean.flags.c_contiguous
        assert rec[k].mean.shape == lead + (runs, 2)


def r30_system(random: str):
    """A seeded system at r = N = 30 whose F or H (``random``) is drawn
    from a finite distribution; the other is a dense fixed matrix."""
    rng, r = np.random.default_rng(30), 30
    F, H = (moments_from_dist(rand_dist(rng, r, r, scale=0.5 / r ** 0.5))
            if name == random
            else deterministic(0.5 / r ** 0.5 * rng.standard_normal((r, r)))
            for name in "FH")
    m = StepModel(F=F, H=H, Rv=rand_psd(rng, r, floor=0.1),
                  Rw=rand_psd(rng, r, floor=0.5))
    return constant_provider(m), rand_ic(rng, r)


PREFIX_SYSTEMS = {
    "sim1": lambda: (sim1_provider(), SIM1_IC),
    "sim2": lambda: (sim2_provider(), SIM1_IC),
    "r30 random H": lambda: r30_system("H"),
    "r30 random F": lambda: r30_system("F"),
}


@pytest.mark.parametrize("system", PREFIX_SYSTEMS)
def test_run_prefix_is_bit_stable(system):
    # the first n runs of a call with more runs are the n-run call's, bit
    # for bit: in the sampler from one run on, in the filter from two (a
    # single run's mean takes another BLAS kernel; see
    # test_batched_filter_matches_per_run_calls).  The filter's holds at
    # these sizes: OpenBLAS picks its gemm kernel by row count, and at
    # r = N = 100 the means of the first 2 to 65 runs of a 200-run call
    # differ from an n-run call's in the last bits
    provider, ic = PREFIX_SYSTEMS[system]()
    K, seeds = 60, derive_run_seeds(5, 200)
    one = [simulate_truth(provider, ic, K, s) for s in seeds[:65]]
    for n in (1, 3, 64, 65):
        traj = simulate_truth(provider, ic, K, seeds[:n])
        for i in range(n):
            np.testing.assert_array_equal(traj.states[i], one[i].states)
            np.testing.assert_array_equal(traj.measurements[i],
                                          one[i].measurements)
    ys = simulate_truth(provider, ic, K, seeds).measurements
    full = filter_sequence(provider, ic, ys).mean
    for n in (2, 3, 64, 65, 130):
        np.testing.assert_array_equal(
            filter_sequence(provider, ic, ys[:n]).mean, full[:n])


class TestMonteCarlo:
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

    def test_rejects_no_runs(self):
        with pytest.raises(ValueError, match="^need runs >= 1$"):
            monte_carlo(sim1_provider(), SIM1_IC, 5, 0, 7)

    def test_metrics_finite_on_tracking_config(self):
        metrics = monte_carlo(sim1_provider(), SIM1_IC, 50, 5, 123)
        assert np.all(np.isfinite(metrics.per_step_sq_error))
        assert np.all(metrics.per_step_sq_error >= 0)

    def test_random_transition_memory_is_linear_in_steps(self):
        # a three-model bank at r = 30, 100 runs x 300 steps: realizing F
        # one step at a time keeps the peak at a few (runs, K+1, r) arrays
        # (7.2 MB each; 35.5 MB measured), where keeping every run's
        # realized F, (runs, K, r, r), took 216 MB alone (266 MB peak)
        r, runs, K = 30, 100, 300
        rng = np.random.default_rng(30)
        bank = MatrixDist.of(
            [(0.95 * np.linalg.qr(rng.standard_normal((r, r)))[0], p)
             for p in (0.1, 0.2, 0.7)])
        m = build_multimodel(MultiModelDynamics(
            transition_dist=bank, H=rng.standard_normal((2, r)),
            Rv=0.3 * np.eye(r), Rw=np.eye(2)), 0)
        ic = InitialCondition(mean=np.ones(r), cov=np.eye(r))
        tracemalloc.start()
        try:
            metrics = monte_carlo(constant_provider(m), ic, K, runs, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(metrics.per_step_nees))
        assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"


def test_sampled_errors_have_the_filter_covariance():
    # P_k is the unconditional error covariance E[e_k e_k^T] of the LMV
    # filter, whatever the distribution: over 5,000 sampled runs, the mean
    # of e e^T lies within 5 standard errors of P_k at every step and
    # entry, for a sampler of each kind; truth drawn without H's
    # randomness, filtered as random, must fail that bound
    F, Rv = 0.95 * rotation_matrix(20), 0.3 * np.eye(2)
    h3 = np.array([[1.0, 0.5], [0.0, 1.0], [1.0, -1.0]])
    models = {
        "nahi": build_nahi(NahiModel(h=H_SIM1, p=0.6, F=F, Rv=Rv,
                                     Rw=np.eye(2)), 0),
        "partitioned": build_partitioned(PartitionedObsModel(
            blocks=((h3[:1], 0.3), (h3[1:2], 0.6), (h3[2:], 0.9)), F=F,
            Rv=Rv, Rw=np.eye(3)), 0),
        "general": build_uncertain_obs(UncertainObsModel(
            measurement_dist=MatrixDist.of([(H_SIM1, 0.5), (np.eye(2), 0.3),
                                            (np.zeros((2, 2)), 0.2)]),
            F=F, Rv=Rv, Rw=np.eye(2)), 0),
        "multimodel": build_multimodel(MultiModelDynamics(
            transition_dist=MatrixDist.of([(F, 0.5), (0.5 * np.eye(2), 0.3),
                                           (rotation_matrix(5), 0.2)]),
            H=H_SIM1, Rv=Rv, Rw=np.eye(2)), 0),
    }
    ic = InitialCondition(mean=[2.0, -1.0], cov=0.5 * np.eye(2))
    seeds = derive_run_seeds(1717, 5000)

    def largest_z(truth, filtered):
        traj = simulate_truth(constant_provider(truth), ic, 10, seeds)
        rec, _, _ = run_filter_on(traj, constant_provider(filtered), ic)
        e = rec.mean - traj.states
        ee = e[..., :, None] * e[..., None, :]
        se = ee.std(axis=0, ddof=1) / np.sqrt(len(seeds))
        return np.abs((ee.mean(axis=0) - rec.cov) / se).max()

    for kind, m in models.items():
        z = largest_z(m, m)
        assert z < 5, f"{kind}: |z| = {z:.1f} over 5 standard errors"
    m = models["partitioned"]
    fixed_h = StepModel(F=m.F, H=deterministic(m.H.mean), Rv=m.Rv, Rw=m.Rw)
    assert largest_z(fixed_h, m) > 5


class TestBatchOracle:
    def test_deterministic_matches_textbook(self, rng):
        F, H = rotation_matrix(40), rng.standard_normal((2, 2))
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
        prov = sim2_provider()
        ys = [rng.standard_normal(2) * 30 for _ in range(4)]
        mean, cov = batch_lmv_oracle(prov, SIM1_IC, ys)
        rec = filter_sequence(prov, SIM1_IC, ys)[-1]
        assert_allclose_rel(rec.mean, mean, 1e-9)
        assert_allclose_rel(rec.cov, cov, 1e-9)

    def test_rejects_long_horizon(self, rng):
        prov = constant_provider(rand_random_model(rng, 2, 2))
        ys = [np.zeros(2)] * 9
        with pytest.raises(ValueError, match="horizon"):
            batch_lmv_oracle(prov, rand_ic(rng, 2), ys)


class TestGammaSweep:
    def test_full_information_has_smallest_trace(self):
        res = gamma_sweep(sim1_model, SIM1_IC, [0.5, 0.8, 1.0], K=60)
        traces = [t for _, t in res]
        assert traces[-1] == min(traces)

    def test_strictly_decreasing_on_tracking_model(self):
        res = gamma_sweep(sim1_model, SIM1_IC,
                          [0.5, 0.7, 0.9, 0.95, 1.0], K=300)
        traces = [t for _, t in res]
        assert all(a > b for a, b in zip(traces, traces[1:]))

    def test_equal_gammas_equal_traces(self):
        res = gamma_sweep(sim1_model, SIM1_IC, [0.7, 0.7], K=30)
        assert res[0][1] == res[1][1]

    def test_out_of_range_gamma_fails_in_the_builder(self):
        with pytest.raises(ValueError, match=r"^block 0: probability 1\.5 "
                           r"outside \[0, 1\]$"):
            gamma_sweep(sim1_model, SIM1_IC, [0.5, 1.5], K=5)

    def test_matches_one_recursion_per_gamma(self):
        # rows come out in the order given; gamma = 0 is a valid
        # probability; each trace is that of the gamma's own recursion as
        # a one-member stack, the sweep's route
        gammas = [0.8, 0.3, 0.0, 1.0, 0.5, 0.5]
        res = gamma_sweep(sim1_model, SIM1_IC, gammas, K=40)
        for (g, t), gamma in zip(res, gammas, strict=True):
            one = stack_models([sim1_model(gamma)])
            own = covariance_recursion(constant_provider(one), SIM1_IC, 40)
            assert g == gamma and t == float(np.trace(own[-1].cov[0]))


def ill_conditioned(S):
    w = np.linalg.eigvalsh(S)
    with np.errstate(divide="ignore", invalid="ignore"):
        return ~((w[..., 0] > 0)
                 & (w[..., -1] / w[..., 0] < randkf.filter_core.COND_LIMIT))


def test_stacked_recursion_equals_each_member_bit_for_bit(monkeypatch):
    # the edge members (singular Rw; at p = 0 a singular S) take the
    # pseudo-inverse at every step while their Rw = I twins are solved
    # in one batch; each member is its own run as a one-member stack
    gains = []
    real = randkf.filter_core._gain
    monkeypatch.setattr(randkf.filter_core, "_gain",
                        lambda HP, S, good: gains.append((S, good))
                        or real(HP, S, good))
    K, members = 2000, mixed_nahi_models()
    stacked = stack_models(members)
    states = covariance_recursion(lambda k: stacked, SIM1_IC, K)
    assert len(gains) == K + 1
    for S, good in gains:
        assert good.any() and not good.all()
        assert ill_conditioned(S).any()
    M = len(members)
    for i, m in enumerate(members):
        own = covariance_recursion(constant_provider(stack_models([m])),
                                   SIM1_IC, K)
        for s, o in zip(states, own, strict=True):
            assert s.cov.shape == (M, 2, 2)
            np.testing.assert_array_equal(s.cov[i], o.cov[0])
            np.testing.assert_array_equal(s.second_moment[i],
                                          o.second_moment[0])


def test_gain_skips_eigvalsh_where_rw_certifies_the_solve(monkeypatch):
    # S >= Rw bounds cond(S) by tr(S) / lambda_min(Rw): the gain never
    # reads S's eigenvalues, and it decomposes S only where that bound
    # certifies no solve: never for sim1 and its gamma stack, at every
    # step for the stack with a singular Rw
    calls = {"eigvalsh": [], "eigh": []}
    sim1 = [sim1_model(g) for g in (0.5, 0.7, 0.9, 0.95, 1.0)]
    edge_stack = stack_models(edge_nahi_models())
    sim1_stack = stack_models(sim1)
    for name, seen in calls.items():
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda S, real=real, seen=seen:
                            seen.append(S) or real(S))
    for m in (sim1[3], sim1_stack):
        covariance_recursion(constant_provider(m), SIM1_IC, 300)
        assert calls == {"eigvalsh": [], "eigh": []}
    covariance_recursion(constant_provider(edge_stack), SIM1_IC, 300)
    assert calls["eigvalsh"] == [] and len(calls["eigh"]) == 301


def test_stacked_prior_carries_the_model_axis():
    M = len(EDGE_PROBS)
    stacked = stack_models(edge_nahi_models())
    states = covariance_recursion(lambda k: stacked, SIM1_IC, 3)
    for s in states:
        assert s.cov.shape == s.second_moment.shape == (M, 2, 2)


@pytest.mark.parametrize("stacked", [False, True])
def test_covariance_recursion_record_shapes(stacked):
    # no runs: an empty mean array, and P and X of every step
    members = edge_nahi_models()
    m = stack_models(members) if stacked else members[0]
    lead = (len(members),) if stacked else ()
    rec = covariance_recursion(lambda k: m, SIM1_IC, 7)
    assert rec.mean.shape == lead + (0, 8, 2)
    assert rec.cov.shape == rec.second_moment.shape == (8,) + lead + (2, 2)
    assert len(rec) == 8 and rec[-1].cov.shape == lead + (2, 2)


def test_long_horizon_covariances_stay_symmetric_psd():
    """P, X and S over 10^4 stacked steps, p at and next to 0 and 1."""
    K, M = 10_000, len(EDGE_PROBS)
    st = stack_models(edge_nahi_models())
    plain = covariance_recursion(lambda k: st, SIM1_IC, K)
    P = np.array([s.cov for s in plain])
    X = np.array([s.second_moment for s in plain])
    # each step's predicted P (the prior at step 0), and its S
    Fbar, Hbar = st.F.mean, st.H.mean
    P_pred = np.concatenate([
        np.broadcast_to(SIM1_IC.cov, (1, M, 2, 2)),
        Fbar @ P[:-1] @ Fbar.mT + st.Rv + quad_form(st.F, X[:-1])])
    S = Hbar @ P_pred @ Hbar.mT + st.Rw + quad_form(st.H, X)
    # tolerance fixed from the dtype, relative to each matrix's size
    tol = 100 * np.finfo(P.dtype).eps
    for name, A in (("P", P), ("X", X), ("S", S)):
        scale = np.abs(A).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(A - A.mT) <= tol * scale), name
        w = np.linalg.eigvalsh(0.5 * (A + A.mT))
        assert np.all(w[..., 0] >= -tol * scale[..., 0, 0]), name
    Pj, Xj = joseph_recursion(st, SIM1_IC, K)
    np.testing.assert_allclose(Pj, P, rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(Xj, X, rtol=1e-9, atol=1e-10)


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
