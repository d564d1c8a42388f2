import importlib

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import randkf.filter_core
from conftest import (
    REPO,
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
    textbook_kf,
)
from randkf.config import parse_config, rotation_matrix
from randkf.filter_core import (
    COND_LIMIT,
    InitialCondition,
    StepModel,
    _gain,
    constant_provider,
    filter_sequence,
    predict,
    second_moments,
    stack_models,
    symmetrize,
    update,
)
from randkf.random_matrix import (
    MatrixDist,
    deterministic,
    moments_from_dist,
    quad_form,
)
from randkf.sim_harness import (
    covariance_recursion,
    derive_run_seeds,
    run_filter_on,
    simulate_truth,
)


def scalar_spec(mean, var):
    """1x1 random matrix spec with given mean and deviation variance."""
    from randkf.random_matrix import RandomMatrixSpec
    return RandomMatrixSpec(mean=np.array([[mean]]),
                            factors=np.full((1, 1, 1), np.sqrt(var)))


def two_steps(mean, P, at: int) -> tuple[np.ndarray, np.ndarray]:
    """Step-major arrays of two steps whose step ``at`` holds ``mean``
    and ``P``, the other step NaN, for predict or update to work on."""
    means = np.full((2,) + np.shape(mean), np.nan)
    Ps = np.full((2,) + np.shape(P), np.nan)
    means[at], Ps[at] = mean, P
    return means, Ps


def updated(mean, P, X, y, m: StepModel) -> tuple[np.ndarray, np.ndarray]:
    """Step 1's mean and P after update at the effective measurement
    noise of X; the inputs are left as they are."""
    means, Ps = two_steps(mean, P, at=1)
    update(means, Ps, 1, y, m, m.Rw + quad_form(m.H, X))
    return means[1], Ps[1]


def x0(ic: InitialCondition) -> np.ndarray:
    """X_0 as second_moments records it for the prior ``ic``."""
    eye = np.eye(ic.mean.size)
    return second_moments([deterministic_model(eye, eye, eye, eye)], ic)[0][0]


class TestInit:
    def test_second_moment_from_tracking_prior(self):
        np.testing.assert_allclose(
            x0(SIM1_IC), [[2500.5, 0.0], [0.0, 0.5]], rtol=0, atol=0)

    def test_zero_mean_identity_cov(self):
        X = x0(InitialCondition(mean=np.zeros(3), cov=np.eye(3)))
        np.testing.assert_array_equal(X, np.eye(3))

    def test_zero_cov_gives_outer_product(self):
        mu = np.array([1.0, 2.0])
        X = x0(InitialCondition(mean=mu, cov=np.zeros((2, 2))))
        np.testing.assert_array_equal(X, np.outer(mu, mu))

    def test_rejects_indefinite_cov(self):
        with pytest.raises(ValueError, match="semidefinite"):
            InitialCondition(mean=np.zeros(2),
                             cov=np.array([[1.0, 0.0], [0.0, -1.0]]))


NAN_EYE = np.array([[1.0, 0.0], [0.0, np.nan]])


@pytest.mark.parametrize("name", ["initial mean", "initial covariance",
                                  "Rv", "Rw"])
def test_non_finite_prior_or_noise_rejected(name):
    make = {
        "initial mean": lambda: InitialCondition(
            mean=np.array([0.0, np.inf]), cov=np.eye(2)),
        "initial covariance": lambda: InitialCondition(
            mean=np.zeros(2), cov=NAN_EYE),
        "Rv": lambda: deterministic_model(np.eye(2), np.eye(2), NAN_EYE,
                                          np.eye(2)),
        "Rw": lambda: deterministic_model(np.eye(2), np.eye(2), np.eye(2),
                                          NAN_EYE),
    }[name]
    fields = {"initial mean": "mean", "initial covariance": "cov"}
    with pytest.raises(ValueError,
                       match=f"^{fields.get(name, name)} is not finite$"):
        make()


def test_step_model_noise_covariances_read_only():
    m = deterministic_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    for a in (m.Rv, m.Rw):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 5.0


# {case: (F, H, Rv, the whole message)}, each with Rw = I (2)
BAD_STEP_MODELS = {
    "F not square": (np.ones((2, 3)), np.eye(2), np.eye(2),
                     "F must be square"),
    "H columns": (np.eye(2), np.ones((2, 3)), np.eye(2),
                  "H column count must match state dimension"),
    "Rv not square": (np.eye(2), np.eye(2), np.ones((2, 3)),
                      "Rv is not square: (2, 3)"),
}


@pytest.mark.parametrize("case", BAD_STEP_MODELS)
def test_step_model_of_mismatched_shapes_rejected(case):
    *arrays, message = BAD_STEP_MODELS[case]
    with pytest.raises(ValueError) as exc:
        deterministic_model(*arrays, np.eye(2))
    assert str(exc.value) == message


def test_initial_condition_keeps_read_only_copies():
    mean, cov = np.array([50.0, 0.0]), 0.5 * np.eye(2)
    ic = InitialCondition(mean=mean, cov=cov)
    mean[0] = cov[0, 0] = 99.0
    np.testing.assert_array_equal(ic.mean, [50.0, 0.0])
    np.testing.assert_array_equal(ic.cov, 0.5 * np.eye(2))
    for a in (ic.mean, ic.cov):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7.0


class TestPredict:
    def test_identity_dynamics_noise_free(self, rng):
        m = deterministic_model(np.eye(2), np.eye(2), np.zeros((2, 2)),
                                np.eye(2))
        ic = InitialCondition(mean=rng.standard_normal(2),
                              cov=rand_psd(rng, 2))
        X, Rv_eff, _ = second_moments([m, m], ic)
        mean, P = two_steps(ic.mean, ic.cov, at=0)
        predict(mean, P, 1, m, Rv_eff[0])
        np.testing.assert_allclose(mean[1], ic.mean, atol=1e-15)
        np.testing.assert_allclose(P[1], ic.cov, atol=1e-14)
        np.testing.assert_allclose(X[1], X[0], atol=1e-12)

    def test_scalar_hand_evaluated(self):
        # mean 1, cov 1, X 2; F mean 1 with deviation variance 1, Rv 0:
        # Rv_eff = 0 + 1*2*1 = 2, cov' = 1*1*1 + 2 = 3, X' = 1*2*1 + 2 = 4
        m = StepModel(F=scalar_spec(1.0, 1.0), H=deterministic([[1.0]]),
                      Rv=np.zeros((1, 1)), Rw=np.eye(1))
        ic = InitialCondition(mean=[1.0], cov=[[1.0]])
        X, Rv_eff, _ = second_moments([m, m], ic)
        np.testing.assert_allclose(X[0], [[2.0]])
        np.testing.assert_allclose(Rv_eff[0], [[2.0]])
        mean, P = two_steps(ic.mean, ic.cov, at=0)
        predict(mean, P, 1, m, Rv_eff[0])
        np.testing.assert_allclose(mean[1], [1.0])
        np.testing.assert_allclose(P[1], [[3.0]])
        np.testing.assert_allclose(X[1], [[4.0]])

    def test_rotation_preserves_scaled_identity(self):
        m = deterministic_model(rotation_matrix(300), np.eye(2),
                                2.0 * np.eye(2), np.eye(2))
        mean, P = two_steps(np.zeros(2), 0.5 * np.eye(2), at=0)
        # a deterministic F adds no noise: Rv_eff is Rv
        predict(mean, P, 1, m, m.Rv)
        np.testing.assert_allclose(P[1], 2.5 * np.eye(2), atol=1e-14)


class TestUpdate:
    def test_zero_innovation_keeps_mean(self, rng):
        m = rand_random_model(rng, 2, 2)
        mean = rng.standard_normal(2)
        got, _ = updated(mean, rand_psd(rng, 2, floor=0.1),
                         rand_psd(rng, 2, floor=0.5), m.H.mean @ mean, m)
        np.testing.assert_allclose(got, mean, atol=1e-12)

    def test_scalar_hand_evaluated(self):
        m = deterministic_model([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        mean, P = updated([0.0], [[1.0]], [[1.0]], np.array([1.0]), m)
        np.testing.assert_allclose(mean, [0.5])
        np.testing.assert_allclose(P, [[0.5]])

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
        # update sees X only through the effective measurement noise; the
        # X it was built from, and the X a run records, do not move with
        # the measurements while the means do
        m = rand_random_model(rng, 2, 2)
        X = rand_psd(rng, 2, 1.0)
        X_before = X.copy()
        updated(np.zeros(2), np.eye(2), X, rng.standard_normal(2), m)
        np.testing.assert_array_equal(X, X_before)
        ic = rand_ic(rng, 2)
        a, b = (filter_sequence(constant_provider(m), ic,
                                rng.standard_normal((3, 6, 2)))
                for _ in range(2))
        np.testing.assert_array_equal(a.second_moment, b.second_moment)
        assert not np.allclose(a.mean, b.mean)

    def test_singular_innovation_uses_pseudo_inverse(self):
        # informationless measurement with zero noise: gain collapses to 0
        m = StepModel(F=deterministic(np.eye(2)),
                      H=deterministic(np.zeros((1, 2))),
                      Rv=np.zeros((2, 2)), Rw=np.zeros((1, 1)))
        mean, P = updated([1.0, 2.0], np.eye(2), 2 * np.eye(2),
                          np.array([0.3]), m)
        np.testing.assert_array_equal(mean, [1.0, 2.0])
        np.testing.assert_allclose(P, np.eye(2))


class TestStep:
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
        P, _ = joseph_recursion(m, ic, len(ys) - 1)
        np.testing.assert_allclose(plain.cov, P, rtol=1e-9, atol=1e-10)


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


def doubled(Fbar, Rv, X0, K) -> np.ndarray:
    """X_0..X_K of X' = sym(Fbar X Fbar^T + Rv) by doubling, one step at
    a time: X_k = sym(Phi_n X_{k-n} Phi_n^T + Q_n) for the largest power
    of two n <= k, with Phi_1 = Fbar, Q_1 = Rv, Phi_2n = Phi_n Phi_n and
    Q_2n = sym(Phi_n Q_n Phi_n^T + Q_n)."""
    Phi, Q, X = {1: Fbar}, {1: Rv}, [X0]
    for k in range(1, K + 1):
        n = 1 << (k.bit_length() - 1)
        if n not in Phi:
            h = n // 2
            Q[n] = symmetrize(Phi[h] @ Q[h] @ Phi[h].mT + Q[h])
            Phi[n] = Phi[h] @ Phi[h]
        X.append(symmetrize(Phi[n] @ X[k - n] @ Phi[n].mT + Q[n]))
    return np.stack(X)


@pytest.mark.parametrize("stacked", [False, True])
def test_record_equals_hand_loop_bit_for_bit(rng, stacked):
    # filter_sequence's arrays against predict/update run by hand on new
    # step-major arrays of the record's shapes (the prior broadcast over
    # the run and model axes), with X by ``doubled`` from X_0 = mu mu^T
    # + P_0 (every member's F is deterministic) and Rw_eff = Rw + E(H~ X
    # H~^T) at that X; the stacked models take both gain paths at every
    # step
    runs, K = 3, 25
    members = mixed_nahi_models()
    m = stack_models(members) if stacked else members[4]
    ic = rand_ic(rng, 2)
    ys = 3 * rng.standard_normal((runs, K + 1, 2))
    lead = (len(members),) if stacked else ()
    rec = filter_sequence(lambda k: m, ic, ys)
    X = doubled(m.F.mean, m.Rv,
                np.tile(np.outer(ic.mean, ic.mean) + ic.cov, lead + (1, 1)), K)
    mean = np.empty((K + 1,) + lead + (runs, 2))
    P = np.empty((K + 1,) + lead + (2, 2))
    mean[0], P[0] = ic.mean, ic.cov
    update(mean, P, 0, ys[:, 0], m, m.Rw + quad_form(m.H, X[0]))
    for k in range(1, K + 1):
        predict(mean, P, k, m, m.Rv)
        update(mean, P, k, ys[:, k], m, m.Rw + quad_form(m.H, X[k]))
    assert rec.mean.shape == lead + (runs, K + 1, 2)
    assert rec.cov.shape == rec.second_moment.shape == (K + 1,) + lead + (2, 2)
    assert len(rec) == K + 1 and rec[-1].step == K
    with pytest.raises(TypeError):
        rec[1:]
    np.testing.assert_array_equal(rec.mean, np.moveaxis(mean, 0, -2))
    np.testing.assert_array_equal(rec.cov, P)
    np.testing.assert_array_equal(rec.second_moment, X)
    assert [s.step for s in rec] == list(range(K + 1))
    for s in rec:
        np.testing.assert_array_equal(s.mean, mean[s.step])
        np.testing.assert_array_equal(s.cov, P[s.step])
        np.testing.assert_array_equal(s.second_moment, X[s.step])


def orthogonal(rng, r) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((r, r)))[0]


# Fbar with spectral radius below, at and above 1 (sim1's rotation)
DOUBLING_FBARS = {
    "rho < 1": lambda rng: 0.7 * orthogonal(rng, 3),
    "rho = 1": lambda rng: sim1_model().F.mean,
    "rho > 1": lambda rng: 1.02 * orthogonal(rng, 3),
}


@pytest.mark.parametrize("case", DOUBLING_FBARS)
def test_doubling_tracks_the_stepwise_map_and_is_prefix_stable(rng, case):
    # X of a deterministic F by doubling against the textbook map X' =
    # sym(Fbar X Fbar^T + Rv), one step at a time, relative to each
    # step's X; a shorter horizon records the longer one's first steps
    # bit for bit
    Fbar = DOUBLING_FBARS[case](rng)
    r, K = len(Fbar), 3000
    m = deterministic_model(Fbar, np.eye(r), rand_psd(rng, r, floor=0.1),
                            np.eye(r))
    ic = rand_ic(rng, r)
    X = second_moments([m] * (K + 1), ic)[0]
    ref = [X[0]]
    for _ in range(K):
        ref.append(symmetrize(Fbar @ ref[-1] @ Fbar.T + m.Rv))
    ref = np.stack(ref)
    err = np.abs(X - ref).max(axis=(1, 2))
    assert (err <= 1e-12 * np.abs(ref).max(axis=(1, 2))).all()
    np.testing.assert_array_equal(second_moments([m] * 101, ic)[0],
                                  second_moments([m] * 301, ic)[0][:101])


SYMMETRY_CASES = {
    "random F and H": lambda rng: rand_random_model(rng, 3, 2),
    "stack on both gain paths": lambda rng: stack_models(mixed_nahi_models()),
}


@pytest.mark.parametrize("case", SYMMETRY_CASES)
def test_every_recorded_moment_is_exactly_symmetric(rng, case):
    # quad_form's sums and S are symmetric only to rounding; every P and
    # X in the record is symmetrized once, so it is symmetric bit for bit
    m = SYMMETRY_CASES[case](rng)
    ys = rng.standard_normal((2, 41, m.H.shape[0]))
    rec = filter_sequence(constant_provider(m), rand_ic(rng, m.F.shape[0]),
                          ys)
    for a in (rec.cov, rec.second_moment):
        np.testing.assert_array_equal(a, a.mT)


STACKED_NEEDS_RUNS = r"stacked model needs .*\(runs, K\+1, N\) measurements"


def test_filter_sequence_of_a_stack_needs_a_run_axis(rng):
    K, members = 6, edge_nahi_models()
    prov = constant_provider(stack_models(members))
    ic = rand_ic(rng, 2)
    ys = 3 * rng.standard_normal((K + 1, 2))
    with pytest.raises(ValueError, match=STACKED_NEEDS_RUNS):
        filter_sequence(prov, ic, ys)
    rec = filter_sequence(prov, ic, ys[None])
    assert rec.mean.shape == (len(members), 1, K + 1, 2)
    np.testing.assert_array_equal(rec.cov,
                                  covariance_recursion(prov, ic, K).cov)
    for i, m in enumerate(members):
        own = filter_sequence(constant_provider(m), ic, ys)
        np.testing.assert_allclose(rec.mean[i, 0], own.mean, rtol=0,
                                   atol=1e-12 * np.abs(own.mean).max())


def test_filter_sequence_rejects_one_dimensional_measurements():
    m = deterministic_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match=r"^need \(K\+1, N\) or "
                       r"\(runs, K\+1, N\) measurements$"):
        filter_sequence(constant_provider(m), SIM1_IC, np.zeros(6))


# the prior mean 1e153 puts X_0 at 1e306; F = 2 I quadruples X per step
# until it overflows at step 4, while the observed P stays bounded
HUGE_MEAN_IC = InitialCondition(mean=[1e153, 0.0], cov=0.5 * np.eye(2))
I2 = np.eye(2)
DROPOUT_H = moments_from_dist(MatrixDist.of([(I2, 0.9), (0 * I2, 0.1)]))
# {id: (model at step k, prior, horizon, the whole message)}
NON_FINITE = {
    "P overflow": (lambda k: deterministic_model(1e160 * I2, I2, I2, I2),
                   SIM1_IC, 3, "P is not finite at step 1"),
    "X overflow, random H": (
        lambda k: StepModel(F=deterministic(2 * I2), H=DROPOUT_H, Rv=I2,
                            Rw=I2),
        HUGE_MEAN_IC, 6, "X is not finite at step 4"),
    "X overflow, deterministic H": (
        lambda k: deterministic_model(2 * I2, I2, I2, I2),
        HUGE_MEAN_IC, 6, "X is not finite at step 4"),
    # Hbar = 1e200 I puts 1e400 into S at the first update
    "S overflow": (lambda k: deterministic_model(I2, 1e200 * I2, I2, I2),
                   SIM1_IC, 2, "S is not finite at step 0"),
    # the summed trace of the stack is infinite: the fallback finds S
    "S overflow, one stacked member": (
        lambda k: stack_models([deterministic_model(I2, I2, I2, I2),
                                deterministic_model(I2, 1e200 * I2, I2, I2)]),
        SIM1_IC, 2, "S is not finite at step 0"),
    "X before S": (
        lambda k: deterministic_model(2 * I2, (1e200 if k >= 6 else 1) * I2,
                                      I2, I2),
        HUGE_MEAN_IC, 8, "X is not finite at step 4"),
}


@pytest.mark.parametrize("runs", [0, 2])
@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_moment_or_innovation_covariance_names_its_step(case,
                                                                   runs):
    # the first step where P, X or S is not finite; P and X at a step
    # are named before that step's S
    provider, ic, K, message = NON_FINITE[case]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError) as exc:
        filter_sequence(provider, ic, np.zeros((runs, K + 1, 2)))
    assert str(exc.value) == message


# (step, (r, N, members) before it, from it on, message)
MISFITS = {
    "state dimension": (3, (2, 2, 0), (3, 2, 0),
                        "F (3, 3) and H (2, 3); "
                        "the run needs F (2, 2) and H (2, 2)"),
    "measurement rows": (3, (2, 2, 0), (2, 1, 0),
                         "F (2, 2) and H (1, 2); "
                         "the run needs F (2, 2) and H (2, 2)"),
    "step 0 against the measurements": (0, (2, 1, 0), (2, 1, 0),
                                        "F (2, 2) and H (1, 2); "
                                        "the run needs F (2, 2) and H (2, 2)"),
    "stack members": (2, (2, 2, 3), (2, 2, 2),
                      "F (2, 2, 2) and H (2, 2, 2); "
                      "the run needs F (3, 2, 2) and H (3, 2, 2)"),
}


@pytest.mark.parametrize("case", MISFITS)
def test_model_that_does_not_fit_the_run_names_its_step(rng, case):
    # filter_sequence checks every step's model against the run's state
    # and measurement dimensions and step 0's model axes
    step, before, after, message = MISFITS[case]
    calls = []

    def provider(k):
        calls.append(k)
        return fit_model(*(after if k >= step else before))

    with pytest.raises(ValueError) as exc:
        filter_sequence(provider, rand_ic(rng, 2),
                        rng.standard_normal((1, 6, 2)))
    assert str(exc.value) == f"model at step {step} has {message}"
    assert calls == list(range(step + 1))


def test_quad_form_skipped_for_deterministic_matrices(monkeypatch):
    # a matrix without deviation factors adds exactly no noise, so only
    # the random H's quad form runs, once, in second_moments, for every
    # step its model serves, at the recorded X; predict and update run
    # none, and predict leaves its sum to update to symmetrize
    calls = []
    real = randkf.filter_core.quad_form
    monkeypatch.setattr(randkf.filter_core, "quad_form",
                        lambda spec, X: calls.append(spec) or real(spec, X))
    H = moments_from_dist(MatrixDist.of([(np.eye(2), 0.9),
                                         (np.zeros((2, 2)), 0.1)]))
    m = StepModel(F=deterministic(rotation_matrix(50)), H=H, Rv=np.eye(2),
                  Rw=np.eye(2))
    ic = InitialCondition(mean=np.ones(2), cov=np.eye(2))
    X, Rv_eff, Rw_eff = second_moments([m] * 3, ic)
    assert calls == [H]
    assert all(R is m.Rv for R in Rv_eff)
    mean, P = two_steps(ic.mean, ic.cov, at=0)
    predict(mean, P, 1, m, Rv_eff[0])
    F = m.F.mean
    X1 = symmetrize(F @ X[0] @ F.T + m.Rv)
    for got, ref in ((P[1], F @ ic.cov @ F.T + m.Rv), (X[1], X1),
                     (Rw_eff[1], m.Rw + real(H, X1))):
        np.testing.assert_array_equal(got, ref)
    update(mean, P, 1, np.ones(2), m, Rw_eff[1])
    assert calls == [H]


class TestSecondMoments:
    def test_x_reads_neither_h_nor_the_data(self, rng):
        # X follows F, Rv and the prior alone: two models that share them
        # but not H, Rw, the measurements or even N record equal X, and
        # so does one model on new measurements
        r, K = 3, 30
        F = moments_from_dist(rand_dist(rng, r, r, 3, scale=0.3))
        Rv, ic = rand_psd(rng, r, floor=0.1), rand_ic(rng, r)
        a = StepModel(F=F, H=moments_from_dist(rand_dist(rng, 2, r)), Rv=Rv,
                      Rw=rand_psd(rng, 2, floor=0.5))
        b = StepModel(F=F, H=deterministic(rng.standard_normal((1, r))),
                      Rv=Rv, Rw=np.eye(1))
        rec_a = filter_sequence(constant_provider(a), ic,
                                rng.standard_normal((4, K + 1, 2)))
        rec_b = filter_sequence(constant_provider(b), ic,
                                5 * rng.standard_normal((2, K + 1, 1)))
        rec_c = filter_sequence(constant_provider(a), ic,
                                rng.standard_normal((4, K + 1, 2)))
        for rec in (rec_b, rec_c):
            np.testing.assert_array_equal(rec.second_moment,
                                          rec_a.second_moment)
        assert not np.allclose(rec_a.cov, rec_b.cov)
        assert not np.allclose(rec_a.mean, rec_c.mean)

    def test_random_f_follows_the_kronecker_map(self, rng):
        # vec X_{k+1} = (Fbar (x) Fbar + sum_l G_l (x) G_l) vec X_k + vec Rv
        # (row-major vec), the conversion's r^2 x r^2 map as a reference,
        # at r = 3 with two random-F banks alternating over the steps, and
        # with runs of a deterministic F (no G_l) between them
        r, K = 3, 40
        models = [StepModel(F=moments_from_dist(rand_dist(rng, r, r, 3,
                                                          scale=0.3)),
                            H=deterministic(np.eye(r)),
                            Rv=rand_psd(rng, r, floor=0.1), Rw=np.eye(r))
                  for _ in range(2)]
        models.append(deterministic_model(0.9 * models[0].F.mean, np.eye(r),
                                          rand_psd(rng, r), np.eye(r)))
        ic = rand_ic(rng, r)
        for schedule in ([k % 2 for k in range(K + 1)],
                         [(0, 2, 2, 1, 2, 2, 2, 2, 2)[k % 9]
                          for k in range(K + 1)]):
            X, Rv_eff, _ = second_moments([models[i] for i in schedule], ic)
            x = (np.outer(ic.mean, ic.mean) + ic.cov).ravel()
            for k, i in enumerate(schedule):
                assert_allclose_rel(X[k], x.reshape(r, r), 1e-12)
                if k < K:
                    m = models[i]
                    dev = sum((np.kron(g, g) for g in m.F.factors),
                              np.zeros((r * r, r * r))) @ x
                    assert_allclose_rel(Rv_eff[k], m.Rv + dev.reshape(r, r),
                                        1e-12)
                    x = np.kron(m.F.mean, m.F.mean) @ x + dev + m.Rv.ravel()

    def test_new_equal_model_each_step_records_as_a_constant_one(
            self, monkeypatch, rng):
        # quad_form runs once per span of steps one model object serves:
        # a provider that builds a new, equal model every step (one step
        # a call), and one that serves two equal objects A A B B A A ...
        # (two steps a call), record the constant provider's (one call)
        # bit for bit, with a random F and with a deterministic one (whose
        # X runs over equal Fbar and Rv, whatever the objects)
        random_f = rand_random_model(rng, 3, 2)
        det_f = StepModel(F=deterministic(random_f.F.mean), H=random_f.H,
                          Rv=random_f.Rv, Rw=random_f.Rw)
        ic, K = rand_ic(rng, 3), 20
        ys = rng.standard_normal((3, K + 1, 2))
        calls = []
        real = randkf.filter_core.quad_form
        monkeypatch.setattr(randkf.filter_core, "quad_form",
                            lambda spec, X: calls.append(len(X))
                            or real(spec, X))
        for m in (random_f, det_f):
            calls.clear()
            one = filter_sequence(constant_provider(m), ic, ys)
            assert calls == [K + 1]
            calls.clear()
            fresh = filter_sequence(
                lambda k: StepModel(F=m.F, H=m.H, Rv=m.Rv, Rw=m.Rw), ic, ys)
            assert calls == [1] * (K + 1)
            calls.clear()
            two = [StepModel(F=m.F, H=m.H, Rv=m.Rv, Rw=m.Rw)
                   for _ in range(2)]
            pairs = filter_sequence(lambda k: two[k // 2 % 2], ic, ys)
            assert calls == [2] * (K // 2) + [1]
            for rec in (fresh, pairs):
                for a, b in ((one.mean, rec.mean), (one.cov, rec.cov),
                             (one.second_moment, rec.second_moment)):
                    np.testing.assert_array_equal(a, b)


class TestStackModels:
    def test_members_are_the_stacked_models(self, rng):
        # every member has 3 deviation factors on F and 2 on H
        models = [StepModel(F=moments_from_dist(rand_dist(rng, 3, 3, 3)),
                            H=moments_from_dist(rand_dist(rng, 2, 3, 2)),
                            Rv=rand_psd(rng, 3), Rw=rand_psd(rng, 2))
                  for _ in range(4)]
        st = stack_models(models)
        assert st.F.shape == (3, 3) and st.H.shape == (2, 3)
        X = rand_psd(rng, 3)
        for i, m in enumerate(models):
            for a, b in ((st.F.mean, m.F.mean), (st.H.mean, m.H.mean),
                         (st.Rv, m.Rv), (st.Rw, m.Rw)):
                np.testing.assert_array_equal(a[i], b)
            for a, b in ((st.F, m.F), (st.H, m.H)):
                np.testing.assert_array_equal(a.factors[i], b.factors)
                np.testing.assert_array_equal(quad_form(a, X)[i],
                                              quad_form(b, X))

    def test_rejects_members_of_different_shapes(self):
        one = deterministic_model(np.eye(2), np.ones((1, 2)), np.eye(2),
                                  np.eye(1))
        two = deterministic_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        # one's matrix shapes, but an H with two deviation factors
        dropout = MatrixDist.of([(np.ones((1, 2)), 0.5),
                                 (np.zeros((1, 2)), 0.5)])
        random_h = StepModel(F=one.F, H=moments_from_dist(dropout),
                             Rv=one.Rv, Rw=one.Rw)
        for other in (two, random_h):
            with pytest.raises(ValueError, match="different shapes"):
                stack_models([one, other])
        with pytest.raises(ValueError, match="at least one"):
            stack_models([])

    def test_rejects_mismatched_model_axes(self):
        m = deterministic_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="model axes"):
            StepModel(F=m.F, H=m.H, Rv=np.stack([m.Rv, m.Rv]), Rw=m.Rw)

    def test_stack_member_not_psd_rejected(self):
        m = deterministic_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        st = stack_models([m, m])
        with pytest.raises(ValueError, match="Rw is not positive"):
            StepModel(F=st.F, H=st.H, Rv=st.Rv,
                      Rw=np.stack([np.eye(2), -np.eye(2)]))


def test_gain_over_a_mixed_stack(rng):
    # well-conditioned, singular, ill-conditioned but nonsingular, zero
    Q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    ill = Q @ np.diag([1.0, 1e-14]) @ Q.T
    S = np.stack([rand_psd(rng, 2) + np.eye(2), np.diag([1.0, 0.0]),
                  0.5 * (ill + ill.T), np.zeros((2, 2))])
    w = np.linalg.eigvalsh(S[2])
    assert w[0] > 0 and w[1] / w[0] > COND_LIMIT
    cov = np.stack([rand_psd(rng, 3) for _ in S])
    Hbar = rng.standard_normal((len(S), 2, 3))
    # only the first member is certified (its S >= I); the others take
    # the pseudo-inverse
    good = np.array([True, False, False, False])
    HP = Hbar @ cov
    K = _gain(HP, S, good)
    for i in range(len(S)):
        np.testing.assert_array_equal(K[i], _gain(HP[i], S[i], good[i]))
    assert not K[3].any() and not np.signbit(K[3]).any()
    np.testing.assert_allclose(K[0], cov[0] @ Hbar[0].T @ np.linalg.inv(S[0]),
                               rtol=1e-12, atol=1e-12)
    for i in (1, 2):
        S_pinv = np.linalg.pinv(S[i], rcond=1 / COND_LIMIT, hermitian=True)
        np.testing.assert_allclose(K[i], cov[i] @ Hbar[i].T @ S_pinv,
                                   rtol=1e-12, atol=1e-12)


def test_covariance_monotone_in_measurement_noise(rng):
    # PSD-larger Rw never shrinks trace(P_k) at fixed data, deterministic H
    F = rotation_matrix(200)
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
    fdist = MatrixDist.of([(rotation_matrix(80), 0.4),
                           (rotation_matrix(40), 0.6)])
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), members=st.integers(0, 3),
       rw_decades=st.floats(0.0, 16.0), x_decades=st.floats(0.0, 10.0))
def test_certified_solve_agrees_with_the_pseudo_inverse_gain(
        seed, members, rw_decades, x_decades):
    # Rw's eigenvalues spread over rw_decades (well- to ill-conditioned)
    # and X is inflated by 10^x_decades.  Half the members measure nothing
    # in Rw's weakest direction, so S is about as ill-conditioned as the
    # trace bound says and both gain paths occur.  Wherever the bound
    # certifies a member's solve, its eigenvalues read cond(S) below
    # COND_LIMIT, and the solved K agrees with the pseudo-inverse K to
    # within rounding scaled by cond(S); every member's K is its own
    # unstacked K bit for bit.
    rng = np.random.default_rng(seed)
    r, N = (int(n) for n in rng.integers(1, 5, size=2))

    def member():
        dist = rand_dist(rng, N, r, 2)
        if rng.random() < 0.5:
            Q = np.eye(N)
            blind = np.arange(N)[:, None] < N - 1
            dist = MatrixDist.of([(blind * h, p) for h, p in
                                  zip(dist.samples, dist.probs)])
        else:
            Q = np.linalg.qr(rng.standard_normal((N, N)))[0]
        w = 10.0 ** (rng.uniform(-3, 3) - np.linspace(0, rw_decades, N))
        return StepModel(F=deterministic(np.eye(r)),
                         H=moments_from_dist(dist), Rv=np.eye(r),
                         Rw=(Q * w) @ Q.T)

    models = [member() for _ in range(max(members, 1))]
    m = stack_models(models) if members else models[0]
    lead = (members,) if members else ()
    P = symmetrize(np.reshape([rand_psd(rng, r) for _ in models],
                              lead + (r, r)))
    mu = rng.standard_normal(lead + (r,))
    X = 10.0 ** x_decades * (P + mu[..., :, None] * mu[..., None, :])
    Hbar = m.H.mean
    HP = Hbar @ P
    S = symmetrize(HP @ Hbar.mT + m.Rw + quad_form(m.H, X))
    certified = np.trace(S, axis1=-2, axis2=-1) < m.S_trace_max
    K = _gain(HP, S, certified)
    pinv_K = _gain(HP, S, np.zeros(lead, dtype=bool))
    w = np.linalg.eigvalsh(S)
    eps = np.finfo(float).eps
    for c, wi, Ki, pinv_Ki in zip(certified.reshape(-1), w.reshape(-1, N),
                                  K.reshape(-1, r, N),
                                  pinv_K.reshape(-1, r, N), strict=True):
        if c:
            cond = wi[-1] / wi[0]
            assert wi[0] > 0 and cond < COND_LIMIT
            err = np.linalg.norm(Ki - pinv_Ki)
            assert err <= 10 * N * eps * cond * np.linalg.norm(Ki)
        else:
            np.testing.assert_array_equal(Ki, pinv_Ki)
    for i in range(members):
        np.testing.assert_array_equal(K[i], _gain(HP[i], S[i], certified[i]))


def partitioned_b8(monkeypatch):
    """The B = 8 partitioned model the benchmark filters, with a prior,
    over the benchmark's horizon."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    wl = importlib.import_module("workloads")
    r = wl.PART_STATE
    cfg = parse_config(yaml.safe_dump({
        "mode": "filter", "horizon": wl.PART_HORIZON,
        "model": wl.partitioned_model(811, wl.PART_BLOCKS),
        "initial": {"mean": np.linspace(-5.0, 5.0, r).tolist(),
                    "cov": np.eye(r).tolist()}}))
    return cfg.step_model, cfg.initial, cfg.horizon


# {id: monkeypatch -> (model, prior, horizon)}, each certified at every step
CERTIFIED_RUNS = {
    "sim1": lambda mp: (sim1_model(), SIM1_IC, 300),
    "sim1 over six gammas": lambda mp: (
        stack_models([sim1_model(g) for g in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]),
        SIM1_IC, 300),
    "partitioned B=8": partitioned_b8,
}


@pytest.mark.parametrize("case", CERTIFIED_RUNS)
def test_certified_step_solves_bit_equal_to_numpy(monkeypatch, case):
    # every step of the benchmarked models is certified whole, so update
    # solves it by LAPACK's gufunc directly; the K it gives is
    # np.linalg.solve's bit for bit
    m, ic, K = CERTIFIED_RUNS[case](monkeypatch)
    solves = []
    real = randkf.filter_core._lapack_solve
    monkeypatch.setattr(randkf.filter_core, "_lapack_solve",
                        lambda S, HP: solves.append((S, HP, real(S, HP)))
                        or solves[-1][2])

    def no_gain(*args):
        raise AssertionError("a step missed the certificate")

    monkeypatch.setattr(randkf.filter_core, "_gain", no_gain)
    covariance_recursion(constant_provider(m), ic, K)
    assert len(solves) == K + 1
    for S, HP, KT in solves:
        np.testing.assert_array_equal(KT, np.linalg.solve(S, HP))


def test_summed_trace_over_the_bound_falls_back_member_by_member(
        monkeypatch):
    # each member alone is certified at every step, the first within its
    # small bound (S_trace_max 5; tr S about 1 at step 0, then 0.2); the
    # stack's summed trace (12 at step 0, then about 180) is over that
    # bound, so every step goes to _gain, whose mask certifies both
    tight = deterministic_model(0.5 * I2, I2, 0.1 * I2, 1e-11 * I2)
    loose = deterministic_model(0.5 * I2, 3 * I2, 10 * I2, I2)
    stacked = stack_models([tight, loose])
    assert stacked.S_trace_sum_max == tight.S_trace_max == 5.0
    K, gains = 40, []
    real = randkf.filter_core._gain
    monkeypatch.setattr(randkf.filter_core, "_gain",
                        lambda HP, S, good: gains.append((S, good))
                        or real(HP, S, good))
    rec = covariance_recursion(constant_provider(stacked), SIM1_IC, K)
    assert len(gains) == K + 1
    for S, good in gains:
        assert good.tolist() == [True, True]
        assert np.trace(S, axis1=-2, axis2=-1).sum() > 5.0
    gains.clear()
    for i, m in enumerate((tight, loose)):
        own = covariance_recursion(constant_provider(m), SIM1_IC, K)
        assert gains == []
        np.testing.assert_array_equal(rec.cov[:, i], own.cov)
        np.testing.assert_array_equal(rec.second_moment[:, i],
                                      own.second_moment)
