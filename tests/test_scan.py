"""The filter's two routes for P: the associative scan and the loop.

A lone model (no model axis) with r <= SCAN_MAX_R whose every step is
certified before P runs takes the scan; every other run takes the Riccati
loop, and a one-member stack of any model is a way to run it on the loop.
The scan's P, gains and means agree with the loop's to rounding, not bit
for bit; its record is prefix-stable in K bit for bit, as the loop's is.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randkf.filter_core
from conftest import (
    SIM1_IC,
    deterministic_model,
    edge_nahi_models,
    rand_dist,
    rand_psd,
    sim1_model,
    sim2_model,
)
from randkf.config import _step_floats, rotation_matrix
from randkf.filter_core import (
    SCAN_MAX_R,
    InitialCondition,
    StepModel,
    constant_provider,
    filter_sequence,
    stack_models,
)
from randkf.random_matrix import (
    MatrixDist,
    deterministic,
    moments_from_dist,
)
from randkf.sim_harness import (
    covariance_recursion,
    derive_run_seeds,
    simulate_truth,
)
from test_filter_core import partitioned_b8

# the scan's P and gains against the loop's, relative to each step's
# largest entry, and its means, relative to each run's largest mean
SCAN_RTOL = 1e-14
MEANS_RTOL = 1e-13


def spy_scans(mp) -> list:
    """Patch filter_core._scan_steps to record what each call returns:
    True where the scan gave the record's P, False where the loop redid
    it."""
    calls = []
    real = randkf.filter_core._scan_steps
    mp.setattr(randkf.filter_core, "_scan_steps",
               lambda *args: calls.append(real(*args)) or calls[-1])
    return calls


def assert_close_per_step(got, ref, rtol):
    """got within rtol of ref at every step, relative to that step's
    largest entry of ref (at least the smallest normal float)."""
    axes = tuple(range(1, ref.ndim))
    scale = np.maximum(np.abs(ref).max(axis=axes), np.finfo(float).tiny)
    err = np.abs(got - ref).max(axis=axes)
    assert (err <= rtol * scale).all(), (err / scale).max()


I2 = np.eye(2)
SINGULAR_RW = np.diag([1.0, 0.0])
# {id: monkeypatch -> (model, prior, horizon, whether it scans)}
ROUTE_CASES = {
    "sim1, K = 300": lambda mp: (sim1_model(), SIM1_IC, 300, True),
    "sim1, K = 3000": lambda mp: (sim1_model(), SIM1_IC, 3000, True),
    "sim2": lambda mp: (sim2_model(), SIM1_IC, 300, True),
    "partitioned B=8": lambda mp: (*partitioned_b8(mp), True),
    # a singular Rw certifies no step: these take the loop
    **{f"Nahi, singular Rw, p = {p}":
       (lambda mp, i=i: (edge_nahi_models(SINGULAR_RW)[i], SIM1_IC, 300,
                         False))
       for i, p in ((0, 0.0), (2, 0.5), (4, 1.0))},
    "rank-1 Hbar, Rw = 0": lambda mp: (
        deterministic_model(rotation_matrix(300), np.ones((2, 2)), 2 * I2,
                            0 * I2), SIM1_IC, 300, False),
}


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_scan_agrees_with_the_loop(monkeypatch, case):
    # a lone model against its own run as a one-member stack: P and the
    # gains within SCAN_RTOL of each step's largest entry and the means
    # of three sampled runs within MEANS_RTOL, where the model scans; the
    # same arrays bit for bit where it takes the loop
    m, ic, K, scans = ROUTE_CASES[case](monkeypatch)
    ys = simulate_truth(constant_provider(m), ic, K,
                        derive_run_seeds(31, 3)).measurements
    loop = filter_sequence(constant_provider(stack_models([m])), ic, ys)
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_scans(mp)
        rec = filter_sequence(constant_provider(m), ic, ys)
    assert calls == ([True] if scans else [])
    np.testing.assert_array_equal(rec.second_moment, loop.second_moment[:, 0])
    pairs = ((rec.cov, loop.cov[:, 0]), (rec.gain, loop.gain[:, 0]))
    if not scans:
        for got, ref in pairs + ((rec.mean, loop.mean[0]),):
            np.testing.assert_array_equal(got, ref)
        return
    for got, ref in pairs:
        assert_close_per_step(got, ref, SCAN_RTOL)
    for got, ref in zip(rec.mean, loop.mean[0], strict=True):
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=MEANS_RTOL * np.abs(ref).max())


@pytest.mark.parametrize("case", ["sim1, K = 300", "sim2", "partitioned B=8"])
def test_scan_is_prefix_stable(monkeypatch, case):
    # the pairs are fixed by step index, so a shorter horizon records the
    # longer one's first steps bit for bit
    m, ic, K, _ = ROUTE_CASES[case](monkeypatch)
    full = covariance_recursion(constant_provider(m), ic, K)
    for n in (1, 2, 100):
        short = covariance_recursion(constant_provider(m), ic, n)
        for name in ("cov", "second_moment", "gain"):
            np.testing.assert_array_equal(getattr(short, name),
                                          getattr(full, name)[:n + 1])


def random_model(rng, r, N, random_f=True, random_h=True) -> StepModel:
    """Random F (each sample of 2-norm 0.9, so X stays bounded) and H,
    drawn or taken as their first sample, and Rv, Rw >= 0.5 I."""
    d = rand_dist(rng, r, r, 2)
    F = MatrixDist.of([(0.9 * f / np.linalg.norm(f, 2), p)
                       for f, p in zip(d.samples, d.probs)])
    H = rand_dist(rng, N, r, 2)
    return StepModel(
        F=moments_from_dist(F) if random_f else deterministic(F.samples[0]),
        H=moments_from_dist(H) if random_h else deterministic(H.samples[0]),
        Rv=rand_psd(rng, r, floor=0.5), Rw=rand_psd(rng, N, floor=0.5))


def test_one_rule_picks_the_route(monkeypatch):
    # lone, r <= SCAN_MAX_R and every step certified: the scan; a stack
    # (of one member or six), a larger r or an uncertified step: the loop
    rng = np.random.default_rng(8)
    fast_x = deterministic_model(1.5 * I2, I2, I2, I2)
    cases = [
        (sim1_model(), SIM1_IC, True),
        (stack_models([sim1_model()]), SIM1_IC, False),
        (stack_models([sim1_model(g) for g in np.linspace(0.5, 1, 6)]),
         SIM1_IC, False),
        (random_model(rng, SCAN_MAX_R, 2), SIM1_IC, True),
        (random_model(rng, SCAN_MAX_R + 1, 2), SIM1_IC, False),
        # X outgrows the bound from step 5 on (see
        # test_fast_growing_x_fails_the_bound_but_still_solves)
        (fast_x, InitialCondition(mean=[1e5, 0.0], cov=I2), False),
        (edge_nahi_models()[2], SIM1_IC, False),
    ]
    for m, ic, scans in cases:
        r = m.F.shape[0]
        if ic.mean.size != r:
            ic = InitialCondition(mean=np.ones(r), cov=np.eye(r))
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_scans(mp)
            covariance_recursion(constant_provider(m), ic, 40)
        assert calls == ([True] if scans else []), (r, m.Rv.shape)


def test_overflowing_scan_falls_back_to_the_loop(monkeypatch):
    # F's mean is 1500 I and the prior is 0, so X and P stay exactly 0
    # and every step is certified, while the pairs' A (F^n) overflow
    # from n = 2^7: the loop redoes P, without a warning, and the record
    # is the loop's bit for bit
    F = MatrixDist.of([(1e3 * I2, 0.5), (2e3 * I2, 0.5)])
    m = StepModel(F=moments_from_dist(F), H=deterministic(I2),
                  Rv=0 * I2, Rw=I2)
    ic = InitialCondition(mean=np.zeros(2), cov=0 * I2)
    calls = spy_scans(monkeypatch)
    with np.errstate(all="raise"):
        rec = covariance_recursion(constant_provider(m), ic, 300)
    loop = covariance_recursion(constant_provider(stack_models([m])), ic, 300)
    assert calls == [False]
    for name in ("cov", "second_moment", "gain"):
        np.testing.assert_array_equal(getattr(rec, name),
                                      getattr(loop, name)[:, 0])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, SCAN_MAX_R),
       N=st.integers(1, 4), K=st.integers(1, 40), random_f=st.booleans(),
       random_h=st.booleans(), varying=st.booleans())
def test_scan_agrees_with_the_loop_on_random_models(
        seed, r, N, K, random_f, random_h, varying):
    # random lone models, time-invariant or switching among three models
    # every few steps, each certified at every step: the scan's P and
    # gains within SCAN_RTOL of the one-member-stack loop's
    rng = np.random.default_rng(seed)
    models = [random_model(rng, r, N, random_f, random_h)
              for _ in range(3 if varying else 1)]
    ic = InitialCondition(mean=rng.standard_normal(r),
                          cov=rand_psd(rng, r, floor=0.1))
    at = [models[k // 3 % len(models)] for k in range(K + 1)]
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_scans(mp)
        rec = covariance_recursion(at.__getitem__, ic, K)
    assert calls == [True]
    stacks = {id(m): stack_models([m]) for m in models}
    loop = covariance_recursion(lambda k: stacks[id(at[k])], ic, K)
    for name in ("cov", "gain"):
        assert_close_per_step(getattr(rec, name), getattr(loop, name)[:, 0],
                              SCAN_RTOL)


# {id: (model, horizon)}, each from a prior of mean 1 and covariance I
MEMORY_CASES = {
    "r = N = 1 random F and H": (
        lambda rng: random_model(rng, 1, 1), 10_000),
    "sim1": (lambda rng: sim1_model(), 5_000),
    "r = 2, N = 8 random F and H": (
        lambda rng: random_model(rng, 2, 8), 5_000),
}


@pytest.mark.parametrize("route", ["scan", "loop"])
@pytest.mark.parametrize("case", MEMORY_CASES)
def test_run_size_count_bounds_a_long_recursion(case, route):
    # the tracemalloc peak of a long covariance recursion stays within the
    # per-member floats config._step_floats counts for its route
    make, K = MEMORY_CASES[case]
    m = make(np.random.default_rng(4))
    r = m.F.shape[0]
    ic = InitialCondition(mean=np.ones(r), cov=np.eye(r))
    prov = constant_provider(m if route == "scan" else stack_models([m]))
    covariance_recursion(prov, ic, 5)
    tracemalloc.start()
    try:
        covariance_recursion(prov, ic, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = 8 * (K + 1) * _step_floats(m, route == "scan")[1]
    assert peak <= count, f"peak {peak / 1e6:.2f} MB, count {count / 1e6:.2f}"
