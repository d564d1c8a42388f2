"""Every model kind against the batch oracle and against its other routes.

One strategy draws a system of a given kind (general, Nahi, partitioned
with B = 1-4 blocks, or multimodel), time-invariant or with a per-step
p(k) or bank weights (the probabilities 0 and 1 included), and three runs
of random measurements y_0..y_K, K <= 4.  Its filter must agree with

- the exact batch LMV estimate, run by run;
- one call per run, for the batched runs;
- each member of a per-step stack of it and its twin with 2 Rw;
- for a dropout kind, the general model of its 2^B on/off patterns.

Each kind draws its own 25 derandomized examples: hypothesis clusters
the examples of one run, so 100 drawn over all kinds left some kind and
schedule pairs with one example or none.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assert_allclose_rel, enumerated_partition_dist
from lmv_oracle import batch_lmv_oracle
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
from randkf.config import MODEL_KINDS
from randkf.filter_core import (
    InitialCondition,
    constant_provider,
    filter_sequence,
    stack_models,
)
from randkf.random_matrix import MatrixDist


@st.composite
def systems(draw, kind):
    """(provider, mixture, Rw, prior, measurements (3, K+1, N)): provider
    maps an Rw to the system's ModelProvider, and mixture does the same
    for the general model of a dropout kind's on/off patterns (None for
    the other kinds)."""
    r, N, K = (draw(st.integers(1, 3)), draw(st.integers(1, 4)),
               draw(st.integers(0, 4)))
    varying = draw(st.booleans())

    def mat(*shape, bound=2.0):
        return draw(arrays(float, shape, elements=st.floats(-bound, bound)))

    def psd(n, floor):
        A = mat(n, n, bound=1.0)
        return A @ A.T + floor * np.eye(n)

    def per_step(elements, width):
        """k -> the width values of step k, the same every step unless
        the system is varying."""
        rows = draw(arrays(float, (K + 1 if varying else 1, width),
                           elements=elements))
        return lambda k: rows[k if varying else 0]

    F, h, Rv, Rw = mat(r, r, bound=1.2), mat(N, r), psd(r, 0.1), psd(N, 0.5)
    ic = InitialCondition(mean=mat(r, bound=5.0), cov=psd(r, 0.1))
    mixture = None
    if kind in ("nahi", "partitioned"):
        B = 1 if kind == "nahi" else draw(st.integers(1, N))
        hs = np.array_split(h, B)
        p = per_step(st.sampled_from((0.0, 1.0))
                     | st.floats(0.0, 1.0, exclude_min=True,
                                 exclude_max=True), B)

        def step(Rw, k):
            if kind == "nahi":
                return build_nahi(NahiModel(h=h, p=p(k)[0], F=F, Rv=Rv,
                                            Rw=Rw), k)
            return build_partitioned(PartitionedObsModel(
                blocks=[*zip(hs, p(k))], F=F, Rv=Rv, Rw=Rw), k)

        def mixture(Rw):
            return lambda k: build_uncertain_obs(UncertainObsModel(
                measurement_dist=enumerated_partition_dist([*zip(hs, p(k))]),
                F=F, Rv=Rv, Rw=Rw), k)
    else:
        L = draw(st.integers(2, 3))
        mats = mat(L, N, r) if kind == "general" else mat(L, r, r, bound=1.2)
        weights = per_step(st.floats(0.1, 1.0), L)

        def step(Rw, k):
            bank = MatrixDist.of(zip(mats, weights(k) / weights(k).sum()))
            if kind == "general":
                return build_uncertain_obs(UncertainObsModel(
                    measurement_dist=bank, F=F, Rv=Rv, Rw=Rw), k)
            return build_multimodel(MultiModelDynamics(
                transition_dist=bank, H=h, Rv=Rv, Rw=Rw), k)

    def provider(Rw):
        return partial(step, Rw) if varying else constant_provider(step(Rw, 0))

    return provider, mixture, Rw, ic, mat(3, K + 1, N, bound=5.0)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_model_kind_filters_like_its_references(kind, data):
    provider, mixture, Rw, ic, ys = data.draw(systems(kind))
    rec = filter_sequence(provider(Rw), ic, ys)
    for run, y in enumerate(ys):
        one = filter_sequence(provider(Rw), ic, y)
        np.testing.assert_array_equal(one.cov, rec.cov)
        np.testing.assert_array_equal(one.second_moment, rec.second_moment)
        assert_allclose_rel(rec.mean[run], one.mean, 1e-13)
        mean, cov = batch_lmv_oracle(provider(Rw), ic, y)
        assert_allclose_rel(rec.mean[run, -1], mean, 1e-9)
        assert_allclose_rel(rec.cov[-1], cov, 1e-9)
    members = (provider(Rw), provider(2 * Rw))
    stacked = filter_sequence(
        lambda k: stack_models([m(k) for m in members]), ic, ys)
    for i, alone in enumerate((rec, filter_sequence(members[1], ic, ys))):
        np.testing.assert_array_equal(stacked.cov[:, i], alone.cov)
        np.testing.assert_array_equal(stacked.second_moment[:, i],
                                      alone.second_moment)
        assert_allclose_rel(stacked.mean[i], alone.mean, 1e-12)
    if mixture is not None:
        for a, b in zip(rec, filter_sequence(mixture(Rw), ic, ys),
                        strict=True):
            assert_allclose_rel(a.mean, b.mean, 1e-12)
            assert_allclose_rel(a.cov, b.cov, 1e-12)
            assert_allclose_rel(a.second_moment, b.second_moment, 1e-12)
