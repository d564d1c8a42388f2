"""Single-sensor dropout reached by three routes, against the batch oracle.

A Bernoulli-dropped h can be written as a ``NahiModel``, as a
``PartitionedObsModel`` with one block, or as the general two-sample
distribution {h, 0}.  All three must filter alike, and the recursive
filter must agree with the exact batch LMV estimate, whether the arrival
probability is constant or changes from step to step: each route builds
its model per step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assert_allclose_rel
from lmv_oracle import batch_lmv_oracle
from randkf import (
    InitialCondition,
    MatrixDist,
    NahiModel,
    PartitionedObsModel,
    UncertainObsModel,
    build_nahi,
    build_partitioned,
    build_uncertain_obs,
    filter_sequence,
)


@st.composite
def dropout_systems(draw):
    """h, a probability schedule p_0..p_K (constant or varying by step,
    the ends 0 and 1 included), F, Rv, Rw, a prior and the measurements
    y_0..y_K of a horizon K <= 4."""
    r, N, K = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
               draw(st.integers(0, 4)))

    def mat(rows, cols, bound):
        return draw(arrays(float, (rows, cols),
                           elements=st.floats(-bound, bound)))

    def psd(n, floor):
        A = mat(n, n, 1.0)
        return A @ A.T + floor * np.eye(n)

    prob = (st.sampled_from((0.0, 1.0))
            | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    ps = draw(prob.map(lambda p: (p,) * (K + 1))
              | st.tuples(*[prob] * (K + 1)))
    h, F = mat(N, r, 2.0), mat(r, r, 1.2)
    Rv, Rw = psd(r, 0.1), psd(N, 0.5)
    ic = InitialCondition(mean=mat(1, r, 5.0)[0], cov=psd(r, 0.1))
    return h, ps, F, Rv, Rw, ic, mat(K + 1, N, 5.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dropout_systems())
def test_nahi_partitioned_and_general_dropout_agree(system):
    h, ps, F, Rv, Rw, ic, ys = system
    nahi = NahiModel(h=h, p=ps.__getitem__, F=F, Rv=Rv, Rw=Rw)
    part = PartitionedObsModel(blocks=((h, ps.__getitem__),), F=F, Rv=Rv,
                               Rw=Rw)
    # the general route has no p(k): one {h, 0} model per step
    general = [UncertainObsModel(
        measurement_dist=MatrixDist.of([(h, p), (np.zeros_like(h), 1 - p)]),
        F=F, Rv=Rv, Rw=Rw) for p in ps]
    ref = filter_sequence(lambda k: build_nahi(nahi, k), ic, ys)
    for other in (filter_sequence(lambda k: build_partitioned(part, k),
                                  ic, ys),
                  filter_sequence(
                      lambda k: build_uncertain_obs(general[k], k), ic, ys)):
        for a, b in zip(other, ref, strict=True):
            assert_allclose_rel(a.mean, b.mean, 1e-12)
            assert_allclose_rel(a.cov, b.cov, 1e-12)
            assert_allclose_rel(a.second_moment, b.second_moment, 1e-12)
    mean, cov = batch_lmv_oracle(lambda k: build_nahi(nahi, k), ic, ys)
    assert_allclose_rel(ref[-1].mean, mean, 1e-9)
    assert_allclose_rel(ref[-1].cov, cov, 1e-9)
