import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    H_SIM1,
    assert_allclose_rel,
    dev_cov_tensor,
    enumerated_partition_dist,
    factor_tensor,
    quad_form_discrete,
    rand_dist,
    rand_psd,
    sim2_model,
)
from randkf.random_matrix import (
    BlockDropout,
    MatrixDist,
    RandomMatrixSpec,
    deterministic,
    moments_from_dist,
    quad_form,
    sample_matrix,
)

class TestMatrixDist:
    def test_rejects_probs_not_summing_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            MatrixDist.of([(np.eye(2), 0.6), (np.zeros((2, 2)), 0.5)])

    def test_rejects_negative_prob(self):
        with pytest.raises(ValueError, match="negative"):
            MatrixDist.of([(np.eye(2), 1.2), (np.zeros((2, 2)), -0.2)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_prob(self, bad):
        with pytest.raises(ValueError, match="non-finite probability"):
            MatrixDist.of([(np.eye(2), bad), (np.zeros((2, 2)), 1.0)])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            MatrixDist.of([(np.eye(2), 0.5), (np.zeros((3, 2)), 0.5)])

    def test_rejects_probability_count_mismatch(self):
        with pytest.raises(ValueError,
                           match="^2 samples but 3 probabilities$"):
            MatrixDist(samples=(np.eye(2), np.zeros((2, 2))),
                       probs=np.array([0.5, 0.25, 0.25]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MatrixDist(samples=(), probs=np.array([]))


class TestMomentsFromDist:
    def test_dropout_mean_is_scaled_matrix(self):
        dist = MatrixDist.of([(H_SIM1, 0.95), (np.zeros((2, 2)), 0.05)])
        spec = moments_from_dist(dist)
        np.testing.assert_allclose(spec.mean, 0.95 * H_SIM1, rtol=0,
                                   atol=1e-15)
        assert spec.source is dist

    def test_single_sample_is_deterministic(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        spec = moments_from_dist(MatrixDist.of([(M, 1.0)]))
        np.testing.assert_array_equal(spec.mean, M)
        assert not spec.factors.any()

    def test_three_rotation_mix_golden(self):
        # probability-weighted sum of sim2's three planar rotations,
        # computed independently and pinned
        dist = sim2_model().F.source
        expected = np.array(
            [[0.9985336161039347, 0.05107362474752255],
             [-0.05107362474752255, 0.9985336161039347]])
        np.testing.assert_allclose(moments_from_dist(dist).mean, expected,
                                   rtol=0, atol=1e-15)

    def test_dev_cov_pair_swap_symmetry(self, rng):
        # the factors imply the entry covariance tensor of the samples,
        # which is symmetric under swapping its index pairs
        for _ in range(20):
            dist = rand_dist(rng, 3, 2)
            dev = factor_tensor(moments_from_dist(dist))
            np.testing.assert_allclose(dev, dev_cov_tensor(dist), rtol=0,
                                       atol=1e-12)
            flat = dev.reshape(6, 6)
            np.testing.assert_allclose(flat, flat.T, rtol=0, atol=1e-12)


class TestSpecValidation:
    def test_rejects_factor_shape_mismatch(self):
        # factors must be (..., L, p, q) for a (..., p, q) mean
        for factors in (np.zeros((1, 2, 1)), np.zeros((2, 1)),
                        np.zeros((3, 1, 1, 2))):
            with pytest.raises(ValueError, match="does not match"):
                RandomMatrixSpec(mean=np.zeros((1, 2)), factors=factors)

    def test_any_factors_give_symmetric_psd_noise(self, rng):
        # sum_l G_l X G_l^T is PSD for every choice of factors, so unlike
        # a covariance tensor the factors need no symmetry or sign check;
        # quad_form leaves it symmetric to rounding (the filter
        # symmetrizes what it records)
        for _ in range(20):
            L, p, q = (int(n) for n in rng.integers(1, 4, size=3))
            spec = RandomMatrixSpec(mean=np.zeros((p, q)),
                                    factors=rng.standard_normal((L, p, q)))
            out = quad_form(spec, rand_psd(rng, q))
            assert_allclose_rel(out, out.T, 1e-14)
            assert np.linalg.eigvalsh(out).min() >= -1e-12 * np.trace(out)

    def test_only_moments_from_dist_attaches_a_source(self):
        # a spec's moments cannot disagree with its source: the source is
        # not a constructor argument, and moments_from_dist sets it
        dist = MatrixDist.of([(np.ones((1, 1)), 0.5),
                              (np.zeros((1, 1)), 0.5)])
        with pytest.raises(TypeError, match="source"):
            RandomMatrixSpec(mean=np.full((1, 1), 0.5),
                             factors=np.full((2, 1, 1), 0.5), source=dist)
        assert RandomMatrixSpec(mean=np.zeros((1, 1)),
                                factors=np.zeros((0, 1, 1))).source is None
        assert moments_from_dist(dist).source is dist


class TestQuadForm:
    def test_deterministic_gives_zero(self, rng):
        spec = deterministic(rng.standard_normal((3, 2)))
        X = rand_psd(rng, 2)
        np.testing.assert_array_equal(quad_form(spec, X), np.zeros((3, 3)))

    def test_scalar_dropout(self):
        # deviations 0.05 w.p. 0.95 and -0.95 w.p. 0.05
        dist = MatrixDist.of([(np.array([[1.0]]), 0.95),
                              (np.array([[0.0]]), 0.05)])
        out = quad_form(moments_from_dist(dist), np.array([[1.0]]))
        np.testing.assert_allclose(out, [[0.0475]], rtol=0, atol=1e-15)

    def test_scalar_symmetric_two_point(self):
        dist = MatrixDist.of([(np.array([[2.0]]), 0.5),
                              (np.array([[0.0]]), 0.5)])
        out = quad_form(moments_from_dist(dist), np.array([[1.0]]))
        np.testing.assert_allclose(out, [[1.0]], rtol=0, atol=1e-15)

    def test_rejects_dimension_mismatch(self, rng):
        spec = moments_from_dist(rand_dist(rng, 2, 3))
        with pytest.raises(ValueError, match="shape"):
            quad_form(spec, np.eye(2))

    def test_stacked_spec_matches_each_member_bit_for_bit(self, rng):
        specs = [moments_from_dist(rand_dist(rng, 2, 3, n_samples=3))
                 for _ in range(4)]
        stacked = RandomMatrixSpec(
            mean=np.stack([s.mean for s in specs]),
            factors=np.stack([s.factors for s in specs]))
        assert stacked.shape == (2, 3)
        X = rand_psd(rng, 3)
        Xs = np.stack([rand_psd(rng, 3) for _ in specs])
        shared, own = quad_form(stacked, X), quad_form(stacked, Xs)
        assert shared.shape == own.shape == (4, 2, 2)
        for i, spec in enumerate(specs):
            np.testing.assert_array_equal(shared[i], quad_form(spec, X))
            np.testing.assert_array_equal(own[i], quad_form(spec, Xs[i]))

    @pytest.mark.parametrize("L", [1, 3, 8, 100])
    def test_batch_of_steps_equals_per_step_calls_and_the_terms_sum(
            self, rng, L):
        # a stacked spec against X of (steps, members, q, q): each step is
        # its own call bit for bit, and the sum factor by factor equals
        # the (..., L, p, p) terms tensor reduced along its factor axis
        members, steps = 3, 5
        factors = rng.standard_normal((members, L, 4, 3))
        spec = RandomMatrixSpec(mean=rng.standard_normal((members, 4, 3)),
                                factors=factors)
        X = np.reshape([rand_psd(rng, 3) for _ in range(steps * members)],
                       (steps, members, 3, 3))
        out = quad_form(spec, X)
        assert out.shape == (steps, members, 4, 4)
        terms = factors @ X[..., None, :, :] @ factors.mT
        np.testing.assert_array_equal(out, np.add.reduce(terms, axis=-3))
        for k in range(steps):
            np.testing.assert_array_equal(out[k], quad_form(spec, X[k]))

    def test_memory_of_a_batch_stays_near_its_output(self, rng):
        # B = 100 one-row dropout blocks (N = 100) against 301 steps' X: a
        # (301, 100, 100, 100) terms tensor would take 2.4 GB; the sum
        # factor by factor peaks under three outputs (69 MB)
        B, r, steps = 100, 2, 301
        spec = moments_from_dist(BlockDropout(
            blocks=tuple(rng.standard_normal((B, 1, r))),
            probs=np.full(B, 0.9)))
        X = np.tile(rand_psd(rng, r), (steps, 1, 1))
        tracemalloc.start()
        try:
            out = quad_form(spec, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (steps, B, B)
        assert peak < 3 * out.nbytes


class TestQuadFormDiscrete:
    """The mixture-summation reference (tests' ``quad_form_discrete``) and
    the factored quad form on the same cases."""

    def test_single_sample_gives_zero(self):
        dist = MatrixDist.of([(H_SIM1, 1.0)])
        for out in (quad_form_discrete(dist, np.eye(2)),
                    quad_form(moments_from_dist(dist), np.eye(2))):
            np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_two_independent_scalar_blocks(self):
        # stacked 2x1 blocks h1 = h2 = [1], each on/off w.p. 1/2:
        # four samples with product probabilities, or two dropout blocks
        one, zero = np.array([1.0]), np.array([0.0])
        pairs = [(np.vstack([a, b]), 0.25)
                 for a in (one, zero) for b in (one, zero)]
        blocks = BlockDropout(blocks=(one, one), probs=[0.5, 0.5])
        for out in (quad_form_discrete(MatrixDist.of(pairs), np.eye(1)),
                    quad_form(moments_from_dist(blocks), np.eye(1))):
            np.testing.assert_allclose(out, np.diag([0.25, 0.25]), rtol=0,
                                       atol=1e-15)

    def test_sim1_dropout_at_identity(self):
        dist = MatrixDist.of([(H_SIM1, 0.95), (np.zeros((2, 2)), 0.05)])
        for out in (quad_form_discrete(dist, np.eye(2)),
                    quad_form(moments_from_dist(dist), np.eye(2))):
            np.testing.assert_allclose(out, 0.0475 * H_SIM1 @ H_SIM1.T,
                                       rtol=1e-13, atol=1e-15)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3),
       q=st.integers(1, 3))
def test_tensor_and_mixture_paths_agree(seed, p, q):
    # the factored quad form against the mixture-summation reference
    rng = np.random.default_rng(seed)
    dist = rand_dist(rng, p, q)
    X = rand_psd(rng, q)
    a = quad_form(moments_from_dist(dist), X)
    assert_allclose_rel(a, quad_form_discrete(dist, X), 1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_quad_form_symmetric_psd(seed):
    rng = np.random.default_rng(seed)
    dist = rand_dist(rng, 3, 3)
    X = rand_psd(rng, 3)
    out = quad_form(moments_from_dist(dist), X)
    np.testing.assert_allclose(out, out.T, rtol=0, atol=1e-12)
    w = np.linalg.eigvalsh(out)
    assert w.min() >= -1e-10 * max(1.0, np.trace(out))


class TestSampleMatrix:
    def test_certain_sample_always_drawn(self):
        dist = MatrixDist.of([(H_SIM1, 1.0)])
        draws = sample_matrix(dist, np.random.default_rng(0).random((10, 1)))
        assert draws.shape == (10, 2, 2) and np.all(draws == H_SIM1)

    def test_empirical_frequency(self):
        A, B = np.array([[1.0]]), np.array([[0.0]])
        dist = MatrixDist.of([(A, 0.5), (B, 0.5)])
        draws = sample_matrix(dist,
                              np.random.default_rng(1234).random((100_000, 1)))
        hits = int(np.sum(draws[:, 0, 0] == 1.0))
        assert 0.49 <= hits / 100_000 <= 0.51
        # the count 100,000 one-draw calls on this seed gave: one call of
        # 100,000 draws takes the same uniforms in the same order
        assert hits == 49_895

    def test_same_seed_same_sequence(self):
        dist = MatrixDist.of([(np.array([[float(i)]]), 0.25)
                              for i in range(4)])
        r1 = np.random.default_rng(7)
        r2 = np.random.default_rng(7)
        s1 = sample_matrix(dist, r1.random((50, 1)))
        s2 = sample_matrix(dist, r2.random((50, 1)))
        np.testing.assert_array_equal(s1, s2)

    @pytest.mark.parametrize("dist", [
        MatrixDist.of([(np.eye(2), 0.3), (H_SIM1, 0.7)]),
        BlockDropout(blocks=(np.ones((1, 2)), H_SIM1), probs=[0.4, 0.9])])
    def test_leading_axes_map_each_draw(self, dist):
        # uniforms (3, 4, n) give the (3, 4, p, q) stack of the draws of
        # their rows, each taken alone
        n = 2 if isinstance(dist, BlockDropout) else 1
        u = np.random.default_rng(3).random((3, 4, n))
        draws = sample_matrix(dist, u)
        assert draws.shape == (3, 4) + dist.stacked.shape[-2:]
        for idx in np.ndindex(3, 4):
            np.testing.assert_array_equal(draws[idx],
                                          sample_matrix(dist, u[idx]))


class TestBlockDropout:
    @staticmethod
    def rand_blocks(rng, r=3):
        B = int(rng.integers(1, 5))
        blocks = tuple(rng.standard_normal((int(rng.integers(1, 3)), r))
                       for _ in range(B))
        return blocks, rng.uniform(0.05, 0.95, size=B)

    def test_moments_match_enumerated_mixture(self, rng):
        for _ in range(20):
            blocks, probs = self.rand_blocks(rng)
            spec = moments_from_dist(BlockDropout(blocks=blocks,
                                                  probs=probs))
            enum = enumerated_partition_dist(list(zip(blocks, probs)))
            assert spec.factors.shape == (len(blocks),) + spec.shape
            np.testing.assert_allclose(spec.mean,
                                       moments_from_dist(enum).mean,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(factor_tensor(spec),
                                       dev_cov_tensor(enum), rtol=0,
                                       atol=1e-12)

    def test_rejects_invalid_blocks(self):
        h = np.ones((1, 2))
        for blocks, probs, message in (
                ((), [], "need at least one block"),
                ((h, h), [0.5], "2 blocks but 1 probabilities"),
                ((h, np.ones((1, 3))), [0.5, 0.5],
                 "blocks disagree on state dimension"),
                ((h,), [1.5], "block 0: probability 1.5 outside [0, 1]"),
                ((h, h, h), [0.5, 1.2, -0.1],
                 "block 1: probability 1.2 outside [0, 1]"),
                ((h, h), [0.5, np.nan],
                 "block 1: probability nan outside [0, 1]")):
            with pytest.raises(ValueError) as exc:
                BlockDropout(blocks=blocks, probs=probs)
            assert str(exc.value) == message

    def test_draws_independent_blocks(self):
        # blocks [1] and [[2], [3]]: each draw keeps or zeroes whole
        # blocks, with the block frequencies and their products
        dist = BlockDropout(blocks=(np.ones((1, 1)),
                                    np.array([[2.0], [3.0]])),
                            probs=[0.3, 0.8])
        n = 100_000
        draws = sample_matrix(dist, np.random.default_rng(5).random((n, 2)))
        assert draws.shape == (n, 3, 1)
        on1, on2 = draws[:, 0, 0] == 1.0, draws[:, 1, 0] == 2.0
        assert np.all(draws[:, 0, 0] == np.where(on1, 1.0, 0.0))
        assert np.all(draws[:, 1:, 0] == np.where(on2[:, None], [2.0, 3.0],
                                                  0.0))
        se = 0.5 / np.sqrt(n)
        for freq, p in ((on1.mean(), 0.3), (on2.mean(), 0.8),
                        ((on1 & on2).mean(), 0.24)):
            assert abs(freq - p) < 5 * se
        one = sample_matrix(dist, np.random.default_rng(5).random((1, 2)))
        np.testing.assert_array_equal(one[0], draws[0])


def test_product_moment_matches_analytic_lemma():
    # sample mean of F x x^T F^T over paired independent draws approaches
    # Fbar M Fbar^T + quad_form(F, M) with M = E(x x^T)
    rng = np.random.default_rng(99)
    dist = rand_dist(rng, 2, 2, n_samples=3)
    spec = moments_from_dist(dist)
    mean_x = np.array([1.0, -0.5])
    cov_x = np.array([[1.0, 0.3], [0.3, 0.8]])
    M = np.outer(mean_x, mean_x) + cov_x
    analytic = spec.mean @ M @ spec.mean.T + quad_form(spec, M)

    n = 100_000
    L = np.linalg.cholesky(cov_x)
    xs = mean_x + rng.standard_normal((n, 2)) @ L.T
    idx = rng.choice(dist.probs.size, size=n, p=dist.probs)
    Fs = np.stack(dist.samples)[idx]
    fx = np.einsum("nij,nj->ni", Fs, xs)
    prods = np.einsum("ni,nj->nij", fx, fx)
    sample_mean = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(sample_mean - analytic) <= 5 * se)
