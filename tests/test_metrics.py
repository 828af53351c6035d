"""KL, MMD, NLL, log RMSE, jump and swap rates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drexel import RunConfig, make_synthetic, run_batch
from drexel.domains import DomainSpec
from drexel.errors import DomainError
from drexel.metrics import (
    BANDWIDTH_ROWS,
    MEAN_BLOCK_ROWS,
    RffEstimator,
    jump_rate,
    kl_divergence,
    log_rmse,
    median_bandwidth,
    mmd_exact_gaussian,
    mmd_rff,
    nll,
    swap_rate,
    visit_counts,
)
from drexel.oracle import Pmf, enumerate_target
from drexel.rng import SALT_TRUTH, substream

from conftest import traced_peak


class TestKl:
    def test_matching_distribution_near_zero(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        counts = (p * 4_000_000).astype(np.int64)
        assert kl_divergence(Pmf(p=p), counts) <= 1e-3

    def test_hand_value_with_large_counts(self):
        """0.5 ln(0.5/0.25) + 0.5 ln(0.5/0.75) = 0.14384, smoothing shift <= 1e-2."""
        kl = kl_divergence(Pmf(p=np.array([0.5, 0.5])), np.array([1_000_000, 3_000_000]))
        assert kl == pytest.approx(0.5 * np.log(2) + 0.5 * np.log(2 / 3), abs=1e-2)

    def test_concentrated_empirical_finite(self):
        kl = kl_divergence(Pmf(p=np.array([0.5, 0.5])), np.array([100, 0]))
        assert np.isfinite(kl) and kl > 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(6))
        counts = rng.multinomial(500, rng.dirichlet(np.ones(6)))
        kl = kl_divergence(Pmf(p=p), counts)
        assert kl >= 0.0

    def test_index_mismatch(self):
        with pytest.raises(DomainError):
            kl_divergence(Pmf(p=np.array([0.5, 0.5])), np.array([1, 1, 1]))

    def test_empty_counts_rejected(self):
        with pytest.raises(DomainError, match="positive total"):
            kl_divergence(Pmf(p=np.array([0.5, 0.5])), np.array([0, 0]))

    def test_smoothing_offset_subtracts_exactly(self):
        """With counts exactly proportional to truth, the residual KL is the
        analytically computable smoothing shift."""
        p = np.array([0.125, 0.25, 0.5, 0.125])
        total = 8000
        counts = (p * total).astype(np.int64)
        kl = kl_divergence(Pmf(p=p), counts)
        eps = 1.0 / total
        offset = float(np.sum(p * np.log(p * (total + eps * 4) / (counts + eps))))
        assert abs(kl - offset) <= 1e-9
        assert kl <= 1e-3


class TestMmd:
    def _est(self, dim=2, bw=1.0, d_feat=500, seed=0):
        return RffEstimator.create(dim, bw, d_feat, np.random.default_rng(seed))

    def test_identical_samples_zero(self):
        xs = np.random.default_rng(1).normal(size=(200, 2))
        assert mmd_rff(xs, xs, self._est()) <= 1e-15

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        xs, ys = rng.normal(size=(150, 2)), rng.normal(loc=1.0, size=(120, 2))
        est = self._est()
        assert mmd_rff(xs, ys, est) == mmd_rff(ys, xs, est)

    def test_blocked_mean_sums_every_row_in_the_one_shot_order(self):
        """mean_features holds MEAN_BLOCK_ROWS rows of features at a time, yet adds the rows as one mean does.

        With 1-d samples each projection is a single product, so the features
        do not depend on how rows are grouped and the means agree bit for bit.
        With more dimensions BLAS may round a projection row differently with
        the number of rows in the product, so there they agree to rounding.
        """
        rng = np.random.default_rng(9)
        n = 2 * MEAN_BLOCK_ROWS + 7
        for dim in (1, 3):
            est = self._est(dim=dim, seed=10)
            xs = rng.normal(size=(n, dim))
            one_shot = est.features(xs).mean(axis=0)
            if dim == 1:
                assert np.array_equal(est.mean_features(xs), one_shot)
            else:
                assert np.allclose(est.mean_features(xs), one_shot, rtol=1e-12, atol=1e-15)

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        xs, ys = rng.normal(size=(100, 2)), rng.normal(size=(100, 2))
        est = self._est()
        assert mmd_rff(xs[::-1], ys, est) == pytest.approx(mmd_rff(xs, ys, est), abs=1e-14)

    def test_point_masses_match_exact_kernel(self):
        """Two well-separated point masses: RFF within 10% of the exact double sum."""
        bw = 0.5
        xs = np.zeros((200, 2))
        ys = np.full((200, 2), 5.0)  # distance 10 bandwidths
        exact = mmd_exact_gaussian(xs, ys, bw)
        approx = mmd_rff(xs, ys, self._est(bw=bw, seed=4))
        assert approx == pytest.approx(exact, rel=0.10)

    def test_nonnegative_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            xs, ys = rng.normal(size=(50, 3)), rng.normal(size=(60, 3))
            assert mmd_rff(xs, ys, self._est(dim=3, seed=6)) >= 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            mmd_rff(np.empty((0, 2)), np.zeros((5, 2)), self._est())

    def test_median_bandwidth_scale(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(500, 2))
        bw = median_bandwidth(xs)
        assert 1.0 < bw < 3.0  # median pairwise distance of a 2-d standard normal


def _features_as_one_expression(est, xs):
    return np.sqrt(2.0 / est.num_features) * np.cos(xs @ est.frequencies.T + est.offsets)


def _mean_features_by_concatenation(est, xs):
    total = np.add.reduce(_features_as_one_expression(est, xs[:MEAN_BLOCK_ROWS]), axis=0)
    for start in range(MEAN_BLOCK_ROWS, xs.shape[0], MEAN_BLOCK_ROWS):
        block = _features_as_one_expression(est, xs[start : start + MEAN_BLOCK_ROWS])
        total = np.add.reduce(np.concatenate([total[None, :], block]), axis=0)
    return total / xs.shape[0]


def _median_bandwidth_by_triu_indices(xs):
    if xs.shape[0] > BANDWIDTH_ROWS:
        xs = xs[np.linspace(0, xs.shape[0] - 1, BANDWIDTH_ROWS).astype(int)]
    sq = np.sum(xs**2, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (xs @ xs.T), 0.0)
    upper = d2[np.triu_indices(xs.shape[0], k=1)]
    return max(float(np.median(np.sqrt(upper))), 1e-12)


class TestFixedBuffers:
    """The in-place feature, mean and bandwidth code equals the plain expressions bit for bit, in bounded memory."""

    @pytest.mark.parametrize("dim", [2, 784])
    @pytest.mark.parametrize("n", [1, 2, 999, 1000, 1001, 1025, 2049, 10_000])
    def test_equal_to_the_plain_expressions(self, n, dim):
        xs = np.random.default_rng(n + dim).normal(size=(n, dim))
        est = RffEstimator.create(dim, 1.5, 500, np.random.default_rng(dim))
        assert np.array_equal(est.features(xs), _features_as_one_expression(est, xs))
        assert np.array_equal(est.mean_features(xs), _mean_features_by_concatenation(est, xs))
        if n >= 2:
            assert median_bandwidth(xs) == _median_bandwidth_by_triu_indices(xs)

    def test_median_bandwidth_holds_two_distance_matrices(self):
        """1,000 x 784 rows: two n x n buffers at most, plus 1 MB; the triu_indices form peaked at 21 MB."""
        xs = np.random.default_rng(3).normal(size=(1000, 784))
        assert traced_peak(lambda: median_bandwidth(xs)) < 2 * 1000**2 * 8 + 2**20

    def test_mean_features_holds_one_block(self):
        """10,000 x 2 rows: under 1.5 blocks of features, where concatenating blocks held three."""
        xs = np.random.default_rng(4).normal(size=(10_000, 2))
        est = RffEstimator.create(2, 1.0, 500, np.random.default_rng(5))
        assert traced_peak(lambda: est.mean_features(xs)) < 1.5 * MEAN_BLOCK_ROWS * 500 * 8

    def test_mean_features_holds_one_block_when_weighted(self):
        """10,000 x 2 rows with counts, a quarter of them 0: the same bound as without counts."""
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(10_000, 2))
        counts = rng.integers(0, 4, size=10_000)
        est = RffEstimator.create(2, 1.0, 500, np.random.default_rng(5))
        assert traced_peak(lambda: est.mean_features(xs, counts)) < 1.5 * MEAN_BLOCK_ROWS * 500 * 8

    def test_median_bandwidth_needs_two_rows(self):
        for n in (0, 1):
            with pytest.raises(DomainError, match="at least 2 rows"):
                median_bandwidth(np.zeros((n, 2)))

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.nan, np.inf])
    def test_bandwidth_must_be_positive_and_finite(self, bandwidth):
        """A NaN bandwidth made every MMD NaN, an infinite one made every MMD 0."""
        with pytest.raises(DomainError, match="bandwidth"):
            RffEstimator.create(2, bandwidth, 10, np.random.default_rng(0))


class TestWeightedMean:
    """mean_features(xs, counts) is the mean over the sample set that repeats row i counts[i] times."""

    def _est(self, dim=2):
        return RffEstimator.create(dim, 1.5, 500, np.random.default_rng(dim))

    @pytest.mark.parametrize("n", [1, 1000, 1025, 2049])
    def test_all_one_counts_give_the_unweighted_bits(self, n):
        xs = np.random.default_rng(n).normal(size=(n, 2))
        est = self._est()
        assert np.array_equal(est.mean_features(xs, np.ones(n, dtype=np.int64)), est.mean_features(xs))

    @pytest.mark.parametrize("expanded", [1025, 1500, 2049])
    def test_integer_counts_match_the_expanded_rows(self, expanded):
        """Three samples per row on average, zeros among them, to 1e-15: only the summation order differs."""
        rng = np.random.default_rng(expanded)
        rows = expanded // 3
        counts = rng.multinomial(expanded, np.full(rows, 1.0 / rows))
        assert (counts == 0).any()
        xs = rng.normal(size=(rows, 2))
        est = self._est()
        diff = est.mean_features(xs, counts) - est.mean_features(np.repeat(xs, counts, axis=0))
        assert np.abs(diff).max() <= 1e-15

    @pytest.mark.parametrize("counts", [[1, 2], [1, -1, 1], [0, 0, 0]], ids=["short", "negative", "all-zero"])
    def test_bad_counts_rejected(self, counts):
        with pytest.raises(DomainError):
            self._est().mean_features(np.zeros((3, 2)), np.array(counts))


class TestNll:
    def test_uniform_truth(self):
        p = Pmf(p=np.full(8, 1 / 8))
        assert nll(p, np.array([0, 3, 7])) == pytest.approx(np.log(8), abs=1e-12)

    def test_mode_sample_two_spin(self, two_spin_ising):
        pi = enumerate_target(two_spin_ising)
        val = nll(pi, np.array([0]))  # state (-1,-1), aligned mode
        assert val == pytest.approx(-np.log(0.32283), abs=1e-4)
        assert val == pytest.approx(1.1308, abs=1e-3)

    def test_duplication_invariance(self):
        p = Pmf(p=np.array([0.25, 0.75]))
        once = nll(p, np.array([0, 1]))
        thrice = nll(p, np.array([0, 1, 0, 1, 0, 1]))
        assert once == pytest.approx(thrice, abs=1e-15)

    def test_zero_probability_gives_infinity(self):
        p = Pmf(p=np.array([1.0, 0.0]))
        assert nll(p, np.array([1])) == float("inf")

    def test_entropy_convergence(self, two_spin_ising):
        """NLL of exact samples approaches the target entropy within 3 SE."""
        pi = enumerate_target(two_spin_ising)
        rng = substream(0, SALT_TRUTH)
        n = 100_000
        idx = rng.choice(4, size=n, p=pi.p)
        entropy = -np.sum(pi.p * np.log(pi.p))
        log_p = np.log(pi.p)
        se = np.std(-log_p[idx]) / np.sqrt(n)
        assert abs(nll(pi, idx) - entropy) <= 3 * se


class TestLogRmse:
    def test_unit_errors(self):
        assert log_rmse(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0])) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        assert log_rmse(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(np.log(np.sqrt(12.5)), abs=1e-12)
        assert log_rmse(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(1.2629, abs=1e-4)

    def test_exact_estimate_sentinel(self):
        assert log_rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == float("-inf")

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            log_rmse(np.zeros(2), np.zeros(3))


class TestJumpAndSwapRates:
    def test_constant_trace_zero(self):
        dom = DomainSpec.ordinal_grid(2, levels=8, lo=-2, hi=2)
        states = np.tile(np.array([[3, 3]]), (50, 1))
        assert jump_rate(states, dom) == 0.0

    def test_alternating_corners_one(self):
        dom = DomainSpec.ordinal_grid(2, levels=8, lo=-2, hi=2)
        states = np.tile(np.array([[0, 0], [7, 7]]), (25, 1))
        assert jump_rate(states, dom) == 1.0

    def test_too_short_trace(self):
        dom = DomainSpec.ordinal_grid(2, levels=8, lo=-2, hi=2)
        with pytest.raises(DomainError):
            jump_rate(np.array([[0, 0]]), dom)

    def test_swap_rate_zero_without_replica(self, two_spin_ising):
        trace = run_batch(two_spin_ising, RunConfig(sampler="dmala", iterations=100, alpha=0.4), [0])[0]
        assert swap_rate(trace) == 0.0
        assert trace.swapped is None

    def test_swap_rate_one_for_identical_chains(self, two_spin_ising):
        with pytest.warns(UserWarning):
            cfg = RunConfig(sampler="drexel", iterations=150, alpha=0.3, tau=1.0, alpha_high=0.3, tau_high=1.0)
            trace = run_batch(two_spin_ising, cfg, [1])[0]
        assert swap_rate(trace) == 1.0

    @pytest.mark.slow
    def test_swap_rate_drops_with_hotter_chain(self):
        """Raising the hot temperature from 2 to 10 lowers the swap rate."""
        model = make_synthetic("16gaussian", levels=64, c=2.0)
        rates = []
        for tau_high in (2.0, 10.0):
            cfg = RunConfig(
                sampler="dream", iterations=20_000, alpha=0.023, tau=1.0, alpha_high=0.053, tau_high=tau_high
            )
            rates.append(swap_rate(run_batch(model, cfg, [5])[0]))
        assert rates[1] < rates[0]

    def test_rates_in_unit_interval(self, two_spin_ising):
        cfg = RunConfig(sampler="drexel", iterations=200, alpha=0.2, tau=1.0, alpha_high=0.5, tau_high=2.0)
        trace = run_batch(two_spin_ising, cfg, [9])[0]
        assert 0.0 <= swap_rate(trace) <= 1.0
        assert 0.0 <= jump_rate(trace.states, two_spin_ising.domain) <= 1.0


class TestVisitCounts:
    def test_counts_by_flat_index(self):
        dom = DomainSpec.binary01(2)
        states = np.array([[0, 0], [1, 1], [0, 1], [0, 0]])
        assert np.array_equal(visit_counts(states, dom), [2, 1, 0, 1])
