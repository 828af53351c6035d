"""KL, MMD, NLL, log RMSE, jump and swap rates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drexel import RunConfig, make_synthetic, run_sampler
from drexel.domains import DomainSpec, embed_all
from drexel.errors import DomainError
from drexel.metrics import (
    EmpiricalHist,
    RffEstimator,
    jump_rate,
    kl_divergence,
    log_rmse,
    median_bandwidth,
    mmd_exact_gaussian,
    mmd_rff,
    nll,
    swap_rate,
)
from drexel.oracle import Pmf, enumerate_target
from drexel.rng import SALT_TRUTH, substream


class TestKl:
    def test_matching_distribution_near_zero(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        counts = (p * 4_000_000).astype(np.int64)
        hist = EmpiricalHist(counts=counts, total=int(counts.sum()))
        assert kl_divergence(Pmf(p=p), hist) <= 1e-3

    def test_hand_value_with_large_counts(self):
        """0.5 ln(0.5/0.25) + 0.5 ln(0.5/0.75) = 0.14384, smoothing shift <= 1e-2."""
        hist = EmpiricalHist(counts=np.array([1_000_000, 3_000_000]), total=4_000_000)
        kl = kl_divergence(Pmf(p=np.array([0.5, 0.5])), hist)
        assert kl == pytest.approx(0.5 * np.log(2) + 0.5 * np.log(2 / 3), abs=1e-2)

    def test_concentrated_empirical_finite(self):
        hist = EmpiricalHist(counts=np.array([100, 0]), total=100)
        kl = kl_divergence(Pmf(p=np.array([0.5, 0.5])), hist)
        assert np.isfinite(kl) and kl > 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(6))
        counts = rng.multinomial(500, rng.dirichlet(np.ones(6)))
        kl = kl_divergence(Pmf(p=p), EmpiricalHist(counts=counts, total=500))
        assert kl >= 0.0

    def test_index_mismatch(self):
        with pytest.raises(DomainError):
            kl_divergence(Pmf(p=np.array([0.5, 0.5])), EmpiricalHist(counts=np.array([1, 1, 1]), total=3))

    def test_smoothing_offset_subtracts_exactly(self):
        """With counts exactly proportional to truth, the residual KL is the
        analytically computable smoothing shift."""
        p = np.array([0.125, 0.25, 0.5, 0.125])
        total = 8000
        counts = (p * total).astype(np.int64)
        kl = kl_divergence(Pmf(p=p), EmpiricalHist(counts=counts, total=total))
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
        assert mmd_rff(None, ys, est, mean_x=est.mean_features(xs)) == mmd_rff(xs, ys, est)  # reused embedding

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
        trace = run_sampler(two_spin_ising, RunConfig(sampler="dmala", iterations=100, seed=0, alpha=0.4))
        assert swap_rate(trace) == 0.0
        assert trace.swap_attempts == 0

    def test_swap_rate_one_for_identical_chains(self, two_spin_ising):
        with pytest.warns(UserWarning):
            cfg = RunConfig(
                sampler="drexel", iterations=150, seed=1, alpha=0.3, tau=1.0,
                alpha_high=0.3, tau_high=1.0,
            )
            trace = run_sampler(two_spin_ising, cfg)
        assert swap_rate(trace) == 1.0

    @pytest.mark.slow
    def test_swap_rate_drops_with_hotter_chain(self):
        """Raising the hot temperature from 2 to 10 lowers the swap rate."""
        model = make_synthetic("16gaussian", levels=64, c=2.0)
        rates = []
        for tau_high in (2.0, 10.0):
            cfg = RunConfig(
                sampler="dream", iterations=20_000, seed=5, alpha=0.023, tau=1.0,
                alpha_high=0.053, tau_high=tau_high,
            )
            rates.append(swap_rate(run_sampler(model, cfg)))
        assert rates[1] < rates[0]

    def test_rates_in_unit_interval(self, two_spin_ising):
        cfg = RunConfig(
            sampler="drexel", iterations=200, seed=9, alpha=0.2, tau=1.0,
            alpha_high=0.5, tau_high=2.0,
        )
        trace = run_sampler(two_spin_ising, cfg)
        assert 0.0 <= swap_rate(trace) <= 1.0
        assert 0.0 <= jump_rate(trace, two_spin_ising.domain) <= 1.0


class TestEmpiricalHist:
    def test_from_states_counts(self):
        dom = DomainSpec.binary01(2)
        states = np.array([[0, 0], [1, 1], [0, 1], [0, 0]])
        hist = EmpiricalHist.from_states(states, dom)
        assert np.array_equal(hist.counts, [2, 1, 0, 1])

    def test_invalid_total(self):
        with pytest.raises(DomainError):
            EmpiricalHist(counts=np.array([1, 1]), total=3)
