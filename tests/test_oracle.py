"""Enumeration oracles: targets, kernels, reversibility, spectral bound, block Gibbs.

The replica kernel with the history swap and distinct chain parameters is not
exactly reversible with respect to the intermediate pair target (see
notes/decisions.md at the repository root of the development tree); the tests
below pin the honest residuals and verify the corrected swap exponent that
does achieve exact balance.
"""

from dataclasses import replace

import numpy as np
import pytest

from drexel import ChainParams, SwapConfig, make_ising_chain
from drexel.domains import DomainSpec, embed_all, state_index
from drexel.energies import QuadraticEnergy, RbmFreeEnergy
from drexel.errors import CapacityError, DomainError, PreconditionError, UnsupportedModelError
from drexel.oracle import (
    Kernel,
    Pmf,
    _proposal_matrix,
    _swap_prob_grid,
    balanced_joint_kernel,
    block_gibbs_rbm_step,
    detailed_balance_check,
    enumerate_target,
    exact_joint_kernel,
    exact_single_kernel,
    intermediate_pair_pmf,
    proposal_normalizers,
    spectral_tv_bound_check,
    tempered_pair_pmf,
)
from drexel.rng import SALT_LOW, substream
from drexel.sampler import swap_probability


class TestEnumerateTarget:
    def test_two_spin_ising_probabilities(self, two_spin_ising):
        pi = enumerate_target(two_spin_ising)
        z = 2 * (np.exp(0.3) + np.exp(-0.3))
        aligned = np.exp(0.3) / z
        # states (0,0) and (1,1) are aligned; (0,1) and (1,0) anti-aligned
        assert pi.p[0] == pytest.approx(aligned, abs=1e-12)
        assert pi.p[3] == pytest.approx(aligned, abs=1e-12)
        assert pi.p[1] == pytest.approx(np.exp(-0.3) / z, abs=1e-12)
        assert aligned == pytest.approx(0.32283, abs=5e-6)

    def test_uniform_when_energy_constant(self):
        dom = DomainSpec.ordinal_grid(2, levels=5, lo=0, hi=1)
        model = QuadraticEnergy(domain=dom, J=np.zeros((2, 2)), b=np.zeros(2), w=1.0)
        pi = enumerate_target(model)
        assert np.allclose(pi.p, 1 / 25, atol=1e-15)

    def test_single_binary_coordinate_logistic(self):
        dom = DomainSpec.binary01(1)
        model = QuadraticEnergy(domain=dom, J=np.zeros((1, 1)), b=np.ones(1), w=1.0)
        pi = enumerate_target(model)
        assert pi.p[1] == pytest.approx(1 / (1 + np.exp(-1)), abs=1e-12)  # 0.73106

    def test_shift_invariance(self, three_spin_ising):
        p0 = enumerate_target(three_spin_ising).p

        class Shifted(QuadraticEnergy):
            def value_batch(self, xs):
                return super().value_batch(xs) + 123.456

        shifted = Shifted(domain=three_spin_ising.domain, J=three_spin_ising.J, b=three_spin_ising.b, w=three_spin_ising.w)
        assert np.abs(enumerate_target(shifted).p - p0).max() <= 1e-12

    def test_capacity_guard(self):
        dom = DomainSpec.binary01(25)
        model = QuadraticEnergy(domain=dom, J=np.zeros((25, 25)), b=np.zeros(25), w=1.0)
        with pytest.raises(CapacityError):
            enumerate_target(model, capacity=1 << 20)


class TestSingleKernel:
    def test_one_coordinate_flip_probability(self):
        dom = DomainSpec.binary01(1)
        model = QuadraticEnergy(domain=dom, J=np.zeros((1, 1)), b=np.zeros(1), w=1.0)
        K = exact_single_kernel(model, ChainParams(alpha=1.0))
        assert K.matrix[0, 1] == pytest.approx(1 / (1 + np.exp(0.5)), abs=1e-14)

    def test_rows_sum_to_one_random_ising(self):
        rng = np.random.default_rng(2)
        J = rng.integers(0, 2, size=(4, 4)).astype(float)
        J = np.triu(J, 1)
        J = J + J.T
        model = QuadraticEnergy(domain=DomainSpec.spin_pm1(4), J=J, b=rng.normal(size=4), w=0.25)
        K = exact_single_kernel(model, ChainParams(alpha=0.6, tau=1.5, mh_enabled=True))
        assert np.abs(K.matrix.sum(axis=1) - 1).max() <= 1e-12

    def test_mh_detailed_balance_three_spins(self, three_spin_ising):
        """DMALA kernel balance against the tempered target, machine precision."""
        pi = enumerate_target(three_spin_ising)
        K = exact_single_kernel(three_spin_ising, ChainParams(alpha=0.4, tau=1.0, mh_enabled=True))
        assert detailed_balance_check(K, pi) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.05, 0.4, 2.0, 20.0])
    def test_mh_exact_for_any_step_size(self, three_spin_ising, alpha):
        pi = enumerate_target(three_spin_ising, tau=1.7)
        K = exact_single_kernel(three_spin_ising, ChainParams(alpha=alpha, tau=1.7, mh_enabled=True))
        assert detailed_balance_check(K, pi) <= 1e-12

    def test_kernel_strictly_positive(self, two_spin_ising):
        K = exact_single_kernel(two_spin_ising, ChainParams(alpha=0.4, mh_enabled=True))
        assert K.matrix.min() > 0

    def test_unadjusted_kernel_reversible_wrt_weighted_target(self, three_spin_ising):
        """DULA balance holds exactly against the normalizer-weighted target."""
        params = ChainParams(alpha=0.3, tau=1.4)
        K = exact_single_kernel(three_spin_ising, params)
        z = proposal_normalizers(three_spin_ising, params)
        u = three_spin_ising.value_batch(embed_all(three_spin_ising.domain))
        p = z * np.exp(u / params.tau - u.max())
        pmf = Pmf(p=p / p.sum())
        assert detailed_balance_check(K, pmf) <= 1e-14


class TestProposalNormalizers:
    def test_two_term_sum_flat_energy(self):
        dom = DomainSpec.binary01(1)
        model = QuadraticEnergy(domain=dom, J=np.zeros((1, 1)), b=np.zeros(1), w=1.0)
        z = proposal_normalizers(model, ChainParams(alpha=1.0))
        assert np.allclose(z, 1 + np.exp(-0.5), atol=1e-14)

    def test_tiny_step_size_limit(self, two_spin_ising):
        z = proposal_normalizers(two_spin_ising, ChainParams(alpha=1e-3))
        assert np.all(z >= 1.0)
        assert np.all(z <= 1.0 + 1e-100)

    def test_monotone_in_step_size(self, two_spin_ising):
        # fine ordinal grid: all three step sizes leave a resolvable tail
        dom = DomainSpec.ordinal_grid(1, levels=17, lo=-2.0, hi=2.0)
        model = QuadraticEnergy(domain=dom, J=np.zeros((1, 1)), b=np.ones(1), w=1.0)
        values = [proposal_normalizers(model, ChainParams(alpha=a)) for a in (0.5, 0.05, 0.005)]
        assert np.all(values[0] > values[1])
        assert np.all(values[1] > values[2])
        assert np.all(values[2] > 1.0)
        # spin flips are 2 apart: the tail underflows to exactly 1 already at 0.05
        spin_values = [proposal_normalizers(two_spin_ising, ChainParams(alpha=a)) for a in (0.5, 0.05, 0.005)]
        assert np.all(spin_values[0] > spin_values[1])
        assert np.all(spin_values[1] >= spin_values[2])
        assert np.all(spin_values[2] == 1.0)

    def test_binomial_identity_with_proposal_softmax(self, three_spin_ising):
        """Appendix-form normalizer equals the product of softmax denominators."""
        params = ChainParams(alpha=0.37, tau=2.1)
        z = proposal_normalizers(three_spin_ising, params)
        _, log_z = _proposal_matrix(three_spin_ising, params)
        assert np.abs(z - np.exp(log_z)).max() <= 1e-12 * z.max()

    def test_non_quadratic_model_rejected(self, small_rbm):
        with pytest.raises(UnsupportedModelError):
            proposal_normalizers(small_rbm, ChainParams(alpha=0.5))


class TestIntermediatePairPmf:
    def test_sums_to_one(self, two_spin_ising):
        pt = intermediate_pair_pmf(two_spin_ising, ChainParams(alpha=0.2), ChainParams(alpha=0.4, tau=2.0))
        assert abs(pt.p.sum() - 1.0) <= 1e-12

    def test_symmetric_under_exchange_when_params_equal(self, two_spin_ising):
        params = ChainParams(alpha=0.3, tau=1.0)
        pt = intermediate_pair_pmf(two_spin_ising, params, params).p.reshape(4, 4)
        assert np.abs(pt - pt.T).max() <= 1e-15

    def test_converges_to_tempered_product(self, two_spin_ising):
        low = ChainParams(alpha=1e-3, tau=1.0)
        high = ChainParams(alpha=1e-3, tau=2.0)
        pt = intermediate_pair_pmf(two_spin_ising, low, high)
        prod = tempered_pair_pmf(two_spin_ising, low, high)
        assert 0.5 * np.abs(pt.p - prod.p).sum() <= 1e-9


class TestJointKernel:
    low = ChainParams(alpha=0.2, tau=1.0)
    high = ChainParams(alpha=0.4, tau=2.0)

    def test_rho_zero_is_tensor_product(self, two_spin_ising):
        K = exact_joint_kernel(two_spin_ising, self.low, self.high, SwapConfig(variant="history", rho=0.0))
        q1 = exact_single_kernel(two_spin_ising, self.low).matrix
        q2 = exact_single_kernel(two_spin_ising, self.high).matrix
        assert np.abs(K.matrix - np.kron(q1, q2)).max() <= 1e-14

    def test_metropolis_switch_comes_from_the_params(self, two_spin_ising):
        """Each chain of the joint kernel is adjusted exactly when its params say so."""
        low, high = (replace(p, mh_enabled=True) for p in (self.low, self.high))
        K = exact_joint_kernel(two_spin_ising, low, high, SwapConfig(variant="history", rho=0.0)).matrix
        q1 = exact_single_kernel(two_spin_ising, low).matrix
        q2 = exact_single_kernel(two_spin_ising, high).matrix
        assert np.abs(K - np.kron(q1, q2)).max() <= 1e-14
        unadjusted = exact_joint_kernel(two_spin_ising, self.low, self.high, SwapConfig(variant="history", rho=0.0))
        assert not np.array_equal(K, unadjusted.matrix)

    def test_balanced_kernel_rejects_metropolis_params(self, two_spin_ising):
        adjusted = (replace(self.low, mh_enabled=True), replace(self.high, mh_enabled=True))
        for low, high in ((adjusted[0], self.high), (self.low, adjusted[1])):
            with pytest.raises(DomainError, match="mh_enabled"):
                balanced_joint_kernel(two_spin_ising, low, high)

    def test_rows_sum_to_one(self, two_spin_ising):
        K = exact_joint_kernel(two_spin_ising, self.low, self.high, SwapConfig(variant="history", rho=1.0))
        assert np.abs(K.matrix.sum(axis=1) - 1).max() <= 1e-10

    def test_strictly_positive(self, two_spin_ising):
        K = exact_joint_kernel(two_spin_ising, self.low, self.high, SwapConfig(variant="history", rho=1.0))
        assert K.matrix.min() > 0

    def test_swap_grid_matches_swap_probability(self, two_spin_ising):
        u = two_spin_ising.value_batch(embed_all(two_spin_ising.domain))
        for variant, sigma2 in (("naive", 0.0), ("bias_corrected", 1.3), ("history", 0.0)):
            cfg = SwapConfig(variant=variant, rho=0.8, sigma2=sigma2)
            grid = _swap_prob_grid(cfg, 1.0, 2.0, u)
            for x1 in range(4):
                for x2 in range(4):
                    for w1 in range(4):
                        for w2 in range(4):
                            direct = swap_probability(cfg, 1.0, 2.0, u[w1], u[w2], u[x1], u[x2])
                            assert grid[x1, x2, w1, w2] == pytest.approx(direct, abs=1e-15)

    @pytest.mark.xfail(
        strict=True,
        reason="history swap does not give exact pair reversibility for distinct "
        "chain parameters; measured residual ~1.3e-2 on this instance (ledger entry)",
    )
    def test_history_swap_reversible_wrt_intermediate_target(self, two_spin_ising):
        pt = intermediate_pair_pmf(two_spin_ising, self.low, self.high)
        K = exact_joint_kernel(two_spin_ising, self.low, self.high, SwapConfig(variant="history", rho=1.0))
        assert detailed_balance_check(K, pt) <= 1e-10

    def test_history_residual_pinned(self, two_spin_ising):
        """The honest imbalance of the history swap on the reference instance."""
        pt = intermediate_pair_pmf(two_spin_ising, self.low, self.high)
        K = exact_joint_kernel(two_spin_ising, self.low, self.high, SwapConfig(variant="history", rho=1.0))
        res = detailed_balance_check(K, pt)
        assert res == pytest.approx(1.3014e-2, rel=1e-3)
        naive = exact_joint_kernel(two_spin_ising, self.low, self.high, SwapConfig(variant="naive", rho=1.0))
        res_naive = detailed_balance_check(naive, pt)
        assert res_naive == pytest.approx(5.2752e-4, rel=1e-3)

    def test_balanced_kernel_exactly_reversible(self, two_spin_ising):
        pt = intermediate_pair_pmf(two_spin_ising, self.low, self.high)
        for rho in (1.0, 0.35):
            K = balanced_joint_kernel(two_spin_ising, self.low, self.high, rho=rho)
            assert np.abs(K.matrix.sum(axis=1) - 1).max() <= 1e-12
            assert detailed_balance_check(K, pt) <= 1e-14

    def test_balanced_kernel_on_larger_instance(self, three_spin_ising):
        low = ChainParams(alpha=0.15, tau=1.0)
        high = ChainParams(alpha=0.55, tau=3.0)
        pt = intermediate_pair_pmf(three_spin_ising, low, high)
        K = balanced_joint_kernel(three_spin_ising, low, high)
        assert detailed_balance_check(K, pt) <= 1e-14

    def test_capacity_guard(self):
        model = make_ising_chain(7, 0.1, np.zeros(7))
        with pytest.raises(CapacityError):
            exact_joint_kernel(model, self.low, self.high, SwapConfig(variant="history", rho=1.0))


class TestDetailedBalanceCheck:
    def test_identity_kernel(self):
        pmf = Pmf(p=np.array([0.2, 0.3, 0.5]))
        assert detailed_balance_check(Kernel(matrix=np.eye(3)), pmf) == 0.0

    def test_symmetric_kernel_uniform_pmf(self):
        K = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
        assert detailed_balance_check(Kernel(matrix=K), Pmf(p=np.full(3, 1 / 3))) <= 1e-17

    def test_perturbed_kernel_detected(self):
        K = np.full((2, 2), 0.5)
        K[0, 1] += 1e-3
        K[0] /= K[0].sum()
        residual = detailed_balance_check(Kernel(matrix=K), Pmf(p=np.array([0.5, 0.5])))
        assert residual >= 1e-4

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            detailed_balance_check(Kernel(matrix=np.eye(3)), Pmf(p=np.array([0.5, 0.5])))


class TestSpectral:
    def test_two_state_closed_form(self):
        p = 0.3
        K = Kernel(matrix=np.array([[1 - p, p], [p, 1 - p]]))
        pmf = Pmf(p=np.array([0.5, 0.5]))
        report = spectral_tv_bound_check(K, pmf, n_max=30)
        assert report.lambda_star == pytest.approx(abs(1 - 2 * p), abs=1e-12)
        assert report.lambda0_ok and report.bound_holds

    def test_identity_kernel_trivial_bound(self):
        pmf = Pmf(p=np.array([0.25, 0.25, 0.5]))
        report = spectral_tv_bound_check(Kernel(matrix=np.eye(3)), pmf, n_max=10)
        assert report.lambda_star == pytest.approx(1.0, abs=1e-12)
        assert report.bound_holds

    def test_bound_on_balanced_joint_kernel(self, two_spin_ising):
        low = ChainParams(alpha=0.2, tau=1.0)
        high = ChainParams(alpha=0.4, tau=2.0)
        pt = intermediate_pair_pmf(two_spin_ising, low, high)
        K = balanced_joint_kernel(two_spin_ising, low, high)
        report = spectral_tv_bound_check(K, pt, n_max=50)
        assert report.lambda0_ok
        assert report.bound_holds
        assert report.reconstruction_error <= 1e-9

    def test_non_reversible_kernel_rejected(self, two_spin_ising):
        low = ChainParams(alpha=0.2, tau=1.0)
        high = ChainParams(alpha=0.4, tau=2.0)
        pt = intermediate_pair_pmf(two_spin_ising, low, high)
        K = exact_joint_kernel(two_spin_ising, low, high, SwapConfig(variant="history", rho=1.0))
        with pytest.raises(PreconditionError):
            spectral_tv_bound_check(K, pt, n_max=10)

class TestBlockGibbs:
    def test_zero_weights_uniform(self):
        dom = DomainSpec.binary01(5)
        rbm = RbmFreeEnergy(domain=dom, W=np.zeros((3, 5)), c=np.zeros(3), b=np.zeros(5))
        rng = substream(0, SALT_LOW)
        total = np.zeros(5)
        n = 4000
        v = np.zeros(5, dtype=np.int64)
        for _ in range(n):
            v = block_gibbs_rbm_step(rbm, v, rng)
            total += v
        freq = total / n
        assert np.abs(freq - 0.5).max() <= 4 * 0.5 / np.sqrt(n)

    def test_strong_bias_pins_units(self):
        dom = DomainSpec.binary01(3)
        rbm = RbmFreeEnergy(domain=dom, W=np.zeros((2, 3)), c=np.zeros(2), b=np.full(3, 10.0))
        rng = substream(1, SALT_LOW)
        n = 20000
        ones = 0
        v = np.zeros(3, dtype=np.int64)
        for _ in range(n):
            v = block_gibbs_rbm_step(rbm, v, rng)
            ones += int(v.sum())
        freq = ones / (3 * n)
        assert freq == pytest.approx(1 / (1 + np.exp(-10.0)), abs=3e-4)

    @pytest.mark.slow
    def test_visible_marginals_match_enumeration(self, small_rbm):
        """1e6 Gibbs sweeps vs the enumerated visible marginals, within 3 SE."""
        pi = enumerate_target(small_rbm)
        marginals = pi.p @ embed_all(small_rbm.domain)
        rng = substream(5, SALT_LOW)
        v = np.zeros(6, dtype=np.int64)
        n = 1_000_000
        total = np.zeros(6)
        for _ in range(n):
            v = block_gibbs_rbm_step(small_rbm, v, rng)
            total += v
        freq = total / n
        # effective sample size is reduced by autocorrelation; Gibbs on this
        # small RBM decorrelates within ~10 sweeps
        se = np.sqrt(marginals * (1 - marginals) / (n / 10))
        assert np.all(np.abs(freq - marginals) <= 3 * se)

    def test_spin_domain_rejected(self):
        rng = substream(0, SALT_LOW)
        bad = RbmFreeEnergy(domain=DomainSpec.spin_pm1(2), W=np.zeros((2, 2)), c=np.zeros(2), b=np.zeros(2))
        with pytest.raises(DomainError):
            block_gibbs_rbm_step(bad, np.array([0, 1]), rng)
