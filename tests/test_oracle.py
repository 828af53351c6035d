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

from drexel import ChainParams, SwapConfig, make_ising_chain, make_ising_lattice, make_synthetic, oracle
from drexel.domains import DomainSpec, embed_all
from drexel.energies import QuadraticEnergy, RbmFreeEnergy, _sigmoid
from drexel.errors import CapacityError, DomainError, NumericError, PreconditionError, UnsupportedModelError
from drexel.oracle import (
    Kernel,
    Pmf,
    _rows_that_can_hold_the_max,
    _swap_prob_grid,
    balanced_joint_kernel,
    colour_classes,
    detailed_balance_check,
    enumerate_target,
    exact_joint_kernel,
    exact_single_kernel,
    heat_bath_sweep,
    intermediate_pair_pmf,
    log_proposal_normalizers,
    spectral_tv_bound_check,
    tempered_pair_pmf,
)
from drexel.rng import SALT_LOW, SALT_REFERENCE, substream
from drexel.sampler import _swap_probs

from conftest import random_coupling, traced_peak
from test_sampler import binomial_pvalues


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
            enumerate_target(model)


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

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 1.3])
    def test_mh_diagonal_never_rounds_below_zero(self, alpha):
        """On the 32-level moon grid some rows' moves sum to just above 1; the diagonal stays >= 0."""
        model = make_synthetic("moon", levels=32)
        K = exact_single_kernel(model, ChainParams(alpha=alpha, tau=1.0, mh_enabled=True)).matrix
        assert K.min() >= 0
        assert np.abs(K.sum(axis=1) - 1).max() <= 1e-10
        assert detailed_balance_check(Kernel(matrix=K), enumerate_target(model)) <= 1e-12

    def test_kernel_strictly_positive(self, two_spin_ising):
        K = exact_single_kernel(two_spin_ising, ChainParams(alpha=0.4, mh_enabled=True))
        assert K.matrix.min() > 0

    def test_unadjusted_kernel_reversible_wrt_weighted_target(self, three_spin_ising):
        """DULA balance holds exactly against the normalizer-weighted target."""
        params = ChainParams(alpha=0.3, tau=1.4)
        K = exact_single_kernel(three_spin_ising, params)
        z = np.exp(log_proposal_normalizers(three_spin_ising, params))
        u = three_spin_ising.value_batch(embed_all(three_spin_ising.domain))
        p = z * np.exp(u / params.tau - u.max())
        pmf = Pmf(p=p / p.sum())
        assert detailed_balance_check(K, pmf) <= 1e-14


class TestProposalNormalizers:
    def test_two_term_sum_flat_energy(self):
        dom = DomainSpec.binary01(1)
        model = QuadraticEnergy(domain=dom, J=np.zeros((1, 1)), b=np.zeros(1), w=1.0)
        z = np.exp(log_proposal_normalizers(model, ChainParams(alpha=1.0)))
        assert np.allclose(z, 1 + np.exp(-0.5), atol=1e-14)

    def test_tiny_step_size_limit(self, two_spin_ising):
        z = np.exp(log_proposal_normalizers(two_spin_ising, ChainParams(alpha=1e-3)))
        assert np.all(z >= 1.0)
        assert np.all(z <= 1.0 + 1e-100)

    def test_monotone_in_step_size(self, two_spin_ising):
        # fine ordinal grid: all three step sizes leave a resolvable tail
        dom = DomainSpec.ordinal_grid(1, levels=17, lo=-2.0, hi=2.0)
        model = QuadraticEnergy(domain=dom, J=np.zeros((1, 1)), b=np.ones(1), w=1.0)
        values = [np.exp(log_proposal_normalizers(model, ChainParams(alpha=a))) for a in (0.5, 0.05, 0.005)]
        assert np.all(values[0] > values[1])
        assert np.all(values[1] > values[2])
        assert np.all(values[2] > 1.0)
        # spin flips are 2 apart: the tail underflows to exactly 1 already at 0.05
        spin_values = [np.exp(log_proposal_normalizers(two_spin_ising, ChainParams(alpha=a))) for a in (0.5, 0.05, 0.005)]
        assert np.all(spin_values[0] > spin_values[1])
        assert np.all(spin_values[1] >= spin_values[2])
        assert np.all(spin_values[2] == 1.0)

    def test_binomial_identity_with_proposal_softmax(self, three_spin_ising):
        """Appendix-form normalizer equals the product of softmax denominators.

        The stay logit is 0, so the kernel's stay probability Q(x, x) is the
        reciprocal of that product.
        """
        params = ChainParams(alpha=0.37, tau=2.1)
        z = np.exp(log_proposal_normalizers(three_spin_ising, params))
        stay = np.diag(exact_single_kernel(three_spin_ising, params).matrix)
        assert np.abs(z - 1.0 / stay).max() <= 1e-12 * z.max()

    def test_any_energy_stay_probability(self, small_rbm):
        """The normalizer reads only the sampler's logits, so it needs no log-quadratic energy."""
        params = ChainParams(alpha=0.5, tau=1.3)
        z = np.exp(log_proposal_normalizers(small_rbm, params))
        stay = np.diag(exact_single_kernel(small_rbm, params).matrix)
        assert np.abs(z - 1.0 / stay).max() <= 1e-12 * z.max()

    def test_spin_flip_closed_form_on_the_4x4_torus(self):
        """65,536 states: a spin flip's logit is -g_d x_d / tau - 2 / alpha, so log Z = sum_d log1p(exp of it)."""
        model = make_ising_lattice(4, 0.15, HEAT_BATH_FIELD, periodic=True)
        params = ChainParams(alpha=0.7, tau=1.3)
        xs = embed_all(model.domain)
        g = model.value_and_grad_batch(xs)[1]
        expected = np.log1p(np.exp(-g * xs / params.tau - 2.0 / params.alpha)).sum(axis=1)
        assert np.abs(log_proposal_normalizers(model, params) - expected).max() <= 1e-12

    def test_capacity_guard_allocates_nothing(self):
        """2^20 states of 2 x 1024 logits each: refused before the table, or the state list, is built."""
        dom = DomainSpec.ordinal_grid(2, levels=1024, lo=0.0, hi=1.0)
        model = QuadraticEnergy(domain=dom, J=np.zeros((2, 2)), b=np.zeros(2), w=1.0)

        def refused():
            with pytest.raises(CapacityError, match="proposal logit entries"):
                log_proposal_normalizers(model, ChainParams(alpha=0.5))

        assert traced_peak(refused) < 1 << 20

    def test_non_quadratic_model_rejected(self, small_rbm):
        """The pair target and the balanced kernel need DULA's Z-weighted invariance, which only log-quadratic energies give."""
        for oracle in (intermediate_pair_pmf, balanced_joint_kernel):
            with pytest.raises(UnsupportedModelError):
                oracle(small_rbm, ChainParams(alpha=0.5), ChainParams(alpha=0.8, tau=2.0))


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

    def test_swap_grid_matches_the_pairwise_swap_probs(self, two_spin_ising):
        """Each grid entry is the swap probability of its previous states (x1, x2) and next states (w1, w2)."""
        u = two_spin_ising.value_batch(embed_all(two_spin_ising.domain))
        for variant, sigma2 in (("bias_corrected", 0.0), ("bias_corrected", 1.3), ("history", 0.0)):
            cfg = SwapConfig(variant=variant, rho=0.8, sigma2=sigma2)
            grid = _swap_prob_grid(cfg, 1.0, 2.0, u)
            for x1 in range(4):
                for x2 in range(4):
                    for w1 in range(4):
                        for w2 in range(4):
                            direct = _swap_probs(cfg, 1.0, 2.0, u[w1], u[w2], u[x1], u[x2])
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
        naive_swap = SwapConfig(variant="bias_corrected", rho=1.0, sigma2=0.0)
        naive = exact_joint_kernel(two_spin_ising, self.low, self.high, naive_swap)
        res_naive = detailed_balance_check(naive, pt)
        assert res_naive == pytest.approx(5.2752e-4, rel=1e-3)

    def test_balanced_kernel_exactly_reversible(self, two_spin_ising):
        pt = intermediate_pair_pmf(two_spin_ising, self.low, self.high)
        for rho in (1.0, 0.35):
            K = balanced_joint_kernel(two_spin_ising, self.low, self.high, rho=rho)
            assert np.abs(K.matrix.sum(axis=1) - 1).max() <= 1e-12
            assert detailed_balance_check(K, pt) <= 1e-14

    @pytest.mark.parametrize("dim, levels", [(2, 4), (3, 3)])
    def test_balanced_kernel_on_ordinal_model_with_field(self, dim, levels):
        """More than two levels and a non-zero field: rows sum to 1 and balance holds to 1e-12."""
        dom = DomainSpec.ordinal_grid(dim, levels=levels, lo=-1.0, hi=1.0)
        model = QuadraticEnergy(domain=dom, J=random_coupling(dim, 1.0, 3), b=np.linspace(-0.4, 0.5, dim), w=0.7)
        low, high = ChainParams(alpha=0.2, tau=1.0), ChainParams(alpha=0.45, tau=2.3)
        K = balanced_joint_kernel(model, low, high, rho=0.8)
        assert np.abs(K.matrix.sum(axis=1) - 1).max() <= 1e-12
        assert detailed_balance_check(K, intermediate_pair_pmf(model, low, high)) <= 1e-12

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


def _nan_where_first_spin_up(model, which):
    """model with its energy (which = 0) or gradient (which = 1) NaN at every state whose first spin is +1."""

    class NanAt(QuadraticEnergy):
        def value_and_grad_batch(self, xs):
            out = list(super().value_and_grad_batch(xs))
            up = xs[:, 0] > 0
            out[which] = np.where(up if which == 0 else up[:, None], np.nan, out[which])
            return tuple(out)

    return NanAt(domain=model.domain, J=model.J, b=model.b, w=model.w)


class TestNonFiniteFailsLoudly:
    """NaN fails every comparison of a range check, so the checks test finiteness first."""

    def test_kernel_rejects_nan(self):
        with pytest.raises(NumericError):
            Kernel(matrix=np.full((2, 2), np.nan))

    def test_pmf_rejects_nan(self):
        with pytest.raises(NumericError):
            Pmf(p=np.array([np.nan, np.nan]))

    def test_enumerate_target_on_nan_energy(self, two_spin_ising):
        with pytest.raises(NumericError):
            enumerate_target(_nan_where_first_spin_up(two_spin_ising, 0))

    @pytest.mark.parametrize("mh", [False, True])
    def test_single_kernel_on_nan_gradient(self, two_spin_ising, mh):
        model = _nan_where_first_spin_up(two_spin_ising, 1)
        with pytest.raises(NumericError, match="gradient entries not finite"):
            exact_single_kernel(model, ChainParams(alpha=0.3, mh_enabled=mh))


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

    def test_non_reversible_kernel_rejected(self, two_spin_ising):
        low = ChainParams(alpha=0.2, tau=1.0)
        high = ChainParams(alpha=0.4, tau=2.0)
        pt = intermediate_pair_pmf(two_spin_ising, low, high)
        K = exact_joint_kernel(two_spin_ising, low, high, SwapConfig(variant="history", rho=1.0))
        with pytest.raises(PreconditionError):
            spectral_tv_bound_check(K, pt, n_max=10)

    @staticmethod
    def every_row_violation(K, pmf, lambda_star, n_max):
        """The maximum of TV - bound over n = 1..n_max with every row of K^n stepped: the reference for the skip."""
        Kn = np.eye(K.shape[0])
        worst = -np.inf
        for step in range(1, n_max + 1):
            Kn = Kn @ K
            tv = 0.5 * np.abs(Kn - pmf.p[None, :]).sum(axis=1)
            worst = max(worst, float((tv - lambda_star**step / (2.0 * np.sqrt(pmf.p)) - oracle.SPECTRAL_SLACK).max()))
        return worst

    # (kernel, n_max, SPECTRAL_SLACK, whether some row is skipped, whether the bound holds); the negative
    # slacks make the maximum a positive violation, on a kernel where no row is skipped and on one where most are
    @pytest.mark.parametrize("which, n_max, slack, skips, holds", [
        (2, 50, oracle.SPECTRAL_SLACK, False, True),
        (3, 50, oracle.SPECTRAL_SLACK, True, True),
        (4, 50, oracle.SPECTRAL_SLACK, True, True),
        ("identity", 10, oracle.SPECTRAL_SLACK, False, True),
        (4, 1, oracle.SPECTRAL_SLACK, True, True),
        ("identity", 10, -0.5, False, False),
        (4, 50, -3.0, True, False),
    ])
    def test_skipped_rows_cannot_hold_the_max(self, monkeypatch, which, n_max, slack, skips, holds):
        """The reported violation equals the one with every row stepped, to 1e-12 relative."""
        monkeypatch.setattr(oracle, "SPECTRAL_SLACK", slack)
        if which == "identity":
            K, pmf = Kernel(matrix=np.eye(3)), Pmf(p=np.array([0.25, 0.25, 0.5]))
        else:
            model = make_ising_chain(which, 0.15, np.zeros(which))
            low, high = ChainParams(alpha=0.2, tau=1.0), ChainParams(alpha=0.4, tau=2.0)
            K, pmf = balanced_joint_kernel(model, low, high), intermediate_pair_pmf(model, low, high)
        report = spectral_tv_bound_check(K, pmf, n_max=n_max)
        expected = self.every_row_violation(K.matrix, pmf, report.lambda_star, n_max)
        assert report.max_bound_violation == pytest.approx(expected, rel=1e-12, abs=0)
        assert report.bound_holds is holds
        assert (not _rows_that_can_hold_the_max(K.matrix, pmf, report.lambda_star, n_max).all()) is skips


class TestBlockGibbs:
    def test_zero_weights_uniform(self):
        dom = DomainSpec.binary01(5)
        rbm = RbmFreeEnergy(domain=dom, W=np.zeros((3, 5)), c=np.zeros(3), b=np.zeros(5))
        rng = substream(0, SALT_LOW)
        total = np.zeros(5)
        n = 4000
        v = np.zeros((1, 5))
        for _ in range(n):
            v = rbm.block_gibbs(v, rng)
            total += v[0]
        freq = total / n
        assert np.abs(freq - 0.5).max() <= 4 * 0.5 / np.sqrt(n)

    def test_strong_bias_pins_units(self):
        dom = DomainSpec.binary01(3)
        rbm = RbmFreeEnergy(domain=dom, W=np.zeros((2, 3)), c=np.zeros(2), b=np.full(3, 10.0))
        rng = substream(1, SALT_LOW)
        n = 20000
        ones = 0
        v = np.zeros((1, 3))
        for _ in range(n):
            v = rbm.block_gibbs(v, rng)
            ones += int(v.sum())
        freq = ones / (3 * n)
        assert freq == pytest.approx(1 / (1 + np.exp(-10.0)), abs=3e-4)

    @pytest.mark.slow
    def test_visible_marginals_match_enumeration(self, small_rbm):
        """1e6 Gibbs sweeps vs the enumerated visible marginals, within 3 SE."""
        pi = enumerate_target(small_rbm)
        marginals = pi.p @ embed_all(small_rbm.domain)
        rng = substream(5, SALT_LOW)
        v = np.zeros((1, 6))
        n = 1_000_000
        total = np.zeros(6)
        for _ in range(n):
            v = small_rbm.block_gibbs(v, rng)
            total += v[0]
        freq = total / n
        # effective sample size is reduced by autocorrelation; Gibbs on this
        # small RBM decorrelates within ~10 sweeps
        se = np.sqrt(marginals * (1 - marginals) / (n / 10))
        assert np.all(np.abs(freq - marginals) <= 3 * se)

    def test_given_hidden_means_draw_the_same_sweep(self, small_rbm):
        """Passing the hidden means the caller holds changes neither the draws nor the result."""
        v = (np.random.default_rng(2).random((5, 6)) < 0.5).astype(float)
        h_means = _sigmoid(small_rbm.pre_activation(v))
        given, computed = (small_rbm.block_gibbs(v, substream(3, SALT_LOW), h) for h in (h_means, None))
        assert np.array_equal(given, computed)

    def test_spin_domain_rejected(self):
        rng = substream(0, SALT_LOW)
        bad = RbmFreeEnergy(domain=DomainSpec.spin_pm1(2), W=np.zeros((2, 2)), c=np.zeros(2), b=np.zeros(2))
        with pytest.raises(DomainError):
            bad.block_gibbs(np.array([[0.0, 1.0]]), rng)


def _spin_model(J):
    return QuadraticEnergy(domain=DomainSpec.spin_pm1(J.shape[0]), J=J, b=np.zeros(J.shape[0]), w=0.15)


class TestColourClasses:
    @pytest.mark.parametrize(
        "model, classes",
        [
            (make_ising_lattice(32, 0.15, np.zeros(1024), periodic=True), 2),
            # a 3-colouring of the odd tori exists, but greedy in index order
            # finds none: on 3^2, sites 2, 3 and 4 take colours 2, 1 and 0,
            # all three neighbours of site 5
            (make_ising_lattice(5, 0.15, np.zeros(25), periodic=True), 4),
            (make_ising_lattice(3, 0.15, np.zeros(9), periodic=True), 4),
            (make_ising_lattice(4, 0.15, np.zeros(16), periodic=False), 2),
            (make_ising_chain(7, 0.15, np.zeros(7)), 2),
            (_spin_model(random_coupling(60, 0.08, 3)), None),
        ],
        ids=["torus32", "torus5", "torus3", "open4", "chain7", "random60"],
    )
    def test_proper_colouring(self, model, classes):
        """Every site in exactly one class, ascending; no coupling inside a class; at most max degree + 1 classes."""
        found = colour_classes(model)
        assert np.array_equal(np.sort(np.concatenate(found)), np.arange(model.domain.dim))
        for sites in found:
            assert np.all(np.diff(sites) > 0)
            assert not model.J[np.ix_(sites, sites)].any()
        assert len(found) <= int((model.J != 0).sum(axis=1).max()) + 1
        if classes is not None:
            assert len(found) == classes

    def test_needs_spins_with_a_zero_diagonal(self, small_rbm):
        with pytest.raises(DomainError):
            colour_classes(_spin_model(np.diag([0.0, 1.0, 0.0])))
        with pytest.raises(DomainError):
            colour_classes(QuadraticEnergy(domain=DomainSpec.binary01(2), J=np.zeros((2, 2)), b=np.zeros(2)))
        with pytest.raises(UnsupportedModelError):
            colour_classes(small_rbm)


# 4 x 4 torus at w = 0.15 with a non-uniform field: the heat-bath reference's target
HEAT_BATH_FIELD = np.linspace(-0.4, 0.4, 16)
HEAT_BATH_CHAINS, HEAT_BATH_SWEEPS = 10_000, 40


def heat_bath_pvalue(model, seed):
    """Bonferroni p-value over 16 sites and 32 edges of "the final states of independent heat-bath chains follow pi".

    Each of HEAT_BATH_CHAINS chains starts from uniform spins and runs
    HEAT_BATH_SWEEPS sweeps of model's heat-bath, far past mixing at this
    coupling (with 10^5 chains, 5 sweeps already show no bias).  A site's
    +1 count is then Binomial(chains, (1 + E[x_d]) / 2), and an edge's count
    of equal spins Binomial(chains, (1 + E[x_i x_j]) / 2), with expectations
    on the 4 x 4 torus at w = 0.15 by enumeration; each count is tested by
    its exact tail.  The edges see a sweep that breaks the pair law, such as
    updating all sites at once, which single-site marginals alone miss.
    """
    target = make_ising_lattice(4, 0.15, HEAT_BATH_FIELD, periodic=True)
    i, j = np.nonzero(np.triu(target.J))
    emb = embed_all(target.domain)
    features = np.hstack([emb, emb[:, i] * emb[:, j]])
    expected = enumerate_target(target).p @ features
    rng = substream(seed, SALT_REFERENCE)
    spins = np.where(rng.random((HEAT_BATH_CHAINS, 16)) < 0.5, 1.0, -1.0)
    classes = colour_classes(model)
    for _ in range(HEAT_BATH_SWEEPS):
        spins = heat_bath_sweep(model, classes, spins, rng)
    counts = (np.hstack([spins, spins[:, i] * spins[:, j]]) > 0).sum(axis=0)[None, :]
    pvalues = binomial_pvalues(counts, np.array([HEAT_BATH_CHAINS]), (1.0 + expected)[None, :] / 2.0)
    return min(1.0, float(pvalues.min()) * pvalues.size)


class TestHeatBath:
    def test_site_and_edge_laws_match_enumeration(self):
        """Family-wise false-alarm rate 1e-3; the seed was fixed before the first run."""
        assert heat_bath_pvalue(make_ising_lattice(4, 0.15, HEAT_BATH_FIELD, periodic=True), seed=1) >= 1e-3

    @pytest.mark.parametrize(
        "w, field",
        [(0.3, HEAT_BATH_FIELD), (0.075, HEAT_BATH_FIELD / 2)],
        ids=["coupling-doubled", "sigmoid-g-conditional"],
    )
    def test_statistic_rejects_a_perturbed_conditional(self, w, field):
        """Power: a doubled coupling, or sigmoid(g) in place of sigmoid(2 g) (half of w and b), is rejected."""
        assert heat_bath_pvalue(make_ising_lattice(4, w, field, periodic=True), seed=1) < 1e-3

    def test_strong_field_pins_the_spins(self):
        """With |b| = 40 every conditional is 0 or 1 to double precision: the sweep sets each spin to sign(b).

        The spins passed in are left as they were.
        """
        b = np.where(np.arange(16) % 3 == 0, -40.0, 40.0)
        model = make_ising_lattice(4, 0.15, b, periodic=True)
        start = np.ones((3, 16))
        out = heat_bath_sweep(model, colour_classes(model), start, substream(2, SALT_REFERENCE))
        assert np.array_equal(out, np.broadcast_to(np.sign(b), (3, 16)))
        assert np.array_equal(start, np.ones((3, 16)))
