"""Proposal construction, Metropolis decisions, swap functions, replica stepping, all through the one kernel."""

import functools
import hashlib
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drexel import (
    ChainParams,
    RunConfig,
    SwapConfig,
    binary_flip_probs,
    make_ising_chain,
    make_synthetic,
    proposal_logits,
    run_batch,
    run_sampler,
    swap_probability,
)
from drexel.domains import DomainSpec
from drexel.energies import EnergyModel, QuadraticEnergy
from drexel.errors import DomainError, NumericError
from drexel.rng import SALT_LOW, substream
from drexel.sampler import _accepts, _Kernel
from test_golden import GOLDEN, golden_config, trace_digest


def zero_gradient_model(domain):
    d = domain.dim
    return QuadraticEnergy(domain=domain, J=np.zeros((d, d)), b=np.zeros(d), w=1.0)


def softmax(logits):
    z = np.exp(logits - logits.max())
    return z / z.sum()


def one_chain(model, state, params):
    """A one-chain kernel and its chain evaluated at state."""
    kernel = _Kernel(model, (params,))
    return kernel, kernel.evaluate(np.array([state]))


def propose(kernel, chains, rng):
    """One proposal of a one-chain kernel: (proposal, forward log q, reverse log q)."""
    new, forward_logq, reverse_logq = kernel.propose(chains, rng.random((1, chains.states.shape[1])))
    return new.states[0], forward_logq[0], reverse_logq[0]


class TestProposalLogits:
    def test_ordinal_three_levels_stay_probability(self):
        dom = DomainSpec.ordinal_grid(1, levels=3, lo=-1.0, hi=1.0)
        model = zero_gradient_model(dom)
        logits = proposal_logits(model, np.array([1]), ChainParams(alpha=2.0, tau=1.0), coord=0)
        assert np.allclose(logits, [-0.25, 0.0, -0.25])
        assert softmax(logits)[1] == pytest.approx(1 / (1 + 2 * np.exp(-0.25)), abs=1e-12)

    def test_binary_flip_probability_with_gradient(self):
        dom = DomainSpec.binary01(1)
        model = QuadraticEnergy(domain=dom, J=np.zeros((1, 1)), b=np.array([2.0]), w=1.0)
        logits = proposal_logits(model, np.array([0]), ChainParams(alpha=1.0, tau=1.0), coord=0)
        p = softmax(logits)
        assert p[1] == pytest.approx(1 / (1 + np.exp(-0.5)), abs=1e-12)  # sigma(0.5) ~ 0.62246

    def test_spin_flip_distance_two(self):
        dom = DomainSpec.spin_pm1(1)
        model = zero_gradient_model(dom)
        logits = proposal_logits(model, np.array([0]), ChainParams(alpha=2.0, tau=1.0), coord=0)
        assert logits[1] - logits[0] == pytest.approx(-1.0, abs=1e-12)
        assert softmax(logits)[1] == pytest.approx(1 / (1 + np.e), abs=1e-12)  # sigma(-1) ~ 0.26894

    def test_coordinate_out_of_range(self):
        dom = DomainSpec.binary01(2)
        with pytest.raises(DomainError):
            proposal_logits(zero_gradient_model(dom), np.array([0, 0]), ChainParams(alpha=1.0), coord=2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_softmax_normalizes(self, seed):
        rng = np.random.default_rng(seed)
        dom = DomainSpec.ordinal_grid(3, levels=7, lo=-2, hi=2)
        J = np.zeros((3, 3))
        model = QuadraticEnergy(domain=dom, J=J, b=rng.normal(size=3), w=1.0)
        state = rng.integers(0, 7, size=3)
        for coord in range(3):
            p = softmax(proposal_logits(model, state, ChainParams(alpha=0.5), coord))
            assert abs(p.sum() - 1.0) <= 1e-12


class TestBinaryFlipProbs:
    def test_zero_gradient_closed_form(self):
        dom = DomainSpec.binary01(4)
        p = binary_flip_probs(zero_gradient_model(dom), np.zeros(4, dtype=int), ChainParams(alpha=1.0))
        assert np.allclose(p, 1 / (1 + np.exp(0.5)), atol=1e-15)  # sigma(-1/2) ~ 0.37754

    def test_huge_step_size_limits_to_half(self):
        dom = DomainSpec.spin_pm1(3)
        p = binary_flip_probs(zero_gradient_model(dom), np.zeros(3, dtype=int), ChainParams(alpha=1e12))
        assert np.allclose(p, 0.5, atol=1e-11)

    @pytest.mark.parametrize("kind", ["binary01", "spin_pm1"])
    def test_agrees_with_categorical_softmax(self, kind):
        """Closed form vs the generic two-category softmax, 1000 random states."""
        rng = np.random.default_rng(23)
        dom = DomainSpec.binary01(8) if kind == "binary01" else DomainSpec.spin_pm1(8)
        J = rng.integers(0, 2, size=(8, 8)).astype(float)
        J = np.triu(J, 1)
        J = J + J.T
        model = QuadraticEnergy(domain=dom, J=J, b=rng.normal(size=8), w=0.2)
        params = ChainParams(alpha=0.7, tau=1.3)
        worst = 0.0
        for _ in range(1000):
            state = rng.integers(0, 2, size=8)
            closed = binary_flip_probs(model, state, params)
            for d in range(8):
                p = softmax(proposal_logits(model, state, params, d))
                worst = max(worst, abs(p[1 - state[d]] - closed[d]))
        assert worst <= 1e-12

    def test_ordinal_domain_rejected(self):
        dom = DomainSpec.ordinal_grid(2, levels=5, lo=0, hi=1)
        with pytest.raises(DomainError):
            binary_flip_probs(zero_gradient_model(dom), np.zeros(2, dtype=int), ChainParams(alpha=1.0))


class TestDlsStep:
    def test_tiny_step_stays_put(self):
        dom = DomainSpec.ordinal_grid(2, levels=9, lo=-2, hi=2)
        model = zero_gradient_model(dom)
        params = ChainParams(alpha=1e-9)
        state = np.array([4, 4])
        for coord in range(2):
            p = softmax(proposal_logits(model, state, params, coord))
            assert p[state[coord]] >= 1 - 1e-6
        kernel, chains = one_chain(model, state, params)
        rng = substream(0, SALT_LOW)
        for _ in range(100):
            assert np.array_equal(propose(kernel, chains, rng)[0], state)

    def test_zero_gradient_flip_frequency(self):
        """Empirical flips vs sigma(-0.5) = 0.37754 over 1e5 coordinate draws."""
        dom = DomainSpec.binary01(100)
        model = zero_gradient_model(dom)
        rng = substream(1, SALT_LOW)
        kernel, chains = one_chain(model, np.zeros(100, dtype=np.int64), ChainParams(alpha=1.0))
        flips = 0
        for _ in range(1000):
            flips += int(propose(kernel, chains, rng)[0].sum())
        freq = flips / 100_000
        assert freq == pytest.approx(1 / (1 + np.exp(0.5)), abs=0.005)

    def test_same_seed_same_proposal(self):
        dom = DomainSpec.ordinal_grid(3, levels=11, lo=-2, hi=2)
        rng = np.random.default_rng(9)
        model = QuadraticEnergy(domain=dom, J=np.zeros((3, 3)), b=rng.normal(size=3), w=1.0)
        state = np.array([5, 2, 8])
        prop1, fwd1, _ = propose(*one_chain(model, state, ChainParams(alpha=0.3)), substream(42, SALT_LOW))
        prop2, fwd2, _ = propose(*one_chain(model, state, ChainParams(alpha=0.3)), substream(42, SALT_LOW))
        assert np.array_equal(prop1, prop2)
        assert fwd1 == fwd2

    def test_forward_logq_matches_manual(self):
        dom = DomainSpec.spin_pm1(2)
        model = make_ising_chain(2, 0.15, np.zeros(2))
        params = ChainParams(alpha=0.4, tau=1.0, mh_enabled=True)
        state = np.array([0, 1])
        proposal, forward_logq, reverse_logq = propose(*one_chain(model, state, params), substream(3, SALT_LOW))
        expected = 0.0
        for d in range(2):
            p = softmax(proposal_logits(model, state, params, d))
            expected += np.log(p[proposal[d]])
        assert forward_logq == pytest.approx(expected, abs=1e-12)
        rev = 0.0
        for d in range(2):
            p = softmax(proposal_logits(model, proposal, params, d))
            rev += np.log(p[state[d]])
        assert reverse_logq == pytest.approx(rev, abs=1e-12)


class TestMhAccept:
    def test_identity_proposal_always_accepted(self, two_spin_ising):
        params = ChainParams(alpha=1e-9, tau=1.0, mh_enabled=True)
        rng = substream(7, SALT_LOW)
        state = np.array([0, 1])
        kernel, chains = one_chain(two_spin_ising, state, params)
        for _ in range(50):
            chains, _, _, _, accepted = kernel.step(chains, kernel.draw((rng,)))
            assert accepted[0]
            assert np.array_equal(chains.states[0], state)

    def test_acceptance_formula_on_energy_increase(self, two_spin_ising):
        """With a symmetric proposal the acceptance is exactly exp(dU / tau)."""
        params = ChainParams(alpha=0.5, tau=2.0, mh_enabled=True)
        state = np.array([0, 1])  # U = -0.3
        proposal = np.array([1, 1])  # U = +0.3 -> downhill in -U, accepted always
        fwd = rev = 0.0
        for d in range(2):
            p_f = softmax(proposal_logits(two_spin_ising, state, params, d))
            p_r = softmax(proposal_logits(two_spin_ising, proposal, params, d))
            fwd += np.log(p_f[proposal[d]])
            rev += np.log(p_r[state[d]])
        log_a = (0.3 - (-0.3)) / params.tau + rev - fwd
        # reverse direction: energy decreases, acceptance < 1
        log_a_rev = ((-0.3) - 0.3) / params.tau + fwd - rev
        assert np.exp(min(0.0, log_a)) + np.exp(min(0.0, log_a_rev)) > 1.0  # one side is certain
        assert np.exp(log_a) * np.exp(log_a_rev) == pytest.approx(1.0, abs=1e-12)

    def test_nan_log_ratio_never_accepts(self):
        u = np.append(substream(4, SALT_LOW).random(100), 0.0)
        assert not _accepts(np.full(u.shape, np.nan), u).any()


class TestSwapProbability:
    def test_equal_energies_history(self):
        cfg = SwapConfig(variant="history", rho=1.0)
        assert swap_probability(cfg, 1.0, 2.0, -5.0, -5.0, -5.0, -5.0) == 1.0

    def test_history_hand_value(self):
        cfg = SwapConfig(variant="history", rho=1.0)
        p = swap_probability(cfg, 1.0, 2.0, -1.0, -3.0, -1.0, -3.0)
        assert p == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_naive_hand_value(self):
        cfg = SwapConfig(variant="naive", rho=1.0)
        p = swap_probability(cfg, 1.0, 2.0, -1.0, -3.0, 0.0, 0.0)
        assert p == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_bias_corrected_reduces_to_naive_at_zero_sigma(self):
        naive = SwapConfig(variant="naive", rho=0.7)
        bias = SwapConfig(variant="bias_corrected", rho=0.7, sigma2=0.0)
        args = (1.0, 3.0, -2.0, -1.0, 0.5, 0.25)
        assert swap_probability(naive, *args) == swap_probability(bias, *args)

    def test_bias_correction_shifts_exponent(self):
        cfg = SwapConfig(variant="bias_corrected", rho=1.0, sigma2=2.0)
        beta = 1.0 / 2.0 - 1.0 / 1.0
        expected = min(1.0, np.exp(beta * (1.0 - beta * 2.0)))
        assert swap_probability(cfg, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0) == pytest.approx(expected, abs=1e-14)

    @given(
        st.floats(0.1, 5), st.floats(0.1, 5),
        st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20),
    )
    @settings(max_examples=200)
    def test_history_time_reversal_symmetry(self, t1, t2, un1, un2, up1, up2):
        """Exchanging next and previous energies leaves the probability unchanged, exactly."""
        cfg = SwapConfig(variant="history", rho=0.9)
        a = swap_probability(cfg, t1, t2, un1, un2, up1, up2)
        b = swap_probability(cfg, t1, t2, up1, up2, un1, un2)
        assert a == b

    def test_non_finite_energy_rejected(self):
        cfg = SwapConfig(variant="naive", rho=1.0)
        with pytest.raises(NumericError):
            swap_probability(cfg, 1.0, 2.0, np.inf, 0.0, 0.0, 0.0)

    def test_range(self):
        cfg = SwapConfig(variant="history", rho=0.25)
        p = swap_probability(cfg, 1.0, 2.0, 5.0, -5.0, 5.0, -5.0)
        assert 0.0 <= p <= 0.25

    @pytest.mark.parametrize("variant", ["naive", "bias_corrected", "history"])
    def test_extreme_energies_do_not_overflow(self, variant):
        """beta * dU of 1e6 must give rho or 0 without an overflow warning."""
        cfg = SwapConfig(variant=variant, rho=0.5, sigma2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert swap_probability(cfg, 1.0, 2.0, -1e6, 1e6, -1e6, 1e6) == 0.5
            assert swap_probability(cfg, 1.0, 2.0, 1e6, -1e6, 1e6, -1e6) == 0.0


class TestReplica:
    def test_rho_zero_matches_standalone_low_chain(self, two_spin_ising):
        replica = RunConfig(
            sampler="drexel", iterations=400, seed=12, alpha=0.2, tau=1.0,
            alpha_high=0.4, tau_high=2.0, rho=0.0,
        )
        single = RunConfig(sampler="dula", iterations=400, seed=12, alpha=0.2, tau=1.0)
        tr_pair = run_sampler(two_spin_ising, replica)
        tr_single = run_sampler(two_spin_ising, single)
        assert np.array_equal(tr_pair.states, tr_single.states)
        assert np.array_equal(tr_pair.energy_low, tr_single.energy_low)
        assert tr_pair.swap_successes == 0

    def test_identical_chains_always_swap(self, two_spin_ising):
        with pytest.warns(UserWarning):
            cfg = RunConfig(
                sampler="drexel", iterations=200, seed=4, alpha=0.3, tau=1.0,
                alpha_high=0.3, tau_high=1.0, rho=1.0,
            )
            trace = run_sampler(two_spin_ising, cfg)
        assert trace.swap_successes == trace.iterations

    def test_prev_energy_cache_consistency(self, two_spin_ising):
        """The carried energy, gradient and table equal a fresh evaluation after every step and swap test."""

        def assert_fresh(kernel, chains):
            fresh = kernel.evaluate(chains.states)
            for carried, expected in zip(chains[1:], fresh[1:]):
                assert np.array_equal(carried, expected)

        for mh in (False, True):  # a DREXEL and a DREAM pair
            params = ChainParams(alpha=0.2, tau=1.0, mh_enabled=mh), ChainParams(alpha=0.4, tau=2.0, mh_enabled=mh)
            kernel = _Kernel(two_spin_ising, params, SwapConfig(variant="history", rho=1.0))
            rng_low, rng_high, rng_swap = [substream(seed, SALT_LOW) for seed in (1, 2, 3)]
            chains = kernel.evaluate(np.array([[0, 0], [1, 0]]))
            swaps = 0
            for _ in range(50):
                prev_energy = chains.energy
                chains = kernel.step(chains, kernel.draw((rng_low, rng_high)))[0]
                assert_fresh(kernel, chains)
                chains, swapped = kernel.exchange(prev_energy, chains, np.array([rng_swap.random()]))
                assert_fresh(kernel, chains)
                swaps += int(swapped[0])
            assert 0 < swaps < 50

    def test_run_is_seed_deterministic(self, three_spin_ising):
        cfg = RunConfig(
            sampler="dream", iterations=300, seed=77, alpha=0.2, tau=1.0,
            alpha_high=0.5, tau_high=3.0,
        )
        a = run_sampler(three_spin_ising, cfg)
        b = run_sampler(three_spin_ising, cfg)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.energy_low, b.energy_low)
        assert np.array_equal(a.swapped, b.swapped)

    def test_single_iteration_trace_length(self, two_spin_ising):
        cfg = RunConfig(sampler="dula", iterations=1, seed=0, alpha=0.2)
        trace = run_sampler(two_spin_ising, cfg)
        assert trace.states.shape == (1, 2)

    def test_thinning_keeps_every_kth_state(self, two_spin_ising):
        full = run_sampler(two_spin_ising, RunConfig(sampler="dula", iterations=300, seed=5, alpha=0.4))
        thinned = run_sampler(two_spin_ising, RunConfig(sampler="dula", iterations=300, seed=5, alpha=0.4, thin=5))
        assert thinned.states.shape == (60, 2)
        assert np.array_equal(thinned.states, full.states[::5])
        assert np.array_equal(thinned.energy_low, full.energy_low)  # stats stay per-iteration

    def test_config_validation(self):
        with pytest.raises(DomainError):
            RunConfig(sampler="dream", iterations=10, seed=0, alpha=0.1)  # missing high chain
        with pytest.raises(DomainError):
            RunConfig(sampler="nope", iterations=10, seed=0, alpha=0.1)
        with pytest.raises(DomainError):
            ChainParams(alpha=-1.0)
        with pytest.raises(DomainError):
            SwapConfig(variant="history", rho=1.5)


class TestLongRunConvergence:
    """Unadjusted bias and empirical convergence on a tiny binary Ising chain.

    The bias claims are checked exactly through the kernels' stationary
    distributions; the long empirical runs then only need to clear the
    sampling-noise floor (about 0.015 total variation at 1e6 iterations for
    this instance, which is why the adjusted chain's budget is not tighter
    than the unadjusted one's).
    """

    @pytest.fixture
    def binary_chain(self):
        J = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
        return QuadraticEnergy(domain=DomainSpec.binary01(3), J=J, b=np.zeros(3), w=0.15)

    def test_exact_stationary_bias(self, binary_chain):
        from drexel.oracle import enumerate_target, exact_single_kernel

        pi = enumerate_target(binary_chain).p
        biases = {}
        for with_mh in (False, True):
            params = ChainParams(alpha=0.1, tau=1.0, mh_enabled=with_mh)
            K = exact_single_kernel(binary_chain, params).matrix
            evals, evecs = np.linalg.eig(K.T)
            st = np.real(evecs[:, np.argmin(np.abs(evals - 1))])
            st /= st.sum()
            biases[with_mh] = 0.5 * np.abs(st - pi).sum()
        assert 0.0 < biases[False] <= 0.02  # unadjusted bias, small but real
        assert biases[True] <= 1e-12  # the Metropolis correction removes it

    @pytest.mark.slow
    @pytest.mark.parametrize("sampler,budget", [("dula", 0.02), ("dmala", 0.03)])
    def test_empirical_tv_after_many_iterations(self, binary_chain, sampler, budget):
        from drexel.metrics import EmpiricalHist
        from drexel.oracle import enumerate_target

        pi = enumerate_target(binary_chain)
        cfg = RunConfig(sampler=sampler, iterations=1_000_000, seed=3, alpha=0.1)
        trace = run_sampler(binary_chain, cfg)
        hist = EmpiricalHist.from_states(trace.states, binary_chain.domain)
        tv = 0.5 * np.abs(hist.counts / hist.total - pi.p).sum()
        assert tv <= budget


def binomial_pvalues(counts: np.ndarray, row_n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Exact two-sided binomial p-values, 2 min(P[X <= c], P[X >= c]) capped at 1, per entry.

    Entry (i, j) tests c = counts[i, j] transitions i -> j among row_n[i]
    visits of i against X ~ Binomial(row_n[i], p[i, j]).  Exact tails stay
    valid where the expected count is far below 1, which a normal
    approximation is not: there a single count alone gives z > 4.
    """
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, int(row_n.max()) + 1)))])
    out = np.ones(p.shape)
    for i, j in np.ndindex(p.shape):
        c, n, q = int(counts[i, j]), int(row_n[i]), float(p[i, j])
        if not 0.0 < q < 1.0:
            out[i, j] = float(c == round(q * n))
            continue
        k = np.arange(n + 1)
        pmf = np.exp(log_fact[n] - log_fact[k] - log_fact[n - k] + k * np.log(q) + (n - k) * np.log1p(-q))
        out[i, j] = min(1.0, 2.0 * min(pmf[: c + 1].sum(), pmf[c:].sum()))
    return out


# family-wise false-alarm rate of the kernel tests: Bonferroni over all 256 entries
KERNEL_TEST_ALPHA = 1e-3


def kernel_test_pvalue(counts: np.ndarray, exact: np.ndarray) -> float:
    """Bonferroni p-value of "the counts are transitions of the exact kernel"; reject below KERNEL_TEST_ALPHA."""
    return min(1.0, float(binomial_pvalues(counts, counts.sum(axis=1), exact).min()) * exact.size)


KERNEL_RUNS = {
    # name: (Metropolis, iterations, low start, high start, seeds of the low, high and swap generators)
    "drexel": (False, 1_000_000, [0, 0], [1, 1], (100, 101, 102)),
    "dream": (True, 600_000, [0, 1], [1, 0], (200, 201, 202)),
}


def kernel_params(with_mh):
    return ChainParams(alpha=0.2, tau=1.0, mh_enabled=with_mh), ChainParams(alpha=0.4, tau=2.0, mh_enabled=with_mh)


@functools.lru_cache(maxsize=None)
def kernel_run_counts(name):
    """16 x 16 pair-state transition counts of one fixed-seed replica-pair run on the 2-spin Ising chain.

    One two-chain kernel is stepped as run_batch steps it: both chains'
    uniforms from the low and high generators, then the swap uniform.
    """
    from drexel.domains import state_index

    with_mh, iters, low, high, seeds = KERNEL_RUNS[name]
    model = make_ising_chain(2, 0.15, np.zeros(2))
    kernel = _Kernel(model, kernel_params(with_mh), SwapConfig(variant="history", rho=1.0))
    rng_low, rng_high, rng_swap = [substream(seed, SALT_LOW) for seed in seeds]
    chains = kernel.evaluate(np.array([low, high]))
    counts = np.zeros((16, 16))
    prev = state_index(chains.states[0], model.domain) * 4 + state_index(chains.states[1], model.domain)
    for _ in range(iters):
        kept = kernel.step(chains, kernel.draw((rng_low, rng_high)))[0]
        chains, _ = kernel.exchange(chains.energy, kept, np.array([rng_swap.random()]))
        cur = state_index(chains.states[0], model.domain) * 4 + state_index(chains.states[1], model.domain)
        counts[prev, cur] += 1
        prev = cur
    return counts


# sha256 of each run's count matrix: the draws, their order and every accept and swap decision
KERNEL_COUNTS_GOLDEN = {
    "drexel": "cde6e2decb0f0ff4c03bcaca1dd0e5d5358fef64d495f5aa09b64d3805769854",
    "dream": "4dadaffb462bdafd59f02cf8ff4862c50902cd218d34460e4c69dab0f70702af",
}


def exact_pair_kernel(name, swap):
    from drexel.oracle import exact_joint_kernel

    with_mh = KERNEL_RUNS[name][0]
    model = make_ising_chain(2, 0.15, np.zeros(2))
    return exact_joint_kernel(model, *kernel_params(with_mh), swap).matrix


class TestEmpiricalKernelMatchesOracle:
    """The running sampler and the enumerated joint kernel must be the same chain.

    Each test counts pair-state transitions over one long fixed-seed run
    and compares every one of the 256 entries with the exact kernel by an
    exact binomial tail, under a Bonferroni bound with family-wise
    false-alarm rate KERNEL_TEST_ALPHA.
    """

    @pytest.mark.slow
    def test_drexel_joint_kernel_matches_oracle(self):
        counts = kernel_run_counts("drexel")
        assert counts.sum(axis=1).min() > 1000  # every pair state visited
        exact = exact_pair_kernel("drexel", SwapConfig(variant="history", rho=1.0))
        assert kernel_test_pvalue(counts, exact) >= KERNEL_TEST_ALPHA

    @pytest.mark.slow
    def test_dream_joint_kernel_with_metropolis(self):
        """Same consistency check for the Metropolis-adjusted replica kernel."""
        counts = kernel_run_counts("dream")
        assert counts.sum(axis=1).min() > 1000
        exact = exact_pair_kernel("dream", SwapConfig(variant="history", rho=1.0))
        assert kernel_test_pvalue(counts, exact) >= KERNEL_TEST_ALPHA

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "perturbed",
        [SwapConfig(variant="naive", rho=1.0), SwapConfig(variant="history", rho=0.9)],
        ids=["naive-swap", "rho-0.9"],
    )
    @pytest.mark.parametrize("name", sorted(KERNEL_RUNS))
    def test_statistic_rejects_a_perturbed_kernel(self, name, perturbed):
        """Power: the same counts against a kernel with the naive swap, or with rho = 0.9, are rejected."""
        assert kernel_test_pvalue(kernel_run_counts(name), exact_pair_kernel(name, perturbed)) < KERNEL_TEST_ALPHA

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(KERNEL_RUNS))
    def test_counts_hash(self, name):
        """The counting run itself is pinned, so a change to how the pair is stepped cannot pass unseen."""
        counts = kernel_run_counts(name)
        assert hashlib.sha256(np.ascontiguousarray(counts).tobytes()).hexdigest() == KERNEL_COUNTS_GOLDEN[name]

    def test_exact_tails_of_small_cases(self):
        """The p-values against hand-computed binomial tails."""
        p = binomial_pvalues(np.array([[0, 1, 3]]), np.array([4]), np.array([[0.5, 0.01, 0.5]]))
        assert p[0, 0] == pytest.approx(2 * 0.5**4)  # P[X <= 0] = 1/16
        assert p[0, 1] == pytest.approx(2 * (1 - 0.99**4))  # P[X >= 1]
        assert p[0, 2] == pytest.approx(2 * (4 * 0.5**4 + 0.5**4))  # P[X >= 3] = 5/16
        assert binomial_pvalues(np.array([[1]]), np.array([10]), np.array([[0.0]]))[0, 0] == 0.0


class CountingModel(EnergyModel):
    """Delegates to a model and counts each kind of energy evaluation."""

    def __init__(self, inner):
        self.inner = inner
        self.domain = inner.domain
        self.calls = Counter()

    def value_and_grad_batch(self, xs):
        self.calls["value_and_grad_batch rows"] += len(xs)
        return self.inner.value_and_grad_batch(xs)


def _run_kwargs(sampler):
    kwargs = dict(sampler=sampler, seed=8, alpha=0.1)
    if sampler in ("drexel", "dream", "bdrexel", "bdream"):
        kwargs.update(alpha_high=0.3, tau_high=2.0, sigma2=0.5)
    return kwargs


class TestOneEvaluationPerChain:
    @pytest.mark.parametrize(
        "sampler,chains",
        [("dula", 1), ("dmala", 1), ("drexel", 2), ("dream", 2), ("bdrexel", 2), ("bdream", 2)],
    )
    def test_energy_evaluations_per_iteration(self, sampler, chains):
        """Each chain evaluates the energy once per iteration, fused and batched, at its proposal."""
        per_run = {}
        for iters in (100, 200):
            model = CountingModel(make_synthetic("16gaussian", levels=16))
            run_sampler(model, RunConfig(iterations=iters, **_run_kwargs(sampler)))
            per_run[iters] = model.calls
        rows = "value_and_grad_batch rows"
        assert per_run[100] == Counter({rows: chains * 101})  # one per chain at the start
        assert per_run[200][rows] - per_run[100][rows] == chains * 100


def _nan_gradient_model(bad):
    """16-Gaussian energy on a 16-level grid whose gradient is NaN wherever bad(x) holds."""
    inner = make_synthetic("16gaussian", levels=16)

    class NanGradient(EnergyModel):
        domain = inner.domain

        def value_and_grad_batch(self, xs):
            u, g = inner.value_and_grad_batch(xs)
            return u, np.where(np.array([bool(bad(x)) for x in xs])[:, None], np.nan, g)

    return NanGradient()


class TestNonFiniteFailsLoudly:
    @pytest.mark.parametrize("sampler", ["dula", "dmala", "dream"])
    def test_nan_gradient_names_seed_iteration_and_chain(self, sampler):
        model = _nan_gradient_model(lambda x: x[0] > 1.0)
        cfg = RunConfig(iterations=2000, **_run_kwargs(sampler))
        expected = r"seed 8, iteration \d+: (low|high) chain: 2 of 2 gradient entries not finite"
        with pytest.raises(NumericError, match=expected):
            run_sampler(model, cfg)

    def test_nan_at_start_names_initial_states(self):
        model = _nan_gradient_model(lambda x: True)
        with pytest.raises(NumericError, match="seed 8, initial states: low chain"):
            run_sampler(model, RunConfig(iterations=10, **_run_kwargs("dmala")))

    @pytest.mark.parametrize("sampler", ["dula", "dmala"])
    def test_overflowing_logits_fail_loudly(self, sampler):
        """A finite gradient so large that g / (2 tau) overflows must not give a NaN proposal table."""
        model = QuadraticEnergy(domain=DomainSpec.spin_pm1(2), J=np.zeros((2, 2)), b=np.array([1e306, -1e306]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="seed 8, initial states: low chain: gradient overflows the logits"):
                run_sampler(model, RunConfig(iterations=10, **_run_kwargs(sampler), tau=1e-3))

    def test_vanishing_step_size_stays_put(self, two_spin_ising):
        """An infinite move penalty is not a numeric fault: the chain just never moves."""
        with np.errstate(over="ignore"):
            trace = run_sampler(two_spin_ising, RunConfig(sampler="dmala", iterations=20, seed=2, alpha=1e-310))
        assert (trace.states == trace.states[0]).all() and trace.accepted_low.all()

    def test_nan_energy_fails_loudly(self):
        model = QuadraticEnergy(domain=DomainSpec.spin_pm1(2), J=np.zeros((2, 2)), b=np.array([np.nan, 0.0]))
        with pytest.raises(NumericError, match="seed 8, initial states: low chain: energy not finite"):
            run_sampler(model, RunConfig(iterations=10, **_run_kwargs("dula")))

    @pytest.mark.parametrize("mh", [False, True], ids=["unadjusted", "metropolis"])
    def test_kernel_evaluate_rejects_nan_gradient(self, mh):
        model = _nan_gradient_model(lambda x: True)
        kernel = _Kernel(model, (ChainParams(alpha=0.1, mh_enabled=mh),))
        with pytest.raises(NumericError, match="^low chain: 2 of 2 gradient entries not finite$"):
            kernel.evaluate(np.array([[3, 4]]))


class TestRunBatch:
    """Repeats stepped together through one kernel give each seed's standalone run."""

    @pytest.mark.parametrize("model_name,sampler", sorted(GOLDEN))
    def test_batch_traces_equal_standalone_runs(self, model_name, sampler):
        for repeats in (1, 2, 3):
            pairs = [golden_config(model_name, sampler, seed=60 + 7 * r, thin=3) for r in range(repeats)]
            model = pairs[0][0]
            configs = [cfg for _, cfg in pairs]
            batch = run_batch(model, configs)
            assert [t.seed for t in batch] == [cfg.seed for cfg in configs]
            for cfg, trace in zip(configs, batch):
                assert trace.states.shape == (100, model.domain.dim)
                assert trace_digest(trace) == trace_digest(run_sampler(model, cfg))

    def test_configs_must_differ_only_in_seed(self, two_spin_ising):
        cfg = RunConfig(sampler="dmala", iterations=10, seed=1, alpha=0.2)
        run_batch(two_spin_ising, [cfg, replace(cfg, seed=2)])
        for other in (replace(cfg, seed=2, alpha=0.3), replace(cfg, seed=2, iterations=11), replace(cfg, thin=2)):
            with pytest.raises(DomainError, match="differ only in seed"):
                run_batch(two_spin_ising, [cfg, other])
        with pytest.raises(DomainError):
            run_batch(two_spin_ising, [])

    @pytest.mark.parametrize("sampler", ["dmala", "dream"])
    def test_non_finite_energy_names_that_repeats_seed(self, sampler):
        """The batch fails where the first of its repeats fails on its own, with the same message."""
        inner = make_synthetic("16gaussian", levels=16)

        class NanEnergy(EnergyModel):
            domain = inner.domain

            def value_and_grad_batch(self, xs):
                u, g = inner.value_and_grad_batch(xs)
                return np.where(xs[:, 0] > 1.5, np.nan, u), g

        model = NanEnergy()
        configs = [RunConfig(iterations=3000, **dict(_run_kwargs(sampler), seed=s)) for s in (21, 25, 22, 27)]
        failures = []
        for cfg in configs:
            with pytest.raises(NumericError, match=r"iteration (\d+): (low|high) chain: energy not finite") as err:
                run_sampler(model, cfg)
            failures.append((int(err.value.args[0].split("iteration ")[1].split(":")[0]), str(err.value)))
        first = min(failures, key=lambda f: f[0])
        assert first[1].startswith("seed 22, ")  # the third repeat fails first
        with pytest.raises(NumericError) as err:
            run_batch(model, configs)
        assert str(err.value) == first[1]
