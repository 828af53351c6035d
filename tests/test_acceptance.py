"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion as it completes, plus a final summary table.

Criterion 2 is kept faithful to its stated tolerances and is an expected
failure: the history-swap replica kernel is not exactly reversible with
respect to the intermediate pair target when the chains differ in step size
or temperature (the development ledger has the full analysis).  The
corrected swap exponent that does achieve exact balance is verified
alongside it, and criterion 4's spectral bound runs on the reversible
members of the replica-kernel family.
"""

import time

import numpy as np
import pytest

from drexel import (
    ChainParams,
    RunConfig,
    SwapConfig,
    make_ising_lattice,
    make_synthetic,
    run_batch,
)
from drexel.config import parse_config
from drexel.domains import DomainSpec, embed_all
from drexel.energies import SYNTHETIC_NAMES, QuadraticEnergy
from drexel.errors import PreconditionError
from drexel.harness import run_experiment
from drexel.metrics import (
    RffEstimator,
    jump_rate,
    kl_divergence,
    median_bandwidth,
    mmd_rff,
    visit_counts,
)
from drexel.oracle import (
    balanced_joint_kernel,
    detailed_balance_check,
    enumerate_target,
    exact_joint_kernel,
    exact_single_kernel,
    intermediate_pair_pmf,
    pair_target_product_gap,
    spectral_tv_bound_check,
)
from drexel.rbm import RbmTrainConfig, synth_bernoulli_mixture, train_rbm
from drexel.rng import SALT_REFERENCE, SALT_TRUTH, substream
from drexel.sampler import _Kernel

from conftest import gradient_matches_fd

pytestmark = pytest.mark.acceptance

RESULTS = []


def _record(num, passed, detail):
    line = f"[acceptance] criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(f"\n{line}")


LOW = ChainParams(alpha=0.2, tau=1.0)
HIGH = ChainParams(alpha=0.4, tau=2.0)


def test_criterion_1_mh_exactness(three_spin_ising):
    """DMALA kernel on the 3-spin chain: detailed balance residual <= 1e-12."""
    t0 = time.perf_counter()
    pi = enumerate_target(three_spin_ising)
    kernel = exact_single_kernel(three_spin_ising, ChainParams(alpha=0.4, tau=1.0, mh_enabled=True))
    residual = detailed_balance_check(kernel, pi)
    elapsed = time.perf_counter() - t0
    ok = residual <= 1e-12 and elapsed < 1.0
    _record(1, ok, f"DMALA detailed-balance residual {residual:.2e} (<= 1e-12), {elapsed:.2f}s")
    assert residual <= 1e-12
    assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="history swap is not exactly pair-reversible for distinct chain "
    "parameters; paper-level defect, see the development decisions ledger",
)
def test_criterion_2_history_swap_reversibility(two_spin_ising):
    """Stated claim: history residual <= 1e-10 and naive >= 10x larger."""
    pair_target = intermediate_pair_pmf(two_spin_ising, LOW, HIGH)
    hist = exact_joint_kernel(two_spin_ising, LOW, HIGH, SwapConfig(variant="history", rho=1.0))
    naive_swap = SwapConfig(variant="bias_corrected", rho=1.0, sigma2=0.0)
    naive = exact_joint_kernel(two_spin_ising, LOW, HIGH, naive_swap)
    res_hist = detailed_balance_check(hist, pair_target)
    res_naive = detailed_balance_check(naive, pair_target)
    ok = res_hist <= 1e-10 and res_naive >= 10 * res_hist
    _record(
        2,
        ok,
        f"history residual {res_hist:.2e} (stated <= 1e-10), naive {res_naive:.2e} "
        f"(stated >= 10x history) - unattainable as specified; corrected swap "
        f"exponent verified separately",
    )
    assert res_hist <= 1e-10
    assert res_naive >= 10 * res_hist


def test_criterion_2_companion_balanced_swap(two_spin_ising):
    """What the reversibility theorem intended: the corrected swap balances exactly."""
    pair_target = intermediate_pair_pmf(two_spin_ising, LOW, HIGH)
    balanced = balanced_joint_kernel(two_spin_ising, LOW, HIGH, rho=1.0)
    res = detailed_balance_check(balanced, pair_target)
    hist = exact_joint_kernel(two_spin_ising, LOW, HIGH, SwapConfig(variant="history", rho=1.0))
    res_hist = detailed_balance_check(hist, pair_target)
    ok = res <= 1e-10 and res_hist >= 10 * res
    _record(
        "2*",
        ok,
        f"corrected-swap residual {res:.2e} (<= 1e-10); history residual {res_hist:.2e} "
        f"is >= 10x larger",
    )
    assert ok


def test_criterion_3_weak_convergence(two_spin_ising):
    """TV(pair target, tempered product) strictly decreasing in alpha, <= 1e-6 at 0.005."""
    t0 = time.perf_counter()
    gaps = [
        pair_target_product_gap(
            two_spin_ising, ChainParams(alpha=a, tau=1.0), ChainParams(alpha=a, tau=2.0)
        )
        for a in (0.5, 0.05, 0.005)
    ]
    elapsed = time.perf_counter() - t0
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 1e-6 and elapsed < 5.0
    _record(3, ok, f"TV gaps {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}, smallest <= 1e-6, {elapsed:.2f}s")
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-6
    assert elapsed < 5.0


def test_criterion_4_spectral_tv_bound(two_spin_ising):
    """Theorem-2 bound on 16-pair-state joint kernels satisfying its reversibility premise."""
    t0 = time.perf_counter()
    pair_target = intermediate_pair_pmf(two_spin_ising, LOW, HIGH)
    # rho = 0: the product member of the replica family, exactly reversible
    product = exact_joint_kernel(two_spin_ising, LOW, HIGH, SwapConfig(variant="history", rho=0.0))
    rep_a = spectral_tv_bound_check(product, pair_target, n_max=50)
    # corrected swap exponent, rho = 1: swaps active, exactly reversible
    balanced = balanced_joint_kernel(two_spin_ising, LOW, HIGH, rho=1.0)
    rep_b = spectral_tv_bound_check(balanced, pair_target, n_max=50)
    # the history rho=1 kernel fails the theorem's premise; assert that honestly
    hist = exact_joint_kernel(two_spin_ising, LOW, HIGH, SwapConfig(variant="history", rho=1.0))
    with pytest.raises(PreconditionError):
        spectral_tv_bound_check(hist, pair_target, n_max=50)
    elapsed = time.perf_counter() - t0
    ok = rep_a.bound_holds and rep_a.lambda0_ok and rep_b.bound_holds and rep_b.lambda0_ok and elapsed < 10.0
    _record(
        4,
        ok,
        f"bound holds for n=1..50 on rho=0 kernel (lambda*={rep_a.lambda_star:.4f}) and "
        f"corrected-swap rho=1 kernel (lambda*={rep_b.lambda_star:.4f}); lambda0 errors "
        f"{rep_a.lambda0_error:.1e}/{rep_b.lambda0_error:.1e}; history rho=1 kernel fails "
        f"the reversibility premise as expected; {elapsed:.2f}s",
    )
    assert rep_a.bound_holds and rep_a.lambda0_ok
    assert rep_b.bound_holds and rep_b.lambda0_ok
    assert elapsed < 10.0


def test_criterion_5_gradient_fidelity():
    """All energy models pass finite-difference checks at 100 random points."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = {}
    for name in SYNTHETIC_NAMES:
        model = make_synthetic(name, levels=64)
        pts = rng.uniform(-2, 2, size=(100, 2))
        if name == "flower":
            pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
        worst[name] = gradient_matches_fd(model, pts)
    ising = make_ising_lattice(3, 0.15, np.linspace(-0.5, 0.5, 9), periodic=True)
    worst["ising"] = gradient_matches_fd(ising, rng.uniform(-1, 1, size=(100, 9)))
    from drexel.energies import RbmFreeEnergy

    rbm = RbmFreeEnergy(
        domain=DomainSpec.binary01(6),
        W=rng.normal(0, 0.5, size=(3, 6)),
        c=rng.normal(0, 0.3, 3),
        b=rng.normal(0, 0.3, 6),
    )
    worst["rbm"] = gradient_matches_fd(rbm, rng.uniform(0, 1, size=(100, 6)))
    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    ok = peak <= 1e-5 and elapsed < 5.0
    _record(5, ok, f"max relative gradient error {peak:.2e} over {len(worst)} models (<= 1e-5), {elapsed:.2f}s")
    assert peak <= 1e-5
    assert elapsed < 5.0


def test_criterion_6_closed_form_equivalence():
    """The kernel's flip probabilities vs the closed-form sigmoid on 1000 random states per domain.

    Flipping coordinate d moves it by diff = v' - x_d, and the stay logit is
    0, so the two-category softmax is sigmoid(g_d / (2 tau) diff - diff^2 / (2 alpha)).
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for kind in ("binary01", "spin_pm1"):
        dom = DomainSpec.binary01(8) if kind == "binary01" else DomainSpec.spin_pm1(8)
        J = rng.integers(0, 2, size=(8, 8)).astype(float)
        J = np.triu(J, 1)
        J = J + J.T
        model = QuadraticEnergy(domain=dom, J=J, b=rng.normal(size=8), w=0.2)
        params = ChainParams(alpha=0.7, tau=1.3)
        states = rng.integers(0, 2, size=(1000, 8))
        probs = np.exp(_Kernel(model, [params] * 1000).evaluate(states).logp)
        flip = np.take_along_axis(probs, (1 - states)[:, :, None], axis=2)[:, :, 0]
        x = dom.value_table[states]
        diff = dom.value_table[1 - states] - x
        logit = model.value_and_grad_batch(x)[1] / (2 * params.tau) * diff - diff**2 / (2 * params.alpha)
        closed = 1 / (1 + np.exp(-logit))
        worst = max(worst, float(np.abs(flip - closed).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _record(6, ok, f"max |closed form - kernel table| {worst:.2e} over 2000 states (<= 1e-12), {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_7_multimodal_exploration():
    """16-Gaussian, N=64: DREAM beats DMALA on median KL and >= 10x jump rate."""
    t0 = time.perf_counter()
    model = make_synthetic("16gaussian", levels=64, c=2.0)
    pi = enumerate_target(model)
    kls = {"dmala": [], "dream": []}
    jumps = {"dmala": [], "dream": []}
    for sampler, kw in (
        ("dmala", dict(alpha=0.023)),
        ("dream", dict(alpha=0.023, alpha_high=0.053, tau_high=2.0)),
    ):
        cfg = RunConfig(sampler=sampler, iterations=100_000, tau=1.0, **kw)
        for trace in run_batch(model, cfg, range(7, 17)):  # the 10 seeds' standalone runs, stepped together
            kls[sampler].append(kl_divergence(pi, visit_counts(trace.states, model.domain)))
            jumps[sampler].append(jump_rate(trace.states, model.domain))
    kl_dream, kl_dmala = np.median(kls["dream"]), np.median(kls["dmala"])
    jr_dream, jr_dmala = np.median(jumps["dream"]), np.median(jumps["dmala"])
    elapsed = time.perf_counter() - t0
    ok = kl_dream < kl_dmala and jr_dream >= 10 * jr_dmala
    _record(
        7,
        ok,
        f"median KL dream {kl_dream:.4f} < dmala {kl_dmala:.4f}; jump rate dream "
        f"{jr_dream:.3f} >= 10x dmala {jr_dmala:.4f}; {elapsed:.0f}s",
    )
    assert kl_dream < kl_dmala
    assert jr_dream >= 10 * jr_dmala


def test_criterion_8_ising_ordering():
    """4x4 torus: DREAM beats DMALA in >= 8/10 seeds; pooled error curves decrease."""
    t0 = time.perf_counter()
    model = make_ising_lattice(4, 0.15, np.zeros(16), periodic=True)
    pi = enumerate_target(model)
    mag_truth = pi.p @ embed_all(model.domain)
    iters = 50_000
    finals = {"dmala": [], "dream": []}
    pooled = {"dmala": np.zeros(iters), "dream": np.zeros(iters)}
    for sampler, kw in (
        ("dmala", dict(alpha=0.4)),
        ("dream", dict(alpha=0.4, alpha_high=0.9, tau_high=5.0)),
    ):
        cfg = RunConfig(sampler=sampler, iterations=iters, tau=1.0, init="bernoulli", init_prob=0.6, **kw)
        for trace in run_batch(model, cfg, range(7, 17)):
            emb = model.domain.value_table[trace.states.astype(np.int64)]
            cum = np.cumsum(emb, axis=0) / np.arange(1, iters + 1)[:, None]
            mse = np.mean((cum - mag_truth) ** 2, axis=1)
            pooled[sampler] += mse
            finals[sampler].append(0.5 * np.log(mse[-1]))
    wins = sum(d < m for d, m in zip(finals["dream"], finals["dmala"]))
    checkpoints = np.array([1000, 2000, 4000, 8000, 16000, 32000, 50000]) - 1
    monotone = {
        s: bool(np.all(np.diff(np.sqrt(pooled[s][checkpoints])) < 0)) for s in pooled
    }
    elapsed = time.perf_counter() - t0
    ok = wins >= 8 and monotone["dmala"] and monotone["dream"]
    _record(
        8,
        ok,
        f"DREAM lower log RMSE in {wins}/10 seeds (>= 8); pooled curves decreasing at "
        f"doubling checkpoints from the 1k window: dmala={monotone['dmala']}, "
        f"dream={monotone['dream']}; {elapsed:.0f}s",
    )
    assert wins >= 8
    assert monotone["dmala"] and monotone["dream"]


def test_criterion_9_rbm_sanity():
    """Trained 16x8 RBM: sampler-vs-block-Gibbs MMD small, DREAM no worse than DMALA."""
    t0 = time.perf_counter()
    data = synth_bernoulli_mixture(dim=16, modes=2, per_mode=500, flip_prob=0.05, seed=6)
    rbm, _ = train_rbm(
        data,
        RbmTrainConfig(hidden=8, cd_k=1, learning_rate=0.001, iterations=1000, batch_size=128, seed=6),
    )
    mmds = {"dmala": [], "dream": []}
    for seed in range(10):
        rng_ref = substream(100 + seed, SALT_REFERENCE)
        v = (rng_ref.random((1, 16)) < 0.5).astype(float)
        for _ in range(1000):
            v = rbm.block_gibbs(v, rng_ref)
        gibbs = np.empty((10_000, 16))
        for i in range(10_000):
            v = rbm.block_gibbs(v, rng_ref)
            gibbs[i] = v[0]
        bw = median_bandwidth(gibbs[:1000])
        rff = RffEstimator.create(16, bw, 500, substream(100 + seed, SALT_TRUTH))
        for sampler, kw in (
            ("dmala", dict(alpha=0.2)),
            ("dream", dict(alpha=0.2, alpha_high=0.4, tau_high=2.0)),
        ):
            cfg = RunConfig(sampler=sampler, iterations=10_000, tau=1.0, init="bernoulli", init_prob=0.5, **kw)
            trace = run_batch(rbm, cfg, [100 + seed])[0]
            emb = rbm.domain.value_table[trace.states.astype(np.int64)]
            mmds[sampler].append(mmd_rff(gibbs, emb, rff))
    mean_dmala = float(np.mean(mmds["dmala"]))
    mean_dream = float(np.mean(mmds["dream"]))
    elapsed = time.perf_counter() - t0
    ok = mean_dmala <= 0.05 and mean_dream <= mean_dmala + 0.01
    _record(
        9,
        ok,
        f"mean MMD dmala {mean_dmala:.5f} (<= 0.05), dream {mean_dream:.5f} "
        f"(<= dmala + 0.01); 10 seeds; {elapsed:.0f}s",
    )
    assert mean_dmala <= 0.05
    assert mean_dream <= mean_dmala + 0.01


def test_criterion_10_determinism(tmp_path):
    """Any config rerun with an identical seed yields bit-identical CSV outputs."""
    t0 = time.perf_counter()
    cfg = parse_config(
        """
kind = synthetic
energy = wave
grid_levels = 16
sampler = dream
alpha = 0.05
tau = 1.0
alpha_high = 0.1
tau_high = 2.0
iterations = 400
repeats = 2
seed = 21
reference_samples = 500
mmd_features = 100
"""
    )
    run_experiment(cfg, out=str(tmp_path / "a"))
    run_experiment(cfg, out=str(tmp_path / "b"))
    names = ["run_21.csv", "run_22.csv", "metrics_21.csv", "metrics_22.csv", "summary.csv"]
    same = all((tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes() for n in names)
    elapsed = time.perf_counter() - t0
    _record(10, same, f"reruns bit-identical across {len(names)} CSV artifacts, {elapsed:.1f}s")
    assert same


def test_acceptance_summary():
    print("\n" + "=" * 72)
    for line in RESULTS:
        print(line)
    print("=" * 72)
