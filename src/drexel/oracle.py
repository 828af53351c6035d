"""Brute-force enumeration oracles for tiny instances.

Everything here is exact up to floating point: target pmfs, single-chain and
joint replica transition kernels, reversibility residuals, and the spectral
total-variation bound for reversible kernels.  Kernels are built from the
same proposal and swap code the samplers use (for quadratic energies the
Taylor-form proposal weights equal the exact-energy-difference form, so no
parallel formula exists to drift out of sync).

One caution that the test suite leans on: the replica kernel with the
history swap is *not* exactly reversible with respect to the Z-weighted
intermediate pair target when the two chains differ in step size or
temperature.  `balanced_joint_kernel` constructs the swap exponent that does
achieve exact reversibility on log-quadratic energies; `exact_joint_kernel`
is the faithful kernel of the sampler as it actually runs.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domains import BINARY01, DomainSpec, all_states, embed_all
from .energies import EnergyModel, QuadraticEnergy, _sigmoid
from .errors import CapacityError, DomainError, PreconditionError, UnsupportedModelError
from .sampler import ChainParams, SwapConfig, _all_logits, _log_softmax, _swap_probs

KERNEL_CAPACITY = 4096
SPECTRAL_CAPACITY = 256


@dataclass(frozen=True)
class Pmf:
    """Exact probabilities over enumerated states (state_index order)."""

    p: np.ndarray
    domain: Optional[DomainSpec] = None

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.min() < 0 or abs(p.sum() - 1.0) > 1e-12:
            raise DomainError("pmf entries must be nonnegative and sum to 1")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class Kernel:
    """Row-stochastic transition matrix over enumerated states."""

    matrix: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.matrix, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise DomainError(f"kernel must be square, got shape {k.shape}")
        if k.min() < 0 or np.abs(k.sum(axis=1) - 1.0).max() > 1e-10:
            raise DomainError("kernel rows must be nonnegative and sum to 1")
        k.setflags(write=False)
        object.__setattr__(self, "matrix", k)


def enumerate_target(model: EnergyModel, tau: float = 1.0, capacity: int = 1 << 20) -> Pmf:
    """Exact pi ~ exp(U/tau) by enumeration with log-sum-exp normalization."""
    xs = embed_all(model.domain, capacity)
    logit = model.value_batch(xs) / tau
    logit -= logit.max()
    p = np.exp(logit)
    p /= p.sum()
    return Pmf(p=p, domain=model.domain)


def _proposal_matrix(model: EnergyModel, params: ChainParams, capacity: int = KERNEL_CAPACITY):
    """Exact factorized proposal over all states, plus per-state log-normalizers."""
    domain = model.domain
    n = domain.num_states
    if n > capacity:
        raise CapacityError(f"{n} states exceeds kernel capacity {capacity}")
    states = all_states(domain)
    Q = np.empty((n, n))
    log_z = np.empty(n)
    for i in range(n):
        logits = _all_logits(model, states[i], params)
        m = logits.max(axis=1)
        log_z[i] = float((m + np.log(np.exp(logits - m[:, None]).sum(axis=1))).sum())
        probs = np.exp(_log_softmax(logits))
        row = probs[0]
        for d in range(1, domain.dim):
            row = np.kron(row, probs[d])
        Q[i] = row
    return Q, log_z


def exact_single_kernel(model: EnergyModel, params: ChainParams) -> Kernel:
    """One chain's exact transition matrix, Metropolis-composed when params.mh_enabled.

    Rejected mass goes to the diagonal.  The accept probability is computed
    as min(q_fwd, ratio * q_rev) entry-wise so detailed balance of the
    composed kernel holds to machine precision.
    """
    Q, _ = _proposal_matrix(model, params)
    if not params.mh_enabled:
        return Kernel(matrix=Q)
    u = model.value_batch(embed_all(model.domain))
    ratio = np.exp((u[None, :] - u[:, None]) / params.tau)  # pi(y)/pi(x), tempered
    K = np.minimum(Q, ratio * Q.T)
    np.fill_diagonal(K, 0.0)
    np.fill_diagonal(K, 1.0 - K.sum(axis=1))
    return Kernel(matrix=K)


def _require_quadratic(model) -> QuadraticEnergy:
    if not isinstance(model, QuadraticEnergy):
        raise UnsupportedModelError("this oracle path needs a log-quadratic energy")
    return model


def _normalizer_exponents(model: EnergyModel, params: ChainParams, capacity: int) -> np.ndarray:
    """(n, n) exponents (U(x) - U(theta)) / (2 tau) - (x - theta)^T M (x - theta) / 2, row theta, column x."""
    model = _require_quadratic(model)
    n = model.domain.num_states
    if n > capacity:
        raise CapacityError(f"{n} states exceeds kernel capacity {capacity}")
    xs = embed_all(model.domain)
    u = model.value_batch(xs)
    M = np.eye(model.domain.dim) / params.alpha + (model.w / params.tau) * model.J
    G = xs @ M @ xs.T
    quad = np.diag(G)[:, None] + np.diag(G)[None, :] - 2 * G  # (x_j - x_i)^T M (x_j - x_i)
    return (u[None, :] - u[:, None]) / (2.0 * params.tau) - 0.5 * quad


def proposal_normalizers(model: EnergyModel, params: ChainParams, capacity: int = KERNEL_CAPACITY) -> np.ndarray:
    """Per-state proposal normalizer Z_alpha on a log-quadratic energy.

    Z(theta) = sum_x exp[(U(x) - U(theta)) / (2 tau)
                         - (x - theta)^T (I/alpha + (w/tau) J) (x - theta) / 2],
    which equals the product of the per-coordinate softmax denominators of
    the sampler's proposal; tends to 1 as alpha -> 0.
    """
    expo = _normalizer_exponents(model, params, capacity)
    m = expo.max(axis=1)
    return np.exp(m) * np.exp(expo - m[:, None]).sum(axis=1)


def log_proposal_normalizers(model: EnergyModel, params: ChainParams, capacity: int = KERNEL_CAPACITY) -> np.ndarray:
    """log Z_alpha for every state, via log1p of the off-state mass.

    Resolves tails as small as exp(-700) that a plain exp-sum would swallow
    into the leading 1; used by the small-step-size convergence checks.
    """
    expo = _normalizer_exponents(model, params, capacity)
    np.fill_diagonal(expo, -np.inf)  # the stay term is the leading 1
    with np.errstate(under="ignore"):
        off = np.exp(expo).sum(axis=1)
    return np.log1p(off)


def pair_target_product_gap(model: EnergyModel, params_low: ChainParams, params_high: ChainParams) -> float:
    """Total variation between the intermediate pair target and the tempered product.

    Evaluated entirely through expm1/log1p so the gap stays strictly positive
    and strictly decreasing as the step sizes shrink, down to underflow depth.
    """
    lz1 = log_proposal_normalizers(model, params_low)
    lz2 = log_proposal_normalizers(model, params_high)
    p1 = enumerate_target(model, tau=params_low.tau).p
    p2 = enumerate_target(model, tau=params_high.tau).p
    p_prod = np.outer(p1, p2).ravel()
    delta = (lz1[:, None] + lz2[None, :]).ravel()
    log_d = np.log1p(float(p_prod @ np.expm1(delta)))
    return 0.5 * float(p_prod @ np.abs(np.expm1(delta - log_d)))


def intermediate_pair_pmf(
    model: EnergyModel,
    params_low: ChainParams,
    params_high: ChainParams,
    capacity: int = 1 << 20,
) -> Pmf:
    """Intermediate pair target: Z_a1(x1) Z_a2(x2) exp(U(x1)/tau1 + U(x2)/tau2), normalized.

    Pair (i, j) maps to flat index i * n + j.  Converges to the product of the
    two tempered marginals as both step sizes go to 0.
    """
    model = _require_quadratic(model)
    n = model.domain.num_states
    if n * n > capacity:
        raise CapacityError(f"{n * n} pair states exceeds capacity {capacity}")
    u = model.value_batch(embed_all(model.domain))
    lz1 = np.log(proposal_normalizers(model, params_low))
    lz2 = np.log(proposal_normalizers(model, params_high))
    log_w = (lz1 + u / params_low.tau)[:, None] + (lz2 + u / params_high.tau)[None, :]
    log_w -= log_w.max()
    p = np.exp(log_w).ravel()
    return Pmf(p=p / p.sum())


def tempered_pair_pmf(model, params_low, params_high, capacity: int = 1 << 20) -> Pmf:
    """Plain product of the two tempered marginals (the alpha -> 0 limit)."""
    n = model.domain.num_states
    if n * n > capacity:
        raise CapacityError(f"{n * n} pair states exceeds capacity {capacity}")
    p1 = enumerate_target(model, tau=params_low.tau).p
    p2 = enumerate_target(model, tau=params_high.tau).p
    return Pmf(p=np.outer(p1, p2).ravel())


def _pair_swap_permutation(n: int) -> np.ndarray:
    idx = np.arange(n * n).reshape(n, n)
    return idx.T.ravel()


def _joint_from_branches(q1, q2, s_noswap, s_swap):
    """Mix the no-swap product branch with the state-exchanging branch."""
    n = q1.shape[0]
    prod = np.kron(q1, q2)
    perm = _pair_swap_permutation(n)
    return (1.0 - s_noswap) * prod + s_swap * prod[:, perm]


def _swap_prob_grid(swap: SwapConfig, t1: float, t2: float, u: np.ndarray) -> np.ndarray:
    """The sampler's swap probability over every (x1, x2, w1, w2) combination of previous and next states."""
    n = u.shape[0]
    x1, x2, w1, w2 = u[:, None, None, None], u[None, :, None, None], u[None, None, :, None], u[None, None, None, :]
    return np.broadcast_to(_swap_probs(swap, t1, t2, w1, w2, x1, x2), (n, n, n, n))


def exact_joint_kernel(
    model: EnergyModel,
    params_low: ChainParams,
    params_high: ChainParams,
    swap: SwapConfig,
) -> Kernel:
    """Exact one-iteration replica kernel over state pairs, as the sampler runs it.

    Each chain is Metropolis-adjusted when its params have mh_enabled.

    Landing on pair (y1, y2) happens either with proposals (y1, y2) and a
    failed swap test, or with proposals (y2, y1) and a successful one; each
    branch's swap probability is evaluated on its own pre-swap proposals
    together with the previous states.
    """
    n = model.domain.num_states
    if n * n > KERNEL_CAPACITY:
        raise CapacityError(f"{n * n} pair states exceeds kernel capacity {KERNEL_CAPACITY}")
    q1 = exact_single_kernel(model, params_low).matrix
    q2 = exact_single_kernel(model, params_high).matrix
    u = model.value_batch(embed_all(model.domain))
    s = _swap_prob_grid(swap, params_low.tau, params_high.tau, u)
    s_noswap = s.reshape(n * n, n * n)
    s_swap = s.transpose(0, 1, 3, 2).reshape(n * n, n * n)  # proposals were (y2, y1)
    return Kernel(matrix=_joint_from_branches(q1, q2, s_noswap, s_swap))


def balanced_joint_kernel(
    model: EnergyModel,
    params_low: ChainParams,
    params_high: ChainParams,
    rho: float = 1.0,
) -> Kernel:
    """Replica kernel with the swap exponent that exactly restores reversibility.

    On log-quadratic energies the history swap leaves a residual imbalance of
    order exp(energy gaps) whenever the chains differ in alpha or tau.  The
    corrected exponent halves the energy bracket and adds the quadratic
    cross-terms of the two proposals:

        sigma(x, w) = (1/tau2 - 1/tau1) [U(w1) + U(x1) - U(w2) - U(x2)] / 2
                      + [(w1 - x1)^T N (w1 - x1) - (w2 - x2)^T N (w2 - x2)] / 2,
        N = (1/alpha1 - 1/alpha2) I + (1/tau1 - 1/tau2) w J.

    The resulting kernel satisfies detailed balance with respect to the
    intermediate pair target to machine precision, for any rho in [0, 1].
    Both chains are unadjusted; params with mh_enabled raise DomainError.
    """
    model = _require_quadratic(model)
    if params_low.mh_enabled or params_high.mh_enabled:
        raise DomainError("the balanced swap is derived for unadjusted chains; got params with mh_enabled")
    n = model.domain.num_states
    if n * n > KERNEL_CAPACITY:
        raise CapacityError(f"{n * n} pair states exceeds kernel capacity {KERNEL_CAPACITY}")
    a1, t1 = params_low.alpha, params_low.tau
    a2, t2 = params_high.alpha, params_high.tau
    q1 = exact_single_kernel(model, params_low).matrix
    q2 = exact_single_kernel(model, params_high).matrix
    xs = embed_all(model.domain)
    u = model.value_batch(xs)
    beta = 1.0 / t2 - 1.0 / t1
    N = (1.0 / a1 - 1.0 / a2) * np.eye(model.domain.dim) + (1.0 / t1 - 1.0 / t2) * model.w * model.J
    G = xs @ N @ xs.T
    quad = np.diag(G)[:, None] + np.diag(G)[None, :] - 2 * G  # (x_j - x_i)^T N (x_j - x_i)
    e1 = 0.5 * beta * (u[:, None] + u[None, :])  # [x, w] -> beta (U(x) + U(w)) / 2
    sigma = (
        e1[:, None, :, None]
        - e1[None, :, None, :]
        + 0.5 * quad[:, None, :, None]
        - 0.5 * quad[None, :, None, :]
    )
    s = rho * np.minimum(1.0, np.exp(sigma))
    s_noswap = s.reshape(n * n, n * n)
    s_swap = s.transpose(0, 1, 3, 2).reshape(n * n, n * n)
    return Kernel(matrix=_joint_from_branches(q1, q2, s_noswap, s_swap))


def detailed_balance_check(kernel: Kernel, pmf: Pmf) -> float:
    """Max over state pairs of |p(x) K(x, y) - p(y) K(y, x)|."""
    K = kernel.matrix
    if K.shape[0] != pmf.p.shape[0]:
        raise DomainError(f"kernel is {K.shape[0]} states, pmf is {pmf.p.shape[0]}")
    flow = pmf.p[:, None] * K
    return float(np.abs(flow - flow.T).max())


@dataclass(frozen=True)
class SpectralReport:
    """Outcome of the spectral total-variation bound check."""

    eigenvalues: np.ndarray
    lambda_star: float
    lambda0_error: float
    max_bound_violation: float
    reconstruction_error: float
    db_residual: float
    n_max: int

    @property
    def bound_holds(self) -> bool:
        return self.max_bound_violation <= 0.0

    @property
    def lambda0_ok(self) -> bool:
        return self.lambda0_error <= 1e-10


def spectral_tv_bound_check(kernel: Kernel, pmf: Pmf, n_max: int, slack: float = 1e-10) -> SpectralReport:
    """Verify ||q^n(.|x) - pi||_TV <= lambda_*^n / (2 sqrt(pi(x))) + slack for n = 1..n_max.

    Requires a kernel reversible with respect to pmf (residual <= 1e-8): only
    then is D q D^(-1) symmetric and the eigenvalue bound meaningful.
    """
    K = kernel.matrix
    n = K.shape[0]
    if n > SPECTRAL_CAPACITY:
        raise CapacityError(f"{n} states exceeds spectral capacity {SPECTRAL_CAPACITY}")
    residual = detailed_balance_check(kernel, pmf)
    if residual > 1e-8:
        raise PreconditionError(f"kernel is not reversible wrt pmf (residual {residual:.3e})")
    root = np.sqrt(pmf.p)
    sym = (root[:, None] / root[None, :]) * K
    sym = 0.5 * (sym + sym.T)  # symmetric up to the reversibility residual
    w, V = np.linalg.eigh(sym)
    w, V = w[::-1], V[:, ::-1]  # descending
    recon = float(np.linalg.norm(V @ np.diag(w) @ V.T - sym))
    lambda0_error = abs(w[0] - 1.0)
    lambda_star = max(w[1], abs(w[-1])) if n > 1 else 0.0
    worst = -np.inf
    Kn = np.eye(n)
    for step in range(1, n_max + 1):
        Kn = Kn @ K
        tv = 0.5 * np.abs(Kn - pmf.p[None, :]).sum(axis=1)
        bound = lambda_star**step / (2.0 * root) + slack
        worst = max(worst, float((tv - bound).max()))
    return SpectralReport(
        eigenvalues=w,
        lambda_star=float(lambda_star),
        lambda0_error=float(lambda0_error),
        max_bound_violation=float(worst),
        reconstruction_error=recon,
        db_residual=float(residual),
        n_max=n_max,
    )


def block_gibbs_rbm_step(rbm, visible: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One RBM block-Gibbs sweep: sample hidden given visible, then visible given hidden."""
    if rbm.domain.kind != BINARY01:
        raise DomainError("block Gibbs runs on binary01 visible units")
    v = rbm.domain.validate_state(visible).astype(float)
    h = (rng.random(rbm.hidden) < _sigmoid(rbm.W @ v + rbm.c)).astype(float)
    v_new = rng.random(rbm.domain.dim) < _sigmoid(rbm.W.T @ h + rbm.b)
    return v_new.astype(np.int64)
