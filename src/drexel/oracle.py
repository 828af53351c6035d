"""Brute-force enumeration oracles for tiny instances.

Everything here is exact up to floating point: target pmfs, single-chain and
joint replica transition kernels, reversibility residuals, and the spectral
total-variation bound for reversible kernels.  Kernels, proposal
normalizers and the balanced swap exponent are built from the same proposal
logits and swap code the samplers use, so no parallel formula exists to drift
out of sync.

One caution that the test suite leans on: the replica kernel with the
history swap is *not* exactly reversible with respect to the Z-weighted
intermediate pair target when the two chains differ in step size or
temperature.  `balanced_joint_kernel` constructs the swap exponent that does
achieve exact reversibility on log-quadratic energies; `exact_joint_kernel`
is the faithful kernel of the sampler as it actually runs.
"""

from dataclasses import dataclass

import numpy as np

from .domains import ENUMERATION_CAPACITY, SPIN_PM1, ReadOnlyArrays, all_states, embed_all
from .energies import EnergyModel, QuadraticEnergy, _sigmoid
from .errors import CapacityError, DomainError, NumericError, PreconditionError, UnsupportedModelError
from .sampler import ChainParams, SwapConfig, _Kernel, _logits, _swap_probs

KERNEL_CAPACITY = 4096  # most states, or pair states, an exact kernel spans
SPECTRAL_CAPACITY = 256  # most states the spectral check decomposes
SPECTRAL_SLACK = 1e-10  # rounding allowance added to the spectral TV bound


def _within(count: int, limit: int, what: str) -> None:
    """The one enumeration guard: CapacityError when count `what` exceed limit."""
    if count > limit:
        raise CapacityError(f"{count} {what} exceeds the limit of {limit}")


@dataclass(frozen=True)
class Pmf(ReadOnlyArrays):
    """Exact probabilities over enumerated states, in all_states order: coordinate 0 is most significant."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if not np.isfinite(p).all():
            raise NumericError("pmf entries must be finite")
        if p.min() < 0 or abs(p.sum() - 1.0) > 1e-12:
            raise DomainError("pmf entries must be nonnegative and sum to 1")
        self._seal(p=p)


@dataclass(frozen=True)
class Kernel(ReadOnlyArrays):
    """Row-stochastic transition matrix over enumerated states."""

    matrix: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.matrix, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise DomainError(f"kernel must be square, got shape {k.shape}")
        if not np.isfinite(k).all():
            raise NumericError("kernel entries must be finite")
        if k.min() < 0 or np.abs(k.sum(axis=1) - 1.0).max() > 1e-10:
            raise DomainError("kernel rows must be nonnegative and sum to 1")
        self._seal(matrix=k)


def enumerate_target(model: EnergyModel, tau: float = 1.0) -> Pmf:
    """Exact pi ~ exp(U/tau) by enumeration with log-sum-exp normalization."""
    xs = embed_all(model.domain)
    logit = model.value_batch(xs) / tau
    logit -= logit.max()
    p = np.exp(logit)
    p /= p.sum()
    return Pmf(p=p)


def exact_single_kernel(model: EnergyModel, params: ChainParams) -> Kernel:
    """One chain's exact transition matrix, Metropolis-composed when params.mh_enabled.

    Row x is the product over coordinates of the sampler's own proposal
    table at x (`_Kernel.evaluate`), read at each target state's value, so a
    non-finite energy or gradient raises the sampler's NumericError.
    Rejected mass goes to the diagonal.  The accept probability is computed
    as min(q_fwd, ratio * q_rev) entry-wise so detailed balance of the
    composed kernel holds to machine precision.  The diagonal is clipped at
    0, where a row's moves round to a total just above 1.
    """
    n = model.domain.num_states
    _within(n, KERNEL_CAPACITY, "kernel states")
    states = all_states(model.domain)
    chains = _Kernel(model, [params] * n).evaluate(states)
    probs = np.exp(chains.logp)
    Q = probs[:, 0, states[:, 0]]
    for d in range(1, model.domain.dim):
        Q *= probs[:, d, states[:, d]]
    if not params.mh_enabled:
        return Kernel(matrix=Q)
    u = chains.energy
    ratio = np.exp((u[None, :] - u[:, None]) / params.tau)  # pi(y)/pi(x), tempered
    K = np.minimum(Q, ratio * Q.T)
    np.fill_diagonal(K, 0.0)
    np.fill_diagonal(K, np.maximum(1.0 - K.sum(axis=1), 0.0))
    return Kernel(matrix=K)


def _require_quadratic(model) -> QuadraticEnergy:
    if not isinstance(model, QuadraticEnergy):
        raise UnsupportedModelError("this oracle path needs a log-quadratic energy")
    return model


def _proposal_logits(model: EnergyModel, params: ChainParams):
    """all_states, their energies and their (n, dim, levels) proposal logits by the sampler's _logits; stay logits are 0.

    CapacityError past 4 * ENUMERATION_CAPACITY logit entries, before any is allocated.
    """
    domain = model.domain
    _within(domain.num_states * domain.dim * domain.levels, 4 * ENUMERATION_CAPACITY, "proposal logit entries")
    states = all_states(domain)
    x = domain.value_table[states]
    u, g = model.value_and_grad_batch(x)
    return states, u, _logits(x, g, domain.value_table, params.alpha, params.tau)


def log_proposal_normalizers(model: EnergyModel, params: ChainParams) -> np.ndarray:
    """log Z_alpha(x) = sum_d log1p(sum_{v != x_d} exp logit_d(v)) for every state x; 1/Z(x) is the stay probability.

    The log1p resolves tails as small as exp(-700) that a plain exp-sum would
    swallow into the leading 1; used by the small-step-size convergence checks.
    """
    states, _, logits = _proposal_logits(model, params)
    n, dim = states.shape
    logits[np.arange(n)[:, None], np.arange(dim), states] = -np.inf  # the stay term is the leading 1
    with np.errstate(under="ignore"):
        return np.log1p(np.exp(logits).sum(axis=2)).sum(axis=1)


def pair_target_product_gap(model: EnergyModel, params_low: ChainParams, params_high: ChainParams) -> float:
    """Total variation between the intermediate pair target and the tempered product.

    Evaluated entirely through expm1/log1p so the gap stays strictly positive
    and strictly decreasing as the step sizes shrink, down to underflow depth.
    """
    lz1, lz2 = (log_proposal_normalizers(model, p) for p in (params_low, params_high))
    p_prod = tempered_pair_pmf(model, params_low, params_high).p
    delta = (lz1[:, None] + lz2[None, :]).ravel()
    log_d = np.log1p(float(p_prod @ np.expm1(delta)))
    return 0.5 * float(p_prod @ np.abs(np.expm1(delta - log_d)))


def intermediate_pair_pmf(model: EnergyModel, params_low: ChainParams, params_high: ChainParams) -> Pmf:
    """Intermediate pair target: Z_a1(x1) Z_a2(x2) exp(U(x1)/tau1 + U(x2)/tau2), normalized.

    Pair (i, j) maps to flat index i * n + j.  Converges to the product of the
    two tempered marginals as both step sizes go to 0.
    """
    model = _require_quadratic(model)
    _within(model.domain.num_states**2, ENUMERATION_CAPACITY, "pair states")
    u = model.value_batch(embed_all(model.domain))
    lz1, lz2 = (log_proposal_normalizers(model, p) for p in (params_low, params_high))
    log_w = (lz1 + u / params_low.tau)[:, None] + (lz2 + u / params_high.tau)[None, :]
    log_w -= log_w.max()
    p = np.exp(log_w).ravel()
    return Pmf(p=p / p.sum())


def tempered_pair_pmf(model, params_low, params_high) -> Pmf:
    """Plain product of the two tempered marginals (the alpha -> 0 limit)."""
    _within(model.domain.num_states**2, ENUMERATION_CAPACITY, "pair states")
    p1 = enumerate_target(model, tau=params_low.tau).p
    p2 = enumerate_target(model, tau=params_high.tau).p
    return Pmf(p=np.outer(p1, p2).ravel())


def _joint_from_branches(q1: np.ndarray, q2: np.ndarray, s: np.ndarray) -> Kernel:
    """Mix the no-swap product branch with the state-exchanging branch.

    s is the swap probability over previous pairs (x1, x2) and pre-swap
    proposals (w1, w2), shape (n, n, n, n).  Landing on (y1, y2) happens
    either with proposals (y1, y2) and no swap, or with proposals (y2, y1)
    and a swap; each branch reads s at its own proposals.
    """
    n = q1.shape[0]
    prod = np.kron(q1, q2)
    exchange = np.arange(n * n).reshape(n, n).T.ravel()  # column (y1, y2) -> (y2, y1)
    s_noswap = s.reshape(n * n, n * n)
    s_swap = s.transpose(0, 1, 3, 2).reshape(n * n, n * n)
    return Kernel(matrix=(1.0 - s_noswap) * prod + s_swap * prod[:, exchange])


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

    Each chain is Metropolis-adjusted when its params have mh_enabled.  The
    swap probability of each branch is evaluated on its own pre-swap
    proposals together with the previous states.
    """
    _within(model.domain.num_states**2, KERNEL_CAPACITY, "kernel pair states")
    q1 = exact_single_kernel(model, params_low).matrix
    q2 = exact_single_kernel(model, params_high).matrix
    u = model.value_batch(embed_all(model.domain))
    return _joint_from_branches(q1, q2, _swap_prob_grid(swap, params_low.tau, params_high.tau, u))


def _log_flows(model: EnergyModel, params: ChainParams) -> np.ndarray:
    """(n, n) log pi~(a) q(a -> b) up to a constant, row a, column b: U(a) / tau + sum_d logit_d(a -> b_d)."""
    states, u, logits = _proposal_logits(model, params)
    return u[:, None] / params.tau + logits[:, np.arange(states.shape[1]), states].sum(axis=2)


def balanced_joint_kernel(
    model: EnergyModel,
    params_low: ChainParams,
    params_high: ChainParams,
    rho: float = 1.0,
) -> Kernel:
    """Replica kernel with the swap exponent that exactly restores reversibility.

    With l1, l2 the chains' _log_flows and f(a, b) = l2(b, a) - l1(a, b), the
    swap from (x1, x2) with proposals (w1, w2) has the exponent
    sigma(x, w) = f(x1, w1) - f(w2, x2), the log ratio of the reverse flow to
    the forward one; the reverse move's exponent is exactly -sigma.  On
    U = w x^T J x + b^T x it is the halved history energy bracket plus the
    quadratic cross-terms of the two proposals:

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
    _within(model.domain.num_states**2, KERNEL_CAPACITY, "kernel pair states")
    q1 = exact_single_kernel(model, params_low).matrix
    q2 = exact_single_kernel(model, params_high).matrix
    f = _log_flows(model, params_high).T - _log_flows(model, params_low)
    sigma = f[:, None, :, None] - f.T.copy()[None, :, None, :]  # C order, so the branches reshape sigma without a copy
    return _joint_from_branches(q1, q2, rho * np.minimum(1.0, np.exp(sigma)))


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

    @property
    def bound_holds(self) -> bool:
        return self.max_bound_violation <= 0.0

    @property
    def lambda0_ok(self) -> bool:
        return self.lambda0_error <= 1e-10


def _rows_that_can_hold_the_max(K: np.ndarray, pmf: Pmf, lambda_star: float, n_max: int) -> np.ndarray:
    """Mask of the states x whose TV violation, stepped for n = 1..n_max, can reach the check's maximum.

    lambda_* >= 0, so the bound b_n(x) is monotone in n and least at n = 1 or
    n_max; TV is at least 0, so every row's violation reaches -min_x least(x).
    TV is at most half of K^n's row sum plus pi's sum, and K^n's row sums are
    at most the n-th power of K's largest: cap covers that and the rounding.
    """
    two_root = 2.0 * np.sqrt(pmf.p)
    least = np.minimum(lambda_star / two_root, lambda_star**n_max / two_root) + SPECTRAL_SLACK
    eps = K.shape[0] * np.finfo(float).eps  # relative rounding of one row sum
    cap = 0.5 * ((K.sum(axis=1).max() + eps) ** n_max + pmf.p.sum()) + eps
    return least <= least.min() + cap


def spectral_tv_bound_check(kernel: Kernel, pmf: Pmf, n_max: int) -> SpectralReport:
    """Verify ||q^n(.|x) - pi||_TV <= lambda_*^n / (2 sqrt(pi(x))) + SPECTRAL_SLACK for n = 1..n_max.

    Requires a kernel reversible with respect to pmf (residual <= 1e-8): only
    then is D q D^(-1) symmetric and the eigenvalue bound meaningful.

    Only the rows that can hold the maximum violation are stepped: TV lies
    in [0, 1] up to rounding and the bound is monotone in n, so a row whose
    least bound exceeds another row's by more than 1 never reaches that
    row's violation at TV = 0, and skipping it cannot change the maximum.
    """
    K = kernel.matrix
    n = K.shape[0]
    _within(n, SPECTRAL_CAPACITY, "spectral states")
    residual = detailed_balance_check(kernel, pmf)
    if residual > 1e-8:
        raise PreconditionError(f"kernel is not reversible wrt pmf (residual {residual:.3e})")
    root = np.sqrt(pmf.p)
    sym = (root[:, None] / root[None, :]) * K
    sym = 0.5 * (sym + sym.T)  # symmetric up to the reversibility residual
    w = np.linalg.eigvalsh(sym)[::-1]  # descending
    lambda0_error = abs(w[0] - 1.0)
    lambda_star = max(w[1], abs(w[-1])) if n > 1 else 0.0
    worst = -np.inf
    rows = _rows_that_can_hold_the_max(K, pmf, lambda_star, n_max)
    Kn = np.eye(n)[rows]
    for step in range(1, n_max + 1):
        Kn = Kn @ K
        tv = 0.5 * np.abs(Kn - pmf.p[None, :]).sum(axis=1)
        bound = lambda_star**step / (2.0 * root[rows]) + SPECTRAL_SLACK
        worst = max(worst, float((tv - bound).max()))
    return SpectralReport(
        eigenvalues=w,
        lambda_star=float(lambda_star),
        lambda0_error=float(lambda0_error),
        max_bound_violation=float(worst),
    )


def colour_classes(model: QuadraticEnergy) -> list:
    """Greedy colouring of the coupling graph from the neighbour table: the sites of each colour, ascending.

    Sites are coloured in index order, each with the smallest colour that
    none of its already coloured neighbours has, so no two sites of a class
    are coupled: 2 classes on an even-side torus, 4 on the 3^2 and 5^2 tori
    (whose 3-colourings greedy order misses).  Only +-1 spins with a zero
    diagonal in J are accepted, the case where heat_bath_sweep's
    conditional is exact.
    """
    model = _require_quadratic(model)
    if model.domain.kind != SPIN_PM1:
        raise DomainError("the heat-bath reference runs on spin_pm1 states")
    if ((model.nbr == np.arange(model.domain.dim)) & (model.wts != 0)).any():
        raise DomainError("the heat-bath reference needs J with a zero diagonal")
    colour = [-1] * model.domain.dim
    for d, (sites, wts) in enumerate(zip(model.nbr.T.tolist(), model.wts.T.tolist())):
        taken = {colour[j] for j, wt in zip(sites, wts) if wt != 0.0}
        colour[d] = next(c for c in range(len(taken) + 1) if c not in taken)
    colour = np.array(colour)
    return [np.flatnonzero(colour == c) for c in range(colour.max() + 1)]


def heat_bath_sweep(model: QuadraticEnergy, classes, spins: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One colour-class heat-bath sweep over the rows of spins (K independent +-1 chains, shape (K, dim)).

    The classes of colour_classes are updated in turn.  No two sites of a
    class are coupled, so given the other sites U is affine in each of them,
    and flipping x_d from -1 to +1 raises U by 2 g_d with g the model's own
    gradient: each site is set to +1 with probability sigmoid(2 g_d).  A
    class draws its uniforms with one rng.random((K, class size)).
    """
    spins = np.array(spins, dtype=float)
    for sites in classes:
        g = model.value_and_grad_batch(spins)[1][:, sites]
        spins[:, sites] = np.where(rng.random(g.shape) < _sigmoid(2.0 * g), 1.0, -1.0)
    return spins
