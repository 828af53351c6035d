"""Gradient-based discrete samplers with replica exchange.

Single chains: DULA (no Metropolis correction) and DMALA (with correction).
Replica pairs: DREXEL/DREAM exchange states between a low- and a
high-temperature chain; the b-prefixed variants use the bias-corrected swap.

Each chain proposes every coordinate independently from a categorical whose
logit at candidate value v is

    grad_d / (2 tau) * (v - x_d)  -  (v - x_d)^2 / (2 alpha),

normalized by an overflow-safe softmax.  The quadratic penalty is not divided
by the temperature; a tempered-penalty parameterization is recovered by
substituting alpha' = alpha * tau.

Every chain carries its retained state together with that state's energy,
gradient and log-proposal table.  A step draws from the carried table and
evaluates the energy once, at the proposal: that one `value_and_grad` call
gives the Metropolis energy, the reverse log-proposal and, on acceptance,
the next forward table.  All public step functions wrap this one path.
"""

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .domains import BINARY01, SPIN_PM1, DomainSpec, embed
from .energies import EnergyModel, _sigmoid, energy_value
from .errors import DomainError, NumericError
from .rng import SALT_HIGH, SALT_LOW, SALT_SWAP, substream

DULA = "dula"
DMALA = "dmala"
DREXEL = "drexel"
DREAM = "dream"
BDREXEL = "bdrexel"
BDREAM = "bdream"

SINGLE_CHAIN_SAMPLERS = (DULA, DMALA)
REPLICA_SAMPLERS = (DREXEL, DREAM, BDREXEL, BDREAM)

NAIVE = "naive"
BIAS_CORRECTED = "bias_corrected"
HISTORY = "history"


@dataclass(frozen=True)
class ChainParams:
    """Step size and temperature of one chain, plus its Metropolis switch."""

    alpha: float
    tau: float = 1.0
    mh_enabled: bool = False

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError(f"step size alpha must be positive, got {self.alpha}")
        if not self.tau > 0:
            raise DomainError(f"temperature tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class SwapConfig:
    """Swap variant and intensity rho; sigma2 only enters the bias-corrected swap."""

    variant: str = HISTORY
    rho: float = 1.0
    sigma2: float = 0.0

    def __post_init__(self):
        if self.variant not in (NAIVE, BIAS_CORRECTED, HISTORY):
            raise DomainError(f"unknown swap variant {self.variant!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise DomainError(f"swap intensity rho must be in [0, 1], got {self.rho}")
        if self.sigma2 < 0:
            raise DomainError(f"sigma2 must be nonnegative, got {self.sigma2}")


@dataclass(frozen=True)
class StepOutcome:
    """Result of one chain step: retained state plus proposal bookkeeping."""

    state: np.ndarray
    proposal: np.ndarray
    forward_logq: float
    reverse_logq: float
    accepted: bool
    energy: float  # U at the retained state
    proposal_energy: float


def _logits(x: np.ndarray, g: np.ndarray, values: np.ndarray, params: ChainParams) -> np.ndarray:
    """(dim, levels) proposal logits at embedded state x with gradient g over the value set."""
    diff = values[None, :] - x[:, None]
    return g[:, None] / (2.0 * params.tau) * diff - diff**2 / (2.0 * params.alpha)


def proposal_logits(model: EnergyModel, state: np.ndarray, params: ChainParams, coord: int) -> np.ndarray:
    """Unnormalized log proposal weights for one coordinate's value set."""
    domain = model.domain
    if not 0 <= coord < domain.dim:
        raise DomainError(f"coordinate {coord} out of range for dim {domain.dim}")
    x = embed(state, domain)
    return _logits(x, model.gradient(x), domain.value_table, params)[coord]


def _all_logits(model, state, params):
    """(dim, levels) logit matrix; row d is proposal_logits for coordinate d."""
    x = model.domain.value_table[state]
    return _logits(x, model.gradient(x), model.domain.value_table, params)


def _log_softmax(logits):
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


class _Chain(NamedTuple):
    """A chain's retained state with its energy, gradient and log-softmax proposal table."""

    state: np.ndarray
    energy: float
    grad: np.ndarray
    logp: np.ndarray


def _table(x: np.ndarray, g: np.ndarray, values: np.ndarray, params: ChainParams, label: str) -> np.ndarray:
    """Log-softmax proposal table at embedded state x with gradient g.

    Every row holds the zero-distance stay entry, so a non-finite gradient,
    or a finite one whose g / (2 tau) * diff overflows, turns the table NaN;
    that raises NumericError naming the chain.  A step size so small that the
    move penalty is infinite only zeroes the move probabilities.
    """
    logp = _log_softmax(_logits(x, g, values, params))
    if np.isnan(logp).any():
        bad = int(np.count_nonzero(~np.isfinite(g)))
        if bad:
            cause = f"{bad} of {g.size} gradient entries not finite"
        else:
            cause = f"gradient overflows the logits at tau = {params.tau}"
        raise NumericError(f"{label} chain: {cause}")
    return logp


def _evaluate(model: EnergyModel, state: np.ndarray, params: ChainParams, label: str) -> _Chain:
    """The one energy evaluation of a chain step: U, grad U and the proposal table at state.

    Raises NumericError naming the chain when the energy or the gradient is
    not finite, so a bad model can never drive the proposal or the
    Metropolis test with NaNs.
    """
    values = model.domain.value_table
    state = model.domain.validate_state(state)
    x = values[state]
    u, g = model.value_and_grad(x)
    u = float(u)
    if not math.isfinite(u):
        raise NumericError(f"{label} chain: energy not finite (U = {u})")
    g = np.asarray(g, dtype=float)
    return _Chain(state, u, g, _table(x, g, values, params, label))


def _retable(model: EnergyModel, chain: _Chain, params: ChainParams, label: str) -> _Chain:
    """The same state, energy and gradient with the proposal table of another chain's (alpha, tau)."""
    values = model.domain.value_table
    return chain._replace(logp=_table(values[chain.state], chain.grad, values, params, label))


def _dls(model: EnergyModel, chain: _Chain, params: ChainParams, rng: np.random.Generator, label: str):
    """Draw every coordinate from the carried table, then evaluate the proposal once.

    Returns the proposal's chain record with the forward and reverse
    log-proposals; the reverse one is read off the proposal's own table and
    is NaN unless the chain has its Metropolis correction enabled.
    """
    cum = np.exp(chain.logp).cumsum(axis=1)
    cum /= cum[:, -1:]  # exact 1.0 in the last column; draws in [0,1) stay in range
    u = rng.random(chain.state.shape[0])
    prop = (cum < u[:, None]).sum(axis=1).astype(np.int64)
    rows = np.arange(prop.shape[0])
    forward_logq = float(chain.logp[rows, prop].sum())
    new = _evaluate(model, prop, params, label)
    reverse_logq = float(new.logp[rows, chain.state].sum()) if params.mh_enabled else float("nan")
    return new, forward_logq, reverse_logq


def _metropolis(delta_u: float, tau: float, forward_logq: float, reverse_logq: float, rng) -> bool:
    """Accept with probability min(1, exp(log ratio)) against pi^(1/tau); one uniform draw."""
    log_a = delta_u / tau + reverse_logq - forward_logq
    # min(log_a, 0.0) keeps a NaN ratio NaN, and u < NaN never accepts
    return bool(rng.random() < np.exp(min(log_a, 0.0)))


def _step(model: EnergyModel, chain: _Chain, params: ChainParams, rng: np.random.Generator, label: str):
    """One chain update on the cached path: returns (retained chain record, outcome)."""
    new, forward_logq, reverse_logq = _dls(model, chain, params, rng, label)
    delta_u = new.energy - chain.energy
    accepted = not params.mh_enabled or _metropolis(delta_u, params.tau, forward_logq, reverse_logq, rng)
    kept = new if accepted else chain
    outcome = StepOutcome(
        state=kept.state,
        proposal=new.state,
        forward_logq=forward_logq,
        reverse_logq=reverse_logq,
        accepted=accepted,
        energy=kept.energy,
        proposal_energy=new.energy,
    )
    return kept, outcome


def dls_step(model: EnergyModel, state: np.ndarray, params: ChainParams, rng: np.random.Generator) -> StepOutcome:
    """Draw all coordinates from their categoricals (no accept/reject here).

    The proposal's single energy evaluation gives its energy and, when the
    chain has its Metropolis correction enabled, the reverse log-proposal.
    """
    chain = _evaluate(model, state, params, "low")
    new, forward_logq, reverse_logq = _dls(model, chain, params, rng, "low")
    return StepOutcome(
        state=new.state,
        proposal=new.state,
        forward_logq=forward_logq,
        reverse_logq=reverse_logq,
        accepted=True,
        energy=new.energy,
        proposal_energy=new.energy,
    )


def binary_flip_probs(model: EnergyModel, state: np.ndarray, params: ChainParams) -> np.ndarray:
    """Closed-form per-coordinate flip probabilities for two-level domains."""
    domain = model.domain
    if domain.kind not in (BINARY01, SPIN_PM1):
        raise DomainError(f"binary_flip_probs needs a two-level domain, got {domain.kind}")
    state = domain.validate_state(state)
    logits = _all_logits(model, state, params)
    # two-category softmax against the zero stay-logit is a sigmoid
    return _sigmoid(logits[np.arange(domain.dim), 1 - state])


def mh_accept(
    model: EnergyModel,
    params: ChainParams,
    outcome: StepOutcome,
    current: np.ndarray,
    rng: np.random.Generator,
    current_energy: Optional[float] = None,
) -> bool:
    """Metropolis decision for a dls_step proposal against pi^(1/tau)."""
    if np.isnan(outcome.reverse_logq):
        raise DomainError("outcome has no reverse log-proposal; run dls_step with mh_enabled params")
    if current_energy is None:
        current_energy = energy_value(model, current)
    if not np.isfinite(outcome.proposal_energy):
        raise NumericError(f"proposal energy not finite: {outcome.proposal_energy}")
    return _metropolis(
        outcome.proposal_energy - current_energy, params.tau, outcome.forward_logq, outcome.reverse_logq, rng
    )


def chain_step(
    model: EnergyModel,
    state: np.ndarray,
    params: ChainParams,
    rng: np.random.Generator,
    current_energy: Optional[float] = None,
) -> StepOutcome:
    """One full chain update: propose, then apply the Metropolis decision if enabled."""
    chain = _evaluate(model, state, params, "low")
    if current_energy is not None:
        chain = chain._replace(energy=current_energy)
    return _step(model, chain, params, rng, "low")[1]


def swap_probability(
    config: SwapConfig,
    tau1: float,
    tau2: float,
    u_next1: float,
    u_next2: float,
    u_prev1: float,
    u_prev2: float,
) -> float:
    """Probability of exchanging the two chains' states: rho * min(1, S).

    naive           S = exp[(1/tau2 - 1/tau1) (U1 - U2)]
    bias_corrected  adds (1/tau1 - 1/tau2) sigma2 inside the bracket
    history         uses U1 + U1_prev - U2 - U2_prev
    """
    for u in (u_next1, u_next2, u_prev1, u_prev2):
        if not np.isfinite(u):
            raise NumericError(f"swap probability needs finite energies, got {u}")
    beta = 1.0 / tau2 - 1.0 / tau1
    if config.variant == NAIVE:
        exponent = beta * (u_next1 - u_next2)
    elif config.variant == BIAS_CORRECTED:
        exponent = beta * (u_next1 - u_next2 - beta * config.sigma2)
    else:
        # grouped per chain so exchanging next and previous energies is an
        # exact float identity, not merely a mathematical one
        exponent = beta * ((u_next1 + u_prev1) - (u_next2 + u_prev2))
    # min(1, e^x) == e^min(0, x), and the right side cannot overflow
    return config.rho * float(np.exp(min(0.0, exponent)))


@dataclass(frozen=True)
class ReplicaPair:
    """A low- and a high-temperature chain, each carrying its retained state's energy, gradient and table."""

    chain_low: _Chain
    chain_high: _Chain
    params_low: ChainParams
    params_high: ChainParams
    swap: SwapConfig

    def __post_init__(self):
        if self.params_low.tau >= self.params_high.tau or self.params_low.alpha >= self.params_high.alpha:
            warnings.warn(
                "replica pair expects tau_low < tau_high and alpha_low < alpha_high; "
                "running anyway",
                stacklevel=3,
            )

    @property
    def low(self) -> np.ndarray:
        return self.chain_low.state

    @property
    def high(self) -> np.ndarray:
        return self.chain_high.state

    @property
    def prev_energy_low(self) -> float:
        return self.chain_low.energy

    @property
    def prev_energy_high(self) -> float:
        return self.chain_high.energy


@dataclass(frozen=True)
class IterationStats:
    accepted_low: bool
    accepted_high: bool
    swapped: bool
    energy_low: float
    energy_high: float


def make_replica_pair(low, high, params_low, params_high, swap, model) -> ReplicaPair:
    return ReplicaPair(
        chain_low=_evaluate(model, low, params_low, "low"),
        chain_high=_evaluate(model, high, params_high, "high"),
        params_low=params_low,
        params_high=params_high,
        swap=swap,
    )


_LABELS = ("low", "high")


def _iterate(model, chains, params, rngs, swap, rng_swap):
    """One sampler iteration over a single chain or a low/high pair.

    Each chain takes one cached step.  A pair then tries a swap: its
    probability sees the energies of the states actually retained after the
    Metropolis decisions (U_next) together with those the iteration started
    from (U_prev).  A swap exchanges states, energies and gradients, and
    rebuilds each proposal table under the receiving chain's (alpha, tau).
    Returns (chains, accepted flags, swapped).
    """
    steps = [_step(model, c, p, r, label) for c, p, r, label in zip(chains, params, rngs, _LABELS)]
    kept = [chain for chain, _ in steps]
    accepted = [out.accepted for _, out in steps]
    if len(kept) == 1:
        return kept, accepted, False
    low, high = kept
    p_swap = swap_probability(
        swap, params[0].tau, params[1].tau, low.energy, high.energy, chains[0].energy, chains[1].energy
    )
    if rng_swap.random() < p_swap:
        return [_retable(model, high, params[0], "low"), _retable(model, low, params[1], "high")], accepted, True
    return kept, accepted, False


def replica_step(
    pair: ReplicaPair,
    model: EnergyModel,
    rng_low: np.random.Generator,
    rng_high: np.random.Generator,
    rng_swap: np.random.Generator,
):
    """One replica-exchange iteration: step both chains, then try a swap.

    The swap probability sees the energies of the states actually retained
    after the Metropolis decisions (U_next) together with the cached energies
    from the start of the iteration (U_prev); the caches roll forward to the
    post-swap current energies.
    """
    (low, high), accepted, swapped = _iterate(
        model,
        (pair.chain_low, pair.chain_high),
        (pair.params_low, pair.params_high),
        (rng_low, rng_high),
        pair.swap,
        rng_swap,
    )
    stats = IterationStats(
        accepted_low=accepted[0],
        accepted_high=accepted[1],
        swapped=swapped,
        energy_low=low.energy,
        energy_high=high.energy,
    )
    return replace(pair, chain_low=low, chain_high=high), stats


@dataclass(frozen=True)
class RunConfig:
    """Everything a sampler run needs besides the energy model."""

    sampler: str
    iterations: int
    seed: int
    alpha: float
    tau: float = 1.0
    alpha_high: Optional[float] = None
    tau_high: Optional[float] = None
    rho: float = 1.0
    sigma2: float = 0.0
    thin: int = 1
    init: str = "uniform"  # or "bernoulli" with init_prob for two-level domains
    init_prob: float = 0.5

    def __post_init__(self):
        if self.sampler not in SINGLE_CHAIN_SAMPLERS + REPLICA_SAMPLERS:
            raise DomainError(f"unknown sampler {self.sampler!r}")
        if self.iterations < 1:
            raise DomainError("iterations must be >= 1")
        if self.thin < 1:
            raise DomainError("thinning stride must be >= 1")
        if self.sampler in REPLICA_SAMPLERS and (self.alpha_high is None or self.tau_high is None):
            raise DomainError(f"{self.sampler} needs alpha_high and tau_high")

    @property
    def is_replica(self) -> bool:
        return self.sampler in REPLICA_SAMPLERS

    @property
    def mh_enabled(self) -> bool:
        return self.sampler in (DMALA, DREAM, BDREAM)

    def chain_params(self):
        low = ChainParams(alpha=self.alpha, tau=self.tau, mh_enabled=self.mh_enabled)
        if not self.is_replica:
            return low, None
        high = ChainParams(alpha=self.alpha_high, tau=self.tau_high, mh_enabled=self.mh_enabled)
        return low, high

    def swap_config(self):
        variant = BIAS_CORRECTED if self.sampler in (BDREXEL, BDREAM) else HISTORY
        return SwapConfig(variant=variant, rho=self.rho, sigma2=self.sigma2)


@dataclass
class RunTrace:
    """Low-chain states plus per-iteration statistics from one run."""

    states: np.ndarray  # (kept, dim) int16
    energy_low: np.ndarray
    energy_high: Optional[np.ndarray]
    accepted_low: np.ndarray
    accepted_high: Optional[np.ndarray]
    swapped: Optional[np.ndarray]
    iterations: int
    swap_attempts: int
    swap_successes: int
    seed: int
    thin: int
    wall_clock: float
    domain: Optional[DomainSpec] = field(repr=False, default=None)

    @property
    def is_replica(self) -> bool:
        return self.energy_high is not None


def _draw_init(domain: DomainSpec, config: RunConfig, rng: np.random.Generator) -> np.ndarray:
    if config.init == "uniform":
        return rng.integers(0, domain.levels, size=domain.dim, dtype=np.int64)
    if config.init == "bernoulli":
        if domain.levels != 2:
            raise DomainError("bernoulli init needs a two-level domain")
        return (rng.random(domain.dim) < config.init_prob).astype(np.int64)
    raise DomainError(f"unknown init {config.init!r}")


def run_sampler(model: EnergyModel, config: RunConfig) -> RunTrace:
    """Run a configured sampler; fully determined by (seed, config).

    Single-chain samplers are the rho=0, one-chain degenerate case: they use
    the same low-chain substream, so a DREXEL run with rho=0 is
    trajectory-identical on its low chain to the standalone run.  Every
    iteration evaluates the energy once per chain, at its proposal.  A
    non-finite energy or gradient raises NumericError naming the seed, the
    iteration and the chain.
    """
    t0 = time.perf_counter()
    domain = model.domain
    replica = config.is_replica
    n = 2 if replica else 1
    params = config.chain_params()[:n]
    rngs = [substream(config.seed, salt) for salt in (SALT_LOW, SALT_HIGH)[:n]]
    rng_swap = substream(config.seed, SALT_SWAP) if replica else None
    iters = config.iterations
    states = np.empty((len(range(0, iters, config.thin)), domain.dim), dtype=np.int16)
    energies = np.empty((n, iters))
    accepted = np.empty((n, iters), dtype=bool)
    swapped = np.zeros(iters, dtype=bool)
    swap = config.swap_config() if replica else None
    i = None
    try:
        inits = [_draw_init(domain, config, rng) for rng in rngs]
        if replica:
            pair = make_replica_pair(inits[0], inits[1], params[0], params[1], swap, model)
            chains = [pair.chain_low, pair.chain_high]
        else:
            chains = [_evaluate(model, inits[0], params[0], "low")]
        for i in range(iters):
            chains, accepted[:, i], swapped[i] = _iterate(model, chains, params, rngs, swap, rng_swap)
            for c, chain in enumerate(chains):
                energies[c, i] = chain.energy
            if i % config.thin == 0:
                states[i // config.thin] = chains[0].state
    except NumericError as exc:
        where = "initial states" if i is None else f"iteration {i}"
        raise NumericError(f"seed {config.seed}, {where}: {exc}") from exc
    return RunTrace(
        states=states,
        energy_low=energies[0],
        energy_high=energies[1] if replica else None,
        accepted_low=accepted[0],
        accepted_high=accepted[1] if replica else None,
        swapped=swapped if replica else None,
        iterations=iters,
        swap_attempts=iters if replica else 0,
        swap_successes=int(swapped.sum()),
        seed=config.seed,
        thin=config.thin,
        wall_clock=time.perf_counter() - t0,
        domain=domain,
    )
