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

One kernel steps K chains together over a (K, dim) state array: all the
repeats of a run, and both chains of each replica pair.  Every chain
carries its retained state together with that state's energy, gradient
and log-proposal table.  A step draws from the carried tables and
evaluates the energy once per chain, at the proposals: that one
`value_and_grad_batch` call gives the Metropolis energies, the reverse
log-proposals and, on acceptance, the next forward tables.
"""

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .domains import BINARY01, SPIN_PM1, DomainSpec
from .energies import EnergyModel, _sigmoid
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


def _logits(x: np.ndarray, g: np.ndarray, values: np.ndarray, alpha, tau) -> np.ndarray:
    """(..., dim, levels) proposal logits at embedded states x with gradients g; alpha, tau broadcast per chain."""
    diff = values - x[..., None]
    return g[..., None] / (2.0 * tau) * diff - diff**2 / (2.0 * alpha)


def proposal_logits(model: EnergyModel, state: np.ndarray, params: ChainParams, coord: int) -> np.ndarray:
    """Unnormalized log proposal weights for one coordinate's value set."""
    domain = model.domain
    if not 0 <= coord < domain.dim:
        raise DomainError(f"coordinate {coord} out of range for dim {domain.dim}")
    return _all_logits(model, domain.validate_state(state), params)[coord]


def _all_logits(model, state, params):
    """(dim, levels) logit matrix; row d is proposal_logits for coordinate d."""
    x = model.domain.value_table[state]
    return _logits(x, model.gradient(x), model.domain.value_table, params.alpha, params.tau)


def _log_softmax(logits):
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _accepts(log_a, u):
    """Metropolis decisions u < min(1, exp(log_a)); a NaN ratio stays NaN and never accepts."""
    return u < np.exp(np.minimum(log_a, 0.0))


def _swap_probs(swap: SwapConfig, tau1, tau2, u_next1, u_next2, u_prev1, u_prev2):
    """rho * min(1, S) elementwise over pairs of chains; see swap_probability."""
    beta = 1.0 / tau2 - 1.0 / tau1
    if swap.variant == NAIVE:
        exponent = beta * (u_next1 - u_next2)
    elif swap.variant == BIAS_CORRECTED:
        exponent = beta * (u_next1 - u_next2 - beta * swap.sigma2)
    else:
        # grouped per chain so exchanging next and previous energies is an
        # exact float identity, not merely a mathematical one
        exponent = beta * ((u_next1 + u_prev1) - (u_next2 + u_prev2))
    # min(1, e^x) == e^min(0, x), and the right side cannot overflow
    return swap.rho * np.exp(np.minimum(exponent, 0.0))


class _Chains(NamedTuple):
    """K chains' retained states with their energies, gradients and log-softmax proposal tables."""

    states: np.ndarray  # (K, dim) value indices
    energy: np.ndarray  # (K,)
    grad: np.ndarray  # (K, dim)
    logp: np.ndarray  # (K, dim, levels)


class _Kernel:
    """The one chain kernel: K chains over one model, with per-chain step size, temperature and MH switch.

    With a swap configuration the rows form replica pairs, row 2p the low
    and row 2p + 1 the high chain of pair p.  Every public step function and
    both run functions go through this class.  States handed to it must be
    in range; the public entry points validate them.
    """

    def __init__(self, model: EnergyModel, params, swap: Optional[SwapConfig] = None):
        self.model = model
        self.values = model.domain.value_table
        self.alpha = np.array([p.alpha for p in params], dtype=float)
        self.tau = np.array([p.tau for p in params], dtype=float)
        self.mh = np.array([p.mh_enabled for p in params], dtype=bool)
        self.swap = swap
        k = len(params)
        self.cells = (np.arange(k)[:, None], np.arange(model.domain.dim))  # (chain, coordinate) of each table row
        self.always = np.ones(k, dtype=bool)
        self.widths = model.domain.dim + self.mh  # uniforms each chain draws per iteration
        self.draws = np.zeros((k, model.domain.dim + 1))
        if swap is not None and ((self.tau[0::2] >= self.tau[1::2]) | (self.alpha[0::2] >= self.alpha[1::2])).any():
            warnings.warn(
                "replica pair expects tau_low < tau_high and alpha_low < alpha_high; running anyway",
                stacklevel=3,
            )
        self.labels = ("low", "high") * (k // 2) if swap is not None else ("low",) * k

    def table(self, states: np.ndarray, energy: np.ndarray, grad: np.ndarray, rows=None) -> np.ndarray:
        """Log-softmax proposal tables of the chains in rows (default all), at states with energies and gradients.

        Raises NumericError naming the first of those chains whose energy or
        table is not finite, so a bad model can never drive the proposal or
        the Metropolis test with NaNs.  Every table row holds the
        zero-distance stay entry, so a non-finite gradient, or a finite one
        whose g / (2 tau) * diff overflows, turns the table NaN.  A step size
        so small that the move penalty is infinite only zeroes the move
        probabilities.
        """
        alpha, tau = (self.alpha, self.tau) if rows is None else (self.alpha[rows], self.tau[rows])
        logp = _log_softmax(_logits(self.values[states], grad, self.values, alpha[:, None, None], tau[:, None, None]))
        if np.isnan(logp).any() or not np.isfinite(energy).all():
            rows = np.arange(len(self.tau)) if rows is None else rows
            k = int(np.argmax(np.isnan(logp).any(axis=(1, 2)) | ~np.isfinite(energy)))
            if not np.isfinite(energy[k]):
                cause = f"energy not finite (U = {float(energy[k])})"
            elif np.isfinite(grad[k]).all():
                cause = f"gradient overflows the logits at tau = {float(tau[k])}"
            else:
                cause = f"{int(np.count_nonzero(~np.isfinite(grad[k])))} of {grad[k].size} gradient entries not finite"
            exc = NumericError(f"{self.labels[rows[k]]} chain: {cause}")
            exc.row = int(rows[k])  # the batch row at fault; run_batch names its seed
            raise exc
        return logp

    def evaluate(self, states: np.ndarray) -> _Chains:
        """The one energy evaluation per chain: U, grad U and the proposal table at each state."""
        u, g = self.model.value_and_grad_batch(self.values[states])
        u = np.asarray(u, dtype=float)
        g = np.asarray(g, dtype=float)
        return _Chains(states, u, g, self.table(states, u, g))

    def propose(self, chains: _Chains, u: np.ndarray):
        """Draw every coordinate of every chain from its carried table with the (K, dim) uniforms u.

        Returns the proposals' chain records with the forward and reverse
        log-proposals; the reverse one is read off each proposal's own table
        and is NaN for chains without the Metropolis correction.
        """
        cum = np.exp(chains.logp).cumsum(axis=2)
        cum /= cum[:, :, -1:]  # exact 1.0 in the last column; draws in [0,1) stay in range
        prop = (cum < u[:, :, None]).sum(axis=2)
        forward_logq = chains.logp[(*self.cells, prop)].sum(axis=1)
        new = self.evaluate(prop)
        reverse_logq = np.where(self.mh, new.logp[(*self.cells, chains.states)].sum(axis=1), np.nan)
        return new, forward_logq, reverse_logq

    def draw(self, rngs) -> np.ndarray:
        """Each chain's uniforms for one iteration, from its own generator, as the rows of one buffer."""
        for rng, row, width in zip(rngs, self.draws, self.widths):
            rng.random(out=row[:width])
        return self.draws

    def step(self, chains: _Chains, draws: np.ndarray):
        """One proposal and Metropolis decision per chain.

        draws is (K, dim + 1): each chain's dim proposal uniforms, then its
        Metropolis uniform (read only under the correction).  Returns the
        retained chains, the proposals, both log-proposals and the accept
        flags.
        """
        dim = chains.states.shape[1]
        new, forward_logq, reverse_logq = self.propose(chains, draws[:, :dim])
        if not self.mh.any():
            return new, new, forward_logq, reverse_logq, self.always
        log_a = (new.energy - chains.energy) / self.tau + reverse_logq - forward_logq
        accepted = ~self.mh | _accepts(log_a, draws[:, dim])
        if accepted.all():
            return new, new, forward_logq, reverse_logq, accepted
        kept = _Chains(*(np.where(accepted.reshape((-1,) + (1,) * (a.ndim - 1)), a, b) for a, b in zip(new, chains)))
        return kept, new, forward_logq, reverse_logq, accepted

    def exchange(self, prev_energy: np.ndarray, chains: _Chains, u: np.ndarray):
        """Each pair's swap test on its own rows, with one uniform per pair.

        The probability sees the energies of the states actually retained
        after the Metropolis decisions (U_next) together with those the
        iteration started from (U_prev).  A swap exchanges states, energies
        and gradients, and rebuilds each table under the receiving chain's
        (alpha, tau).  Returns the chains and the (pairs,) swap flags.
        """
        e = chains.energy
        p = _swap_probs(self.swap, self.tau[0::2], self.tau[1::2], e[0::2], e[1::2], prev_energy[0::2], prev_energy[1::2])
        swapped = u < p
        if not swapped.any():
            return chains, swapped
        rows = np.flatnonzero(np.repeat(swapped, 2))
        order = np.arange(e.shape[0])
        order[rows] = rows ^ 1
        states, energy, grad = chains.states[order], e[order], chains.grad[order]
        logp = chains.logp.copy()
        logp[rows] = self.table(states[rows], energy[rows], grad[rows], rows)
        return _Chains(states, energy, grad, logp), swapped


def binary_flip_probs(model: EnergyModel, state: np.ndarray, params: ChainParams) -> np.ndarray:
    """Closed-form per-coordinate flip probabilities for two-level domains."""
    domain = model.domain
    if domain.kind not in (BINARY01, SPIN_PM1):
        raise DomainError(f"binary_flip_probs needs a two-level domain, got {domain.kind}")
    state = domain.validate_state(state)
    logits = _all_logits(model, state, params)
    # two-category softmax against the zero stay-logit is a sigmoid
    return _sigmoid(logits[np.arange(domain.dim), 1 - state])


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
    return float(_swap_probs(config, tau1, tau2, u_next1, u_next2, u_prev1, u_prev2))


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
    wall_clock: float  # seconds of the whole run_batch call that made this trace
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
    """Run a configured sampler; fully determined by (seed, config).  The one-config run_batch."""
    return run_batch(model, [config])[0]


def run_batch(model: EnergyModel, configs) -> list:
    """Run configs that differ only in seed as one batch; one RunTrace per config, in order.

    All K = len(configs) x chains-per-run chains step together through one
    kernel over a (K, dim) state array.  Each chain keeps its own low or
    high substream and each replica pair its own swap substream, drawing
    dim uniforms (plus 1 under Metropolis) per iteration, so every trace
    equals the standalone run of its seed.  Single-chain samplers are the
    rho=0, one-chain degenerate case: they use the same low-chain substream,
    so a DREXEL run with rho=0 is trajectory-identical on its low chain to
    the standalone run.  Every iteration evaluates the energy once per
    chain, at its proposal.  A non-finite energy or gradient raises
    NumericError naming the seed, the iteration and the chain.
    """
    t0 = time.perf_counter()
    configs = list(configs)
    if not configs:
        raise DomainError("run_batch needs at least one config")
    first = configs[0]
    for cfg in configs[1:]:
        if replace(cfg, seed=first.seed) != first:
            raise DomainError(f"run_batch configs may differ only in seed: {cfg} vs {first}")
    domain, dim = model.domain, model.domain.dim
    replica = first.is_replica
    n = 2 if replica else 1
    params = first.chain_params()[:n] * len(configs)
    seeds = [cfg.seed for cfg in configs]
    rngs = [substream(seed, salt) for seed in seeds for salt in (SALT_LOW, SALT_HIGH)[:n]]
    swap_rngs = [substream(seed, SALT_SWAP) for seed in seeds] if replica else []
    kernel = _Kernel(model, params, first.swap_config() if replica else None)
    iters, thin = first.iterations, first.thin
    states = np.empty((len(configs), len(range(0, iters, thin)), dim), dtype=np.int16)
    energies = np.empty((len(rngs), iters))
    accepted = np.empty((len(rngs), iters), dtype=bool)
    swapped = np.zeros((len(configs), iters), dtype=bool)
    i = None
    try:
        chains = kernel.evaluate(np.stack([_draw_init(domain, first, rng) for rng in rngs]))
        for i in range(iters):
            prev_energy = chains.energy
            chains, _, _, _, accepted[:, i] = kernel.step(chains, kernel.draw(rngs))
            if replica:
                u_swap = np.array([rng.random() for rng in swap_rngs])
                chains, swapped[:, i] = kernel.exchange(prev_energy, chains, u_swap)
            energies[:, i] = chains.energy
            if i % thin == 0:
                states[:, i // thin] = chains.states[::n]
    except NumericError as exc:
        where = "initial states" if i is None else f"iteration {i}"
        raise NumericError(f"seed {seeds[exc.row // n]}, {where}: {exc}") from exc
    wall_clock = time.perf_counter() - t0
    return [
        RunTrace(
            states=states[r],
            energy_low=energies[r * n],
            energy_high=energies[r * n + 1] if replica else None,
            accepted_low=accepted[r * n],
            accepted_high=accepted[r * n + 1] if replica else None,
            swapped=swapped[r] if replica else None,
            iterations=iters,
            swap_attempts=iters if replica else 0,
            swap_successes=int(swapped[r].sum()),
            seed=seed,
            thin=thin,
            wall_clock=wall_clock,
            domain=domain,
        )
        for r, seed in enumerate(seeds)
    ]
