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

On a two-level domain (0/1 units, +-1 spins) the kernel does the same
arithmetic on the two (K, dim) level planes instead of a (K, dim, 2)
log-softmax and cumulative draw, and gives the same bits: a max reduce over
two entries is np.maximum of them; a sum of two terms has a single rounding
either way; and the last column of the cumulative draw, cum / cum[-1], is
exactly 1.0, above every uniform in [0, 1), so its first column
c0 / (c0 + c1) alone decides the draw.  Under the Metropolis correction,
and only there, the log-proposals of the drawn and the current values are
read with np.where on the two columns.
"""

import itertools
import os
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .domains import ENUMERATION_CAPACITY, DomainSpec, all_states, flat_index
from .energies import EnergyModel
from .errors import DomainError, NumericError
from .rng import SALT_HIGH, SALT_LOW, SALT_SWAP, substream

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))

DULA = "dula"
DMALA = "dmala"
DREXEL = "drexel"
DREAM = "dream"
BDREXEL = "bdrexel"
BDREAM = "bdream"

SINGLE_CHAIN_SAMPLERS = (DULA, DMALA)
REPLICA_SAMPLERS = (DREXEL, DREAM, BDREXEL, BDREAM)

BIAS_CORRECTED = "bias_corrected"
HISTORY = "history"

_DRAW_BLOCK = 1 << 16  # most uniforms run_batch draws in one block: 512 KiB of doubles


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
        if self.variant not in (BIAS_CORRECTED, HISTORY):
            raise DomainError(f"unknown swap variant {self.variant!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise DomainError(f"swap intensity rho must be in [0, 1], got {self.rho}")
        if not 0.0 <= self.sigma2 < np.inf:
            raise DomainError(f"sigma2 must be finite and nonnegative, got {self.sigma2}")


def _logits(x: np.ndarray, g: np.ndarray, values: np.ndarray, alpha, tau) -> np.ndarray:
    """(..., dim, levels) proposal logits at embedded states x with gradients g; alpha, tau broadcast per chain."""
    diff = values - x[..., None]
    return g[..., None] / (2.0 * tau) * diff - diff**2 / (2.0 * alpha)


def _log_softmax(logits):
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _two_level_log_softmax(x: np.ndarray, g: np.ndarray, values: np.ndarray, alpha, tau) -> np.ndarray:
    """_log_softmax(_logits(...)) on a two-level domain, bit for bit, computed on the two (K, dim) level planes."""
    diff = values[:, None, None] - x
    z = g / (2.0 * tau) * diff  # the logits; reusing buffers keeps the peak memory at the generic path's
    z -= diff**2 / (2.0 * alpha)
    z -= np.maximum(z[0], z[1])
    e = np.exp(z, out=diff)
    logp = np.empty(x.shape + (2,))
    np.subtract(z, np.log(e[0] + e[1]), out=logp.transpose(2, 0, 1))
    return logp


def _accepts(log_a, u):
    """Metropolis decisions u < min(1, exp(log_a)); a NaN ratio stays NaN and never accepts."""
    return u < np.exp(np.minimum(log_a, 0.0))


def _swap_probs(swap: SwapConfig, tau1, tau2, u_next1, u_next2, u_prev1, u_prev2):
    """Probability of exchanging two chains' states, rho * min(1, S), elementwise over pairs of chains.

    bias_corrected  S = exp[(1/tau2 - 1/tau1) (U1 - U2 - (1/tau2 - 1/tau1) sigma2)],
                    the naive swap at sigma2 = 0
    history         uses U1 + U1_prev - U2 - U2_prev in place of U1 - U2
    """
    beta = 1.0 / tau2 - 1.0 / tau1
    if swap.variant == BIAS_CORRECTED:
        exponent = beta * (u_next1 - u_next2 - beta * swap.sigma2)
    else:
        # grouped per chain so exchanging next and previous energies is an
        # exact float identity, not merely a mathematical one
        exponent = beta * ((u_next1 + u_prev1) - (u_next2 + u_prev2))
    # min(1, e^x) == e^min(0, x), and the right side cannot overflow
    return swap.rho * np.exp(np.minimum(exponent, 0.0))


def _outside_stacklevel() -> int:
    """The stacklevel at which a warning raised by the caller names the first line outside this package."""
    frame, level = sys._getframe(1), 1
    while frame is not None and os.path.dirname(os.path.abspath(frame.f_code.co_filename)) == _PACKAGE_DIR:
        frame, level = frame.f_back, level + 1
    return level


class _Chains(NamedTuple):
    """K chains' retained states with their energies, gradients and log-softmax proposal tables."""

    states: np.ndarray  # (K, dim) value indices
    energy: np.ndarray  # (K,)
    grad: np.ndarray  # (K, dim)
    logp: np.ndarray  # (K, dim, levels)


class _Kernel:
    """The one chain kernel: K chains over one model, with per-chain step size and temperature.

    All K chains share one Metropolis switch; params that differ in
    mh_enabled raise DomainError.

    With a swap configuration the rows form replica pairs, row 2p the low
    and row 2p + 1 the high chain of pair p.  Both run functions and the
    oracles' kernels go through this class.  States handed to it must be in
    range; they come from _draw_init or all_states.
    """

    def __init__(self, model: EnergyModel, params, swap: Optional[SwapConfig] = None):
        self.model = model
        self.values = model.domain.value_table
        self.alpha = np.array([p.alpha for p in params], dtype=float)
        self.tau = np.array([p.tau for p in params], dtype=float)
        self.mh = params[0].mh_enabled
        if any(p.mh_enabled != self.mh for p in params):
            raise DomainError("the chains of one kernel share one Metropolis switch; got mixed mh_enabled")
        self.swap = swap
        k = len(params)
        self.cells = (np.arange(k)[:, None], np.arange(model.domain.dim))  # (chain, coordinate) of each table row
        self.two_level = model.domain.levels == 2
        self.always = np.ones(k, dtype=bool)
        self.draws = np.zeros((k, model.domain.dim + self.mh))  # each chain's uniforms for one iteration
        if swap is not None and ((self.tau[0::2] >= self.tau[1::2]) | (self.alpha[0::2] >= self.alpha[1::2])).any():
            warnings.warn(
                "replica pair expects tau_low < tau_high and alpha_low < alpha_high; running anyway",
                stacklevel=_outside_stacklevel(),
            )
        self.labels = ("low", "high") * (k // 2) if swap is not None else ("low",) * k
        self.tables = None  # once tabulated, every state's _Chains, with logp per (alpha, tau) setting

    def _log_proposals(self, x: np.ndarray, grad: np.ndarray, alpha: np.ndarray, tau: np.ndarray) -> np.ndarray:
        if self.two_level:
            return _two_level_log_softmax(x, grad, self.values, alpha[:, None], tau[:, None])
        return _log_softmax(_logits(x, grad, self.values, alpha[:, None, None], tau[:, None, None]))

    def tabulate(self):
        """Table U, grad U and each distinct (alpha, tau)'s proposal table at every state, when they fit.

        They fit when num_states x dim x levels x settings <= ENUMERATION_CAPACITY.
        evaluate and table then gather rows with the computed bits: one
        value_and_grad_batch call over all_states, and the same elementwise
        table arithmetic.
        A gathered row is checked as a computed one, at a chain's first visit.
        """
        domain, settings = self.model.domain, np.stack([self.alpha, self.tau], axis=1)
        _, first, self.setting = np.unique(settings, axis=0, return_index=True, return_inverse=True)
        if domain.num_states * domain.dim * domain.levels * len(first) > ENUMERATION_CAPACITY:
            return
        states = all_states(domain)
        x, logp = self.values[states], np.empty((len(first), *states.shape, domain.levels))
        rows = max(1, (1 << 14) // (domain.dim * domain.levels))  # states per slice: small temporaries
        with np.errstate(all="ignore"):
            u, g = (np.asarray(a, dtype=float) for a in self.model.value_and_grad_batch(x))
            for s, lo in itertools.product(range(len(first)), range(0, len(x), rows)):
                part = np.s_[lo : lo + rows]
                logp[s, part] = self._log_proposals(x[part], g[part], *settings[first[s], None].T)
        self.tables = _Chains(states, u, g, logp)

    def table(self, states: np.ndarray, energy: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Log-softmax proposal tables of every chain at states with energies and gradients.

        Each chain's table depends only on its own state, gradient, alpha and
        tau, and is gathered once tabulated.  Raises NumericError naming the
        first chain whose energy or table is not finite, so a bad model can
        never drive the proposal or the Metropolis test with NaNs.  Every
        table row holds the zero-distance stay entry, so a non-finite
        gradient, or a finite one whose g / (2 tau) * diff overflows, turns
        the table NaN.  A step size so small that the move penalty is
        infinite only zeroes the move probabilities.
        """
        if self.tables is None:
            logp = self._log_proposals(self.values[states], grad, self.alpha, self.tau)
        else:
            logp = self.tables.logp[self.setting, flat_index(states, self.model.domain)]
        if np.isnan(logp).any() or not np.isfinite(energy).all():
            k = int(np.argmax(np.isnan(logp).any(axis=(1, 2)) | ~np.isfinite(energy)))
            if not np.isfinite(energy[k]):
                cause = f"energy not finite (U = {float(energy[k])})"
            elif np.isfinite(grad[k]).all():
                cause = f"gradient overflows the logits at tau = {float(self.tau[k])}"
            else:
                cause = f"{int(np.count_nonzero(~np.isfinite(grad[k])))} of {grad[k].size} gradient entries not finite"
            exc = NumericError(f"{self.labels[k]} chain: {cause}")
            exc.row = k  # the batch row at fault; run_batch names its seed
            raise exc
        return logp

    def evaluate(self, states: np.ndarray) -> _Chains:
        """The one energy evaluation per chain, or its gathered rows: U, grad U and the proposal table at each state."""
        if self.tables is None:
            u, g = (np.asarray(a, dtype=float) for a in self.model.value_and_grad_batch(self.values[states]))
        else:
            i = flat_index(states, self.model.domain)
            u, g = self.tables.energy[i], self.tables.grad[i]
        return _Chains(states, u, g, self.table(states, u, g))

    def sample(self, logp: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Draw every coordinate of every chain from its (K, dim, levels) table logp with the (K, dim) uniforms u."""
        if self.two_level:
            # the generic draw's first column, from the same exp of the whole table; its last is exactly 1.0
            c = np.exp(logp)
            return (c[..., 0] / (c[..., 0] + c[..., 1]) < u).astype(int)
        cum = np.exp(logp).cumsum(axis=2)
        cum /= cum[:, :, -1:]  # exact 1.0 in the last column; draws in [0,1) stay in range
        return (cum < u[:, :, None]).sum(axis=2)

    def logq(self, logp: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Each chain's log-proposal of the (K, dim) value indices states, summed over coordinates."""
        if self.two_level:
            return np.where(states, logp[..., 1], logp[..., 0]).sum(axis=1)
        return logp[(*self.cells, states)].sum(axis=1)

    def draw(self, rngs, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Each chain's uniforms for one iteration, or for B into a (K, B, dim + mh) out, one call per generator.

        For PCG64 doubles a block of B is the stream of B one-iteration draws.
        """
        out = self.draws if out is None else out
        for rng, row in zip(rngs, out):
            rng.random(out=row)
        return out

    def step(self, chains: _Chains, draws: np.ndarray):
        """One proposal and Metropolis decision per chain.

        draws is (K, dim + mh): each chain's dim proposal uniforms, then,
        under the correction, its Metropolis uniform.  Returns the retained
        chains and the accept flags.
        """
        dim = chains.states.shape[1]
        new = self.evaluate(self.sample(chains.logp, draws[:, :dim]))
        if not self.mh:
            return new, self.always
        reverse, forward = self.logq(new.logp, chains.states), self.logq(chains.logp, new.states)
        log_a = (new.energy - chains.energy) / self.tau + reverse - forward
        accepted = _accepts(log_a, draws[:, dim])
        if accepted.all():
            return new, accepted
        kept = _Chains(*(np.where(accepted.reshape((-1,) + (1,) * (a.ndim - 1)), a, b) for a, b in zip(new, chains)))
        return kept, accepted

    def exchange(self, prev_energy: np.ndarray, chains: _Chains, u: np.ndarray):
        """Each pair's swap test on its own rows, with one uniform per pair.

        The probability sees the energies of the states actually retained
        after the Metropolis decisions (U_next) together with those the
        iteration started from (U_prev).  A swap exchanges states, energies
        and gradients, and rebuilds or gathers every table under its chain's
        (alpha, tau): an unswapped chain's table comes out bit for bit as it was.
        Returns the chains and the (pairs,) swap flags.
        """
        e = chains.energy
        p = _swap_probs(self.swap, self.tau[0::2], self.tau[1::2], e[0::2], e[1::2], prev_energy[0::2], prev_energy[1::2])
        swapped = u < p
        if not swapped.any():
            return chains, swapped
        order = np.arange(e.shape[0]) ^ np.repeat(swapped, 2)
        states, energy, grad = chains.states[order], e[order], chains.grad[order]
        return _Chains(states, energy, grad, self.table(states, energy, grad)), swapped


@dataclass(frozen=True)
class RunConfig:
    """Everything a sampler run needs besides the energy model."""

    sampler: str
    iterations: int
    alpha: float
    tau: float = ChainParams.tau
    alpha_high: Optional[float] = None
    tau_high: Optional[float] = None
    rho: float = SwapConfig.rho
    sigma2: float = SwapConfig.sigma2
    thin: int = 1
    init: str = "uniform"  # or "bernoulli" with init_prob for two-level domains
    init_prob: float = 0.5

    def __post_init__(self):
        """Checks every value before any model work, building the chain params and swap config once to do so."""
        if self.sampler not in SINGLE_CHAIN_SAMPLERS + REPLICA_SAMPLERS:
            raise DomainError(f"unknown sampler {self.sampler!r}")
        if self.iterations < 1:
            raise DomainError("iterations must be >= 1")
        if self.thin < 1:
            raise DomainError("thinning stride must be >= 1")
        if self.init not in ("uniform", "bernoulli"):
            raise DomainError(f"unknown init {self.init!r}")
        if not 0.0 <= self.init_prob <= 1.0:
            raise DomainError(f"init_prob must be in [0, 1], got {self.init_prob}")
        if self.sampler in REPLICA_SAMPLERS and (self.alpha_high is None or self.tau_high is None):
            raise DomainError(f"{self.sampler} needs alpha_high and tau_high")
        self.chain_params()
        self.swap_config()

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
    seed: int
    thin: int

    @property
    def is_replica(self) -> bool:
        return self.energy_high is not None


def _draw_init(domain: DomainSpec, config: RunConfig, rng: np.random.Generator) -> np.ndarray:
    if config.init == "uniform":
        return rng.integers(0, domain.levels, size=domain.dim, dtype=np.int64)
    if domain.levels != 2:
        raise DomainError("bernoulli init needs a two-level domain")
    return (rng.random(domain.dim) < config.init_prob).astype(np.int64)


def run_batch(model: EnergyModel, config: RunConfig, seeds) -> list:
    """Run config at each of seeds as one batch; one RunTrace per seed, in order, fully determined by (seed, config).

    All K = len(seeds) x chains-per-run chains step together through one
    kernel over a (K, dim) state array.  Each chain keeps its own low or
    high substream and each replica pair its own swap substream, drawing
    dim uniforms (plus 1 under Metropolis) per iteration, so every trace
    equals the standalone run of its seed.  Single-chain samplers are the
    rho=0, one-chain degenerate case: they use the same low-chain substream,
    so a DREXEL run with rho=0 is trajectory-identical on its low chain to
    the standalone run.  Every iteration evaluates the energy once per
    chain, at its proposal, or gathers it from _Kernel.tabulate's tables.
    Uniforms come in blocks of up to _DRAW_BLOCK, the same stream.  A
    non-finite energy or gradient raises NumericError naming the seed, the
    iteration and the chain.  Domains of more than 32768 levels raise
    DomainError, as the trace is int16.
    """
    seeds = list(seeds)
    if not seeds:
        raise DomainError("run_batch needs at least one seed")
    domain, dim = model.domain, model.domain.dim
    if domain.levels > 32768:
        raise DomainError(f"the int16 trace holds value indices of at most 32768 levels, got {domain.levels}")
    replica = config.is_replica
    n = 2 if replica else 1
    params = config.chain_params()[:n] * len(seeds)
    rngs = [substream(seed, salt) for seed in seeds for salt in (SALT_LOW, SALT_HIGH)[:n]]
    swap_rngs = [substream(seed, SALT_SWAP) for seed in seeds] if replica else []
    kernel = _Kernel(model, params, config.swap_config() if replica else None)
    iters, thin = config.iterations, config.thin
    states = np.empty((len(seeds), len(range(0, iters, thin)), dim), dtype=np.int16)
    energies = np.empty((len(rngs), iters))
    accepted = np.empty((len(rngs), iters), dtype=bool)
    swapped = np.zeros((len(seeds), iters), dtype=bool)
    i = None
    try:
        chains = kernel.evaluate(np.stack([_draw_init(domain, config, rng) for rng in rngs]))
        kernel.tabulate()
        rows = min(iters, max(1, _DRAW_BLOCK // (kernel.draws.size + len(swap_rngs))))
        block = np.empty((len(rngs), rows, kernel.draws.shape[1]))
        for i in range(iters):
            if i % rows == 0:
                b = min(rows, iters - i)
                kernel.draw(rngs, block[:, :b])
                u_swap = np.array([rng.random(b) for rng in swap_rngs])
            prev_energy = chains.energy
            chains, accepted[:, i] = kernel.step(chains, block[:, i % rows])
            if replica:
                chains, swapped[:, i] = kernel.exchange(prev_energy, chains, u_swap[:, i % rows])
            energies[:, i] = chains.energy
            if i % thin == 0:
                states[:, i // thin] = chains.states[::n]
    except NumericError as exc:
        where = "initial states" if i is None else f"iteration {i}"
        raise NumericError(f"seed {seeds[exc.row // n]}, {where}: {exc}") from exc
    return [
        RunTrace(
            states=states[r],
            energy_low=energies[r * n],
            energy_high=energies[r * n + 1] if replica else None,
            accepted_low=accepted[r * n],
            accepted_high=accepted[r * n + 1] if replica else None,
            swapped=swapped[r] if replica else None,
            seed=seed,
            thin=thin,
        )
        for r, seed in enumerate(seeds)
    ]
