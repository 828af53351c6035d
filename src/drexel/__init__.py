"""Gradient-based discrete samplers with replica exchange, plus exact oracles and a harness."""

from .domains import DomainSpec, embed
from .energies import (
    QuadraticEnergy,
    RbmFreeEnergy,
    Synthetic2D,
    make_ising_chain,
    make_ising_lattice,
    make_synthetic,
)
from .sampler import (
    ChainParams,
    RunConfig,
    RunTrace,
    SwapConfig,
    binary_flip_probs,
    proposal_logits,
    run_batch,
    run_sampler,
    swap_probability,
)

__version__ = "0.1.0"

__all__ = [
    "ChainParams",
    "DomainSpec",
    "QuadraticEnergy",
    "RbmFreeEnergy",
    "RunConfig",
    "RunTrace",
    "SwapConfig",
    "Synthetic2D",
    "binary_flip_probs",
    "embed",
    "make_ising_chain",
    "make_ising_lattice",
    "make_synthetic",
    "proposal_logits",
    "run_batch",
    "run_sampler",
    "swap_probability",
]
