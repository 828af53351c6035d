"""Gradient-based discrete samplers with replica exchange, plus exact oracles and a harness."""

from .domains import DomainSpec
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
    run_batch,
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
    "make_ising_chain",
    "make_ising_lattice",
    "make_synthetic",
    "run_batch",
]
