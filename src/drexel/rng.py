"""Deterministic RNG substream derivation.

A sampler run is fully determined by (seed, config).  The low chain, the high
chain, and the swap decision each consume an independent generator whose seed
is derived from the run seed by fixed 64-bit mixing constants, so adding or
removing one consumer never shifts the draws of another.
"""

import numpy as np

_MASK64 = (1 << 64) - 1

SALT_LOW = 0xD1B54A32D192ED03
SALT_HIGH = 0x8CB92BA72F3D8DD7
SALT_SWAP = 0xABCC5167CCAD925F
SALT_TRUTH = 0x5851F42D4C957F2D
SALT_REFERENCE = 0x9E6D62D06F6A9A9B
SALT_DATA = 0xC2B2AE3D27D4EB4F
SALT_WEIGHTS = 0x165667B19E3779F9


def mix64(z: int) -> int:
    """SplitMix64 finalizer; decorrelates nearby integer seeds."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream(seed: int, salt: int) -> np.random.Generator:
    """Generator for one named consumer of a run seed."""
    return np.random.Generator(np.random.PCG64(mix64((seed & _MASK64) ^ salt)))
