"""Discrete sampling domains and their real embeddings.

States are integer index vectors; every coordinate shares one value set
(binary {0,1}, spin {-1,+1}, or an ordinal grid of N levels on [lo, hi]).
Energy models and samplers only ever see the embedded real coordinates.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError

BINARY01 = "binary01"
SPIN_PM1 = "spin_pm1"
ORDINAL = "ordinal"

ENUMERATION_CAPACITY = 1 << 20  # most states all_states lists, and most pair states an oracle pmf holds


class ReadOnlyArrays:
    """Base of frozen records whose array fields are read-only, and stay so when unpickled in a worker process.

    Pickle hands arrays back writeable, so __setstate__ seals each one again.
    """

    def _seal(self, **fields):
        """Set fields past the frozen dataclass, marking each array among them read-only."""
        for value in fields.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(fields)

    def __setstate__(self, state):
        self._seal(**state)


@dataclass(frozen=True)
class DomainSpec(ReadOnlyArrays):
    """Product domain: `dim` coordinates, each over the same discrete value set."""

    dim: int
    kind: str
    levels: int
    lo: float = 0.0
    hi: float = 1.0
    value_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dim must be positive, got {self.dim}")
        if self.kind == BINARY01:
            values = np.array([0.0, 1.0])
        elif self.kind == SPIN_PM1:
            values = np.array([-1.0, 1.0])
        elif self.kind == ORDINAL:
            if self.levels < 2:
                raise DomainError(f"ordinal grid needs at least 2 levels, got {self.levels}")
            if not self.lo < self.hi:
                raise DomainError(f"ordinal grid needs lo < hi, got [{self.lo}, {self.hi}]")
            k = np.arange(self.levels, dtype=float)
            values = self.lo + (self.hi - self.lo) * k / (self.levels - 1)
            values[-1] = self.hi  # endpoints exact by construction
        else:
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.kind in (BINARY01, SPIN_PM1) and self.levels != 2:
            raise DomainError(f"{self.kind} domains have exactly 2 levels")
        self._seal(value_table=values)

    @staticmethod
    def binary01(dim: int) -> "DomainSpec":
        return DomainSpec(dim=dim, kind=BINARY01, levels=2)

    @staticmethod
    def spin_pm1(dim: int) -> "DomainSpec":
        return DomainSpec(dim=dim, kind=SPIN_PM1, levels=2)

    @staticmethod
    def ordinal_grid(dim: int, levels: int, lo: float, hi: float) -> "DomainSpec":
        return DomainSpec(dim=dim, kind=ORDINAL, levels=levels, lo=lo, hi=hi)

    @property
    def num_states(self) -> int:
        return self.levels**self.dim


def flat_index(states: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """Flat index of every row of a (K, dim) array of in-range index vectors; coordinate 0 is most significant."""
    weights = domain.levels ** np.arange(domain.dim - 1, -1, -1, dtype=np.int64)
    return np.asarray(states, dtype=np.int64) @ weights


def all_states(domain: DomainSpec) -> np.ndarray:
    """All index vectors in flat index order, coordinate 0 most significant, shape (num_states, dim).

    C-ordered, so a batch energy over the rows has each row's own bits.  CapacityError past ENUMERATION_CAPACITY.
    """
    n = domain.num_states
    if n > ENUMERATION_CAPACITY:
        raise CapacityError(f"domain has {n} states, enumeration capped at {ENUMERATION_CAPACITY}")
    grids = np.indices((domain.levels,) * domain.dim).reshape(domain.dim, n)
    return grids.T.astype(np.int64, order="C")


def embed_all(domain: DomainSpec) -> np.ndarray:
    """Embedded coordinates of every state, shape (num_states, dim)."""
    return domain.value_table[all_states(domain)]
