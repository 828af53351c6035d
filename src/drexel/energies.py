"""Energy models with closed-form values and gradients.

Targets are unnormalized as pi(theta) ~ exp(U(theta)/tau): modes sit at
maxima of U.  Every gradient here is hand-derived; the test suite checks
each one against central finite differences.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .domains import BINARY01, ORDINAL, DomainSpec, ReadOnlyArrays
from .errors import DomainError

WAVE = "wave"
EIGHT_GAUSSIAN = "8gaussian"
SIXTEEN_GAUSSIAN = "16gaussian"
MOON = "moon"
TWO_MOONS = "2moons"
TWIST = "twist"
FLOWER = "flower"

SYNTHETIC_NAMES = (WAVE, EIGHT_GAUSSIAN, SIXTEEN_GAUSSIAN, MOON, TWO_MOONS, TWIST, FLOWER)


class EnergyModel(ReadOnlyArrays, ABC):
    """Interface: U and grad U on the embedded real coordinates, over a batch of rows.

    A model defines value_and_grad_batch; everything else derives from it.
    """

    domain: DomainSpec

    @abstractmethod
    def value_and_grad_batch(self, xs: np.ndarray):
        """(U[K], grad U[K, dim]) over the K rows of xs."""

    def value_batch(self, xs: np.ndarray) -> np.ndarray:
        """U over the rows of xs."""
        return self.value_and_grad_batch(xs)[0]


@dataclass(frozen=True, init=False)
class QuadraticEnergy(EnergyModel):
    """U(x) = w * x^T J x + b^T x with symmetric J (Ising when J is 0/1 adjacency).

    The model holds J only as its padded neighbour table: column d of nbr
    lists the sites j with J[d, j] != 0 in index order, and wts the matching
    J[d, j], padded with weight 0 up to the largest row degree.  It is built
    from a dense J here, or by make_ising_lattice straight from the lattice
    offsets; the dense J is rebuilt from the table on each read.
    """

    domain: DomainSpec
    nbr: np.ndarray = field(repr=False)  # (deg, dim) site indices
    wts: np.ndarray = field(repr=False)  # (deg, dim) couplings, 0 past a row's end
    b: np.ndarray
    w: float = 1.0

    def __init__(self, domain: DomainSpec, J: np.ndarray, b: np.ndarray, w: float = 1.0):
        J = np.asarray(J, dtype=float)
        d = domain.dim
        if J.shape != (d, d):
            raise DomainError(f"J has shape {J.shape}, expected ({d}, {d})")
        rows, cols = np.nonzero(J)  # row-major, so each row's columns come in index order
        self._store(domain, rows, cols, J[rows, cols], b, w)

    def _store(self, domain, rows, cols, vals, b, w):
        """Check and keep the model from J's non-zeros vals at (rows, cols), sorted by row, then column."""
        b = np.asarray(b, dtype=float)
        d = domain.dim
        if b.shape != (d,):
            raise DomainError(f"b has shape {b.shape}, expected ({d},)")
        if not 0 < w < np.inf:
            raise DomainError(f"connectivity strength w must be positive and finite, got {w}")
        # vals before the symmetry test, which NaN != NaN would otherwise fail first
        for name, a in (("J", vals), ("b", b)):
            if not np.isfinite(a).all():
                raise DomainError(f"{name} has non-finite entries")
        mirror = np.lexsort((rows, cols))  # the (j, d) entries in (d, j) order
        if not all(np.array_equal(a[mirror], a_t) for a, a_t in ((rows, cols), (cols, rows), (vals, vals))):
            raise DomainError("J must be symmetric")
        counts = np.bincount(rows, minlength=d)
        slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]  # position within its row
        nbr = np.zeros((int(counts.max(initial=0)), d), dtype=np.intp)
        wts = np.zeros(nbr.shape)
        nbr[slot, rows] = cols
        wts[slot, rows] = vals
        self._seal(domain=domain, nbr=nbr, wts=wts, b=b, w=w)

    @property
    def J(self) -> np.ndarray:
        """The dense (dim, dim) coupling matrix, scattered from the neighbour table on each read."""
        J = np.zeros((self.domain.dim, self.domain.dim))
        np.add.at(J, (np.arange(self.domain.dim), self.nbr), self.wts)  # padding adds 0.0
        J.setflags(write=False)
        return J

    def value_and_grad_batch(self, xs):
        """J x as a sum over the neighbour table, in O(edges) per row.

        Each entry of X J sums its row's neighbours in table order, whatever
        the number of rows, so a row's bits never depend on the batch; with
        0/1 couplings and +-1 or 0/1 states every partial sum is an integer
        and the result equals the dense X @ J bit for bit.
        """
        XJ = np.einsum("kjd,jd->kd", np.take(xs, self.nbr, axis=1), self.wts)
        return self.w * np.vecdot(xs, XJ) + np.vecdot(xs, self.b), 2.0 * self.w * XJ + self.b


@dataclass(frozen=True)
class RbmFreeEnergy(EnergyModel):
    """RBM visible free energy: U(v) = sum_j softplus((Wv + c)_j) + b^T v."""

    domain: DomainSpec
    W: np.ndarray
    c: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        c = np.asarray(self.c, dtype=float)
        b = np.asarray(self.b, dtype=float)
        d = self.domain.dim
        if W.ndim != 2 or W.shape[1] != d:
            raise DomainError(f"W has shape {W.shape}, expected (m, {d})")
        if c.shape != (W.shape[0],):
            raise DomainError(f"c has shape {c.shape}, expected ({W.shape[0]},)")
        if b.shape != (d,):
            raise DomainError(f"b has shape {b.shape}, expected ({d},)")
        self._seal(W=W, c=c, b=b)

    def value_and_grad_batch(self, xs):
        """Stacked matrix-vector products, one per row, so each row's bits do not depend on the batch size."""
        z = np.matmul(self.W, xs[:, :, None])[:, :, 0] + self.c
        u = np.logaddexp(0.0, z).sum(axis=1) + np.vecdot(xs, self.b)
        return u, np.matmul(self.W.T, _sigmoid(z)[:, :, None])[:, :, 0] + self.b

    def pre_activation(self, v):
        """The hidden units' inputs v @ W.T + c, one matrix product over the rows of v."""
        return v @ self.W.T + self.c

    def value_from_pre_activation(self, v, z):
        """U of the rows v from their pre_activation z, which CD training holds already; value_batch to rounding."""
        return np.logaddexp(0.0, z).sum(axis=1) + v @ self.b

    def visible_means(self, h):
        """P(v_d = 1 | h), vectorized over rows when h is 2-d."""
        return _sigmoid(h @ self.W + self.b)

    def block_gibbs(self, v, rng, h_means=None):
        """One block-Gibbs sweep over the rows of v: sample hidden given visible, then visible given hidden.

        h_means is P(h = 1 | v) = sigmoid(pre_activation(v)), if the caller holds it.
        """
        if self.domain.kind != BINARY01:
            raise DomainError("block Gibbs runs on binary01 visible units")
        if h_means is None:
            h_means = _sigmoid(self.pre_activation(v))
        h = (rng.random(h_means.shape) < h_means).astype(float)
        return (rng.random(v.shape) < self.visible_means(h)).astype(float)


def _sigmoid(z):
    """Overflow-free logistic exp(min(z, 0)) / (1 + exp(-|z|)), in two buffers; neither exponential overflows.

    The bits of the form whose numerator np.where picks, NaN included: fmin
    takes 0 for a NaN z, whose quiet NaN then comes through -|z| as before.
    """
    den = np.abs(z)
    np.exp(np.negative(den, out=den), out=den)
    den += 1.0
    num = np.fmin(z, 0.0)
    return np.divide(np.exp(num, out=num), den, out=den)


_EIGHT_CENTERS = np.array(
    [
        (1.0, 0.0),
        (-1.0, 0.0),
        (0.0, 1.0),
        (0.0, -1.0),
        (np.sqrt(2) / 2, np.sqrt(2) / 2),
        (np.sqrt(2) / 2, -np.sqrt(2) / 2),
        (-np.sqrt(2) / 2, np.sqrt(2) / 2),
        (-np.sqrt(2) / 2, -np.sqrt(2) / 2),
    ]
)


@dataclass(frozen=True)
class Synthetic2D(EnergyModel):
    """One of the seven analytic 2-d landscapes on an ordinal grid over [-2, 2]^2.

    The barrier height `c` only affects the 16-Gaussian landscape.  The
    eight-Gaussian landscape is the log of an equal-weight mixture of unit
    Gaussians on the unit circle (a plain sum of the exponents would collapse
    to a single bowl, contradicting its eight described modes).  The flower
    landscape takes its angle from the two-argument arctangent; the origin,
    where the angle is undefined, gets the angle-0 limit.
    """

    domain: DomainSpec
    which: str
    c: float = 2.0

    def __post_init__(self):
        if self.which not in SYNTHETIC_NAMES:
            raise DomainError(f"unknown synthetic energy {self.which!r}")
        if not np.isfinite(self.c):
            raise DomainError(f"barrier height c must be finite, got {self.c}")
        if self.domain.dim != 2 or self.domain.kind != ORDINAL:
            raise DomainError("synthetic landscapes are defined on 2-d ordinal grids")

    def value_and_grad_batch(self, xs):
        """The landscape's one definition: U and grad U over the rows of xs."""
        x, y = xs[:, 0], xs[:, 1]
        w = self.which
        if w == WAVE:
            s, c = np.sin(3 * xs), np.cos(3 * xs)
            return s[:, 0] * s[:, 1], 3 * c * s[:, ::-1]
        if w == SIXTEEN_GAUSSIAN:
            tp = 2 * np.pi
            t = tp * xs
            u = (xs**2).sum(axis=1) / 5.0 - self.c * np.cos(t).sum(axis=1)
            return u, 2 * xs / 5.0 + self.c * tp * np.sin(t)
        if w == EIGHT_GAUSSIAN:
            dx = x[:, None] - _EIGHT_CENTERS[:, 0]
            dy = y[:, None] - _EIGHT_CENTERS[:, 1]
            e = -(dx**2 + dy**2) / 2.0
            m = e.max(axis=1, keepdims=True)
            wgt = np.exp(e - m)
            total = wgt.sum(axis=1, keepdims=True)
            u = (m + np.log(total))[:, 0]
            wgt /= total
            g = (-np.vecdot(wgt, dx), -np.vecdot(wgt, dy))
        elif w == MOON:
            q = 4 * x - y**2 + 24.0 / 5.0
            u = -0.1 * y**4 - 0.5 * q**2
            g = (-4 * q, -0.4 * y**3 + 2 * y * q)
        elif w == TWO_MOONS:
            r2 = x**2 + y**2
            a = -0.5 * ((5 * x - 4) / 4) ** 2
            b = -0.5 * ((5 * x + 4) / 4) ** 2
            u = -(2.0 / 25.0) * (r2 - 2) ** 2 + np.logaddexp(a, b)
            wa = 1.0 / (1.0 + np.exp(b - a))
            dlog = -(5.0 / 16.0) * (wa * (5 * x - 4) + (1.0 - wa) * (5 * x + 4))
            g = (-(8.0 / 25.0) * (r2 - 2) * x + dlog, -(8.0 / 25.0) * (r2 - 2) * y)
        elif w == TWIST:
            s = np.sin(np.pi * x / 2)
            u = -0.5 * (y - s) ** 2
            g = ((y - s) * (np.pi / 2) * np.cos(np.pi * x / 2), -(y - s))
        else:
            r = np.hypot(x, y)
            phi = np.arctan2(y, x)
            u = np.sin(r) + np.cos(5 * phi)
            cr = np.cos(r)
            s5 = 5 * np.sin(5 * phi)
            with np.errstate(divide="ignore", invalid="ignore"):
                g = (cr * x / r + s5 * y / r**2, cr * y / r - s5 * x / r**2)
            origin = r == 0.0
            u[origin] = 1.0  # sin(0) + cos(0), angle-0 limit
            g[0][origin], g[1][origin] = 1.0, 0.0  # limit along the angle-0 ray
        return u, np.stack(g, axis=1)


def make_synthetic(which: str, levels: int = 256, c: float = 2.0) -> Synthetic2D:
    """Synthetic landscape on the standard [-2, 2]^2 ordinal grid."""
    dom = DomainSpec.ordinal_grid(dim=2, levels=levels, lo=-2.0, hi=2.0)
    return Synthetic2D(domain=dom, which=which, c=c)


def make_ising_lattice(side: int, w: float, b: np.ndarray, periodic: bool) -> QuadraticEnergy:
    """Nearest-neighbour Ising energy on a side x side square lattice of spins.

    J is the 0/1 adjacency matrix (torus edges iff periodic; wrap-around
    duplicates collapse, so a periodic 2x2 lattice keeps row sums of 2), held
    as the neighbour table built from the four lattice offsets: no (n, n) array.
    """
    if side < 2:
        raise DomainError(f"lattice side must be >= 2, got {side}")
    n = side * side
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DomainError(f"bias has shape {b.shape}, expected ({n},)")
    r, c = np.divmod(np.arange(n), side)
    offsets = []
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        inside = (0 <= r + dr) & (r + dr < side) & (0 <= c + dc) & (c + dc < side)
        offsets.append(np.where(inside | periodic, (r + dr) % side * side + (c + dc) % side, -1))
    cand = np.sort(np.stack(offsets, axis=1), axis=1)  # (n, 4) neighbours in index order, -1 where an open edge has none
    keep = cand >= 0
    keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]  # a neighbour met twice, around a torus of side 2
    rows = np.nonzero(keep)[0]
    model = QuadraticEnergy.__new__(QuadraticEnergy)  # the dense constructor's checks and table, from J's non-zeros
    model._store(DomainSpec.spin_pm1(n), rows, cand[keep], np.ones(rows.size), b, w)
    return model


def make_ising_chain(n: int, w: float, b: np.ndarray) -> QuadraticEnergy:
    """Path-graph Ising energy on n spins; handy for tiny oracle instances."""
    if n < 1:
        raise DomainError(f"chain length must be >= 1, got {n}")
    b = np.asarray(b, dtype=float)
    J = np.zeros((n, n))
    for i in range(n - 1):
        J[i, i + 1] = J[i + 1, i] = 1.0
    return QuadraticEnergy(domain=DomainSpec.spin_pm1(n), J=J, b=b, w=w)
