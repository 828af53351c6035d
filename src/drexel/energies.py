"""Energy models with closed-form values and gradients.

Targets are unnormalized as pi(theta) ~ exp(U(theta)/tau): modes sit at
maxima of U.  Every gradient here is hand-derived; the test suite checks
each one against central finite differences.
"""

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .domains import ORDINAL, DomainSpec
from .errors import DomainError

WAVE = "wave"
EIGHT_GAUSSIAN = "8gaussian"
SIXTEEN_GAUSSIAN = "16gaussian"
MOON = "moon"
TWO_MOONS = "2moons"
TWIST = "twist"
FLOWER = "flower"

SYNTHETIC_NAMES = (WAVE, EIGHT_GAUSSIAN, SIXTEEN_GAUSSIAN, MOON, TWO_MOONS, TWIST, FLOWER)


class EnergyModel(ABC):
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

    def value(self, x: np.ndarray) -> float:
        return float(self.value_batch(np.asarray(x, dtype=float)[None, :])[0])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_grad_batch(np.asarray(x, dtype=float)[None, :])[1][0]


@dataclass(frozen=True)
class QuadraticEnergy(EnergyModel):
    """U(x) = w * x^T J x + b^T x with symmetric J (Ising when J is 0/1 adjacency)."""

    domain: DomainSpec
    J: np.ndarray
    b: np.ndarray
    w: float = 1.0

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        b = np.asarray(self.b, dtype=float)
        d = self.domain.dim
        if J.shape != (d, d):
            raise DomainError(f"J has shape {J.shape}, expected ({d}, {d})")
        if b.shape != (d,):
            raise DomainError(f"b has shape {b.shape}, expected ({d},)")
        if not np.array_equal(J, J.T):
            raise DomainError("J must be symmetric")
        if not self.w > 0:
            raise DomainError(f"connectivity strength w must be positive, got {self.w}")
        J.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "b", b)

    def value_and_grad_batch(self, xs):
        """One X J for all rows.

        A row's bits do not depend on the batch whenever J x is exact in
        floating point (0/1 couplings with +-1 or 0/1 states, as in every
        Ising lattice and chain here); for a general real J, BLAS may sum a
        row in another order as the number of rows changes.
        """
        XJ = xs @ self.J
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
        for a in (W, c, b):
            a.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)

    @property
    def hidden(self) -> int:
        return self.W.shape[0]

    def value_and_grad_batch(self, xs):
        """Stacked matrix-vector products, one per row, so each row's bits do not depend on the batch size."""
        z = np.matmul(self.W, xs[:, :, None])[:, :, 0] + self.c
        u = np.logaddexp(0.0, z).sum(axis=1) + np.vecdot(xs, self.b)
        return u, np.matmul(self.W.T, _sigmoid(z)[:, :, None])[:, :, 0] + self.b

    def value_batch(self, xs):
        """One matrix product for all rows (CD training's cost); rows agree with value_and_grad_batch to rounding."""
        z = xs @ self.W.T + self.c
        return np.logaddexp(0.0, z).sum(axis=1) + xs @ self.b

    def hidden_means(self, v):
        """P(h_j = 1 | v), vectorized over rows when v is 2-d."""
        return _sigmoid(v @ self.W.T + self.c)

    def visible_means(self, h):
        """P(v_d = 1 | h), vectorized over rows when h is 2-d."""
        return _sigmoid(h @ self.W + self.b)


def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
    sigma: float = 1.0

    def __post_init__(self):
        if self.which not in SYNTHETIC_NAMES:
            raise DomainError(f"unknown synthetic energy {self.which!r}")
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
            e = -(dx**2 + dy**2) / (2 * self.sigma**2)
            m = e.max(axis=1, keepdims=True)
            wgt = np.exp(e - m)
            total = wgt.sum(axis=1, keepdims=True)
            u = (m + np.log(total))[:, 0]
            wgt /= total
            g = (-np.vecdot(wgt, dx) / self.sigma**2, -np.vecdot(wgt, dy) / self.sigma**2)
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
    duplicates collapse, so a periodic 2x2 lattice keeps row sums of 2).
    """
    if side < 2:
        raise DomainError(f"lattice side must be >= 2, got {side}")
    n = side * side
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DomainError(f"bias has shape {b.shape}, expected ({n},)")
    J = np.zeros((n, n))
    for r in range(side):
        for col in range(side):
            i = r * side + col
            right = r * side + (col + 1) % side
            down = ((r + 1) % side) * side + col
            if col + 1 < side or periodic:
                J[i, right] = J[right, i] = 1.0
            if r + 1 < side or periodic:
                J[i, down] = J[down, i] = 1.0
    return QuadraticEnergy(domain=DomainSpec.spin_pm1(n), J=J, b=b, w=w)


def make_ising_chain(n: int, w: float, b: np.ndarray) -> QuadraticEnergy:
    """Path-graph Ising energy on n spins; handy for tiny oracle instances."""
    if n < 1:
        raise DomainError(f"chain length must be >= 1, got {n}")
    b = np.asarray(b, dtype=float)
    J = np.zeros((n, n))
    for i in range(n - 1):
        J[i, i + 1] = J[i + 1, i] = 1.0
    return QuadraticEnergy(domain=DomainSpec.spin_pm1(n), J=J, b=b, w=w)


_MAGIC_ENERGY = b"DREXENER"


def save_rbm_params(path, W: np.ndarray, c: np.ndarray, b: np.ndarray) -> None:
    """Write RBM parameters: magic, u32 (m, d) little-endian, then W, c, b as f64."""
    W = np.asarray(W, dtype="<f8")
    c = np.asarray(c, dtype="<f8")
    b = np.asarray(b, dtype="<f8")
    m, d = W.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC_ENERGY)
        fh.write(struct.pack("<II", m, d))
        fh.write(W.tobytes(order="C"))
        fh.write(c.tobytes())
        fh.write(b.tobytes())


def load_rbm_params(path):
    """Read back save_rbm_params output; validates magic and payload size."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _MAGIC_ENERGY:
        raise DomainError(f"bad magic {blob[:8]!r}, expected {_MAGIC_ENERGY!r}")
    if len(blob) < 16:
        raise DomainError("truncated header")
    m, d = struct.unpack("<II", blob[8:16])
    expected = 16 + 8 * (m * d + m + d)
    if len(blob) != expected:
        raise DomainError(f"payload is {len(blob)} bytes, header implies {expected}")
    body = np.frombuffer(blob, dtype="<f8", offset=16)
    W = body[: m * d].reshape(m, d).copy()
    c = body[m * d : m * d + m].copy()
    b = body[m * d + m :].copy()
    return W, c, b
