"""Sample-quality metrics: KL, RFF-approximated MMD, NLL, log RMSE, jump and swap rates."""

from dataclasses import dataclass

import numpy as np

from .domains import DomainSpec
from .errors import DomainError
from .oracle import Pmf


@dataclass(frozen=True)
class EmpiricalHist:
    """Visit counts over enumerated states."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if self.total < 1 or counts.sum() != self.total:
            raise DomainError("histogram counts must sum to a positive total")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @staticmethod
    def from_states(states: np.ndarray, domain: DomainSpec) -> "EmpiricalHist":
        """Bin index-vector rows by their flat state index."""
        states = np.asarray(states, dtype=np.int64)
        weights = domain.levels ** np.arange(domain.dim - 1, -1, -1, dtype=np.int64)
        flat = states @ weights
        counts = np.bincount(flat, minlength=domain.num_states)
        return EmpiricalHist(counts=counts, total=int(counts.sum()))


def kl_divergence(truth: Pmf, empirical: EmpiricalHist) -> float:
    """KL(pi || pi_hat) with additive smoothing eps = 1/total on the empirical bins."""
    p = truth.p
    if p.shape[0] != empirical.counts.shape[0]:
        raise DomainError("pmf and histogram index different state spaces")
    eps = 1.0 / empirical.total
    q = (empirical.counts + eps) / (empirical.total + eps * p.shape[0])
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


@dataclass(frozen=True)
class RffEstimator:
    """Random Fourier feature map approximating a Gaussian kernel of the given bandwidth."""

    frequencies: np.ndarray  # (num_features, dim), entries ~ Normal(0, 1/bandwidth^2)
    offsets: np.ndarray  # (num_features,), uniform on [0, 2 pi)
    bandwidth: float

    @property
    def num_features(self) -> int:
        return self.frequencies.shape[0]

    @staticmethod
    def create(dim: int, bandwidth: float, num_features: int = 500, rng=None) -> "RffEstimator":
        if num_features < 1 or bandwidth <= 0:
            raise DomainError("need num_features >= 1 and bandwidth > 0")
        rng = np.random.default_rng(0) if rng is None else rng
        freq = rng.normal(0.0, 1.0 / bandwidth, size=(num_features, dim))
        offs = rng.uniform(0.0, 2.0 * np.pi, size=num_features)
        return RffEstimator(frequencies=freq, offsets=offs, bandwidth=bandwidth)

    def features(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.sqrt(2.0 / self.num_features) * np.cos(xs @ self.frequencies.T + self.offsets)

    def mean_features(self, xs: np.ndarray) -> np.ndarray:
        """Mean feature vector of a nonempty sample set: its approximate kernel mean embedding."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if xs.shape[0] == 0:
            raise DomainError("mmd needs nonempty sample sets")
        return self.features(xs).mean(axis=0)


def median_bandwidth(samples: np.ndarray, cap: int = 1000) -> float:
    """Median pairwise distance of an (evenly thinned) subsample; floor at 1e-12."""
    xs = np.atleast_2d(np.asarray(samples, dtype=float))
    if xs.shape[0] > cap:
        xs = xs[np.linspace(0, xs.shape[0] - 1, cap).astype(int)]
    sq = np.sum(xs**2, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (xs @ xs.T), 0.0)
    upper = d2[np.triu_indices(xs.shape[0], k=1)]
    return max(float(np.median(np.sqrt(upper))), 1e-12)


def mmd_rff(samples_x, samples_y: np.ndarray, est: RffEstimator, mean_x=None) -> float:
    """Squared MMD estimate: ||mean phi(X) - mean phi(Y)||^2.

    mean_x, when given, is est.mean_features(samples_x), computed once for
    a sample set compared against many; samples_x is then not read.
    """
    mu_y = est.mean_features(samples_y)
    diff = (est.mean_features(samples_x) if mean_x is None else mean_x) - mu_y
    return float(diff @ diff)


def mmd_exact_gaussian(samples_x: np.ndarray, samples_y: np.ndarray, bandwidth: float) -> float:
    """Direct double-sum squared MMD under the Gaussian kernel; quadratic cost."""

    def gram(a, b):
        sq_a = np.sum(a**2, axis=1)
        sq_b = np.sum(b**2, axis=1)
        d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T)
        return np.exp(-np.maximum(d2, 0.0) / (2.0 * bandwidth**2))

    xs = np.atleast_2d(np.asarray(samples_x, dtype=float))
    ys = np.atleast_2d(np.asarray(samples_y, dtype=float))
    return float(gram(xs, xs).mean() + gram(ys, ys).mean() - 2.0 * gram(xs, ys).mean())


def nll(truth: Pmf, sample_indices: np.ndarray) -> float:
    """Mean negative log target probability of the samples; +inf if any has mass 0."""
    idx = np.asarray(sample_indices, dtype=np.int64)
    if idx.size == 0:
        raise DomainError("nll needs at least one sample")
    p = truth.p[idx]
    if np.any(p == 0.0):
        return float("inf")
    return float(-np.mean(np.log(p)))


def log_rmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Natural log of the root mean squared error; -inf sentinel when exact."""
    e = np.asarray(estimate, dtype=float)
    t = np.asarray(truth, dtype=float)
    if e.shape != t.shape:
        raise DomainError(f"shape mismatch {e.shape} vs {t.shape}")
    mse = float(np.mean((e - t) ** 2))
    if mse == 0.0:
        return float("-inf")
    return 0.5 * np.log(mse)


def jump_rate(trace, domain: DomainSpec, threshold: float = 1.0) -> float:
    """Fraction of consecutive emitted states farther than `threshold` apart (L2, embedded)."""
    states = trace.states if hasattr(trace, "states") else np.asarray(trace)
    if states.shape[0] < 2:
        raise DomainError("jump rate needs a trace of length >= 2")
    emb = domain.value_table[states.astype(np.int64)]
    dist = np.linalg.norm(np.diff(emb, axis=0), axis=1)
    return float(np.mean(dist > threshold))


def swap_rate(trace) -> float:
    """Successful swaps per iteration; 0.0 for single-chain runs (no attempts)."""
    if trace.swap_attempts == 0:
        return 0.0
    return trace.swap_successes / trace.iterations


def acceptance_rate(accepted: np.ndarray) -> float:
    return float(np.mean(accepted))
