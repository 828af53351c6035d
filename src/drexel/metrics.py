"""Sample-quality metrics: KL, RFF-approximated MMD, NLL, log RMSE, jump and swap rates."""

from dataclasses import dataclass

import numpy as np

from .domains import DomainSpec, flat_index
from .errors import DomainError
from .oracle import Pmf

MEAN_BLOCK_ROWS = 1024  # rows of features held at once by RffEstimator.mean_features
BANDWIDTH_ROWS = 1000  # largest subsample whose pairwise distances median_bandwidth takes
JUMP_DISTANCE = 1.0  # embedded L2 distance beyond which jump_rate counts a move as a jump


def visit_counts(states: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """Visits of each enumerated state by the index-vector rows of states, binned by flat state index."""
    return np.bincount(flat_index(states, domain), minlength=domain.num_states)


def kl_divergence(truth: Pmf, counts: np.ndarray) -> float:
    """KL(pi || pi_hat) with additive smoothing eps = 1/total on the empirical bins of the visit counts."""
    p = truth.p
    if p.shape[0] != counts.shape[0]:
        raise DomainError("pmf and histogram index different state spaces")
    total = int(counts.sum())
    if total < 1:
        raise DomainError("histogram counts must sum to a positive total")
    eps = 1.0 / total
    q = (counts + eps) / (total + eps * p.shape[0])
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
    def create(dim: int, bandwidth: float, num_features: int, rng: np.random.Generator) -> "RffEstimator":
        if num_features < 1 or not 0 < bandwidth < np.inf:
            raise DomainError(f"need num_features >= 1 and 0 < bandwidth < inf, got {num_features} and {bandwidth}")
        freq = rng.normal(0.0, 1.0 / bandwidth, size=(num_features, dim))
        offs = rng.uniform(0.0, 2.0 * np.pi, size=num_features)
        return RffEstimator(frequencies=freq, offsets=offs, bandwidth=bandwidth)

    def features(self, xs: np.ndarray, out=None) -> np.ndarray:
        """sqrt(2 / num_features) cos(xs F^T + offsets), every step in one (rows, num_features) buffer, out if given."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        out = np.matmul(xs, self.frequencies.T, out=out)
        out += self.offsets
        return np.multiply(np.cos(out, out=out), np.sqrt(2.0 / self.num_features), out=out)

    def mean_features(self, xs: np.ndarray, counts=None) -> np.ndarray:
        """Mean feature vector of a nonempty sample set: its approximate kernel mean embedding.

        With counts, row i of xs stands for counts[i] samples, so a histogram
        over the enumerated states gives the mean sum_s counts[s] phi(s) / n
        from each visited state's features once.  Rows with count 0 are
        skipped, and the others' features are scaled by their counts in place.

        Features are built MEAN_BLOCK_ROWS rows at a time into rows 1: of one
        buffer, so memory does not grow with the sample set.  The running sum,
        in row 0, enters each block's sum first, which adds the rows in the
        order features(xs).mean(axis=0) does; the two agree bit for bit wherever
        BLAS rounds a projection row the same in a block as in the whole set.
        All-one counts give the unweighted bits, as scaling by 1.0 is exact.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        total = xs.shape[0]
        if counts is not None:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (total,) or counts.min(initial=0) < 0:
                raise DomainError(f"need one nonnegative count per row, got shape {counts.shape} for {total} rows")
            rows = np.flatnonzero(counts)
            xs, weights, total = xs[rows], counts[rows].astype(float), int(counts.sum())
        if total == 0:
            raise DomainError("mmd needs nonempty sample sets")
        buf = np.empty((min(xs.shape[0], MEAN_BLOCK_ROWS) + 1, self.num_features))
        for start in range(0, xs.shape[0], MEAN_BLOCK_ROWS):
            stop = min(start + MEAN_BLOCK_ROWS, xs.shape[0])
            block = self.features(xs[start:stop], out=buf[1 : stop - start + 1])
            if counts is not None:
                block *= weights[start:stop, None]
            buf[0] = np.add.reduce(buf[0 if start else 1 : stop - start + 1], axis=0)
        return buf[0] / total


def median_bandwidth(samples: np.ndarray) -> float:
    """Median pairwise distance of a subsample evenly thinned to BANDWIDTH_ROWS rows; floor at 1e-12."""
    xs = np.atleast_2d(np.asarray(samples, dtype=float))
    if xs.shape[0] < 2:
        raise DomainError(f"median bandwidth needs at least 2 rows, got {xs.shape[0]}")
    if xs.shape[0] > BANDWIDTH_ROWS:
        xs = xs[np.linspace(0, xs.shape[0] - 1, BANDWIDTH_ROWS).astype(int)]
    sq = np.sum(xs**2, axis=1)
    d2 = xs @ xs.T
    d2 *= 2.0  # exact, so d2 rounds as (|x_i|^2 + |x_j|^2) - 2 x_i.x_j does
    np.subtract(sq[:, None] + sq[None, :], d2, out=d2)
    np.maximum(d2, 0.0, out=d2)
    upper = d2[~np.tri(xs.shape[0], dtype=bool)]  # the pairs i < j, row by row
    return max(float(np.median(np.sqrt(upper, out=upper), overwrite_input=True)), 1e-12)


def mmd_rff(samples_x, samples_y: np.ndarray, est: RffEstimator) -> float:
    """Squared MMD estimate: ||mean phi(X) - mean phi(Y)||^2."""
    diff = est.mean_features(samples_x) - est.mean_features(samples_y)
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
    return float(0.5 * np.log(mse))


def jump_rate(states: np.ndarray, domain: DomainSpec) -> float:
    """Fraction of consecutive emitted states farther than JUMP_DISTANCE apart (L2, embedded)."""
    if states.shape[0] < 2:
        raise DomainError("jump rate needs a trace of length >= 2")
    emb = domain.value_table[states]
    dist = np.linalg.norm(np.diff(emb, axis=0), axis=1)
    return float(np.mean(dist > JUMP_DISTANCE))


def swap_rate(trace) -> float:
    """Successful swaps per iteration; 0.0 for single-chain runs (no attempts)."""
    return float(np.mean(trace.swapped)) if trace.is_replica else 0.0
