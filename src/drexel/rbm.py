"""RBM training and the binary files of RBM weights and datasets.

Plain CD with an adaptive-moment optimizer (negative chains restart at the
data every update), gradient ascent on the log-likelihood.  Training is
seed-deterministic end to end.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .domains import DomainSpec, ReadOnlyArrays, embed_all
from .energies import RbmFreeEnergy, _sigmoid
from .errors import DomainError
from .rng import SALT_DATA, SALT_WEIGHTS, substream

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class RbmTrainConfig:
    hidden: int
    cd_k: int = 10
    learning_rate: float = 0.001
    iterations: int = 1000
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1 or self.cd_k < 1 or self.iterations < 0 or self.batch_size < 1:
            raise DomainError("hidden, cd_k, batch_size must be positive; iterations nonnegative")
        if not 0 < self.learning_rate < np.inf:
            raise DomainError(f"learning rate must be positive and finite, got {self.learning_rate}")


@dataclass(frozen=True)
class BinaryDataset(ReadOnlyArrays):
    """Rows of equal-length binary vectors."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise DomainError("dataset must be a nonempty 2-d array")
        if rows.min() < 0 or rows.max() > 1:
            raise DomainError("dataset entries must be 0/1")
        self._seal(rows=rows)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def synth_bernoulli_mixture(dim: int, modes: int, per_mode: int, flip_prob: float, seed: int) -> BinaryDataset:
    """`modes` random prototype bit-vectors, each emitted per_mode times with bit flips."""
    if modes < 1 or per_mode < 1:
        raise DomainError("modes and per_mode must be positive")
    if not 0.0 <= flip_prob < 0.5:
        raise DomainError(f"flip_prob must be in [0, 0.5), got {flip_prob}")
    rng = substream(seed, SALT_DATA)
    protos = rng.integers(0, 2, size=(modes, dim))
    rows = np.repeat(protos, per_mode, axis=0)
    flips = rng.random(rows.shape) < flip_prob
    return BinaryDataset(rows=np.where(flips, 1 - rows, rows))


def _cd_terms(rbm: RbmFreeEnergy, batch: np.ndarray, k: int, rng: np.random.Generator):
    """The CD-k ascent direction, then (z_data, v_model, z_model): k block-Gibbs sweeps started at the batch.

    Each visible batch's pre-activation z = v @ W.T + c and hidden means
    sigmoid(z) are computed once.  The means give the gradient and the next
    sweep's hidden draw, z the free energies of value_from_pre_activation.
    """
    n = batch.shape[0]
    z_data = rbm.pre_activation(batch)
    h_data = _sigmoid(z_data)
    v_model, z_model, h_model = batch, z_data, h_data
    for _ in range(k):
        v_model = rbm.block_gibbs(v_model, rng, h_model)
        z_model = rbm.pre_activation(v_model)
        h_model = _sigmoid(z_model)
    dW = h_data.T @ batch
    dW -= h_model.T @ v_model
    dW /= n
    dc = h_data.mean(axis=0) - h_model.mean(axis=0)
    db = batch.mean(axis=0) - v_model.mean(axis=0)
    return (dW, dc, db), (z_data, v_model, z_model)


def cd_gradient(rbm: RbmFreeEnergy, batch: np.ndarray, k: int, rng: np.random.Generator):
    """Contrastive-divergence ascent direction (dW, dc, db), averaged over the batch.

    Positive phase uses the exact hidden means at the data; the negative
    phase runs k Gibbs sweeps from the data (k = 0 is a degenerate identity
    allowed for tests: both phases cancel exactly).
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    if batch.shape[0] == 0:
        raise DomainError("cd_gradient needs a nonempty batch")
    grads, _ = _cd_terms(rbm, batch, k, rng)
    return grads


def exact_log_likelihood(rbm: RbmFreeEnergy, rows: np.ndarray) -> float:
    """Mean log-likelihood by enumerating the visible partition function."""
    xs = embed_all(rbm.domain)
    u = rbm.value_batch(xs)
    m = u.max()
    log_z = m + np.log(np.exp(u - m).sum())
    return float(np.mean(rbm.value_batch(np.asarray(rows, dtype=float))) - log_z)


def train_rbm(dataset: BinaryDataset, config: RbmTrainConfig):
    """Train by CD-k with Adam-style updates; returns (model, loss_trace).

    The loss trace is the free-energy gap proxy, mean U(data batch) minus
    mean U(negative samples); it hovers near zero once the model matches the
    data.  iterations = 0 returns the initialization untouched.
    """
    if config.batch_size > dataset.size:
        raise DomainError(f"batch_size {config.batch_size} exceeds dataset size {dataset.size}")
    rng = substream(config.seed, SALT_WEIGHTS)
    d = dataset.dim
    m = config.hidden
    W = rng.normal(0.0, 0.01, size=(m, d))
    c = np.zeros(m)
    b = np.zeros(d)
    params = (W, c, b)
    mom = [np.zeros_like(p) for p in params]
    vel = [np.zeros_like(p) for p in params]
    scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
    losses = np.empty(config.iterations)
    dom = DomainSpec.binary01(d)
    for it in range(config.iterations):
        idx = rng.integers(0, dataset.size, size=config.batch_size)
        batch = dataset.rows[idx].astype(float)
        # views: the model marks its arrays read-only, and the buffers are updated in place below
        model = RbmFreeEnergy(domain=dom, W=W.view(), c=c.view(), b=b.view())
        grads, (z_data, v_neg, z_neg) = _cd_terms(model, batch, config.cd_k, rng)
        losses[it] = (
            model.value_from_pre_activation(batch, z_data).mean() - model.value_from_pre_activation(v_neg, z_neg).mean()
        )
        t = it + 1
        # p + lr * (mom / (1 - beta1^t)) / (sqrt(vel / (1 - beta2^t)) + eps), one rounding per operation as written
        for p, g, mo, ve, (s1, s2) in zip(params, grads, mom, vel, scratch):
            mo *= ADAM_BETA1
            np.multiply(g, 1 - ADAM_BETA1, out=s1)
            mo += s1
            ve *= ADAM_BETA2
            np.square(g, out=s1)
            s1 *= 1 - ADAM_BETA2
            ve += s1
            np.divide(mo, 1 - ADAM_BETA1**t, out=s1)
            s1 *= config.learning_rate
            np.divide(ve, 1 - ADAM_BETA2**t, out=s2)
            np.sqrt(s2, out=s2)
            s2 += ADAM_EPS
            s1 /= s2
            p += s1
    return RbmFreeEnergy(domain=dom, W=W, c=c, b=b), losses


_MAGIC_ENERGY = b"DREXENER"
_MAGIC_DATA = b"DREXDATA"


def _write_blob(path, magic: bytes, shape, *arrays) -> None:
    """magic, the two sizes of shape as little-endian u32, then each array's bytes in C order."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<II", *shape))
        for a in arrays:
            fh.write(a.tobytes(order="C"))


def _read_blob(path, magic: bytes, payload_bytes):
    """(m, d, payload view) of a _write_blob file; checks the magic, the header and a payload_bytes(m, d) payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != magic:
        raise DomainError(f"bad magic {blob[:8]!r}, expected {magic!r}")
    if len(blob) < 16:
        raise DomainError("truncated header")
    m, d = struct.unpack("<II", blob[8:16])
    expected = payload_bytes(m, d)
    if len(blob) - 16 != expected:
        raise DomainError(f"payload is {len(blob) - 16} bytes, header implies {expected}")
    return m, d, memoryview(blob)[16:]


def save_rbm(model: RbmFreeEnergy, path) -> None:
    """Bit-exact round-trip persistence: magic, u32 (m, d), then W, c, b as little-endian f64."""
    W, c, b = (np.asarray(a, dtype="<f8") for a in (model.W, model.c, model.b))
    _write_blob(path, _MAGIC_ENERGY, W.shape, W, c, b)


def load_rbm(path) -> RbmFreeEnergy:
    m, d, payload = _read_blob(path, _MAGIC_ENERGY, lambda m, d: 8 * (m * d + m + d))
    body = np.frombuffer(payload, dtype="<f8").copy()  # one copy, so the model does not hold the file's bytes
    W, c, b = body[: m * d].reshape(m, d), body[m * d : m * d + m], body[m * d + m :]
    return RbmFreeEnergy(domain=DomainSpec.binary01(d), W=W, c=c, b=b)


def save_dataset(dataset: BinaryDataset, path) -> None:
    """Write rows as: magic, u32 rows, u32 dim, then rows*dim bytes of 0/1."""
    _write_blob(path, _MAGIC_DATA, dataset.rows.shape, dataset.rows.astype(np.uint8))


def load_dataset(path) -> BinaryDataset:
    rows, dim, payload = _read_blob(path, _MAGIC_DATA, lambda rows, dim: rows * dim)
    return BinaryDataset(rows=np.frombuffer(payload, dtype=np.uint8).reshape(rows, dim))
