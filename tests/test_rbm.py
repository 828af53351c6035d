"""Contrastive-divergence training, synthetic data, and weight persistence."""

import hashlib

import numpy as np
import pytest

from drexel.domains import DomainSpec, embed_all
from drexel.energies import RbmFreeEnergy, _sigmoid
from drexel.errors import DomainError
from drexel.oracle import enumerate_target
from drexel.rbm import (
    BinaryDataset,
    RbmTrainConfig,
    cd_gradient,
    exact_log_likelihood,
    load_dataset,
    load_rbm,
    save_dataset,
    save_rbm,
    synth_bernoulli_mixture,
    train_rbm,
)
from drexel.rng import SALT_LOW, substream


class TestSyntheticData:
    def test_zero_flip_prob_repeats_prototypes(self):
        data = synth_bernoulli_mixture(dim=10, modes=3, per_mode=4, flip_prob=0.0, seed=2)
        rows = data.rows
        assert rows.shape == (12, 10)
        for m in range(3):
            block = rows[m * 4 : (m + 1) * 4]
            assert np.all(block == block[0])

    def test_high_flip_prob_scrambles(self):
        data = synth_bernoulli_mixture(dim=400, modes=1, per_mode=50, flip_prob=0.499, seed=3)
        proto = synth_bernoulli_mixture(dim=400, modes=1, per_mode=1, flip_prob=0.0, seed=3).rows[0]
        hamming = np.abs(data.rows - proto).sum(axis=1).mean()
        assert hamming == pytest.approx(400 * 0.499, rel=0.05)

    def test_seed_determinism(self):
        a = synth_bernoulli_mixture(dim=8, modes=2, per_mode=5, flip_prob=0.1, seed=7)
        b = synth_bernoulli_mixture(dim=8, modes=2, per_mode=5, flip_prob=0.1, seed=7)
        assert np.array_equal(a.rows, b.rows)

    def test_flip_prob_range(self):
        with pytest.raises(DomainError):
            synth_bernoulli_mixture(dim=4, modes=1, per_mode=1, flip_prob=0.5, seed=0)


class TestCdGradient:
    def test_degenerate_k_zero_cancels(self, small_rbm):
        batch = np.array([[1, 0, 1, 0, 1, 1], [0, 0, 1, 1, 0, 1]])
        dW, dc, db = cd_gradient(small_rbm, batch, k=0, rng=substream(0, SALT_LOW))
        assert np.abs(dW).max() == 0.0
        assert np.abs(dc).max() == 0.0
        assert np.abs(db).max() == 0.0

    def test_zero_weights_visible_gradient(self):
        """All-ones data, flat model: E[db] = 1 - 0.5 per unit."""
        dom = DomainSpec.binary01(8)
        rbm = RbmFreeEnergy(domain=dom, W=np.zeros((4, 8)), c=np.zeros(4), b=np.zeros(8))
        batch = np.ones((10_000, 8))
        _, _, db = cd_gradient(rbm, batch, k=1, rng=substream(1, SALT_LOW))
        se = 0.5 / np.sqrt(10_000)
        assert np.all(np.abs(db - 0.5) <= 3 * se)

    def test_ascent_improves_exact_log_likelihood(self):
        """Plain CD ascent on a 6x3 toy raises the enumerated log-likelihood.

        The 400-per-mode batch keeps the negative-phase noise small enough
        that >= 95% of the 200 steps increase the exact log-likelihood.
        """
        data = synth_bernoulli_mixture(dim=6, modes=2, per_mode=400, flip_prob=0.05, seed=5)
        rng = substream(9, SALT_LOW)
        dom = DomainSpec.binary01(6)
        W = rng.normal(0, 0.01, size=(3, 6))
        c = np.zeros(3)
        b = np.zeros(6)
        lr = 0.05
        lls = []
        for _ in range(200):
            model = RbmFreeEnergy(domain=dom, W=W, c=c, b=b)
            lls.append(exact_log_likelihood(model, data.rows))
            dW, dc, db = cd_gradient(model, data.rows.astype(float), k=5, rng=rng)
            W = W + lr * dW
            c = c + lr * dc
            b = b + lr * db
        increases = np.sum(np.diff(lls) > 0)
        assert lls[-1] > lls[0] + 0.5
        assert increases >= 0.95 * (len(lls) - 1)

    def test_large_k_approaches_exact_gradient(self, small_rbm):
        """CD-50 negative phase vs the enumerated model expectation, 1e4 chains."""
        data = np.array([[1, 0, 1, 0, 1, 1], [0, 1, 1, 0, 0, 1], [1, 1, 0, 0, 1, 0]])
        pi = enumerate_target(small_rbm)
        xs = embed_all(small_rbm.domain)
        h_all = _sigmoid(small_rbm.pre_activation(xs))
        exact_neg_W = (h_all * pi.p[:, None]).T @ xs
        h_data = _sigmoid(small_rbm.pre_activation(data.astype(float)))
        exact_dW = h_data.T @ data / data.shape[0] - exact_neg_W
        big_batch = np.tile(data, (3334, 1))[:10_000]
        dW, _, _ = cd_gradient(small_rbm, big_batch.astype(float), k=50, rng=substream(3, SALT_LOW))
        rel = np.linalg.norm(dW - exact_dW) / np.linalg.norm(exact_dW)
        assert rel <= 0.05


class TestTrainRbm:
    def test_zero_iterations_returns_initialization(self):
        data = synth_bernoulli_mixture(dim=8, modes=2, per_mode=20, flip_prob=0.1, seed=1)
        cfg = RbmTrainConfig(hidden=4, iterations=0, batch_size=16, seed=42)
        model, losses = train_rbm(data, cfg)
        assert losses.shape == (0,)
        assert np.all(model.c == 0.0)
        assert np.all(model.b == 0.0)
        assert 0.0 < np.std(model.W) < 0.05

    def test_seed_determinism_bitwise(self):
        data = synth_bernoulli_mixture(dim=10, modes=3, per_mode=30, flip_prob=0.08, seed=4)
        cfg = RbmTrainConfig(hidden=5, cd_k=2, iterations=50, batch_size=32, seed=13)
        m1, l1 = train_rbm(data, cfg)
        m2, l2 = train_rbm(data, cfg)
        assert np.array_equal(m1.W, m2.W)
        assert np.array_equal(m1.c, m2.c)
        assert np.array_equal(m1.b, m2.b)
        assert np.array_equal(l1, l2)

    @pytest.mark.slow
    def test_training_improves_exact_log_likelihood(self):
        """16-visible/8-hidden, 1000 CD-1 iterations: >= 20% LL improvement."""
        data = synth_bernoulli_mixture(dim=16, modes=2, per_mode=500, flip_prob=0.05, seed=6)
        cfg = RbmTrainConfig(hidden=8, cd_k=1, learning_rate=0.001, iterations=1000, batch_size=128, seed=6)
        init_cfg = RbmTrainConfig(hidden=8, cd_k=1, iterations=0, batch_size=128, seed=6)
        init_model, _ = train_rbm(data, init_cfg)
        model, _ = train_rbm(data, cfg)
        ll_init = exact_log_likelihood(init_model, data.rows)
        ll_trained = exact_log_likelihood(model, data.rows)
        assert ll_trained > ll_init
        assert (ll_trained - ll_init) / abs(ll_init) >= 0.20

    def test_batch_size_guard(self):
        data = synth_bernoulli_mixture(dim=4, modes=1, per_mode=10, flip_prob=0.0, seed=0)
        with pytest.raises(DomainError):
            train_rbm(data, RbmTrainConfig(hidden=2, batch_size=64, seed=0))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestTrainingBytes:
    """train_rbm and cd_gradient pinned byte for byte at fixed seeds.

    The whole-run golden covers CD-2 training only; these pin CD-1, CD-3 and
    the gradient at k = 0, 1 and 3, so that a rewrite of the training step
    that moves a single bit of the weights, the losses or the gradient fails.
    """

    DATA = dict(dim=12, modes=3, per_mode=40, flip_prob=0.1, seed=21)

    TRAIN_GOLDEN = {
        1: "4758a260b13ab3c69cf17dc2c49608d094402c2ea54f908987871330b0e7f8c4",
        3: "f13e58f8c54b39d6238de8d1d5cce4f8a0e7c53b6b7555181f90de2803138516",
    }

    GRADIENT_GOLDEN = {
        0: "9487814da91201599e86161ed1d54a5820fa6c0a340248e888de49dd4bb234ac",
        1: "a5143f4261a9962422f6fb07121c74997a4c4521b78b4cc852993de5d29814f6",
        3: "e5c0b4127bbb04e9e2615748bb2d2622f4d8744b35cab0c5e149cb80ad7b8a5f",
    }

    @pytest.mark.parametrize("cd_k", sorted(TRAIN_GOLDEN))
    def test_train_rbm_bytes(self, cd_k):
        data = synth_bernoulli_mixture(**self.DATA)
        rows = data.rows.copy()
        cfg = RbmTrainConfig(hidden=7, cd_k=cd_k, learning_rate=0.02, iterations=40, batch_size=32, seed=5)
        model, losses = train_rbm(data, cfg)
        assert _digest(model.W, model.c, model.b, losses) == self.TRAIN_GOLDEN[cd_k]
        assert not any(a.flags.writeable for a in (model.W, model.c, model.b))
        assert np.array_equal(data.rows, rows)

    @pytest.mark.parametrize("k", sorted(GRADIENT_GOLDEN))
    def test_cd_gradient_bytes(self, k, small_rbm):
        batch = synth_bernoulli_mixture(dim=6, modes=2, per_mode=15, flip_prob=0.2, seed=22).rows
        grads = cd_gradient(small_rbm, batch, k=k, rng=substream(23, SALT_LOW))
        assert _digest(*grads) == self.GRADIENT_GOLDEN[k]


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path, small_rbm):
        path = tmp_path / "weights.bin"
        save_rbm(small_rbm, path)
        loaded = load_rbm(path)
        assert np.array_equal(loaded.W, small_rbm.W)
        assert np.array_equal(loaded.c, small_rbm.c)
        assert np.array_equal(loaded.b, small_rbm.b)

    def test_loaded_model_energies_identical(self, tmp_path, small_rbm):
        path = tmp_path / "weights.bin"
        save_rbm(small_rbm, path)
        loaded = load_rbm(path)
        states = np.random.default_rng(0).integers(0, 2, size=(100, 6)).astype(float)
        for got, expected in zip(loaded.value_and_grad_batch(states), small_rbm.value_and_grad_batch(states)):
            assert np.array_equal(got, expected)

    def test_corrupted_magic(self, tmp_path, small_rbm):
        path = tmp_path / "weights.bin"
        save_rbm(small_rbm, path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(blob))
        with pytest.raises(DomainError, match="DREXENER"):
            load_rbm(path)

    def test_truncated_payload(self, tmp_path, small_rbm):
        path = tmp_path / "weights.bin"
        save_rbm(small_rbm, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DomainError, match="header implies"):
            load_rbm(path)

    @pytest.mark.parametrize("load,magic", [(load_rbm, b"DREXENER"), (load_dataset, b"DREXDATA")])
    def test_truncated_header(self, tmp_path, load, magic):
        path = tmp_path / "short.bin"
        path.write_bytes(magic + b"\x01\x00\x00")
        with pytest.raises(DomainError, match="truncated header"):
            load(path)

    def test_dataset_roundtrip(self, tmp_path):
        data = synth_bernoulli_mixture(dim=9, modes=2, per_mode=7, flip_prob=0.2, seed=8)
        path = tmp_path / "data.bin"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.rows, data.rows)

    def test_dataset_bad_magic(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 16)
        with pytest.raises(DomainError, match="DREXDATA"):
            load_dataset(path)

    def test_dataset_size_mismatch(self, tmp_path):
        data = synth_bernoulli_mixture(dim=4, modes=1, per_mode=3, flip_prob=0.0, seed=1)
        path = tmp_path / "data.bin"
        save_dataset(data, path)
        path.write_bytes(path.read_bytes() + b"\x01")
        with pytest.raises(DomainError, match="header implies"):
            load_dataset(path)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            BinaryDataset(rows=np.empty((0, 4)))
