"""Golden hashes: sampler trajectories and run artifacts must stay byte-identical.

Each case runs a sampler at a fixed seed and hashes every array of the
resulting RunTrace (wall-clock time excluded).  A moved hash means the
random draws, their order or the floating-point arithmetic of a step
changed; re-pin a hash only together with the reason it moved.
"""

import hashlib

import numpy as np
import pytest

from drexel import RunConfig, make_ising_chain, make_synthetic, run_sampler
from drexel.config import parse_config
from drexel.domains import DomainSpec
from drexel.energies import RbmFreeEnergy
from drexel.harness import run_experiment


def _random_rbm():
    rng = np.random.default_rng(2024)
    d, m = 12, 5
    return RbmFreeEnergy(
        domain=DomainSpec.binary01(d),
        W=rng.normal(0, 0.6, size=(m, d)),
        c=rng.normal(0, 0.3, m),
        b=rng.normal(0, 0.3, d),
    )


MODELS = {
    "ising2": (lambda: make_ising_chain(2, 0.15, np.zeros(2)), dict(alpha=0.4, alpha_high=0.9, tau_high=5.0)),
    "grid16": (lambda: make_synthetic("16gaussian", levels=16), dict(alpha=0.1, alpha_high=0.3, tau_high=2.0)),
    "rbm12": (_random_rbm, dict(alpha=0.2, alpha_high=0.4, tau_high=2.0)),
}

GOLDEN = {
    ("ising2", "dula"): "dd643b4d38e089d286d6bf827bcbe8dacc508142f833b324bd3fdff894a1d17e",
    ("ising2", "dmala"): "f2e12dc29a0780d64162e8ac09d3eb124dde67c9df04ba0339b568b271f00ac5",
    ("ising2", "drexel"): "6915a6e9c459a18236573c7a0569770bf8e20a2c8a70cd0558048457b0984e03",
    ("ising2", "dream"): "d6c211ddfc77377101479a2958d2fbbd70227933ad3865c687ca8f4cc5074057",
    ("ising2", "bdrexel"): "45daaced869d3e50d270dbb637bed1f424f3ae54f034823cbd30e594456bca96",
    ("ising2", "bdream"): "9f14349dc48de86d59193dca2e36c16143d529413e248f93761dd8e713b071fa",
    ("grid16", "dula"): "1bcd931b0de22362b782dad756234eb2a571a453ebccad9faf2ef97f9d7d4d99",
    ("grid16", "dmala"): "ea26e8c05c4bfa1d357a21ac6145cf8a53f5631afde0bdfea8e50c99c14ed293",
    ("grid16", "drexel"): "1ea3ecd8b9ebfe2e054215469d7dc0106b48797e3b6fdc4d4b032a53eb9745d1",
    ("grid16", "dream"): "0f2f50aacad6d46b87fd391eb6b931a6f2d53490040c6f5579f19ef71ed19fdd",
    ("grid16", "bdrexel"): "ee55d1ed25e4feb9ed75884430796c440264fb6b13f61a1bdbc232c629c5013f",
    ("grid16", "bdream"): "1886f3ca3f6f8dface46e20f1fb18d005f7f2317732a0b499a4cc310f52200f7",
    ("rbm12", "dula"): "4bb499c286c61a2b59d9c76e7046a13834a1c99481a7564b239aa03eae8ca65a",
    ("rbm12", "dmala"): "87cb0bb481dfc9cd667820f57453032676785cd010597dba5114dc4213f45e20",
    ("rbm12", "drexel"): "170bd86af695593a6495c268678bd5b8af9b7ec1f9a4541d367cb0a960eb1cae",
    ("rbm12", "dream"): "5f68b7751003785a851c3d21bf2495d1a86c8d6203cfa6b83272639427894998",
    ("rbm12", "bdrexel"): "0a75e802b26c872b27b741e1c501d5f58aa05364f39b705152f52aedb5e14a96",
    ("rbm12", "bdream"): "d500fcfaed55b497d43646bb33cb986a154f23796a91da441ca9e80a0d1e80a1",
}

RUN_CSV_GOLDEN = "a2877d85f613e5fb73d87217dbd132115828db824c663d0f7813dbcc8d25f926"


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for arr in (
        trace.states,
        trace.energy_low,
        trace.energy_high,
        trace.accepted_low,
        trace.accepted_high,
        trace.swapped,
    ):
        if arr is None:
            h.update(b"none")
        else:
            h.update(str(arr.dtype).encode() + str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((trace.iterations, trace.swap_attempts, trace.swap_successes, trace.seed, trace.thin)).encode())
    return h.hexdigest()


def golden_run(model_name, sampler, seed=31):
    build, kwargs = MODELS[model_name]
    model = build()
    kwargs = dict(kwargs)
    if sampler in ("dula", "dmala"):
        kwargs.pop("alpha_high")
        kwargs.pop("tau_high")
    if sampler in ("bdrexel", "bdream"):
        kwargs["sigma2"] = 0.5
    init = "bernoulli" if model.domain.levels == 2 else "uniform"
    cfg = RunConfig(sampler=sampler, iterations=300, seed=seed, tau=1.0, init=init, **kwargs)
    return run_sampler(model, cfg)


@pytest.mark.parametrize("model_name,sampler", sorted(GOLDEN))
def test_trace_hash(model_name, sampler):
    assert trace_digest(golden_run(model_name, sampler)) == GOLDEN[(model_name, sampler)]


def test_run_csv_hash(tmp_path):
    cfg = parse_config(
        """
kind = synthetic
energy = 16gaussian
grid_levels = 16
sampler = dream
alpha = 0.1
alpha_high = 0.3
tau_high = 2.0
iterations = 400
repeats = 1
seed = 13
heatmap = false
reference_samples = 500
mmd_features = 50
"""
    )
    run_experiment(cfg, out=str(tmp_path))
    digest = hashlib.sha256((tmp_path / "run_13.csv").read_bytes()).hexdigest()
    assert digest == RUN_CSV_GOLDEN
