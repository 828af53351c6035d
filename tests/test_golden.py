"""Golden hashes: sampler trajectories and run artifacts must stay byte-identical.

Each trace case runs a sampler at a fixed seed and hashes every array of
the resulting RunTrace (wall-clock time excluded).  Each whole-run case
runs `run_experiment` on a small 3-repeat config and hashes every artifact
it writes.  A moved hash means the random draws, their order or the
floating-point arithmetic of a step changed; re-pin a hash only together
with the reason it moved.
"""

import hashlib

import numpy as np
import pytest

from drexel import RunConfig, make_ising_chain, make_synthetic, run_sampler
from drexel.config import parse_config
from drexel.domains import DomainSpec, embed_all
from drexel.energies import RbmFreeEnergy
from drexel.harness import run_experiment
from drexel.rbm import save_rbm


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


def golden_config(model_name, sampler, seed=31, thin=1):
    """(model, RunConfig) of one golden case."""
    build, kwargs = MODELS[model_name]
    model = build()
    kwargs = dict(kwargs)
    if sampler in ("dula", "dmala"):
        kwargs.pop("alpha_high")
        kwargs.pop("tau_high")
    if sampler in ("bdrexel", "bdream"):
        kwargs["sigma2"] = 0.5
    init = "bernoulli" if model.domain.levels == 2 else "uniform"
    return model, RunConfig(sampler=sampler, iterations=300, seed=seed, tau=1.0, init=init, thin=thin, **kwargs)


def golden_run(model_name, sampler, seed=31):
    return run_sampler(*golden_config(model_name, sampler, seed))


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


LANDSCAPE_GOLDEN = {
    "16gaussian": "b8a29bd3a8fe61f173dfca643fd521a50f7259b2914119ad3f05533aea8ef8fb",
    "2moons": "de0a1bb8cdf0027b4bbc4210b51cd1f18d2baa667cd00b1cd1f60b2661569f69",
    "8gaussian": "09bce4c7054b439d3683a4aa9cec0c1f21e6df7eaf544f4649c61b83cf9817d4",
    "flower": "5b2dad42fb7c636206975a9a4ceae09f5a86731de9db0141bcb8901fd0227243",
    "moon": "7dbd02811d3da957f17a7fb15afa5232b57f2b3c2051e13fc505e58f5f7f5ea2",
    "twist": "3b56d632e6e7ccda0bb4926a1875e0d6fa7712dae6fa465c0c01aadcd7202c93",
    "wave": "3f24a93be0bbd715595a34df318bdda54a7f5f9d5ee1a774bfa17c010fc5105c",
}


@pytest.mark.parametrize("which", sorted(LANDSCAPE_GOLDEN))
def test_landscape_hash(which):
    """Each 2-d landscape: a DMALA trace plus its energies over the whole grid."""
    model = make_synthetic(which, levels=33)
    trace = run_sampler(model, RunConfig(sampler="dmala", iterations=200, seed=37, alpha=0.3))
    h = hashlib.sha256(trace_digest(trace).encode())
    h.update(model.value_batch(embed_all(model.domain)).tobytes())
    assert h.hexdigest() == LANDSCAPE_GOLDEN[which]


WHOLE_RUN_CONFIGS = {
    "synthetic": """
kind = synthetic
energy = 16gaussian
grid_levels = 16
sampler = dream
alpha = 0.1
alpha_high = 0.3
tau_high = 2.0
iterations = 300
thin = 2
repeats = 3
seed = 41
heatmap = true
reference_samples = 400
mmd_features = 40
""",
    "ising": """
kind = ising
side = 4
coupling = 0.15
field = 0.05
sampler = drexel
alpha = 0.4
alpha_high = 0.9
tau_high = 5.0
iterations = 300
repeats = 3
seed = 43
init = bernoulli
init_prob = 0.6
""",
    "rbm-sample": """
kind = rbm-sample
weights = rbm12.bin
sampler = dmala
alpha = 0.2
iterations = 300
thin = 3
repeats = 3
seed = 47
gibbs_burn_in = 20
mmd_features = 40
""",
}

WHOLE_RUN_GOLDEN = {
    "synthetic": "c60d56c9aa234e74e001c2e33771f9c73c3cd59e323384057be6b8b7f407a466",
    "ising": "18abe81285eb112836f848b1dd99ba50227f322f380ce81dcaafe5972870a5e1",
    "rbm-sample": "4f1d39b8048f4bd01cad69752e9e13915a3bfac7e0be7cfd76cf91ddd6ebc5f3",
}


def artifacts_digest(out) -> str:
    """sha256 over every file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def whole_run(kind, tmp_path, monkeypatch, threads=1):
    monkeypatch.chdir(tmp_path)  # relative weights path keeps meta.txt free of tmp_path
    save_rbm(_random_rbm(), "rbm12.bin")
    out = tmp_path / f"out-{threads}"
    run_experiment(parse_config(WHOLE_RUN_CONFIGS[kind]), out=str(out), threads=threads)
    return out


@pytest.mark.parametrize("kind", sorted(WHOLE_RUN_GOLDEN))
def test_whole_run_hash(kind, tmp_path, monkeypatch):
    out = whole_run(kind, tmp_path, monkeypatch)
    names = sorted(p.name for p in out.iterdir())
    assert len([n for n in names if n.startswith("run_")]) == 3
    assert ("empirical.pgm" in names) == (kind == "synthetic")
    assert artifacts_digest(out) == WHOLE_RUN_GOLDEN[kind]


@pytest.mark.parametrize("kind", ["synthetic", "rbm-sample"])
def test_two_threads_write_the_same_bytes(kind, tmp_path, monkeypatch):
    """Repeats split over two worker processes give the single-process artifacts."""
    out = whole_run(kind, tmp_path, monkeypatch, threads=2)
    assert artifacts_digest(out) == WHOLE_RUN_GOLDEN[kind]


ORACLE_CHECK_CONFIG = """
kind = oracle-check
spins = {spins}
coupling = 0.15
alpha = 0.2
tau = 1.0
alpha_high = 0.4
tau_high = 2.0
rho = 1.0
n_max = 50
seed = 1
"""

REPORT_GOLDEN = {
    2: "b78c51cd14e48ceb77f45a728c13f9cc8703c51139e597e97e0261db27c5656d",
    4: "e08b56ae67f1bda7e0bc7ab5af33826ebe7cddd27703180685b8745daefd22ba",
}


@pytest.mark.parametrize("spins", sorted(REPORT_GOLDEN))
def test_oracle_report_hash(spins, tmp_path):
    """The oracle-check report of the bundled 2-spin config and of a 4-spin chain (256 pair states)."""
    run_experiment(parse_config(ORACLE_CHECK_CONFIG.format(spins=spins)), out=str(tmp_path))
    report = (tmp_path / "report.txt").read_bytes()
    assert hashlib.sha256(report).hexdigest() == REPORT_GOLDEN[spins]


MH_REPORT_GOLDEN = "4580b60e4e2b36c545b5ad7e066543a84fd0f9133bddfcce400e863dbca9ede9"


def test_oracle_report_hash_with_metropolis(tmp_path):
    """The 2-spin report with with_mh = true, which adds the single-chain and adjusted replica rows."""
    run_experiment(parse_config(ORACLE_CHECK_CONFIG.format(spins=2) + "with_mh = true\n"), out=str(tmp_path))
    report = (tmp_path / "report.txt").read_bytes()
    assert hashlib.sha256(report).hexdigest() == MH_REPORT_GOLDEN
