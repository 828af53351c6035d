"""Golden hashes: sampler trajectories and run artifacts must stay byte-identical.

Each trace case runs a sampler at a fixed seed and hashes every array of
the resulting RunTrace.  Each whole-run case
runs `run_experiment` on a small 3-repeat config and hashes every artifact
it writes.  A moved hash means the random draws, their order or the
floating-point arithmetic of a step changed; re-pin a hash only together
with the reason it moved.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import drexel
from drexel import RunConfig, make_ising_chain, make_synthetic, run_batch
from drexel.config import load_config, parse_config
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
    iterations, swaps = trace.energy_low.shape[0], int(trace.swapped.sum()) if trace.is_replica else 0
    # the (iterations, swap attempts, swap successes, seed, thin) tuple, as the digests were pinned
    h.update(repr((iterations, iterations if trace.is_replica else 0, swaps, trace.seed, trace.thin)).encode())
    return h.hexdigest()


GOLDEN_SEED = 31  # the seed of every GOLDEN trace


def golden_config(model_name, sampler, thin=1):
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
    return model, RunConfig(sampler=sampler, iterations=300, tau=1.0, init=init, thin=thin, **kwargs)


@pytest.mark.parametrize("model_name,sampler", sorted(GOLDEN))
def test_trace_hash(model_name, sampler):
    model, cfg = golden_config(model_name, sampler)
    assert trace_digest(run_batch(model, cfg, [GOLDEN_SEED])[0]) == GOLDEN[(model_name, sampler)]


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
    trace = run_batch(model, RunConfig(sampler="dmala", iterations=200, alpha=0.3), [37])[0]
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
    "synthetic": "6f8712110428ca07c82b51831ddfdbe0a4fcf460cf204579519fa959b0a2f014",
    "ising": "23806247f945c0584535cf46bd95c8812f9ff35b94598daabf85f0098eaeddd6",
    "rbm-sample": "2e639aef9fbb7d25d0a3a3571561968b9c1c5c02d4fbcc88938f0aeed6587035",
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


@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("kind", ["synthetic", "rbm-sample"])
def test_two_threads_write_the_same_bytes(kind, threads, tmp_path, monkeypatch):
    """Repeats split over worker processes give the single-process artifacts; 4 threads leave one of 3 idle."""
    out = whole_run(kind, tmp_path, monkeypatch, threads=threads)
    assert artifacts_digest(out) == WHOLE_RUN_GOLDEN[kind]


RBM_TRAIN_CONFIG = """
kind = rbm-train
visible = 16
hidden = 8
cd_k = 2
learning_rate = 0.01
train_iterations = 50
batch_size = 64
modes = 2
per_mode = 100
flip_prob = 0.05
seed = 53
"""

RBM_TRAIN_GOLDEN = "5bfecbbde13a7592f286748608ea4ad7175b77c8f45f264a39026592d59f4e3c"


def test_rbm_train_hash(tmp_path, monkeypatch):
    """CD-2 training end to end: the weights file, train_loss.csv and meta.txt."""
    monkeypatch.chdir(tmp_path)  # a relative out keeps the weights path in meta.txt free of tmp_path
    run_experiment(parse_config(RBM_TRAIN_CONFIG), out="out")
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["meta.txt", "rbm_weights.bin", "train_loss.csv"]
    assert artifacts_digest(out) == RBM_TRAIN_GOLDEN


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
    2: "16bd8fd40e8a61a0f2f28ea1df644694530b2c935a3c708ec42b424b4dc2658c",
    4: "6979353589ea297d6e0351d1aa1b5919c01ae17df6fb00eae966463eef3a0abe",
}


@pytest.mark.parametrize("spins", sorted(REPORT_GOLDEN))
def test_oracle_report_hash(spins, tmp_path):
    """The oracle-check report of the bundled 2-spin config and of a 4-spin chain (256 pair states)."""
    run_experiment(parse_config(ORACLE_CHECK_CONFIG.format(spins=spins)), out=str(tmp_path))
    report = (tmp_path / "report.txt").read_bytes()
    assert hashlib.sha256(report).hexdigest() == REPORT_GOLDEN[spins]


def test_bundled_oracle_config_is_the_2_spin_golden_config():
    """REPORT_GOLDEN[2] is the report of scripts/configs/oracle_2spin.cfg: the two configs differ only in out."""
    bundled = load_config(Path(__file__).resolve().parent.parent / "scripts" / "configs" / "oracle_2spin.cfg")
    assert dataclasses.replace(parse_config(ORACLE_CHECK_CONFIG.format(spins=2)), out=bundled.out) == bundled


@pytest.mark.parametrize("spins", sorted(REPORT_GOLDEN))
def test_oracle_report_does_not_depend_on_blas_threads(spins, tmp_path):
    """One and two BLAS threads write the golden report; BLAS reads the variable at load, so each run is a process."""
    config = tmp_path / "check.cfg"
    config.write_text(ORACLE_CHECK_CONFIG.format(spins=spins))
    src = os.path.dirname(os.path.dirname(os.path.abspath(drexel.__file__)))
    for threads in ("1", "2"):
        out = tmp_path / f"out-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "drexel.cli", "run", str(config), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256((out / "report.txt").read_bytes()).hexdigest() == REPORT_GOLDEN[spins], threads


def test_run_benchmarks_only_selects_bundled_configs(tmp_path):
    """--only oracle writes the golden report under runs/ of the cwd; a selector matching no config fails."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_benchmarks.py"
    src = os.path.dirname(os.path.dirname(os.path.abspath(drexel.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = partial(subprocess.run, capture_output=True, text=True, env=env, cwd=tmp_path)
    proc = run([sys.executable, str(script), "--only", "oracle"])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256((tmp_path / "runs" / "oracle" / "report.txt").read_bytes()).hexdigest() == REPORT_GOLDEN[2]
    (tmp_path / "none").mkdir()
    proc = run([sys.executable, str(script), "--only", "oracle", "nosuch"], cwd=tmp_path / "none")
    assert proc.returncode != 0
    assert proc.stderr.endswith("--only matches no bundled config: nosuch\n")
    assert not (tmp_path / "none" / "runs").exists()  # refused before running the configs it does match


MH_REPORT_GOLDEN = "59db6dfbf478b7d9b20f9206b2bdc38d768eb8f9438b04fe57654fd712d76623"


def test_oracle_report_hash_with_metropolis(tmp_path):
    """The 2-spin report with with_mh = true, which adds the single-chain and adjusted replica rows."""
    run_experiment(parse_config(ORACLE_CHECK_CONFIG.format(spins=2) + "with_mh = true\n"), out=str(tmp_path))
    report = (tmp_path / "report.txt").read_bytes()
    assert hashlib.sha256(report).hexdigest() == MH_REPORT_GOLDEN
