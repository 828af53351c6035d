"""Short runs of the bundled configs, and the configs that perfbench writes.

Each kind runs a shortened copy of one bundled config: every key the
schema says the kind reads must change the artifacts, and no run may draw
one random stream twice.  perfbench's workload configs must parse, so a
config rule that would fail a benchmark run fails here first.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from drexel.config import _SCHEMA, SAMPLING_KINDS, load_config, parse_config
from drexel.domains import DomainSpec
from drexel.energies import RbmFreeEnergy
from drexel.harness import run_experiment
from drexel.rbm import save_dataset, save_rbm, synth_bernoulli_mixture
from drexel.rng import substream

ROOT = Path(__file__).resolve().parent.parent

# the bundled config of each kind, and the keys that shorten it to a run of well under a second
BUNDLED = {
    "synthetic": ("synthetic_16gaussian_dream.cfg", {"iterations": 200, "repeats": 2, "reference_samples": 200,
                                                     "mmd_features": 20}),
    "ising": ("ising_4x4_dream.cfg", {"iterations": 200, "repeats": 2}),
    "rbm-sample": ("rbm_sample_dream.cfg", {"iterations": 200, "repeats": 2, "gibbs_burn_in": 20,
                                            "mmd_features": 20, "weights": "{work}/rbm.bin"}),
    "rbm-train": ("rbm_train.cfg", {"train_iterations": 20}),
    "oracle-check": ("oracle_2spin.cfg", {}),
}

# the value each key changes to, by key or by (kind, key); every value is valid
CHANGED = {
    "seed": 100, "repeats": 3, "sampler": "drexel", "alpha": 0.04, "tau": 1.5, "alpha_high": 0.7, "tau_high": 3.0,
    "rho": 0.5, "sigma2": 0.5, "iterations": 201, "thin": 2, "init": "bernoulli", ("ising", "init"): "uniform",
    "init_prob": 0.9, "energy": "wave", "grid_levels": 32, "c": 3.0, "heatmap": "false", "mmd_features": 21,
    "reference_samples": 201, "side": 3, "coupling": 0.2, "periodic": "false", "field": 0.05, "visible": 17,
    "hidden": 9, "cd_k": 2, "learning_rate": 0.002, "train_iterations": 21, "batch_size": 100,
    "dataset": "{work}/data.bin", "modes": 3, "per_mode": 400, "flip_prob": 0.1, "weights_out": "other.bin",
    "weights": "{work}/other.bin", "gibbs_burn_in": 21, "spins": 3, "with_mh": "true", "n_max": 1,
}
# keys set in both runs so that the changed key is read: a Bernoulli start needs a two-level grid
CONTEXT = {
    ("synthetic", "init"): {"grid_levels": 2},
    ("synthetic", "init_prob"): {"grid_levels": 2, "init": "bernoulli"},
    ("rbm-sample", "init_prob"): {"init": "bernoulli"},
} | {(kind, "sigma2"): {"sampler": "bdream", "sigma2": 0.0} for kind in SAMPLING_KINDS}
# read keys whose change leaves the artifacts as they are, by design
EXCEPTIONS = {
    "kind": "selects the kind, and so the row of the table, itself",
    "out": "the runs below pass the output directory explicitly",
    "threads": "worker processes write the bytes of a single process",
    ("oracle-check", "seed"): "the oracle draws nothing; the key is required so that --seed has a target",
    ("ising", "reference_steps"): "the 4x4 lattice is enumerated; the reference chain runs above 20 spins",
}


def config_text(kind, work, **changes):
    """The shortened bundled config of the kind, with each key of changes set to its value."""
    name, short = BUNDLED[kind]
    values = {key: str(value).format(work=work) for key, value in (short | changes).items()}
    lines = (ROOT / "scripts" / "configs" / name).read_text().splitlines()
    kept = [line for line in lines if line.partition(" = ")[0].strip() not in values]
    return "\n".join(kept + [f"{key} = {value}" for key, value in values.items()]) + "\n"


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Two 16 x 8 RBM weights files and a 16-wide dataset file."""
    work = tmp_path_factory.mktemp("bundled")
    for name, seed in (("rbm.bin", 1), ("other.bin", 2)):
        rng = np.random.default_rng(seed)
        rbm = RbmFreeEnergy(domain=DomainSpec.binary01(16), W=rng.normal(0, 0.5, (8, 16)), c=rng.normal(0, 0.3, 8),
                            b=rng.normal(0, 0.3, 16))
        save_rbm(rbm, work / name)
    save_dataset(synth_bernoulli_mixture(16, 2, 500, 0.05, seed=3), work / "data.bin")
    return work


@pytest.fixture(scope="module")
def artifacts(work):
    """config text -> {file name: bytes} of its run, meta.txt aside (it echoes each key the run reads by construction)."""
    runs = {}

    def run(text):
        if text not in runs:
            out = work / f"out{len(runs)}"
            run_experiment(parse_config(text), out=str(out))
            runs[text] = {path.name: path.read_bytes() for path in out.iterdir() if path.name != "meta.txt"}
        return runs[text]

    return run


READ_KEYS = [
    (kind, key)
    for kind in BUNDLED
    for key, (_, _, readers) in _SCHEMA.items()
    if kind in readers and key not in EXCEPTIONS and (kind, key) not in EXCEPTIONS
]


@pytest.mark.parametrize("kind, key", READ_KEYS)
def test_every_read_key_changes_the_artifacts(kind, key, work, artifacts):
    context = CONTEXT.get((kind, key), {})
    changed = CHANGED.get((kind, key), CHANGED[key])
    before = artifacts(config_text(kind, work, **context))
    assert artifacts(config_text(kind, work, **context | {key: changed})) != before


@pytest.mark.parametrize("kind", sorted(BUNDLED))
def test_no_random_stream_is_drawn_twice(kind, work, tmp_path, monkeypatch):
    """Every (seed, salt) substream of one run is built once: two consumers of one stream would draw alike."""
    drawn = []

    def recording(seed, salt):
        drawn.append((seed, salt))
        return substream(seed, salt)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "drexel" and getattr(module, "substream", None) is substream:
            monkeypatch.setattr(module, "substream", recording)
    run_experiment(parse_config(config_text(kind, work)), out=str(tmp_path))
    assert drawn or kind == "oracle-check"
    assert [pair for pair, count in Counter(drawn).items() if count > 1] == []


def test_perfbench_workload_configs_parse(tmp_path, monkeypatch):
    """Each workload's write_inputs, into a fresh directory; every config it writes goes through parse_config."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # import perfbench/ without writing into it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("checks", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)  # and drop both modules again afterwards
    workloads = importlib.import_module("workloads")
    assert sorted(workloads.WORKLOADS) == ["grid16-dream", "ising32-dream", "oracle4-check", "rbm784-dmala"]
    for name in workloads.WORKLOADS:
        work = tmp_path / name
        work.mkdir()
        workloads.make_workload(name, 1, str(work)).write_inputs()
        configs = sorted(work.glob("*.cfg"))
        assert configs, name
        for path in configs:
            load_config(path)
