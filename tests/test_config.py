"""Config parsing: fail-closed validation with line-numbered errors."""

import dataclasses
from pathlib import Path

import pytest

from drexel.config import _SCHEMA, load_config, parse_config
from drexel.errors import ConfigError

MINIMAL_SYNTHETIC = """
kind = synthetic
energy = wave
sampler = dmala
alpha = 0.025
iterations = 1000
seed = 7
"""


def test_minimal_synthetic_parses():
    cfg = parse_config(MINIMAL_SYNTHETIC)
    assert cfg.kind == "synthetic"
    assert cfg.energy == "wave"
    assert cfg.sampler == "dmala"
    assert cfg.alpha == 0.025
    assert cfg.iterations == 1000
    assert cfg.seed == 7
    assert cfg.repeats == 1  # default


def test_sections_and_comments_accepted():
    cfg = parse_config(
        """
        [experiment]
        kind = synthetic   # synthetic 2-d task
        energy = twist
        seed = 1

        [sampler]
        sampler = dula
        alpha = 0.05
        iterations = 10
        """
    )
    assert cfg.energy == "twist"


def test_misspelled_key_cites_line():
    text = MINIMAL_SYNTHETIC.replace("alpha = 0.025", "alpah = 0.025")
    with pytest.raises(ConfigError, match="line 5.*alpah"):
        parse_config(text)


def test_type_mismatch_cites_line():
    text = MINIMAL_SYNTHETIC.replace("iterations = 1000", "iterations = lots")
    with pytest.raises(ConfigError, match="line 6"):
        parse_config(text)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL_SYNTHETIC + "\nseed = 8\n")


def test_bdream_requires_sigma2():
    text = """
kind = synthetic
energy = wave
sampler = bdream
alpha = 0.025
alpha_high = 0.05
tau_high = 2.0
iterations = 100
seed = 1
"""
    with pytest.raises(ConfigError, match="sigma2"):
        parse_config(text)
    assert parse_config(text + "sigma2 = 0.0\n").sigma2 == 0.0


def test_replica_sampler_requires_high_chain():
    text = MINIMAL_SYNTHETIC.replace("dmala", "dream")
    with pytest.raises(ConfigError, match="alpha_high"):
        parse_config(text)


def test_unknown_kind():
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config("kind = magic\nseed = 1\n")


def test_unknown_energy():
    with pytest.raises(ConfigError, match="unknown energy"):
        parse_config(MINIMAL_SYNTHETIC.replace("wave", "ripple"))


def test_unknown_sampler():
    with pytest.raises(ConfigError, match="unknown sampler"):
        parse_config(MINIMAL_SYNTHETIC.replace("dmala", "hmc"))


def test_missing_equals_cites_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("kind = synthetic\nnonsense line\n")


def test_ising_validation():
    text = """
kind = ising
side = 4
coupling = 0.15
sampler = dmala
alpha = 0.4
iterations = 100
seed = 3
"""
    cfg = parse_config(text)
    assert cfg.side == 4 and cfg.periodic is True
    with pytest.raises(ConfigError, match="side"):
        parse_config(text.replace("side = 4", "side = 1"))


def test_oracle_check_requires_chain_params():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("kind = oracle-check\nspins = 2\nseed = 1\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


@pytest.mark.parametrize("key", ["burn_in", "gibbs_steps"])
def test_removed_keys_fail_closed(key):
    """Keys that never changed a run are gone; configs that set them are rejected."""
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(MINIMAL_SYNTHETIC + f"{key} = 10\n")


def test_config_is_a_frozen_record_of_the_schema():
    cfg = parse_config(MINIMAL_SYNTHETIC)
    assert set(vars(cfg)) == set(_SCHEMA)
    with pytest.raises(AttributeError):
        cfg.alpah
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 8
    assert dataclasses.replace(cfg, seed=8).seed == 8 and cfg.seed == 7


CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"

# every key each bundled config sets; all other fields keep their schema default
BUNDLED = {
    "ising_4x4_dream.cfg": dict(
        kind="ising", side=4, coupling=0.15, periodic=True, field=0.0, seed=7, repeats=10, out="runs/ising_dream",
        sampler="dream", alpha=0.4, tau=1.0, alpha_high=0.9, tau_high=5.0, iterations=50000,
        init="bernoulli", init_prob=0.6,
    ),
    "oracle_2spin.cfg": dict(
        kind="oracle-check", spins=2, coupling=0.15, alpha=0.2, tau=1.0, alpha_high=0.4, tau_high=2.0,
        rho=1.0, n_max=50, seed=1, out="runs/oracle",
    ),
    "rbm_sample_dream.cfg": dict(
        kind="rbm-sample", weights="runs/rbm/rbm_weights.bin", sampler="dream", alpha=0.2, tau=1.0,
        alpha_high=0.4, tau_high=2.0, iterations=10000, repeats=10, seed=9, gibbs_burn_in=1000,
        out="runs/rbm_sample_dream",
    ),
    "rbm_train.cfg": dict(
        kind="rbm-train", visible=16, hidden=8, cd_k=1, learning_rate=0.001, train_iterations=1000,
        batch_size=128, modes=2, per_mode=500, flip_prob=0.05, seed=6, out="runs/rbm", weights_out="rbm_weights.bin",
    ),
    "synthetic_16gaussian_dmala.cfg": dict(
        kind="synthetic", energy="16gaussian", grid_levels=64, c=2.0, seed=7, repeats=10,
        out="runs/16gaussian_dmala", sampler="dmala", alpha=0.023, tau=1.0, iterations=100000,
    ),
    "synthetic_16gaussian_dream.cfg": dict(
        kind="synthetic", energy="16gaussian", grid_levels=64, c=2.0, seed=7, repeats=10,
        out="runs/16gaussian_dream", sampler="dream", alpha=0.023, tau=1.0, alpha_high=0.053, tau_high=2.0,
        rho=1.0, iterations=100000,
    ),
}


def test_every_bundled_config_parses():
    assert sorted(p.name for p in CONFIGS.glob("*.cfg")) == sorted(BUNDLED)
    for name, expected in BUNDLED.items():
        cfg = load_config(CONFIGS / name)
        want = {key: default for key, (_, default) in _SCHEMA.items()} | expected
        got = {key: getattr(cfg, key) for key in _SCHEMA}
        assert {k: (type(v), v) for k, v in got.items()} == {k: (type(v), v) for k, v in want.items()}, name
