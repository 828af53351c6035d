"""Config parsing: fail-closed validation with line-numbered errors."""

import pytest

from drexel.config import load_config, parse_config
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
