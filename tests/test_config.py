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


@pytest.mark.parametrize(
    "sampler, key",
    [("drexel", "sigma2"), ("dream", "sigma2")]
    + [(sampler, key) for sampler in ("dula", "dmala") for key in ("alpha_high", "tau_high", "rho", "sigma2")],
)
def test_keys_the_sampler_never_reads_rejected(sampler, key):
    """A key that the chosen sampler ignores is an error, not a value that meta.txt echoes as if it were used."""
    text = MINIMAL_SYNTHETIC.replace("dmala", sampler)
    if sampler in ("drexel", "dream"):
        text += "alpha_high = 0.05\ntau_high = 2.0\n"
    parse_config(text)
    with pytest.raises(ConfigError, match=f"sampler '{sampler}' never reads the {key} key"):
        parse_config(text + f"{key} = 0.5\n")


NON_SAMPLING = {
    "rbm-train": "kind = rbm-train\nvisible = 4\nhidden = 2\nseed = 1\n",
    "oracle-check": "kind = oracle-check\nalpha = 0.2\nalpha_high = 0.4\ntau_high = 2.0\nseed = 1\n",
}
RUN_KEYS = {"sampler": "dream", "sigma2": "0.5", "iterations": "10", "thin": "2", "init": "uniform", "init_prob": "0.5", "repeats": "5"}
CHAIN_KEYS = {"alpha": "0.2", "tau": "1.0", "alpha_high": "0.4", "tau_high": "2.0", "rho": "1.0"}


@pytest.mark.parametrize(
    "kind, key",
    [(kind, key) for kind in NON_SAMPLING for key in RUN_KEYS] + [("rbm-train", key) for key in CHAIN_KEYS],
)
def test_keys_the_kind_never_reads_rejected(kind, key):
    """rbm-train and oracle-check run no sampler and no repeats; rbm-train no chain either."""
    parse_config(NON_SAMPLING[kind])
    with pytest.raises(ConfigError, match=f"kind '{kind}' never reads the {key} key"):
        parse_config(NON_SAMPLING[kind] + f"{key} = {(RUN_KEYS | CHAIN_KEYS)[key]}\n")


CHAIN = {"alpha", "tau", "alpha_high", "tau_high", "rho"}
SAMPLING = {"kind", "out", "seed", "repeats", "threads", "sampler", "sigma2", "iterations", "thin", "init", "init_prob"}
# the keys each kind's run reads, written out from the harness rather than taken from the schema
READS = {
    "synthetic": SAMPLING | CHAIN | {"energy", "grid_levels", "c", "heatmap", "mmd_features", "reference_samples"},
    "ising": SAMPLING | CHAIN | {"side", "coupling", "periodic", "field", "reference_steps"},
    "rbm-sample": SAMPLING | CHAIN | {"weights", "gibbs_burn_in", "mmd_features"},
    "rbm-train": {
        "kind", "out", "seed", "visible", "hidden", "cd_k", "learning_rate", "train_iterations", "batch_size",
        "dataset", "modes", "per_mode", "flip_prob", "weights_out",
    },
    "oracle-check": {"kind", "out", "seed", "spins", "coupling", "field", "with_mh", "n_max"} | CHAIN,
}


# a valid value of each key that has no default (kind and seed are in every base)
SET_VALUES = RUN_KEYS | CHAIN_KEYS | {"energy": "wave", "side": "4", "visible": "16", "hidden": "8", "weights": "w.bin"}


@pytest.mark.parametrize("kind", sorted(READS))
def test_each_kind_accepts_exactly_the_keys_it_reads(kind):
    """Every schema key outside the kind's read keys fails at parse time; none of its read keys fails for its kind."""
    base = BASES[kind]
    assert READS[kind] <= set(_SCHEMA)
    for key, (_, default, _) in _SCHEMA.items():
        if f"\n{key} = " in f"\n{base}":
            continue
        text = base + f"{key} = {SET_VALUES[key] if default is None else default}\n"
        if key not in READS[kind]:
            with pytest.raises(ConfigError, match=f"^kind '{kind}' never reads the {key} key$"):
                parse_config(text)
            continue
        try:
            parse_config(text)
        except ConfigError as exc:  # a sampler or value rule may still reject it, the kind may not
            assert not str(exc).startswith(f"kind '{kind}' never reads"), (key, exc)


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


@pytest.mark.parametrize("prob", ["-3.0", "1.5", "nan"])
def test_init_prob_outside_the_unit_interval_rejected(prob):
    text = MINIMAL_SYNTHETIC + "grid_levels = 2\ninit = bernoulli\ninit_prob = {}\n"
    for edge in ("0.0", "1.0"):
        assert parse_config(text.format(edge)).init_prob == float(edge)
    with pytest.raises(ConfigError, match="init_prob must be in"):
        parse_config(text.format(prob))


def test_bernoulli_init_needs_a_two_level_grid():
    """Rejected at parse time, not after the model is built and the target enumerated."""
    text = MINIMAL_SYNTHETIC + "init = bernoulli\n"
    assert parse_config(text + "grid_levels = 2\n").init == "bernoulli"
    for levels in ("3", "64"):
        with pytest.raises(ConfigError, match="bernoulli init needs a two-level domain"):
            parse_config(text + f"grid_levels = {levels}\n")


# a valid config of each kind, to set one bad value in
BASES = {
    "synthetic": MINIMAL_SYNTHETIC,
    # bdream reads every high-chain and swap key, so each bad value reaches ChainParams or SwapConfig
    "replica": MINIMAL_SYNTHETIC.replace("dmala", "bdream") + "alpha_high = 0.05\ntau_high = 2.0\nsigma2 = 0.5\n",
    "ising": "kind = ising\nside = 4\nsampler = dmala\nalpha = 0.4\niterations = 100\nseed = 3\n",
    "rbm-sample": "kind = rbm-sample\nweights = w.bin\nsampler = dmala\nalpha = 0.2\niterations = 10\nseed = 1\n",
    "rbm-train": "kind = rbm-train\nvisible = 16\nhidden = 8\nseed = 1\n",
    "oracle-check": "kind = oracle-check\nalpha = 0.2\nalpha_high = 0.4\ntau_high = 2.0\nseed = 1\n",
}


def _set(base, line):
    """BASES[base] with the key of `line` set to its value: its own line replaced, or the line appended."""
    key = line.partition(" = ")[0]
    return "\n".join([kept for kept in BASES[base].splitlines() if kept.partition(" = ")[0] != key] + [line]) + "\n"


@pytest.mark.parametrize(
    "base, bad",
    [
        ("synthetic", "tau = 0"),
        ("synthetic", "thin = 0"),
        ("synthetic", "init = bernouli"),
        ("replica", "tau_high = -1"),
        ("replica", "rho = 2"),
        ("replica", "sigma2 = -1"),
        ("replica", "sigma2 = nan"),
        ("replica", "sigma2 = inf"),
        ("rbm-train", "cd_k = 0"),
        ("rbm-train", "learning_rate = 0"),
        ("rbm-train", "learning_rate = nan"),
        ("rbm-train", "learning_rate = inf"),
        ("rbm-train", "batch_size = 0"),
        ("oracle-check", "alpha = 0"),
    ],
)
def test_values_the_settings_objects_reject_are_config_errors(base, bad):
    """parse_config builds the kind's RunConfig, ChainParams, SwapConfig or RbmTrainConfig, and keeps their verdict."""
    parse_config(BASES[base])
    with pytest.raises(ConfigError):
        parse_config(_set(base, bad))


@pytest.mark.parametrize(
    "base, bad",
    [
        ("ising", "reference_steps = 0"),
        ("rbm-sample", "gibbs_burn_in = -5"),
        ("oracle-check", "n_max = 0"),
        ("synthetic", "reference_samples = 0"),
        ("synthetic", "reference_samples = 1"),
        ("synthetic", "mmd_features = 0"),
        ("rbm-sample", "mmd_features = 0"),
    ],
)
def test_reference_and_check_lengths_rejected(base, bad):
    """Lengths that would give a NaN metric, a vacuous pass, a burn-in that meta.txt misreports, or no MMD features.

    Each fails at parse time, before any sampling.
    """
    parse_config(BASES[base])
    with pytest.raises(ConfigError, match=bad.partition(" = ")[0]):
        parse_config(_set(base, bad))


@pytest.mark.parametrize("iterations, thin", [(5, 10), (1, 1), (9, 9)])
def test_synthetic_run_keeping_fewer_than_two_states_rejected(iterations, thin):
    """The jump rate needs two kept states, so the config fails at parse time rather than after the sampling."""
    with pytest.raises(ConfigError, match=f"iterations = {iterations} with thin = {thin}"):
        parse_config(_set("synthetic", f"iterations = {iterations}") + f"thin = {thin}\n")
    parse_config(_set("synthetic", f"iterations = {thin + 1}") + f"thin = {thin}\n")
    parse_config(_set("ising", f"iterations = {iterations}") + f"thin = {thin}\n")


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
        want = {key: default for key, (_, default, _) in _SCHEMA.items()} | expected
        got = {key: getattr(cfg, key) for key in _SCHEMA}
        assert {k: (type(v), v) for k, v in got.items()} == {k: (type(v), v) for k, v in want.items()}, name
