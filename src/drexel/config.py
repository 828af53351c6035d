"""Line-oriented experiment configuration: `key = value` with optional [section] headers.

Unknown keys are errors (fail closed), and every parse error names the
offending line.  Sections are cosmetic grouping; keys are global.  A value
that a settings object (RunConfig, ChainParams, SwapConfig, RbmTrainConfig)
checks is checked there only: parse_config builds the ones its kind runs
with, through the same functions the harness calls.
"""

from dataclasses import field, fields, make_dataclass

from .energies import SYNTHETIC_NAMES
from .errors import ConfigError, DomainError
from .rbm import RbmTrainConfig
from .sampler import BDREAM, BDREXEL, REPLICA_SAMPLERS, SINGLE_CHAIN_SAMPLERS, ChainParams, RunConfig, SwapConfig

KINDS = ("synthetic", "ising", "rbm-train", "rbm-sample", "oracle-check")
SAMPLING_KINDS = ("synthetic", "ising", "rbm-sample")
# integer keys that no settings object checks -> least value, checked under the kinds that read them
_LEAST = {
    "repeats": 1, "grid_levels": 2, "side": 2, "visible": 1, "spins": 1, "n_max": 1, "mmd_features": 1,
    "reference_samples": 2,  # the MMD bandwidth is their median pairwise distance
    "reference_steps": 1, "gibbs_burn_in": 0,
}

_CHAIN_KINDS = SAMPLING_KINDS + ("oracle-check",)
# key -> (type, default, readers): the kinds that read the key and, where it names samplers, the only samplers
# under which a sampling kind reads it (see reads).  A file may set only the keys its run reads, and must set
# each of them whose default is None.  A key that a kind reads under some values of other keys only (c,
# init_prob, reference_steps, modes, per_mode, flip_prob) is read under every value.  oracle-check requires a
# seed it never reads, so that --seed always has a target
_SCHEMA = {
    "kind": (str, None, KINDS),
    "out": (str, "runs/out", KINDS),
    "seed": (int, None, KINDS),
    "repeats": (int, 1, SAMPLING_KINDS),
    "threads": (int, 1, SAMPLING_KINDS),
    "sampler": (str, None, SAMPLING_KINDS),
    "alpha": (float, None, _CHAIN_KINDS),
    "tau": (float, RunConfig.tau, _CHAIN_KINDS),
    "alpha_high": (float, None, _CHAIN_KINDS + REPLICA_SAMPLERS),
    "tau_high": (float, None, _CHAIN_KINDS + REPLICA_SAMPLERS),
    "rho": (float, RunConfig.rho, _CHAIN_KINDS + REPLICA_SAMPLERS),
    "sigma2": (float, None, SAMPLING_KINDS + (BDREXEL, BDREAM)),
    "iterations": (int, None, SAMPLING_KINDS),
    "thin": (int, RunConfig.thin, SAMPLING_KINDS),
    "init": (str, RunConfig.init, SAMPLING_KINDS),
    "init_prob": (float, RunConfig.init_prob, SAMPLING_KINDS),
    "energy": (str, None, ("synthetic",)),
    "grid_levels": (int, 64, ("synthetic",)),
    "c": (float, 2.0, ("synthetic",)),
    "heatmap": (bool, True, ("synthetic",)),
    "mmd_features": (int, 500, ("synthetic", "rbm-sample")),
    "reference_samples": (int, 10000, ("synthetic",)),
    "side": (int, None, ("ising",)),
    "coupling": (float, 0.15, ("ising", "oracle-check")),
    "periodic": (bool, True, ("ising",)),
    "field": (float, 0.0, ("ising", "oracle-check")),
    "reference_steps": (int, 1_000_000, ("ising",)),
    "visible": (int, None, ("rbm-train",)),
    "hidden": (int, None, ("rbm-train",)),
    "cd_k": (int, RbmTrainConfig.cd_k, ("rbm-train",)),
    "learning_rate": (float, RbmTrainConfig.learning_rate, ("rbm-train",)),
    "train_iterations": (int, RbmTrainConfig.iterations, ("rbm-train",)),
    "batch_size": (int, RbmTrainConfig.batch_size, ("rbm-train",)),
    "dataset": (str, "synthetic", ("rbm-train",)),
    "modes": (int, 4, ("rbm-train",)),
    "per_mode": (int, 250, ("rbm-train",)),
    "flip_prob": (float, 0.05, ("rbm-train",)),
    "weights_out": (str, "rbm_weights.bin", ("rbm-train",)),
    "weights": (str, None, ("rbm-sample",)),
    "gibbs_burn_in": (int, 1000, ("rbm-sample",)),
    "spins": (int, 2, ("oracle-check",)),
    "with_mh": (bool, False, ("oracle-check",)),
    "n_max": (int, 50, ("oracle-check",)),
}


def reads(kind, sampler, key) -> bool:
    """Whether a run of the kind reads the key; sampler is the run's sampler, None for a kind that runs none."""
    readers = _SCHEMA[key][2]
    return kind in readers and (sampler is None or sampler in readers or set(readers) <= set(KINDS))


ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [(key, typ, field(default=default)) for key, (typ, default, _) in _SCHEMA.items()],
    frozen=True,
)
ExperimentConfig.__doc__ = "Validated experiment description; one field per config key."
# before Python 3.12 make_dataclass names `types` as the module, where the
# threads > 1 workers could not find the class to unpickle a config
ExperimentConfig.__module__ = __name__


def _parse_scalar(key, raw, typ, lineno):
    raw = raw.strip()
    try:
        if typ is bool:
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"key {key!r} expects {typ.__name__}, got {raw!r}", line=lineno) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config; raises ConfigError naming the bad line."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # section headers group keys visually, nothing more
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        values[key] = _parse_scalar(key, raw, _SCHEMA[key][0], lineno)
    _require_keys(values)
    config = ExperimentConfig(**values)
    _validate(config)
    try:
        _SETTINGS[config.kind](config)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    # after RunConfig has checked both are >= 1; the jump rate needs two kept states
    if config.kind == "synthetic" and len(range(0, config.iterations, config.thin)) < 2:
        raise ConfigError(f"iterations = {config.iterations} with thin = {config.thin} keeps fewer than 2 states")
    return config


def _require_keys(values):
    """Each key the file sets must be read by its run, and each key its run reads without a default set."""
    kind = values.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}" if "kind" in values
                          else "every config requires key 'kind'")
    sampler = values.get("sampler")
    if kind in SAMPLING_KINDS and sampler not in SINGLE_CHAIN_SAMPLERS + REPLICA_SAMPLERS + (None,):
        raise ConfigError(f"unknown sampler {sampler!r}")  # before it is said to read no key
    for key, (_, default, readers) in _SCHEMA.items():  # sampler comes before every key that names samplers
        read = reads(kind, sampler, key)
        if key in values and not read:
            owner = f"sampler {sampler!r}" if kind in readers else f"kind {kind!r}"
            raise ConfigError(f"{owner} never reads the {key} key")
        if key not in values and default is None and read:
            owner = f"sampler {sampler!r}" if sampler in readers else f"kind {kind!r}"
            raise ConfigError(f"{owner} requires key {key!r}")


def check_threads(threads: int) -> int:
    """threads, the number of worker processes over the repeats, if at least 1."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    return threads


def _validate(config):
    """The values that no settings object checks."""
    check_threads(config.threads)
    for key, least in _LEAST.items():
        if reads(config.kind, config.sampler, key) and getattr(config, key) < least:
            raise ConfigError(f"{key} must be >= {least}, got {getattr(config, key)}")
    if config.kind == "synthetic" and config.energy not in SYNTHETIC_NAMES:
        raise ConfigError(f"unknown energy {config.energy!r}; expected one of {SYNTHETIC_NAMES}")
    # the Ising and RBM domains have two levels; sampler._draw_init checks direct callers
    if config.kind == "synthetic" and config.init == "bernoulli" and config.grid_levels != 2:
        raise ConfigError("bernoulli init needs a two-level domain")
    if config.kind == "ising" and not config.coupling > 0:
        raise ConfigError("coupling must be positive")
    if config.kind == "rbm-train" and config.dataset == "synthetic" and not 0 <= config.flip_prob < 0.5:
        raise ConfigError("flip_prob must be in [0, 0.5)")


def run_config(config: ExperimentConfig) -> RunConfig:
    """The RunConfig of every repeat, from the keys its run reads; RunConfig's defaults stand for the others."""
    return RunConfig(**{
        f.name: getattr(config, f.name) for f in fields(RunConfig) if reads(config.kind, config.sampler, f.name)
    })


def oracle_settings(config: ExperimentConfig) -> tuple:
    """The oracle check's unadjusted low and high ChainParams, and its history swap at the config's rho."""
    low = ChainParams(alpha=config.alpha, tau=config.tau)
    return low, ChainParams(alpha=config.alpha_high, tau=config.tau_high), SwapConfig(rho=config.rho)


def rbm_train_config(config: ExperimentConfig) -> RbmTrainConfig:
    return RbmTrainConfig(
        hidden=config.hidden, cd_k=config.cd_k, learning_rate=config.learning_rate,
        iterations=config.train_iterations, batch_size=config.batch_size, seed=config.seed,
    )


# what each kind runs with; parse_config builds it to have its values checked
_SETTINGS = dict.fromkeys(SAMPLING_KINDS, run_config) | {
    "oracle-check": oracle_settings,
    "rbm-train": rbm_train_config,
}


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from None
