"""Line-oriented experiment configuration: `key = value` with optional [section] headers.

Unknown keys are errors (fail closed), and every parse error names the
offending line.  Sections are cosmetic grouping; keys are global.  A value
that a settings object (RunConfig, ChainParams, SwapConfig, RbmTrainConfig)
checks is checked there only: parse_config builds the ones its kind runs
with, through the same functions the harness calls.
"""

from dataclasses import field, make_dataclass

from .energies import SYNTHETIC_NAMES
from .errors import ConfigError, DomainError
from .rbm import RbmTrainConfig
from .sampler import BDREAM, BDREXEL, DMALA, DREAM, DREXEL, DULA, ChainParams, RunConfig, SwapConfig

KINDS = ("synthetic", "ising", "rbm-train", "rbm-sample", "oracle-check")
SAMPLING_KINDS = ("synthetic", "ising", "rbm-sample")
_REQUIRED = {
    "synthetic": ("sampler", "alpha", "iterations", "energy"),
    "ising": ("sampler", "alpha", "iterations", "side"),
    "rbm-train": ("visible", "hidden"),
    "rbm-sample": ("sampler", "alpha", "iterations", "weights"),
    "oracle-check": ("alpha", "alpha_high", "tau_high"),
}
# integer keys that no settings object checks -> least value, checked under the kinds that read them
_LEAST = {
    "repeats": 1, "grid_levels": 2, "side": 2, "visible": 1, "spins": 1, "n_max": 1, "mmd_features": 1,
    "reference_samples": 2,  # the MMD bandwidth is their median pairwise distance
    "reference_steps": 1, "gibbs_burn_in": 0,
}
# sampler -> the sampler keys it never reads, which a sampling kind may not set
_UNREAD = dict.fromkeys((DULA, DMALA), ("alpha_high", "tau_high", "rho", "sigma2"))
_UNREAD |= dict.fromkeys((DREXEL, DREAM), ("sigma2",))

_CHAIN_KINDS = SAMPLING_KINDS + ("oracle-check",)
# key -> (type, default, the kinds that read it); a file may set only the keys its kind reads.  A key that a
# kind reads under some values of other keys only (c, init_prob, reference_steps, modes, per_mode, flip_prob)
# is accepted under every value.  kind and seed have no default, and _REQUIRED lists the keys each kind must
# set; oracle-check requires a seed it never reads, so that --seed always has a target
_SCHEMA = {
    "kind": (str, None, KINDS),
    "out": (str, "runs/out", KINDS),
    "seed": (int, None, KINDS),
    "repeats": (int, 1, SAMPLING_KINDS),
    "threads": (int, 1, SAMPLING_KINDS),
    "sampler": (str, "", SAMPLING_KINDS),
    "alpha": (float, 0.0, _CHAIN_KINDS),
    "tau": (float, 1.0, _CHAIN_KINDS),
    "alpha_high": (float, 0.0, _CHAIN_KINDS),
    "tau_high": (float, 0.0, _CHAIN_KINDS),
    "rho": (float, 1.0, _CHAIN_KINDS),
    "sigma2": (float, 0.0, SAMPLING_KINDS),
    "iterations": (int, 0, SAMPLING_KINDS),
    "thin": (int, 1, SAMPLING_KINDS),
    "init": (str, "uniform", SAMPLING_KINDS),
    "init_prob": (float, 0.5, SAMPLING_KINDS),
    "energy": (str, "", ("synthetic",)),
    "grid_levels": (int, 64, ("synthetic",)),
    "c": (float, 2.0, ("synthetic",)),
    "heatmap": (bool, True, ("synthetic",)),
    "mmd_features": (int, 500, ("synthetic", "rbm-sample")),
    "reference_samples": (int, 10000, ("synthetic",)),
    "side": (int, 0, ("ising",)),
    "coupling": (float, 0.15, ("ising", "oracle-check")),
    "periodic": (bool, True, ("ising",)),
    "field": (float, 0.0, ("ising", "oracle-check")),
    "reference_steps": (int, 1_000_000, ("ising",)),
    "visible": (int, 0, ("rbm-train",)),
    "hidden": (int, 0, ("rbm-train",)),
    "cd_k": (int, 10, ("rbm-train",)),
    "learning_rate": (float, 0.001, ("rbm-train",)),
    "train_iterations": (int, 1000, ("rbm-train",)),
    "batch_size": (int, 128, ("rbm-train",)),
    "dataset": (str, "synthetic", ("rbm-train",)),
    "modes": (int, 4, ("rbm-train",)),
    "per_mode": (int, 250, ("rbm-train",)),
    "flip_prob": (float, 0.05, ("rbm-train",)),
    "weights_out": (str, "rbm_weights.bin", ("rbm-train",)),
    "weights": (str, "", ("rbm-sample",)),
    "gibbs_burn_in": (int, 1000, ("rbm-sample",)),
    "spins": (int, 2, ("oracle-check",)),
    "with_mh": (bool, False, ("oracle-check",)),
    "n_max": (int, 50, ("oracle-check",)),
}


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


def _require(values, key, context):
    if key not in values:
        raise ConfigError(f"{context} requires key {key!r}")


def _require_keys(values):
    """The keys that every file, its kind and its sampler must set."""
    _require(values, "kind", "every config")
    kind = values["kind"]
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}")
    _require(values, "seed", "every config")
    for key in _REQUIRED[kind]:
        _require(values, key, f"kind {kind!r}")
    for key in values:
        if kind not in _SCHEMA[key][2]:
            raise ConfigError(f"kind {kind!r} never reads the {key} key")
    sampler = values.get("sampler")  # set only by a sampling kind, which must set it
    if sampler in (BDREXEL, BDREAM) and "sigma2" not in values:
        raise ConfigError(f"sampler {sampler!r} requires the sigma2 key")
    for key in _UNREAD.get(sampler, ()):
        if key in values:
            raise ConfigError(f"sampler {sampler!r} never reads the {key} key")


def check_threads(threads: int) -> int:
    """threads, the number of worker processes over the repeats, if at least 1."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    return threads


def _validate(config):
    """The values that no settings object checks."""
    check_threads(config.threads)
    for key, least in _LEAST.items():
        if config.kind in _SCHEMA[key][2] and getattr(config, key) < least:
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
    """The RunConfig of every repeat; alpha_high = tau_high = 0.0 leaves them unset."""
    return RunConfig(
        sampler=config.sampler, iterations=config.iterations, alpha=config.alpha, tau=config.tau,
        alpha_high=config.alpha_high or None, tau_high=config.tau_high or None, rho=config.rho,
        sigma2=config.sigma2, thin=config.thin, init=config.init, init_prob=config.init_prob,
    )


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
