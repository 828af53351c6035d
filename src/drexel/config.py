"""Line-oriented experiment configuration: `key = value` with optional [section] headers.

Unknown keys are errors (fail closed), and every parse error names the
offending line.  Sections are cosmetic grouping; keys are global.
"""

from dataclasses import field, make_dataclass

from .energies import SYNTHETIC_NAMES
from .errors import ConfigError
from .sampler import BDREAM, BDREXEL, REPLICA_SAMPLERS, SINGLE_CHAIN_SAMPLERS

KINDS = ("synthetic", "ising", "rbm-train", "rbm-sample", "oracle-check")

# key -> (type, default); None default means required (possibly conditionally)
_SCHEMA = {
    "kind": (str, None),
    "out": (str, "runs/out"),
    "seed": (int, None),
    "repeats": (int, 1),
    "threads": (int, 1),
    # sampler selection and chain parameters
    "sampler": (str, ""),
    "alpha": (float, 0.0),
    "tau": (float, 1.0),
    "alpha_high": (float, 0.0),
    "tau_high": (float, 0.0),
    "rho": (float, 1.0),
    "sigma2": (float, 0.0),
    "iterations": (int, 0),
    "thin": (int, 1),
    "init": (str, "uniform"),
    "init_prob": (float, 0.5),
    # synthetic tasks
    "energy": (str, ""),
    "grid_levels": (int, 64),
    "c": (float, 2.0),
    "heatmap": (bool, True),
    "mmd_features": (int, 500),
    "reference_samples": (int, 10000),
    # ising tasks
    "side": (int, 0),
    "coupling": (float, 0.15),
    "periodic": (bool, True),
    "field": (float, 0.0),
    "reference_steps": (int, 1_000_000),
    # rbm tasks
    "visible": (int, 0),
    "hidden": (int, 0),
    "cd_k": (int, 10),
    "learning_rate": (float, 0.001),
    "train_iterations": (int, 1000),
    "batch_size": (int, 128),
    "dataset": (str, "synthetic"),
    "modes": (int, 4),
    "per_mode": (int, 250),
    "flip_prob": (float, 0.05),
    "weights": (str, ""),
    "weights_out": (str, "rbm_weights.bin"),
    "gibbs_burn_in": (int, 1000),
    # oracle-check
    "spins": (int, 2),
    "with_mh": (bool, False),
    "n_max": (int, 50),
}


ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [(key, typ, field(default=default)) for key, (typ, default) in _SCHEMA.items()],
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
        typ, _ = _SCHEMA[key]
        values[key] = _parse_scalar(key, raw, typ, lineno)
    _validate(values)
    return ExperimentConfig(**values)


def _require(values, key, context):
    if key not in values:
        raise ConfigError(f"{context} requires key {key!r}")


def _validate(values):
    _require(values, "kind", "every config")
    kind = values["kind"]
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}")
    _require(values, "seed", "every config")
    if values.get("repeats", 1) < 1:
        raise ConfigError("repeats must be >= 1")
    if values.get("threads", 1) < 1:
        raise ConfigError("threads must be >= 1")

    needs_sampler = kind in ("synthetic", "ising", "rbm-sample")
    if needs_sampler:
        _require(values, "sampler", f"kind {kind!r}")
        sampler = values["sampler"]
        if sampler not in SINGLE_CHAIN_SAMPLERS + REPLICA_SAMPLERS:
            raise ConfigError(f"unknown sampler {sampler!r}")
        _require(values, "alpha", "any sampler")
        if values["alpha"] <= 0:
            raise ConfigError("alpha must be positive")
        _require(values, "iterations", f"kind {kind!r}")
        if values["iterations"] < 1:
            raise ConfigError("iterations must be >= 1")
        if sampler in REPLICA_SAMPLERS:
            _require(values, "alpha_high", f"sampler {sampler!r}")
            _require(values, "tau_high", f"sampler {sampler!r}")
            if values["alpha_high"] <= 0 or values["tau_high"] <= 0:
                raise ConfigError("alpha_high and tau_high must be positive")
        if sampler in (BDREXEL, BDREAM) and "sigma2" not in values:
            raise ConfigError(f"sampler {sampler!r} requires the sigma2 key")
        if "sigma2" in values and values["sigma2"] < 0:
            raise ConfigError("sigma2 must be nonnegative")
        if not 0.0 <= values.get("rho", 1.0) <= 1.0:
            raise ConfigError("rho must be in [0, 1]")
        if not 0.0 <= values.get("init_prob", 0.5) <= 1.0:
            raise ConfigError("init_prob must be in [0, 1]")

    if kind == "synthetic":
        _require(values, "energy", "kind 'synthetic'")
        if values["energy"] not in SYNTHETIC_NAMES:
            raise ConfigError(f"unknown energy {values['energy']!r}; expected one of {SYNTHETIC_NAMES}")
        if values.get("grid_levels", 64) < 2:
            raise ConfigError("grid_levels must be >= 2")
    elif kind == "ising":
        _require(values, "side", "kind 'ising'")
        if values["side"] < 2:
            raise ConfigError("side must be >= 2")
        if values.get("coupling", 0.15) <= 0:
            raise ConfigError("coupling must be positive")
    elif kind == "rbm-train":
        _require(values, "visible", "kind 'rbm-train'")
        _require(values, "hidden", "kind 'rbm-train'")
        if values["visible"] < 1 or values["hidden"] < 1:
            raise ConfigError("visible and hidden must be positive")
        if values.get("dataset", "synthetic") == "synthetic" and not 0 <= values.get("flip_prob", 0.05) < 0.5:
            raise ConfigError("flip_prob must be in [0, 0.5)")
    elif kind == "rbm-sample":
        _require(values, "weights", "kind 'rbm-sample'")
    elif kind == "oracle-check":
        if values.get("spins", 2) < 1:
            raise ConfigError("spins must be >= 1")
        for key in ("alpha", "alpha_high", "tau_high"):
            _require(values, key, "kind 'oracle-check'")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
