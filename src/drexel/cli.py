"""Command-line entry point.

    drexel run <config>           any experiment kind
    drexel oracle-check <config>  kind must be oracle-check
    drexel rbm-train <config>     kind must be rbm-train

Flags --out, --seed, --threads override the config.  Exit status: 0 success,
2 configuration/validation error, 3 numeric or capacity error.
"""

import argparse
import sys
from dataclasses import replace

from .config import load_config
from .errors import CapacityError, ConfigError, DomainError, NumericError, PreconditionError
from .harness import run_experiment


def _build_parser():
    parser = argparse.ArgumentParser(prog="drexel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "oracle-check", "rbm-train"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a key = value config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="base seed (overrides config)")
        p.add_argument("--threads", type=int, help="parallel repeat workers (overrides config)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command != "run" and config.kind != args.command:
            raise ConfigError(f"{args.command} subcommand got kind {config.kind!r}")
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        summary = run_experiment(config, out=args.out, threads=args.threads)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, CapacityError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for key, (mean, std) in summary.items():
        print(f"{key}: {mean:.6g} +- {std:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
