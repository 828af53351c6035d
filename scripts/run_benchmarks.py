#!/usr/bin/env python3
"""Run the bundled benchmark configs end to end.

Usage: python scripts/run_benchmarks.py [--threads K] [--only NAME ...]

Each config writes its artifacts under runs/<name>; the RBM sampling config
depends on the weights produced by rbm_train.cfg, so order matters.
"""

import argparse
import pathlib
import sys

from drexel.cli import main as drexel_main

ORDER = [
    "oracle_2spin.cfg",
    "synthetic_16gaussian_dmala.cfg",
    "synthetic_16gaussian_dream.cfg",
    "ising_4x4_dream.cfg",
    "rbm_train.cfg",
    "rbm_sample_dream.cfg",
]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--only", nargs="*", default=None)
    args = parser.parse_args()
    unmatched = [sel for sel in args.only or () if not any(sel in name for name in ORDER)]
    if unmatched:
        parser.error(f"--only matches no bundled config: {', '.join(unmatched)}")

    here = pathlib.Path(__file__).parent / "configs"
    for name in ORDER:
        if args.only and not any(sel in name for sel in args.only):
            continue
        print(f"== {name}")
        status = drexel_main(["run", str(here / name), "--threads", str(args.threads)])
        if status != 0:
            print(f"{name} failed with exit status {status}", file=sys.stderr)
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
