#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print all metrics by name.

    python3 perfbench/all.py [--seed 1] [--seconds 20]

Each run is a fresh `run.py` process.  For each workload the report gives
the operations attempted and failed, whether every check passed, the
end-to-end metrics of the untraced run and the per-layer metrics of the
traced one.  Exits 1 if any run fails or any check does not pass.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid16-dream", "ising32-dream", "rbm784-dmala", "oracle4-check")


def run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        results = [run(workload, args.seed, args.seconds, trace) for trace in (0, 1)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        ok &= correct and failed == 0
        print(f"== {workload}: attempted {attempted}, failed {failed}, correct {correct}")
        for label, result in zip(("end-to-end", "per-layer"), results):
            for name, m in result["metrics"].items():
                print(f"  {label:10s} {name:40s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
