#!/usr/bin/env python3
"""Benchmark of the drexel samplers and oracles, one workload per process.

    python3 perfbench/run.py --workload grid16-dream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  The workload's inputs are generated from --seed.  After the set-up
probes, the process repeats whole rounds for at least --seconds: each round
runs the workload's drexel commands through `drexel.cli.main`, then checks
their outputs against independent computations (checks.py).  The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
rounds alternate between untraced and traced by the span tracer
(tracer.py), and the metrics are the per-layer ones.  See README.md.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# BLAS threads are pinned before numpy loads; one thread keeps the timings
# steady on a shared two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import checks  # noqa: E402  (numpy must load after the pinning above)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_program():
    """Import drexel from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "drexel", "__init__.py")):
        raise SystemExit(f"error: no drexel package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import drexel

    if os.path.dirname(os.path.dirname(os.path.abspath(drexel.__file__))) != SRC:
        raise SystemExit(f"error: drexel imported from {drexel.__file__}, not from {SRC}")
    return drexel


class SamplerProbe:
    """Times each run_sampler call the harness makes and keeps its trace.

    The probe looks run_sampler up in drexel.sampler at each call, so it
    goes through the tracer's wrapper whenever that is installed.
    """

    def __init__(self, harness, sampler):
        self.calls = []  # (seconds, RunTrace)

        def timed(model, config):
            t0 = time.perf_counter()
            trace = sampler.run_sampler(model, config)
            self.calls.append((time.perf_counter() - t0, trace))
            return trace

        harness.run_sampler = timed


def run_round(workload, cli_main, probe, tracer=None):
    """One round: every command, then every check.  Returns the round record."""
    probe.calls.clear()
    record = {"wall": 0.0, "failed": 0, "wrong": [], "ops": 0}
    ok = True
    for argv in workload.commands():
        record["ops"] += 1
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli_main(argv)
        except Exception as exc:  # a crash is a failed command, reported, not fatal
            log(f"command {argv} raised {exc!r}")
            status = -1
        finally:
            record["wall"] += time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        if status != 0:
            log(f"command {argv} exited with {status}")
            record["failed"] += 1
            ok = False
    results = workload.check() if ok else [("checks_skipped", False, "a command failed")]
    for name, passed, detail in results:
        record["ops"] += 1
        if not passed:
            record["failed"] += 1
            record["wrong"].append(f"{name}: {detail}")
    record["check_details"] = results
    record["sample_s"] = sum(dt for dt, _ in probe.calls)
    record["samples"] = sum(tr.states.shape[0] for _, tr in probe.calls)
    record["iterations"] = sum(tr.iterations for _, tr in probe.calls)
    traces = [tr for _, tr in probe.calls]
    record["accept_rate_low"] = statistics.fmean(float(t.accepted_low.mean()) for t in traces) if traces else 0.0
    record["swap_rate"] = statistics.fmean(t.swap_successes / t.iterations for t in traces) if traces else 0.0
    if record["sample_s"] > 0:
        ess = sum(checks.geyer_ess(checks.read_energy_low(f)) for f in workload.run_csvs())
        record["samples_per_s"] = record["samples"] / record["sample_s"]
        record["ess_per_s"] = ess / record["sample_s"]
    else:
        record["samples_per_s"] = record["ess_per_s"] = 0.0
    return record


def measure_setup(name, seed, work):
    """Median wall time from spawning a fresh interpreter until the inputs are program objects."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed), work],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            status = proc.wait(timeout=60)
        if line.strip() != "ready" or status != 0:
            raise RuntimeError(f"set-up probe failed (exit {status}, said {line!r})")
        times.append(elapsed)
    return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, setup_s):
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(r["wall"] for r in rounds), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, untraced, traced, tracer):
    """Per-layer metrics: times are seconds per traced round, counts per round or per sampler iteration.

    samples_per_s and ess_per_s come from the untraced rounds, and the
    tracing overhead compares the median traced and untraced round.
    """
    t = tracer
    n = len(traced)
    iters = sum(r["iterations"] for r in traced)
    per_iter = (lambda x: x / iters) if iters else (lambda x: 0.0)
    matrix_bytes = sum(b * t.sampler_calls("energies", {name}) for name, b in workload.matrix_bytes.items())
    wall_traced = statistics.median(r["wall"] for r in traced)
    wall_untraced = statistics.median(r["wall"] for r in untraced)
    values = {
        "config.load_s": (t.inclusive("config.load_config") / n, "s"),
        "energies.gradient_calls_per_iter": (per_iter(t.sampler_calls("energies", {"gradient"})), "calls"),
        "energies.gradient_s": (t.layer_inclusive("energies", {"gradient"}) / n, "s"),
        "energies.value_calls_per_iter": (per_iter(t.sampler_calls("energies", {"value"})), "calls"),
        "energies.value_s": (t.layer_inclusive("energies", {"value"}) / n, "s"),
        "energies.value_batch_s": (t.layer_inclusive("energies", {"value_batch"}) / n, "s"),
        "energies.matrix_bytes_per_iter": (per_iter(matrix_bytes), "B"),
        "domains.validate_state_calls_per_iter": (
            per_iter(t.sampler_calls("domains", {"validate_state"})),
            "calls",
        ),
        "domains.validate_state_s": (t.layer_inclusive("domains", {"validate_state"}) / n, "s"),
        "sampler.us_per_iter": (per_iter(t.inclusive("sampler.run_sampler")) * 1e6, "us"),
        "sampler.dls_step_self_s": (t.self_time("sampler.dls_step") / n, "s"),
        "sampler.mh_accept_s": (t.self_time("sampler.mh_accept") / n, "s"),
        "sampler.swap_probability_s": (t.inclusive("sampler.swap_probability") / n, "s"),
        "sampler.bookkeeping_s": (
            t.self_time("sampler.run_sampler", "sampler.replica_step", "sampler.chain_step", "sampler.make_replica_pair")
            / n,
            "s",
        ),
        "sampler.accept_rate_low": (statistics.fmean(r["accept_rate_low"] for r in traced), "ratio"),
        "sampler.swap_rate": (statistics.fmean(r["swap_rate"] for r in traced), "ratio"),
        "samples_per_s": (statistics.median(r["samples_per_s"] for r in untraced), "samples/s"),
        "ess_per_s": (statistics.median(r["ess_per_s"] for r in untraced), "samples/s"),
        "oracle.enumerate_target_s": (t.inclusive("oracle.enumerate_target") / n, "s"),
        "oracle.block_gibbs_steps": (t.calls("oracle.block_gibbs_rbm_step") / n, "count"),
        "oracle.block_gibbs_s": (t.inclusive("oracle.block_gibbs_rbm_step") / n, "s"),
        "oracle.kernels_s": (
            t.self_time(
                "oracle.exact_single_kernel",
                "oracle.exact_joint_kernel",
                "oracle.balanced_joint_kernel",
                "oracle.intermediate_pair_pmf",
                "oracle.tempered_pair_pmf",
                "oracle.proposal_normalizers",
                "oracle.detailed_balance_check",
            )
            / n,
            "s",
        ),
        "oracle.jacobi_eigh_s": (t.inclusive("oracle.jacobi_eigh") / n, "s"),
        "oracle.spectral_self_s": (t.self_time("oracle.spectral_tv_bound_check") / n, "s"),
        "metrics.mmd_rff_s": (t.inclusive("metrics.mmd_rff") / n, "s"),
        "metrics.median_bandwidth_s": (t.inclusive("metrics.median_bandwidth") / n, "s"),
        "metrics.other_s": (
            t.layer_self("metrics", exclude={"metrics.mmd_rff", "metrics.RffEstimator.features", "metrics.median_bandwidth"})
            / n,
            "s",
        ),
        "harness.write_run_csv_s": (t.inclusive("harness.write_run_csv") / n, "s"),
        "harness.write_run_csv_rows": (sum(r["iterations"] for r in traced) / n, "count"),
        "harness.self_s": (t.layer_self("harness", exclude={"harness.write_run_csv"}) / n, "s"),
        "rbm.train_rbm_s": (t.inclusive("rbm.train_rbm") / n, "s"),
        "rbm.load_rbm_s": (t.inclusive("rbm.load_rbm") / n, "s"),
        "trace.wall_s": (wall_traced, "s"),
        "trace.overhead_pct": ((wall_traced / wall_untraced - 1.0) * 100.0, "%"),
    }
    return {k: metric(v, u) for k, (v, u) in values.items()}


def machine_info():
    import numpy as np

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"blas_threads={BLAS_THREADS}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    drexel = import_program()
    import drexel.cli
    import drexel.harness
    import drexel.sampler

    work = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    log(f"{args.workload} seed={args.seed} {machine_info()} drexel={drexel.__version__}")
    try:
        workload = workloads.make_workload(args.workload, args.seed, work)
        workload.write_inputs()
        probe = SamplerProbe(drexel.harness, drexel.sampler)

        tracer = Tracer() if args.trace else None
        untraced, traced = [], []
        t_start = time.perf_counter()
        # a traced run alternates untraced and traced rounds, so that both
        # see the same drift of the machine's speed
        while not untraced or (tracer and not traced) or time.perf_counter() - t_start < args.seconds:
            if tracer and len(traced) < len(untraced):
                tracer.install()
                traced.append(run_round(workload, drexel.cli.main, probe, tracer))
                tracer.uninstall()
            else:
                untraced.append(run_round(workload, drexel.cli.main, probe))

        everything = untraced + traced
        for line in sorted({w for r in everything for w in r["wrong"]}):
            log(f"FAILED {line}")
        for name, passed, detail in everything[-1]["check_details"]:
            log(f"check {name}: {'ok' if passed else 'FAILED'} ({detail})")
        if tracer:
            metrics = per_layer(workload, untraced, traced, tracer)
        else:
            metrics = end_to_end(untraced, measure_setup(args.workload, args.seed, work))
        result = {
            "correct": not any(r["wrong"] for r in everything),
            "attempted": sum(r["ops"] for r in everything),
            "failed": sum(r["failed"] for r in everything),
            "metrics": metrics,
        }
        for label, rounds in (("untraced", untraced), ("traced", traced)):
            if rounds:
                log(f"{label} rounds={len(rounds)} wall_s={[round(r['wall'], 3) for r in rounds]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
