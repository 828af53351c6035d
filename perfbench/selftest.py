#!/usr/bin/env python3
"""Show that each correctness check has power: a perturbed input must fail it.

    python3 perfbench/selftest.py

Runs short versions of the workloads with one input perturbed (c = 1
instead of 2, coupling doubled, an RBM barely trained, a chain that cannot
move, a different oracle instance, a non-reversible kernel) and requires
the matching check to fail, then confirms the independent reference values
and the ESS estimator.  Takes under half a minute; exits 1 if any case
does not behave.
"""

import contextlib
import io
import os
import shutil
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from drexel.cli import main as drexel_main  # noqa: E402

failures = []


def expect(label, condition, detail=""):
    print(f"{'ok  ' if condition else 'FAIL'} {label} {detail}")
    if not condition:
        failures.append(label)


def run(workload, edit=None):
    workload.write_inputs()
    if edit is not None:
        edit(workload)
    for argv in workload.commands():
        with contextlib.redirect_stdout(io.StringIO()):
            status = drexel_main(argv)
        if status != 0:
            raise RuntimeError(f"{argv} exited with {status}")


def replace_in(path, old, new):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))


def failed(results, name):
    return [detail for n, ok, detail in results if n == name and not ok]


def main():
    work = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    try:
        # reference values the checks compare against
        p, u = checks.sixteen_gaussian_pmf(64, 2.0)
        expect("16-Gaussian E[U] is 3.362", abs(float(p @ u) - 3.362) < 5e-4, f"({float(p @ u):.4f})")
        e = checks.ising_expected_energy(32, 0.15)
        expect("Onsager E[U] on the 32^2 torus is about 216", abs(e - 216.4) < 0.5, f"({e:.2f})")
        rng = np.random.default_rng(0)
        phi, n = 0.9, 200_000
        x = np.empty(n)
        x[0] = 0.0
        noise = rng.normal(size=n)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + noise[i]
        ess, exact = checks.geyer_ess(x), n * (1 - phi) / (1 + phi)
        expect("Geyer ESS of an AR(1) chain", abs(ess / exact - 1) < 0.1, f"({ess:.0f} vs {exact:.0f})")

        # 16-Gaussian grid: the program runs with c = 1, the check expects c = 2
        w = workloads.Grid16Dream(5, os.path.join(work, "grid"))
        os.makedirs(w.work)
        w.c, w.repeats, w.iterations = 1.0, 2, 2000
        run(w)
        res = checks.check_grid(w.path("out"), w.run_csvs(), w.levels, 2.0, workloads.GRID_ENERGY_TOL)
        expect("grid: c = 1 fails target.pgm", bool(failed(res, "grid.target_pgm")))
        expect("grid: c = 1 fails the mean energy", bool(failed(res, "grid.mean_energy")), str(failed(res, "grid.mean_energy")))

        # Ising torus: the program runs with the coupling doubled
        w = workloads.Ising32Dream(5, os.path.join(work, "ising"))
        os.makedirs(w.work)
        w.coupling, w.repeats, w.iterations, w.reference_steps = 0.3, 1, 400, 1
        run(w)
        res = checks.check_ising(w.run_csvs(), 32, 0.15, workloads.ISING_ENERGY_TOL)
        expect("ising: coupling doubled fails", bool(failed(res, "ising.mean_energy")), str(failed(res, "ising.mean_energy")))

        # RBM: one training step leaves the data indistinguishable from noise
        w = workloads.Rbm784Dmala(5, os.path.join(work, "rbm"))
        os.makedirs(w.work)
        w.train_iterations, w.repeats, w.iterations = 1, 1, 200
        run(w)
        res = w.check()
        expect("rbm: untrained model fails", bool(failed(res, "rbm.data_above_noise")), str(failed(res, "rbm.data_above_noise")))

        # RBM: a trained model, but a chain whose step size forbids any flip stays at noise level
        w = workloads.Rbm784Dmala(5, os.path.join(work, "rbm-stuck"))
        os.makedirs(w.work)
        w.repeats, w.iterations = 1, 200
        run(w, edit=lambda w: replace_in(w.sample_config, "alpha = 0.2", "alpha = 0.01"))
        res = w.check()
        expect(
            "rbm: chain stuck at its uniform start fails",
            bool(failed(res, "rbm.samples_at_data_level")),
            str(failed(res, "rbm.samples_at_data_level")),
        )

        # oracle: the report of the 4-spin instance against another instance, and against a non-reversible kernel
        w = workloads.Oracle4Check(5, os.path.join(work, "oracle"))
        os.makedirs(w.work)
        run(w)
        res = w.check()
        expect("oracle: unperturbed passes", all(ok for _, ok, _ in res), str(res))
        other = workloads.Oracle4Check(5, w.work)
        other.coupling = 0.3
        kernel, pmf = other.expected_kernel()
        res = checks.check_oracle(w.path("out", "report.txt"), kernel, pmf, eig_tol=2e-9, residual_tol=1e-10)
        expect("oracle: coupling doubled fails the eigenvalues", bool(failed(res, "oracle.eigenvalues")))

        from drexel import ChainParams, SwapConfig, make_ising_chain
        from drexel.oracle import exact_joint_kernel

        model = make_ising_chain(4, 0.15, np.zeros(4))
        history = exact_joint_kernel(model, ChainParams(0.2, 1.0), ChainParams(0.4, 2.0), SwapConfig(rho=1.0)).matrix
        _, pmf = w.expected_kernel()
        res = checks.check_oracle(w.path("out", "report.txt"), history, pmf, eig_tol=2e-9, residual_tol=1e-10)
        expect("oracle: history-swap kernel fails the residual", bool(failed(res, "oracle.balanced_residual")))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} case(s) misbehaved" if failures else "all checks have power")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
