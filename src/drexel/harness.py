"""Experiment runner: builds models from configs, runs repeats, writes artifacts.

The repeats of a config are sampled together, as one batch through the
sampler's kernel (with several threads, one batch per worker process over
contiguous groups of repeat seeds).  All outputs land inside the
configured output directory: per-repeat run and metric CSVs, a summary
CSV with mean and std across repeats, grayscale heatmaps for 2-d tasks,
and a metadata echo.  Re-running a config with the same seed reproduces
every numeric field bit-exactly.
"""

import csv
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from itertools import repeat

import numpy as np

from . import __version__
from .config import ExperimentConfig, check_threads, oracle_settings, rbm_train_config, reads, run_config
from .domains import ENUMERATION_CAPACITY, DomainSpec, embed_all, flat_index
from .energies import make_ising_chain, make_ising_lattice, make_synthetic
from .errors import ConfigError, DomainError
from .metrics import (
    RffEstimator,
    jump_rate,
    kl_divergence,
    log_rmse,
    median_bandwidth,
    mmd_rff,
    nll,
    swap_rate,
    visit_counts,
)
from .oracle import (
    SPECTRAL_CAPACITY,
    balanced_joint_kernel,
    colour_classes,
    detailed_balance_check,
    enumerate_target,
    exact_joint_kernel,
    exact_single_kernel,
    heat_bath_sweep,
    intermediate_pair_pmf,
    spectral_tv_bound_check,
    tempered_pair_pmf,
)
from .rbm import load_dataset, load_rbm, save_rbm, synth_bernoulli_mixture, train_rbm
from .rng import SALT_REFERENCE, SALT_TRUTH, substream
from .sampler import BIAS_CORRECTED, run_batch

RUN_CSV_BLOCK_ROWS = 4096  # rows turned into Python values at once by write_run_csv


def _write_pgm(weights: np.ndarray, domain: DomainSpec, path) -> None:
    """Write a P5 graymap of weights over a 2-d grid, row 0 at the top of the y-axis.

    Intensity is weights scaled so the largest is 255.  All-zero weights
    (an empty histogram) produce an all-black image, with a warning.
    """
    if domain.dim != 2:
        raise DomainError("heatmaps need a 2-d grid")
    n = domain.levels
    grid = np.asarray(weights, dtype=float).reshape(n, n)  # [ix, iy]
    peak = grid.max()
    if peak <= 0:
        warnings.warn(f"empty histogram; writing all-black heatmap to {path}")
        img = np.zeros((n, n), dtype=np.uint8)
    else:
        img = np.round(grid / peak * 255.0).astype(np.uint8)
    img = img.T[::-1, :]  # row 0 = largest y, column = x index
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n255\n".encode("ascii"))
        fh.write(img.tobytes(order="C"))


def _build_model(config: ExperimentConfig):
    if config.kind == "synthetic":
        return make_synthetic(config.energy, levels=config.grid_levels, c=config.c)
    if config.kind == "ising":
        n = config.side * config.side
        return make_ising_lattice(config.side, config.coupling, np.full(n, config.field), config.periodic)
    raise DomainError(f"no model builder for kind {config.kind!r}")


def _write_csv(path, header, rows) -> None:
    """One table; csv writes a Python float as its repr, so every value reads back bit for bit."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _run_rows(trace):
    """write_run_csv's rows, RUN_CSV_BLOCK_ROWS at a time; flags go through a uint8 view to print as 0/1."""
    high = trace.is_replica
    for start in range(0, trace.energy_low.shape[0], RUN_CSV_BLOCK_ROWS):
        block = slice(start, start + RUN_CSV_BLOCK_ROWS)
        yield from zip(
            range(start, block.stop),
            trace.energy_low[block].tolist(),
            trace.energy_high[block].tolist() if high else repeat(""),
            trace.accepted_low[block].view(np.uint8).tolist(),
            trace.accepted_high[block].view(np.uint8).tolist() if high else repeat(""),
            trace.swapped[block].view(np.uint8).tolist() if high else repeat(0),
        )


def write_run_csv(path, trace) -> None:
    """One row per iteration; a single-chain run leaves the high-chain columns empty and swapped 0."""
    header = ["iteration", "energy_low", "energy_high", "accepted_low", "accepted_high", "swapped"]
    _write_csv(path, header, _run_rows(trace))


def _chain_metrics(trace) -> dict:
    """The swap and acceptance rates every sampling run reports after its kind's own metrics."""
    metrics = {"swap_rate": swap_rate(trace), "accept_rate_low": float(np.mean(trace.accepted_low))}
    if trace.is_replica:
        metrics["accept_rate_high"] = float(np.mean(trace.accepted_high))
    return metrics


def _synthetic_metrics(model, truth, truth_features, rff, trace):
    """KL and MMD from the trace's visit counts: the MMD builds each visited state's features once."""
    counts = visit_counts(trace.states, model.domain)
    diff = rff.mean_features(embed_all(model.domain), counts) - truth_features
    return {
        "kl": kl_divergence(truth, counts),
        "mmd": float(diff @ diff),
        "nll": nll(truth, flat_index(trace.states, model.domain)),
        "jump_rate": jump_rate(trace.states, model.domain),
    }


def _magnetization_truth(model, config):
    """Per-site mean spin and its source: exact when enumeration fits, else a long colour-class heat-bath reference."""
    n = model.domain.dim
    if model.domain.num_states <= ENUMERATION_CAPACITY:
        return enumerate_target(model).p @ embed_all(model.domain), "enumeration"
    rng = substream(config.seed, SALT_REFERENCE)
    spins = np.where(rng.random(n) < 0.5, 1.0, -1.0)[None, :]
    classes = colour_classes(model)
    total = np.zeros(n)
    for _ in range(config.reference_steps):
        spins = heat_bath_sweep(model, classes, spins, rng)
        total += spins[0]
    return total / config.reference_steps, f"gibbs_reference({config.reference_steps} sweeps)"


def _ising_metrics(model, mag_truth, trace):
    emb = model.domain.value_table[trace.states]
    return {"log_rmse": log_rmse(emb.mean(axis=0), mag_truth)}


def _rbm_sample_metrics(model, config, trace):
    rng_ref = substream(trace.seed, SALT_REFERENCE)
    ref = np.empty((trace.states.shape[0], model.domain.dim))  # 0/1 visible units, their own embedding
    state = (rng_ref.random((1, model.domain.dim)) < 0.5).astype(float)
    for _ in range(config.gibbs_burn_in):
        state = model.block_gibbs(state, rng_ref)
    for row in ref:
        state = model.block_gibbs(state, rng_ref)
        row[:] = state[0]
    chain_embedded = model.domain.value_table[trace.states]
    bw = median_bandwidth(np.vstack([chain_embedded[:500], ref[:500]]))
    rff = RffEstimator.create(model.domain.dim, bw, config.mmd_features, substream(trace.seed, SALT_TRUTH))
    return {"mmd": mmd_rff(ref, chain_embedded, rff)}


def _run_group(job):
    """Sample one group of repeat seeds as a single batch, then measure each trace."""
    model, run, seeds, measure = job
    return [(trace, measure(trace) | _chain_metrics(trace)) for trace in run_batch(model, run, seeds)]


def _run_repeats(model, run, seeds, measure, threads):
    """All repeat seeds as one batch, or split into `threads` contiguous groups, one batch per worker process."""
    if threads <= 1:
        return _run_group((model, run, seeds, measure))
    groups = [g.tolist() for g in np.array_split(seeds, threads) if g.size]
    with ProcessPoolExecutor(max_workers=len(groups)) as pool:
        parts = pool.map(_run_group, [(model, run, g, measure) for g in groups])
        return [result for part in parts for result in part]


def _write_meta(out, config, extra=None):
    """The keys the run read, but out and threads, which change no artifact; the repeat seeds, if any; extra."""
    with open(os.path.join(out, "meta.txt"), "w") as fh:
        fh.write(f"drexel_version = {__version__}\n")
        for key, value in sorted(vars(config).items()):
            if key not in ("out", "threads") and reads(config.kind, config.sampler, key):
                fh.write(f"{key} = {value}\n")
        if reads(config.kind, config.sampler, "repeats"):
            fh.write(f"repeat_seeds = {','.join(str(config.seed + r) for r in range(config.repeats))}\n")
        for line in extra or ():
            fh.write(line + "\n")


def _check_referenced_files(config: ExperimentConfig):
    if config.kind == "rbm-sample" and not os.path.isfile(config.weights):
        raise ConfigError(f"weights file not found: {config.weights}")
    if config.kind == "rbm-train" and config.dataset != "synthetic" and not os.path.isfile(config.dataset):
        raise ConfigError(f"dataset file not found: {config.dataset}")


def run_experiment(config: ExperimentConfig, out=None, threads=None) -> dict:
    """Execute one experiment config; returns the summary metrics by name."""
    _check_referenced_files(config)
    out = out or config.out
    threads = check_threads(config.threads if threads is None else threads)
    os.makedirs(out, exist_ok=True)

    if config.kind == "rbm-train":
        return _run_rbm_train(config, out)
    if config.kind == "oracle-check":
        return _run_oracle_check(config, out)
    run = run_config(config)  # checks every sampler value before any model work

    if config.kind == "synthetic":
        model = _build_model(config)
        truth = enumerate_target(model)
        rng_truth = substream(config.seed, SALT_TRUTH)
        idx = rng_truth.choice(truth.p.shape[0], size=config.reference_samples, p=truth.p)
        bw = median_bandwidth(embed_all(model.domain)[idx])  # holds no state table through its peak
        rff = RffEstimator.create(model.domain.dim, bw, config.mmd_features, rng_truth)
        # the truth side of every repeat's MMD, computed once from the draw's visit counts
        truth_features = rff.mean_features(embed_all(model.domain), np.bincount(idx, minlength=truth.p.shape[0]))
        measure = partial(_synthetic_metrics, model, truth, truth_features, rff)
        extra = [f"mmd_bandwidth = {bw!r}"]
    elif config.kind == "ising":
        model = _build_model(config)
        mag_truth, truth_src = _magnetization_truth(model, config)
        measure = partial(_ising_metrics, model, mag_truth)
        extra = [f"magnetization_truth = {truth_src}"]
    elif config.kind == "rbm-sample":
        model = load_rbm(config.weights)
        measure = partial(_rbm_sample_metrics, model, config)
        n_keep = len(range(0, config.iterations, config.thin))  # one reference state per kept chain state
        extra = [f"gibbs_reference = {config.gibbs_burn_in} burn-in + {n_keep} kept steps per repeat"]
    else:
        raise DomainError(f"unknown kind {config.kind!r}")
    results = _run_repeats(model, run, [config.seed + r for r in range(config.repeats)], measure, threads)

    for trace, metrics in results:
        write_run_csv(os.path.join(out, f"run_{trace.seed}.csv"), trace)
        _write_csv(os.path.join(out, f"metrics_{trace.seed}.csv"), ["metric", "value"], metrics.items())
    summary = {}
    for key in results[0][1]:
        vals = np.array([metrics[key] for _, metrics in results], dtype=float)
        summary[key] = (float(vals.mean()), float(vals.std()))
    _write_csv(os.path.join(out, "summary.csv"), ["metric", "mean", "std"], ((k, *v) for k, v in summary.items()))
    _write_meta(out, config, extra)

    if config.kind == "synthetic" and config.heatmap:
        pooled = sum(visit_counts(trace.states, model.domain) for trace, _ in results)
        _write_pgm(pooled, model.domain, os.path.join(out, "empirical.pgm"))
        _write_pgm(truth.p, model.domain, os.path.join(out, "target.pgm"))  # the exact pmf, rendered alike
    return summary


def _run_rbm_train(config: ExperimentConfig, out):
    if config.dataset == "synthetic":
        data = synth_bernoulli_mixture(config.visible, config.modes, config.per_mode, config.flip_prob, config.seed)
    else:
        data = load_dataset(config.dataset)
        if data.dim != config.visible:
            raise ConfigError(f"visible = {config.visible}, but dataset {config.dataset} has {data.dim} columns")
    model, losses = train_rbm(data, rbm_train_config(config))
    weights_path = os.path.join(out, config.weights_out)
    save_rbm(model, weights_path)
    _write_csv(os.path.join(out, "train_loss.csv"), ["iteration", "energy_gap"], enumerate(losses.tolist()))
    _write_meta(out, config, [f"weights = {weights_path}"])
    return {"final_energy_gap": (float(losses[-1]) if len(losses) else 0.0, 0.0)}


def _run_oracle_check(config: ExperimentConfig, out):
    """Reversibility and spectral checks on a tiny spin chain; plain-text report."""
    model = make_ising_chain(config.spins, config.coupling, np.full(config.spins, config.field))
    # the history, naive and balanced rows are about the unadjusted chains;
    # with_mh adjusts the single chain and adds the adjusted replica rows
    low, high, swap = oracle_settings(config)
    pi_low = enumerate_target(model, tau=config.tau)
    lines = []
    ok = True

    single = exact_single_kernel(model, replace(low, mh_enabled=config.with_mh))
    res_single = detailed_balance_check(single, pi_low)
    lines.append(f"single_chain_db_residual = {res_single:.6e}")
    if config.with_mh:
        ok &= res_single <= 1e-12
        lines.append(f"single_chain_db_pass = {res_single <= 1e-12}")

    pair_target = intermediate_pair_pmf(model, low, high)
    # the naive swap, exp[(1/tau2 - 1/tau1) (U1 - U2)], is the bias-corrected one at sigma2 = 0
    for name, rule in (("history", swap), ("naive", replace(swap, variant=BIAS_CORRECTED))):
        res = detailed_balance_check(exact_joint_kernel(model, low, high, rule), pair_target)
        lines.append(f"joint_{name}_db_residual = {res:.6e}")
    balanced = balanced_joint_kernel(model, low, high, rho=swap.rho)
    res_bal = detailed_balance_check(balanced, pair_target)
    lines.append(f"joint_balanced_db_residual = {res_bal:.6e}")
    ok &= res_bal <= 1e-10
    lines.append(f"joint_balanced_db_pass = {res_bal <= 1e-10}")

    product = tempered_pair_pmf(model, low, high)
    if config.with_mh:
        # Metropolis-adjusted replica kernel: residuals reported against both
        # candidate targets, no pass threshold asserted for either
        adjusted_low, adjusted_high = (replace(p, mh_enabled=True) for p in (low, high))
        adjusted = exact_joint_kernel(model, adjusted_low, adjusted_high, swap)
        lines.append(
            f"joint_adjusted_db_residual_vs_intermediate = {detailed_balance_check(adjusted, pair_target):.6e}"
        )
        lines.append(
            f"joint_adjusted_db_residual_vs_product = {detailed_balance_check(adjusted, product):.6e}"
        )

    tv = 0.5 * np.abs(pair_target.p - product.p).sum()
    lines.append(f"tv_pair_target_vs_product = {tv:.6e}")

    if model.domain.num_states**2 <= SPECTRAL_CAPACITY:
        report = spectral_tv_bound_check(balanced, pair_target, n_max=config.n_max)
        lines.append(f"spectral_lambda_star = {report.lambda_star:.12f}")
        # fixed point: the eigenvalues round at the 1e-16 level by BLAS thread count
        lines.append(f"spectral_lambda0_error = {report.lambda0_error:.12f}")
        lines.append(f"spectral_max_bound_violation = {report.max_bound_violation:.3e}")
        lines.append(f"spectral_eigenvalues = {','.join(f'{w:.9f}' for w in report.eigenvalues)}")
        ok &= report.bound_holds and report.lambda0_ok
        lines.append(f"spectral_pass = {report.bound_holds and report.lambda0_ok}")

    lines.append(f"overall_pass = {ok}")
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_meta(out, config)
    return {"overall_pass": (1.0 if ok else 0.0, 0.0)}
