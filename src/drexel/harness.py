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

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .domains import DomainSpec, embed_all
from .energies import make_ising_chain, make_ising_lattice, make_synthetic
from .errors import ConfigError, DomainError
from .metrics import (
    EmpiricalHist,
    RffEstimator,
    acceptance_rate,
    jump_rate,
    kl_divergence,
    log_rmse,
    median_bandwidth,
    mmd_rff,
    nll,
    swap_rate,
)
from .oracle import (
    balanced_joint_kernel,
    block_gibbs_rbm_step,
    detailed_balance_check,
    enumerate_target,
    exact_joint_kernel,
    exact_single_kernel,
    intermediate_pair_pmf,
    spectral_tv_bound_check,
    tempered_pair_pmf,
)
from .rbm import (
    RbmTrainConfig,
    load_dataset,
    load_rbm,
    save_rbm,
    synth_bernoulli_mixture,
    train_rbm,
)
from .rng import SALT_REFERENCE, SALT_TRUTH, substream
from .sampler import ChainParams, RunConfig, SwapConfig, run_batch


def repeat_seed(base_seed: int, repeat_index: int) -> int:
    """Per-repeat seeds are base + index; recorded in the metadata echo."""
    return base_seed + repeat_index


def _write_pgm(weights: np.ndarray, domain: DomainSpec, path) -> None:
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


def emit_heatmap(hist: EmpiricalHist, domain: DomainSpec, path) -> None:
    """Write a P5 graymap of a 2-d grid histogram, row 0 at the top of the y-axis.

    Intensity is counts scaled so the fullest bin is 255.  An empty histogram
    produces an all-black image (with a warning).
    """
    _write_pgm(hist.counts, domain, path)


def _build_model(config: ExperimentConfig):
    if config.kind == "synthetic":
        return make_synthetic(config.energy, levels=config.grid_levels, c=config.c)
    if config.kind == "ising":
        n = config.side * config.side
        return make_ising_lattice(config.side, config.coupling, np.full(n, config.field), config.periodic)
    raise DomainError(f"no model builder for kind {config.kind!r}")


def _run_config(config: ExperimentConfig, seed: int) -> RunConfig:
    return RunConfig(
        sampler=config.sampler,
        iterations=config.iterations,
        seed=seed,
        alpha=config.alpha,
        tau=config.tau,
        alpha_high=config.alpha_high or None,
        tau_high=config.tau_high or None,
        rho=config.rho,
        sigma2=config.sigma2,
        thin=config.thin,
        init=config.init,
        init_prob=config.init_prob,
    )


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_run_csv(path, trace) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "energy_low", "energy_high", "accepted_low", "accepted_high", "swapped"])
        high = trace.is_replica
        for i in range(trace.iterations):
            writer.writerow(
                [
                    i,
                    _fmt(trace.energy_low[i]),
                    _fmt(trace.energy_high[i]) if high else "",
                    _fmt(trace.accepted_low[i]),
                    _fmt(trace.accepted_high[i]) if high else "",
                    _fmt(trace.swapped[i]) if high else "0",
                ]
            )


def write_metrics_csv(path, metrics: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "value"])
        for key, value in metrics.items():
            writer.writerow([key, _fmt(value)])


def write_summary_csv(path, per_repeat: list) -> None:
    keys = list(per_repeat[0].keys())
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "mean", "std"])
        for key in keys:
            vals = np.array([m[key] for m in per_repeat], dtype=float)
            writer.writerow([key, _fmt(vals.mean()), _fmt(vals.std())])


def _chain_metrics(trace, metrics: dict) -> dict:
    """The kind-specific metrics followed by the swap and acceptance rates every sampling run reports."""
    metrics["swap_rate"] = swap_rate(trace)
    metrics["accept_rate_low"] = acceptance_rate(trace.accepted_low)
    if trace.is_replica:
        metrics["accept_rate_high"] = acceptance_rate(trace.accepted_high)
    return metrics


def _synthetic_metrics(model, truth, truth_features, rff, trace):
    hist = EmpiricalHist.from_states(trace.states, model.domain)
    chain_embedded = model.domain.value_table[trace.states.astype(np.int64)]
    weights = model.domain.levels ** np.arange(model.domain.dim - 1, -1, -1, dtype=np.int64)
    flat = trace.states.astype(np.int64) @ weights
    metrics = {
        "kl": kl_divergence(truth, hist),
        "mmd": mmd_rff(None, chain_embedded, rff, mean_x=truth_features),
        "nll": nll(truth, flat),
        "jump_rate": jump_rate(trace, model.domain),
    }
    return _chain_metrics(trace, metrics), hist


def _magnetization_truth(model, config):
    """Per-site mean spin, exact when enumeration fits, else a long Gibbs reference."""
    n = model.domain.dim
    if n <= 20:
        pi = enumerate_target(model)
        return pi.p @ embed_all(model.domain)
    rng = substream(config.seed, SALT_REFERENCE)
    emb = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    total = np.zeros(n)
    J = model.J
    for _ in range(config.reference_steps):
        for d in range(n):
            grad_d = 2.0 * model.w * (J[d] @ emb) + model.b[d]
            p_up = 1.0 / (1.0 + np.exp(-2.0 * grad_d))  # heat-bath conditional
            emb[d] = 1.0 if rng.random() < p_up else -1.0
        total += emb
    return total / config.reference_steps


def _ising_metrics(model, mag_truth, trace):
    emb = model.domain.value_table[trace.states.astype(np.int64)]
    return _chain_metrics(trace, {"log_rmse": log_rmse(emb.mean(axis=0), mag_truth)}), None


def _rbm_sample_metrics(model, config, trace):
    rng_ref = substream(trace.seed, SALT_REFERENCE)
    n_keep = trace.states.shape[0]
    ref = np.empty((n_keep, model.domain.dim), dtype=np.int64)
    state = (rng_ref.random(model.domain.dim) < 0.5).astype(np.int64)
    for _ in range(config.gibbs_burn_in):
        state = block_gibbs_rbm_step(model, state, rng_ref)
    for i in range(n_keep):
        state = block_gibbs_rbm_step(model, state, rng_ref)
        ref[i] = state
    chain_embedded = model.domain.value_table[trace.states.astype(np.int64)]
    ref_embedded = model.domain.value_table[ref]
    bw = median_bandwidth(np.vstack([chain_embedded[:500], ref_embedded[:500]]))
    rff = RffEstimator.create(model.domain.dim, bw, config.mmd_features, substream(trace.seed, SALT_TRUTH))
    return _chain_metrics(trace, {"mmd": mmd_rff(ref_embedded, chain_embedded, rff)}), None


def _run_group(job):
    """Sample one group of repeat seeds as a single batch, then measure each trace."""
    model, config, seeds, measure = job
    traces = run_batch(model, [_run_config(config, s) for s in seeds])
    return [(trace.seed, trace, *measure(trace)) for trace in traces]


def _run_repeats(model, config, seeds, measure, threads):
    """All repeats as one batch, or split into `threads` contiguous groups, one batch per worker process."""
    if threads <= 1:
        return _run_group((model, config, seeds, measure))
    groups = [g.tolist() for g in np.array_split(np.array(seeds), threads) if g.size]
    with ProcessPoolExecutor(max_workers=len(groups)) as pool:
        parts = pool.map(_run_group, [(model, config, g, measure) for g in groups])
        return [result for part in parts for result in part]


def _write_meta(out, config, seeds, extra=None):
    with open(os.path.join(out, "meta.txt"), "w") as fh:
        fh.write(f"drexel_version = {__version__}\n")
        for key, value in sorted(vars(config).items()):
            fh.write(f"{key} = {value}\n")
        fh.write(f"repeat_seeds = {','.join(str(s) for s in seeds)}\n")
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
    threads = threads or config.threads
    os.makedirs(out, exist_ok=True)
    seeds = [repeat_seed(config.seed, r) for r in range(config.repeats)]

    if config.kind == "rbm-train":
        return _run_rbm_train(config, out, seeds)
    if config.kind == "oracle-check":
        return _run_oracle_check(config, out)

    if config.kind == "synthetic":
        model = _build_model(config)
        truth = enumerate_target(model)
        rng_truth = substream(config.seed, SALT_TRUTH)
        idx = rng_truth.choice(truth.p.shape[0], size=config.reference_samples, p=truth.p)
        truth_samples = embed_all(model.domain)[idx]
        bw = median_bandwidth(truth_samples)
        rff = RffEstimator.create(model.domain.dim, bw, config.mmd_features, rng_truth)
        # the truth side of every repeat's MMD, computed once
        measure = partial(_synthetic_metrics, model, truth, rff.mean_features(truth_samples), rff)
        extra = [f"mmd_bandwidth = {bw!r}"]
    elif config.kind == "ising":
        model = _build_model(config)
        measure = partial(_ising_metrics, model, _magnetization_truth(model, config))
        truth_src = "enumeration" if model.domain.dim <= 20 else f"gibbs_reference({config.reference_steps} sweeps)"
        extra = [f"magnetization_truth = {truth_src}"]
    elif config.kind == "rbm-sample":
        model = load_rbm(config.weights)
        measure = partial(_rbm_sample_metrics, model, config)
        n_keep = len(range(0, config.iterations, config.thin))  # one reference state per kept chain state
        extra = [f"gibbs_reference = {config.gibbs_burn_in} burn-in + {n_keep} kept steps per repeat"]
    else:
        raise DomainError(f"unknown kind {config.kind!r}")
    results = _run_repeats(model, config, seeds, measure, threads)

    per_repeat = []
    pooled_hist = None
    for seed, trace, metrics, hist in results:
        write_run_csv(os.path.join(out, f"run_{seed}.csv"), trace)
        write_metrics_csv(os.path.join(out, f"metrics_{seed}.csv"), metrics)
        per_repeat.append(metrics)
        if hist is not None:
            pooled_hist = hist.counts if pooled_hist is None else pooled_hist + hist.counts
    write_summary_csv(os.path.join(out, "summary.csv"), per_repeat)
    _write_meta(out, config, seeds, extra)

    if config.kind == "synthetic" and config.heatmap:
        emit_heatmap(
            EmpiricalHist(counts=pooled_hist, total=int(pooled_hist.sum())),
            model.domain,
            os.path.join(out, "empirical.pgm"),
        )
        _write_pgm(truth.p, model.domain, os.path.join(out, "target.pgm"))  # the exact pmf, rendered alike

    summary = {}
    for key in per_repeat[0]:
        vals = np.array([m[key] for m in per_repeat], dtype=float)
        summary[key] = (float(vals.mean()), float(vals.std()))
    return summary


def _run_rbm_train(config: ExperimentConfig, out, seeds):
    if config.dataset == "synthetic":
        data = synth_bernoulli_mixture(config.visible, config.modes, config.per_mode, config.flip_prob, config.seed)
    else:
        data = load_dataset(config.dataset)
    train_cfg = RbmTrainConfig(
        hidden=config.hidden,
        cd_k=config.cd_k,
        learning_rate=config.learning_rate,
        iterations=config.train_iterations,
        batch_size=config.batch_size,
        seed=config.seed,
    )
    model, losses = train_rbm(data, train_cfg)
    weights_path = os.path.join(out, config.weights_out)
    save_rbm(model, weights_path)
    with open(os.path.join(out, "train_loss.csv"), "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "energy_gap"])
        for i, loss in enumerate(losses):
            writer.writerow([i, _fmt(loss)])
    _write_meta(out, config, seeds, [f"weights = {weights_path}"])
    return {"final_energy_gap": (float(losses[-1]) if len(losses) else 0.0, 0.0)}


def _run_oracle_check(config: ExperimentConfig, out):
    """Reversibility and spectral checks on a tiny spin chain; plain-text report."""
    model = make_ising_chain(config.spins, config.coupling, np.full(config.spins, config.field))
    # the history, naive and balanced rows are about the unadjusted chains;
    # with_mh adjusts the single chain and adds the adjusted replica rows
    low = ChainParams(alpha=config.alpha, tau=config.tau)
    high = ChainParams(alpha=config.alpha_high, tau=config.tau_high)
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
    for variant in ("history", "naive"):
        kernel = exact_joint_kernel(model, low, high, SwapConfig(variant=variant, rho=config.rho))
        res = detailed_balance_check(kernel, pair_target)
        lines.append(f"joint_{variant}_db_residual = {res:.6e}")
    balanced = balanced_joint_kernel(model, low, high, rho=config.rho)
    res_bal = detailed_balance_check(balanced, pair_target)
    lines.append(f"joint_balanced_db_residual = {res_bal:.6e}")
    ok &= res_bal <= 1e-10
    lines.append(f"joint_balanced_db_pass = {res_bal <= 1e-10}")

    product = tempered_pair_pmf(model, low, high)
    if config.with_mh:
        # Metropolis-adjusted replica kernel: residuals reported against both
        # candidate targets, no pass threshold asserted for either
        adjusted_low, adjusted_high = (replace(p, mh_enabled=True) for p in (low, high))
        adjusted = exact_joint_kernel(model, adjusted_low, adjusted_high, SwapConfig(variant="history", rho=config.rho))
        lines.append(
            f"joint_adjusted_db_residual_vs_intermediate = {detailed_balance_check(adjusted, pair_target):.6e}"
        )
        lines.append(
            f"joint_adjusted_db_residual_vs_product = {detailed_balance_check(adjusted, product):.6e}"
        )

    tv = 0.5 * np.abs(pair_target.p - product.p).sum()
    lines.append(f"tv_pair_target_vs_product = {tv:.6e}")

    if model.domain.num_states**2 <= 256:
        report = spectral_tv_bound_check(balanced, pair_target, n_max=config.n_max)
        lines.append(f"spectral_lambda_star = {report.lambda_star:.12f}")
        lines.append(f"spectral_lambda0_error = {report.lambda0_error:.3e}")
        lines.append(f"spectral_max_bound_violation = {report.max_bound_violation:.3e}")
        lines.append(f"spectral_eigenvalues = {','.join(f'{w:.9f}' for w in report.eigenvalues)}")
        ok &= report.bound_holds and report.lambda0_ok
        lines.append(f"spectral_pass = {report.bound_holds and report.lambda0_ok}")

    lines.append(f"overall_pass = {ok}")
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"overall_pass": (1.0 if ok else 0.0, 0.0)}
