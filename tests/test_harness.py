"""End-to-end experiment runs, artifact schemas, determinism, and the CLI."""

import dataclasses
import subprocess
import sys
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from drexel import harness
from drexel.config import _SCHEMA, SAMPLING_KINDS, parse_config, run_config
from drexel.domains import DomainSpec, embed_all
from drexel.energies import EnergyModel, make_ising_lattice
from drexel.errors import ConfigError, DomainError
from drexel.harness import _build_model, _ising_metrics, _write_pgm, run_experiment, write_run_csv
from drexel.metrics import RffEstimator, median_bandwidth, mmd_rff
from drexel.oracle import enumerate_target
from drexel.rbm import BinaryDataset, save_dataset
from drexel.rng import SALT_TRUTH, substream
from drexel.sampler import RunTrace, run_batch

from conftest import traced_peak


def read_pgm(path):
    blob = open(path, "rb").read()
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    assert magic == b"P5" and maxval == b"255"
    w, h = map(int, dims.split())
    img = np.frombuffer(rest, dtype=np.uint8).reshape(h, w)
    return img


SYNTH_CFG = """
kind = synthetic
energy = wave
grid_levels = 16
sampler = dmala
alpha = 0.05
iterations = 300
repeats = 2
seed = 7
reference_samples = 500
mmd_features = 100
"""


class TestSyntheticRuns:
    def test_artifacts_and_schema(self, tmp_path):
        cfg = parse_config(SYNTH_CFG)
        summary = run_experiment(cfg, out=str(tmp_path))
        for name in ("run_7.csv", "run_8.csv", "metrics_7.csv", "metrics_8.csv",
                     "summary.csv", "empirical.pgm", "target.pgm", "meta.txt"):
            assert (tmp_path / name).exists(), name
        header = (tmp_path / "run_7.csv").read_text().splitlines()[0]
        assert header == "iteration,energy_low,energy_high,accepted_low,accepted_high,swapped"
        rows = (tmp_path / "summary.csv").read_text().splitlines()
        metrics = {line.split(",")[0] for line in rows[1:]}
        assert {"kl", "mmd", "nll", "jump_rate"} <= metrics
        assert set(summary) == metrics

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = parse_config(SYNTH_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, out=str(out_a))
        run_experiment(cfg, out=str(out_b))
        for name in ("run_7.csv", "run_8.csv", "metrics_7.csv", "summary.csv", "empirical.pgm"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_threads_do_not_change_results(self, tmp_path):
        cfg = parse_config(SYNTH_CFG)
        out_a, out_b = tmp_path / "serial", tmp_path / "pooled"
        run_experiment(cfg, out=str(out_a), threads=1)
        run_experiment(cfg, out=str(out_b), threads=2)
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_summary_matches_recomputation(self, tmp_path):
        cfg = parse_config(SYNTH_CFG)
        run_experiment(cfg, out=str(tmp_path))
        per_repeat = []
        for seed in (7, 8):
            rows = (tmp_path / f"metrics_{seed}.csv").read_text().splitlines()[1:]
            per_repeat.append({r.split(",")[0]: float(r.split(",")[1]) for r in rows})
        summary_rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        for row in summary_rows:
            name, mean, std = row.split(",")
            vals = np.array([m[name] for m in per_repeat])
            assert abs(float(mean) - vals.mean()) <= 1e-12
            assert abs(float(std) - vals.std()) <= 1e-12

    def test_mmd_from_visit_counts_is_the_sample_order_estimator(self, tmp_path):
        """Each repeat's MMD, from the histograms of the truth draw and the trace, is mmd_rff over their rows to 1e-12.

        3,000 truth rows and 1,500 trace rows: the sample-order means span several feature blocks.
        """
        cfg = parse_config(SYNTH_CFG.replace("reference_samples = 500", "reference_samples = 3000")
                           .replace("iterations = 300", "iterations = 1500"))
        run_experiment(cfg, out=str(tmp_path))
        model = _build_model(cfg)
        truth = enumerate_target(model)
        rng = substream(cfg.seed, SALT_TRUTH)
        truth_samples = embed_all(model.domain)[rng.choice(truth.p.shape[0], size=cfg.reference_samples, p=truth.p)]
        rff = RffEstimator.create(2, median_bandwidth(truth_samples), cfg.mmd_features, rng)
        for trace in run_batch(model, run_config(cfg), [cfg.seed + r for r in range(cfg.repeats)]):
            rows = (tmp_path / f"metrics_{trace.seed}.csv").read_text().splitlines()[1:]
            mmd = float(dict(row.split(",") for row in rows)["mmd"])
            assert abs(mmd - mmd_rff(truth_samples, model.domain.value_table[trace.states], rff)) <= 1e-12

    def test_replica_run_fills_high_columns(self, tmp_path):
        cfg = parse_config(
            SYNTH_CFG.replace("sampler = dmala", "sampler = dream")
            + "alpha_high = 0.1\ntau_high = 2.0\n"
        )
        run_experiment(cfg, out=str(tmp_path))
        line = (tmp_path / "run_7.csv").read_text().splitlines()[1]
        fields = line.split(",")
        assert fields[2] != "" and fields[4] != ""


def hand_trace(replica, iterations=9000):
    """A RunTrace whose energies cycle through extreme floats, long enough to cross a 4,096-row block."""
    extremes = np.array([-0.0, 5e-324, 1e-05, 0.1 + 0.2, 1e16, -1.5e300])
    rng = np.random.default_rng(5)
    energies = rng.normal(size=(2, iterations)) * 10.0 ** rng.integers(-8, 9, size=(2, iterations))
    energies[:, : 6 * 1400] = np.tile(extremes, 1400)
    energies[1] = energies[1, ::-1]
    flags = rng.random((3, iterations)) < 0.5
    return RunTrace(
        states=np.zeros((iterations, 2), dtype=np.int16),
        energy_low=energies[0],
        energy_high=energies[1] if replica else None,
        accepted_low=flags[0],
        accepted_high=flags[1] if replica else None,
        swapped=flags[2] if replica else None,
        seed=1,
        thin=1,
    )


@pytest.mark.parametrize("replica", [True, False], ids=["replica", "single"])
def test_run_csv_renders_floats_as_repr_and_flags_as_digits(tmp_path, replica):
    trace = hand_trace(replica)
    write_run_csv(tmp_path / "run.csv", trace)
    lines = (tmp_path / "run.csv").read_text().split("\n")
    assert lines[0] == "iteration,energy_low,energy_high,accepted_low,accepted_high,swapped"
    assert lines[-1] == ""  # every row ends in a newline
    expected = []
    for i in range(trace.energy_low.shape[0]):
        if replica:
            high = (repr(float(trace.energy_high[i])), str(int(trace.accepted_high[i])), str(int(trace.swapped[i])))
        else:
            high = ("", "", "0")
        low = (repr(float(trace.energy_low[i])), str(int(trace.accepted_low[i])))
        expected.append(",".join((str(i), low[0], high[0], low[1], high[1], high[2])))
    assert lines[1:-1] == expected
    assert {"-0.0", "5e-324", "1e-05", "0.30000000000000004", "1e+16", "-1.5e+300"} <= {
        line.split(",")[1] for line in expected
    }


class TestHeatmaps:
    def test_single_occupied_bin(self, tmp_path):
        dom = DomainSpec.ordinal_grid(2, levels=8, lo=-2, hi=2)
        counts = np.zeros(64, dtype=np.int64)
        counts[8 * 2 + 5] = 9  # ix=2, iy=5
        _write_pgm(counts, dom, tmp_path / "one.pgm")
        img = read_pgm(tmp_path / "one.pgm")
        assert (img == 255).sum() == 1
        assert img[8 - 1 - 5, 2] == 255  # row 0 is the top of the y-axis

    def test_uniform_histogram_constant(self, tmp_path):
        dom = DomainSpec.ordinal_grid(2, levels=4, lo=-2, hi=2)
        _write_pgm(np.full(16, 3), dom, tmp_path / "flat.pgm")
        img = read_pgm(tmp_path / "flat.pgm")
        assert np.all(img == 255)

    def test_zero_weights_all_black_with_warning(self, tmp_path):
        dom = DomainSpec.ordinal_grid(2, levels=4, lo=-2, hi=2)
        with pytest.warns(UserWarning, match="empty histogram"):
            _write_pgm(np.zeros(16), dom, tmp_path / "black.pgm")
        assert np.all(read_pgm(tmp_path / "black.pgm") == 0)

    @pytest.mark.slow
    def test_sixteen_gaussian_dream_shows_sixteen_blobs(self, tmp_path):
        cfg = parse_config(
            """
kind = synthetic
energy = 16gaussian
grid_levels = 64
c = 2.0
sampler = dream
alpha = 0.023
tau = 1.0
alpha_high = 0.053
tau_high = 2.0
iterations = 100000
repeats = 1
seed = 11
reference_samples = 1000
mmd_features = 100
"""
        )
        run_experiment(cfg, out=str(tmp_path))
        img = read_pgm(tmp_path / "empirical.pgm")
        # the radial tilt puts the four inner modes at ~45% of the corner
        # peaks, so a half-max cut can never show more than 12 blobs even for
        # the exact target; 30% sits between the modes and the ~1% saddles
        assert count_bright_components(img, threshold=76) >= 16
        target = read_pgm(tmp_path / "target.pgm")
        assert count_bright_components(target, threshold=76) == 16


def count_bright_components(img, threshold=127):
    """4-connected components above half maximum intensity."""
    mask = img > threshold
    seen = np.zeros_like(mask)
    comps = 0
    for i in range(mask.shape[0]):
        for j in range(mask.shape[1]):
            if mask[i, j] and not seen[i, j]:
                comps += 1
                queue = deque([(i, j)])
                seen[i, j] = True
                while queue:
                    a, b = queue.popleft()
                    for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        na, nb = a + da, b + db
                        if 0 <= na < mask.shape[0] and 0 <= nb < mask.shape[1]:
                            if mask[na, nb] and not seen[na, nb]:
                                seen[na, nb] = True
                                queue.append((na, nb))
    return comps


class TestIsingRuns:
    def test_metrics_index_the_int16_trace_directly(self):
        """_ising_metrics embeds the 600 x 1024 int16 trace once; an int64 copy would add another 4.9 MB."""
        model = make_ising_lattice(32, 0.15, np.zeros(1024), True)
        trace = SimpleNamespace(states=np.random.default_rng(0).integers(0, 2, size=(600, 1024), dtype=np.int16))
        embedded = trace.states.size * 8
        assert traced_peak(lambda: _ising_metrics(model, np.zeros(1024), trace)) < embedded + trace.states.size * 4

    def test_large_lattice_uses_reference_chain(self, tmp_path):
        cfg = parse_config(
            """
kind = ising
side = 5
coupling = 0.15
periodic = true
sampler = dula
alpha = 0.4
iterations = 50
repeats = 1
seed = 2
reference_steps = 100
"""
        )
        summary = run_experiment(cfg, out=str(tmp_path))
        assert "log_rmse" in summary
        meta = (tmp_path / "meta.txt").read_text()
        assert "gibbs_reference(100 sweeps)" in meta

    def test_no_writes_outside_output_directory(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        out = tmp_path / "out"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        cfg = parse_config(SYNTH_CFG.replace("repeats = 2", "repeats = 1"))
        run_experiment(cfg, out=str(out))
        assert list(workdir.iterdir()) == []

    def test_small_lattice_with_enumeration_truth(self, tmp_path):
        cfg = parse_config(
            """
kind = ising
side = 2
coupling = 0.15
periodic = true
sampler = dmala
alpha = 0.4
iterations = 400
repeats = 2
seed = 3
init = bernoulli
init_prob = 0.6
"""
        )
        summary = run_experiment(cfg, out=str(tmp_path))
        assert "log_rmse" in summary
        meta = (tmp_path / "meta.txt").read_text()
        assert "magnetization_truth = enumeration" in meta

    def test_truth_follows_the_enumeration_capacity(self, tmp_path, monkeypatch):
        """Past the harness's ENUMERATION_CAPACITY, here lowered to 2^8, a 3x3 lattice (2^9 states) takes the reference."""
        monkeypatch.setattr(harness, "ENUMERATION_CAPACITY", 1 << 8)
        cfg = parse_config(
            """
kind = ising
side = 3
sampler = dmala
alpha = 0.4
iterations = 20
seed = 3
reference_steps = 50
"""
        )
        run_experiment(cfg, out=str(tmp_path))
        assert "magnetization_truth = gibbs_reference(50 sweeps)" in (tmp_path / "meta.txt").read_text()


class TestRbmPipeline:
    def test_train_then_sample(self, tmp_path):
        train_cfg = parse_config(
            """
kind = rbm-train
visible = 12
hidden = 4
cd_k = 1
train_iterations = 60
batch_size = 32
modes = 2
per_mode = 60
flip_prob = 0.05
seed = 5
"""
        )
        run_experiment(train_cfg, out=str(tmp_path))
        weights = tmp_path / "rbm_weights.bin"
        assert weights.exists()
        assert (tmp_path / "train_loss.csv").exists()

        sample_cfg = parse_config(
            f"""
kind = rbm-sample
weights = {weights}
sampler = dmala
alpha = 0.2
iterations = 500
repeats = 1
seed = 9
gibbs_burn_in = 100
mmd_features = 100
"""
        )
        summary = run_experiment(sample_cfg, out=str(tmp_path / "sample"))
        assert "mmd" in summary
        assert summary["mmd"][0] < 0.5
        meta = (tmp_path / "sample" / "meta.txt").read_text()
        assert "gibbs_reference = 100 burn-in + 500 kept steps per repeat" in meta


class TestOracleCheckRun:
    def test_report_contents(self, tmp_path):
        cfg = parse_config(
            """
kind = oracle-check
spins = 2
coupling = 0.15
alpha = 0.2
tau = 1.0
alpha_high = 0.4
tau_high = 2.0
rho = 1.0
seed = 1
"""
        )
        summary = run_experiment(cfg, out=str(tmp_path))
        report = (tmp_path / "report.txt").read_text()
        assert "joint_history_db_residual" in report
        assert "joint_naive_db_residual" in report
        assert "joint_balanced_db_pass = True" in report
        assert "spectral_pass = True" in report
        assert summary["overall_pass"][0] == 1.0

    def test_spectral_check_follows_the_capacity(self, tmp_path, monkeypatch):
        """2 spins have 16 pair states; with SPECTRAL_CAPACITY lowered to 15 the report leaves the spectral check out."""
        monkeypatch.setattr(harness, "SPECTRAL_CAPACITY", 15)
        cfg = parse_config(
            """
kind = oracle-check
spins = 2
alpha = 0.2
alpha_high = 0.4
tau_high = 2.0
seed = 1
"""
        )
        run_experiment(cfg, out=str(tmp_path))
        report = (tmp_path / "report.txt").read_text()
        assert "spectral" not in report and "joint_balanced_db_pass = True" in report


@pytest.mark.parametrize("bad", ["tau = 0", "thin = 0", "init = bernouli"])
@pytest.mark.parametrize("kind", ["synthetic", "ising", "rbm-sample"])
def test_sampler_values_checked_before_model_work(tmp_path, monkeypatch, kind, bad):
    """A bad sampler value fails before the model, its truth or its reference is built."""
    def no_model_work(*args, **kwargs):
        raise AssertionError("model work started before the sampler values were checked")

    for name in ("_build_model", "enumerate_target", "_magnetization_truth", "load_rbm"):
        monkeypatch.setattr(harness, name, no_model_work)
    body = {
        "synthetic": "energy = wave\ngrid_levels = 16\n",
        "ising": "side = 32\nreference_steps = 20000\n",
        "rbm-sample": "weights = w.bin\n",
    }[kind]
    (tmp_path / "w.bin").write_bytes(b"")
    monkeypatch.chdir(tmp_path)
    text = f"kind = {kind}\n{body}sampler = dmala\nalpha = 0.1\niterations = 10\nseed = 1\n"
    with pytest.raises(ConfigError):
        parse_config(f"{text}{bad}\n")
    # a config made in code skips parse_config; the run itself must still check before model work
    key, _, raw = bad.partition(" = ")
    cfg = dataclasses.replace(parse_config(text), **{key: _SCHEMA[key][0](raw)})
    with pytest.raises(DomainError):
        run_experiment(cfg, out=str(tmp_path / "out"))


@pytest.mark.parametrize("bad", ["field = nan", "field = inf", "coupling = inf"])
def test_non_finite_ising_model_rejected_before_the_reference(tmp_path, monkeypatch, bad):
    """The model build rejects a non-finite field or coupling; the heat-bath reference never starts."""
    def no_reference(*args, **kwargs):
        raise AssertionError("the reference started before the model was checked")

    monkeypatch.setattr(harness, "_magnetization_truth", no_reference)
    cfg = parse_config(
        f"kind = ising\nside = 6\nreference_steps = 20000\nsampler = dmala\nalpha = 0.1\niterations = 10\nseed = 1\n{bad}\n"
    )
    with pytest.raises(DomainError, match="finite"):
        run_experiment(cfg, out=str(tmp_path))


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "drexel.cli", *args],
            capture_output=True, text=True,
        )

    def test_run_success(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SYNTH_CFG.replace("repeats = 2", "repeats = 1"))
        proc = self._run("run", str(cfg_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "kl:" in proc.stdout
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_validation_error_exit_2(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("kind = synthetic\nenergy = wave\nalpah = 0.1\nseed = 1\n")
        proc = self._run("run", str(cfg_path))
        assert proc.returncode == 2
        assert "alpah" in proc.stderr

    def test_config_not_utf8_exit_2(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_bytes(b"kind = synthetic\n# \xff\n")
        proc = self._run("run", str(cfg_path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: config {cfg_path} is not UTF-8") and proc.stderr.count("\n") == 1

    def test_capacity_error_exit_3(self, tmp_path):
        cfg_path = tmp_path / "big.cfg"
        cfg_path.write_text(
            "kind = oracle-check\nspins = 7\ncoupling = 0.1\nalpha = 0.2\n"
            "alpha_high = 0.4\ntau_high = 2.0\nseed = 1\n"
        )
        proc = self._run("oracle-check", str(cfg_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    def test_non_finite_barrier_exit_2(self, tmp_path, c):
        """A non-finite c is a validation error that names c, raised before the target is enumerated."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SYNTH_CFG.replace("energy = wave", "energy = 16gaussian") + f"c = {c}\n")
        proc = self._run("run", str(cfg_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: barrier height c must be finite, got {float(c)}\n"

    def test_kind_mismatch_exit_2(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SYNTH_CFG)
        proc = self._run("oracle-check", str(cfg_path))
        assert proc.returncode == 2

    def test_missing_weights_file_exit_2(self, tmp_path):
        cfg_path = tmp_path / "sample.cfg"
        cfg_path.write_text(
            "kind = rbm-sample\nweights = nowhere.bin\nsampler = dmala\n"
            "alpha = 0.2\niterations = 10\nseed = 1\n"
        )
        proc = self._run("run", str(cfg_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "weights file not found" in proc.stderr

    def test_visible_differing_from_the_dataset_file_exit_2(self, tmp_path):
        """A dataset file does not override visible; a width that differs is a config error."""
        data = tmp_path / "data.bin"
        save_dataset(BinaryDataset(rows=np.eye(6, dtype=np.int64)), data)
        cfg_path = tmp_path / "train.cfg"
        text = f"kind = rbm-train\nhidden = 2\ntrain_iterations = 2\nbatch_size = 4\ndataset = {data}\nseed = 1\n"
        cfg_path.write_text(text + "visible = 7\n")
        proc = self._run("rbm-train", str(cfg_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: visible = 7, but dataset {data} has 6 columns\n"
        assert not (tmp_path / "out" / "rbm_weights.bin").exists()
        cfg_path.write_text(text + "visible = 6\n")
        assert self._run("rbm-train", str(cfg_path), "--out", str(tmp_path / "out")).returncode == 0

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        """--threads is checked by the rule that checks the threads key; the config's value is no fallback."""
        from drexel import cli

        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SYNTH_CFG)
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--threads", threads]) == 2
        assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        cfg_path.write_text(SYNTH_CFG + f"threads = {threads}\n")
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err

    def test_non_finite_gradient_exit_3(self, tmp_path, monkeypatch, capsys):
        """A NaN gradient is a numeric error (exit 3), not a config error."""
        from drexel import cli, harness

        class NanGradient(EnergyModel):
            def __init__(self, inner):
                self.inner = inner
                self.domain = inner.domain

            def value_and_grad_batch(self, xs):
                return self.inner.value_and_grad_batch(xs)[0], np.full(xs.shape, np.nan)

        real_build = harness._build_model
        monkeypatch.setattr(harness, "_build_model", lambda config: NanGradient(real_build(config)))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SYNTH_CFG.replace("repeats = 2", "repeats = 1"))
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "seed 7" in err and "low chain" in err and "not finite" in err

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SYNTH_CFG.replace("repeats = 2", "repeats = 1"))
        a = self._run("run", str(cfg_path), "--out", str(tmp_path / "a"), "--seed", "100")
        b = self._run("run", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "100")
        assert a.returncode == b.returncode == 0
        assert (tmp_path / "a" / "run_100.csv").exists()
        assert (tmp_path / "a" / "run_100.csv").read_bytes() == (tmp_path / "b" / "run_100.csv").read_bytes()

    # kind -> (config, the names of its meta.txt lines): the keys its run reads, but out and threads, and the
    # lines the harness adds (drexel_version, repeat_seeds, and the kind's reference or weights line)
    SAMPLING_META = {"drexel_version", "kind", "seed", "repeats", "repeat_seeds", "sampler", "alpha", "tau",
                     "iterations", "thin", "init", "init_prob"}
    TRAIN_CFG = "kind = rbm-train\nvisible = 6\nhidden = 2\ntrain_iterations = 2\nbatch_size = 4\nseed = 1\n"
    META = {
        "synthetic": (SYNTH_CFG, SAMPLING_META | {
            "energy", "grid_levels", "c", "heatmap", "mmd_features", "reference_samples", "mmd_bandwidth"}),
        "ising": (
            "kind = ising\nside = 3\nsampler = bdream\nalpha = 0.4\nalpha_high = 0.9\ntau_high = 2.0\nsigma2 = 0.1\n"
            "iterations = 20\nrepeats = 2\nseed = 3\n",
            SAMPLING_META | {"alpha_high", "tau_high", "rho", "sigma2", "side", "coupling", "periodic", "field",
                             "reference_steps", "magnetization_truth"},
        ),
        "rbm-sample": (
            "kind = rbm-sample\nweights = {weights}\nsampler = drexel\nalpha = 0.2\nalpha_high = 0.4\ntau_high = 2.0\n"
            "iterations = 20\nrepeats = 2\nseed = 9\ngibbs_burn_in = 5\nmmd_features = 10\n",
            SAMPLING_META | {"alpha_high", "tau_high", "rho", "weights", "gibbs_burn_in", "mmd_features",
                             "gibbs_reference"},
        ),
        "rbm-train": (TRAIN_CFG, {
            "drexel_version", "kind", "seed", "visible", "hidden", "cd_k", "learning_rate", "train_iterations",
            "batch_size", "dataset", "modes", "per_mode", "flip_prob", "weights_out", "weights"}),
        "oracle-check": (
            "kind = oracle-check\nspins = 2\nalpha = 0.2\nalpha_high = 0.4\ntau_high = 2.0\nn_max = 5\nseed = 1\n",
            {"drexel_version", "kind", "seed", "alpha", "tau", "alpha_high", "tau_high", "rho", "spins", "coupling",
             "field", "with_mh", "n_max"},
        ),
    }

    @pytest.mark.parametrize("kind", sorted(META))
    def test_meta_records_the_keys_the_run_read(self, tmp_path, kind):
        """meta.txt under --out (and --threads 2 where the kind samples) holds no key its run did not read.

        Neither out nor threads changes an artifact, and the flags override both, so neither is recorded;
        dmala reads no high chain, swap or sigma2, drexel no sigma2, and rbm-train and oracle-check run no repeats.
        """
        from drexel import cli

        weights = tmp_path / "train" / "rbm_weights.bin"
        if kind == "rbm-sample":
            (tmp_path / "train.cfg").write_text(self.TRAIN_CFG)
            assert cli.main(["rbm-train", str(tmp_path / "train.cfg"), "--out", str(tmp_path / "train")]) == 0
        text, expected = self.META[kind]
        (tmp_path / "exp.cfg").write_text(text.format(weights=weights))
        flags = ["--out", str(tmp_path / "out")] + (["--threads", "2"] if kind in SAMPLING_KINDS else [])
        assert cli.main(["run", str(tmp_path / "exp.cfg"), *flags]) == 0
        lines = (tmp_path / "out" / "meta.txt").read_text().splitlines()
        names = [line.partition(" = ")[0] for line in lines]
        assert sorted(names) == sorted(expected)
