"""End-to-end experiment runs, artifact schemas, determinism, and the CLI."""

import os
import subprocess
import sys
from collections import deque

import numpy as np
import pytest

from drexel.config import parse_config
from drexel.domains import DomainSpec
from drexel.energies import EnergyModel
from drexel.harness import _write_pgm, emit_heatmap, run_experiment
from drexel.metrics import EmpiricalHist


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

    def test_replica_run_fills_high_columns(self, tmp_path):
        cfg = parse_config(
            SYNTH_CFG.replace("sampler = dmala", "sampler = dream")
            + "alpha_high = 0.1\ntau_high = 2.0\n"
        )
        run_experiment(cfg, out=str(tmp_path))
        line = (tmp_path / "run_7.csv").read_text().splitlines()[1]
        fields = line.split(",")
        assert fields[2] != "" and fields[4] != ""


class TestHeatmaps:
    def test_single_occupied_bin(self, tmp_path):
        dom = DomainSpec.ordinal_grid(2, levels=8, lo=-2, hi=2)
        counts = np.zeros(64, dtype=np.int64)
        counts[8 * 2 + 5] = 9  # ix=2, iy=5
        emit_heatmap(EmpiricalHist(counts=counts, total=9), dom, tmp_path / "one.pgm")
        img = read_pgm(tmp_path / "one.pgm")
        assert (img == 255).sum() == 1
        assert img[8 - 1 - 5, 2] == 255  # row 0 is the top of the y-axis

    def test_uniform_histogram_constant(self, tmp_path):
        dom = DomainSpec.ordinal_grid(2, levels=4, lo=-2, hi=2)
        emit_heatmap(EmpiricalHist(counts=np.full(16, 3), total=48), dom, tmp_path / "flat.pgm")
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

    def test_capacity_error_exit_3(self, tmp_path):
        cfg_path = tmp_path / "big.cfg"
        cfg_path.write_text(
            "kind = oracle-check\nspins = 7\ncoupling = 0.1\nalpha = 0.2\n"
            "alpha_high = 0.4\ntau_high = 2.0\nseed = 1\n"
        )
        proc = self._run("oracle-check", str(cfg_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3

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

    def test_non_finite_gradient_exit_3(self, tmp_path, monkeypatch, capsys):
        """A NaN gradient is a numeric error (exit 3), not a config error."""
        from drexel import cli, harness

        class NanGradient(EnergyModel):
            def __init__(self, inner):
                self.inner = inner
                self.domain = inner.domain

            def value(self, x):
                return self.inner.value(x)

            def gradient(self, x):
                return np.full(self.domain.dim, np.nan)

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
