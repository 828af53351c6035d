"""The four benchmark workloads: their inputs, commands, set-up and checks.

Every input is generated from the workload seed.  Settings are the paper's
and the bundled configs'; only run lengths and repeat counts are chosen
here, so that one round of a workload takes a few seconds on two cores.

A workload object is cheap to build and writes nothing until
`write_inputs` is called, so the set-up probe can rebuild it in a fresh
process from (name, seed, work directory) alone.
"""

import os

import numpy as np

import checks

# Mean energy_low of the DREAM low chain on the 16-Gaussian grid sits near
# 3.52 against the exact 3.362 (the history swap biases it); over 20 seeds
# a round's 4 x 2500 states gave 3.43-3.62, standard deviation 0.04.
# c = 1 gives an exact 1.47.
GRID_ENERGY_TOL = 0.4
# The chain reaches equilibrium within about 300 iterations; the
# second-half mean of 2 x 300 states then has a standard error near 5.
# Doubling the coupling moves the mean by several hundred.
ISING_ENERGY_TOL = 25.0


def _write_config(path, values):
    with open(path, "w") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")


def _seeds(seed, count):
    """Config seeds for one workload, derived from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=count)]


class Workload:
    name = ""
    # dense-matrix bytes one energy call reads, by method name
    matrix_bytes = {"value": 0, "gradient": 0}

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def run_csvs(self):
        """The run_<seed>.csv files of the sampling command, one per repeat."""
        return []


class Grid16Dream(Workload):
    name = "grid16-dream"
    levels = 64
    c = 2.0
    repeats = 4
    iterations = 2500

    def __init__(self, seed, work):
        super().__init__(seed, work)
        (self.run_seed,) = _seeds(seed, 1)
        self.config = self.path("grid16.cfg")

    def write_inputs(self):
        _write_config(
            self.config,
            {
                "kind": "synthetic",
                "energy": "16gaussian",
                "grid_levels": self.levels,
                "c": self.c,
                "seed": self.run_seed,
                "repeats": self.repeats,
                "threads": 1,
                "heatmap": "true",
                "out": self.path("out"),
                "sampler": "dream",
                "alpha": 0.023,
                "tau": 1.0,
                "alpha_high": 0.053,
                "tau_high": 2.0,
                "rho": 1.0,
                "iterations": self.iterations,
            },
        )

    def commands(self):
        return [["run", self.config]]

    def setup(self):
        from drexel import make_synthetic
        from drexel.config import load_config

        cfg = load_config(self.config)
        return make_synthetic(cfg.energy, levels=cfg.grid_levels, c=cfg.c)

    def run_csvs(self):
        return [self.path("out", f"run_{self.run_seed + r}.csv") for r in range(self.repeats)]

    def check(self):
        return checks.check_grid(self.path("out"), self.run_csvs(), self.levels, self.c, GRID_ENERGY_TOL)


class Ising32Dream(Workload):
    name = "ising32-dream"
    side = 32
    coupling = 0.15
    repeats = 2
    iterations = 600
    reference_steps = 100
    matrix_bytes = {"value": 1024**2 * 8, "gradient": 1024**2 * 8}  # J x

    def __init__(self, seed, work):
        super().__init__(seed, work)
        (self.run_seed,) = _seeds(seed, 1)
        self.config = self.path("ising32.cfg")

    def write_inputs(self):
        _write_config(
            self.config,
            {
                "kind": "ising",
                "side": self.side,
                "coupling": self.coupling,
                "periodic": "true",
                "field": 0.0,
                "seed": self.run_seed,
                "repeats": self.repeats,
                "threads": 1,
                "reference_steps": self.reference_steps,
                "out": self.path("out"),
                "sampler": "dream",
                "alpha": 0.4,
                "tau": 1.0,
                "alpha_high": 0.9,
                "tau_high": 5.0,
                "rho": 1.0,
                "iterations": self.iterations,
                "init": "bernoulli",
                "init_prob": 0.6,
            },
        )

    def commands(self):
        return [["run", self.config]]

    def setup(self):
        from drexel import make_ising_lattice
        from drexel.config import load_config

        cfg = load_config(self.config)
        n = cfg.side * cfg.side
        return make_ising_lattice(cfg.side, cfg.coupling, np.full(n, cfg.field), cfg.periodic)

    def run_csvs(self):
        return [self.path("out", f"run_{self.run_seed + r}.csv") for r in range(self.repeats)]

    def check(self):
        return checks.check_ising(self.run_csvs(), self.side, self.coupling, ISING_ENERGY_TOL)


class Rbm784Dmala(Workload):
    name = "rbm784-dmala"
    visible = 784
    hidden = 500
    modes = 4
    per_mode = 250
    flip_prob = 0.05
    train_iterations = 60
    repeats = 2
    iterations = 600
    matrix_bytes = {"value": 500 * 784 * 8, "gradient": 2 * 500 * 784 * 8}  # W v, then W^T s

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.data_seed, self.train_seed, self.sample_seed, self.noise_seed = _seeds(seed, 4)
        self.data_file = self.path("data.bin")
        self.train_config = self.path("rbm_train.cfg")
        self.sample_config = self.path("rbm_sample.cfg")
        self.weights = self.path("train", "rbm_weights.bin")

    def dataset(self):
        """4-mode Bernoulli mixture: random prototypes, each repeated with 5 % bit flips."""
        rng = np.random.default_rng(self.data_seed)
        protos = rng.integers(0, 2, size=(self.modes, self.visible), dtype=np.uint8)
        rows = np.repeat(protos, self.per_mode, axis=0)
        flips = rng.random(rows.shape) < self.flip_prob
        return np.where(flips, 1 - rows, rows).astype(np.uint8)

    def write_inputs(self):
        rows = self.dataset()
        with open(self.data_file, "wb") as fh:
            fh.write(b"DREXDATA")
            fh.write(np.array(rows.shape, dtype="<u4").tobytes())
            fh.write(rows.tobytes(order="C"))
        _write_config(
            self.train_config,
            {
                "kind": "rbm-train",
                "visible": self.visible,
                "hidden": self.hidden,
                "cd_k": 1,
                "learning_rate": 0.001,
                "train_iterations": self.train_iterations,
                "batch_size": 128,
                "dataset": self.data_file,
                "seed": self.train_seed,
                "out": self.path("train"),
                "weights_out": "rbm_weights.bin",
            },
        )
        _write_config(
            self.sample_config,
            {
                "kind": "rbm-sample",
                "weights": self.weights,
                "sampler": "dmala",
                "alpha": 0.2,
                "tau": 1.0,
                "iterations": self.iterations,
                "repeats": self.repeats,
                "threads": 1,
                "seed": self.sample_seed,
                "gibbs_burn_in": 200,
                "out": self.path("sample"),
            },
        )

    def commands(self):
        return [["rbm-train", self.train_config], ["run", self.sample_config]]

    def setup(self):
        from drexel.config import load_config
        from drexel.rbm import load_dataset, load_rbm

        train = load_config(self.train_config)
        sample = load_config(self.sample_config)
        return load_dataset(train.dataset), load_rbm(sample.weights)

    def run_csvs(self):
        return [self.path("sample", f"run_{self.sample_seed + r}.csv") for r in range(self.repeats)]

    def check(self):
        return checks.check_rbm(self.weights, self.dataset(), self.run_csvs(), self.noise_seed, min_gap=300.0, band=0.2)


class Oracle4Check(Workload):
    name = "oracle4-check"
    spins = 4
    coupling = 0.15
    low = (0.2, 1.0)  # (alpha, tau)
    high = (0.4, 2.0)
    rho = 1.0

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.config = self.path("oracle4.cfg")
        self._expected = None

    def write_inputs(self):
        _write_config(
            self.config,
            {
                "kind": "oracle-check",
                "spins": self.spins,
                "coupling": self.coupling,
                "alpha": self.low[0],
                "tau": self.low[1],
                "alpha_high": self.high[0],
                "tau_high": self.high[1],
                "rho": self.rho,
                "n_max": 50,
                "seed": self.seed,
                "out": self.path("out"),
            },
        )

    def commands(self):
        return [["oracle-check", self.config]]

    def setup(self):
        from drexel import make_ising_chain
        from drexel.config import load_config

        cfg = load_config(self.config)
        return make_ising_chain(cfg.spins, cfg.coupling, np.full(cfg.spins, cfg.field))

    def expected_kernel(self):
        """The program's balanced replica kernel and pair target; eigenvalues are recomputed in checks."""
        if self._expected is None:
            from drexel import ChainParams, make_ising_chain
            from drexel.oracle import balanced_joint_kernel, intermediate_pair_pmf

            model = make_ising_chain(self.spins, self.coupling, np.zeros(self.spins))
            low = ChainParams(alpha=self.low[0], tau=self.low[1])
            high = ChainParams(alpha=self.high[0], tau=self.high[1])
            kernel = balanced_joint_kernel(model, low, high, rho=self.rho).matrix
            self._expected = kernel, intermediate_pair_pmf(model, low, high).p
        return self._expected

    def check(self):
        kernel, pmf = self.expected_kernel()
        return checks.check_oracle(self.path("out", "report.txt"), kernel, pmf, eig_tol=2e-9, residual_tol=1e-10)


WORKLOADS = {w.name: w for w in (Grid16Dream, Ising32Dream, Rbm784Dmala, Oracle4Check)}


def make_workload(name, seed, work):
    return WORKLOADS[name](seed, work)
