"""Independent correctness checks, written in plain numpy.

Each check reads what the program wrote (CSV traces, PGM heatmaps, the
oracle report, the weights file) and compares it with a value this module
computes on its own: the closed-form 16-Gaussian pmf, Onsager's exact Ising
energy, RBM free energies from the raw weights file, and numpy's own
symmetric eigensolver.  Nothing here reuses the program's energy, metric or
eigensolver code, so a fault there cannot cancel out.

Every check returns a list of (name, ok, detail) tuples.
"""

import csv
import math
import struct

import numpy as np

# ---------------------------------------------------------------- shared readers


def read_energy_low(path):
    """The energy_low column of a run_<seed>.csv, as float64."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        col = header.index("energy_low")
        return np.array([float(r[col]) for r in rows])


def read_pgm(path):
    """Pixel array (rows, columns) of a binary 8-bit P5 graymap."""
    with open(path, "rb") as fh:
        magic, dims, maxval, pixels = fh.read().split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit P5 graymap")
    w, h = (int(t) for t in dims.split())
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def geyer_ess(x):
    """Effective sample size by Geyer's initial monotone sequence estimator.

    Autocorrelations come from a zero-padded FFT; consecutive pairs are
    summed while positive and forced non-increasing.  A constant trace
    carries one sample's worth of information.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    x = x - x.mean()
    spec = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec))[:n] / n
    if acov[0] <= 0.0:
        return 1.0
    rho = acov / acov[0]
    m = n // 2
    pairs = rho[0 : 2 * m : 2] + rho[1 : 2 * m : 2]
    neg = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: neg[0]] if neg.size else pairs
    tau = -1.0 + 2.0 * np.minimum.accumulate(pairs).sum()
    return n / max(tau, 1.0 / n)


# ---------------------------------------------------------------- 16-Gaussian grid

MODES_16 = [(mx, my) for mx in (-1.5, -0.5, 0.5, 1.5) for my in (-1.5, -0.5, 0.5, 1.5)]


def grid_values(levels, lo=-2.0, hi=2.0):
    v = lo + (hi - lo) * np.arange(levels, dtype=float) / (levels - 1)
    v[-1] = hi
    return v


def sixteen_gaussian_pmf(levels, c, tau=1.0):
    """Exact pmf on the levels x levels grid, flat index ix * levels + iy."""
    v = grid_values(levels)
    x, y = np.meshgrid(v, v, indexing="ij")
    u = ((x**2 + y**2) / 5.0 - c * (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y))).ravel()
    logit = u / tau
    p = np.exp(logit - logit.max())
    return p / p.sum(), u


def render_pgm(p, levels):
    """Bytes of the P5 rendering: fullest bin at 255, row 0 at the largest y."""
    grid = p.reshape(levels, levels)
    img = np.round(grid / grid.max() * 255.0).astype(np.uint8).T[::-1, :]
    return f"P5\n{levels} {levels}\n255\n".encode("ascii") + img.tobytes(order="C")


def check_grid(out_dir, run_csvs, levels, c, energy_tol):
    p, u = sixteen_gaussian_pmf(levels, c)
    results = []

    with open(f"{out_dir}/target.pgm", "rb") as fh:
        same = fh.read() == render_pgm(p, levels)
    results.append(("grid.target_pgm", same, "byte-identical to the closed-form rendering" if same else "differs"))

    img = read_pgm(f"{out_dir}/empirical.pgm")
    v = grid_values(levels)
    missing = []
    for mx, my in MODES_16:
        ix, iy = int(np.abs(v - mx).argmin()), int(np.abs(v - my).argmin())
        row, col = levels - 1 - iy, ix
        window = img[max(row - 1, 0) : row + 2, max(col - 1, 0) : col + 2]
        if window.max() == 0:
            missing.append((mx, my))
    results.append(("grid.modes_visited", not missing, f"missing modes {missing}" if missing else "16 of 16"))

    exact = float(p @ u)
    mean = float(np.concatenate([read_energy_low(f) for f in run_csvs]).mean())
    ok = abs(mean - exact) <= energy_tol
    results.append(("grid.mean_energy", ok, f"mean energy_low {mean:.4f}, exact {exact:.4f}, tol {energy_tol}"))
    return results


# ---------------------------------------------------------------- Ising torus


def complete_elliptic_k(k):
    """K(k) by the arithmetic-geometric mean."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def onsager_bond_correlation(K):
    """Exact <s_i s_j> for nearest neighbours of the infinite square-lattice Ising model."""
    k = 2.0 * math.sinh(2 * K) / math.cosh(2 * K) ** 2
    t = math.tanh(2 * K)
    return 0.5 / t * (1.0 + (2.0 / math.pi) * (2.0 * t * t - 1.0) * complete_elliptic_k(k))


def ising_expected_energy(side, coupling, tau=1.0):
    """E[U] for U = w s^T J s on a periodic side x side torus (2 side^2 bonds, K = 2w/tau)."""
    bonds = 2 * side * side
    return coupling * 2.0 * bonds * onsager_bond_correlation(2.0 * coupling / tau)


def check_ising(run_csvs, side, coupling, energy_tol):
    halves = []
    for f in run_csvs:
        e = read_energy_low(f)
        halves.append(e[e.shape[0] // 2 :])
    mean = float(np.concatenate(halves).mean())
    exact = ising_expected_energy(side, coupling)
    ok = abs(mean - exact) <= energy_tol
    return [("ising.mean_energy", ok, f"second-half mean energy_low {mean:.2f}, Onsager {exact:.2f}, tol {energy_tol}")]


# ---------------------------------------------------------------- RBM


def read_rbm_weights(path):
    """(W, c, b) from the DREXENER file format, parsed here from the raw bytes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != b"DREXENER":
        raise ValueError(f"{path}: bad magic")
    m, d = struct.unpack("<II", blob[8:16])
    body = np.frombuffer(blob, dtype="<f8", offset=16)
    if body.shape[0] != m * d + m + d:
        raise ValueError(f"{path}: payload does not match its header")
    return body[: m * d].reshape(m, d), body[m * d : m * d + m], body[m * d + m :]


def rbm_free_energy(W, c, b, v):
    """U(v) = sum_j softplus((W v + c)_j) + b^T v over rows of v."""
    v = np.asarray(v, dtype=float)
    return np.logaddexp(0.0, v @ W.T + c).sum(axis=1) + v @ b


def check_rbm(weights_path, data, run_csvs, noise_seed, min_gap, band):
    """Sampled free energies sit at the data level, far above uniform noise.

    The gap between the data level and the noise level must exceed min_gap
    (the model learnt the data), and the second-half mean energy_low of every
    repeat must lie within band * gap of the data level.
    """
    W, c, b = read_rbm_weights(weights_path)
    data_level = float(rbm_free_energy(W, c, b, data).mean())
    noise = np.random.default_rng(noise_seed).random((data.shape[0], data.shape[1])) < 0.5
    noise_level = float(rbm_free_energy(W, c, b, noise).mean())
    gap = data_level - noise_level
    results = [("rbm.data_above_noise", gap >= min_gap, f"data {data_level:.1f}, noise {noise_level:.1f}, need gap >= {min_gap}")]
    means = []
    for f in run_csvs:
        e = read_energy_low(f)
        means.append(float(e[e.shape[0] // 2 :].mean()))
    ok = gap > 0 and all(abs(m - data_level) <= band * gap for m in means)
    detail = f"second-half means {[round(m, 1) for m in means]}, data {data_level:.1f}, allowed +-{band * gap:.1f}"
    results.append(("rbm.samples_at_data_level", ok, detail))
    return results


# ---------------------------------------------------------------- oracle


def read_report(path):
    with open(path) as fh:
        return dict(line.strip().split(" = ", 1) for line in fh if " = " in line)


def check_oracle(report_path, kernel, pmf, eig_tol, residual_tol):
    """report.txt eigenvalues against eigvalsh of D^1/2 K D^-1/2, symmetrised; balanced residual."""
    report = read_report(report_path)
    K = np.asarray(kernel, dtype=float)
    p = np.asarray(pmf, dtype=float)
    flow = p[:, None] * K
    own_residual = float(np.abs(flow - flow.T).max())
    reported_residual = float(report["joint_balanced_db_residual"])
    ok_res = own_residual <= residual_tol and reported_residual <= residual_tol
    results = [
        (
            "oracle.balanced_residual",
            ok_res,
            f"recomputed {own_residual:.3e}, reported {reported_residual:.3e}, tol {residual_tol:g}",
        )
    ]
    root = np.sqrt(p)
    sym = root[:, None] * K / root[None, :]
    expected = np.sort(np.linalg.eigvalsh(0.5 * (sym + sym.T)))[::-1]
    reported = np.array([float(t) for t in report["spectral_eigenvalues"].split(",")])
    if reported.shape != expected.shape:
        results.append(("oracle.eigenvalues", False, f"{reported.shape[0]} reported, {expected.shape[0]} expected"))
    else:
        err = float(np.abs(reported - expected).max())
        results.append(("oracle.eigenvalues", err <= eig_tol, f"max |reported - eigvalsh| {err:.2e}, tol {eig_tol:g}"))
    return results
