"""Energy values, hand-derived gradients, and lattice construction."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drexel import (
    ChainParams,
    RunConfig,
    make_ising_chain,
    make_ising_lattice,
    make_synthetic,
    run_batch,
)
from drexel.domains import DomainSpec
from drexel.energies import (
    SYNTHETIC_NAMES,
    EnergyModel,
    QuadraticEnergy,
    RbmFreeEnergy,
    Synthetic2D,
    _sigmoid,
)
from drexel.errors import DomainError
from drexel.oracle import enumerate_target, exact_single_kernel
from drexel.rbm import BinaryDataset

from conftest import gradient_matches_fd, random_coupling, traced_peak
from test_golden import trace_digest


class TestQuadratic:
    def test_two_spin_value(self, two_spin_ising):
        u = two_spin_ising.value_batch(two_spin_ising.domain.value_table[np.array([[1, 1]])])
        assert u[0] == pytest.approx(0.3, abs=1e-15)

    def test_two_spin_gradient(self, two_spin_ising):
        g = two_spin_ising.value_and_grad_batch(two_spin_ising.domain.value_table[np.array([[1, 1]])])[1]
        assert np.allclose(g[0], [0.3, 0.3], atol=1e-15)

    def test_asymmetric_matrix_rejected(self):
        dom = DomainSpec.spin_pm1(2)
        with pytest.raises(DomainError):
            QuadraticEnergy(domain=dom, J=np.array([[0.0, 1.0], [0.0, 0.0]]), b=np.zeros(2))

    @pytest.mark.parametrize(
        "J, message",
        [
            ([[0.0, 1.0], [0.0, 0.0]], "J must be symmetric"),  # an edge with no mirror
            ([[0.0, 1.0], [2.0, 0.0]], "J must be symmetric"),  # a mirror with another weight
            ([[0.0, np.nan], [1.0, 0.0]], "J has non-finite entries"),  # NaN is named before the asymmetry
        ],
    )
    def test_bad_table_rejected_with_its_message(self, J, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            QuadraticEnergy(domain=DomainSpec.spin_pm1(2), J=np.array(J), b=np.zeros(2))

    def test_J_is_rebuilt_read_only_from_the_table(self):
        J = random_coupling(12, 0.3, 2)
        model = QuadraticEnergy(domain=DomainSpec.spin_pm1(12), J=J, b=np.zeros(12))
        assert np.array_equal(model.J, J) and not model.J.flags.writeable
        assert "J" not in vars(model)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["J", "b", "w"])
    def test_non_finite_parameters_rejected(self, where, bad):
        """A NaN or infinite coupling, field or strength fails when the model is built, not when it is first run."""
        params = dict(J=np.array([[0.0, 1.0], [1.0, 0.0]]), b=np.zeros(2), w=0.5)
        params[where] = {"J": np.array([[0.0, bad], [bad, 0.0]]), "b": np.array([0.0, bad]), "w": bad}[where]
        with pytest.raises(DomainError, match="finite"):
            QuadraticEnergy(domain=DomainSpec.spin_pm1(2), **params)

    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
    @settings(max_examples=50)
    def test_exact_quadratic_expansion(self, i, j):
        """U(y) - U(x) = grad(x) . (y - x) + w (y - x)^T J (y - x), exactly."""
        rng = np.random.default_rng(5)
        n = 6
        J = rng.integers(0, 2, size=(n, n)).astype(float)
        J = np.triu(J, 1)
        J = J + J.T
        model = QuadraticEnergy(domain=DomainSpec.spin_pm1(n), J=J, b=rng.normal(size=n), w=0.3)
        to_state = lambda k: np.array([(k >> d) & 1 for d in range(n)])
        x = model.domain.value_table[to_state(i % 2**n)]
        y = model.domain.value_table[to_state(j % 2**n)]
        u, g = model.value_and_grad_batch(np.stack([x, y]))
        lhs = u[1] - u[0]
        rhs = g[0] @ (y - x) + model.w * (y - x) @ J @ (y - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestRbm:
    def test_zero_weights_value(self):
        dom = DomainSpec.binary01(4)
        model = RbmFreeEnergy(domain=dom, W=np.zeros((8, 4)), c=np.zeros(8), b=np.zeros(4))
        u = model.value_batch(model.domain.value_table[np.array([[1, 0, 1, 0]])])
        assert u[0] == pytest.approx(8 * np.log(2), rel=1e-12)

    def test_zero_weights_gradient_is_bias(self):
        dom = DomainSpec.binary01(3)
        b = np.array([0.5, -1.0, 2.0])
        model = RbmFreeEnergy(domain=dom, W=np.zeros((2, 3)), c=np.zeros(2), b=b)
        assert np.allclose(model.value_and_grad_batch(model.domain.value_table[np.array([[0, 1, 0]])])[1][0], b)

    def test_softplus_overflow_safe(self):
        dom = DomainSpec.binary01(2)
        model = RbmFreeEnergy(domain=dom, W=np.zeros((2, 2)), c=np.array([1e4, -1e4]), b=np.zeros(2))
        u = model.value_batch(np.zeros((1, 2)))[0]
        assert np.isfinite(u)
        assert u == pytest.approx(1e4, rel=1e-10)  # softplus(1e4) + softplus(-1e4)

    def test_softplus_monotone(self):
        dom = DomainSpec.binary01(1)
        values = []
        for c in (-1e4, -10.0, 0.0, 10.0, 1e4):
            model = RbmFreeEnergy(domain=dom, W=np.zeros((1, 1)), c=np.array([c]), b=np.zeros(1))
            values.append(model.value_batch(np.zeros((1, 1)))[0])
        assert np.all(np.diff(values) > 0)


class TestSynthetic:
    def test_sixteen_gaussian_origin(self):
        model = make_synthetic("16gaussian", levels=64, c=2.0)
        assert model.value_batch(np.zeros((1, 2)))[0] == pytest.approx(-4.0, abs=1e-12)

    def test_wave_gradient_at_origin(self):
        model = make_synthetic("wave", levels=64)
        assert np.allclose(model.value_and_grad_batch(np.zeros((1, 2)))[1][0], [0.0, 0.0])

    def test_flower_origin_assigned_limit(self):
        model = make_synthetic("flower", levels=65)  # odd grid contains the exact origin
        u, g = model.value_and_grad_batch(np.zeros((1, 2)))
        assert u[0] == 1.0
        assert np.allclose(g[0], [1.0, 0.0])

    def test_sixteen_gaussian_modes_on_half_integers(self):
        model = make_synthetic("16gaussian", levels=256, c=2.0)
        from drexel.domains import embed_all

        xs = embed_all(model.domain)
        u = model.value_batch(xs)
        top16 = xs[np.argsort(u)[-16:]]
        for pt in top16:
            assert np.all(np.isin(np.round(np.abs(pt) * 2), [1, 3]))

    def test_value_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(50, 2))
        for name in SYNTHETIC_NAMES:
            model = make_synthetic(name, levels=64)
            batch = model.value_batch(pts)
            scalar = np.array([model.value_batch(p[None, :])[0] for p in pts])
            assert np.allclose(batch, scalar, atol=1e-12), name

    def test_unknown_name_rejected(self):
        dom = DomainSpec.ordinal_grid(2, levels=8, lo=-2, hi=2)
        with pytest.raises(DomainError):
            Synthetic2D(domain=dom, which="spiral")

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_non_finite_barrier_rejected(self, c):
        with pytest.raises(DomainError, match="barrier height c must be finite"):
            make_synthetic("16gaussian", levels=8, c=c)


class TestGradientFidelity:
    """Hand-derived gradients against central finite differences."""

    def _random_points(self, lo, hi, n, dim, seed):
        return np.random.default_rng(seed).uniform(lo, hi, size=(n, dim))

    @pytest.mark.parametrize("name", SYNTHETIC_NAMES)
    def test_synthetic_gradients(self, name):
        model = make_synthetic(name, levels=64)
        pts = self._random_points(-2, 2, 100, 2, seed=17)
        if name == "flower":
            pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]  # angle is discontinuous at the origin
        assert gradient_matches_fd(model, pts) <= 1e-5

    def test_ising_gradients(self):
        model = make_ising_lattice(3, 0.15, np.linspace(-0.5, 0.5, 9), periodic=True)
        pts = self._random_points(-1, 1, 100, 9, seed=3)
        assert gradient_matches_fd(model, pts) <= 1e-5

    def test_rbm_gradients(self, small_rbm):
        pts = self._random_points(0, 1, 100, 6, seed=5)
        assert gradient_matches_fd(small_rbm, pts) <= 1e-5


class TestIsingLattice:
    def test_open_2x2_has_four_edges(self):
        model = make_ising_lattice(2, 0.15, np.zeros(4), periodic=False)
        assert int(np.count_nonzero(model.J)) == 8  # 4 undirected edges

    def test_periodic_3x3_torus_degree(self):
        model = make_ising_lattice(3, 0.15, np.zeros(9), periodic=True)
        assert np.all(model.J.sum(axis=1) == 4)

    def test_periodic_2x2_collapses_duplicate_edges(self):
        model = make_ising_lattice(2, 0.15, np.zeros(4), periodic=True)
        assert np.all(model.J.sum(axis=1) == 2)
        assert set(np.unique(model.J)) == {0.0, 1.0}

    def test_side_too_small(self):
        with pytest.raises(DomainError):
            make_ising_lattice(1, 0.15, np.zeros(1), periodic=False)

    def test_chain_adjacency(self):
        model = make_ising_chain(3, 0.15, np.zeros(3))
        assert np.array_equal(model.J, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    @staticmethod
    def _loop_J(side, periodic):
        """The adjacency matrix as make_ising_lattice built it densely, site by site."""
        J = np.zeros((side * side, side * side))
        for r in range(side):
            for col in range(side):
                i = r * side + col
                right = r * side + (col + 1) % side
                down = ((r + 1) % side) * side + col
                if col + 1 < side or periodic:
                    J[i, right] = J[right, i] = 1.0
                if r + 1 < side or periodic:
                    J[i, down] = J[down, i] = 1.0
        return J

    @pytest.mark.parametrize("periodic", [True, False], ids=["torus", "open"])
    @pytest.mark.parametrize("side", [2, 3, 4, 5, 6, 32])
    def test_table_from_offsets_equals_the_dense_constructors(self, side, periodic):
        """The offset-built table, and J read back from it, equal those of the dense site-by-site J bit for bit."""
        n = side * side
        model = make_ising_lattice(side, 0.15, np.zeros(n), periodic)
        J = self._loop_J(side, periodic)
        dense = QuadraticEnergy(domain=DomainSpec.spin_pm1(n), J=J, b=np.zeros(n), w=0.15)
        for a, b in ((model.nbr, dense.nbr), (model.wts, dense.wts), (model.J, J)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_lattice_build_makes_no_dense_matrix(self):
        """The 32^2 torus (a dense J would be 8 MB) builds in under 1 MB of traced memory."""
        assert traced_peak(lambda: make_ising_lattice(32, 0.15, np.zeros(1024), True)) < 2**20

    def test_torus_energy_equals_the_dense_product_bit_for_bit(self):
        """On the 0/1 32^2 torus the neighbour sum is X @ J exactly, at K = 4."""
        model = make_ising_lattice(32, 0.15, np.linspace(-0.5, 0.5, 1024), periodic=True)
        xs = model.domain.value_table[np.random.default_rng(6).integers(0, 2, size=(4, 1024))]
        XJ = xs @ model.J
        u, g = model.value_and_grad_batch(xs)
        assert np.array_equal(u, model.w * np.vecdot(xs, XJ) + np.vecdot(xs, model.b))
        assert np.array_equal(g, 2.0 * model.w * XJ + model.b)


@pytest.mark.parametrize(
    "J",
    [np.zeros((3, 3)), make_ising_chain(5, 0.15, np.zeros(5)).J, random_coupling(40, 0.1, 7), np.diag([1.0, 0.0, 2.0])],
    ids=["empty", "chain", "random", "diagonal"],
)
def test_neighbour_table_holds_the_non_zeros_of_J(J):
    """Scattering the table back gives J; each site's neighbours come in index order, padding has weight 0."""
    model = QuadraticEnergy(domain=DomainSpec.spin_pm1(J.shape[0]), J=J, b=np.zeros(J.shape[0]))
    assert model.nbr.shape == model.wts.shape == (int((J != 0).sum(axis=1).max()), J.shape[0])
    rebuilt = np.zeros_like(J)
    np.add.at(rebuilt, (np.broadcast_to(np.arange(J.shape[0]), model.nbr.shape), model.nbr), model.wts)
    assert np.array_equal(rebuilt, J)
    for d in range(J.shape[0]):
        real = model.wts[:, d] != 0
        assert np.array_equal(model.nbr[real, d], np.flatnonzero(J[d]))
        assert np.array_equal(real, np.arange(real.size) < real.sum())  # padding only after the neighbours


def _value_and_grad_models():
    rng = np.random.default_rng(17)
    J = rng.normal(size=(5, 5))
    yield QuadraticEnergy(domain=DomainSpec.spin_pm1(5), J=J + J.T, b=rng.normal(size=5), w=0.7)
    yield make_ising_lattice(3, 0.15, np.full(9, 0.1), True)
    yield RbmFreeEnergy(
        domain=DomainSpec.binary01(6), W=rng.normal(size=(4, 6)), c=rng.normal(size=4), b=rng.normal(size=6)
    )
    for name in SYNTHETIC_NAMES:
        yield make_synthetic(name, levels=9)


@pytest.mark.parametrize("model", list(_value_and_grad_models()), ids=lambda m: type(m).__name__)
def test_value_and_grad_is_value_and_gradient_bit_for_bit(model):
    """value_batch derives from the one definition and must not change a single bit, on one row or on many."""
    rng = np.random.default_rng(3)
    xs = model.domain.value_table[rng.integers(0, model.domain.levels, size=(20, model.domain.dim))]
    for x in xs:
        assert np.array_equal(model.value_batch(x[None, :]), model.value_and_grad_batch(x[None, :])[0])
    assert np.array_equal(model.value_batch(xs), model.value_and_grad_batch(xs)[0])


def _row_invariant_models():
    rng = np.random.default_rng(19)
    yield make_ising_lattice(3, 0.15, np.full(9, 0.1), True)  # 0/1 couplings: J x is exact
    for n, density, kind in ((12, 1.0, "dense"), (200, 0.02, "sparse")):  # real couplings
        model = QuadraticEnergy(domain=DomainSpec.spin_pm1(n), J=random_coupling(n, density, n), b=rng.normal(size=n), w=0.7)
        yield pytest.param(model, id=f"QuadraticEnergy-{kind}")
    for m, d in ((4, 6), (40, 64)):
        yield RbmFreeEnergy(
            domain=DomainSpec.binary01(d), W=rng.normal(size=(m, d)), c=rng.normal(size=m), b=rng.normal(size=d)
        )
    for name in SYNTHETIC_NAMES:
        yield make_synthetic(name, levels=9)


@pytest.mark.parametrize("model", list(_row_invariant_models()), ids=lambda m: type(m).__name__)
def test_batch_rows_do_not_depend_on_the_batch(model):
    """Each row of a K-row value_and_grad_batch is its one-row batch, bit for bit."""
    rng = np.random.default_rng(4)
    xs = model.domain.value_table[rng.integers(0, model.domain.levels, size=(20, model.domain.dim))]
    for k in (2, 3, 7, 20):
        u, g = model.value_and_grad_batch(xs[:k])
        for r in range(k):
            u1, g1 = model.value_and_grad_batch(xs[r : r + 1])
            assert u[r] == u1[0]
            assert np.array_equal(g[r], g1[0])


class FieldOnly(EnergyModel):
    """U(x) = h . x on three spins, defining nothing but value_and_grad_batch."""

    domain = DomainSpec.spin_pm1(3)
    h = np.array([0.3, -0.2, 0.5])

    def value_and_grad_batch(self, xs):
        return np.vecdot(xs, self.h), np.zeros_like(xs) + self.h


def test_a_model_needs_only_value_and_grad_batch():
    """Sampler and oracles run on the one method; results equal the same energy as a QuadraticEnergy."""
    with pytest.raises(TypeError):
        EnergyModel()
    model = FieldOnly()
    same = QuadraticEnergy(domain=model.domain, J=np.zeros((3, 3)), b=model.h)
    for sampler in ("dmala", "dream"):
        kwargs = dict(alpha_high=0.6, tau_high=2.0) if sampler == "dream" else {}
        cfg = RunConfig(sampler=sampler, iterations=200, alpha=0.3, **kwargs)
        assert trace_digest(run_batch(model, cfg, [5])[0]) == trace_digest(run_batch(same, cfg, [5])[0])
    assert np.array_equal(enumerate_target(model).p, enumerate_target(same).p)
    params = ChainParams(alpha=0.3, mh_enabled=True)
    K = exact_single_kernel(model, params).matrix
    assert np.array_equal(K, exact_single_kernel(same, params).matrix)


def test_sigmoid_equals_the_two_branch_formula():
    """The one-exponential sigmoid against 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, NaN included."""
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 710.0, -710.0, 1e-300, -1e-300]
    z = np.concatenate([edges, np.random.default_rng(9).normal(0.0, 50.0, 10_000)])
    with np.errstate(over="ignore", invalid="ignore"):
        two_branch = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    assert np.array_equal(_sigmoid(z), two_branch, equal_nan=True)


def _sigmoid_by_where(z):
    """The logistic with its numerator chosen by np.where: the reference _sigmoid keeps the bits of."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


QUIET_NANS = np.array([np.nan, -np.nan, np.array(0x7FF8000000000001).view(np.float64)])


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=300)
def test_sigmoid_keeps_the_bits_of_the_where_form(values):
    """Every finite or infinite float, subnormals and signed zeros included, and quiet NaNs, compared as int64."""
    z = np.concatenate([values, QUIET_NANS])
    assert np.array_equal(_sigmoid(z).view(np.int64), _sigmoid_by_where(z).view(np.int64))


@pytest.mark.parametrize(
    "record",
    [
        make_ising_lattice(4, 0.15, np.full(16, 0.05), True),
        make_ising_chain(3, 0.15, np.zeros(3)),
        RbmFreeEnergy(domain=DomainSpec.binary01(3), W=np.ones((2, 3)), c=np.zeros(2), b=np.zeros(3)),
        enumerate_target(make_ising_chain(3, 0.15, np.zeros(3))),
        exact_single_kernel(make_ising_chain(2, 0.15, np.zeros(2)), ChainParams(alpha=0.2)),
        BinaryDataset(rows=np.eye(3, dtype=np.int64)),
    ],
    ids=lambda r: type(r).__name__,
)
def test_arrays_stay_read_only_through_pickling(record):
    """With threads > 1 the model and the truth pmf reach each worker process by pickle, which returned arrays writeable."""
    copy = pickle.loads(pickle.dumps(record))
    arrays = [a for a in vars(copy).values() if isinstance(a, np.ndarray)]
    if hasattr(copy, "domain"):
        arrays.append(copy.domain.value_table)
    assert arrays and not any(a.flags.writeable for a in arrays)
