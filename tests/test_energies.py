"""Energy values, hand-derived gradients, and lattice construction."""

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
    run_sampler,
)
from drexel.domains import DomainSpec, embed
from drexel.energies import (
    SYNTHETIC_NAMES,
    EnergyModel,
    QuadraticEnergy,
    RbmFreeEnergy,
    Synthetic2D,
)
from drexel.errors import DomainError
from drexel.oracle import enumerate_target, exact_single_kernel

from conftest import gradient_matches_fd
from test_golden import trace_digest


class TestQuadratic:
    def test_two_spin_value(self, two_spin_ising):
        assert two_spin_ising.value(embed(np.array([1, 1]), two_spin_ising.domain)) == pytest.approx(0.3, abs=1e-15)

    def test_two_spin_gradient(self, two_spin_ising):
        g = two_spin_ising.gradient(embed(np.array([1, 1]), two_spin_ising.domain))
        assert np.allclose(g, [0.3, 0.3], atol=1e-15)

    def test_asymmetric_matrix_rejected(self):
        dom = DomainSpec.spin_pm1(2)
        with pytest.raises(DomainError):
            QuadraticEnergy(domain=dom, J=np.array([[0.0, 1.0], [0.0, 0.0]]), b=np.zeros(2))

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
        lhs = model.value(y) - model.value(x)
        rhs = model.gradient(x) @ (y - x) + model.w * (y - x) @ J @ (y - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestRbm:
    def test_zero_weights_value(self):
        dom = DomainSpec.binary01(4)
        model = RbmFreeEnergy(domain=dom, W=np.zeros((8, 4)), c=np.zeros(8), b=np.zeros(4))
        assert model.value(embed(np.array([1, 0, 1, 0]), model.domain)) == pytest.approx(8 * np.log(2), rel=1e-12)

    def test_zero_weights_gradient_is_bias(self):
        dom = DomainSpec.binary01(3)
        b = np.array([0.5, -1.0, 2.0])
        model = RbmFreeEnergy(domain=dom, W=np.zeros((2, 3)), c=np.zeros(2), b=b)
        assert np.allclose(model.gradient(embed(np.array([0, 1, 0]), model.domain)), b)

    def test_softplus_overflow_safe(self):
        dom = DomainSpec.binary01(2)
        model = RbmFreeEnergy(domain=dom, W=np.zeros((2, 2)), c=np.array([1e4, -1e4]), b=np.zeros(2))
        u = model.value(embed(np.array([0, 0]), model.domain))
        assert np.isfinite(u)
        assert u == pytest.approx(1e4, rel=1e-10)  # softplus(1e4) + softplus(-1e4)

    def test_softplus_monotone(self):
        dom = DomainSpec.binary01(1)
        values = []
        for c in (-1e4, -10.0, 0.0, 10.0, 1e4):
            model = RbmFreeEnergy(domain=dom, W=np.zeros((1, 1)), c=np.array([c]), b=np.zeros(1))
            values.append(model.value(np.zeros(1)))
        assert np.all(np.diff(values) > 0)


class TestSynthetic:
    def test_sixteen_gaussian_origin(self):
        model = make_synthetic("16gaussian", levels=64, c=2.0)
        assert model.value(np.zeros(2)) == pytest.approx(-4.0, abs=1e-12)

    def test_wave_gradient_at_origin(self):
        model = make_synthetic("wave", levels=64)
        assert np.allclose(model.gradient(np.zeros(2)), [0.0, 0.0])

    def test_flower_origin_assigned_limit(self):
        model = make_synthetic("flower", levels=65)  # odd grid contains the exact origin
        assert model.value(np.zeros(2)) == 1.0
        assert np.allclose(model.gradient(np.zeros(2)), [1.0, 0.0])

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
            scalar = np.array([model.value(p) for p in pts])
            assert np.allclose(batch, scalar, atol=1e-12), name

    def test_unknown_name_rejected(self):
        dom = DomainSpec.ordinal_grid(2, levels=8, lo=-2, hi=2)
        with pytest.raises(DomainError):
            Synthetic2D(domain=dom, which="spiral")


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
    """value, gradient and value_batch derive from the one definition and must not change a single bit.

    The exception is RBM value_batch, one matrix product over all rows: bit
    for bit on one row, equal to rounding on several.
    """
    rng = np.random.default_rng(3)
    xs = model.domain.value_table[rng.integers(0, model.domain.levels, size=(20, model.domain.dim))]
    for x in xs:
        u, g = model.value_and_grad_batch(x[None, :])
        assert model.value(x) == u[0]
        assert np.array_equal(model.gradient(x), g[0])
        assert np.array_equal(model.value_batch(x[None, :]), u)
    u = model.value_and_grad_batch(xs)[0]
    if isinstance(model, RbmFreeEnergy):
        assert np.allclose(model.value_batch(xs), u, rtol=1e-12, atol=0.0)
    else:
        assert np.array_equal(model.value_batch(xs), u)


def _row_invariant_models():
    rng = np.random.default_rng(19)
    yield make_ising_lattice(3, 0.15, np.full(9, 0.1), True)  # 0/1 couplings: J x is exact
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
        cfg = RunConfig(sampler=sampler, iterations=200, seed=5, alpha=0.3, **kwargs)
        assert trace_digest(run_sampler(model, cfg)) == trace_digest(run_sampler(same, cfg))
    assert np.array_equal(enumerate_target(model).p, enumerate_target(same).p)
    params = ChainParams(alpha=0.3, mh_enabled=True)
    K = exact_single_kernel(model, params).matrix
    assert np.array_equal(K, exact_single_kernel(same, params).matrix)
