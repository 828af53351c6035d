"""Shared fixtures and numerical helpers for the test suite."""

import tracemalloc

import numpy as np
import pytest

from drexel import make_ising_chain
from drexel.domains import DomainSpec
from drexel.energies import RbmFreeEnergy


def central_difference(model, x, h_scale=1e-5):
    """Central finite-difference gradient of the energy at embedded point x, one value_batch row per step."""
    x = np.asarray(x, dtype=float)
    h = h_scale * np.maximum(np.abs(x), 1.0)
    step = np.diag(h)
    return (model.value_batch(x + step) - model.value_batch(x - step)) / (2 * h)


def gradient_matches_fd(model, points):
    """Max relative gradient error |analytic - fd| / (1 + |analytic|) over points."""
    points = np.asarray(points, dtype=float)
    analytic = model.value_and_grad_batch(points)[1]
    fd = np.array([central_difference(model, x) for x in points])
    return float((np.abs(analytic - fd) / (1.0 + np.abs(analytic))).max())


def random_coupling(n, density, seed):
    """Symmetric real n x n coupling with zero diagonal and about density * n^2 normal non-zeros."""
    rng = np.random.default_rng(seed)
    J = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < density), k=1)
    return J + J.T


def traced_peak(f):
    """Peak bytes that numpy and Python allocate while f() runs, by tracemalloc (this process only)."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def two_spin_ising():
    """2-spin +-1 chain, w = 0.15, no field: U in {+0.3, -0.3}."""
    return make_ising_chain(2, 0.15, np.zeros(2))


@pytest.fixture
def three_spin_ising():
    return make_ising_chain(3, 0.15, np.zeros(3))


@pytest.fixture
def small_rbm():
    rng = np.random.default_rng(11)
    dom = DomainSpec.binary01(6)
    return RbmFreeEnergy(domain=dom, W=rng.normal(0, 0.5, size=(3, 6)), c=rng.normal(0, 0.3, 3), b=rng.normal(0, 0.3, 6))
