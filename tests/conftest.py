"""Shared fixtures and numerical helpers for the test suite."""

import numpy as np
import pytest

from drexel import make_ising_chain
from drexel.domains import DomainSpec
from drexel.energies import RbmFreeEnergy


def central_difference(model, x, h_scale=1e-5):
    """Central finite-difference gradient of model.value at embedded point x."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for d in range(x.shape[0]):
        scale = max(abs(x[d]), 1.0)
        h = h_scale * scale
        up, dn = x.copy(), x.copy()
        up[d] += h
        dn[d] -= h
        grad[d] = (model.value(up) - model.value(dn)) / (2 * h)
    return grad


def gradient_matches_fd(model, points, rtol=1e-5):
    """Max relative gradient error |analytic - fd| / (1 + |analytic|) over points."""
    worst = 0.0
    for x in points:
        analytic = np.asarray(model.gradient(np.asarray(x, dtype=float)))
        fd = central_difference(model, x)
        err = np.abs(analytic - fd) / (1.0 + np.abs(analytic))
        worst = max(worst, float(err.max()))
    return worst


def random_coupling(n, density, seed):
    """Symmetric real n x n coupling with zero diagonal and about density * n^2 normal non-zeros."""
    rng = np.random.default_rng(seed)
    J = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < density), k=1)
    return J + J.T


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
