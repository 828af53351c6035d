"""Domain embeddings, state indexing, and their invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drexel.domains import DomainSpec, all_states, embed_all, flat_index
from drexel.errors import CapacityError, DomainError
from test_golden import MODELS


def test_binary_embedding():
    dom = DomainSpec.binary01(2)
    assert np.array_equal(dom.value_table[[0, 1]], [0.0, 1.0])


def test_spin_embedding():
    dom = DomainSpec.spin_pm1(2)
    assert np.array_equal(dom.value_table[[0, 1]], [-1.0, 1.0])


def test_ordinal_midpoint():
    dom = DomainSpec.ordinal_grid(1, levels=5, lo=-2.0, hi=2.0)
    assert dom.value_table[2] == 0.0


def test_ordinal_endpoints_exact():
    dom = DomainSpec.ordinal_grid(1, levels=7, lo=-1.3, hi=2.7)
    assert dom.value_table[0] == -1.3
    assert dom.value_table[6] == 2.7


@given(st.integers(2, 64), st.floats(-10, 9), st.floats(0.1, 10))
def test_ordinal_embedding_strictly_increasing(levels, lo, width):
    dom = DomainSpec.ordinal_grid(1, levels=levels, lo=lo, hi=lo + width)
    assert np.all(np.diff(dom.value_table) > 0)


def test_invalid_domain_parameters():
    with pytest.raises(DomainError):
        DomainSpec.ordinal_grid(1, levels=1, lo=0.0, hi=1.0)
    with pytest.raises(DomainError):
        DomainSpec.ordinal_grid(1, levels=4, lo=1.0, hi=1.0)
    with pytest.raises(DomainError):
        DomainSpec(dim=0, kind="binary01", levels=2)


def state_index(row, levels):
    """Reference flat index of one state: its digits in base levels, coordinate 0 most significant."""
    return int("".join(map(str, row)), levels)


@given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 10_000))
def test_state_index_roundtrip(levels, dim, raw):
    dom = DomainSpec.ordinal_grid(dim, levels=levels, lo=0.0, hi=1.0)
    idx = raw % dom.num_states
    state = all_states(dom)[idx]
    assert state_index(state, levels) == idx
    assert flat_index(state[None, :], dom).tolist() == [idx]


@given(st.integers(2, 5), st.integers(1, 4))
def test_all_states_matches_index_order(levels, dim):
    dom = DomainSpec.ordinal_grid(dim, levels=levels, lo=0.0, hi=1.0)
    states = all_states(dom)
    assert states.shape == (dom.num_states, dim)
    assert [state_index(s, levels) for s in states] == list(range(dom.num_states))
    assert np.array_equal(flat_index(states, dom), np.arange(dom.num_states))


@given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_flat_index_is_state_index_of_each_row(levels, dim, seed):
    dom = DomainSpec.ordinal_grid(dim, levels=levels, lo=0.0, hi=1.0)
    states = np.random.default_rng(seed).integers(0, levels, size=(200, dim)).astype(np.int16)
    assert flat_index(states, dom).tolist() == [state_index(s, levels) for s in states]


def test_enumeration_capacity_guard():
    dom = DomainSpec.binary01(30)
    with pytest.raises(CapacityError):
        all_states(dom)


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_energies_of_all_states_are_the_per_row_energies(model_name):
    """all_states and embed_all are C-ordered, so a batch energy over every state has each row's own bits.

    F-ordered rows took other np.vecdot loops: 238 of the golden rbm12's 4,096 energies differed.
    """
    model = MODELS[model_name][0]()
    xs = embed_all(model.domain)
    assert all_states(model.domain).flags.c_contiguous and xs.flags.c_contiguous
    per_row = np.array([model.value_batch(x[None, :])[0] for x in xs])
    assert model.value_batch(xs).tobytes() == per_row.tobytes()
