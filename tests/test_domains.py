"""Domain embeddings, state indexing, and their invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drexel.domains import DomainSpec, all_states, embed, flat_index, index_state, state_index
from drexel.errors import CapacityError, DomainError


def test_binary_embedding():
    dom = DomainSpec.binary01(2)
    assert np.array_equal(embed(np.array([0, 1]), dom), [0.0, 1.0])


def test_spin_embedding():
    dom = DomainSpec.spin_pm1(2)
    assert np.array_equal(embed(np.array([0, 1]), dom), [-1.0, 1.0])


def test_ordinal_midpoint():
    dom = DomainSpec.ordinal_grid(1, levels=5, lo=-2.0, hi=2.0)
    assert embed(np.array([2]), dom)[0] == 0.0


def test_ordinal_endpoints_exact():
    dom = DomainSpec.ordinal_grid(1, levels=7, lo=-1.3, hi=2.7)
    assert embed(np.array([0]), dom)[0] == -1.3
    assert embed(np.array([6]), dom)[0] == 2.7


@given(st.integers(2, 64), st.floats(-10, 9), st.floats(0.1, 10))
def test_ordinal_embedding_strictly_increasing(levels, lo, width):
    dom = DomainSpec.ordinal_grid(1, levels=levels, lo=lo, hi=lo + width)
    assert np.all(np.diff(dom.value_table) > 0)


def test_out_of_range_index_rejected():
    dom = DomainSpec.binary01(3)
    with pytest.raises(DomainError):
        embed(np.array([0, 2, 0]), dom)
    with pytest.raises(DomainError):
        embed(np.array([0, -1, 0]), dom)


def test_wrong_length_rejected():
    dom = DomainSpec.binary01(3)
    with pytest.raises(DomainError):
        embed(np.array([0, 1]), dom)


def test_invalid_domain_parameters():
    with pytest.raises(DomainError):
        DomainSpec.ordinal_grid(1, levels=1, lo=0.0, hi=1.0)
    with pytest.raises(DomainError):
        DomainSpec.ordinal_grid(1, levels=4, lo=1.0, hi=1.0)
    with pytest.raises(DomainError):
        DomainSpec(dim=0, kind="binary01", levels=2)


@given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 10_000))
def test_state_index_roundtrip(levels, dim, raw):
    dom = DomainSpec.ordinal_grid(dim, levels=levels, lo=0.0, hi=1.0)
    idx = raw % dom.num_states
    assert state_index(index_state(idx, dom), dom) == idx


def test_all_states_matches_index_order():
    dom = DomainSpec.ordinal_grid(2, levels=3, lo=0.0, hi=1.0)
    states = all_states(dom)
    assert states.shape == (9, 2)
    for i, s in enumerate(states):
        assert state_index(s, dom) == i


def test_flat_index_is_state_index_of_each_row():
    dom = DomainSpec.ordinal_grid(3, levels=5, lo=0.0, hi=1.0)
    states = np.random.default_rng(4).integers(0, 5, size=(200, 3)).astype(np.int16)
    assert flat_index(states, dom).tolist() == [state_index(s, dom) for s in states]
    assert np.array_equal(flat_index(all_states(dom), dom), np.arange(dom.num_states))


def test_enumeration_capacity_guard():
    dom = DomainSpec.binary01(30)
    with pytest.raises(CapacityError):
        all_states(dom)
