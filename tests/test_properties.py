"""Property tests: Pauli-algebra laws and the reference rotation kernel
against dense matrices, on random strings of up to four qubits."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dsfermion.pauli import PauliString, commutes, multiply

from conftest import apply_pauli_rotation, dense_from_label, dense_state, random_state

# Derandomized and without an example database, so the suite stays deterministic.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

PHASES = st.sampled_from([1, -1, 1j, -1j])


def labels(count):
    """``count`` Pauli labels of one common length in 1..4."""
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=count, max_size=count)
    )


@PROPERTY
@given(labels(3), st.lists(PHASES, min_size=3, max_size=3))
def test_multiply_is_associative(triple, phases):
    a, b, c = (PauliString.from_label(label, phase) for label, phase in zip(triple, phases))
    left = multiply(multiply(a, b), c)
    right = multiply(a, multiply(b, c))
    assert left == right
    dense = phases[0] * phases[1] * phases[2] * (
        dense_from_label(triple[0]) @ dense_from_label(triple[1]) @ dense_from_label(triple[2])
    )
    assert np.max(np.abs(left.to_dense() - dense)) < 1e-13


@PROPERTY
@given(labels(2))
def test_commutes_matches_dense_commutator(pair):
    da, db = (dense_from_label(label) for label in pair)
    dense_commute = np.max(np.abs(da @ db - db @ da)) < 1e-12
    assert commutes(*(PauliString.from_label(label) for label in pair)) == dense_commute


@PROPERTY
@given(labels(1), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_rotation_matches_expm(single, theta, seed):
    (label,) = single
    n = len(label)
    vec = random_state(np.random.default_rng(seed), n)
    state = dense_state(n, vec.copy())
    apply_pauli_rotation(state, PauliString.from_label(label), theta)
    expected = expm(-1j * theta * dense_from_label(label)) @ vec
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-12
