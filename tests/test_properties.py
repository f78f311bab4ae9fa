"""Property test: the reference rotation kernel against dense matrix
exponentials, on random strings of up to four qubits."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dsfermion.pauli import PauliString

from conftest import apply_pauli_rotation, dense_from_label, dense_state, random_state

# Derandomized and without an example database, so the suite stays deterministic.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# A Pauli label of a length in 1..4.
LABELS = st.integers(1, 4).flatmap(lambda n: st.text("IXYZ", min_size=n, max_size=n))


@PROPERTY
@given(LABELS, st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_rotation_matches_expm(label, theta, seed):
    n = len(label)
    vec = random_state(np.random.default_rng(seed), n)
    state = dense_state(n, vec.copy())
    apply_pauli_rotation(state, PauliString.from_label(label), theta)
    expected = expm(-1j * theta * dense_from_label(label)) @ vec
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-12
