"""Dense statevector storage, Pauli-sum expectations and sampling.

A Pauli string acts without a matrix: P|k> is ``PauliString.column_phases``
times |k ^ x_mask>, so one term application costs O(2^N).  The states come
from evolve's one-body propagator; this module has no time evolution.

Shot sampling uses the Philox-4x64 counter-based generator keyed as
(seed, 0) with a zero counter, drawing uniform doubles and inverting the
cumulative distribution.  Given the same (state, shots, seed) the counts
are identical across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ORACLE_TOL
from .pauli import PauliString, PauliSum


@dataclass
class StateVector:
    """2^N complex amplitudes; qubit q is bit q of the basis index."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = 1 << self.n_qubits
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (dim,):
            raise ValueError(
                f"expected {dim} amplitudes for {self.n_qubits} qubits, "
                f"got shape {self.amplitudes.shape}"
            )

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())


@dataclass
class ShotCounts:
    """Outcome histogram of repeated Z-basis measurements."""

    n_qubits: int
    shots: int
    counts: dict[int, int]
    seed: int

    def __post_init__(self):
        total = sum(self.counts.values())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")


def basis_state(n_qubits: int, k: int) -> StateVector:
    """The computational basis state |k>."""
    dim = 1 << n_qubits
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for {n_qubits} qubits")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[k] = 1.0
    return StateVector(n_qubits, amps)


def apply_pauli_string(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """P applied to a raw amplitude array (new array)."""
    indices = np.arange(vec.shape[0], dtype=np.int64)
    out = np.empty_like(vec)
    out[indices ^ np.int64(p.x_mask)] = p.column_phases(indices) * vec
    return out


def expectation_pauli_sum(state: StateVector, a: PauliSum) -> float:
    """<state| A |state> as a real number (imaginary residue must be tiny)."""
    if a.n_qubits != state.n_qubits:
        raise ValueError(f"qubit count mismatch: {a.n_qubits} vs {state.n_qubits}")
    vec = state.amplitudes
    acc = np.zeros_like(vec)
    for coeff, string in a.terms:
        acc += coeff * apply_pauli_string(string, vec)
    value = complex(np.vdot(vec, acc))
    if abs(value.imag) > ORACLE_TOL:
        raise RuntimeError(f"expectation has imaginary residue {value.imag:.3e}")
    return value.real


def sample_z_basis(state: StateVector, shots: int, seed: int) -> ShotCounts:
    """Draw independent Z-basis outcomes from |amp|^2; deterministic per seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = state.probabilities()
    cumulative = np.cumsum(probs)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    # Scale the draws to the sum's own total, so that a draw can never fall
    # past it onto a zero-probability tail; the clip catches a product that
    # rounds up to the total.
    draws = rng.random(shots) * cumulative[-1]
    outcomes = np.searchsorted(cumulative, draws, side="right")
    outcomes = np.minimum(outcomes, np.flatnonzero(probs)[-1])
    values, freqs = np.unique(outcomes, return_counts=True)
    counts = {int(v): int(c) for v, c in zip(values, freqs)}
    return ShotCounts(n_qubits=state.n_qubits, shots=shots, counts=counts, seed=seed)
