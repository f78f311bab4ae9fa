"""Dense statevector storage, Pauli-rotation kernels, expectations and sampling.

The rotation kernel never materializes a matrix: exp(-i theta P) pairs
amplitude indices k and k ^ x_mask, with the per-pair phase taken from
``PauliString.column_phases``, so one term application costs O(2^N).

Shot sampling uses the Philox-4x64 counter-based generator keyed as
(seed, 0) with a zero counter, drawing uniform doubles and inverting the
cumulative distribution.  Given the same (state, shots, seed) the counts
are identical across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NORM_DRIFT_LIMIT, ORACLE_TOL, NormDriftError
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


def _check_norm(state: StateVector, p: PauliString) -> None:
    drift = abs(state.norm() - 1.0)
    if drift > NORM_DRIFT_LIMIT:
        raise NormDriftError(
            f"state norm drifted by {drift:.3e} (> {NORM_DRIFT_LIMIT:g}) "
            f"after the rotation by {p.label()}"
        )


def apply_pauli_string(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """P applied to a raw amplitude array (new array)."""
    indices = np.arange(vec.shape[0], dtype=np.int64)
    out = np.empty_like(vec)
    out[indices ^ np.int64(p.x_mask)] = p.column_phases(indices) * vec
    return out


def apply_pauli_rotation(state: StateVector, p: PauliString, theta: float) -> StateVector:
    """In place: state <- exp(-i theta P) state, with P a phase +1 string."""
    if p.n_qubits != state.n_qubits:
        raise ValueError(f"qubit count mismatch: {p.n_qubits} vs {state.n_qubits}")
    if p.phase != 1:
        raise ValueError("rotation generator must have phase +1")
    amps = state.amplitudes
    indices = np.arange(amps.shape[0], dtype=np.int64)
    if p.x_mask == 0:
        # Diagonal string: P|k> = f(k)|k>, a pure phase per basis state.
        amps *= np.exp(-1j * theta * p.column_phases(indices))
    else:
        # Pair k with k ^ x_mask; pick the half where the pivot bit is clear.
        pivot = p.x_mask & (-p.x_mask)
        low = indices[(indices & pivot) == 0]
        high = low ^ np.int64(p.x_mask)
        phase_low = p.column_phases(low)  # P|low> = phase_low |high>
        cos_t = math.cos(theta)
        msin_t = -1j * math.sin(theta)
        a = amps[low].copy()
        b = amps[high]
        # Hermiticity of a phase +1 string gives <low|P|high> = conj(phase_low).
        amps[low] = cos_t * a + msin_t * np.conj(phase_low) * b
        amps[high] = cos_t * b + msin_t * phase_low * a
    _check_norm(state, p)
    return state


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
