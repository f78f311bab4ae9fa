"""Statevector storage over a set of basis states, and Z-basis sampling.

A state holds amplitudes over a strictly ascending array of basis indices
and is zero elsewhere; ``evolve.read_out`` fills the C(N, k) basis states of
one charge sector, never all 2^N.  This module has no time evolution.

Shot sampling uses the Philox-4x64 counter-based generator keyed as
(seed, 0) with a zero counter, drawing uniform doubles scaled to the total
of the cumulative distribution.  The counts are taken from the sorted
draws, with one search per basis state and no per-shot outcome array; they
equal the counts of inverting the cumulative distribution once per shot.
Given the same (state, shots, seed) the counts are identical across runs
and platforms, and equal to those of the same state with its zero
amplitudes spelled out: adding zeros does not change a cumulative sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class StateVector:
    """Amplitudes of the basis states ``indices`` (strictly ascending); every
    other amplitude is zero.  Qubit q is bit q of the basis index."""

    n_qubits: int
    indices: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.indices.ndim != 1 or self.amplitudes.shape != self.indices.shape:
            raise ValueError(
                f"expected one amplitude per index, got shapes {self.amplitudes.shape} "
                f"and {self.indices.shape}"
            )
        if np.any(np.diff(self.indices) <= 0):
            raise ValueError("basis indices must be strictly ascending")
        if self.indices.size and (self.indices[0] < 0 or self.indices[-1] >= 1 << self.n_qubits):
            raise ValueError(f"basis indices out of range for {self.n_qubits} qubits")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


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


def _uniform_draws(shots: int, seed: int) -> np.ndarray:
    """``shots`` uniform doubles in [0, 1) from Philox-4x64 keyed (seed, 0).
    A function of its own so that a test can substitute chosen draws."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(shots)


def sample_z_basis(state: StateVector, shots: int, seed: int) -> ShotCounts:
    """Draw independent Z-basis outcomes from |amp|^2; deterministic per seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = state.probabilities()
    cumulative = np.cumsum(probs)
    total = cumulative[-1] if cumulative.size else 0.0
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"cannot sample a state of total probability {total}")
    # Scale the draws to the sum's own total, so that a draw can never fall
    # past it onto a zero-probability tail.
    draws = _uniform_draws(shots, seed)
    draws *= total
    draws.sort()
    # A draw d falls in the first bin j with d < cumulative[j], so below[j],
    # the number of draws under cumulative[j], counts the draws in bins 0..j.
    # The last nonzero bin also takes a product that rounds up to the total.
    below = np.searchsorted(draws, cumulative, side="left")
    below[np.flatnonzero(probs)[-1]:] = shots
    freqs = np.diff(below, prepend=0)
    drawn = freqs > 0
    counts = {int(v): int(c) for v, c in zip(state.indices[drawn], freqs[drawn])}
    return ShotCounts(n_qubits=state.n_qubits, shots=shots, counts=counts, seed=seed)
