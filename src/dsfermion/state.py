"""Statevector storage over a set of basis states, and Z-basis sampling.

A state holds amplitudes over a strictly ascending array of basis indices
and is zero elsewhere; ``evolve.read_out`` fills the C(N, k) basis states of
one charge sector, never all 2^N.  This module has no time evolution.

A run keeps only the outcome histogram of its shots, and that histogram is
multinomial(shots, |amp|^2).  Shot sampling takes a batch of states and
draws state i's histogram with one ``multinomial`` call of numpy's
Generator on the Philox-4x64 counter-based bit generator keyed as
(seed + i, 0) with a zero counter: O(C(N, k)) work, whatever the shot
count.  The counts, the drawn basis indices and their int64 frequencies,
depend only on (state, shots, seed + i) and numpy's multinomial stream,
never on the core count, thread order or BLAS.  They repeat exactly for
one numpy version and C math library (numpy's binomial draws call log and
exp); numpy may change its distribution algorithms between versions
(NEP 19), and a pinned test catches such a change.  Zero amplitudes are
left out before the draw, so a basis state of probability 0 is never
drawn, and a state gives the same counts as the same state with its zero
amplitudes spelled out.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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
    """Outcome histogram of repeated Z-basis measurements: the drawn basis
    indices ``outcomes`` (ascending) and their int64 counts ``freqs`` (all > 0)."""

    n_qubits: int
    outcomes: np.ndarray
    freqs: np.ndarray


def _sample_state(state: StateVector, shots: int, seed: int) -> ShotCounts:
    probs = state.probabilities()
    # Only the nonzero bins are passed, so that the remainder numpy gives the
    # last bin can never land on a basis state of probability 0; summing
    # over them alone gives a state and its zeros spelled out the same p.
    nz = np.flatnonzero(probs)
    weights = probs[nz]
    total = weights.sum()
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"cannot sample a state of total probability {total}")
    generator = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    freqs = generator.multinomial(shots, weights / total)
    drawn = freqs > 0
    return ShotCounts(state.n_qubits, state.indices[nz][drawn], freqs[drawn])


def sample_z_basis(states: Iterable[StateVector], shots: int, seed: int) -> list[ShotCounts]:
    """Draw ``shots`` independent Z-basis outcomes from |amp|^2 of each state,
    state i with the key seed + i; deterministic per seed.  The states are
    pulled one at a time, each sampled before the next is pulled."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return [_sample_state(state, shots, key) for key, state in enumerate(states, seed)]
