"""Statevector storage over a set of basis states, and Z-basis sampling.

A state holds amplitudes over a strictly ascending array of basis indices
and is zero elsewhere; ``evolve.read_out`` fills the C(N, k) basis states of
one charge sector, never all 2^N.  This module has no time evolution.

Shot sampling takes a batch of states and samples state i with the
Philox-4x64 counter-based generator keyed as (seed + i, 0) with a zero
counter, drawing uniform doubles scaled to the total of the cumulative
distribution.  The draws are made, sorted and counted from the one stream
in chunks of the larger of DRAW_CHUNK and the state's size, with one search
per basis state and chunk and no per-shot outcome array: the number of
draws below a cumulative sum adds up over any partition of the draws, so
the counts, drawn basis indices and their int64 frequencies, equal those
of inverting the cumulative distribution once per shot.  When a state takes
more than one DRAW_CHUNK, the batch is sampled on all usable cores; a
state's counts depend only on (state, shots, seed + i), never on the core
count or on which thread finishes first.  Given the same input the counts
are identical across runs and platforms, and equal to those of the same
state with its zero amplitudes spelled out: adding zeros does not change a
cumulative sum.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Iterable, Iterator
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


# The fewest draws sorted and counted at a time.  A state of more basis
# states draws its own size at a time, so that a chunk's one search of all
# its cumulative sums costs no more than sorting the chunk.  A sampling
# thread holds 8 max(2^14, C(N, k)) bytes of draws.
DRAW_CHUNK = 1 << 14


def _draw_chunks(shots: int, seed: int, size: int) -> Iterator[np.ndarray]:
    """The ``shots`` uniform doubles in [0, 1) of Philox-4x64 keyed (seed, 0),
    in consecutive chunks of at most ``size``.  Every chunk is a view of
    one buffer that the next chunk overwrites.  A function of its own so that
    a test can substitute chosen draws."""
    generator = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    buffer = np.empty(min(shots, size))
    for start in range(0, shots, size):
        chunk = buffer[: min(size, shots - start)]
        generator.random(out=chunk)
        yield chunk


def _sample_state(state: StateVector, shots: int, seed: int) -> ShotCounts:
    probs = state.probabilities()
    cumulative = np.cumsum(probs)
    total = cumulative[-1] if cumulative.size else 0.0
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"cannot sample a state of total probability {total}")
    # Scale the draws to the sum's own total, so that a draw can never fall
    # past it onto a zero-probability tail.  A draw d falls in the first bin
    # j with d < cumulative[j], so below[j], the number of draws under
    # cumulative[j] summed over the chunks, counts the draws in bins 0..j.
    below = np.zeros(cumulative.size, dtype=np.int64)
    for chunk in _draw_chunks(shots, seed, max(DRAW_CHUNK, cumulative.size)):
        chunk *= total
        chunk.sort()
        below += np.searchsorted(chunk, cumulative, side="left")
    # The last nonzero bin also takes a product that rounds up to the total.
    below[np.flatnonzero(probs)[-1]:] = shots
    freqs = np.diff(below, prepend=0)
    drawn = freqs > 0
    return ShotCounts(state.n_qubits, state.indices[drawn], freqs[drawn])


def sample_z_basis(states: Iterable[StateVector], shots: int, seed: int) -> list[ShotCounts]:
    """Draw ``shots`` independent Z-basis outcomes from |amp|^2 of each state,
    state i with the key seed + i; deterministic per seed.

    With more than one usable core and more than DRAW_CHUNK shots, the
    states go to a thread pool (the draws and the sort release the GIL).
    The states are pulled lazily, at most twice the core count ahead of the
    counts collected, so a batch never holds more than a few of them."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    # macOS and Windows have no affinity call; there every core counts as usable.
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    if workers == 1 or shots <= DRAW_CHUNK:
        return [_sample_state(state, shots, key) for key, state in enumerate(states, seed)]
    # Imported here: at module level it adds milliseconds to every start-up.
    from concurrent.futures import ThreadPoolExecutor

    counts: list[ShotCounts] = []
    pending = deque()
    with ThreadPoolExecutor(workers) as pool:
        for key, state in enumerate(states, seed):
            pending.append(pool.submit(_sample_state, state, shots, key))
            if len(pending) == 2 * workers:
                counts.append(pending.popleft().result())
        counts.extend(future.result() for future in pending)
    return counts
