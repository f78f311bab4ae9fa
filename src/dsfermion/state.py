"""The amplitude view of a state: storage over a set of basis states, the
readout of Slater determinants, the distance of two states, and Z-basis
sampling.

A state holds amplitudes over a strictly ascending array of basis indices
and is zero elsewhere; a block of S states on the same basis states holds
one row of amplitudes per state.  ``read_out`` fills the C(N, k) basis
states of one charge sector, never all 2^N, for one snapshot or a block of
them.  This module has no time evolution.

A run keeps only the outcome histograms of its shots, and each is
multinomial(shots, |amp|^2).  Shot sampling takes a block of states and
draws state i's histogram with one ``multinomial`` call of numpy's
Generator on the Philox-4x64 counter-based bit generator keyed as
(seed + i, 0) with a zero counter: O(C(N, k)) work per state, whatever the
shot count.  The counts depend only on (state, shots, seed + i) and numpy's
multinomial stream, never on the block size, the core count, thread order
or BLAS.  They repeat exactly for one numpy version and C math library
(numpy's binomial draws call log and exp); numpy may change its
distribution algorithms between versions (NEP 19), and a pinned test
catches such a change.  Zero amplitudes are left out before the draw, so a
basis state of probability 0 is never drawn, and a state gives the same
counts as the same state with its zero amplitudes spelled out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PHASE_FLOOR


@dataclass
class StateVector:
    """Amplitudes of the basis states ``indices`` (strictly ascending), a row
    per state of a block, and zero elsewhere.  Qubit q is bit q of the index."""

    n_qubits: int
    indices: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.indices.ndim != 1 or self.amplitudes.shape[-1:] != self.indices.shape:
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


@functools.lru_cache(maxsize=1)
def _sector(n_sites: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The C(N, k) basis states with k holes, by ascending index: their hole
    sets (rows of ascending sites) and their indices, as read-only arrays.
    Only the last sector is kept, so that the readouts of one run share it:
    C(20, 10) hole sets take 15 MB.

    Rank r is unranked in the combinatorial number system, whose order is
    ascending index: its sites c_k > ... > c_1 are the greedy terms of
    r = C(c_k, k) + ... + C(c_1, 1)."""
    ranks = np.arange(math.comb(n_sites, k), dtype=np.int64)
    sets = np.empty((len(ranks), k), dtype=np.int64)
    indices = np.zeros(len(ranks), dtype=np.int64)
    for i in range(k, 0, -1):
        table = np.array([math.comb(c, i) for c in range(n_sites)], dtype=np.int64)
        sites = np.searchsorted(table, ranks, side="right") - 1
        ranks -= table[sites]
        sets[:, i - 1] = sites
        indices |= np.int64(1) << sites
    sets.flags.writeable = indices.flags.writeable = False
    return sets, indices


# A gather (the G = Phi Phi^dag of a block of snapshots, or k x k minors)
# takes at most this many entries at once (16 MiB): all C(20, 10) minors
# of one snapshot at once would take 296 MB.
_READOUT_BLOCK = 1 << 20


def snapshot_blocks(count: int, n_sites: int, k: int) -> list[slice]:
    """``count`` snapshots of N x k hole orbitals in consecutive blocks of as
    many as keep their gathers, S N^2 for G and S C(N, k) k^2 for the minors,
    within _READOUT_BLOCK; a snapshot past it is a block of one."""
    size = max(1, _READOUT_BLOCK // max(n_sites * n_sites, math.comb(n_sites, k) * k * k))
    return [slice(first, min(first + size, count)) for first in range(0, count, size)]


def read_out(orbitals: np.ndarray, hubble: float, t) -> StateVector:
    """The C(N, k) amplitudes of the Slater determinants of N x k hole
    orbitals: one snapshot's (N, k) orbitals at time t, or a block's
    (S, N, k) at its S times t, with amplitudes of shape (C,) or (S, C).

    A basis state is the ascending set S of its holes (bits set), and its
    amplitude is det(orbitals[S]) times the charge term's phase
    exp(-i h (N - 2k)/4 t), which the determinant cannot carry (it would
    give k (N - 2)/4).  Each determinant is taken on its own, so the blocks
    of minors leave the amplitudes' bits as one gather would.  A minor's LU
    overflows 1/pivot on entries far below the smallest normal float: a
    determinant that is not finite raises ValueError.
    """
    *lead, n, k = orbitals.shape
    sets, indices = _sector(n, k)
    # Not reshape(-1, n, k): with k = 0 there is no entry to infer -1 from.
    block = orbitals.reshape(math.prod(lead), n, k)
    times = np.reshape(t, len(block))
    rows = max(1, _READOUT_BLOCK // max(1, len(block) * k * k))
    dets = np.empty((len(block), len(sets)), dtype=np.complex128)  # det(orbitals[S]) for every S
    with np.errstate(all="ignore"):  # checked below
        for first in range(0, len(sets), rows):
            dets[:, first : first + rows] = np.linalg.det(block[:, sets[first : first + rows]])
    # Each |det| <= 1 (Hadamard), so a sum is finite exactly when every term is.
    lost = np.flatnonzero(~np.isfinite(dets.sum(axis=1)))
    if lost.size:
        raise ValueError(
            f"the readout at t = {times[lost[0]]:g} lost a determinant to orbital entries below "
            f"the smallest normal float; rerun with a longer step, or --shots 0 --oracle off"
        )
    phases = np.exp(-1j * hubble * (n - 2 * k) / 4 * times)
    return StateVector(n, indices, (phases[:, None] * dets).reshape(*lead, len(sets)))


def state_distance(a: StateVector, b: StateVector) -> float:
    """Norm of the difference after aligning global phases.

    Each state is rotated by the phase of its amplitude at the index where
    ``b`` (the reference) has its largest magnitude.  Both must hold the
    same basis states.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit count mismatch: {a.n_qubits} vs {b.n_qubits}")
    if not np.array_equal(a.indices, b.indices):
        raise ValueError("the states hold different basis states")
    j = int(np.argmax(np.abs(b.amplitudes)))
    va, vb = a.amplitudes, b.amplitudes
    pa = va[j] / abs(va[j]) if abs(va[j]) > PHASE_FLOOR else 1.0
    pb = vb[j] / abs(vb[j])
    return float(np.linalg.norm(va / pa - vb / pb))


@dataclass
class ShotCounts:
    """Outcome histograms of repeated Z-basis measurements of a block of
    states: int64 ``freqs[i, j]`` counts state i's outcomes ``outcomes[j]``."""

    n_qubits: int
    outcomes: np.ndarray
    freqs: np.ndarray


def sample_z_basis(states: StateVector, shots: int, seed: int) -> ShotCounts:
    """Draw ``shots`` independent Z-basis outcomes from |amp|^2 of each state
    of the block ``states`` (one state is a block of one), state i with the
    key seed + i, on the states' basis indices; deterministic per seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = states.probabilities().reshape(-1, states.indices.size)
    freqs = np.zeros(probs.shape, dtype=np.int64)
    bitgen = np.random.Philox(key=0)  # re-keyed per state below, as fresh as Philox(key=seed + i)
    generator, fresh = np.random.Generator(bitgen), bitgen.state  # a zero counter, no buffer
    for i, row in enumerate(probs):
        # Only the nonzero bins are passed, so that numpy's remainder for the
        # last bin can never land on a basis state of probability 0; summing
        # over them alone gives a state and its zeros spelled out the same p.
        nz = np.flatnonzero(row)
        weights = row[nz]
        total = weights.sum()
        if not (math.isfinite(total) and total > 0):
            raise ValueError(f"cannot sample a state of total probability {total}")
        fresh["state"]["key"] = np.array([seed + i, 0], dtype=np.uint64)
        bitgen.state = fresh
        freqs[i, nz] = generator.multinomial(shots, weights / total)
    return ShotCounts(states.n_qubits, states.indices, freqs)
