"""Shared test fixtures, the independent dense oracle and the sector oracle.

The dense helpers build matrices the naive way (nested Kronecker products
from label strings), deliberately avoiding the package's mask-based fast
paths so the two implementations check each other.  The sector oracle is
the slow reference for the package's one-body oracle: it evolves each
popcount block of aH(t) with a Taylor series, with no fermionic structure.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from dsfermion.model import hamiltonian_parts, scale_factor

I2 = np.eye(2, dtype=complex)
PAULI_MATS = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
LOWERING = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|


def kron_chain(ops):
    """Tensor product with qubit 0 as the least significant index bit."""
    out = np.array([[1.0 + 0j]])
    for op in reversed(list(ops)):
        out = np.kron(out, op)
    return out


def dense_from_label(label, phase=1):
    """Naive dense realization of a Pauli label (character q acts on qubit q)."""
    return phase * kron_chain(PAULI_MATS[ch] for ch in label)


def dense_from_terms(n_qubits, terms):
    """Dense realization of [(coeff, label), ...]."""
    dim = 1 << n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, label in terms:
        out += coeff * dense_from_label(label)
    return out


def naive_jw_annihilation(n_sites, x):
    """chi(x) built directly from per-site matrices: lowering at x, -iZ below."""
    ops = []
    for j in range(n_sites):
        if j < x:
            ops.append(-1j * PAULI_MATS["Z"])
        elif j == x:
            ops.append(LOWERING)
        else:
            ops.append(I2)
    return kron_chain(ops)


def random_label(rng, n_qubits, allow_identity=True):
    chars = "IXYZ" if allow_identity else "XYZ"
    while True:
        label = "".join(rng.choice(list(chars)) for _ in range(n_qubits))
        if allow_identity or set(label) != {"I"}:
            return label


def random_state(rng, n_qubits):
    dim = 1 << n_qubits
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


# Independent transcription of the published N=8 Hamiltonian pieces, used to
# cross-check the package's builders and fixture.
H1_LABELS = (
    ["I" * q + "XX" + "I" * (6 - q) for q in range(7)]
    + ["I" * q + "YY" + "I" * (6 - q) for q in range(7)]
    + ["XZZZZZZX", "YZZZZZZY"]
)
H1_TERMS = [(0.5, label) for label in H1_LABELS]
H2_TERMS = [(0.5, "I" * q + "Z" + "I" * (7 - q)) for q in range(8)]
H3_TERMS = [(0.5 * (-1) ** q, "I" * q + "Z" + "I" * (7 - q)) for q in range(8)]


def dense_n8_hamiltonian(hubble, mass, t):
    """-h1 + (h/2) h2 + (m e^{ht}) h3, realized naively."""
    out = -dense_from_terms(8, H1_TERMS)
    out += (hubble / 2.0) * dense_from_terms(8, H2_TERMS)
    out += mass * np.exp(hubble * t) * dense_from_terms(8, H3_TERMS)
    return out


# The sector oracle cuts the Taylor series of each step at the fewest terms
# whose remainder bound is below this, an order under the rounding of a unit
# vector.
SERIES_REMAINDER = 1e-17


@dataclass(frozen=True)
class SectorBlock:
    """The parts of aH(t) on the basis states of one popcount; row and column
    r of each part belong to basis state ``indices[r]``.  Read-only arrays."""

    indices: np.ndarray  # the sector's basis indices, ascending
    hopping: np.ndarray  # C(N, k) x C(N, k)
    charge: np.ndarray  # diagonal
    mass: np.ndarray  # diagonal


@functools.cache
def sector_block(n_sites, popcount):
    """The popcount-k block of each part of aH(t), built once per (N, k).

    The total charge commutes with every part, so the blocks between
    different popcounts are zero.  A single XX or YY string does leave the
    sector (|..00..> to |..11..>), but the XX and YY entries there cancel
    exactly in their sum, so those targets are dropped.
    """
    parts = hamiltonian_parts(n_sites)
    every = np.arange(1 << n_sites, dtype=np.int64)
    indices = every[np.bitwise_count(every) == popcount]
    hopping = np.zeros((len(indices), len(indices)), dtype=np.complex128)
    for coeff, string in parts.hopping.terms:
        targets = indices ^ np.int64(string.x_mask)
        cols = np.flatnonzero(np.bitwise_count(targets) == popcount)
        rows = np.searchsorted(indices, targets[cols])
        hopping[rows, cols] += coeff * string.column_phases(indices[cols])

    def diagonal(op):
        return np.real(sum(c * s.column_phases(indices) for c, s in op.terms))

    block = SectorBlock(indices, hopping, diagonal(parts.charge), diagonal(parts.mass_term))
    for array in vars(block).values():  # the cache hands the block to every caller
        array.flags.writeable = False
    return block


def _series_order(x):
    """Fewest K with x^(K+1)/(K+1)! < SERIES_REMAINDER: the Taylor series of
    exp to order K is then exact to rounding for a generator of norm <= x."""
    order, remainder = 0, x
    while remainder >= SERIES_REMAINDER:
        order += 1
        remainder *= x / (order + 1)
    return order


def _abs_coeff_sum(op):
    return sum(abs(c) for c, _ in op.terms)


def sector_taylor_evolve(params, t_total, substeps, vec):
    """The midpoint propagator exp(-i aH(t_mid) dt) per substep, applied to
    the 2^N amplitudes ``vec`` one popcount sector at a time."""
    parts = hamiltonian_parts(params.n_sites)
    dt = t_total / substeps
    # Cheap upper bound on ||aH|| from the term coefficients.
    coeff_bound = _abs_coeff_sum(parts.hopping)
    coeff_bound += params.hubble * _abs_coeff_sum(parts.charge)
    coeff_bound += params.mass * scale_factor(params, t_total) * _abs_coeff_sum(parts.mass_term)
    # Split a wide substep into equal series steps of bound <= 1, all at the
    # substep's midpoint Hamiltonian.
    pieces = max(1, math.ceil(coeff_bound * dt))
    width = dt / pieces
    order = _series_order(coeff_bound * width)

    out = np.zeros_like(vec)
    popcounts = np.bitwise_count(np.arange(len(vec), dtype=np.int64))
    for popcount in np.unique(popcounts[vec != 0]):
        block = sector_block(params.n_sites, int(popcount))
        static = -1j * width * (block.hopping + np.diag(params.hubble * block.charge))
        mass = -1j * width * block.mass
        sub = vec[block.indices]
        for k in range(substeps):
            gen = static + np.diag(params.mass * scale_factor(params, (k + 0.5) * dt) * mass)
            for _ in range(pieces):
                # exp(gen) sub to order `order`, in Horner form.
                acc = sub
                for n in range(order, 0, -1):
                    acc = sub + (gen @ acc) / n
                sub = acc
        out[block.indices] = sub
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
