"""Shared test fixtures, the independent dense oracle and the slow references.

The dense helpers build matrices the naive way (nested Kronecker products
from label strings), deliberately avoiding the package's mask-based fast
paths so the two implementations check each other.  The package starts
from a basis index and reads out one charge sector; ``basis_state`` gives
the start's one amplitude, and ``dense_state`` and ``to_dense`` convert to
and from all 2^N amplitudes, which the references below work on.  The
sector oracle is the slow reference for the package's one-body oracle: it
evolves each popcount block of aH(t) with a Taylor series, with no
fermionic structure.
The Pauli-rotation kernel and its Trotter step are the slow reference for
the package's one-body Trotter evolution: they rotate all 2^N amplitudes by
one Hamiltonian string at a time.  The Pauli-sum expectation is the dense
reference for the one-body snapshot energy, ``exact_evolve`` reads out the
midpoint-sampled oracle, and ``sample_z_basis_reference`` is the per-shot
inversion that the package's sampler replaces by counting sorted draws.
``amplitude_record`` weights per-basis-state values by |amplitude|^2: it is
the slow reference for the Wick record that the package takes from the hole
orbitals, and it reads any state, Slater determinant or not.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest

import dsfermion.state as state_module
from dsfermion.errors import NORM_DRIFT_LIMIT, NormDriftError
from dsfermion.evolve import TIME_NODES, _propagate, read_out
from dsfermion.model import build_charge_term, hamiltonian_at, hamiltonian_parts, scale_factor
from dsfermion.observables import ObservableRecord
from dsfermion.state import ShotCounts, StateVector

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


def dense_from_label(label):
    """Naive dense realization of a Pauli label (character q acts on qubit q)."""
    return kron_chain(PAULI_MATS[ch] for ch in label)


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


def basis_state(n_qubits, k):
    """The computational basis state |k>."""
    if not 0 <= k < 1 << n_qubits:
        raise ValueError(f"basis index {k} out of range for {n_qubits} qubits")
    return StateVector(n_qubits, [k], [1.0])


def dense_state(n_qubits, vec):
    """A StateVector over all 2^N basis states."""
    return StateVector(n_qubits, np.arange(1 << n_qubits), vec)


def to_dense(state):
    """All 2^N amplitudes of ``state``, zero off its basis states."""
    out = np.zeros(1 << state.n_qubits, dtype=np.complex128)
    out[state.indices] = state.amplitudes
    return out


def basis_orbitals(n_sites, index):
    """The hole orbitals of the basis state ``index``: the columns of the
    identity at its hole sites (bits set), in ascending order."""
    return np.eye(n_sites)[:, [x for x in range(n_sites) if index >> x & 1]]


def random_orbitals(rng, n_sites, k):
    """k orthonormal orbitals on n_sites, from the QR of a complex Gaussian."""
    gauss = rng.standard_normal((n_sites, k)) + 1j * rng.standard_normal((n_sites, k))
    return np.linalg.qr(gauss)[0]


def snapshot_states(trajectory, hubble):
    """The state at each snapshot of ``trajectory``, read out of its orbitals."""
    return [
        read_out(orbitals, hubble, record.t)
        for orbitals, record in zip(trajectory.orbitals, trajectory.records)
    ]


def amplitude_record(state, t, hubble, energy=math.nan):
    """The snapshot record of any state, each observable weighted by
    |amplitude|^2 over its basis states: site x is occupied when bit x of
    the basis index is clear, and sigma^z(x) is +1 there."""
    n = state.n_qubits
    bits = (state.indices[None, :] >> np.arange(n, dtype=np.int64)[:, None]) & 1
    occ = 1.0 - bits.astype(np.float64)
    positions = np.arange(n, dtype=np.float64)
    sz = n - 2.0 * np.bitwise_count(state.indices).astype(np.float64)
    probs = state.probabilities()
    volume = math.exp(hubble * t)
    density = volume * (occ @ probs)
    return ObservableRecord(
        t=t,
        density=tuple(float(v) for v in density),
        n_total=float(density.sum()),
        correlation_C=float(probs @ (occ[0] * occ[1])),
        polarization_over_e=volume * float(probs @ (positions @ occ)),
        chiral_c=volume * float(probs @ ((-1.0) ** positions @ occ)),
        energy=energy,
        total_sz=float(probs @ sz),
        norm=float(np.linalg.norm(state.amplitudes)),
        source="exact",
    )


RECORD_FIELDS = ("n_total", "correlation_C", "polarization_over_e", "chiral_c", "total_sz", "norm")


def record_deviation(a, b):
    """The largest difference between two records' densities and
    RECORD_FIELDS, each relative to the larger magnitude with a floor of 1."""
    pairs = list(zip(a.density, b.density)) + [(getattr(a, f), getattr(b, f)) for f in RECORD_FIELDS]
    return max(abs(x - y) / max(1.0, abs(x), abs(y)) for x, y in pairs)


def sector_starts(n_sites):
    """Basis starts that cover every popcount, (1 << k) - 1 for k = 0..N,
    plus the one-hole state 1 and the half-filled state 0b..0101."""
    half_filled = sum(1 << x for x in range(0, n_sites, 2))
    return sorted({(1 << k) - 1 for k in range(n_sites + 1)} | {1, half_filled})


def apply_pauli_string(p, vec):
    """P applied to a raw 2^N amplitude array (new array)."""
    indices = np.arange(vec.shape[0], dtype=np.int64)
    out = np.empty_like(vec)
    out[indices ^ np.int64(p.x_mask)] = p.column_phases(indices) * vec
    return out


def expectation_pauli_sum(state, a):
    """<state| A |state> over all 2^N amplitudes, as a real number (the
    imaginary residue of a Hermitian A must be rounding)."""
    if a.n_qubits != state.n_qubits:
        raise ValueError(f"qubit count mismatch: {a.n_qubits} vs {state.n_qubits}")
    vec = to_dense(state)
    acc = np.zeros_like(vec)
    for coeff, string in a.terms:
        acc += coeff * apply_pauli_string(string, vec)
    value = complex(np.vdot(vec, acc))
    assert abs(value.imag) < 1e-10, f"expectation has imaginary residue {value.imag:.3e}"
    return value.real


# The midpoint rule, a second-order scheme of evolve's product loop.
MIDPOINT = ((1.0, ((0.5, 1.0),)),)


def exact_evolve(start, params, t_total, substeps):
    """The read-out state of the midpoint-sampled piecewise-constant
    propagator, exp(-i aH(t_mid) dt) on each of ``substeps`` intervals of
    [0, t_total] with t_mid its midpoint, from the basis state ``start``."""
    return read_out(_propagate(start, params, t_total, substeps, MIDPOINT), params.hubble, t_total)


def sample_z_basis_reference(state, shots, seed):
    """Z-basis counts by inverting the cumulative distribution once per shot:
    the same draws as ``sample_z_basis``, each searched for its bin, then
    counted with np.unique.  The draws are looked up in dsfermion.state, so
    a test that patches them there patches both samplers."""
    probs = state.probabilities()
    cumulative = np.cumsum(probs)
    draws = state_module._uniform_draws(shots, seed) * cumulative[-1]
    ranks = np.searchsorted(cumulative, draws, side="right")
    ranks = np.minimum(ranks, np.flatnonzero(probs)[-1])
    values, freqs = np.unique(state.indices[ranks], return_counts=True)
    counts = {int(v): int(c) for v, c in zip(values, freqs)}
    return ShotCounts(n_qubits=state.n_qubits, shots=shots, counts=counts, seed=seed)


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


def charge_commutator_entries(params, t):
    """Nonzero entries of the dense [Q, aH(t)] for the total charge
    Q = sum Z(x) = 4 * charge_term.  Q is diagonal, so entry (i, j) is
    q_i aH_ij - aH_ij q_j, which is exactly 0 where q_i = q_j."""
    q = np.diag((4.0 * build_charge_term(params.n_sites)).to_dense())
    h = hamiltonian_at(params, t).to_dense()
    return np.count_nonzero(q[:, None] * h - h * q[None, :])


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


def _check_norm(state, p):
    drift = abs(np.linalg.norm(state.amplitudes) - 1.0)
    if drift > NORM_DRIFT_LIMIT:
        raise NormDriftError(
            f"state norm drifted by {drift:.3e} (> {NORM_DRIFT_LIMIT:g}) "
            f"after the rotation by {p.label()}"
        )


def apply_pauli_rotation(state, p, theta):
    """In place: state <- exp(-i theta P) state, with P a Pauli string."""
    if p.n_qubits != state.n_qubits:
        raise ValueError(f"qubit count mismatch: {p.n_qubits} vs {state.n_qubits}")
    if state.indices.size != 1 << state.n_qubits:
        raise ValueError("the rotation kernel needs all 2^N amplitudes (see dense_state)")
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
        # Hermiticity of a Pauli string gives <low|P|high> = conj(phase_low).
        amps[low] = cos_t * a + msin_t * np.conj(phase_low) * b
        amps[high] = cos_t * b + msin_t * phase_low * a
    _check_norm(state, p)
    return state


def _step_order(term):
    """Bulk bonds (two adjacent X bits) first, by site, XX before YY; then the
    boundary X string and the boundary Y string."""
    x_mask, z_mask = term[1].x_mask, term[1].z_mask
    return (not x_mask & (x_mask >> 1), x_mask, z_mask)


def rotation_trotter_step(state, params, plan, k):
    """In place: Trotter step k of ``plan``, sampling e^{h t} at the plan's
    node within the step, as one rotation per Hamiltonian string."""
    dt = plan.dt
    t_sample = (k + TIME_NODES[plan.time_sampling]) * dt
    parts = hamiltonian_parts(params.n_sites)
    for coeff, string in sorted(parts.hopping.terms, key=_step_order):
        apply_pauli_rotation(state, string, coeff * dt)
    mass_scale = params.mass * scale_factor(params, t_sample)
    # Both diagonal sums hold one Z(x) per site, in site order.
    for (c_charge, z_string), (c_mass, _) in zip(parts.charge.terms, parts.mass_term.terms):
        theta = dt * (params.hubble * c_charge + mass_scale * c_mass)
        apply_pauli_rotation(state, z_string, theta)
    return state


def hole_circular_variance(density, t, hubble):
    """Circular variance 1 - |R| of the hole distribution q(x) = 1 - n(x)/e^{ht}.

    A diagnostic of the tests, not one of the published observables: the
    lattice is periodic, so spreading is measured with the directional
    resultant R = sum_x q(x) exp(2 pi i x / N) after normalizing sum q = 1.
    Returns 0 for a hole-free state.
    """
    density = np.asarray(density, dtype=np.float64)
    n = density.shape[0]
    q = 1.0 - density / math.exp(hubble * t)
    total = q.sum()
    if total <= 1e-12:
        return 0.0
    q = q / total
    resultant = abs(np.sum(q * np.exp(2j * np.pi * np.arange(n) / n)))
    return float(1.0 - resultant)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
