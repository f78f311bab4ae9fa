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
one Hamiltonian string at a time.  Past their reach, the bond-mask scheme
takes one N x N exponential per bond and one of the mass layer.  The
Pauli-sum expectation is the dense reference for the one-body snapshot
energy, and ``exact_evolve`` reads out the midpoint-sampled oracle.
``amplitude_record`` weights per-basis-state values by |amplitude|^2: it is
the slow reference for the Wick record that the package takes from the hole
orbitals, and it reads any state, Slater determinant or not.
The output references work one value at a time: the scalar viridis color,
the per-cell CSV line, ``json``'s own indented encoder, the per-point line
chart and the per-quantity shot mean and error are the slow references for
the package's writers and shot estimators.  The package takes a run's snapshots in blocks; the
per-snapshot Wick record, sampler and shot record below are the slow
references its blocks must match bit for bit.
"""

import functools
import itertools
import json
import math
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from dsfermion.errors import NORM_DRIFT_LIMIT, NormDriftError
from dsfermion.evolve import TIME_NODES, _propagate
from dsfermion.model import hamiltonian_at, hamiltonian_parts, scale_factor
from dsfermion.observables import (
    ObservableRecord,
    ShotErrors,
    estimators_from_counts,
    exact_record,
    slater_norm,
)
from dsfermion.state import ShotCounts, StateVector, read_out, sample_z_basis
from dsfermion.svg import (
    HEIGHT,
    LINE_COLORS,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    WIDTH,
    _fmt,
    _frame,
    _nice_ticks,
    _render,
    _scales,
    _text,
    _tick_labels,
)

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


def pauli_label(p):
    """The label of a Pauli string, character q for qubit q: the inverse of
    ``PauliString.from_label``."""
    return "".join(
        "IZXY"[2 * ((p.x_mask >> q) & 1) + ((p.z_mask >> q) & 1)] for q in range(p.n_qubits)
    )


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


def amplitude_record(state, t, hubble, energy=None):
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


def sector_reference(n_sites, k):
    """state._sector's hole sets and indices by the slow reference: every
    k-combination of the sites, sorted by basis index."""
    sets = np.array(list(itertools.combinations(range(n_sites), k)), dtype=np.int64)
    indices = np.sum(np.int64(1) << sets, axis=1)
    order = np.argsort(indices)
    return sets[order], indices[order]


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


# The midpoint rule, a second-order scheme of evolve._propagate.
MIDPOINT = ((1.0, ((0.5, 1.0),)),)


def exact_evolve(start, params, t_total, substeps):
    """The read-out state of the midpoint-sampled piecewise-constant
    propagator, exp(-i aH(t_mid) dt) on each of ``substeps`` intervals of
    [0, t_total] with t_mid its midpoint, from the basis state ``start``."""
    return read_out(_propagate(start, params, t_total, substeps, MIDPOINT), params.hubble, t_total)


def bond_mask_scheme(n_sites, node):
    """The first-order Trotter step as a scheme of evolve._propagate: one
    exponential per hopping bond, whose mask keeps that bond's entries of the
    hopping matrix (the x_mask its XX and YY strings share; the bulk bonds by
    site, then the boundary pair), then the mass layer sampled at ``node``."""
    bonds = {string.x_mask for _, string in hamiltonian_parts(n_sites).hopping.terms}
    scheme = []
    for bond in sorted(bonds, key=lambda b: (not b & (b >> 1), b)):
        bits = bond >> np.arange(n_sites) & 1
        scheme.append((np.outer(bits, bits) - np.diag(bits), ()))
    return (*scheme, (0.0, ((node, 1.0),)))


def bond_mask_trotter_orbitals(start, params, steps, dt, time_sampling="midpoint"):
    """Hole orbitals of ``start`` after ``steps`` Trotter steps of width ``dt``,
    by the slow reference: N + 1 N x N exponentials per step, through ``eigh``."""
    scheme = bond_mask_scheme(params.n_sites, TIME_NODES[time_sampling])
    return _propagate(start, params, steps * dt, steps, scheme)


# The five anchors of the heatmap's viridis gradient (svg's module docstring).
VIRIDIS_ANCHORS = (
    (0.00, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.50, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.00, (253, 231, 37)),
)


def viridis_reference(v):
    """Hex color of one value from the anchor gradient, in Python floats:
    the slow reference for svg.viridis."""
    v = min(max(v, 0.0), 1.0)
    for (v0, c0), (v1, c1) in zip(VIRIDIS_ANCHORS, VIRIDIS_ANCHORS[1:]):
        if v <= v1:
            f = (v - v0) / (v1 - v0)
            rgb = tuple(round(a + f * (b - a)) for a, b in zip(c0, c1))
            return "#{:02x}{:02x}{:02x}".format(*rgb)
    raise AssertionError(f"no anchor interval holds {v!r}")


def csv_line_reference(row):
    """One CSV line formatted cell by cell, a number with 17 significant
    digits and None as an empty cell: the slow reference for cli._write_csv."""
    return ",".join(["" if v is None else f"{v:.17g}" for v in row])


def line_chart_reference(title, xlabel, ylabel, series, meta=None):
    """svg.line_chart one point at a time, each mapped to pixels and formatted
    on its own in Python floats: the slow reference for svg.line_chart."""
    xs_all = [x for s in series for x in s.xs]
    ys_all = []
    for s in series:
        for i, y in enumerate(s.ys):
            err = s.yerr[i] if s.yerr else 0.0
            ys_all.extend((y - err, y + err))
    xlo, xhi = min(xs_all), max(xs_all)
    if xhi - xlo <= 1e-12 * max(abs(xlo), abs(xhi)):  # flat up to rounding: centre the points
        half = max(abs(xlo), 1.0) * 5e-4
        xlo, xhi = xlo - half, xhi + half
    ylo, yhi = min(ys_all), max(ys_all)
    span = yhi - ylo
    if span <= 1e-12 * max(abs(ylo), abs(yhi)):  # flat up to rounding: ticks need room
        span = max(abs(ylo), 1.0) * 1e-3
    ylo, yhi = ylo - 0.05 * span, yhi + 0.05 * span

    parts = []
    sx, sy = _scales(xlo, xhi, ylo, yhi)
    xticks, yticks = _nice_ticks(xlo, xhi), _nice_ticks(ylo, yhi)
    for tick, label in zip(xticks, _tick_labels(xticks)):
        px = sx(tick)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_BOTTOM}" x2="{_fmt(px)}" '
            f'y2="{HEIGHT - MARGIN_BOTTOM + 5}" stroke="black"/>'
        )
        parts.append(_text(px, HEIGHT - MARGIN_BOTTOM + 20, label, size=11))
    for tick, label in zip(yticks, _tick_labels(yticks)):
        py = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(py)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(_text(MARGIN_LEFT - 9, py + 4, label, size=11, anchor="end"))

    for idx, s in enumerate(series):
        color = LINE_COLORS[idx % len(LINE_COLORS)]
        points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.xs, s.ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for i, (x, y) in enumerate(zip(s.xs, s.ys)):
            px, py = sx(x), sy(y)
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.5" fill="{color}"/>')
            if s.yerr and s.yerr[i] > 0:
                lo, hi = sy(y - s.yerr[i]), sy(y + s.yerr[i])
                parts.append(
                    f'<line x1="{_fmt(px)}" y1="{_fmt(lo)}" x2="{_fmt(px)}" '
                    f'y2="{_fmt(hi)}" stroke="{color}" stroke-width="1"/>'
                )
        parts.extend((
            _text(WIDTH - MARGIN_RIGHT - 8, MARGIN_TOP + 16 + 16 * idx, s.label, 11, "end"),
            f'<line x1="{WIDTH - MARGIN_RIGHT - 90}" y1="{MARGIN_TOP + 12 + 16 * idx}" '
            f'x2="{WIDTH - MARGIN_RIGHT - 70}" y2="{MARGIN_TOP + 12 + 16 * idx}" '
            f'stroke="{color}" stroke-width="2"/>',
        ))
    _frame(parts, title, xlabel, ylabel)
    return _render(parts, meta)


def json_reference(payload):
    """``json``'s own strict, indented encoding with sorted keys and records as
    their fields: the slow reference for cli.write_summary_json."""
    return json.dumps(payload, indent=2, sort_keys=True, default=vars, allow_nan=False)


def shot_mean_and_err_reference(values, freqs, scale):
    """``scale`` times the mean and the standard error (sample std dev /
    sqrt(shots)) of the integer per-outcome ``values`` (a vector, or one row
    per quantity) weighted by the int64 ``freqs``, from the exact sums
    S1 = sum f v and S2 = sum f v^2, one quantity at a time; shots S2 - S1^2
    is taken in Python ints."""
    shots = int(freqs.sum())

    def one(s1, s2):
        s1, s2 = int(s1), int(s2)
        var = (shots * s2 - s1 * s1) / (shots * shots * (shots - 1)) if shots > 1 else 0
        return scale * (s1 / shots), scale * math.sqrt(var)

    sums = values @ freqs, (values * values) @ freqs
    return one(*sums) if values.ndim == 1 else tuple(zip(*map(one, *sums)))


def exact_record_reference(orbitals, t, hubble, energy=None):
    """The record of one snapshot from its N x k hole orbitals, by Wick's
    theorem on G = Phi Phi^dag, one snapshot at a time: the slow reference
    for observables.exact_record's blocks."""
    g = orbitals @ orbitals.conj().T
    occ = 1.0 - g.diagonal().real
    n = len(occ)
    if n < 2:
        raise ValueError("density correlation needs at least two sites")
    volume = math.exp(hubble * t)
    positions = np.arange(n, dtype=np.float64)
    density = occ if volume == 1 else volume * occ
    return ObservableRecord(
        t=t,
        density=tuple(density.tolist()),
        n_total=density.sum(axis=0).tolist(),
        correlation_C=float(occ[0] * occ[1] - abs(g[0, 1]) ** 2),
        polarization_over_e=(volume * (positions @ occ)).tolist(),
        chiral_c=(volume * ((1 - 2 * (positions % 2)) @ occ)).tolist(),
        energy=energy,
        total_sz=float(n - 2.0 * g.trace().real),
        norm=math.sqrt(abs(np.linalg.det(orbitals.conj().T @ orbitals))),
        source="exact",
    )


def record_of(orbitals, t, hubble, energy=None):
    """observables.exact_record of one snapshot, as a block of one, with its
    slater norm."""
    return exact_record(orbitals[None], [t], hubble, [energy], [slater_norm(orbitals)])[0]


def sample_reference(st, shots, seed):
    """One state's counts as the sampler's docstring states them, one state
    at a time: one multinomial draw of ``shots`` over the nonzero bins,
    normalized by their own sum, on Philox-4x64 keyed (seed, 0); the int64
    count of every basis state of ``st``."""
    probs = st.probabilities()
    nz = probs > 0
    generator = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    freqs = np.zeros(probs.shape, dtype=np.int64)
    freqs[nz] = generator.multinomial(shots, probs[nz] / probs[nz].sum())
    return freqs


def record_keys(monkeypatch):
    """The Philox key of every multinomial draw made from now on, each with
    the thread that drew it.  The sampler re-keys one bit generator per
    state, so the key is read at each draw, and the draw is checked to start
    where a fresh Philox(key=key) starts: key (key, 0), a zero counter and
    an empty buffer."""
    keys, generator = [], np.random.Generator

    class Recorded:
        def __init__(self, bit_generator):
            self._generator = generator(bit_generator)

        def multinomial(self, *args, **kwargs):
            state = self._generator.bit_generator.state
            key = int(state["state"]["key"][0])
            fresh = np.random.Philox(key=key).state
            for name in ("key", "counter"):
                assert np.array_equal(state["state"][name], fresh["state"][name]), name
            for name in ("buffer", "buffer_pos", "has_uint32", "uinteger"):
                assert np.array_equal(state[name], fresh[name]), name
            keys.append((key, threading.current_thread()))
            return self._generator.multinomial(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Recorded)
    return keys


def sample_one(st, shots, seed):
    """state.sample_z_basis of one state: a count block of one row."""
    counts = sample_z_basis(st, shots, seed)
    assert counts.freqs.shape == (1, st.indices.size)
    return counts


def one_histogram(n_qubits, outcomes, freqs):
    """A count block of one row: ``freqs`` on the basis indices ``outcomes``."""
    return ShotCounts(n_qubits, np.asarray(outcomes), np.asarray(freqs)[None])


def shot_record(counts, t, hubble):
    """observables.estimators_from_counts of a count block of one row."""
    return estimators_from_counts(counts, [t], hubble)[0]


def estimators_reference(counts, t, hubble):
    """The shot record of a count block of one row with each quantity's mean
    and error taken on its own: the slow reference for
    observables.estimators_from_counts."""
    n, freqs = counts.n_qubits, counts.freqs[0]
    occ = (~counts.outcomes >> np.arange(n, dtype=np.int64)[:, None]) & 1
    volume = math.exp(hubble * t)
    positions = np.arange(n, dtype=np.int64)
    n_total = occ.sum(axis=0)
    stats = {
        "density": shot_mean_and_err_reference(occ, freqs, volume),
        "n_total": shot_mean_and_err_reference(n_total, freqs, volume),
        "polarization_over_e": shot_mean_and_err_reference(positions @ occ, freqs, volume),
        "chiral_c": shot_mean_and_err_reference((1 - 2 * (positions % 2)) @ occ, freqs, volume),
        "correlation_C": shot_mean_and_err_reference(occ[0] * occ[1], freqs, 1.0),
        "total_sz": shot_mean_and_err_reference(2 * n_total - n, freqs, 1.0),
    }
    return ObservableRecord(
        t=t,
        **{name: mean for name, (mean, _) in stats.items()},
        energy=None,
        norm=None,
        source="shots",
        shot_errors=ShotErrors(**{name: err for name, (_, err) in stats.items()}),
    )


def counts_dict(counts):
    """A count block of one row as {outcome: count} over the outcomes drawn,
    in ascending outcome order."""
    (freqs,) = counts.freqs.tolist()
    return {o: f for o, f in zip(counts.outcomes.tolist(), freqs) if f}


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
    q = np.diag(4.0 * hamiltonian_parts(params.n_sites).charge.to_dense())
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
    hopping = parts.hopping.on_states(indices)

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
            f"after the rotation by {pauli_label(p)}"
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


def rotation_trotter_step(state, params, dt, time_sampling, k):
    """In place: Trotter step k of width ``dt``, sampling e^{h t} at the
    ``time_sampling`` node within the step, as one rotation per Hamiltonian
    string."""
    t_sample = (k + TIME_NODES[time_sampling]) * dt
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
