"""Observables of the expanding-universe fermion, from hole orbitals or shot counts.

All quantities are diagonal in the Z basis.  A site is occupied when its
qubit is |0> (occupation (1 + sigma^z)/2), and the comoving volume factor
e^{h t} multiplies density, polarization and chiral condensate.  The
two-site density correlation C carries no volume factor; it is the plain
product expectation n(0) n(1) of site occupations.

A shot estimate comes from exact int64 sums over the outcomes, rounded only
at the end: it depends on neither the outcome order, the cores nor BLAS.
A block of snapshots holds its observables as columns, each row with a lone
snapshot's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import ShotCounts


@dataclass(frozen=True)
class Observables:
    """A block of S snapshots' observables as columns: ``density`` of shape
    (S, N), and ``t`` and each other value of shape (S,)."""

    t: np.ndarray
    density: np.ndarray
    n_total: np.ndarray
    correlation_C: np.ndarray
    polarization_over_e: np.ndarray
    chiral_c: np.ndarray
    energy: np.ndarray | None  # None where the source cannot measure it
    total_sz: np.ndarray
    norm: np.ndarray | None
    source: str  # "exact" or "shots"
    # Shot estimates' standard errors (sample std dev / sqrt(shots)), by field name.
    shot_errors: dict[str, np.ndarray] | None = None


def join(blocks: list[Observables]) -> Observables:
    """The rows of ``blocks`` in order, as one block."""

    def joined(parts: list):  # arrays end to end, dicts key by key, else the first
        if isinstance(parts[0], dict):
            return {name: joined([part[name] for part in parts]) for name in parts[0]}
        return np.concatenate(parts) if isinstance(parts[0], np.ndarray) else parts[0]

    return Observables(**joined([vars(block) for block in blocks]))


def slater_norm(orbitals: np.ndarray) -> float:
    """The norm of the Slater determinant of ``orbitals``: det(Phi^dag Phi)^(1/2)
    by Cauchy-Binet, in O(N k^2) and without its C(N, k) amplitudes."""
    return math.sqrt(abs(np.linalg.det(orbitals.conj().T @ orbitals)))


def _site_observables(occ: np.ndarray, volume=1) -> dict[str, np.ndarray]:
    """The observables linear in the site occupations ``occ`` (a row of sites
    per snapshot or shot outcome) times ``volume`` (1, or one per row), keyed
    by their Observables fields.  Integer occupations with the default
    volume give integer values."""
    n_sites = occ.shape[1]
    if n_sites < 2:
        raise ValueError("density correlation needs at least two sites")
    positions = np.arange(n_sites, dtype=occ.dtype)
    density = np.asarray(volume)[..., None] * occ
    rows = occ[:, None, :]  # a dot per row, not one gemv: a row's bits are its own
    return {
        "density": density,
        "n_total": density.sum(axis=1),
        "polarization_over_e": volume * (rows @ positions[:, None])[:, 0, 0],
        "chiral_c": volume * (rows @ (1 - 2 * (positions % 2))[:, None])[:, 0, 0],
    }


def exact_record(orbitals: np.ndarray, times, hubble: float, energies, norms) -> Observables:
    """The observables of a block of snapshots from their (S, N, k) hole
    orbitals Phi, by Wick's theorem on G = Phi Phi^dag: site x holds a hole
    with probability G_xx, and sites 0 and 1 both hold holes with
    probability G_00 G_11 - |G_01|^2.  Each snapshot's values have the bits
    it would have alone.  The caller supplies the energies (they need the
    Hamiltonian, which this module deliberately does not know about) and
    the norms."""
    g = orbitals @ orbitals.conj().swapaxes(1, 2)
    occ = 1.0 - g.diagonal(axis1=1, axis2=2).real
    site = _site_observables(occ, np.array([math.exp(hubble * t) for t in times]))
    # C in Python scalars: numpy's |z| of an array can differ from a scalar's in the last bit.
    pairs = zip(occ[:, 0].tolist(), occ[:, 1].tolist(), g[:, 0, 1].tolist())
    return Observables(
        t=np.asarray(times, dtype=np.float64),
        correlation_C=np.array([occ0 * occ1 - abs(g01) ** 2 for occ0, occ1, g01 in pairs]),
        energy=np.asarray(energies, dtype=np.float64),
        total_sz=occ.shape[1] - 2.0 * np.trace(g, axis1=1, axis2=2).real,
        norm=np.asarray(norms, dtype=np.float64),
        source="exact",
        **site,
    )


def estimators_from_counts(counts: ShotCounts, times, hubble: float) -> Observables:
    """The shot estimates of a count block, row i at times[i]: quantum
    expectations replaced by shot-frequency averages, each with its standard
    error (sample std dev / sqrt(shots)).  Every per-shot value is an integer
    (a site's occupation, N - popcount, the sums of x o_x and (-1)^x o_x,
    o_0 o_1, N - 2 popcount), so its sums S1 = sum f v and S2 = sum f v^2,
    int64 products over the outcomes the block drew, are exact.  The
    variance (shots S2 - S1^2) / (shots^2 (shots - 1)) is a ratio of Python
    ints, which can pass 2^63; e^{ht} scales the estimates rounded from
    them.  Neither the energy nor the norm is measurable in a single Z-basis
    setting; both are None.
    """
    n, freqs = counts.n_qubits, counts.freqs
    if not freqs.any(axis=1).all():
        raise ValueError("empty shot counts")
    drawn = np.flatnonzero(freqs.any(axis=0))
    freqs = freqs[:, drawn]
    # Site x of an outcome is occupied when its bit x is clear, that is when
    # bit x of ~outcome is set (n < 64, so the sign bit is never read).
    occ = ~counts.outcomes[drawn, None] >> np.arange(n, dtype=np.int64)
    occ &= 1
    site = _site_observables(occ)
    names = ("n_total", "polarization_over_e", "chiral_c", "correlation_C", "total_sz")
    # One column per quantity: the N densities, then the fields in ``names``.
    values = np.column_stack(
        [occ, *map(site.get, names[:3]), occ[:, 0] * occ[:, 1], 2 * site["n_total"] - n]
    )
    s1, s2 = freqs @ values, freqs @ (values * values)
    # The variance's terms as Python ints in object arrays, and their ratio
    # correctly rounded; a row of one shot has S2 = S1^2, so its ratio is 0 / 1.
    shots = freqs.sum(axis=1)[:, None]
    ints = shots.astype(object)
    variances = (ints * s2 - s1.astype(object) ** 2) / (ints * ints * np.maximum(ints - 1, 1))
    # Each quotient, product and root below is correctly rounded, as in Python floats.
    means, errors = s1 / shots, np.sqrt(variances.astype(np.float64))
    # e^{ht} scales the densities, n_total, polarization and chiral condensate.
    volume = np.array([math.exp(hubble * t) for t in times])[:, None]
    means[:, : n + 3] *= volume
    errors[:, : n + 3] *= volume
    columns = {"density": slice(n), **{name: n + j for j, name in enumerate(names)}}
    return Observables(
        np.asarray(times, dtype=np.float64), **{k: means[:, c] for k, c in columns.items()},
        energy=None, norm=None, source="shots",
        shot_errors={k: errors[:, c] for k, c in columns.items()},
    )
