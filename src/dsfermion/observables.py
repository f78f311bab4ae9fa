"""Observables of the expanding-universe fermion, from hole orbitals or shot counts.

All quantities are diagonal in the Z basis.  A site is occupied when its
qubit is |0> (occupation (1 + sigma^z)/2), and the comoving volume factor
e^{h t} multiplies density, polarization and chiral condensate.  The
two-site density correlation C carries no volume factor; it is the plain
product expectation n(0) n(1) of site occupations.

A shot estimate comes from exact int64 sums over the outcomes, rounded only
at the end: it depends on neither the outcome order, the cores nor BLAS.
Records come a block of snapshots at a time, each with a lone snapshot's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import ShotCounts


@dataclass(frozen=True)
class ShotErrors:
    """Standard errors of the shot-based estimators (sample std dev / sqrt(shots))."""

    density: tuple[float, ...]
    n_total: float
    correlation_C: float
    polarization_over_e: float
    chiral_c: float
    total_sz: float


@dataclass(frozen=True)
class ObservableRecord:
    """One snapshot's worth of observables."""

    t: float
    density: tuple[float, ...]
    n_total: float
    correlation_C: float
    polarization_over_e: float
    chiral_c: float
    energy: float | None  # None where the source cannot measure it
    total_sz: float
    norm: float | None
    source: str  # "exact" or "shots"
    shot_errors: ShotErrors | None = None


def slater_norm(orbitals: np.ndarray) -> float:
    """The norm of the Slater determinant of ``orbitals``: det(Phi^dag Phi)^(1/2)
    by Cauchy-Binet, in O(N k^2) and without its C(N, k) amplitudes."""
    return math.sqrt(abs(np.linalg.det(orbitals.conj().T @ orbitals)))


def _site_observables(occ: np.ndarray, volume=1) -> dict[str, np.ndarray]:
    """The observables linear in the site occupations ``occ`` (a row of sites
    per snapshot or shot outcome) times ``volume`` (1, or one per row), keyed
    by their ObservableRecord fields.  Integer occupations with the default
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


def exact_record(
    orbitals: np.ndarray, times, hubble: float, energies, norms
) -> list[ObservableRecord]:
    """The records of a block of snapshots from their (S, N, k) hole orbitals
    Phi, by Wick's theorem on G = Phi Phi^dag: site x holds a hole with
    probability G_xx, and sites 0 and 1 both hold holes with probability
    G_00 G_11 - |G_01|^2.  Each snapshot's values have the bits it would have
    alone.  The caller supplies the energies (they need the Hamiltonian,
    which this module deliberately does not know about) and the norms."""
    g = orbitals @ orbitals.conj().swapaxes(1, 2)
    occ = 1.0 - g.diagonal(axis1=1, axis2=2).real
    site = _site_observables(occ, np.array([math.exp(hubble * t) for t in times]))
    # C in Python scalars: numpy's |z| of an array can differ from a scalar's in the last bit.
    pairs = zip(occ[:, 0].tolist(), occ[:, 1].tolist(), g[:, 0, 1].tolist())
    columns = {name: site[name].tolist() for name in ("n_total", "polarization_over_e", "chiral_c")}
    columns["correlation_C"] = [occ0 * occ1 - abs(g01) ** 2 for occ0, occ1, g01 in pairs]
    columns["total_sz"] = (occ.shape[1] - 2.0 * np.trace(g, axis1=1, axis2=2).real).tolist()
    columns.update(energy=energies, norm=norms)
    return [
        ObservableRecord(t, tuple(density), **dict(zip(columns, row)), source="exact")
        for t, density, *row in zip(times, site["density"].tolist(), *columns.values())
    ]


def estimators_from_counts(counts: ShotCounts, times, hubble: float) -> list[ObservableRecord]:
    """The shot records of a count block, row i at times[i]: quantum
    expectations replaced by shot-frequency averages, each with its standard
    error (sample std dev / sqrt(shots)).  Every per-shot value is an integer
    (a site's occupation, N - popcount, the sums of x o_x and (-1)^x o_x,
    o_0 o_1, N - 2 popcount), so its sums S1 = sum f v and S2 = sum f v^2,
    int64 products over the outcomes the block drew, are exact, and shots
    S2 - S1^2, which can pass 2^63, is a Python int; e^{ht} scales the
    estimates rounded from them.  Neither the energy nor the norm is
    measurable in a single Z-basis setting; both are None.
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
    sums = (freqs @ values).tolist(), (freqs @ (values * values)).tolist()
    records = []
    for t, shots, row_s1, row_s2 in zip(times, freqs.sum(axis=1).tolist(), *sums):
        # e^{ht} scales the densities, n_total, polarization and chiral condensate.
        scales = [math.exp(hubble * t)] * (n + 3) + [1.0, 1.0]
        means, errs = [], []
        for scale, s1, s2 in zip(scales, row_s1, row_s2):
            var = (shots * s2 - s1 * s1) / (shots * shots * (shots - 1)) if shots > 1 else 0
            means.append(scale * (s1 / shots))
            errs.append(scale * math.sqrt(var))
        errors = ShotErrors(tuple(errs[:n]), **dict(zip(names, errs[n:])))
        fields = dict(zip(names, means[n:]), energy=None, norm=None, shot_errors=errors)
        records.append(ObservableRecord(t, tuple(means[:n]), **fields, source="shots"))
    return records
