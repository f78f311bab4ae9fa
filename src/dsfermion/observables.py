"""Observables of the expanding-universe fermion, from hole orbitals or shot counts.

All quantities are diagonal in the Z basis.  A site is occupied when its
qubit is |0> (occupation (1 + sigma^z)/2), and the comoving volume factor
e^{h t} multiplies density, polarization and chiral condensate.  The
two-site density correlation C carries no volume factor; it is the plain
product expectation n(0) n(1) of site occupations.
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
    energy: float
    total_sz: float
    norm: float
    source: str  # "exact" or "shots"
    shot_errors: ShotErrors | None = None


def slater_norm(orbitals: np.ndarray) -> float:
    """The norm of the Slater determinant of ``orbitals``: det(Phi^dag Phi)^(1/2)
    by Cauchy-Binet, in O(N k^2) and without its C(N, k) amplitudes."""
    return math.sqrt(abs(np.linalg.det(orbitals.conj().T @ orbitals)))


def exact_record(
    orbitals: np.ndarray, t: float, hubble: float, energy: float = math.nan
) -> ObservableRecord:
    """Assemble a snapshot record from the N x k hole orbitals Phi of a
    Slater determinant, by Wick's theorem on G = Phi Phi^dag: site x holds
    a hole with probability G_xx, and sites 0 and 1 both hold holes with
    probability G_00 G_11 - |G_01|^2.

    The energy is supplied by the caller (it needs the Hamiltonian, which
    this module deliberately does not know about).
    """
    n_sites = orbitals.shape[0]
    if n_sites < 2:
        raise ValueError("density correlation needs at least two sites")
    g = orbitals @ orbitals.conj().T
    occ = 1.0 - g.diagonal().real
    volume = math.exp(hubble * t)
    density = volume * occ
    positions = np.arange(n_sites, dtype=np.float64)
    return ObservableRecord(
        t=t,
        density=tuple(float(v) for v in density),
        n_total=float(density.sum()),
        correlation_C=float(occ[0] * occ[1] - abs(g[0, 1]) ** 2),
        polarization_over_e=volume * float(positions @ occ),
        chiral_c=volume * float((-1.0) ** positions @ occ),
        energy=energy,
        total_sz=float(n_sites - 2.0 * g.trace().real),
        norm=slater_norm(orbitals),
        source="exact",
    )


def estimators_from_counts(counts: ShotCounts, t: float, hubble: float) -> ObservableRecord:
    """Replace quantum expectations by shot-frequency averages.

    Standard error per quantity is the sample standard deviation of the
    per-shot values divided by sqrt(shots).  The energy is not measurable in
    a single Z-basis setting and is reported as NaN.
    """
    if not counts.counts:
        raise ValueError("empty shot counts")
    n = counts.n_qubits
    if n < 2:
        raise ValueError("density correlation needs at least two sites")
    outcomes = np.fromiter(counts.counts.keys(), dtype=np.int64, count=len(counts.counts))
    freqs = np.fromiter(counts.counts.values(), dtype=np.float64, count=len(counts.counts))
    shots = float(counts.shots)
    volume = math.exp(hubble * t)

    # Per-outcome values of each observable; shot statistics weight by counts.
    # Site x of an outcome is occupied when its bit x is clear.
    bits = (outcomes[None, :] >> np.arange(n, dtype=np.int64)[:, None]) & 1
    occ = 1.0 - bits.astype(np.float64)
    positions = np.arange(n, dtype=np.float64)
    per_density = volume * occ
    per_n_total = per_density.sum(axis=0)
    per_corr = occ[0] * occ[1]
    per_polar = volume * (positions @ occ)
    per_chiral = volume * ((-1.0) ** positions @ occ)
    per_sz = n - 2.0 * np.bitwise_count(outcomes).astype(np.float64)

    def mean_and_err(values: np.ndarray) -> tuple[float, float]:
        mean = float(values @ freqs / shots)
        if shots > 1:
            var = float(((values - mean) ** 2) @ freqs / (shots - 1.0))
        else:
            var = 0.0
        return mean, math.sqrt(max(var, 0.0) / shots)

    dens_stats = [mean_and_err(per_density[x]) for x in range(n)]
    n_total, n_total_err = mean_and_err(per_n_total)
    corr, corr_err = mean_and_err(per_corr)
    polar, polar_err = mean_and_err(per_polar)
    chiral, chiral_err = mean_and_err(per_chiral)
    sz, sz_err = mean_and_err(per_sz)

    return ObservableRecord(
        t=t,
        density=tuple(m for m, _ in dens_stats),
        n_total=n_total,
        correlation_C=corr,
        polarization_over_e=polar,
        chiral_c=chiral,
        energy=math.nan,
        total_sz=sz,
        norm=math.nan,
        source="shots",
        shot_errors=ShotErrors(
            density=tuple(e for _, e in dens_stats),
            n_total=n_total_err,
            correlation_C=corr_err,
            polarization_over_e=polar_err,
            chiral_c=chiral_err,
            total_sz=sz_err,
        ),
    )

