"""Observables of the expanding-universe fermion, from amplitudes or shot counts.

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

from .state import ShotCounts, StateVector


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


def _z_basis_values(indices: np.ndarray, n_qubits: int) -> tuple[np.ndarray, ...]:
    """Per-basis-state values that the exact record weights by |amp|^2 and the
    shot estimate by outcome frequencies, before the volume factor: occ[x, k]
    (site x occupied when bit x of k is clear), occ[0] occ[1], sum_x x occ[x],
    sum_x (-1)^x occ[x] and the charge sum_x sigma^z(x)."""
    if n_qubits < 2:
        raise ValueError("density correlation needs at least two sites")
    bits = (indices[None, :] >> np.arange(n_qubits, dtype=np.int64)[:, None]) & 1
    occ = 1.0 - bits.astype(np.float64)
    positions = np.arange(n_qubits, dtype=np.float64)
    signs = (-1.0) ** positions
    sz = n_qubits - 2.0 * np.bitwise_count(indices).astype(np.float64)
    return occ, occ[0] * occ[1], positions @ occ, signs @ occ, sz


def exact_record(
    state: StateVector, t: float, hubble: float, energy: float = math.nan
) -> ObservableRecord:
    """Assemble a snapshot record from exact amplitudes.

    The energy is supplied by the caller (it needs the Hamiltonian, which
    this module deliberately does not know about).
    """
    occ, corr, position_sum, staggered_sum, sz = _z_basis_values(state.indices, state.n_qubits)
    probs = state.probabilities()
    volume = math.exp(hubble * t)
    density = volume * (occ @ probs)
    return ObservableRecord(
        t=t,
        density=tuple(float(v) for v in density),
        n_total=float(density.sum()),
        correlation_C=float(probs @ corr),
        polarization_over_e=volume * float(probs @ position_sum),
        chiral_c=volume * float(probs @ staggered_sum),
        energy=energy,
        total_sz=float(probs @ sz),
        norm=state.norm(),
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
    outcomes = np.fromiter(counts.counts.keys(), dtype=np.int64, count=len(counts.counts))
    freqs = np.fromiter(counts.counts.values(), dtype=np.float64, count=len(counts.counts))
    shots = float(counts.shots)
    volume = math.exp(hubble * t)

    # Per-outcome values of each observable; shot statistics weight by counts.
    occ, per_corr, position_sum, staggered_sum, per_sz = _z_basis_values(outcomes, n)
    per_density = volume * occ
    per_n_total = per_density.sum(axis=0)
    per_polar = volume * position_sum
    per_chiral = volume * staggered_sum

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

