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


def _site_observables(occ: np.ndarray, t: float, hubble: float) -> dict[str, np.ndarray]:
    """The observables linear in the site occupations ``occ`` (sites along
    axis 0: a vector, or one column per shot outcome), keyed by their
    ObservableRecord fields."""
    n_sites = occ.shape[0]
    if n_sites < 2:
        raise ValueError("density correlation needs at least two sites")
    volume = math.exp(hubble * t)
    positions = np.arange(n_sites, dtype=np.float64)
    density = volume * occ
    return {
        "density": density,
        "n_total": density.sum(axis=0),
        "polarization_over_e": volume * (positions @ occ),
        "chiral_c": volume * ((-1.0) ** positions @ occ),
    }


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
    g = orbitals @ orbitals.conj().T
    occ = 1.0 - g.diagonal().real
    linear = {name: value.tolist() for name, value in _site_observables(occ, t, hubble).items()}
    linear["density"] = tuple(linear["density"])
    return ObservableRecord(
        t=t,
        **linear,
        correlation_C=float(occ[0] * occ[1] - abs(g[0, 1]) ** 2),
        energy=energy,
        total_sz=float(len(occ) - 2.0 * g.trace().real),
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
    outcomes = np.fromiter(counts.counts.keys(), dtype=np.int64, count=len(counts.counts))
    freqs = np.fromiter(counts.counts.values(), dtype=np.float64, count=len(counts.counts))
    shots = float(counts.shots)

    # Per-outcome values of each observable; shot statistics weight by counts.
    # Site x of an outcome is occupied when its bit x is clear.
    bits = (outcomes[None, :] >> np.arange(n, dtype=np.int64)[:, None]) & 1
    occ = 1.0 - bits.astype(np.float64)
    per_shot = _site_observables(occ, t, hubble)
    per_shot["correlation_C"] = occ[0] * occ[1]
    per_shot["total_sz"] = n - 2.0 * np.bitwise_count(outcomes).astype(np.float64)

    def mean_and_err(values: np.ndarray) -> tuple[float, float]:
        mean = float(values @ freqs / shots)
        if shots > 1:
            var = float(((values - mean) ** 2) @ freqs / (shots - 1.0))
        else:
            var = 0.0
        return mean, math.sqrt(max(var, 0.0) / shots)

    # The density is one mean and error per site, taken row by row.
    stats = {
        name: tuple(zip(*map(mean_and_err, values))) if name == "density" else mean_and_err(values)
        for name, values in per_shot.items()
    }
    return ObservableRecord(
        t=t,
        **{name: mean for name, (mean, _) in stats.items()},
        energy=math.nan,
        norm=math.nan,
        source="shots",
        shot_errors=ShotErrors(**{name: err for name, (_, err) in stats.items()}),
    )
