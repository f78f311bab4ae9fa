"""Observables of the expanding-universe fermion, from hole orbitals or shot counts.

All quantities are diagonal in the Z basis.  A site is occupied when its
qubit is |0> (occupation (1 + sigma^z)/2), and the comoving volume factor
e^{h t} multiplies density, polarization and chiral condensate.  The
two-site density correlation C carries no volume factor; it is the plain
product expectation n(0) n(1) of site occupations.

A shot estimate comes from exact int64 sums over the outcomes, rounded only
at the end: it depends on neither the outcome order, the cores nor BLAS.
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


def _site_observables(occ: np.ndarray, volume: float = 1) -> dict[str, np.ndarray]:
    """The observables linear in the site occupations ``occ`` (sites along
    axis 0: a vector, or one column per shot outcome) times ``volume``,
    keyed by their ObservableRecord fields.  Integer occupations with the
    default volume give integer values."""
    n_sites = occ.shape[0]
    if n_sites < 2:
        raise ValueError("density correlation needs at least two sites")
    positions = np.arange(n_sites, dtype=occ.dtype)
    density = occ if volume == 1 else volume * occ
    return {
        "density": density,
        "n_total": density.sum(axis=0),
        "polarization_over_e": volume * (positions @ occ),
        "chiral_c": volume * ((1 - 2 * (positions % 2)) @ occ),
    }


def exact_record(
    orbitals: np.ndarray, t: float, hubble: float, energy: float | None = None
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
    linear = {
        name: value.tolist() for name, value in _site_observables(occ, math.exp(hubble * t)).items()
    }
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
    """Replace quantum expectations by shot-frequency averages, each with its
    standard error (sample std dev / sqrt(shots)).  Every per-shot value is an
    integer (a site's occupation, N - popcount, the sums of x o_x and
    (-1)^x o_x, o_0 o_1, N - 2 popcount), so its sums S1 = sum f v and
    S2 = sum f v^2 are exact, and shots S2 - S1^2, which can pass 2^63, is a
    Python int; e^{ht} scales the estimates rounded from them.  Neither the
    energy nor the norm is measurable in a single Z-basis setting; both are None.
    """
    if not counts.outcomes.size:
        raise ValueError("empty shot counts")
    n, freqs = counts.n_qubits, counts.freqs
    # Site x of an outcome is occupied when its bit x is clear, that is when
    # bit x of ~outcome is set (n < 64, so the sign bit is never read).
    occ = ~counts.outcomes >> np.arange(n, dtype=np.int64)[:, None]
    occ &= 1
    site = _site_observables(occ)
    names = ("n_total", "polarization_over_e", "chiral_c", "correlation_C", "total_sz")
    # One row per quantity: the N densities, then the fields in ``names``.
    values = np.vstack([occ, *map(site.get, names[:3]), occ[0] * occ[1], 2 * site["n_total"] - n])
    shots = int(freqs.sum())
    sums = zip((values @ freqs).tolist(), ((values * values) @ freqs).tolist())
    # e^{ht} scales the densities, n_total, polarization and chiral condensate.
    volume = math.exp(hubble * t)
    scales = [volume] * (n + 3) + [1.0, 1.0]
    means, errs = [], []
    for scale, (s1, s2) in zip(scales, sums):
        var = (shots * s2 - s1 * s1) / (shots * shots * (shots - 1)) if shots > 1 else 0
        means.append(scale * (s1 / shots))
        errs.append(scale * math.sqrt(var))
    return ObservableRecord(
        t=t,
        density=tuple(means[:n]),
        **dict(zip(names, means[n:])),
        energy=None,
        norm=None,
        source="shots",
        shot_errors=ShotErrors(tuple(errs[:n]), **dict(zip(names, errs[n:]))),
    )
