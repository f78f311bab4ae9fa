"""First-order Trotter evolution of the time-dependent Hamiltonian, plus a
fine-grained exact propagator used as a verification oracle.

The Trotter circuit is a matchgate circuit (Terhal & DiVincenzo, PRA 65,
032325 (2002)): a step is a fixed layer of 2 x 2 bond rotations, then a
diagonal mass phase, on the one-body orbitals.  The charge term is one
phase per charge sector, so the charge is conserved at any step size.
Both evolutions start from a basis index with k holes (bits set) and hold
only its N x k hole orbitals, whose Slater determinant is the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NORM_DRIFT_LIMIT, ORACLE_SUBSTEP_BUDGET, ORACLE_TOL
from .errors import NormDriftError, ResourceLimitError
from .model import ModelParams, one_body_parts, scale_factor
from .observables import ObservableRecord, exact_record, slater_norm
from .state import snapshot_blocks

# Where a step of width dt samples e^{h t}, as a fraction of dt.
TIME_NODES = {"left": 0.0, "midpoint": 0.5}


@dataclass
class Trajectory:
    """Snapshot records (each holds its time) and the S snapshots' (S, N, k)
    hole orbitals; a snapshot's state is the Slater determinant of its own."""

    records: list[ObservableRecord]
    orbitals: np.ndarray


def trotter_evolve(
    start: int,
    params: ModelParams,
    steps: int,
    dt: float,
    time_sampling: str = "midpoint",
    snapshot_every: int = 1,
) -> Trajectory:
    """Evolve the hole orbitals of the basis state ``start`` by ``steps``
    Trotter steps of width ``dt``, each sampling e^{h t} at its
    ``time_sampling`` node (TIME_NODES).  Check the norm after every step and
    keep the orbitals every ``snapshot_every`` steps (the t = 0 snapshot and
    the final step are always kept), then record them in blocks, each with
    the norm its step checked.  No C(N, k) amplitude is formed."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if steps > 0 and dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if time_sampling not in TIME_NODES:
        raise ValueError(f"time_sampling must be one of {tuple(TIME_NODES)}")
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
    n = params.n_sites
    holes = _start_holes(start, n)
    hopping, mass = one_body_parts(n)
    # A Slater determinant's energy is tr(Phi^dag h1(t) Phi) + h (N - 2k)/4.
    charge = params.hubble * (n - 2 * len(holes)) / 4
    count = 1 + steps // snapshot_every + (steps % snapshot_every > 0)
    kept = np.empty((count, n, len(holes)), dtype=np.complex128)
    times, energies, norms = [], [], []

    def snapshot(orbitals: np.ndarray, t_now: float, norm: float) -> None:
        h1 = hopping + params.mass * scale_factor(params, t_now) * mass
        energies.append(np.vdot(orbitals, h1 @ orbitals).real + charge)
        kept[len(times)] = orbitals
        times.append(t_now)
        norms.append(norm)

    orbitals = np.eye(n)[:, holes]
    snapshot(orbitals, 0.0, slater_norm(orbitals))
    bonds = _bond_layer(hopping, dt)
    node = TIME_NODES[time_sampling]
    for k in range(steps):
        scale = params.mass * math.exp(params.hubble * (k * dt + node * dt))
        orbitals = np.exp(-1j * dt * scale * mass.diagonal())[:, None] * (bonds @ orbitals)
        norm = slater_norm(orbitals)
        drift = abs(norm - 1.0)
        if not drift <= NORM_DRIFT_LIMIT:  # a NaN norm fails too
            message = f"state norm drifted by {drift:.3e} (> {NORM_DRIFT_LIMIT:g})"
            raise NormDriftError(f"step {k + 1} of {steps}: {message}")
        if (k + 1) % snapshot_every == 0 or k + 1 == steps:
            snapshot(orbitals, (k + 1) * dt, norm)
    records = []
    for b in snapshot_blocks(count, n, len(holes)):
        records += exact_record(kept[b], times[b], params.hubble, energies[b], norms[b])
    return Trajectory(records=records, orbitals=kept)


def _start_holes(start: int, n_sites: int) -> list[int]:
    """The hole sites (bits set) of the basis index ``start`` on n_sites."""
    if not 0 <= start < 1 << n_sites:
        raise ValueError(f"basis index {start} out of range for {n_sites} sites")
    return [x for x in range(n_sites) if start >> x & 1]


def _bond_layer(hopping: np.ndarray, dt: float) -> np.ndarray:
    """The hopping gates of one Trotter step as one N x N matrix.  Bond
    (x, y), an upper off-diagonal hopping entry c = |c| e^{i phi}, rotates
    rows x and y by [[cos, -i e^{i phi} sin], [-i e^{-i phi} sin, cos]] of
    |c| dt; the bulk bonds act by site, then the boundary pair (0, N - 1)."""
    layer = np.eye(hopping.shape[0], dtype=np.complex128)
    for x, y in sorted(np.argwhere(np.triu(hopping, 1)), key=lambda b: (b[1] - b[0] > 1, b[0])):
        c = hopping[x, y]
        cos, sin = math.cos(abs(c) * dt), math.sin(abs(c) * dt)
        phase = c / abs(c)
        rotation = np.array([[cos, -1j * phase * sin], [-1j * phase.conjugate() * sin, cos]])
        layer[[x, y]] = rotation @ layer[[x, y]]
    return layer


# ---------------------------------------------------------------------------
# Exact time-ordered propagator oracle
# ---------------------------------------------------------------------------

# A scheme lists the exponentials of one step of width dt, in the order they
# act.  Exponential j is exp(-i dt (hop * hopping + m sum_r w_r e^{h(t0 +
# c_r dt)} mass)) over its (node c_r, weight w_r) rows.  The fourth-order
# commutator-free Magnus step (Blanes & Moan, Appl. Numer. Math. 56 (2006)
# 1519) samples h1 at the two Gauss nodes 1/2 -+ sqrt(3)/6.
_C1, _C2 = 0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6
_W1, _W2 = (3 - 2 * math.sqrt(3)) / 12, (3 + 2 * math.sqrt(3)) / 12
CF4 = ((_W1 + _W2, ((_C1, _W2), (_C2, _W1))), (_W1 + _W2, ((_C1, _W1), (_C2, _W2))))
CF4_ORDER = 4

# Steps per batch of N x N exponentials.  Batches of 64 are as fast as
# larger ones on the presets and keep the oracle's peak memory under 1 MiB.
_BATCH_STEPS = 64


def _propagate(start: int, params: ModelParams, t_total: float, steps: int, scheme) -> np.ndarray:
    """Hole orbitals of the basis state ``start`` after ``steps`` equal steps
    of ``scheme``: the hole columns of the product u of its exponentials of
    h1(t) = hopping + m e^{ht} mass (model.one_body_parts), each by ``eigh``."""
    n = params.n_sites
    holes = _start_holes(start, n)
    if steps < 1:
        raise ValueError(f"substeps must be >= 1, got {steps}")
    if t_total < 0 or not math.isfinite(t_total):
        raise ValueError(f"t_total must be finite and >= 0, got {t_total}")
    if t_total == 0:
        return np.eye(n)[:, holes]
    dt = t_total / steps
    hopping, mass = one_body_parts(n)
    u = np.eye(n, dtype=np.complex128)
    for first in range(0, steps, _BATCH_STEPS):
        starts = dt * np.arange(first, min(first + _BATCH_STEPS, steps))
        batch = np.eye(n, dtype=np.complex128)
        for hop, rows in scheme:
            scale = sum((w * np.exp(params.hubble * (starts + c * dt)) for c, w in rows), 0 * starts)
            gens = hop * hopping + (params.mass * scale)[:, None, None] * mass
            energies, vecs = np.linalg.eigh(gens)
            phases = np.exp(-1j * dt * energies)[:, None, :]
            batch = (vecs * phases) @ vecs.conj().swapaxes(1, 2) @ batch
        for factor in batch:
            u = factor @ u
    return u[:, holes]


@dataclass(frozen=True)
class ExactOracleResult:
    orbitals: np.ndarray  # N x k hole orbitals at t_total
    substeps: int
    delta: float  # bound on the norm difference of the last two doublings' states


def exact_evolve_converged(
    start: int,
    params: ModelParams,
    t_total: float,
    substeps_start: int = 256,
    tol: float = ORACLE_TOL,
    max_substeps: int = ORACLE_SUBSTEP_BUDGET,
) -> ExactOracleResult:
    """Double the step count of the fourth-order commutator-free Magnus
    scheme from the basis state ``start`` until successive results differ by
    < tol in norm, as bounded from their hole orbitals.

    The steps resolve h1 only past phase = t_total ||h1(t_total)|| substeps,
    with the norm bounded by the largest absolute row sum.  Raise
    ResourceLimitError before any work if phase >= ``max_substeps`` (a size
    guard), and past phase once the last delta, shrunk 2^4 times for each
    doubling left within the budget, is still >= tol.
    """
    _start_holes(start, params.n_sites)  # a bad start is a ValueError first
    hopping, mass = one_body_parts(params.n_sites)
    h1 = hopping + params.mass * scale_factor(params, t_total) * mass
    phase = t_total * np.linalg.norm(h1, np.inf)
    failed = f"oracle did not converge below {tol:g}"
    budget = f"the budget of {max_substeps} substeps cannot reach it"
    if phase >= max_substeps:
        message = f"its steps resolve h1 only past {phase:.4g} substeps"
        raise ResourceLimitError(f"{failed}: {message}, and {budget}")
    substeps = max(1, substeps_start)
    prev = _propagate(start, params, t_total, substeps, CF4)
    while True:
        substeps *= 2
        cur = _propagate(start, params, t_total, substeps, CF4)
        # delta bounds |psi_cur - psi_prev|.  With G = prev^dag prev and O = prev^dag cur,
        # psi_cur - psi_prev is (det O / det G - 1) psi_prev, of norm ~|det G - det O|, plus
        # a part of norm^2 1 - prod cos^2 theta_i <= sum sin^2 theta_i = ||cur - prev G^-1 O||_F^2
        # over the principal angles theta_i.  G keeps the columns' drift from orthonormality
        # out of both terms; the overlap form sqrt(2 - 2 Re det O) takes the root of rounding.
        gram = prev.conj().T @ prev
        overlap = prev.conj().T @ cur
        parallel = np.linalg.det(gram) - np.linalg.det(overlap)
        orthogonal = cur - prev @ np.linalg.solve(gram, overlap)
        delta = math.hypot(abs(parallel), np.linalg.norm(orthogonal))
        if delta < tol:
            return ExactOracleResult(orbitals=cur, substeps=substeps, delta=delta)
        # Doublings before substeps reaches max_substeps.
        doublings_left = max(0, (max_substeps - 1) // substeps).bit_length()
        if substeps > phase and delta >= tol * 2.0 ** (CF4_ORDER * doublings_left):
            message = f"delta {delta:.3e} at {substeps} substeps"
            raise ResourceLimitError(f"{failed}: {message}, and {budget}")
        prev = cur

