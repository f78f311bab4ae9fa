"""First-order Trotter evolution of the time-dependent Hamiltonian, plus a
fine-grained exact propagator used as a verification oracle.

The Trotter circuit is a matchgate circuit (Terhal & DiVincenzo, PRA 65,
032325 (2002)): each step is an N x N one-body unitary, so the Trotter step
and the oracle are schemes of one product loop on the one-body matrix.  A
Trotter step takes one exponential per bulk bond (XX+YY) in ascending
order, then the boundary pair, then the mass layer.  The charge term is one
phase per charge sector, so the charge is conserved along the Trotter
trajectory at any step size.  Both start from a basis index with k holes
(bits set) and hold only its N x k hole orbitals u[:, holes], whose Slater
determinant is the state; ``read_out`` gives its C(N, k) amplitudes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NORM_DRIFT_LIMIT, ORACLE_SUBSTEP_BUDGET, ORACLE_TOL, PHASE_FLOOR
from .errors import NormDriftError, ResourceLimitError
from .model import ModelParams, hamiltonian_parts, one_body_parts, scale_factor
from .observables import ObservableRecord, exact_record, slater_norm
from .state import StateVector

# Where a step of width dt samples e^{h t}, as a fraction of dt.
TIME_NODES = {"left": 0.0, "midpoint": 0.5}
TIME_SAMPLINGS = tuple(TIME_NODES)


@dataclass(frozen=True)
class TrotterPlan:
    """Step count, step size and sampling rule for the time-dependent coefficient."""

    steps: int
    dt: float
    time_sampling: str = "midpoint"
    snapshot_every: int = 1

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.steps > 0 and self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.time_sampling not in TIME_SAMPLINGS:
            raise ValueError(f"time_sampling must be one of {TIME_SAMPLINGS}")
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")

    @classmethod
    def for_total_time(
        cls,
        t_total: float,
        steps: int,
        time_sampling: str = "midpoint",
        snapshot_every: int = 1,
    ) -> "TrotterPlan":
        dt = t_total / steps if steps > 0 else 0.0
        return cls(steps=steps, dt=dt, time_sampling=time_sampling, snapshot_every=snapshot_every)


@dataclass
class Trajectory:
    """Snapshot records (each holds its time) and N x k hole orbitals; a
    snapshot's state is the Slater determinant of its orbitals."""

    records: list[ObservableRecord]
    orbitals: list[np.ndarray]


def trotter_evolve(start: int, params: ModelParams, plan: TrotterPlan) -> Trajectory:
    """Evolve the hole orbitals of the basis state ``start``, checking the
    norm after every Trotter step and recording the orbitals and their
    observables every ``snapshot_every`` steps (the t = 0 snapshot and the
    final step are always recorded).  No C(N, k) amplitude is formed."""
    n = params.n_sites
    holes = _start_holes(start, n)
    hopping, mass = one_body_parts(n)
    # A Slater determinant's energy is tr(Phi^dag h1(t) Phi) + h (N - 2k)/4.
    charge = params.hubble * (n - 2 * len(holes)) / 4
    trajectory = Trajectory(records=[], orbitals=[])

    def snapshot(orbitals: np.ndarray, t_now: float) -> None:
        h1 = hopping + params.mass * scale_factor(params, t_now) * mass
        energy = np.vdot(orbitals, h1 @ orbitals).real + charge
        trajectory.records.append(exact_record(orbitals, t_now, params.hubble, energy=energy))
        trajectory.orbitals.append(orbitals)

    snapshot(np.eye(n)[:, holes], 0.0)
    scheme = _trotter_scheme(n, TIME_NODES[plan.time_sampling])
    for k, u in enumerate(_one_body_steps(params, plan.dt, plan.steps, scheme)):
        t_now = (k + 1) * plan.dt
        orbitals = u[:, holes]
        drift = abs(slater_norm(orbitals) - 1.0)
        if not drift <= NORM_DRIFT_LIMIT:  # a NaN norm fails too
            message = f"state norm drifted by {drift:.3e} (> {NORM_DRIFT_LIMIT:g})"
            raise NormDriftError(f"step {k + 1} of {plan.steps}: {message}")
        if (k + 1) % plan.snapshot_every == 0 or k + 1 == plan.steps:
            snapshot(orbitals, t_now)
    return trajectory


def _start_holes(start: int, n_sites: int) -> list[int]:
    """The hole sites (bits set) of the basis index ``start`` on n_sites."""
    if not 0 <= start < 1 << n_sites:
        raise ValueError(f"basis index {start} out of range for {n_sites} sites")
    return [x for x in range(n_sites) if start >> x & 1]


# A scheme lists the exponentials of one step of width dt, in the order they
# act.  Exponential j is exp(-i dt (hop * hopping + m sum_r w_r e^{h(t0 +
# c_r dt)} mass)) over its (node c_r, weight w_r) rows; ``hop`` is a scalar
# weight or a mask that keeps one bond of the hopping matrix.  The
# fourth-order commutator-free Magnus step (Blanes & Moan, Appl. Numer.
# Math. 56 (2006) 1519) samples h1 at the two Gauss nodes 1/2 -+ sqrt(3)/6.
_C1, _C2 = 0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6
_W1, _W2 = (3 - 2 * math.sqrt(3)) / 12, (3 + 2 * math.sqrt(3)) / 12
CF4 = ((_W1 + _W2, ((_C1, _W2), (_C2, _W1))), (_W1 + _W2, ((_C1, _W1), (_C2, _W2))))
CF4_ORDER = 4


def _trotter_scheme(n_sites: int, node: float) -> tuple:
    """The first-order Trotter step: one exponential per hopping bond (the
    x_mask its XX and YY strings share), the bulk bonds (two adjacent bits)
    by site and the boundary pair last, then the mass layer at ``node``."""
    bonds = {string.x_mask for _, string in hamiltonian_parts(n_sites).hopping.terms}
    scheme = []
    for bond in sorted(bonds, key=lambda b: (not b & (b >> 1), b)):
        bits = bond >> np.arange(n_sites) & 1
        scheme.append((np.outer(bits, bits) - np.diag(bits), ()))
    return (*scheme, (0.0, ((node, 1.0),)))


# Steps per batch of N x N exponentials.  Batches of 64 are as fast as
# larger ones on the presets and keep the oracle's peak memory under 1 MiB.
_BATCH_STEPS = 64


def _one_body_steps(params: ModelParams, dt: float, steps: int, scheme):
    """Yield the product u of the one-body exponentials after each of
    ``steps`` equal steps of ``scheme``.

    aH(t) without its charge term is the second quantization of the N x N
    one-body matrix h1(t) = hopping + m e^{ht} mass (model.one_body_parts);
    each exponential of it is taken through an eigendecomposition.
    """
    n = params.n_sites
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
            yield u


@functools.lru_cache(maxsize=1)
def _sector(n_sites: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The C(N, k) basis states with k holes, by ascending index: their hole
    sets (rows of ascending sites) and their indices, as read-only arrays.
    Only the last sector is kept, so that the readouts of one run share it:
    C(20, 10) hole sets take 15 MB."""
    sets = np.array(list(itertools.combinations(range(n_sites), k)), dtype=np.int64)
    indices = np.sum(np.int64(1) << sets, axis=1)
    order = np.argsort(indices)
    sets, indices = sets[order], indices[order]
    sets.flags.writeable = indices.flags.writeable = False
    return sets, indices


def read_out(orbitals: np.ndarray, hubble: float, t: float) -> StateVector:
    """The C(N, k) amplitudes of the Slater determinant of the N x k hole
    orbitals at time t.

    A basis state is the ascending set S of its holes (bits set), and its
    amplitude is det(orbitals[S]) times the charge term's phase
    exp(-i h (N - 2k)/4 t), which the determinant cannot carry (it would
    give k (N - 2)/4).
    """
    n, k = orbitals.shape
    sets, indices = _sector(n, k)
    dets = np.linalg.det(orbitals[sets])  # det(orbitals[S]) for every S
    phase = np.exp(-1j * hubble * (n - 2 * k) / 4 * t)
    return StateVector(n, indices, phase * dets)


# ---------------------------------------------------------------------------
# Exact time-ordered propagator oracle
# ---------------------------------------------------------------------------

def _propagate(start: int, params: ModelParams, t_total: float, steps: int, scheme) -> np.ndarray:
    """Hole orbitals of the basis state ``start`` after ``steps`` equal steps of ``scheme``."""
    n = params.n_sites
    holes = _start_holes(start, n)
    if steps < 1:
        raise ValueError(f"substeps must be >= 1, got {steps}")
    if t_total < 0 or not math.isfinite(t_total):
        raise ValueError(f"t_total must be finite and >= 0, got {t_total}")
    if t_total == 0:
        return np.eye(n)[:, holes]
    for u in _one_body_steps(params, t_total / steps, steps, scheme):
        pass
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

    Raise ResourceLimitError once the budget cannot reach ``tol``: when the
    last delta, shrunk 2^4 times for each doubling left within
    ``max_substeps`` (a size guard), is still >= tol.
    """
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
        if delta >= tol * 2.0 ** (CF4_ORDER * doublings_left):
            raise ResourceLimitError(
                f"oracle did not converge below {tol:g}: delta {delta:.3e} at {substeps} "
                f"substeps, and the budget of {max_substeps} substeps cannot reach it"
            )
        prev = cur


def state_distance(a: StateVector, b: StateVector) -> float:
    """Norm of the difference after aligning global phases.

    Each state is rotated by the phase of its amplitude at the index where
    ``b`` (the reference) has its largest magnitude.  Both must hold the
    same basis states.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit count mismatch: {a.n_qubits} vs {b.n_qubits}")
    if not np.array_equal(a.indices, b.indices):
        raise ValueError("the states hold different basis states")
    j = int(np.argmax(np.abs(b.amplitudes)))
    va, vb = a.amplitudes, b.amplitudes
    pa = va[j] / abs(va[j]) if abs(va[j]) > PHASE_FLOOR else 1.0
    pb = vb[j] / abs(vb[j])
    return float(np.linalg.norm(va / pa - vb / pb))

