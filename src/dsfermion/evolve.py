"""First-order Trotter evolution of the time-dependent Hamiltonian, plus a
fine-grained exact propagator used as a verification oracle.

Term order within one Trotter step is fixed: bulk bonds in ascending order
(XX then YY on each bond), then the boundary string pair, then the diagonal
layer of single-qubit Z rotations.  XX and YY on the same bond commute, so
the paired application equals the exponential of their sum exactly; that sum
commutes with the total charge sum of Z, which is why the charge is conserved
along the Trotter trajectory at any step size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EXACT_QUBIT_LIMIT, ORACLE_TOL, NormDriftError, ResourceLimitError
from .model import ModelParams, hamiltonian_at, hamiltonian_parts, one_body_parts, scale_factor
from .observables import ObservableRecord, exact_record
from .pauli import PauliString
from .state import StateVector, apply_pauli_rotation, expectation_pauli_sum

TIME_SAMPLINGS = ("left", "midpoint")


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

    def sample_time(self, step_index: int) -> float:
        """Time at which e^{h t} is sampled inside step ``step_index``."""
        if self.time_sampling == "left":
            return step_index * self.dt
        return (step_index + 0.5) * self.dt


@dataclass
class Trajectory:
    """Snapshot times, observable records and the state at each snapshot."""

    times: list[float]
    records: list[ObservableRecord]
    states: list[StateVector]


def _step_order(term: tuple[float, PauliString]) -> tuple[bool, int, int]:
    """Bulk bonds (two adjacent X bits) first, by site, XX before YY; then the
    boundary X string and the boundary Y string."""
    x_mask, z_mask = term[1].x_mask, term[1].z_mask
    return (not x_mask & (x_mask >> 1), x_mask, z_mask)


def trotter_step(state: StateVector, params: ModelParams, t_sample: float, dt: float) -> StateVector:
    """One first-order Trotter step of width dt, sampling e^{h t} at t_sample."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    parts = hamiltonian_parts(params.n_sites)
    for coeff, string in sorted(parts.hopping.terms, key=_step_order):
        apply_pauli_rotation(state, string, coeff * dt)
    mass_scale = params.mass * scale_factor(params, t_sample)
    # Both diagonal sums hold one Z(x) per site, in site order.
    for (c_charge, z_string), (c_mass, _) in zip(parts.charge.terms, parts.mass_term.terms):
        theta = dt * (params.hubble * c_charge + mass_scale * c_mass)
        apply_pauli_rotation(state, z_string, theta)
    return state


def trotter_evolve(initial: StateVector, params: ModelParams, plan: TrotterPlan) -> Trajectory:
    """Iterate trotter_step, recording the state and its observables every
    ``snapshot_every`` steps (the t = 0 snapshot and the final step are
    always recorded)."""
    if initial.n_qubits != params.n_sites:
        raise ValueError(
            f"state has {initial.n_qubits} qubits but the model has {params.n_sites} sites"
        )
    state = initial.copy()

    times: list[float] = []
    records: list[ObservableRecord] = []
    states: list[StateVector] = []

    def snapshot(t_now: float) -> None:
        energy = expectation_pauli_sum(state, hamiltonian_at(params, t_now))
        times.append(t_now)
        records.append(exact_record(state, t_now, params.hubble, energy=energy))
        states.append(state.copy())

    snapshot(0.0)
    for k in range(plan.steps):
        try:
            trotter_step(state, params, plan.sample_time(k), plan.dt)
        except NormDriftError as exc:
            raise NormDriftError(f"step {k + 1} of {plan.steps}: {exc}") from exc
        if (k + 1) % plan.snapshot_every == 0 or k + 1 == plan.steps:
            snapshot((k + 1) * plan.dt)
    return Trajectory(times=times, records=records, states=states)


# ---------------------------------------------------------------------------
# Exact time-ordered propagator oracle
# ---------------------------------------------------------------------------

# A scheme lists the exponentials of one step of width dt, in the order they
# act; exponential j is exp(-i dt sum_r w_r h1(t0 + c_r dt)) over its
# (node c_r, weight w_r) rows.  The midpoint rule is second order.  The
# fourth-order commutator-free Magnus step (Blanes & Moan, Appl. Numer.
# Math. 56 (2006) 1519) samples h1 at the two Gauss nodes 1/2 -+ sqrt(3)/6.
_C1, _C2 = 0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6
_W1, _W2 = (3 - 2 * math.sqrt(3)) / 12, (3 + 2 * math.sqrt(3)) / 12
MIDPOINT = (((0.5, 1.0),),)
CF4 = (((_C1, _W2), (_C2, _W1)), ((_C1, _W1), (_C2, _W2)))
CF4_ORDER = 4

# Steps per batch of N x N exponentials.  Batches of 64 are as fast as
# larger ones on the presets and keep the oracle's peak memory under 1 MiB.
_BATCH_STEPS = 64


def _propagate(
    initial: StateVector, params: ModelParams, t_total: float, steps: int, scheme
) -> StateVector:
    """Apply ``steps`` equal steps of ``scheme`` to ``initial``.

    aH(t) is quadratic in the fermions: the product is taken on the N x N
    one-body matrix h1(t) = hopping + m e^{ht} mass (model.one_body_parts),
    whose weighted sums are exponentiated through their eigendecompositions.
    A basis state is the ascending set of its holes (bits set), and the
    amplitude from hole set T to hole set S of popcount k is det(u[S, T])
    times the charge term's phase exp(-i h (N - 2k)/4 t), which the
    determinant cannot carry (it would give k (N - 2)/4).
    """
    n = initial.n_qubits
    if n > EXACT_QUBIT_LIMIT:
        raise ResourceLimitError(f"exact propagator limited to {EXACT_QUBIT_LIMIT} qubits, got {n}")
    if n != params.n_sites:
        raise ValueError(f"state has {n} qubits but the model has {params.n_sites} sites")
    if steps < 1:
        raise ValueError(f"substeps must be >= 1, got {steps}")
    if t_total < 0 or not math.isfinite(t_total):
        raise ValueError(f"t_total must be finite and >= 0, got {t_total}")
    if t_total == 0:
        return initial.copy()

    hopping, mass = one_body_parts(n)
    dt = t_total / steps
    u = np.eye(n, dtype=np.complex128)
    for first in range(0, steps, _BATCH_STEPS):
        starts = dt * np.arange(first, min(first + _BATCH_STEPS, steps))
        batch = np.eye(n, dtype=np.complex128)
        for rows in scheme:
            weight = sum(w for _, w in rows)
            scale = sum(w * np.exp(params.hubble * (starts + c * dt)) for c, w in rows)
            gens = weight * hopping + (params.mass * scale)[:, None, None] * mass
            energies, vecs = np.linalg.eigh(gens)
            phases = np.exp(-1j * dt * energies)[:, None, :]
            batch = (vecs * phases) @ vecs.conj().swapaxes(1, 2) @ batch
        for factor in batch:
            u = factor @ u

    amps = initial.amplitudes
    out = np.zeros_like(amps)
    popcounts = np.bitwise_count(np.arange(initial.dim, dtype=np.int64))
    for k in map(int, np.unique(popcounts[amps != 0])):
        sets = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
        sets = sets.reshape(math.comb(n, k), k)
        u_rows = u[sets]  # (C(N, k), k, N): the rows of u for each hole set S
        vec = np.zeros(len(sets), dtype=np.complex128)
        for index in np.flatnonzero((popcounts == k) & (amps != 0)):
            holes = [x for x in range(n) if index >> x & 1]
            vec += amps[index] * np.linalg.det(u_rows[:, :, holes])
        phase = np.exp(-1j * params.hubble * (n - 2 * k) / 4 * t_total)
        out[np.sum(np.int64(1) << sets, axis=1)] = phase * vec
    return StateVector(n, out)


def exact_evolve(
    initial: StateVector,
    params: ModelParams,
    t_total: float,
    substeps: int,
) -> StateVector:
    """Midpoint-sampled piecewise-constant propagator.

    Splits [0, t_total] into ``substeps`` intervals and applies
    exp(-i aH(t_mid) dt) on each, t_mid the interval midpoint.  Second-order
    accurate in the substep width.
    """
    return _propagate(initial, params, t_total, substeps, MIDPOINT)


@dataclass(frozen=True)
class ExactOracleResult:
    state: StateVector
    substeps: int
    delta: float  # norm difference between the last two doublings


def exact_evolve_converged(
    initial: StateVector,
    params: ModelParams,
    t_total: float,
    substeps_start: int = 256,
    tol: float = ORACLE_TOL,
    max_substeps: int = 1 << 18,
) -> ExactOracleResult:
    """Double the step count of the fourth-order commutator-free Magnus
    scheme until successive results differ by < tol in norm.

    Raise ResourceLimitError once the budget cannot reach ``tol``: when the
    last delta, shrunk 2^4 times for each doubling left within
    ``max_substeps`` (a size guard), is still >= tol.
    """
    substeps = max(1, substeps_start)
    prev = _propagate(initial, params, t_total, substeps, CF4)
    while True:
        substeps *= 2
        cur = _propagate(initial, params, t_total, substeps, CF4)
        delta = float(np.linalg.norm(cur.amplitudes - prev.amplitudes))
        if delta < tol:
            return ExactOracleResult(state=cur, substeps=substeps, delta=delta)
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
    ``b`` (the reference) has its largest magnitude.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit count mismatch: {a.n_qubits} vs {b.n_qubits}")
    j = int(np.argmax(np.abs(b.amplitudes)))
    va, vb = a.amplitudes, b.amplitudes
    pa = va[j] / abs(va[j]) if abs(va[j]) > 1e-12 else 1.0
    pb = vb[j] / abs(vb[j])
    return float(np.linalg.norm(va / pa - vb / pb))

