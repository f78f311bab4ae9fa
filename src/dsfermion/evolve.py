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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ORACLE_TOL, SERIES_REMAINDER, NormDriftError, ResourceLimitError
from .model import ModelParams, hamiltonian_at, hamiltonian_parts, scale_factor, sector_block
from .observables import ObservableRecord, exact_record
from .pauli import PauliString, PauliSum
from .state import StateVector, apply_pauli_rotation, expectation_pauli_sum

EXACT_QUBIT_LIMIT = 12

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

def _series_order(x: float) -> int:
    """Fewest K with x^(K+1)/(K+1)! < SERIES_REMAINDER: the Taylor series of
    exp to order K is then exact to rounding for a generator of norm <= x."""
    order, remainder = 0, x
    while remainder >= SERIES_REMAINDER:
        order += 1
        remainder *= x / (order + 1)
    return order


def _abs_coeff_sum(op: PauliSum) -> float:
    return sum(abs(c) for c, _ in op.terms)


def exact_evolve(
    initial: StateVector,
    params: ModelParams,
    t_total: float,
    substeps: int,
) -> StateVector:
    """Midpoint-sampled piecewise-constant propagator.

    Splits [0, t_total] into ``substeps`` intervals and applies
    exp(-i aH(t_mid) dt) on each, t_mid the interval midpoint.  Second-order
    accurate in the substep width; callers double ``substeps`` until two
    successive results agree (see exact_evolve_converged).

    aH(t) conserves the popcount, so each charge sector the state occupies
    is evolved on its own block (model.sector_block).
    """
    if initial.n_qubits > EXACT_QUBIT_LIMIT:
        raise ResourceLimitError(
            f"exact propagator limited to {EXACT_QUBIT_LIMIT} qubits, got {initial.n_qubits}"
        )
    if initial.n_qubits != params.n_sites:
        raise ValueError(
            f"state has {initial.n_qubits} qubits but the model has {params.n_sites} sites"
        )
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    if t_total < 0 or not math.isfinite(t_total):
        raise ValueError(f"t_total must be finite and >= 0, got {t_total}")
    if t_total == 0:
        return initial.copy()

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

    amps = initial.amplitudes
    out = np.zeros_like(amps)
    popcounts = np.bitwise_count(np.arange(initial.dim, dtype=np.int64))
    for popcount in np.unique(popcounts[amps != 0]):
        block = sector_block(params.n_sites, int(popcount))
        static = -1j * width * (block.hopping + np.diag(params.hubble * block.charge))
        mass = -1j * width * block.mass
        vec = amps[block.indices]
        for k in range(substeps):
            gen = static + np.diag(params.mass * scale_factor(params, (k + 0.5) * dt) * mass)
            for _ in range(pieces):
                # exp(gen) vec to order `order`, in Horner form.
                acc = vec
                for n in range(order, 0, -1):
                    acc = vec + (gen @ acc) / n
                vec = acc
        out[block.indices] = vec
    return StateVector(initial.n_qubits, out)


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
    """Double the substep count until successive results differ by < tol in
    norm; past ``max_substeps`` (a size guard) raise ResourceLimitError."""
    substeps = max(1, substeps_start)
    prev = exact_evolve(initial, params, t_total, substeps)
    while True:
        substeps *= 2
        cur = exact_evolve(initial, params, t_total, substeps)
        delta = float(np.linalg.norm(cur.amplitudes - prev.amplitudes))
        if delta < tol:
            return ExactOracleResult(state=cur, substeps=substeps, delta=delta)
        if substeps >= max_substeps:
            raise ResourceLimitError(
                f"oracle did not converge below {tol:g} within {max_substeps} substeps "
                f"(last delta {delta:.3e})"
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

