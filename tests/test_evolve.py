"""Trotter stepping and the exact-propagator oracle, cross-checked with scipy."""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from dsfermion.errors import NormDriftError, ResourceLimitError
from dsfermion import evolve
import dsfermion.state as state_module
from dsfermion.model import ModelParams, hamiltonian_at, one_body_parts
from dsfermion.evolve import TIME_NODES, exact_evolve_converged, trotter_evolve
from dsfermion.pauli import PauliString, PauliSum
from dsfermion.state import read_out, state_distance

from conftest import (
    amplitude_record,
    basis_state,
    bond_mask_trotter_orbitals,
    dense_from_label,
    dense_state,
    exact_evolve,
    expectation_pauli_sum,
    random_state,
    record_deviation,
    rotation_trotter_step,
    sector_reference,
    sector_starts,
    sector_taylor_evolve,
    snapshot_states,
    to_dense,
)


def dense_trotter_step(n, params, t_sample, dt, vec):
    """Compose the per-term exponentials densely, in the library's fixed order."""
    out = vec.copy()
    for x in range(n - 1):
        for axis in ("X", "Y"):
            label = "I" * x + axis + axis + "I" * (n - x - 2)
            out = expm(1j * (dt / 2) * dense_from_label(label)) @ out
    boundary_coeff = -((-1) ** (n // 2)) / 2.0
    for axis in ("X", "Y"):
        label = axis + "Z" * (n - 2) + axis
        out = expm(-1j * dt * boundary_coeff * dense_from_label(label)) @ out
    mass_coeff = params.mass * math.exp(params.hubble * t_sample) / 2.0
    for x in range(n):
        theta = dt * (params.hubble / 4.0 + mass_coeff * (-1) ** x)
        label = "I" * x + "Z" + "I" * (n - x - 1)
        out = expm(-1j * theta * dense_from_label(label)) @ out
    return out


def one_step(start, params, time_sampling="midpoint"):
    """The state after one Trotter step of width 0.1 from the basis state ``start``."""
    trajectory = trotter_evolve(start, params, 1, 0.1, time_sampling=time_sampling)
    return snapshot_states(trajectory, params.hubble)[-1]


def dense_midpoint_product(params, t_total, substeps, vec):
    """Independent realization of the piecewise-constant midpoint propagator,
    applied to the 2^N amplitudes ``vec`` (one start per column)."""
    out = vec.copy()
    dt = t_total / substeps
    for k in range(substeps):
        h = hamiltonian_at(params, (k + 0.5) * dt).to_dense()
        out = expm(-1j * dt * h) @ out
    return out


class TestTrotterStep:
    def test_filled_state_changes_by_global_phase_only(self):
        params = ModelParams(8, 0.1, 1.0)
        probs = np.abs(to_dense(one_step(0, params))) ** 2
        assert abs(probs[0] - 1.0) < 1e-12
        assert np.max(probs[1:]) < 1e-12

    def test_massless_step_ignores_sample_time(self):
        params = ModelParams(4, 0.1, 0.0)
        for start in sector_starts(4):
            a = one_step(start, params, time_sampling="left")
            b = one_step(start, params, time_sampling="midpoint")
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.amplitudes, b.amplitudes), start

    def test_matches_dense_factor_composition(self):
        # N = 4 and N = 6 give both signs of the boundary pair.
        for n in (4, 6):
            params = ModelParams(n, 0.1, 1.0)
            for start in sector_starts(n):
                st = one_step(start, params)
                expected = dense_trotter_step(n, params, 0.05, 0.1, to_dense(basis_state(n, start)))
                assert np.max(np.abs(to_dense(st) - expected)) < 1e-12, (n, start)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            trotter_evolve(0, ModelParams(4, 0.1, 0.0), 1, 0.0)


class TestTrotterEvolve:
    def test_charge_conserved_along_trajectory(self):
        params = ModelParams(8, 0.1, 0.0)
        trajectory = trotter_evolve(1, params, 10, 0.1)
        sz0 = trajectory.records[0].total_sz
        assert abs(sz0 - 6.0) < 1e-12
        for record in trajectory.records:
            assert abs(record.total_sz - sz0) < 1e-10

    def test_charge_conserved_at_large_dt(self):
        # Bond pairs commute with the total charge, so conservation holds at any step size.
        params = ModelParams(8, 0.1, 1.0)
        trajectory = trotter_evolve(1, params, 2, 0.5)
        for record in trajectory.records:
            assert abs(record.total_sz - 6.0) < 1e-10

    def test_zero_steps_keeps_initial_record_only(self):
        params = ModelParams(8, 0.1, 0.0)
        trajectory = trotter_evolve(1, params, 0, 0.0)
        assert [record.t for record in trajectory.records] == [0.0]
        assert len(trajectory.records) == 1

    def test_times_strictly_increasing_from_zero(self):
        params = ModelParams(8, 0.1, 1.0)
        trajectory = trotter_evolve(1, params, 10, 0.1, snapshot_every=3)
        times = [record.t for record in trajectory.records]
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))
        # snapshots at 0, 0.3, 0.6, 0.9 and the forced final one at 1.0
        assert len(times) == 5

    def test_snapshot_norms_stay_unit(self):
        params = ModelParams(8, 0.1, 1.0)
        trajectory = trotter_evolve(1, params, 10, 0.1)
        for record in trajectory.records:
            assert abs(record.norm - 1.0) < 1e-10

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
    def test_nan_norm_is_drift(self, monkeypatch):
        # NaN compares false with any limit; the check must still fail.  The
        # start's hole is at site 0, so the bond layer's [0, 0] entry reaches
        # its orbital.
        bond_layer = evolve._bond_layer

        def nan_layer(*args):
            layer = bond_layer(*args)
            layer[0, 0] = np.nan
            return layer

        monkeypatch.setattr(evolve, "_bond_layer", nan_layer)
        with pytest.raises(NormDriftError, match=r"^step 1 of 10: state norm drifted by nan"):
            trotter_evolve(1, ModelParams(8, 0.1, 1.0), 10, 0.1)

    def test_eigenstate_distribution_frozen(self):
        params = ModelParams(8, 0.1, 1.0)
        states = snapshot_states(trotter_evolve(0, params, 10, 0.1), params.hubble)
        initial = states[0].probabilities()
        for st in states[1:]:
            assert np.max(np.abs(st.probabilities() - initial)) < 1e-12

    def test_size_mismatch(self):
        # 2^8 is a basis index of a larger lattice.
        with pytest.raises(ValueError, match="out of range for 8 sites"):
            trotter_evolve(1 << 8, ModelParams(8, 0.1, 0.0), 1, 0.1)

    def test_matches_rotation_reference(self):
        # Every step of 20 against the 2^N rotation kernel in its term order,
        # from a start at every popcount, one hole and half filling: the
        # read-out amplitudes, and the Wick record with its det norm against
        # the amplitude-weighted record of the read-out and reference states.
        for n in (4, 6, 8, 10):
            for mass, sampling, start in itertools.product(
                (0.0, 1.0), TIME_NODES, sector_starts(n)
            ):
                params = ModelParams(n, 0.3, mass)
                trajectory = trotter_evolve(start, params, 20, 0.05, time_sampling=sampling)
                states = snapshot_states(trajectory, params.hubble)
                reference = dense_state(n, to_dense(basis_state(n, start)))
                for k, (record, st) in enumerate(zip(trajectory.records, states)):
                    if k > 0:
                        rotation_trotter_step(reference, params, 0.05, sampling, k - 1)
                    dev = np.max(np.abs(to_dense(st) - reference.amplitudes))
                    assert dev < 1e-12, (n, mass, sampling, start, k)
                    for ref in (st, reference):
                        dev = record_deviation(record, amplitude_record(ref, record.t, params.hubble))
                        assert dev < 1e-12, (n, mass, sampling, start, k)


    def test_matches_bond_mask_reference_past_dense_reach(self):
        # Beyond the 2^N reference: the final orbitals against the product of
        # one eigh exponential per bond and one of the mass layer, for one
        # hole and for half filling, up to the largest lattice.
        for n in (12, 20, 62):
            params = ModelParams(n, 0.1, 1.0)
            for start in (1, sum(1 << x for x in range(0, n, 2))):
                ours = trotter_evolve(start, params, 10, 0.1, snapshot_every=10).orbitals[-1]
                theirs = bond_mask_trotter_orbitals(start, params, 10, 0.1)
                assert np.max(np.abs(ours - theirs)) < 1e-12, (n, start)

    def test_step_keeps_orbitals_orthonormal(self):
        # The rotations and phases are exact to rounding, so 2^12 steps at
        # N = 8 and k = 8 keep Phi^dag Phi = 1 to 1.7e-12; a step built from
        # eigh exponentials drifts by 1.2e-11.
        steps = 1 << 12
        params = ModelParams(8, 0.1, 1.0)
        phi = trotter_evolve(255, params, steps, 1.0 / steps, snapshot_every=steps).orbitals[-1]
        assert np.linalg.norm(phi.conj().T @ phi - np.eye(8)) < 5e-12

    def test_snapshot_energy_matches_dense_expectation(self):
        # The one-body energy tr(u[:, T]^dag h1 u[:, T]) + h (N - 2k)/4
        # against <state| aH(t) |state> over all 2^N amplitudes.
        for n in (4, 6, 8, 10):
            params = ModelParams(n, 0.3, 1.0)
            for start in sector_starts(n):
                trajectory = trotter_evolve(start, params, 20, 0.1)
                states = snapshot_states(trajectory, params.hubble)
                for record, st in zip(trajectory.records, states):
                    dense = expectation_pauli_sum(st, hamiltonian_at(params, record.t))
                    assert abs(record.energy - dense) < 1e-12, (n, start, record.t)

    def test_out_of_range_start_rejected_before_work(self, monkeypatch):
        # Dropping the high bits of 2^4 + 1 would silently start from 1.
        def no_parts(*args):
            raise AssertionError("the evolution started")

        monkeypatch.setattr(evolve, "one_body_parts", no_parts)
        params = ModelParams(4, 0.1, 1.0)
        for start in (-1, 1 << 4, (1 << 4) + 1):
            with pytest.raises(ValueError, match="out of range for 4 sites"):
                trotter_evolve(start, params, 1, 0.1)
            with pytest.raises(ValueError, match="out of range for 4 sites"):
                exact_evolve_converged(start, params, 1.0)

    def test_rejects_bad_arguments_before_work(self, monkeypatch):
        # Each bad argument is named before the evolution starts, and before
        # the start, out of range here, is checked.
        def no_parts(*args):
            raise AssertionError("the evolution started")

        monkeypatch.setattr(evolve, "one_body_parts", no_parts)
        params = ModelParams(4, 0.1, 1.0)
        sampling = ("left", "midpoint")
        for args, kwargs, message in (
            ((-1, 0.1), {}, "steps must be >= 0, got -1"),
            ((5, 0.0), {}, "dt must be positive, got 0.0"),
            ((5, 0.1), {"time_sampling": "right"}, f"time_sampling must be one of {sampling}"),
            ((5, 0.1), {"snapshot_every": 0}, "snapshot_every must be >= 1, got 0"),
        ):
            with pytest.raises(ValueError) as info:
                trotter_evolve(1 << 4, params, *args, **kwargs)
            assert str(info.value) == message

    def test_one_hole_state_keeps_n_amplitudes(self):
        # N = 20: the trajectory holds one 20 x 1 orbital per snapshot, and
        # its read-out states the 20 one-hole basis states, not 2^20.
        trajectory = trotter_evolve(1, ModelParams(20, 0.1, 1.0), 10, 0.1)
        assert [phi.shape for phi in trajectory.orbitals] == [(20, 1)] * 11
        for st in snapshot_states(trajectory, 0.1)[1:]:
            assert st.indices.tolist() == [1 << x for x in range(20)]
            assert st.amplitudes.shape == (20,)
            assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12

    def test_trotter_path_reads_nothing_out(self, monkeypatch):
        # Half filling at N = 20 has C(20, 10) = 184756 basis states; the
        # evolution, its norm checks and its records never form them.
        def no_readout(*args):
            raise AssertionError("the Trotter path read out amplitudes")

        monkeypatch.setattr(state_module, "_sector", no_readout)
        monkeypatch.setattr(state_module, "read_out", no_readout)
        half_filled = sum(1 << x for x in range(0, 20, 2))
        params = ModelParams(20, 0.1, 1.0)
        trajectory = trotter_evolve(half_filled, params, 10, 0.1)
        assert [phi.shape for phi in trajectory.orbitals] == [(20, 10)] * 11
        assert all(abs(r.norm - 1.0) < 1e-12 for r in trajectory.records)

    def test_readout_refuses_a_lost_determinant(self):
        # One step of 2.2e-311 leaves orbital entries below the smallest
        # normal float.  The LU of the minor on sites {2, 3} takes the
        # reciprocal of such a pivot, which overflows: its determinant was
        # NaN, with a RuntimeWarning.
        t = 2.225073858507e-311
        trajectory = trotter_evolve(0b0011, ModelParams(4, 0.0, 0.0), 1, t, time_sampling="left")
        with pytest.raises(ValueError, match="smallest normal float"):
            read_out(trajectory.orbitals[-1], 0.0, t)

    def test_readout_in_blocks_keeps_every_bit(self, monkeypatch):
        # Half filling at N = 10 gathers 252 minors of 5 x 5 in one block;
        # blocks of 10 minors (the last one of 2) give the same amplitudes,
        # for the real orbitals at t = 0 and the complex ones after.
        params = ModelParams(10, 0.1, 1.0)
        trajectory = trotter_evolve(0b0101010101, params, 3, 0.1)
        whole = snapshot_states(trajectory, 0.1)
        monkeypatch.setattr(state_module, "_READOUT_BLOCK", 10 * 5 * 5)
        blocks = snapshot_states(trajectory, 0.1)
        for a, b in zip(whole, blocks):
            assert a.amplitudes.dtype == b.amplitudes.dtype == np.complex128
            assert a.amplitudes.tobytes() == b.amplitudes.tobytes()

    def test_sector_matches_sorted_combinations(self):
        # Every popcount at each even N <= 16, and the edges of the largest
        # lattice: shapes, dtypes and every entry.
        cases = [(n, k) for n in range(4, 17, 2) for k in range(n + 1)]
        for n, k in cases + [(62, 0), (62, 1), (62, 2), (62, 61), (62, 62)]:
            sets, indices = state_module._sector(n, k)
            ref_sets, ref_indices = sector_reference(n, k)
            assert sets.dtype == indices.dtype == np.int64, (n, k)
            assert sets.shape == ref_sets.shape, (n, k)
            assert np.array_equal(sets, ref_sets) and np.array_equal(indices, ref_indices), (n, k)

    def test_readouts_share_one_read_only_sector(self):
        # A snapshot's and the oracle's readouts of one sector share its
        # arrays, which no caller can change.
        params = ModelParams(8, 0.1, 1.0)
        trajectory = trotter_evolve(0b0101, params, 2, 0.1)
        a, b = snapshot_states(trajectory, 0.1)[1:]
        oracle = exact_evolve(0b0101, params, 0.2, 4)
        assert a.indices is b.indices is oracle.indices
        assert not a.indices.flags.writeable
        with pytest.raises(ValueError):
            a.indices[0] = 0


class TestExactEvolve:
    def test_zero_time_is_identity(self):
        params = ModelParams(4, 0.1, 1.0)
        for start in sector_starts(4):
            out = exact_evolve(start, params, 0.0, 4)
            assert np.array_equal(to_dense(out), to_dense(basis_state(4, start)))

    def test_massless_independent_of_substeps(self, monkeypatch):
        # The oracle works on the one-body matrix and never builds a dense matrix.
        def no_dense(self):
            raise AssertionError("the oracle built a dense matrix")

        monkeypatch.setattr(PauliSum, "to_dense", no_dense)
        monkeypatch.setattr(PauliString, "to_dense", no_dense)
        one_body_parts.cache_clear()
        params = ModelParams(6, 0.1, 0.0)
        a = exact_evolve(1, params, 1.0, 3)
        b = exact_evolve(1, params, 1.0, 64)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12

    def test_matches_scipy_midpoint_product(self):
        # t = 20 in 2 substeps is wide enough that each substep is split into
        # several series steps; t = 0.8 in 7 takes one step per substep.
        # The starts cover every charge sector.
        cases = ((4, 0.8, 7), (4, 20.0, 2), (6, 0.8, 5), (8, 0.8, 3), (10, 0.8, 2))
        for n, t_total, substeps in cases:
            params = ModelParams(n, 0.1, 1.0)
            starts = sector_starts(n)
            vecs = np.stack([to_dense(basis_state(n, start)) for start in starts], axis=1)
            theirs = dense_midpoint_product(params, t_total, substeps, vecs)
            for start, expected in zip(starts, theirs.T):
                ours = exact_evolve(start, params, t_total, substeps)
                assert np.max(np.abs(to_dense(ours) - expected)) < 1e-12, (n, t_total)

    def test_second_order_convergence(self):
        params = ModelParams(8, 0.1, 1.0)
        results = {n: exact_evolve(1, params, 1.0, n) for n in (64, 128, 256)}
        d1 = np.linalg.norm(results[64].amplitudes - results[128].amplitudes)
        d2 = np.linalg.norm(results[128].amplitudes - results[256].amplitudes)
        assert 3.0 < d1 / d2 < 5.0

    def test_matches_sector_taylor_reference(self):
        # From a start at every popcount, one hole and half filling; the
        # charge phase differs from sector to sector.
        for n in (4, 6, 8, 10):
            params = ModelParams(n, 0.3, 1.0)
            for start in sector_starts(n):
                ours = exact_evolve(start, params, 1.3, 3)
                theirs = sector_taylor_evolve(params, 1.3, 3, to_dense(basis_state(n, start)))
                assert np.max(np.abs(to_dense(ours) - theirs)) < 1e-12, (n, start)

    def test_cf4_fourth_order_convergence(self):
        # One hole: the orbital differences are the amplitude differences.
        params = ModelParams(8, 0.1, 1.0)
        results = {n: evolve._propagate(1, params, 1.0, n, evolve.CF4) for n in (8, 16, 32)}
        d1 = np.linalg.norm(results[8] - results[16])
        d2 = np.linalg.norm(results[16] - results[32])
        assert 12.0 < d1 / d2 < 20.0

    def test_converged_cf4_matches_converged_midpoint(self):
        # paper-m1: the two schemes converge to the same propagator.
        params = ModelParams(8, 0.1, 1.0)
        substeps, prev = 256, exact_evolve(1, params, 1.0, 256)
        while True:
            substeps *= 2
            cur = exact_evolve(1, params, 1.0, substeps)
            if np.linalg.norm(cur.amplitudes - prev.amplitudes) < 1e-10:
                break
            prev = cur
        cf4 = read_out(exact_evolve_converged(1, params, 1.0).orbitals, params.hubble, 1.0)
        assert np.linalg.norm(cf4.amplitudes - cur.amplitudes) < 1e-10

    def test_measured_doubling_delta_at_256(self):
        # Frozen measurement on the massive preset: the 256 -> 512 doubling
        # moves the state by ~1.3e-7, so reaching the 1e-10 convergence
        # threshold by midpoint doubling takes ~2^15 substeps.
        params = ModelParams(8, 0.1, 1.0)
        a = exact_evolve(1, params, 1.0, 256)
        b = exact_evolve(1, params, 1.0, 512)
        delta = float(np.linalg.norm(a.amplitudes - b.amplitudes))
        assert 1.0e-7 < delta < 1.7e-7

    def test_converged_meets_tolerance(self):
        params = ModelParams(8, 0.1, 1.0)
        result = exact_evolve_converged(1, params, 1.0, substeps_start=64, tol=1e-7)
        assert result.delta < 1e-7
        assert result.substeps >= 128

    def test_converged_gives_up(self):
        params = ModelParams(8, 0.1, 1.0)
        with pytest.raises(ResourceLimitError):
            exact_evolve_converged(1, params, 1.0, substeps_start=2, tol=1e-14, max_substeps=8)

    def test_gives_up_when_budget_cannot_converge(self, monkeypatch):
        # t_total ||h1(t_total)|| <= 4 (2 + 3 e^6) ~ 4.8e3: no step count
        # within 4096 substeps resolves h1, so the oracle gives up before it
        # propagates at all.
        propagate = evolve._propagate
        calls = []

        def counted(*args):
            calls.append(args[3])
            return propagate(*args)

        monkeypatch.setattr(evolve, "_propagate", counted)
        params = ModelParams(4, 1.5, 3.0)
        with pytest.raises(ResourceLimitError, match="cannot reach"):
            exact_evolve_converged(1, params, 4.0, max_substeps=4096)
        assert calls == []

    def test_oracle_reads_nothing_out(self, monkeypatch):
        # Half filling at N = 20: the oracle converges on the 20 x 10 hole
        # orbitals and never forms the C(20, 10) = 184756 amplitudes.
        def no_readout(*args):
            raise AssertionError("the oracle read out amplitudes")

        monkeypatch.setattr(state_module, "_sector", no_readout)
        monkeypatch.setattr(state_module, "read_out", no_readout)
        half_filled = sum(1 << x for x in range(0, 20, 2))
        result = exact_evolve_converged(half_filled, ModelParams(20, 0.1, 1.0), 1.0)
        assert result.orbitals.shape == (20, 10)
        assert result.delta < 1e-10

    def test_stopping_rule_bounds_readout_difference(self, monkeypatch):
        # The delta of one doubling n -> 2n, taken from the hole orbitals,
        # against the norm of the difference of the two read-out states: an
        # upper bound up to rounding, and tight to 1e-12.  One propagator per
        # step count serves every start, whose orbitals are its columns.
        propagate, products = evolve._propagate, {}

        def shared(start, params, t_total, steps, scheme):
            key = (params, steps)
            if key not in products:
                everything = (1 << params.n_sites) - 1
                products[key] = propagate(everything, params, t_total, steps, scheme)
            return products[key][:, [x for x in range(params.n_sites) if start >> x & 1]]

        monkeypatch.setattr(evolve, "_propagate", shared)
        for n, (hubble, mass) in itertools.product((4, 6, 8, 10), ((0.1, 1.0), (1.0, 3.0))):
            params = ModelParams(n, hubble, mass)
            for start, substeps in itertools.product(sector_starts(n), (64, 128, 256, 512, 1024)):
                result = exact_evolve_converged(start, params, 1.0, substeps, tol=math.inf)
                assert result.substeps == 2 * substeps
                before = read_out(shared(start, params, 1.0, substeps, evolve.CF4), hubble, 1.0)
                after = read_out(result.orbitals, hubble, 1.0)
                true = np.linalg.norm(after.amplitudes - before.amplitudes)
                assert true - 1e-15 <= result.delta <= true + 1e-12, (n, hubble, start, substeps)

    def test_guards(self):
        params = ModelParams(4, 0.1, 1.0)
        with pytest.raises(ValueError):
            exact_evolve(0, params, 1.0, 0)
        with pytest.raises(ValueError):
            exact_evolve(0, params, -1.0, 4)


class TestStateDistance:
    def test_global_phase_invisible(self, rng):
        vec = random_state(rng, 4)
        a = dense_state(4, vec * np.exp(0.77j))
        b = dense_state(4, vec.copy())
        assert state_distance(a, b) < 1e-14

    def test_orthogonal_states_far(self):
        a = dense_state(2, to_dense(basis_state(2, 0)))
        b = dense_state(2, to_dense(basis_state(2, 1)))
        assert state_distance(a, b) == pytest.approx(math.sqrt(2))

    def test_rejects_different_basis_states(self):
        with pytest.raises(ValueError, match="different basis states"):
            state_distance(basis_state(2, 0), basis_state(2, 1))


def final_distances(params, start, step_counts, oracle):
    """State distance between the oracle and Trotter evolution at each step count."""
    exact = read_out(oracle.orbitals, params.hubble, 1.0)
    distances = []
    for steps in step_counts:
        trajectory = trotter_evolve(start, params, steps, 1.0 / steps, snapshot_every=steps)
        distances.append(state_distance(snapshot_states(trajectory, params.hubble)[-1], exact))
    return distances


class TestErrorScan:
    """Trotter evolution against the converged oracle at t = 1."""

    def test_first_order_ratios_massless(self):
        params = ModelParams(8, 0.1, 0.0)
        oracle = exact_evolve_converged(1, params, 1.0, tol=1e-8)
        distances = final_distances(params, 1, [10, 20, 40, 80], oracle)
        for a, b in zip(distances, distances[1:]):
            assert 1.5 <= a / b <= 2.5
        assert all(b < a for a, b in zip(distances, distances[1:]))

    def test_large_step_count_small_distance(self):
        params = ModelParams(8, 0.1, 0.0)
        oracle = exact_evolve_converged(1, params, 1.0, tol=1e-8)
        assert final_distances(params, 1, [640], oracle)[0] < 1e-3

    def test_eigenstate_has_tiny_deltas(self):
        params = ModelParams(8, 0.1, 1.0)
        oracle = exact_evolve_converged(0, params, 1.0, substeps_start=64, tol=1e-8)
        exact = read_out(oracle.orbitals, params.hubble, 1.0)
        energy = expectation_pauli_sum(exact, hamiltonian_at(params, 1.0))
        reference = amplitude_record(exact, 1.0, params.hubble, energy=energy)
        names = ("n_total", "correlation_C", "polarization_over_e", "chiral_c", "energy", "total_sz")
        for steps in (5, 20):
            record = trotter_evolve(0, params, steps, 1.0 / steps, snapshot_every=steps).records[-1]
            for name in names:
                assert abs(getattr(record, name) - getattr(reference, name)) < 1e-12, (steps, name)
