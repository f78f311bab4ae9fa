"""Observables from hole orbitals and from shot counts."""

import math

import numpy as np
import pytest

from dsfermion.evolve import TrotterPlan, read_out, trotter_evolve
from dsfermion.model import ModelParams
from dsfermion.observables import estimators_from_counts, exact_record, slater_norm
from dsfermion.state import sample_z_basis

from conftest import (
    amplitude_record,
    basis_state,
    basis_orbitals,
    hole_circular_variance,
    random_orbitals,
    record_deviation,
    snapshot_states,
)


def paper_trajectory(mass):
    params = ModelParams(8, 0.1, mass)
    plan = TrotterPlan.for_total_time(1.0, 10)
    return trotter_evolve(1, params, plan)


class TestDensity:
    def test_hole_state_at_t0(self):
        density = exact_record(basis_orbitals(8, 1), 0.0, 0.1).density
        assert np.allclose(density, [0, 1, 1, 1, 1, 1, 1, 1])

    def test_filled_state_scales_with_volume(self):
        density = exact_record(basis_orbitals(8, 0), 0.7, 0.1).density
        assert np.allclose(density, math.exp(0.07))

    def test_total_scales_as_e_ht(self):
        trajectory = paper_trajectory(mass=0.0)
        for record in trajectory.records:
            assert abs(record.n_total - 7.0 * math.exp(0.1 * record.t)) < 1e-9

    def test_density_bounded_by_volume_factor(self):
        trajectory = paper_trajectory(mass=1.0)
        for record in trajectory.records:
            scaled = np.array(record.density) / math.exp(0.1 * record.t)
            assert np.all(scaled >= -1e-12)
            assert np.all(scaled <= 1 + 1e-12)


class TestCorrelation:
    def test_hole_state_zero(self):
        assert exact_record(basis_orbitals(8, 1), 0.0, 0.1).correlation_C == 0.0

    def test_filled_state_one(self):
        assert exact_record(basis_orbitals(8, 0), 0.0, 0.1).correlation_C == 1.0

    def test_no_volume_factor(self, rng):
        st = random_orbitals(rng, 4, 2)
        assert (
            exact_record(st, 0.0, 0.1).correlation_C == exact_record(st, 5.0, 0.1).correlation_C
        )

    def test_increases_on_paper_preset(self):
        values = [r.correlation_C for r in paper_trajectory(mass=0.0).records]
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_needs_two_sites(self):
        with pytest.raises(ValueError):
            exact_record(basis_orbitals(1, 0), 0.0, 0.1)


class TestPolarization:
    def test_hole_state(self):
        assert exact_record(basis_orbitals(8, 1), 0.0, 0.1).polarization_over_e == pytest.approx(28.0)

    def test_filled_state(self):
        assert exact_record(basis_orbitals(8, 0), 0.0, 0.1).polarization_over_e == pytest.approx(28.0)

    def test_volume_factor(self):
        record = exact_record(basis_orbitals(8, 0), 1.0, 0.1)
        assert record.polarization_over_e == pytest.approx(28.0 * math.exp(0.1))


class TestChiralCondensate:
    def test_hole_state(self):
        assert exact_record(basis_orbitals(8, 1), 0.0, 0.1).chiral_c == pytest.approx(-1.0)

    def test_filled_state_cancels(self):
        assert exact_record(basis_orbitals(8, 0), 0.0, 0.1).chiral_c == pytest.approx(0.0)

    def test_magnitude_decreases_initially(self):
        values = [abs(r.chiral_c) for r in paper_trajectory(mass=0.0).records]
        assert values[0] == pytest.approx(1.0)
        assert all(b < a for a, b in zip(values[:6], values[1:6]))


class TestTotalCharge:
    def test_hole_state(self):
        assert exact_record(basis_orbitals(8, 1), 0.0, 0.1).total_sz == pytest.approx(6.0)

    def test_filled_state(self):
        assert exact_record(basis_orbitals(8, 0), 0.0, 0.1).total_sz == pytest.approx(8.0)

    def test_constant_along_trajectory(self):
        values = [r.total_sz for r in paper_trajectory(mass=1.0).records]
        assert all(abs(v - values[0]) < 1e-10 for v in values)


class TestExactRecord:
    def test_consistency(self, rng):
        st = random_orbitals(rng, 8, 3)
        record = exact_record(st, 0.5, 0.1, energy=1.25)
        assert record.source == "exact"
        assert record.n_total == pytest.approx(sum(record.density))
        assert record.energy == 1.25
        assert record.shot_errors is None

    def test_matches_amplitude_record_on_random_slater_states(self, rng):
        # Slater determinants that no Trotter step made: the Wick record and
        # det(Phi^dag Phi)^(1/2) against the amplitude-weighted record of
        # the read-out state, at every hole count.
        for n in range(4, 11):
            for k in range(n + 1):
                orbitals = random_orbitals(rng, n, k)
                t = float(rng.uniform(0, 3))
                state = read_out(orbitals, 0.2, t)
                reference = amplitude_record(state, t, 0.2)
                assert record_deviation(exact_record(orbitals, t, 0.2), reference) < 1e-12, (n, k)
                assert abs(slater_norm(orbitals) - reference.norm) < 1e-12, (n, k)


class TestShotEstimators:
    def test_delta_counts_match_exact(self):
        counts = sample_z_basis(basis_state(8, 1), 5000, seed=9)
        record = estimators_from_counts(counts, 0.3, 0.1)
        exact = exact_record(basis_orbitals(8, 1), 0.3, 0.1)
        assert record.source == "shots"
        assert np.allclose(record.density, exact.density, atol=1e-12)
        assert record.correlation_C == pytest.approx(exact.correlation_C, abs=1e-12)
        assert record.polarization_over_e == pytest.approx(exact.polarization_over_e, abs=1e-12)
        assert record.chiral_c == pytest.approx(exact.chiral_c, abs=1e-12)
        assert record.total_sz == pytest.approx(exact.total_sz, abs=1e-12)
        assert all(e == 0.0 for e in record.shot_errors.density)
        assert math.isnan(record.energy)

    def test_within_five_stderr_of_exact(self):
        trajectory = paper_trajectory(mass=0.0)
        for i, st in enumerate(snapshot_states(trajectory, 0.1)):
            t = trajectory.records[i].t
            counts = sample_z_basis(st, 10_000, seed=100 + i)
            shot = estimators_from_counts(counts, t, 0.1)
            exact = trajectory.records[i]
            pairs = [
                (shot.n_total, exact.n_total, shot.shot_errors.n_total),
                (shot.correlation_C, exact.correlation_C, shot.shot_errors.correlation_C),
                (shot.polarization_over_e, exact.polarization_over_e, shot.shot_errors.polarization_over_e),
                (shot.chiral_c, exact.chiral_c, shot.shot_errors.chiral_c),
            ]
            for measured, truth, err in pairs:
                # 1e-12 floor: charge conservation makes n_total constant per
                # shot, so its stderr is pure rounding noise.
                assert abs(measured - truth) < 5 * err + 1e-12

    def test_errors_halve_when_shots_quadruple(self):
        trajectory = paper_trajectory(mass=0.0)
        st = snapshot_states(trajectory, 0.1)[-1]
        t = trajectory.records[-1].t

        def mean_errors(shots, seed):
            counts = sample_z_basis(st, shots, seed)
            errs = estimators_from_counts(counts, t, 0.1).shot_errors
            return np.array([errs.n_total, errs.correlation_C, errs.polarization_over_e, errs.chiral_c])

        small = np.mean([mean_errors(2500, 10 + k) for k in range(5)], axis=0)
        large = np.mean([mean_errors(10_000, 50 + k) for k in range(5)], axis=0)
        ratios = small / large
        assert np.all(ratios > 2.0 * 0.8)
        assert np.all(ratios < 2.0 * 1.2)

    def test_convergence_rate_over_seeds(self):
        # Mean |error| should fall like 1/sqrt(shots): quadrupling halves it.
        trajectory = paper_trajectory(mass=0.0)
        st = snapshot_states(trajectory, 0.1)[5]
        t = trajectory.records[5].t
        exact = trajectory.records[5]

        def mean_abs_error(shots):
            errors = []
            for seed in range(12):
                counts = sample_z_basis(st, shots, seed=1000 + seed)
                rec = estimators_from_counts(counts, t, 0.1)
                errors.append(abs(rec.chiral_c - exact.chiral_c))
            return float(np.mean(errors))

        ratio = mean_abs_error(1000) / mean_abs_error(4000)
        assert 1.4 < ratio < 2.8

    def test_empty_counts_rejected(self):
        from dsfermion.state import ShotCounts

        with pytest.raises(ValueError):
            estimators_from_counts(ShotCounts(4, 0, {}, seed=1), 0.0, 0.1)


class TestHoleSpread:
    def test_no_hole_returns_zero(self):
        density = np.array(exact_record(basis_orbitals(8, 0), 0.0, 0.1).density)
        assert hole_circular_variance(density, 0.0, 0.1) == 0.0

    def test_point_hole_has_zero_variance(self):
        density = np.array(exact_record(basis_orbitals(8, 1), 0.0, 0.1).density)
        assert hole_circular_variance(density, 0.0, 0.1) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mass", [0.0, 1.0])
    def test_variance_non_decreasing(self, mass):
        trajectory = paper_trajectory(mass=mass)
        variances = [
            hole_circular_variance(np.array(r.density), r.t, 0.1) for r in trajectory.records
        ]
        assert all(b >= a - 1e-12 for a, b in zip(variances, variances[1:]))
        assert variances[-1] > 0.1
