"""Observables from hole orbitals and from shot counts."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from dsfermion.evolve import trotter_evolve
from dsfermion.model import ModelParams
from dsfermion.observables import estimators_from_counts, exact_record, slater_norm
from dsfermion.state import ShotCounts, read_out, sample_z_basis

from conftest import (
    amplitude_record,
    basis_state,
    basis_orbitals,
    estimators_reference,
    exact_record_reference,
    hole_circular_variance,
    one_histogram,
    random_orbitals,
    record_deviation,
    record_of,
    rows,
    sample_one,
    sample_reference,
    shot_record,
    snapshot_states,
)


def paper_trajectory(mass):
    params = ModelParams(8, 0.1, mass)
    return trotter_evolve(basis_orbitals(8, 1), params, 10, 0.1)


class TestDensity:
    def test_hole_state_at_t0(self):
        density = record_of(basis_orbitals(8, 1), 0.0, 0.1).density
        assert np.allclose(density, [0, 1, 1, 1, 1, 1, 1, 1])

    def test_filled_state_scales_with_volume(self):
        density = record_of(basis_orbitals(8, 0), 0.7, 0.1).density
        assert np.allclose(density, math.exp(0.07))

    def test_total_scales_as_e_ht(self):
        trajectory = paper_trajectory(mass=0.0)
        for record in rows(trajectory.observables):
            assert abs(record.n_total - 7.0 * math.exp(0.1 * record.t)) < 1e-9

    def test_density_bounded_by_volume_factor(self):
        trajectory = paper_trajectory(mass=1.0)
        for record in rows(trajectory.observables):
            scaled = np.array(record.density) / math.exp(0.1 * record.t)
            assert np.all(scaled >= -1e-12)
            assert np.all(scaled <= 1 + 1e-12)


class TestCorrelation:
    def test_hole_state_zero(self):
        assert record_of(basis_orbitals(8, 1), 0.0, 0.1).correlation_C == 0.0

    def test_filled_state_one(self):
        assert record_of(basis_orbitals(8, 0), 0.0, 0.1).correlation_C == 1.0

    def test_no_volume_factor(self, rng):
        st = random_orbitals(rng, 4, 2)
        assert (
            record_of(st, 0.0, 0.1).correlation_C == record_of(st, 5.0, 0.1).correlation_C
        )

    def test_increases_on_paper_preset(self):
        values = [r.correlation_C for r in rows(paper_trajectory(mass=0.0).observables)]
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_needs_two_sites(self):
        with pytest.raises(ValueError):
            record_of(basis_orbitals(1, 0), 0.0, 0.1)


class TestPolarization:
    def test_hole_state(self):
        assert record_of(basis_orbitals(8, 1), 0.0, 0.1).polarization_over_e == pytest.approx(28.0)

    def test_filled_state(self):
        assert record_of(basis_orbitals(8, 0), 0.0, 0.1).polarization_over_e == pytest.approx(28.0)

    def test_volume_factor(self):
        record = record_of(basis_orbitals(8, 0), 1.0, 0.1)
        assert record.polarization_over_e == pytest.approx(28.0 * math.exp(0.1))


class TestChiralCondensate:
    def test_hole_state(self):
        assert record_of(basis_orbitals(8, 1), 0.0, 0.1).chiral_c == pytest.approx(-1.0)

    def test_filled_state_cancels(self):
        assert record_of(basis_orbitals(8, 0), 0.0, 0.1).chiral_c == pytest.approx(0.0)

    def test_magnitude_decreases_initially(self):
        values = [abs(r.chiral_c) for r in rows(paper_trajectory(mass=0.0).observables)]
        assert values[0] == pytest.approx(1.0)
        assert all(b < a for a, b in zip(values[:6], values[1:6]))


class TestTotalCharge:
    def test_hole_state(self):
        assert record_of(basis_orbitals(8, 1), 0.0, 0.1).total_sz == pytest.approx(6.0)

    def test_filled_state(self):
        assert record_of(basis_orbitals(8, 0), 0.0, 0.1).total_sz == pytest.approx(8.0)

    def test_constant_along_trajectory(self):
        values = [r.total_sz for r in rows(paper_trajectory(mass=1.0).observables)]
        assert all(abs(v - values[0]) < 1e-10 for v in values)


class TestExactRecord:
    def test_consistency(self, rng):
        st = random_orbitals(rng, 8, 3)
        record = record_of(st, 0.5, 0.1, energy=1.25)
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
                assert record_deviation(record_of(orbitals, t, 0.2), reference) < 1e-12, (n, k)
                assert abs(slater_norm(orbitals) - reference.norm) < 1e-12, (n, k)


class TestShotEstimators:
    def test_delta_counts_match_exact(self):
        counts = sample_one(basis_state(8, 1), 5000, seed=9)
        record = shot_record(counts, 0.3, 0.1)
        exact = record_of(basis_orbitals(8, 1), 0.3, 0.1)
        assert record.source == "shots"
        assert np.allclose(record.density, exact.density, atol=1e-12)
        assert record.correlation_C == pytest.approx(exact.correlation_C, abs=1e-12)
        assert record.polarization_over_e == pytest.approx(exact.polarization_over_e, abs=1e-12)
        assert record.chiral_c == pytest.approx(exact.chiral_c, abs=1e-12)
        assert record.total_sz == pytest.approx(exact.total_sz, abs=1e-12)
        assert all(e == 0.0 for e in record.shot_errors.density)
        assert record.energy is None and record.norm is None

    def test_within_five_stderr_of_exact(self):
        trajectory = paper_trajectory(mass=0.0)
        for i, st in enumerate(snapshot_states(trajectory, 0.1)):
            t = rows(trajectory.observables)[i].t
            counts = sample_one(st, 10_000, seed=100 + i)
            shot = shot_record(counts, t, 0.1)
            exact = rows(trajectory.observables)[i]
            pairs = [
                (shot.n_total, exact.n_total, shot.shot_errors.n_total),
                (shot.correlation_C, exact.correlation_C, shot.shot_errors.correlation_C),
                (shot.polarization_over_e, exact.polarization_over_e, shot.shot_errors.polarization_over_e),
                (shot.chiral_c, exact.chiral_c, shot.shot_errors.chiral_c),
            ]
            for measured, truth, err in pairs:
                # 1e-12 floor: charge conservation makes n_total constant per
                # shot, so its stderr is 0 and the two values differ by rounding.
                assert abs(measured - truth) < 5 * err + 1e-12

    def test_errors_halve_when_shots_quadruple(self):
        trajectory = paper_trajectory(mass=0.0)
        st = snapshot_states(trajectory, 0.1)[-1]
        t = rows(trajectory.observables)[-1].t

        def mean_errors(shots, seed):
            counts = sample_one(st, shots, seed)
            errs = shot_record(counts, t, 0.1).shot_errors
            # Charge conservation makes n_total the same in every shot.
            assert errs.n_total == 0.0
            return np.array([errs.correlation_C, errs.polarization_over_e, errs.chiral_c])

        small = np.mean([mean_errors(2500, 10 + k) for k in range(5)], axis=0)
        large = np.mean([mean_errors(10_000, 50 + k) for k in range(5)], axis=0)
        ratios = small / large
        assert np.all(ratios > 2.0 * 0.8)
        assert np.all(ratios < 2.0 * 1.2)

    def test_convergence_rate_over_seeds(self):
        # Mean |error| should fall like 1/sqrt(shots): quadrupling halves it.
        trajectory = paper_trajectory(mass=0.0)
        st = snapshot_states(trajectory, 0.1)[5]
        t = rows(trajectory.observables)[5].t
        exact = rows(trajectory.observables)[5]

        def mean_abs_error(shots):
            errors = []
            for seed in range(12):
                counts = sample_one(st, shots, seed=1000 + seed)
                rec = shot_record(counts, t, 0.1)
                errors.append(abs(rec.chiral_c - exact.chiral_c))
            return float(np.mean(errors))

        ratio = mean_abs_error(1000) / mean_abs_error(4000)
        assert 1.4 < ratio < 2.8

    def test_empty_counts_rejected(self):
        # A row without a shot, with no outcome or with zero counts only.
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="empty shot counts"):
            estimators_from_counts(ShotCounts(4, empty, empty.reshape(1, 0)), [0.0], 0.1)
        counts = ShotCounts(4, np.array([1, 2]), np.array([[3, 1], [0, 0]]))
        with pytest.raises(ValueError, match="empty shot counts"):
            estimators_from_counts(counts, [0.0, 0.1], 0.1)


def fraction_mean_and_err(values, freqs):
    """Mean and standard error of per-shot values, in exact fractions, from
    the shots one by one."""
    shots = [Fraction(v) for v, f in zip(values, freqs) for _ in range(f)]
    mean = sum(shots) / len(shots)
    var = sum((v - mean) ** 2 for v in shots) / (len(shots) - 1) if len(shots) > 1 else 0
    return float(mean), math.sqrt(var / len(shots))


def record_fields(record):
    """Every value of a shot record and of its errors, as one flat dict."""
    fields = dataclasses.asdict(record)
    errors = fields.pop("shot_errors")
    return {**fields, **{"err." + k: v for k, v in errors.items()}}


class TestExactShotEstimates:
    """A shot estimate is a sum of integers over the outcomes, rounded once:
    it is the exact fraction's nearest double, whatever the outcome order."""

    def test_matches_fraction_reference(self):
        rng = np.random.default_rng(2024)
        for n in (2, 4, 6, 10):
            for _ in range(20):
                size = int(rng.integers(1, 12))
                outcomes = np.sort(rng.choice(1 << n, size=min(size, 1 << n), replace=False))
                freqs = rng.integers(1, 6, size=outcomes.size)
                record = shot_record(one_histogram(n, outcomes, freqs), 0.0, 0.3)
                occ = [[1 - ((o >> x) & 1) for x in range(n)] for o in outcomes.tolist()]
                expected = {
                    "density": [fraction_mean_and_err([o[x] for o in occ], freqs) for x in range(n)],
                    "n_total": fraction_mean_and_err([sum(o) for o in occ], freqs),
                    "polarization_over_e": fraction_mean_and_err(
                        [sum(x * o[x] for x in range(n)) for o in occ], freqs
                    ),
                    "chiral_c": fraction_mean_and_err(
                        [sum((-1) ** x * o[x] for x in range(n)) for o in occ], freqs
                    ),
                    "correlation_C": fraction_mean_and_err([o[0] * o[1] for o in occ], freqs),
                    "total_sz": fraction_mean_and_err([2 * sum(o) - n for o in occ], freqs),
                }
                for name, value in expected.items():
                    got = getattr(record, name), getattr(record.shot_errors, name)
                    if name == "density":
                        value = tuple(zip(*value))
                    assert got == value, (n, name)

    def test_matches_per_quantity_reference(self):
        # The stacked sums against the reference that takes each quantity on
        # its own.  At 2^28 shots, shots * S2 passes 2^63 for the
        # polarization, so the variance must be taken in Python ints.
        rng = np.random.default_rng(32)
        largest = 0
        for n in range(2, 13):
            for shots in (1, 2, 1 << 28):
                for _ in range(4):
                    size = int(rng.integers(1, min(shots, 1 << n, 40) + 1))
                    outcomes = np.sort(rng.choice(1 << n, size=size, replace=False))
                    freqs = rng.multinomial(shots - size, np.full(size, 1 / size)) + 1
                    counts = one_histogram(n, outcomes, freqs)
                    t = float(rng.uniform(0.0, 2.0))
                    got = shot_record(counts, t, 0.3)
                    assert repr(got) == repr(estimators_reference(counts, t, 0.3)), (n, shots)
                    polarization = [
                        sum(x for x in range(n) if not o >> x & 1) for o in outcomes.tolist()
                    ]
                    s2 = sum(f * p * p for f, p in zip(freqs.tolist(), polarization))
                    largest = max(largest, shots * s2)
        assert largest > 1 << 63

    def test_volume_scales_the_rounded_estimate(self):
        # e^{ht} multiplies the estimate at t = 0, which is rounded once, and
        # leaves C and the charge alone.
        counts = one_histogram(6, [0b000111, 0b010101, 0b110000], [5, 11, 3])
        at_zero = record_fields(shot_record(counts, 0.0, 0.4))
        later = record_fields(shot_record(counts, 1.5, 0.4))
        volume = math.exp(0.4 * 1.5)
        for name, value in at_zero.items():
            if name in ("t", "energy", "norm", "source"):
                continue
            scale = 1.0 if name.endswith(("correlation_C", "total_sz")) else volume
            expected = tuple(scale * v for v in value) if isinstance(value, tuple) else scale * value
            assert later[name] == expected, name

    def test_constant_per_shot_values_have_zero_error(self):
        # Three holes in every outcome, one of them at site 0, and site 1
        # occupied in all of them.
        counts = one_histogram(6, [0b001101, 0b101001, 0b110001], [70_001, 129_998, 1])
        record = shot_record(counts, 0.7, 0.1)
        assert record.shot_errors.n_total == 0.0
        assert record.shot_errors.total_sz == 0.0
        assert record.shot_errors.density[1] == 0.0
        assert record.shot_errors.density[0] == 0.0
        assert all(e > 0 for e in record.shot_errors.density[3:])

    def test_outcome_order_does_not_change_a_bit(self):
        # A half-filled N=12 snapshot: several hundred outcomes of 200k shots.
        params = ModelParams(12, 0.1, 1.0)
        trajectory = trotter_evolve(basis_orbitals(12, 0b010101010101), params, 10, 0.1)
        st = read_out(trajectory.orbitals[-1], 0.1, 1.0)
        counts = sample_one(st, 200_000, seed=7)
        assert np.count_nonzero(counts.freqs) > 800
        expected = record_fields(shot_record(counts, 1.0, 0.1))
        rng = np.random.default_rng(5)
        for _ in range(3):
            order = rng.permutation(counts.outcomes.size)
            shuffled = ShotCounts(12, counts.outcomes[order], counts.freqs[:, order])
            got = record_fields(shot_record(shuffled, 1.0, 0.1))
            assert got.keys() == expected.keys()
            for name, value in expected.items():
                assert got[name] == value, name


def block_cases(rng, n):
    """Blocks of snapshots at k = 0, 1, N/2 and N holes: a Trotter run from
    the start with those holes (the one-hole and half-filled states among
    them), and three random orthonormal orbitals at random times, with
    random energies.  Each is (orbitals, times, energies, norms)."""
    params = ModelParams(n, 0.3, 1.0)
    for k in (0, 1, n // 2, n):
        start = sum(1 << x for x in range(0, 2 * k, 2)) if 2 * k <= n else (1 << n) - 1
        trajectory = trotter_evolve(basis_orbitals(n, start), params, 10, 0.1)
        records = rows(trajectory.observables)
        energies, norms = [r.energy for r in records], [r.norm for r in records]
        yield trajectory.orbitals, [r.t for r in records], energies, norms
        orbitals = np.stack([random_orbitals(rng, n, k) for _ in range(3)])
        norms = [slater_norm(phi) for phi in orbitals]
        yield orbitals, rng.uniform(0.0, 3.0, 3).tolist(), rng.standard_normal(3).tolist(), norms


class TestBlocksMatchSlowReferences:
    """A block's records, counts and shot records against the per-snapshot
    slow references of tests/conftest.py, bit for bit."""

    def test_exact_records(self, rng):
        for n in (4, 6, 8, 10):
            for orbitals, times, energies, norms in block_cases(rng, n):
                block = exact_record(orbitals, times, 0.3, energies, norms)
                for i, record in enumerate(rows(block)):
                    reference = exact_record_reference(orbitals[i], times[i], 0.3, energies[i])
                    assert repr(record) == repr(reference), (n, orbitals.shape, i)

    def test_trajectory_records(self):
        # The records of a run carry the norm its step checked, which is the
        # reference's slater norm.
        for n in (4, 6, 8, 10):
            params = ModelParams(n, 0.1, 1.0)
            for start in (0, 1, sum(1 << x for x in range(0, n, 2)), (1 << n) - 1):
                orbitals = basis_orbitals(n, start)
                trajectory = trotter_evolve(orbitals, params, 12, 0.1, snapshot_every=3)
                for orbitals, record in zip(trajectory.orbitals, rows(trajectory.observables)):
                    reference = exact_record_reference(orbitals, record.t, 0.1, record.energy)
                    assert repr(record) == repr(reference), (n, start, record.t)

    @pytest.mark.parametrize("shots", [1, 2, 1 << 28])
    def test_readouts_counts_and_shot_records(self, rng, shots):
        for n in (4, 6, 8, 10):
            for orbitals, times, _, _ in block_cases(rng, n):
                states = read_out(orbitals, 0.3, times)
                counts = sample_z_basis(states, shots, seed=11)
                block = rows(estimators_from_counts(counts, times, 0.3))
                assert counts.freqs.shape == states.amplitudes.shape
                for i, t in enumerate(times):
                    where = (n, orbitals.shape, i)
                    one = read_out(orbitals[i], 0.3, t)
                    assert states.amplitudes[i].tobytes() == one.amplitudes.tobytes(), where
                    row = sample_reference(one, shots, 11 + i)
                    assert np.array_equal(counts.freqs[i], row), where
                    one_row = ShotCounts(n, counts.outcomes, row[None])
                    reference = estimators_reference(one_row, t, 0.3)
                    assert repr(block[i]) == repr(reference), where


class TestHoleSpread:
    def test_no_hole_returns_zero(self):
        density = np.array(record_of(basis_orbitals(8, 0), 0.0, 0.1).density)
        assert hole_circular_variance(density, 0.0, 0.1) == 0.0

    def test_point_hole_has_zero_variance(self):
        density = np.array(record_of(basis_orbitals(8, 1), 0.0, 0.1).density)
        assert hole_circular_variance(density, 0.0, 0.1) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mass", [0.0, 1.0])
    def test_variance_non_decreasing(self, mass):
        trajectory = paper_trajectory(mass=mass)
        variances = [
            hole_circular_variance(np.array(r.density), r.t, 0.1) for r in rows(trajectory.observables)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(variances, variances[1:]))
        assert variances[-1] > 0.1
