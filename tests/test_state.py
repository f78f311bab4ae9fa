"""Statevector storage, the reference rotation kernel against dense
matrix-exponential oracles, the reference expectation, and sampling."""

import math
import os
import threading

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import chisquare

from dsfermion.errors import NormDriftError
from dsfermion.evolve import trotter_evolve
from dsfermion.model import ModelParams, hamiltonian_at, hamiltonian_parts
from dsfermion import cli
from dsfermion.pauli import PauliString, PauliSum, single_site
import dsfermion.state as state_module
from dsfermion.state import StateVector, read_out, sample_z_basis

from conftest import (
    apply_pauli_rotation,
    apply_pauli_string,
    basis_orbitals,
    basis_state,
    counts_dict,
    dense_from_label,
    dense_state,
    expectation_pauli_sum,
    random_label,
    random_orbitals,
    random_state,
    record_keys,
    record_of,
    sample_one,
    sample_reference,
    sector_starts,
    snapshot_states,
    to_dense,
)


def rotation_oracle(label, theta, vec):
    """Dense exp(-i theta P) via scipy, on the naive realization of P."""
    return expm(-1j * theta * dense_from_label(label)) @ vec


class TestStateVector:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="one amplitude per index"):
            StateVector(3, [1, 2], [1.0])
        with pytest.raises(ValueError, match="one amplitude per index"):
            StateVector(3, [[1, 2]], [[1.0, 0.0]])

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            StateVector(3, [2, 1], [0.6, 0.8])

    def test_rejects_duplicated_indices(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            StateVector(3, [1, 1], [0.6, 0.8])

    def test_rejects_indices_out_of_range(self):
        for indices in ([-1, 2], [2, 8]):
            with pytest.raises(ValueError, match="out of range"):
                StateVector(3, indices, [0.6, 0.8])

    def test_keeps_given_basis_states(self):
        st = StateVector(3, [0, 7], [0.6, 0.8])
        assert st.indices.dtype == np.int64
        assert np.array_equal(to_dense(st), [0.6, 0, 0, 0, 0, 0, 0, 0.8])
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0)


class TestBasisState:
    def test_filled_state(self):
        st = basis_state(8, 0)
        assert st.amplitudes[0] == 1.0
        assert np.linalg.norm(st.amplitudes) == 1.0

    def test_hole_at_site_zero(self):
        st = basis_state(8, 1)
        assert st.indices.tolist() == [1]
        dense = to_dense(st)
        assert dense[1] == 1.0
        assert np.count_nonzero(dense) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(2, 4)
        with pytest.raises(ValueError):
            basis_state(2, -1)


class TestPauliRotation:
    def test_zero_angle_is_identity(self, rng):
        st = dense_state(4, random_state(rng, 4))
        before = st.amplitudes.copy()
        apply_pauli_rotation(st, PauliString.from_label("XYZI"), 0.0)
        assert np.array_equal(st.amplitudes, before)

    def test_half_pi_gives_minus_i_p(self, rng):
        st = dense_state(4, random_state(rng, 4))
        p = PauliString.from_label("XZIY")
        expected = -1j * apply_pauli_string(p, st.amplitudes)
        apply_pauli_rotation(st, p, math.pi / 2)
        assert np.max(np.abs(st.amplitudes - expected)) < 1e-15

    def test_random_4q_matches_dense_exponential(self, rng):
        for _ in range(25):
            label = random_label(rng, 4)
            theta = float(rng.uniform(-3, 3))
            vec = random_state(rng, 4)
            st = dense_state(4, vec.copy())
            apply_pauli_rotation(st, PauliString.from_label(label), theta)
            assert np.max(np.abs(st.amplitudes - rotation_oracle(label, theta, vec))) < 1e-12

    def test_exhaustive_2q_matches_dense_exponential(self, rng):
        vec = random_state(rng, 2)
        for a in "IXYZ":
            for b in "IXYZ":
                for theta in (0.3, -1.1, 2.5):
                    st = dense_state(2, vec.copy())
                    apply_pauli_rotation(st, PauliString.from_label(a + b), theta)
                    dev = np.max(np.abs(st.amplitudes - rotation_oracle(a + b, theta, vec)))
                    assert dev < 1e-12, f"{a + b} theta={theta}"

    def test_random_6q_matches_dense_exponential(self, rng):
        for _ in range(50):
            label = random_label(rng, 6)
            theta = float(rng.uniform(-3, 3))
            vec = random_state(rng, 6)
            st = dense_state(6, vec.copy())
            apply_pauli_rotation(st, PauliString.from_label(label), theta)
            assert np.max(np.abs(st.amplitudes - rotation_oracle(label, theta, vec))) < 1e-12

    def test_norm_drift_many_rotations(self, rng):
        st = dense_state(8, random_state(rng, 8))
        for _ in range(10_000):
            label = random_label(rng, 8)
            apply_pauli_rotation(st, PauliString.from_label(label), float(rng.uniform(-3, 3)))
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-9

    def test_rejects_denormalized_state(self):
        st = dense_state(2, [1.5, 0, 0, 0])
        with pytest.raises(NormDriftError, match=r"drifted by 5\.000e-01 .* rotation by XI$"):
            apply_pauli_rotation(st, single_site(2, 0, "X"), 0.2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_pauli_rotation(basis_state(2, 0), single_site(3, 0, "X"), 0.1)


class TestExpectations:
    def test_zdiag_matches_pauli_sum(self, rng):
        # The Wick record's charge N - 2 tr G and the Pauli-string action on
        # the read-out state agree on the sign convention of sigma^z.
        for k in range(5):
            orbitals = random_orbitals(rng, 4, k)
            charge = PauliSum(4, [(4.0 * c, s) for c, s in hamiltonian_parts(4).charge.terms])
            total_sz = expectation_pauli_sum(read_out(orbitals, 0.1, 0.0), charge)
            dev = abs(record_of(orbitals, 0.0, 0.1).total_sz - total_sz)
            assert dev < 1e-12, k

    def test_filled_state_energy(self):
        params = ModelParams(8, 0.1, 1.0)
        st = basis_state(8, 0)
        assert abs(expectation_pauli_sum(st, hamiltonian_at(params, 0.4)) - 0.2) < 1e-12

    def test_traceless_z_on_uniform_state(self):
        st = dense_state(3, np.full(8, 1 / math.sqrt(8), dtype=complex))
        z1 = PauliSum(3, [(1.0, single_site(3, 1, "Z"))])
        assert abs(expectation_pauli_sum(st, z1)) < 1e-12

    def test_random_matches_dense(self, rng):
        for _ in range(10):
            st = dense_state(3, random_state(rng, 3))
            terms = [
                (float(rng.standard_normal()), PauliString.from_label(random_label(rng, 3)))
                for _ in range(4)
            ]
            a = PauliSum(3, terms)
            dense_value = np.vdot(st.amplitudes, a.to_dense() @ st.amplitudes).real
            assert abs(expectation_pauli_sum(st, a) - dense_value) < 1e-12


class TestSampling:
    def test_delta_distribution(self):
        counts = sample_one(basis_state(8, 1), 500, seed=7)
        assert counts_dict(counts) == {1: 500}
        assert counts.outcomes.dtype == counts.freqs.dtype == np.int64

    def test_uniform_within_binomial_bounds(self):
        st = dense_state(2, np.full(4, 0.5, dtype=complex))
        shots = 100_000
        counts = counts_dict(sample_one(st, shots, seed=11))
        sigma = math.sqrt(0.25 * 0.75 / shots)
        for outcome in range(4):
            freq = counts.get(outcome, 0) / shots
            assert abs(freq - 0.25) < 5 * sigma

    def test_deterministic_given_seed(self, rng):
        st = dense_state(4, random_state(rng, 4))
        a = sample_one(st, 1000, seed=42)
        b = sample_one(st, 1000, seed=42)
        assert counts_dict(a) == counts_dict(b)
        c = sample_one(st, 1000, seed=43)
        assert counts_dict(c) != counts_dict(a)

    def test_counts_sum_to_shots(self, rng):
        # One count per basis state of the state, none negative.
        st = dense_state(3, random_state(rng, 3))
        counts = sample_one(st, 1234, seed=5)
        assert counts.outcomes is st.indices
        assert counts.freqs.sum() == 1234
        assert np.all(counts.freqs >= 0)

    def test_frequencies_converge_to_probabilities(self, rng):
        st = dense_state(3, random_state(rng, 3))
        shots = 10_000
        counts = counts_dict(sample_one(st, shots, seed=3))
        probs = st.probabilities()
        for outcome, prob in enumerate(probs):
            freq = counts.get(outcome, 0) / shots
            stderr = math.sqrt(max(prob * (1 - prob), 1e-12) / shots)
            assert abs(freq - prob) < 5 * stderr

    def test_zero_probability_tail_never_drawn(self):
        # The probabilities sum to 0.5, so unscaled draws above it would
        # land on the zero-probability last state.
        st = dense_state(2, [0.5, 0.5, 0, 0])
        counts = sample_one(st, 10_000, seed=3)
        assert list(counts_dict(counts)) == [0, 1]

    def test_rejects_nan_probability(self):
        # A NaN total compares false everywhere, so the draws would all land
        # on the last state.
        with pytest.raises(ValueError, match="total probability nan"):
            sample_z_basis(StateVector(2, [0, 1, 2], [0.6, np.nan, 0.8]), 100, seed=1)

    def test_rejects_all_zero_state(self):
        with pytest.raises(ValueError, match="total probability 0"):
            sample_z_basis(StateVector(2, [0, 3], [0, 0]), 100, seed=1)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample_z_basis(basis_state(2, 0), 0, seed=1)

    def test_sector_counts_equal_dense_scatter(self):
        # Zero bins are left out before the draw, and the rest are normalized
        # by their own sum, so a sector state draws the same outcomes as all
        # 2^N of its amplitudes.
        for n in (6, 8, 12):
            params = ModelParams(n, 0.1, 1.0)
            half_filled = sum(1 << x for x in range(0, n, 2))
            start = basis_orbitals(n, half_filled)
            trajectory = trotter_evolve(start, params, 10, 0.1, snapshot_every=5)
            for st in snapshot_states(trajectory, params.hubble)[1:]:
                assert st.indices.size < 1 << n
                dense = dense_state(n, to_dense(st))
                for seed in (1, 7, 123):
                    a = counts_dict(sample_one(st, 20_000, seed=seed))
                    b = counts_dict(sample_one(dense, 20_000, seed=seed))
                    assert a == b, (n, seed)
                    assert set(a) <= set(st.indices.tolist())


def chi_square_p_value(counts, st, min_expected=5.0):
    """The chi-square p-value of the one-row count block ``counts`` against
    |amp|^2 of ``st``, with the bins expected below ``min_expected`` shots
    pooled into one bin; None when fewer than two bins are left."""
    probs = st.probabilities() / st.probabilities().sum()
    observed = np.zeros(st.indices.size)
    observed[np.searchsorted(st.indices, counts.outcomes)] = counts.freqs[0]
    expected = probs * counts.freqs.sum()
    large = expected >= min_expected
    observed = np.append(observed[large], observed[~large].sum())
    expected = np.append(expected[large], expected[~large].sum())
    if expected[-1] == 0:
        observed, expected = observed[:-1], expected[:-1]
    if expected.size < 2:
        return None
    return chisquare(observed, expected).pvalue


class TestSamplingReference:
    """The sampler against its reference law: a state's counts are one
    multinomial draw of its |amp|^2, so they fit it by a chi-square test and
    never fall where the probability is 0.  One state's counts are pinned
    literally, so that a change of numpy's multinomial stream shows."""

    def test_random_sector_states(self):
        # Random amplitudes over random basis states, with zero bins, a zero
        # tail and unnormalized totals, at shot counts from 1 to 5000.
        rng = np.random.default_rng(99)
        for size in (1, 2, 3, 5, 12, 66, 120, 300):
            for _ in range(12):
                amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                amps[rng.random(size) < rng.choice([0.0, 0.3, 0.8])] = 0  # zero bins
                amps[size - int(rng.integers(0, size)):] = 0  # a zero tail
                amps[int(rng.integers(0, size))] = 1.0
                total = rng.choice([1.0, 0.5])  # unnormalized states too
                amps *= math.sqrt(total) / np.linalg.norm(amps)
                indices = np.sort(rng.choice(1 << 10, size=size, replace=False))
                st = StateVector(10, indices, amps)
                shots = int(rng.choice([1, 2, int(rng.integers(1, 5001)), 5000]))
                seed = int(rng.integers(0, 1 << 62))
                counts = sample_one(st, shots, seed)
                where = (size, shots, seed)
                assert counts.outcomes.dtype == counts.freqs.dtype == np.int64, where
                assert counts.freqs.sum() == shots and np.all(counts.freqs >= 0), where
                assert np.all(np.diff(counts.outcomes) > 0), where
                possible = set(indices[st.probabilities() > 0].tolist())
                assert set(counts_dict(counts)) <= possible, where
                p_value = chi_square_p_value(counts, st)
                assert p_value is None or p_value > 1e-6, (where, p_value)

    def test_trotter_states_from_every_popcount(self):
        for n in (6, 8, 10):
            params = ModelParams(n, 0.1, 1.0)
            for start in sector_starts(n):
                orbitals = basis_orbitals(n, start)
                trajectory = trotter_evolve(orbitals, params, 10, 0.1, snapshot_every=5)
                for i, st in enumerate(snapshot_states(trajectory, params.hubble)):
                    counts = sample_one(st, 20_000, seed=1000 + i)
                    assert counts.freqs.sum() == 20_000
                    outcomes = list(counts_dict(counts))
                    drawn = st.probabilities()[np.searchsorted(st.indices, outcomes)]
                    assert np.all(drawn > 0), (n, start, i)
                    p_value = chi_square_p_value(counts, st)
                    if p_value is None:  # a basis state: every shot lands on it
                        assert outcomes == [start], (n, start, i)
                    else:
                        assert p_value > 1e-6, (n, start, i, p_value)

    @pytest.mark.parametrize("probs", [
        # Total 1: a leading zero bin, zero bins inside, a zero tail.
        [0, 0.25, 0, 0.25, 0.25, 0.0625, 0.0625, 0.0625, 0.0625, 0, 0],
        # Total 0.5, and a last nonzero bin far below the others.
        [0, 0.25, 0, 0.125, 0.125 - 1e-9, 0, 1e-9, 0, 0],
    ])
    def test_zero_probability_bins_never_drawn(self, probs):
        st = StateVector(4, np.arange(len(probs)), np.sqrt(probs))
        possible = {x for x, p in enumerate(probs) if p > 0}
        for seed in range(200):
            for shots in (1, 7, 100_000):
                counts = sample_one(st, shots, seed=seed)
                assert counts.freqs.sum() == shots
                assert set(counts_dict(counts)) <= possible, (seed, shots)

    def test_counts_of_one_state_are_pinned(self):
        # The literal counts of numpy 2.4's multinomial on Philox (2026, 0).
        st = StateVector(3, [1, 2, 4, 6], np.sqrt([0.5, 0.3, 0.15, 0.05]))
        counts = sample_one(st, 1000, seed=2026)
        assert counts_dict(counts) == {1: 492, 2: 322, 4: 141, 6: 45}
        assert counts.outcomes.dtype == counts.freqs.dtype == np.int64


def states_of(block):
    """The states of the rows of a block, one StateVector each."""
    return [StateVector(block.n_qubits, block.indices, row) for row in block.amplitudes]


# Shot counts on both sides of 2^14, where a sampler that draws its shots
# in chunks of 2^14 would split them.
CHUNK_EDGE_SHOTS = [1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 * (1 << 14) + 5]


def half_filled_block(n=6, count=5):
    """The snapshot states of a half-filled Trotter run on n sites, read out
    as one block."""
    params = ModelParams(n, 0.1, 1.0)
    steps = count - 1
    half_filled = basis_orbitals(n, sum(1 << x for x in range(0, n, 2)))
    trajectory = trotter_evolve(half_filled, params, steps, 1.0 / steps)
    return read_out(trajectory.orbitals, params.hubble, trajectory.observables.t)


def set_usable_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)


class TestChunkedSampling:
    """A block is sampled one state at a time: state i with the key seed + i,
    on the calling thread.  Neither the shot count nor the number of usable
    cores changes that or any count, and a run reads out its next block only
    once the one before it is sampled."""

    @pytest.mark.parametrize("shots", CHUNK_EDGE_SHOTS)
    def test_batch_equals_reference(self, monkeypatch, shots):
        block = half_filled_block()
        expected = [sample_reference(st, shots, 77 + i) for i, st in enumerate(states_of(block))]
        keys = record_keys(monkeypatch)
        batch = sample_z_basis(block, shots, seed=77)
        assert [key for key, _ in keys] == list(range(77, 77 + len(expected)))
        assert batch.outcomes is block.indices
        assert batch.freqs.dtype == np.int64 and batch.freqs.shape == block.amplitudes.shape
        for i, row in enumerate(expected):
            assert np.array_equal(batch.freqs[i], row), (shots, i)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_states_are_pulled_lazily(self, monkeypatch, tmp_path, cores):
        # With blocks of two snapshots, a run reads out each block only once
        # the one before it is sampled, on the calling thread, whatever the
        # core count: it holds one block's amplitudes at a time.
        set_usable_cores(monkeypatch, cores)
        n, steps = 6, 6
        monkeypatch.setattr(state_module, "_READOUT_BLOCK", 2 * math.comb(n, 3) * 3 * 3)
        events = []
        for name in ("read_out", "sample_z_basis"):
            def recorded(*args, _name=name, _original=getattr(cli, name)):
                events.append((_name, threading.current_thread()))
                return _original(*args)

            monkeypatch.setattr(cli, name, recorded)
        config = cli.RunConfig(
            n_sites=n, initial_state_index=0b010101, trotter_steps=steps, shots=(1 << 14) + 1,
            oracle="off", output_dir=str(tmp_path / "run"),
        )
        assert cli.run(config) == cli.EXIT_OK
        main = threading.main_thread()
        blocks = math.ceil((steps + 1) / 2)
        assert events == [("read_out", main), ("sample_z_basis", main)] * blocks

    @pytest.mark.parametrize("cores", [1, 4])
    def test_error_in_batch_joins_threads(self, monkeypatch, cores):
        # A state that cannot be sampled stops the block: no state after it
        # is drawn, and no thread is left behind.
        set_usable_cores(monkeypatch, cores)
        block = half_filled_block()
        amplitudes = block.amplitudes.copy()
        amplitudes[2, 1] = np.nan
        keys = record_keys(monkeypatch)
        before = threading.active_count()
        with pytest.raises(ValueError, match="cannot sample a state of total probability nan"):
            sample_z_basis(StateVector(6, block.indices, amplitudes), 3 * (1 << 14), seed=1)
        assert [key for key, _ in keys] == [1, 2]
        assert threading.active_count() == before

    def test_cores_without_an_affinity_call(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity: the sampler works
        # there, on the calling thread, with the same counts, whatever
        # os.cpu_count() says.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        block = half_filled_block()
        shots = 3 * (1 << 14) + 5
        serial = [sample_reference(st, shots, 5 + i) for i, st in enumerate(states_of(block))]
        keys = record_keys(monkeypatch)
        for cores in (4, None):
            keys.clear()
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            batch = sample_z_basis(block, shots, seed=5)
            assert [thread for _, thread in keys] == [threading.main_thread()] * len(serial)
            for i, expected in enumerate(serial):
                assert np.array_equal(batch.freqs[i], expected), (cores, i)

    @pytest.mark.parametrize("key", [0, 2**63, 2**64 - 1])
    def test_rekeyed_generator_draws_as_a_fresh_one(self, key):
        # One bit generator is re-keyed for each state of a block; each
        # state's counts are those of a fresh Generator(Philox(key=seed + i)),
        # up to the last uint64 key.
        block = half_filled_block()
        seed = min(key, 2**64 - len(block.amplitudes))
        batch = sample_z_basis(block, 1000, seed)
        assert seed <= key <= seed + len(block.amplitudes) - 1
        for i, st in enumerate(states_of(block)):
            assert np.array_equal(batch.freqs[i], sample_reference(st, 1000, seed + i)), i

    def test_rejects_zero_shots_before_pulling_a_state(self, monkeypatch):
        block = half_filled_block()
        keys = record_keys(monkeypatch)
        for shots in (0, -1):
            with pytest.raises(ValueError, match="shots must be >= 1"):
                sample_z_basis(block, shots, seed=1)
        assert keys == []
