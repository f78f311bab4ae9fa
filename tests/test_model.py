"""Hamiltonian parts, Jordan-Wigner oracle and the N=8 transcription fixture."""

import numpy as np
import pytest

from dsfermion.errors import ResourceLimitError
from dsfermion.model import (
    ModelParams,
    hamiltonian_at,
    hamiltonian_parts,
    jw_fermion_op,
    n8_fixture,
    one_body_parts,
    verify_bilinears,
)
from dsfermion.pauli import PauliSum

from conftest import (
    H1_TERMS,
    H2_TERMS,
    H3_TERMS,
    charge_commutator_entries,
    dense_from_terms,
    dense_n8_hamiltonian,
    naive_jw_annihilation,
    pauli_label,
    sector_block,
)


class TestModelParams:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 64])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            ModelParams(n, 0.1, 0.0)

    def test_largest_lattice(self):
        assert ModelParams(62, 0.1, 0.0).n_sites == 62

    def test_rejects_negative_couplings(self):
        with pytest.raises(ValueError):
            ModelParams(8, -0.1, 0.0)
        with pytest.raises(ValueError):
            ModelParams(8, 0.1, float("nan"))

    def test_accepts_paper_values(self):
        ModelParams(8, 0.1, 1.0)


class TestBuilders:
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_hopping_term_count(self, n):
        hop = hamiltonian_parts(n).hopping
        assert len(hop.terms) == 2 * (n - 1) + 2

    def test_hopping_boundary_sign_n8(self):
        # (-1)^(N/2) = +1 at N=8, so the boundary strings carry -1/2.
        hop = hamiltonian_parts(8).hopping
        coeffs = {pauli_label(p): c for c, p in hop.terms}
        assert coeffs["XZZZZZZX"] == -0.5
        assert coeffs["YZZZZZZY"] == -0.5

    def test_hopping_boundary_sign_n6(self):
        # (-1)^3 = -1 at N=6 flips the boundary coefficient to +1/2.
        coeffs = {pauli_label(p): c for c, p in hamiltonian_parts(6).hopping.terms}
        assert coeffs["XZZZZX"] == 0.5
        assert coeffs["YZZZZY"] == 0.5

    def test_charge_term_structure(self):
        charge = hamiltonian_parts(8).charge
        assert len(charge.terms) == 8
        assert all(c == 0.25 for c, _ in charge.terms)
        assert all(p.x_mask == 0 for _, p in charge.terms)

    def test_charge_filled_state_eigenvalue_n4(self):
        # All sigma^z = +1 on |0000>, so the diagonal entry at index 0 is N/4.
        dense = hamiltonian_parts(4).charge.to_dense()
        assert abs(dense[0, 0] - 1.0) < 1e-15

    def test_mass_term_signs(self):
        mass = hamiltonian_parts(8).mass_term
        coeffs = {pauli_label(p): c for c, p in mass.terms}
        for x in range(8):
            label = "I" * x + "Z" + "I" * (7 - x)
            assert coeffs[label] == 0.5 * (-1) ** x

    def test_mass_term_traceless(self):
        assert abs(np.trace(hamiltonian_parts(4).mass_term.to_dense())) < 1e-15

    def test_mass_term_vanishes_on_filled_state(self):
        # Alternating signs cancel on |0...0> for even N.
        for n in (4, 6, 8):
            assert hamiltonian_parts(n).mass_term.to_dense()[0, 0] == 0.0

    def test_odd_size_rejected(self):
        for n in (5, 2):
            with pytest.raises(ValueError, match="n_sites must be an even integer"):
                hamiltonian_parts(n)

    def test_hopping_commutes_with_charge_n4(self):
        parts = hamiltonian_parts(4)
        hop = parts.hopping.to_dense()
        sz = 4.0 * parts.charge.to_dense()
        assert np.max(np.abs(hop @ sz - sz @ hop)) < 1e-14


class TestHamiltonianAt:
    def test_matches_independent_n8_realization(self):
        params = ModelParams(8, 0.1, 1.0)
        for t in (0.0, 0.6):
            ours = hamiltonian_at(params, t).to_dense()
            theirs = dense_n8_hamiltonian(0.1, 1.0, t)
            assert np.max(np.abs(ours - theirs)) < 1e-14

    def test_massless_time_independent(self):
        params = ModelParams(8, 0.1, 0.0)
        assert hamiltonian_at(params, 0.0) == hamiltonian_at(params, 5.0)

    def test_filled_state_expectation(self):
        params = ModelParams(8, 0.1, 1.0)
        for t in (0.0, 1.0):
            dense = hamiltonian_at(params, t).to_dense()
            assert abs(dense[0, 0] - 0.2) < 1e-12

    def test_filled_state_exact_eigenvector(self):
        params = ModelParams(8, 0.1, 1.0)
        dense = hamiltonian_at(params, 0.7).to_dense()
        e0 = np.zeros(256)
        e0[0] = 1.0
        residual = np.linalg.norm(dense @ e0 - 0.2 * e0)
        assert residual < 1e-13

    def test_hermitian(self):
        params = ModelParams(8, 0.1, 1.0)
        dense = hamiltonian_at(params, 0.3).to_dense()
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-13

    def test_rejects_bad_time(self):
        params = ModelParams(4, 0.1, 1.0)
        with pytest.raises(ValueError):
            hamiltonian_at(params, -1.0)

    def test_sector_blocks_are_the_dense_submatrices(self):
        # aH(t) has no entry between different popcounts, and each part's
        # popcount-k block is the dense part's submatrix, entry for entry.
        for n in (4, 6, 8, 10):
            popcounts = np.bitwise_count(np.arange(1 << n))
            across = popcounts[:, None] != popcounts[None, :]
            dense = hamiltonian_at(ModelParams(n, 0.1, 1.0), 0.7).to_dense()
            assert np.all(dense[across] == 0), n
            parts = hamiltonian_parts(n)
            hopping = parts.hopping.to_dense()
            charge = np.diag(parts.charge.to_dense()).real
            mass = np.diag(parts.mass_term.to_dense()).real
            for k in range(n + 1):
                block = sector_block(n, k)
                assert np.array_equal(block.indices, np.flatnonzero(popcounts == k)), (n, k)
                sub = np.ix_(block.indices, block.indices)
                assert np.array_equal(block.hopping, hopping[sub]), (n, k)
                assert np.array_equal(block.charge, charge[block.indices]), (n, k)
                assert np.array_equal(block.mass, mass[block.indices]), (n, k)

    def test_one_body_parts_are_the_one_hole_block(self):
        # h1(t) = hopping + m e^{ht} mass is the popcount-1 block without its
        # charge diagonal, entry for entry; site x is basis state 1 << x.
        for n in (4, 6, 8, 10, 12):
            hopping, mass = one_body_parts(n)
            block = sector_block(n, 1)
            assert np.array_equal(block.indices, 1 << np.arange(n)), n
            assert np.array_equal(hopping, block.hopping), n
            assert np.array_equal(mass, np.diag(block.mass)), n

    def test_hopping_entries_are_real_unit_signs(self):
        # evolve._bond_layer rotates each bond by the real sign of its entry:
        # every nonzero hopping entry is exactly +1 or -1, with no imaginary part.
        for n in range(4, 63, 2):
            hopping, _ = one_body_parts(n)
            entries = hopping[hopping != 0]
            assert len(entries) == 2 * n, n
            assert np.all(entries.imag == 0), n
            assert set(entries.real.tolist()) <= {1.0, -1.0}, n

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_charge_commutator_symbolically_zero(self, n):
        # Exactly zero on the dense matrices, entry for entry.
        params = ModelParams(n, 0.1, 1.0)
        for t in (0.0, 0.7):
            assert charge_commutator_entries(params, t) == 0


class TestJordanWigner:
    def test_chi0_is_local_lowering(self):
        op = jw_fermion_op(2, 0)
        expected = np.kron(np.eye(2), np.array([[0, 0], [1, 0]]))
        assert np.max(np.abs(op - expected)) < 1e-15

    def test_matches_naive_construction(self):
        for n in (2, 4):
            for x in range(n):
                dev = np.max(np.abs(jw_fermion_op(n, x) - naive_jw_annihilation(n, x)))
                assert dev < 1e-14

    def test_anticommutation_relations_n4(self):
        n = 4
        chi = [jw_fermion_op(n, x) for x in range(n)]
        eye = np.eye(1 << n)
        for x in range(n):
            for y in range(n):
                anti = chi[x] @ chi[y].conj().T + chi[y].conj().T @ chi[x]
                expected = eye if x == y else 0.0
                assert np.max(np.abs(anti - expected)) < 1e-14

    def test_nilpotent(self):
        for x in range(4):
            op = jw_fermion_op(4, x)
            assert np.max(np.abs(op @ op)) < 1e-14

    def test_guards(self):
        with pytest.raises(ValueError):
            jw_fermion_op(4, 4)
        with pytest.raises(ResourceLimitError):
            jw_fermion_op(14, 0)


class TestBilinears:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_identities_hold(self, n):
        assert verify_bilinears(n) < 1e-12

    def test_charge_identity_sides_diagonal_n4(self):
        # Both sides are all-Z, hence diagonal in the computational basis.
        n = 4
        chi = [naive_jw_annihilation(n, x) for x in range(n)]
        fermi = sum(c.conj().T @ c for c in chi)
        off_diag = fermi - np.diag(np.diag(fermi))
        assert np.max(np.abs(off_diag)) < 1e-14

    def test_size_guards(self):
        with pytest.raises(ValueError):
            verify_bilinears(5)
        with pytest.raises(ResourceLimitError):
            verify_bilinears(12)


class TestN8Fixture:
    def test_term_counts(self):
        h1, h2, h3 = n8_fixture()
        assert len(h1.terms) == 16
        assert len(h2.terms) == 8
        assert all(c == 0.5 for c, _ in h2.terms)
        assert len(h3.terms) == 8

    def test_h3_signs(self):
        _, _, h3 = n8_fixture()
        coeffs = {pauli_label(p): c for c, p in h3.terms}
        assert coeffs["ZIIIIIII"] == 0.5
        assert coeffs["IIIIIIIZ"] == -0.5

    def test_builders_reproduce_fixture_exactly(self):
        h1, h2, h3 = n8_fixture()
        parts = hamiltonian_parts(8)
        assert parts.hopping == PauliSum(8, [(-c, s) for c, s in h1.terms])
        assert parts.charge == PauliSum(8, [(0.5 * c, s) for c, s in h2.terms])
        assert parts.mass_term == h3

    def test_fixture_matches_independent_transcription(self):
        h1, h2, h3 = n8_fixture()
        for ours, theirs in ((h1, H1_TERMS), (h2, H2_TERMS), (h3, H3_TERMS)):
            dev = np.max(np.abs(ours.to_dense() - dense_from_terms(8, theirs)))
            assert dev == 0.0
