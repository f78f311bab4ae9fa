"""Pauli string/sum algebra against the naive dense oracle."""

import numpy as np
import pytest

from dsfermion.errors import ResourceLimitError
from dsfermion.pauli import PauliString, PauliSum, commutator, commutes, multiply, single_site

from conftest import dense_from_label, random_label


class TestPauliString:
    def test_y_mask_convention(self):
        p = single_site(4, 3, "Y")
        assert p.x_mask == 0b1000
        assert p.z_mask == 0b1000
        assert p.phase == 1

    def test_label_round_trip(self):
        for label in ("IXYZ", "ZZZZ", "IIII", "YXIZ"):
            assert PauliString.from_label(label).label() == label

    def test_identity(self):
        p = PauliString(3, 0, 0)
        assert p.label() == "III"
        assert np.array_equal(p.to_dense(), np.eye(8))

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            PauliString(2, 0, 0, phase=0.5)
        for phase in (1, -1, 1j, -1j):
            PauliString(2, 0, 0, phase=phase)

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            PauliString(2, 1 << 2, 0)
        with pytest.raises(ValueError):
            PauliString(0, 0, 0)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            single_site(4, 4, "X")
        with pytest.raises(ValueError):
            single_site(4, -1, "Z")
        with pytest.raises(ValueError):
            single_site(4, 0, "Q")

    def test_single_site_z_dense(self):
        mat = single_site(1, 0, "Z").to_dense()
        assert np.allclose(mat, np.diag([1.0, -1.0]))

    def test_disjoint_supports_commute(self):
        assert commutes(single_site(2, 1, "X"), single_site(2, 0, "Z"))

    def test_dense_matches_naive_realization(self, rng):
        for _ in range(20):
            label = random_label(rng, 3)
            p = PauliString.from_label(label)
            assert np.max(np.abs(p.to_dense() - dense_from_label(label))) < 1e-15

    def test_dense_guard(self):
        with pytest.raises(ResourceLimitError):
            PauliString(15, 0, 0).to_dense()


class TestMultiply:
    def test_xy_gives_iz(self):
        p = multiply(single_site(1, 0, "X"), single_site(1, 0, "Y"))
        assert p.label() == "Z"
        assert p.phase == 1j

    def test_identity_neutral(self):
        p = PauliString.from_label("XYZI")
        assert multiply(PauliString(4, 0, 0), p) == p
        assert multiply(p, PauliString(4, 0, 0)) == p

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            multiply(PauliString(2, 0, 0), PauliString(3, 0, 0))

    def test_random_pairs_match_dense_product(self, rng):
        for _ in range(50):
            la, lb = random_label(rng, 4), random_label(rng, 4)
            pa, pb = PauliString.from_label(la), PauliString.from_label(lb)
            product = multiply(pa, pb)
            dev = np.max(np.abs(product.to_dense() - dense_from_label(la) @ dense_from_label(lb)))
            assert dev < 1e-14

    def test_associativity(self, rng):
        for _ in range(30):
            strings = [PauliString.from_label(random_label(rng, 3)) for _ in range(3)]
            left = multiply(multiply(strings[0], strings[1]), strings[2])
            right = multiply(strings[0], multiply(strings[1], strings[2]))
            assert left == right
            dev = np.max(np.abs(left.to_dense() - right.to_dense()))
            assert dev < 1e-13


class TestCommutes:
    def test_bond_pairs_commute(self):
        xx = PauliString.from_label("XX")
        yy = PauliString.from_label("YY")
        assert commutes(xx, yy)

    def test_single_site_anticommute(self):
        assert not commutes(single_site(1, 0, "X"), single_site(1, 0, "Z"))

    def test_boundary_strings_commute_dense(self):
        a = PauliString.from_label("XZZZZZZX")
        b = PauliString.from_label("YZZZZZZY")
        assert commutes(a, b)
        da, db = a.to_dense(), b.to_dense()
        assert np.max(np.abs(da @ db - db @ da)) < 1e-14

    def test_agrees_with_dense_criterion_exhaustive_2q(self):
        labels = [a + b for a in "IXYZ" for b in "IXYZ"]
        for la in labels:
            for lb in labels:
                da, db = dense_from_label(la), dense_from_label(lb)
                dense_commute = np.max(np.abs(da @ db - db @ da)) < 1e-12
                assert commutes(PauliString.from_label(la), PauliString.from_label(lb)) == dense_commute

    def test_agrees_with_dense_criterion_random_6q(self, rng):
        for _ in range(40):
            la, lb = random_label(rng, 6), random_label(rng, 6)
            da, db = dense_from_label(la), dense_from_label(lb)
            dense_commute = np.max(np.abs(da @ db - db @ da)) < 1e-12
            assert commutes(PauliString.from_label(la), PauliString.from_label(lb)) == dense_commute

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            commutes(PauliString(2, 0, 0), PauliString(3, 0, 0))


def random_sum(rng, n_qubits, n_terms):
    terms = []
    for _ in range(n_terms):
        terms.append((float(rng.standard_normal()), PauliString.from_label(random_label(rng, n_qubits))))
    return PauliSum(n_qubits, terms)


class TestPauliSum:
    def test_merging_and_sorting(self):
        z0 = single_site(2, 0, "Z")
        x1 = single_site(2, 1, "X")
        a = PauliSum(2, [(0.5, z0), (0.25, x1), (0.5, z0)])
        assert len(a) == 2
        coeffs = {p.label(): c for c, p in a.terms}
        assert coeffs == {"ZI": 1.0, "IX": 0.25}

    def test_merging_idempotent(self):
        terms = [(0.3, single_site(3, 0, "X")), (-0.7, single_site(3, 2, "Z"))]
        assert PauliSum(3, terms) == PauliSum(3, terms)

    def test_exact_cancellation_empty(self):
        z0 = single_site(2, 0, "Z")
        a = PauliSum(2, [(0.5, z0), (-0.5, z0)])
        assert len(a) == 0

    def test_phase_folding(self):
        p = PauliString(1, 1, 1, phase=-1)  # -Y
        a = PauliSum(1, [(2.0, p)])
        assert a.terms[0][0] == -2.0
        assert a.terms[0][1].phase == 1

    def test_imaginary_residue_rejected(self):
        p = PauliString(1, 1, 1, phase=1j)
        with pytest.raises(ValueError):
            PauliSum(1, [(1.0, p)])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            PauliSum(2, [(1.0, PauliString(3, 0, 0))])

    def test_to_dense_identity(self):
        a = PauliSum(2, [(1.0, PauliString(2, 0, 0))])
        assert np.allclose(a.to_dense(), np.eye(4))

    def test_to_dense_half_z(self):
        a = PauliSum(1, [(0.5, single_site(1, 0, "Z"))])
        assert np.allclose(a.to_dense(), np.diag([0.5, -0.5]))

    def test_to_dense_guard(self):
        with pytest.raises(ResourceLimitError):
            PauliSum(15, [(1.0, PauliString(15, 0, 0))]).to_dense()

    def test_real_sums_are_hermitian(self, rng):
        for n in (2, 4, 8):
            a = random_sum(rng, n, 6)
            dense = a.to_dense()
            assert np.max(np.abs(dense - dense.conj().T)) < 1e-13

    def test_scalar_arithmetic_matches_dense(self, rng):
        a = random_sum(rng, 3, 4)
        b = random_sum(rng, 3, 4)
        dev = np.max(np.abs((a + 2.5 * b).to_dense() - (a.to_dense() + 2.5 * b.to_dense())))
        assert dev < 1e-13
        dev = np.max(np.abs((a + (-1.0) * b).to_dense() - (a.to_dense() - b.to_dense())))
        assert dev < 1e-13


class TestCommutator:
    def test_self_commutator_empty(self, rng):
        a = random_sum(rng, 3, 5)
        assert len(commutator(a, a)) == 0

    def test_random_sums_match_dense(self, rng):
        for _ in range(10):
            a = random_sum(rng, 3, 4)
            b = random_sum(rng, 3, 4)
            result = commutator(a, b)
            da, db = a.to_dense(), b.to_dense()
            dev = np.max(np.abs(result.to_dense() - (da @ db - db @ da)))
            assert dev < 1e-13

    def test_mismatched_sizes(self):
        a = PauliSum(2, [(1.0, single_site(2, 0, "Z"))])
        b = PauliSum(3, [(1.0, single_site(3, 0, "Z"))])
        with pytest.raises(ValueError):
            commutator(a, b)
