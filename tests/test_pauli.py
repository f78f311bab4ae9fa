"""Pauli strings and sums against the naive dense oracle."""

import numpy as np
import pytest

from dsfermion.errors import ResourceLimitError
from dsfermion.pauli import PauliString, PauliSum, single_site

from conftest import dense_from_label, dense_from_terms, pauli_label, random_label


class TestPauliString:
    def test_y_mask_convention(self):
        p = single_site(4, 3, "Y")
        assert p.x_mask == 0b1000
        assert p.z_mask == 0b1000

    def test_label_round_trip(self):
        for label in ("IXYZ", "ZZZZ", "IIII", "YXIZ"):
            assert pauli_label(PauliString.from_label(label)) == label

    def test_identity(self):
        p = PauliString(3, 0, 0)
        assert pauli_label(p) == "III"
        assert np.array_equal(p.to_dense(), np.eye(8))

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
        x1, z0 = single_site(2, 1, "X").to_dense(), single_site(2, 0, "Z").to_dense()
        assert np.array_equal(x1 @ z0, z0 @ x1)

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
        x, y, z = (single_site(1, 0, axis).to_dense() for axis in "XYZ")
        assert np.array_equal(x @ y, 1j * z)


class TestCommutes:
    """Commutation facts, on the dense realizations."""

    def test_bond_pairs_commute(self):
        xx = PauliString.from_label("XX").to_dense()
        yy = PauliString.from_label("YY").to_dense()
        assert np.array_equal(xx @ yy, yy @ xx)

    def test_single_site_anticommute(self):
        x, z = single_site(1, 0, "X").to_dense(), single_site(1, 0, "Z").to_dense()
        assert np.array_equal(x @ z, -(z @ x))

    def test_boundary_strings_commute_dense(self):
        da = PauliString.from_label("XZZZZZZX").to_dense()
        db = PauliString.from_label("YZZZZZZY").to_dense()
        assert np.max(np.abs(da @ db - db @ da)) < 1e-14


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
        assert len(a.terms) == 2
        coeffs = {pauli_label(p): c for c, p in a.terms}
        assert coeffs == {"ZI": 1.0, "IX": 0.25}

    def test_merging_idempotent(self):
        terms = [(0.3, single_site(3, 0, "X")), (-0.7, single_site(3, 2, "Z"))]
        assert PauliSum(3, terms) == PauliSum(3, terms)

    def test_exact_cancellation_empty(self):
        z0 = single_site(2, 0, "Z")
        a = PauliSum(2, [(0.5, z0), (-0.5, z0)])
        assert len(a.terms) == 0

    def test_imaginary_residue_rejected(self):
        y = single_site(1, 0, "Y")
        for coeff in (1j, 1 + 1e-15j, np.complex128(1.0), np.complex64(1.0)):
            with pytest.raises(ValueError, match="complex coefficient"):
                PauliSum(1, [(coeff, y)])

    def test_int_and_numpy_coefficients_merge_into_a_float(self):
        z0 = single_site(2, 0, "Z")
        tiny = np.float64(2.0**-53)
        ((coeff, string),) = PauliSum(2, [(1, z0), (tiny, z0), (tiny, z0)]).terms
        assert type(coeff) is float and string == z0
        # In input order 1 + 2^-53 rounds to 1 twice; the two halves first give 1 + 2^-52.
        assert coeff == 1.0
        ((coeff, _),) = PauliSum(2, [(tiny, z0), (tiny, z0), (1, z0)]).terms
        assert coeff == 1.0 + 2.0**-52

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


class TestOnStates:
    def test_random_subsets_match_kron_reference(self, rng):
        for n in (2, 4, 6, 8):
            terms = [(float(rng.standard_normal()), random_label(rng, n)) for _ in range(8)]
            op = PauliSum(n, [(c, PauliString.from_label(label)) for c, label in terms])
            reference = dense_from_terms(n, terms)
            for size in (1, 3, (1 << n) // 2, 1 << n):
                indices = np.sort(rng.choice(1 << n, size=size, replace=False)).astype(np.int64)
                got = op.on_states(indices)
                assert got.shape == (size, size) and got.dtype == np.complex128
                assert np.allclose(got, reference[np.ix_(indices, indices)], rtol=0, atol=1e-13)

    def test_part_leaving_the_set_is_dropped(self):
        # X(1)X(2) takes |0000> to |0110> and |0001> to |0111>, both outside
        # the set, and swaps |0010> and |0100>, both inside it.
        op = PauliSum(4, [(1.0, PauliString.from_label("IXXI"))])
        indices = np.array([0b0000, 0b0001, 0b0010, 0b0100, 0b1000], dtype=np.int64)
        expected = np.zeros((5, 5))
        expected[2, 3] = expected[3, 2] = 1.0
        assert np.array_equal(op.on_states(indices), expected)
        reference = dense_from_terms(4, [(1.0, "IXXI")])
        assert np.array_equal(op.on_states(indices), reference[np.ix_(indices, indices)])

    def test_empty_set(self):
        op = PauliSum(3, [(1.0, PauliString.from_label("XYZ"))])
        got = op.on_states(np.array([], dtype=np.int64))
        assert got.shape == (0, 0) and got.dtype == np.complex128

    @pytest.mark.parametrize("indices", [[2, 1], [1, 1], [0, 3, 3, 5]])
    def test_indices_must_be_strictly_ascending(self, indices):
        op = PauliSum(3, [(1.0, PauliString.from_label("XII"))])
        with pytest.raises(ValueError, match="strictly ascending"):
            op.on_states(np.array(indices, dtype=np.int64))
