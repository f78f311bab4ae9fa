"""N-qubit Pauli strings and weighted Pauli sums in symplectic bitmask form.

A Pauli string is stored as a pair of bitmasks: bit q of ``x_mask`` is set
iff X or Y acts on qubit q, bit q of ``z_mask`` iff Z or Y acts there
(Y = both bits).  Qubit q corresponds to bit q of the computational basis
index, so qubit 0 is the least significant bit.

Text labels use one character per qubit with position q at character q,
e.g. ``XXIIIIII`` is X(0)X(1) on eight qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DENSE_QUBIT_LIMIT, ResourceLimitError

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)  # i**k for k = 0..3

_AXIS_MASKS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Paulis."""

    n_qubits: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        full = (1 << self.n_qubits) - 1
        if not 0 <= self.x_mask <= full:
            raise ValueError(f"x_mask {self.x_mask:#x} out of range for {self.n_qubits} qubits")
        if not 0 <= self.z_mask <= full:
            raise ValueError(f"z_mask {self.z_mask:#x} out of range for {self.n_qubits} qubits")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from an IXYZ label with character q acting on qubit q."""
        x_mask = z_mask = 0
        for q, ch in enumerate(label):
            try:
                bx, bz = _AXIS_MASKS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli character {ch!r} in label {label!r}") from None
            x_mask |= bx << q
            z_mask |= bz << q
        return cls(len(label), x_mask, z_mask)

    def column_phases(self, indices: np.ndarray) -> np.ndarray:
        """Phases f(k) with P|k> = f(k) |k ^ x_mask> for the given basis indices:
        i^(Y count), negated where k & z_mask has odd parity."""
        signs = 1.0 - 2.0 * (np.bitwise_count(indices & np.int64(self.z_mask)) & 1)
        return _PHASES[(self.x_mask & self.z_mask).bit_count() % 4] * signs

    def to_dense(self) -> np.ndarray:
        """Explicit 2^N x 2^N matrix (qubit 0 = least significant index bit)."""
        return PauliSum(self.n_qubits, [(1.0, self)]).to_dense()


def single_site(n_qubits: int, site: int, axis: str) -> PauliString:
    """The string acting with the given Pauli axis on one site, identity elsewhere."""
    if not 0 <= site < n_qubits:
        raise ValueError(f"site {site} out of range for {n_qubits} qubits")
    if axis not in ("X", "Y", "Z"):
        raise ValueError(f"axis must be 'X', 'Y' or 'Z', got {axis!r}")
    bx, bz = _AXIS_MASKS[axis]
    return PauliString(n_qubits, bx << site, bz << site)


class PauliSum:
    """A real-weighted sum of Pauli strings, merged and deterministically ordered.

    The constructor is the one way to build or combine sums: it adds the
    coefficients of equal strings in input order as floats, drops zeros and
    sorts by (z_mask, x_mask).  It rejects a complex coefficient: the sum is Hermitian.
    """

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int, terms: Iterable[tuple[float, PauliString]] = ()):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        merged: dict[PauliString, float] = {}
        for coeff, string in terms:
            if string.n_qubits != n_qubits:
                raise ValueError(f"term on {string.n_qubits} qubits in a {n_qubits}-qubit sum")
            if isinstance(coeff, (complex, np.complexfloating)):
                raise ValueError(f"complex coefficient {coeff!r} on {string}")
            merged[string] = merged.get(string, 0.0) + float(coeff)
        out = [(coeff, string) for string, coeff in merged.items() if coeff != 0]
        out.sort(key=lambda item: (item[1].z_mask, item[1].x_mask))
        self.n_qubits = n_qubits
        self.terms = tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.terms == other.terms

    def on_states(self, indices: np.ndarray) -> np.ndarray:
        """The one rule that turns the sum into a matrix: entry (r, c) is
        <indices[r]| sum |indices[c]> for strictly ascending int64 basis indices,
        and the part of a term that leaves the set is dropped."""
        if np.any(indices[1:] <= indices[:-1]):
            raise ValueError("basis indices must be strictly ascending")
        out = np.zeros((len(indices), len(indices)), dtype=np.complex128)
        for coeff, string in self.terms:
            targets = indices ^ np.int64(string.x_mask)
            rows = np.searchsorted(indices, targets)
            cols = np.flatnonzero(indices.take(rows, mode="clip") == targets)
            out[rows[cols], cols] += coeff * string.column_phases(indices[cols])
        return out

    def to_dense(self) -> np.ndarray:
        """Explicit matrix under the qubit-0-is-LSB convention."""
        if self.n_qubits > DENSE_QUBIT_LIMIT:
            raise ResourceLimitError(
                f"dense realization limited to {DENSE_QUBIT_LIMIT} qubits, got {self.n_qubits}"
            )
        return self.on_states(np.arange(1 << self.n_qubits, dtype=np.int64))

    @classmethod
    def from_text(cls, text: str, n_qubits: int) -> "PauliSum":
        """Parse one ``<coefficient> <label>`` term per line, skipping blank and ``#`` lines."""
        terms = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            coeff_str, label = line.split()
            terms.append((float(coeff_str), PauliString.from_label(label)))
        return cls(n_qubits, terms)
