"""Lattice Hamiltonian of a free staggered fermion in a 1+1D de Sitter universe.

The qubit register holds N staggered sites (site x = qubit x, N even).  In
lattice units (a = 1) the Hamiltonian is

    aH(t) = hopping + h * charge_term + m * e^{h t} * mass_term

with a nearest-neighbour XX+YY hopping part, a boundary string closing the
chain (sign (-1)^{N/2}, Z string over the interior sites), a uniform
(1/4) sum of Z giving the Hubble charge term and a staggered (1/2) sum of
alternating Z giving the mass term.  Constant identity offsets are dropped;
they only contribute a global phase.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import BILINEAR_QUBIT_LIMIT, JW_QUBIT_LIMIT, MAX_SITES, ResourceLimitError
from .pauli import PauliString, PauliSum, single_site


def check_sites(n_sites: int) -> None:
    """The lattice-size rule: two staggered sites per Dirac spinor, at least two
    spinors, and at most MAX_SITES sites."""
    if not 4 <= n_sites <= MAX_SITES or n_sites % 2 != 0:
        raise ValueError(f"n_sites must be an even integer in [4, {MAX_SITES}], got {n_sites}")


@dataclass(frozen=True)
class ModelParams:
    """Lattice size and physical couplings, all dimensionless (a = 1)."""

    n_sites: int
    hubble: float
    mass: float

    def __post_init__(self):
        check_sites(self.n_sites)
        for name in ("hubble", "mass"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class HamiltonianParts:
    """Time-independent pieces; time enters only through scalar prefactors."""

    hopping: PauliSum
    charge: PauliSum
    mass_term: PauliSum


@functools.cache
def hamiltonian_parts(n_sites: int) -> HamiltonianParts:
    """The one definition of the terms of aH(t) and of their coefficients,
    built once per lattice size and shared by callers, which only read it.

    - hopping: -(1/2) sum of the bulk bonds X(x) X(x+1) + Y(x) Y(x+1), plus
      the boundary pair X(0) Z(1) ... Z(N-2) X(N-1) and its Y twin with the
      coefficient -(-1)^{N/2}/2;
    - charge: (1/4) sum of Z(x); the Hubble rate multiplies it at assembly;
    - mass_term: (1/2) sum of (-1)^x Z(x), positive at x = 0; m e^{ht}
      multiplies it at assembly.
    """
    check_sites(n_sites)
    bulk = [
        "I" * x + axis * 2 + "I" * (n_sites - x - 2) for x in range(n_sites - 1) for axis in "XY"
    ]
    boundary = [axis + "Z" * (n_sites - 2) + axis for axis in "XY"]
    boundary_coeff = -((-1) ** (n_sites // 2)) / 2.0
    hopping = [(-0.5, PauliString.from_label(label)) for label in bulk]
    hopping += [(boundary_coeff, PauliString.from_label(label)) for label in boundary]
    z = [single_site(n_sites, x, "Z") for x in range(n_sites)]
    return HamiltonianParts(
        hopping=PauliSum(n_sites, hopping),
        charge=PauliSum(n_sites, [(0.25, string) for string in z]),
        mass_term=PauliSum(n_sites, [(0.5 * (-1) ** x, string) for x, string in enumerate(z)]),
    )


@functools.cache
def one_body_parts(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """The hopping and mass parts of aH(t) on the N one-hole states 1 << x,
    as N x N matrices (row and column x belong to the hole at site x),
    built once per lattice size.  Read-only arrays.

    With k holes, aH(t) - h * charge_term acts as the second quantization of
    these parts: hopping + m e^{ht} mass is the one-body matrix h1(t).  The
    charge term does not: it is (N - 2k)/4 on every state with k holes.
    """
    parts = hamiltonian_parts(n_sites)
    holes = np.int64(1) << np.arange(n_sites, dtype=np.int64)
    blocks = parts.hopping.on_states(holes), parts.mass_term.on_states(holes)
    for block in blocks:
        block.flags.writeable = False  # the cache hands it to every caller
    return blocks


def scale_factor(params: ModelParams, t: float) -> float:
    """de Sitter scale factor g(t) = e^{h t}."""
    return math.exp(params.hubble * t)


def hamiltonian_at(params: ModelParams, t: float) -> PauliSum:
    """aH(t) assembled from the static parts and the scalar prefactors."""
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    parts = hamiltonian_parts(params.n_sites)
    mass_scale = params.mass * scale_factor(params, t)
    return PauliSum(
        params.n_sites,
        [
            *parts.hopping.terms,
            *((coeff * params.hubble, string) for coeff, string in parts.charge.terms),
            *((coeff * mass_scale, string) for coeff, string in parts.mass_term.terms),
        ],
    )


# ---------------------------------------------------------------------------
# Dense Jordan-Wigner oracle machinery
# ---------------------------------------------------------------------------

def jw_fermion_op(n_sites: int, x: int) -> np.ndarray:
    """Dense annihilation operator chi(x) = ((X - iY)/2)(x) prod_{j<x} (-i Z(j)).

    Occupied site <-> qubit in |0>, so chi maps |0> to |1> on its site with
    the Jordan-Wigner string restoring fermionic anticommutation.
    """
    if n_sites > JW_QUBIT_LIMIT:
        raise ResourceLimitError(
            f"dense Jordan-Wigner operators limited to {JW_QUBIT_LIMIT} qubits, got {n_sites}"
        )
    if not 0 <= x < n_sites:
        raise ValueError(f"site {x} out of range for {n_sites} sites")
    string_x, string_y = (
        PauliString.from_label("Z" * x + axis + "I" * (n_sites - x - 1)) for axis in "XY"
    )
    prefactor = (-1j) ** x
    return 0.5 * prefactor * (string_x.to_dense() - 1j * string_y.to_dense())


def verify_bilinears(n_sites: int) -> float:
    """Check the three staggered-fermion bilinear identities by dense
    equality: the largest elementwise deviation between their fermionic and
    Pauli realizations.

    The Dirac field packs two staggered sites per spinor, psi(X) =
    (chi(X), chi(X+1)) at even X, with a forward difference on the upper
    component and a backward difference on the lower one.  Site indices wrap
    periodically (mod N); the boundary string's (-1)^{N/2} sign then emerges
    from the Jordan-Wigner tails on the wrapped terms.
    """
    check_sites(n_sites)
    if n_sites > BILINEAR_QUBIT_LIMIT:
        raise ResourceLimitError(
            f"bilinear verification limited to {BILINEAR_QUBIT_LIMIT} qubits, got {n_sites}"
        )
    parts = hamiltonian_parts(n_sites)
    dim = 1 << n_sites
    chi = [jw_fermion_op(n_sites, x) for x in range(n_sites)]

    def chi_wrapped(x: int) -> np.ndarray:
        return chi[x % n_sites]

    # Kinetic bilinear: psibar i gamma^1 d psi with gamma^0 gamma^1 = -i sigma^x
    # in spinor space, i.e. -i (psi0^dag dpsi1 + psi1^dag dpsi0) per Dirac site.
    kinetic_fermi = np.zeros((dim, dim), dtype=np.complex128)
    for X in range(0, n_sites, 2):
        psi0_dag = chi_wrapped(X).conj().T
        psi1_dag = chi_wrapped(X + 1).conj().T
        dpsi0 = chi_wrapped(X + 2) - chi_wrapped(X)
        dpsi1 = chi_wrapped(X + 1) - chi_wrapped(X - 1)
        kinetic_fermi += -1j * (psi0_dag @ dpsi1 + psi1_dag @ dpsi0)
    kinetic_pauli = -parts.hopping.to_dense()
    kinetic_dev = float(np.max(np.abs(kinetic_fermi - kinetic_pauli)))

    # Charge bilinear: sum chi^dag chi = sum (1 + Z)/2.
    charge_fermi = sum(chi[x].conj().T @ chi[x] for x in range(n_sites))
    charge_pauli = 2.0 * parts.charge.to_dense()
    charge_pauli += (n_sites / 2.0) * np.eye(dim)
    charge_dev = float(np.max(np.abs(charge_fermi - charge_pauli)))

    # Mass bilinear: sum (-1)^x chi^dag chi = sum (-1)^x (1 + Z)/2; the
    # identity piece cancels for even N.
    mass_fermi = sum((-1) ** x * (chi[x].conj().T @ chi[x]) for x in range(n_sites))
    mass_pauli = parts.mass_term.to_dense()
    mass_dev = float(np.max(np.abs(mass_fermi - mass_pauli)))

    return max(kinetic_dev, charge_dev, mass_dev)


# ---------------------------------------------------------------------------
# N = 8 golden fixture, shipped as hand-transcribed text files
# ---------------------------------------------------------------------------

def _load_fixture(name: str) -> PauliSum:
    text = resources.files("dsfermion").joinpath(f"fixtures/{name}.txt").read_text()
    return PauliSum.from_text(text, n_qubits=8)


def n8_fixture() -> tuple[PauliSum, PauliSum, PauliSum]:
    """Hand-transcribed (h1, h2, h3) with aH = -h1 + (h/2) h2 + (m e^{ht}) h3.

    Used only as a golden fixture against hamiltonian_parts(8); the term
    lists live in fixtures/n8_h*.txt in the textual Pauli-sum format.
    """
    return _load_fixture("n8_h1"), _load_fixture("n8_h2"), _load_fixture("n8_h3")
