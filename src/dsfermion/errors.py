"""Exception types and numerical tolerances shared across the package."""

# A Trotter step that moves the norm further than this is broken: 1000
# steps at N = 8 and half filling drift by ~1.5e-12, so 1e-8 is far above
# rounding.
NORM_DRIFT_LIMIT = 1e-8

# Drift of the norm and of the total charge over a run's snapshots beyond
# which `run` exits 3; the paper presets drift by ~5e-14.
NORM_DRIFT_TOL = 1e-10
CHARGE_DRIFT_TOL = 1e-10

# The oracle stops doubling once its bound on the norm difference of two
# successive results is below this.
ORACLE_TOL = 1e-10

# `run` rejects a config with h * t_total above this before any work.  The
# observables scale with the volume factor e^{ht} and the shot variance
# squares it, times the squared spread of a per-shot value and the shot
# count: at h t = 350, e^{2 h t} = 1e304 already overflows to inf at N = 12
# with 200k shots, and past 709.8 e^{ht} itself does.  At 300, e^{2 h t} =
# 4e260 leaves a factor of 1e47 for the spread and the shots.
HUBBLE_TIME_LIMIT = 300.0

# `run` reports the ratio p(t)/p(0) only where |p(0)| is above this; a basis
# start's p(0) sums occupied site positions, an integer: this tells 0 from >= 1.
P_RATIO_FLOOR = 1e-9

# `state_distance` aligns a state's phase at one amplitude only above this
# size: amplitudes carry ~1e-16 of rounding, so a smaller one's phase is noise.
PHASE_FLOOR = 1e-12

# A Hermitian sum of Pauli strings has real coefficients, so any imaginary
# part above rounding means a non-Hermitian sum.
IMAG_COEFF_TOL = 1e-12

# `verify` checks identities that hold exactly up to rounding: for N = 4..10
# the bilinear identities deviate by 0 and the filled-state eigenvalue by at
# most 2.2e-16, so 1e-12 is far above rounding and far below any real error.
IDENTITY_TOL = 1e-12

# The largest lattice: basis indices are int64 with site x at bit x, and
# bit 63 is the sign bit, so an even lattice fits in at most 62 sites.
MAX_SITES = 62
# Shot sampling keys Philox with the seed as a uint64, and snapshot i draws
# with seed + i, so every such seed must be below this.
SEED_LIMIT = 1 << 64
# The sampler draws one float64 per shot, so 2^28 shots take 2 GiB, the
# same as READOUT_LIMIT; `run` rejects more before any work.
SHOT_LIMIT = 1 << 28
# Sweep point j runs with the seed base + j * SEED_STRIDE, and a run takes
# fewer Trotter steps than this, so no two snapshots of a sweep share a key.
SEED_STRIDE = 1 << 32

# Size guards, in qubits.  A dense 2^N x 2^N complex matrix takes 4 GiB at
# N = 14.
DENSE_QUBIT_LIMIT = 14
# A dense Jordan-Wigner operator takes 256 MiB at N = 12.
JW_QUBIT_LIMIT = 12
# The bilinear check holds 2N dense operators at once: 320 MiB at N = 10.
BILINEAR_QUBIT_LIMIT = 10
# Not in qubits: a readout gathers the k x k minors of C(N, k) amplitudes, C(N, k) k^2
# complex entries; `run` rejects shots or the oracle past this many (2 GiB) before any
# work: C(22, 11) 11^2 = 85M entries pass, C(24, 12) 12^2 = 389M do not.
READOUT_LIMIT = 1 << 27
# Not in qubits: the oracle doubles its step count up to this many steps,
# and `run` rejects an oracle_substeps_start whose first doubling would pass
# it.  The step product gathers rounding with every step: at N = 8 and
# m = 0, where the propagator is exact at any step count, successive
# doublings differ by 5.4e-11 at 2^15 -> 2^16 steps and 1.1e-10 at
# 2^16 -> 2^17, so a larger budget cannot reach ORACLE_TOL.
ORACLE_SUBSTEP_BUDGET = 1 << 16


class ResourceLimitError(RuntimeError):
    """Raised when an operation would exceed a hard-coded memory/size guard."""


class NormDriftError(RuntimeError):
    """Raised when a state's norm drifts beyond tolerance (indicates a kernel bug)."""
