"""Exception types and numerical tolerances shared across the package."""

# A unitary kernel that moves the norm further than this is broken: 1e4
# random rotations at N = 8 drift by ~3e-15, so 1e-8 is far above rounding.
NORM_DRIFT_LIMIT = 1e-8

# Drift of the norm and of the total charge over a run's snapshots beyond
# which `run` exits 3; the paper presets drift by ~5e-14.
NORM_DRIFT_TOL = 1e-10
CHARGE_DRIFT_TOL = 1e-10

# The oracle stops doubling once two successive results differ by less than
# this in norm; it also bounds the imaginary part of an expectation, which
# is pure rounding for a Hermitian observable.
ORACLE_TOL = 1e-10

# The oracle cuts the Taylor series of each step at the fewest terms whose
# remainder bound is below this, an order under the rounding of a unit vector.
SERIES_REMAINDER = 1e-17

# Phases folded into a Hermitian sum's coefficients are exact multiples of
# i, so any imaginary part above rounding means a non-Hermitian sum.
IMAG_COEFF_TOL = 1e-12

# `verify` checks identities that hold exactly up to rounding: for N = 4..10
# the bilinear identities deviate by 0 and the filled-state eigenvalue by at
# most 2.2e-16, so 1e-12 is far above rounding and far below any real error.
IDENTITY_TOL = 1e-12


class ResourceLimitError(RuntimeError):
    """Raised when an operation would exceed a hard-coded memory/size guard."""


class NormDriftError(RuntimeError):
    """Raised when a state's norm drifts beyond tolerance (indicates a kernel bug)."""
