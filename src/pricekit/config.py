"""Shared numerical tolerances.

All logarithms in this package are natural logs, and the convention
0 * log(0) = 0 is applied everywhere a mass-weighted log appears.
"""

# Absolute threshold below which a weight or fitness value is treated as
# exactly zero for support / childbearing purposes.
EPS_ZERO = 1e-12

# Relative tolerance for identities that regenerate one another through
# floating-point sums (disintegration, Price residuals, compositions).
EPS_REL = 1e-9

# Absolute tolerance on a law's slack when deciding saturation.
EPS_SAT = 1e-9

# Hermiticity residual allowed on operator inputs.
EPS_HERM = 1e-10

# Most-negative eigenvalue allowed on a density operator before rejection;
# anything within this band is clipped to zero.
EPS_PSD = 1e-10


class IdentityViolation(ValueError):
    """A cross-checked identity whose residual exceeded its tolerance."""

    def __init__(self, name: str, residual: float, tolerance: float):
        super().__init__(f"{name}: residual {residual:.3e} exceeds tolerance {tolerance:.3e}")
        self.name, self.residual, self.tolerance = name, residual, tolerance

    @classmethod
    def check(cls, name: str, residual: float, tolerance: float) -> None:
        """Raise one unless residual <= tolerance (a NaN residual passes)."""
        if residual > tolerance:
            raise cls(name, float(residual), float(tolerance))
