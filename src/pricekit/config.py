"""Numerical tolerances, one constant per decision, each commented with what it
is compared with and against which scale.  Logarithms are natural; 0 log 0 = 0."""

# Support and childbearing: a scale-free value (U, a flow share of the child
# mass n * wbar, a cell mean) at or below this is exactly zero.  Absolute.
# summarize_fitness alone applies it to U, values and operator eigenvalues alike,
# raised to numpy's matrix_rank floor size * eps * max|U| for eigh's rounding.
EPS_ZERO = 1e-12

# Identities regenerated through floating-point sums: residual against EPS_REL *
# max(|value|, 1).  The only user-set tolerance (PRICEKIT_TOLERANCE, validation).
EPS_REL = 1e-9

# Equality at an equilibrium: a law link is saturated when |slack| <=
# EPS_SAT * max(1, |ends of the link|) (LawReport); likewise the spread of U or
# of D over a cell, and the reversibility obstructions (nats, absolute).
EPS_SAT = 1e-9

# Operator band for every operator check (Hermiticity, least eigenvalue of a
# state, a map output, the Choi matrix or the fitness operator, idempotence,
# completeness, commutation, imaginary parts): EPS_OP times its scale floored at 1.
EPS_OP = 1e-8

# Spectral support of a spectrum without unit mean (a D-hat cell, a full target
# state): an eigenvalue is kept when above EPS_SUPPORT times the largest
# |eigenvalue| of its spectrum (floored at EPS_ZERO).  Never applied to U.
EPS_SUPPORT = 1e-10

# A constructed inverse composes back to the identity when every entry's gap,
# q_factorize's factors when the dimensionless ||A W - P||_1, is within EPS_INVERSE.  Absolute.
EPS_INVERSE = 1e-10

# Relative error of one inverted eigenvalue per unit condition number of the
# kept spectrum; q_factorize widens EPS_INVERSE to EPS_COND * cond.
EPS_COND = 1e-13

# Speed limits: a stationarity gap (a log of moment ratios) within EPS_ROOT
# of zero is a root; bisection in the exponent c stops at width EPS_BISECT.
EPS_ROOT = 1e-12
EPS_BISECT = 1e-8


class IdentityViolation(ValueError):
    """A cross-checked identity whose residual exceeded its tolerance."""

    def __init__(self, name: str, residual: float, tolerance: float):
        super().__init__(f"{name}: residual {residual:.3e} exceeds tolerance {tolerance:.3e}")
        self.name, self.residual, self.tolerance = name, residual, tolerance

    @classmethod
    def check(cls, name: str, residual: float, tolerance: float) -> None:
        """Raise one unless residual <= tolerance, so a NaN residual fails."""
        if not residual <= tolerance:
            raise cls(name, float(residual), float(tolerance))
