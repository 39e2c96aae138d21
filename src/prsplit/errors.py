"""Exception types raised by validation and domain checks."""


class SplittingError(ValueError):
    """Base class for every named error in this package."""


# --- regularity validation ---------------------------------------------------

class BoundViolation(SplittingError):
    """A modulus product exceeds the Cauchy-Schwarz bound (alpha*rho or beta*mu > 1)."""


class NoLeverage(SplittingError):
    """No strong convexity (rho+mu = 0) or no smoothness (alpha+beta = 0) anywhere."""


# --- leverage-parameter validation -------------------------------------------

class DeltaOutOfRange(SplittingError):
    """delta outside [-rho, mu], or at an exact quadratic's degenerate endpoint."""


class EtaOutOfRange(SplittingError):
    pass


class TauTooSmall(SplittingError):
    """Step size must exceed |eta|."""


class ShiftIncompatible(SplittingError):
    """tau*|delta| >= 1 + delta*eta, so a prox-step denominator would vanish."""


# --- baselines ----------------------------------------------------------------

class NotStronglyRegular(SplittingError):
    """Classical PRS/DRS step-size tuning needs both a strong-convexity and a
    cocoercivity modulus to be positive."""


class NotSmooth(SplittingError):
    """Forward steps need a gradient oracle with a positive cocoercivity modulus."""


# --- concrete prox functions ---------------------------------------------------

class ShapeMismatch(SplittingError):
    pass


# --- fixed-point oracle ------------------------------------------------------------

class NoGradient(SplittingError):
    pass
