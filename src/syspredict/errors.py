"""Exception taxonomy.

Every error raised by the package derives from :class:`SysPredictError` so the
CLI can report a machine-readable category (the class name) and exit nonzero.
"""


class SysPredictError(Exception):
    """Base class for all package errors."""


# -- structure validation -------------------------------------------------

class EmptyPaths(SysPredictError, ValueError):
    """No path sets given, or a path set is empty."""


class IndexOutOfRange(SysPredictError, ValueError):
    """A component index is outside 1..n."""


class NonMinimalPath(SysPredictError, ValueError):
    """One path set strictly contains another."""


class UncoveredComponent(SysPredictError, ValueError):
    """A component appears in no path set."""


class LengthMismatch(SysPredictError, ValueError):
    """A component-time vector or a table column has the wrong length."""


# -- copulas ---------------------------------------------------------------

class OutOfUnitInterval(SysPredictError, ValueError):
    """A copula argument lies outside [0, 1]."""


class UnsupportedCopula(SysPredictError, ValueError):
    """Requested operation is not available for this copula family."""


# -- marginals -------------------------------------------------------------

class NegativeTime(SysPredictError, ValueError):
    """A lifetime argument is negative."""


class OutOfRange(SysPredictError, ValueError):
    """An argument lies outside its valid domain."""


# -- distortions -----------------------------------------------------------

class DimensionMismatch(SysPredictError, ValueError):
    """Structures and copula disagree on the number of components."""


class TermLimitExceeded(SysPredictError, ValueError):
    """Inclusion-exclusion expansion exceeds the term budget."""


# -- predictors ------------------------------------------------------------

class DegenerateDenominator(SysPredictError, ZeroDivisionError):
    """Conditional-law denominator is 0, subnormal or not finite at the conditioning point."""


class ZeroAlpha(SysPredictError, ZeroDivisionError):
    """Conditioning on survival is impossible: alpha(t) = 0."""


class NotInvertible(SysPredictError, ValueError):
    """Quantile inversion could not bracket the target level."""


class QuadratureFailure(SysPredictError, ArithmeticError):
    """Mean quadrature missed its error tolerance, or F-bar(horizon) underflowed."""


class InvalidOrder(SysPredictError, ValueError):
    """k-out-of-n order statistic indices violate 1 <= r < s <= n."""


# -- monte carlo -----------------------------------------------------------

class InvalidK(SysPredictError, ValueError):
    """Coverage experiment needs k >= 1 and replications >= 1."""


# -- quantile regression ---------------------------------------------------

class DegenerateDesign(SysPredictError, ValueError):
    """Regression sample unusable: unreadable, non-finite or < 2 distinct abscissae."""


# -- CLI -------------------------------------------------------------------

class ConfigError(SysPredictError, ValueError):
    """Configuration document is invalid for the requested command."""
