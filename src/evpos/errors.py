"""Exception types shared across the package, and the tolerance check that raises one."""

import math


class EvposError(Exception):
    """Base class for package-specific errors."""


class InputError(EvposError):
    """Malformed user input; maps to CLI exit code 1."""


def check_tol(tol: float) -> float:
    """`tol` if it is finite and positive; an InputError otherwise."""
    if not 0.0 < tol < math.inf:
        raise InputError(f"tol must be finite and positive, got {tol:g}")
    return tol


class ConsistencyViolation(EvposError):
    """A theorem-level consistency check failed (CLI exit code 2).

    Raised only when two routes that must agree on valid inputs disagree,
    or when a proved implication fails on computed data.  Either case is a
    bug or a genuine counterexample and is always worth a witness dump.
    """

    def __init__(self, message, witnesses=None):
        super().__init__(message)
        self.witnesses = witnesses if witnesses is not None else []


class NotInIdeal(EvposError):
    """Vector has a nonzero entry outside the gauge vector's support."""


class ExpmOverflow(EvposError):
    """exp(tA) left the representable floating-point range.

    When semigroup.expm raises it for a list of times, `evaluated` is the
    stack of e^{tA} at the times before the first one that overflowed.
    """

    def __init__(self, message, evaluated=()):
        super().__init__(message)
        self.evaluated = evaluated


class EigenSolverFailure(EvposError):
    """Eigen residuals did not meet the required tolerance."""


class NotAnEigenpair(EvposError):
    pass


class CertificateMissing(EvposError):
    pass


class PremiseViolation(EvposError):
    """A documented hypothesis failed; carries the failing samples."""

    def __init__(self, message, witnesses=None):
        super().__init__(message)
        self.witnesses = witnesses if witnesses is not None else []


class SpectralBoundNotNegative(EvposError):
    pass


class SearchFailure(EvposError):
    """A witness scan exhausted its budget without success."""


class WitnessSearchFailure(SearchFailure):
    pass


class DepthExceeded(EvposError):
    pass


class ShiftNotOnGrid(EvposError):
    pass


class QuadratureBudgetExceeded(EvposError):
    pass


class DimensionTooLarge(EvposError):
    pass


class NoConvergence(EvposError):
    pass


class TransferViolation(ConsistencyViolation):
    """Invariance failed to transfer where the theory says it must."""
