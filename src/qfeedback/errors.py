"""Exception types shared across the package.

Numerical routines raise these instead of bare ValueError/ArithmeticError so
callers (and the CLI) can tell an ill-posed request apart from a failed
verdict.
"""

from __future__ import annotations


class DimensionError(ValueError):
    """Operands have incompatible or invalid shapes."""


class FileFormatError(ValueError):
    """A system file failed to parse or validate.

    ``location`` names the offending field (dotted path) when known.
    """

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location


class DomainError(ValueError):
    """An argument lies outside the operation's domain (non-Hermitian weight,
    non-doubled block, indefinite commutation matrix, ...)."""


class SingularityError(ArithmeticError):
    """A matrix-equation solve hit a (near-)singular pivot.

    ``eigenvalue_pair`` carries the offending pair (lam_a, lam_b) with
    lam_a + lam_b ~ 0 when the failure comes from a Sylvester/Lyapunov
    spectral-gap violation, else None.
    """

    def __init__(self, message: str, eigenvalue_pair=None):
        super().__init__(message)
        self.eigenvalue_pair = eigenvalue_pair


class InstabilityError(ArithmeticError):
    """An operation that requires a Hurwitz state matrix got an unstable one."""


class InfiniteNormError(ArithmeticError):
    """The requested norm is infinite (non-proper channel for H2)."""


class NotAugmentableError(ValueError):
    """A plant/controller cannot be extended to a physically realizable
    square system.  ``residuals`` maps check names to deviations."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class GenerationError(RuntimeError):
    """Random system generation exhausted its retry budget."""


class NotRealizableError(DomainError):
    """A synthesis or extraction routine was handed a system that admits no
    physically realizable completion.  ``residuals`` maps check names to
    deviations when a realizability check produced them."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class DesignError(RuntimeError):
    """An estimator/controller design step failed (lost detectability,
    Riccati without a stabilizing solution, ...)."""
