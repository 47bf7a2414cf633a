"""Exception types shared across the package."""

from __future__ import annotations


class FfbaError(Exception):
    """Base class for all package-specific errors."""


class NonPrimeError(FfbaError, ValueError):
    """Field characteristic is not a prime number."""


class MissingModulusError(FfbaError, ValueError):
    """An extension field was requested without a defining modulus and no
    default is shipped for that order."""


class ReducibleModulusError(FfbaError, ValueError):
    """The supplied modulus polynomial is not irreducible over F_p."""


class InsufficientPrecisionError(FfbaError):
    """A coefficient beyond a source's guaranteed range was requested.

    ``needed`` is the 1-based coefficient index that was required;
    ``have`` is the guarantee that was available (None if unknown).
    """

    def __init__(self, needed: int, have: int | None = None, detail: str = ""):
        self.needed = needed
        self.have = have
        msg = f"coefficient index {needed} exceeds source guarantee"
        if have is not None:
            msg += f" {have}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InvalidScheduleError(FfbaError, ValueError):
    """A construction schedule violates ell_prime < ell_bar or has a
    malformed stage."""


class DegenerateScheduleError(FfbaError, ValueError):
    """A dimension bound was requested for a schedule whose refining
    lengths sum to zero in some coordinate."""


class CertificateFormatError(FfbaError, ValueError):
    """A certificate document lacks a field, or holds a value of the wrong
    type or outside its range (such as a digit code not in range(q))."""


class TooLargeToEnumerateError(FfbaError):
    """An exhaustive enumeration was requested beyond the supported size."""


class BudgetExhaustedError(FfbaError):
    """A stage budget ran out before the first construction stage."""
