"""Exception types shared across the package.

Every error deliberately raised by this package derives from TmodError,
so callers (and the command-line driver) can distinguish domain errors
from genuine bugs.
"""


class TmodError(Exception):
    """Base class for all domain errors raised by this package."""


class DivisionByZero(TmodError):
    """Division by the zero element of a coefficient domain."""


class MixedFields(TmodError):
    """Objects over different coefficient domains (or twist variables)
    were combined."""


class NonMonomialDenominator(TmodError):
    """A formal-twist division needs a denominator that is a monomial in
    the invertible symbols."""


class NotAQthPower(TmodError):
    """A negative twist (q-th root) was requested for an element that is
    not a q-th power."""


class DimensionMismatch(TmodError):
    """Matrix shapes are incompatible for the requested operation."""


class InvalidModule(TmodError):
    """A proposed t-module matrix violates the structural requirements."""


class NotNilpotent(InvalidModule):
    """The deviation of the constant part from theta*I is not nilpotent."""


class NotAMorphism(TmodError):
    """A matrix fails the intertwining equation for a module morphism."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnsupportedRegime(TmodError):
    """No reduction algorithm is available for this source/target pair."""


class SingularLeading(TmodError):
    """The leading coefficient matrix must be invertible but is singular."""


class MixedPairs(TmodError):
    """Biderivations (or classes) over different module pairs were combined."""


class UnboundedSearch(TmodError):
    """A complete search is impossible over an infinite coefficient domain."""


class CarrierTooLarge(TmodError):
    """An exhaustive enumeration would exceed the configured ceiling."""


class PolynomialTooLarge(TmodError):
    """A polynomial in th would hold more terms than MAX_POLY_TERMS, or one
    in t would exceed MAX_APOLY_DEGREE."""


class FiniteFieldRequired(TmodError):
    """This operation samples or enumerates elements and therefore needs a
    finite coefficient field."""


class InvariantViolation(TmodError):
    """An internal consistency check failed: a computed result contradicts
    the identity it must satisfy."""


class ParseError(TmodError):
    """Malformed input text."""


class UsageError(TmodError):
    """Invalid combination of command-line arguments."""
