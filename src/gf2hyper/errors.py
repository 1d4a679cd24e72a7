"""Exception types shared across the package."""

from __future__ import annotations


class Gf2HyperError(Exception):
    """Base class for all domain errors raised by gf2hyper."""


class ParseError(Gf2HyperError):
    """Matrix/subspace text input is malformed."""


class DimensionMismatch(Gf2HyperError):
    """Operands live in incompatible spaces."""


class SingularMatrix(Gf2HyperError):
    """Inversion was requested for a matrix without full rank."""


class CapExceeded(Gf2HyperError):
    """An enumeration would exceed the configured budget.

    ``required`` carries the item count the enumeration would need, or
    None where only a bound on that count is known.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class NotSquare(Gf2HyperError):
    """An operator matrix must be square."""


class NotNilpotent(Gf2HyperError):
    """The matrix has a nonzero n-th power."""


class NotAGeneratorTuple(Gf2HyperError):
    """Proposed vectors do not decompose the space into cyclic summands."""


class ShodaConditionFails(Gf2HyperError):
    """Block sizes do not admit a characteristic non-hyperinvariant subspace."""


class InadmissibleTuple(Gf2HyperError):
    """A shift tuple is out of range for the elementary divisors."""
