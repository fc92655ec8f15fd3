"""Error taxonomy for the abmod library.

Every failure mode that a caller can provoke has its own exception type, so
tests and the CLI can react precisely.  All of them derive from ``AbmodError``.

The taxonomy, roughly by layer:

* scalar/series arithmetic: ``NotAUnit``, ``PrecisionExhausted``
* lattices and modules: ``NotAStable``, ``NotSimplePole``
* invariants: ``NotRegular``, ``UnsupportedSpectrum``
* eigen machinery: ``HypothesisViolated``, ``NotPrimitive``, ``NotEigen``
* truncation lifting: ``NoLift``, ``NonUniqueLift``, ``NotFound``
* construction and parsing: ``BadParameter``, ``ParseError``

"Absent" outcomes (an isomorphism that does not exist) are *values*
(``None``), never exceptions; exceptions mean a precondition was violated or a
computation cannot be carried out at the available precision.
"""

from __future__ import annotations


class AbmodError(Exception):
    """Base class for all abmod errors."""


class NotAUnit(AbmodError):
    """A series with zero constant term was used where a unit is required."""


class PrecisionExhausted(AbmodError):
    """The working precision is too small to decide the computation exactly:
    ``what`` needs precision >= ``need`` and has ``have``, and the message
    says so.  Without ``need`` the message is ``what`` alone."""

    def __init__(self, what: str, need: int | None = None, have: int | None = None):
        self.need = need
        self.have = have
        if need is not None:
            what = f"{what} needs precision >= {need}, have {have}"
        super().__init__(what)


class NotRegular(AbmodError):
    """The module's saturation does not stabilize: the module is irregular.
    Raised by ``invariants.saturate`` alone, in one wording."""


class NotSimplePole(AbmodError):
    """A simple-pole module was required but a(E) is not contained in b(E).
    Raised by ``invariants._spectrum``, behind ``spectrum``, alone, in one
    wording."""


class UnsupportedSpectrum(AbmodError):
    """A residue eigenvalue does not lie in the Gaussian rationals."""


class NotAStable(AbmodError):
    """The lattice is not stable under the operator a."""


class HypothesisViolated(AbmodError):
    """An eigen-lifting hypothesis (residual valuation or exponent bound) fails."""


class NotPrimitive(AbmodError):
    """An element divisible by b was used where a primitive element is required."""


class NotEigen(AbmodError):
    """The given element is not an eigen-element for the stated exponent."""


class NoLift(AbmodError):
    """A truncation isomorphism admits no lift (or the inputs are inconsistent)."""


class NonUniqueLift(AbmodError):
    """The lift of a truncation isomorphism exists but is not unique."""


class NotFound(AbmodError):
    """A required sub-object (e.g. a recovered submodule) does not exist."""


class BadParameter(AbmodError):
    """A constructor received parameters outside its legal range."""


class ParseError(AbmodError):
    """Input text does not conform to the series or module-file grammar."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({where})"
        super().__init__(message)
