"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations


class HalgError(Exception):
    """Base class for all errors raised by this package.

    `exit_code` is the CLI's exit status for the error: 1 for usage errors
    and malformed input, 2 for an unmet construction precondition, 3 for a
    failed theorem re-check.
    """

    exit_code = 1


class DocSyntaxError(HalgError):
    """Input text is not a JSON document of the expected top-level shape."""


class ShapeError(HalgError):
    """A structural invariant is violated; `path` points at the offender."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ZeroDenominatorError(ShapeError, ZeroDivisionError):
    """A scalar "a/b" whose denominator is zero in the field (b = 0, or
    b divisible by p over F_p).  It stays a ZeroDivisionError for callers
    that catch the arithmetic error."""


class DimensionMismatch(HalgError):
    """Operands have incompatible dimensions."""


class FieldMismatch(HalgError):
    """Operands live over different fields."""


class SingularMapError(HalgError):
    """Inversion was requested for a map without an inverse."""


class UnknownConditionError(HalgError):
    """A side-condition tag is not one of the supported names."""


class KindMismatch(HalgError):
    """Two documents were expected to share a structure kind."""


class ParamError(HalgError):
    """A construction or CLI parameter is missing or malformed."""


def require(value, cls, name: str) -> None:
    """Raise ParamError, naming the argument, unless value is a cls."""
    if not isinstance(value, cls):
        raise ParamError(f"{name}: expected {cls.__name__}, got {type(value).__name__}")


def require_int(value, name: str) -> None:
    """Raise ParamError, naming the argument, unless value is an int (a
    bool is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParamError(f"{name} must be an integer, got {value!r}")


class PreconditionFailed(HalgError):
    """A construction's input fails its declared precondition.

    `report` carries the failing CheckReport when the precondition is a
    checkable identity (None for plain predicate failures).
    """

    exit_code = 2

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class TheoremCheckError(HalgError):
    """A construction's output failed the check its theorem guarantees.

    Reaching this means either an implementation bug or an input outside the
    theorem's hypotheses that the preconditions failed to screen; it is never
    silenced.
    """

    exit_code = 3

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class NonzeroWeightError(HalgError):
    """A weight-0-only construction was fed a nonzero weight family."""

    exit_code = 2


class MissingCoefficientError(HalgError):
    """A coefficient family does not cover every label of the index set."""


class BudgetExceededError(HalgError):
    """An enumeration request exceeds the configured candidate budget."""


class PowerBoundError(HalgError):
    """A derived-structure level exceeds the configured power bound."""


class NonFiniteFieldError(HalgError):
    """Search requires a prime field; the rationals are not enumerable."""


class UnknownFixtureError(HalgError):
    """No catalog fixture has the requested name."""
