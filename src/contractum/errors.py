"""Exception hierarchy shared by all contractum modules."""

from __future__ import annotations


class ContractumError(Exception):
    """Base class for all errors raised by this package."""


class MalformedSpaceError(ContractumError):
    """A distance table violates a structural requirement (shape, symmetry,
    nonnegativity, nonzero diagonal). Carries the offending pair of labels
    when one can be named."""

    def __init__(self, message: str, pair: tuple[str, str] | None = None):
        super().__init__(message)
        self.pair = pair


class ClosureError(ContractumError):
    """A self-map sent a point outside the represented point set."""

    def __init__(self, point):
        super().__init__(f"map sends {point!r} outside the represented point set")
        self.point = point


class FunctionDomainError(ContractumError):
    """An auxiliary function was evaluated outside its domain (positive reals)."""

    def __init__(self, message: str, argument: float, context=None):
        super().__init__(message)
        self.argument = argument
        self.context = context


class NumericError(ContractumError):
    """A user-supplied metric, map, or kernel produced NaN or a negative
    distance. Carries the offending input tuple."""

    def __init__(self, message: str, where=None):
        super().__init__(message)
        self.where = where


class InsufficientDataError(ContractumError):
    """A diagnostic was requested on a trace too short to support it."""


class SizeLimitError(ContractumError, ValueError):
    """A table has more points than an exhaustive check allows; the caller
    must sample instead."""


class ParameterError(ContractumError, ValueError):
    """A numeric argument lies outside its domain, such as a negative or
    NaN tolerance."""


class ExpressionError(ContractumError):
    """An expression string failed to parse or used a disallowed token."""

    def __init__(self, message: str, token: str | None = None):
        super().__init__(message)
        self.token = token
