"""Exception types shared across the package."""

__all__ = [
    "BinaryRiskError",
    "InvalidParamsError",
    "DegenerateScenarioError",
    "TargetUnreachableError",
]


class BinaryRiskError(Exception):
    """Base class for every error raised by this package."""


class InvalidParamsError(BinaryRiskError, ValueError):
    """An input violates a domain constraint (range, sign, or rr*p0 <= 1)."""


class DegenerateScenarioError(BinaryRiskError, ValueError):
    """A quantity is undefined because a required denominator vanishes."""


class TargetUnreachableError(BinaryRiskError, ValueError):
    """An inverse solve asked for a value outside the achievable range."""
