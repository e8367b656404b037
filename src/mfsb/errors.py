"""Exception types shared across the package."""

from __future__ import annotations


class MfsbError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MfsbError, ValueError):
    """A numeric argument lies outside its admissible range."""


class ShapeError(MfsbError, ValueError):
    """An array does not match the grid it is supposed to live on."""


class PositivityError(MfsbError, ValueError):
    """A quantity that must be strictly positive is not."""


class ZeroMassError(MfsbError, ValueError):
    """A density has nonpositive or nonfinite total mass."""


class SolveError(MfsbError, RuntimeError):
    """A linear solve failed (singular or ill-posed system)."""


class ConfigError(MfsbError, ValueError):
    """A run configuration is malformed or violates a constraint."""


class InsufficientData(MfsbError, ValueError):
    """Not enough samples to estimate the requested quantity."""


class NoConvergence(MfsbError, RuntimeError):
    """An iteration budget was exhausted before the stopping test passed.

    Carries enough state to diagnose (and optionally serialize) the failure:
    which loop gave up, the last distance seen, the trace (its list for the
    loop that gave up is as long as that loop's budget, which the message
    also names), and whatever partial iterate was available.
    """

    def __init__(
        self,
        message: str,
        *,
        level: str,
        last_distance: float = float("nan"),
        trace=None,
        partial=None,
    ):
        super().__init__(message)
        self.level = level
        self.last_distance = last_distance
        self.trace = trace
        self.partial = partial
