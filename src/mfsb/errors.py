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


class NoConvergence(MfsbError, RuntimeError):
    """An iteration budget of :func:`mfsb.solver.solve` was exhausted before
    the stopping test passed.

    Carries enough state to diagnose (and optionally serialize) the failure:
    which loop gave up (``"inner"`` for the classical-bridge start,
    ``"outer"`` for the outer loop), the last distance seen, the solve's
    ConvergenceTrace (its list for the loop that gave up, ``init_dh`` or
    ``outer_dh``, is as long as that loop's budget, which the message also
    names) and an unconverged Solution of the last iterate.
    """

    def __init__(
        self, message: str, *, level: str, last_distance: float, trace, partial
    ):
        super().__init__(message)
        self.level = level
        self.last_distance = last_distance
        self.trace = trace
        self.partial = partial
