"""Exception types shared across the toolkit."""


class NNLoopError(Exception):
    """Base class for all toolkit-specific errors."""


class DimensionMismatch(NNLoopError):
    """Inconsistent matrix/vector dimensions."""


class SingularGain(NNLoopError):
    """Integrator gain is numerically singular (condition number too large)."""


class SingularAa(NNLoopError):
    """The steady-state system matrix is rank deficient; tracking is infeasible."""


class NonPositiveD(NNLoopError):
    """A pre-activation box half-width is zero or negative."""


class NonPositiveGamma(NNLoopError):
    """The trace(Q) weight of the local-range objective is zero or negative."""


class StarOutsideBox(NNLoopError):
    """The stationary pre-activation lies outside the propagated box."""


class GovernorInfeasible(NNLoopError):
    """No admissible surrogate reference exists for the current state."""


class BadSchedule(NNLoopError, ValueError):
    """A reference schedule is empty or malformed."""


class UnattainableTolerance(NNLoopError):
    """A solver tolerance lies below what double precision can reach."""
