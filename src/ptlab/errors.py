"""Exception hierarchy shared by all engines, and the finiteness check
they share."""

import cmath


class PTLabError(Exception):
    """Base class for all errors raised by ptlab engines."""


class ConfigurationError(PTLabError, ValueError):
    """Invalid model family / parameter combination or parameter value."""


class CapabilityError(PTLabError):
    """Requested construction is not available for this family."""


class SingularConfigError(PTLabError):
    """Phase-space configuration too close to a singular hyperplane."""


class NodeError(PTLabError):
    """Wavefunction vanishes inside the working window."""


class BranchError(PTLabError):
    """Fractional power argument crossed the principal-branch cut.

    `partial` holds the evolution reached before the error, when the
    raiser has one.
    """

    partial = None


class BlowUpError(PTLabError):
    """Time evolution produced NaN/overflow; carries the last valid time
    and, as `partial`, the evolution reached up to it."""

    def __init__(self, message, t_last=None):
        super().__init__(message)
        self.t_last = t_last
        self.partial = None


def require_finite(**params):
    """Raise ConfigurationError naming each parameter that is NaN or infinite."""
    bad = [f"{name}={value}" for name, value in params.items()
           if not cmath.isfinite(value)]
    if bad:
        raise ConfigurationError(f"parameters must be finite, got {', '.join(bad)}")
