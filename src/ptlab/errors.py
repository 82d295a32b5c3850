"""Exception hierarchy shared by all engines."""


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

    def __init__(self, message, x=None):
        super().__init__(message)
        self.x = x


class BranchError(PTLabError):
    """Fractional power argument crossed the principal-branch cut.

    `partial` holds the evolution reached before the error, when the
    raiser has one.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where
        self.partial = None


class BlowUpError(PTLabError):
    """Time evolution produced NaN/overflow; carries the last valid time
    and, as `partial`, the evolution reached up to it."""

    def __init__(self, message, t_last=None):
        super().__init__(message)
        self.t_last = t_last
        self.partial = None
