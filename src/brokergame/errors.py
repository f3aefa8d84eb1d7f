"""Exception types shared across the package."""


class BrokerGameError(Exception):
    """Base class for all package errors."""


class ValidationError(BrokerGameError):
    """A parameter or configuration value violates its contract."""


class TableRangeError(BrokerGameError):
    """A time-gridded table was evaluated outside its domain."""


class IntegrationBlowupError(BrokerGameError):
    """An ODE integration produced a non-finite value.  ``member`` is the
    first index along the leading axis of an array state that did (None for a
    scalar state)."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


class ModelInconsistencyError(BrokerGameError):
    """A solved coefficient violates a structural sign condition."""


class AdmissibilityError(BrokerGameError):
    """The solved coefficients leave the admissible region of the control problem."""


class ExistenceError(BrokerGameError):
    """The matrix Riccati system blew up; no solution on the horizon.
    ``member`` is the index, in a batched solve, of the parameter set whose
    system became non-finite first."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


class FilterDegeneracyError(BrokerGameError):
    """A filter gain or observation transform is undefined for these inputs."""


class SimulationBlowupError(BrokerGameError):
    """A simulated path produced a non-finite state."""


class MetricUndefinedError(BrokerGameError):
    """An experiment statistic is undefined (e.g. zero traded notional)."""
