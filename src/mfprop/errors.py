"""Exception types shared across the package."""


class MFPropError(Exception):
    """Base class for numerical failures raised by this package."""


class ConvergenceError(MFPropError):
    """An iterative solve did not reach its tolerance within its budget."""


class UnsupportedActivationError(MFPropError):
    """An operation requires activation properties the nonlinearity lacks."""


class DegenerateGeometryError(MFPropError):
    """A geometric quantity is undefined for the given data."""
