"""Exception types shared across the package, and its argument refusals.

A count below its least value, or a length that is not a finite
nonnegative real, is a ValueError that names the argument; q* = 0 where
q* divides is a DegenerateGeometryError.  Each rule is written so that a
NaN fails it.
"""

import math


class MFPropError(Exception):
    """Base class for numerical failures raised by this package."""


class ConvergenceError(MFPropError):
    """An iterative solve did not reach its tolerance within its budget."""


class UnsupportedActivationError(MFPropError):
    """An operation requires activation properties the nonlinearity lacks."""


class DegenerateGeometryError(MFPropError):
    """A geometric quantity is undefined for the given data."""


def _require_count(name: str, value, least: int = 1):
    """value itself, or ValueError naming it unless value >= least (NaN fails)."""
    if not value >= least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return value


def _require_length(name: str, q: float) -> float:
    """q itself, or ValueError naming it unless it is finite and >= 0 (NaN fails)."""
    if not (math.isfinite(q) and q >= 0):
        raise ValueError(f"{name} must be a finite nonnegative real, got {q!r}")
    return q


def _require_positive_q_star(q_star: float, what: str) -> float:
    """q_star itself; DegenerateGeometryError when q* = 0, and ValueError
    naming q_star when it is not a finite positive real (NaN fails)."""
    if q_star == 0.0:
        raise DegenerateGeometryError(f"{what} needs q* > 0, got q* = {q_star!r}")
    if not (math.isfinite(q_star) and q_star > 0.0):
        raise ValueError(f"{what} needs a finite q_star > 0, got q_star = {q_star!r}")
    return q_star
