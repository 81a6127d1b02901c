"""Scalar nonlinearities with analytic derivatives and theory metadata.

The mean-field maps need phi, phi', and for the curvature recursion phi''.
One callable, `derivatives(h, order)`, returns (phi, ..., phi^(order)) from
a single evaluation of the activation.  An activation without a smooth
phi'' raises UnsupportedActivationError at order 2 instead of returning
one.  The builtin relu and hard_tanh do so: they are piecewise linear, so
their phi'' is a sum of point masses at the kinks, and using phi'' = 0
would silently drop the curvature those kinks create.  chi2, the
curvature recursion, acceleration jets and the boundary Hessian all take
phi'' from `derivatives`, so a user-defined activation is refused by them
exactly when its own `derivatives` refuses order 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UnsupportedActivationError

Array = np.ndarray


@dataclass(frozen=True)
class Nonlinearity:
    """A scalar activation phi with its first and, if smooth, second derivative.

    `derivatives(h, order)` maps an ndarray h to (phi, ..., phi^(order)) for
    order 0, 1 or 2, elementwise; it raises UnsupportedActivationError at
    order 2 when phi has no smooth second derivative.
    `dynamic_range` is max(phi) - min(phi); None means unbounded.
    """

    name: str
    derivatives: Callable[[Array, int], tuple[Array, ...]]
    monotone_nondecreasing: bool
    dynamic_range: Optional[float]

    def __post_init__(self):
        if self.dynamic_range is not None and not self.dynamic_range >= 0:
            raise ValueError("dynamic_range must be nonnegative or None")

    def value(self, h: Array) -> Array:
        """phi(h)."""
        return self.derivatives(h, 0)[0]


def _tanh_derivatives(h, order):
    t = np.tanh(h)
    if order == 0:
        return (t,)
    d1 = 1.0 - t * t
    return (t, d1) if order == 1 else (t, d1, -2.0 * t * d1)


def _closed_forms(name, *forms):
    """`derivatives` from the elementwise closed forms (phi, phi', ...).

    An order beyond the last form is refused: a piecewise-linear phi is
    given only (phi, phi'), as its phi'' is not a function.
    """
    def derivatives(h, order):
        if order >= len(forms):
            raise UnsupportedActivationError(
                f"{name!r} has no smooth phi'': it is piecewise linear, so phi'' "
                "is a sum of point masses at its kinks")
        h = np.asarray(h, dtype=float)
        return tuple(f(h) for f in forms[:order + 1])
    return derivatives


def _tanh() -> Nonlinearity:
    return Nonlinearity(
        name="tanh",
        derivatives=_tanh_derivatives,
        monotone_nondecreasing=True,
        dynamic_range=2.0,
    )


def _linear() -> Nonlinearity:
    return Nonlinearity(
        name="linear",
        derivatives=_closed_forms("linear", lambda h: h, np.ones_like, np.zeros_like),
        monotone_nondecreasing=True,
        dynamic_range=None,
    )


def _hard_tanh() -> Nonlinearity:
    return Nonlinearity(
        name="hard_tanh",
        derivatives=_closed_forms("hard_tanh", lambda h: np.clip(h, -1.0, 1.0),
                                  lambda h: ((h > -1.0) & (h < 1.0)).astype(float)),
        monotone_nondecreasing=True,
        dynamic_range=2.0,
    )


def _relu() -> Nonlinearity:
    return Nonlinearity(
        name="relu",
        derivatives=_closed_forms("relu", lambda h: np.maximum(h, 0.0),
                                  lambda h: (h > 0.0).astype(float)),
        monotone_nondecreasing=True,
        dynamic_range=None,
    )


_BUILTINS: dict[str, Callable[[], Nonlinearity]] = {
    "tanh": _tanh,
    "linear": _linear,
    "hard_tanh": _hard_tanh,
    "relu": _relu,
}


def builtin(name: str) -> Nonlinearity:
    """Return a builtin nonlinearity by name."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        available = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown nonlinearity {name!r}; available: {available}") from None
    return factory()


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))
