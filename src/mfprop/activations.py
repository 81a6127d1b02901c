"""Scalar nonlinearities with analytic derivatives and theory metadata.

The mean-field maps need phi, phi', and for the curvature recursion phi''.
One callable, `derivatives(h, order)`, returns (phi, ..., phi^(order)) from
a single evaluation of the activation.  For piecewise-linear activations
the second derivative is distributional, so those report
``has_smooth_second_derivative = False`` and the curvature operations
refuse them instead of silently using phi'' = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class Nonlinearity:
    """A scalar activation phi with first and second derivatives.

    `derivatives(h, order)` maps an ndarray h to (phi, ..., phi^(order)) for
    order 0, 1 or 2, elementwise.
    `dynamic_range` is max(phi) - min(phi); None means unbounded.
    """

    name: str
    derivatives: Callable[[Array, int], tuple[Array, ...]]
    monotone_nondecreasing: bool
    dynamic_range: Optional[float]
    has_smooth_second_derivative: bool

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


def _piecewise_linear(value, slope):
    """`derivatives` of an activation whose phi'' is 0 away from its kinks."""
    def derivatives(h, order):
        h = np.asarray(h, dtype=float)
        return tuple(f(h) for f in (value, slope, np.zeros_like)[:order + 1])
    return derivatives


def _tanh() -> Nonlinearity:
    return Nonlinearity(
        name="tanh",
        derivatives=_tanh_derivatives,
        monotone_nondecreasing=True,
        dynamic_range=2.0,
        has_smooth_second_derivative=True,
    )


def _linear() -> Nonlinearity:
    return Nonlinearity(
        name="linear",
        derivatives=_piecewise_linear(lambda h: h, np.ones_like),
        monotone_nondecreasing=True,
        dynamic_range=None,
        has_smooth_second_derivative=True,
    )


def _hard_tanh() -> Nonlinearity:
    return Nonlinearity(
        name="hard_tanh",
        derivatives=_piecewise_linear(lambda h: np.clip(h, -1.0, 1.0),
                                      lambda h: ((h > -1.0) & (h < 1.0)).astype(float)),
        monotone_nondecreasing=True,
        dynamic_range=2.0,
        has_smooth_second_derivative=False,
    )


def _relu() -> Nonlinearity:
    return Nonlinearity(
        name="relu",
        derivatives=_piecewise_linear(lambda h: np.maximum(h, 0.0),
                                      lambda h: (h > 0.0).astype(float)),
        monotone_nondecreasing=True,
        dynamic_range=None,
        has_smooth_second_derivative=False,
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
