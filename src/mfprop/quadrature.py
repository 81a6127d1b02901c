"""Expectations under the standard Gaussian measure.

All mean-field maps in this package reduce to one- and two-dimensional
integrals against the unit-variance Gaussian density

    Dz = dz / sqrt(2 pi) * exp(-z^2 / 2).

They are evaluated with Gauss-Hermite rules rescaled to this measure, so

    E[f] = int Dz f(z)  ~=  sum_i w_i f(z_i),     sum_i w_i = 1.

Bivariate expectations over a correlated Gaussian pair (u1, u2) with
<u1^2> = q1, <u2^2> = q2 and correlation c are formed from two independent
standard normals z1, z2 via

    u1 = sqrt(q1) * z1
    u2 = sqrt(q2) * (c * z1 + sqrt(1 - c^2) * z2)

so that <u_a u_b> reproduces the target covariance exactly, and integrated
on the tensor product of the 1-D rule with itself.

Accuracy note: convergence is spectral but slows as the integrand
steepens.  Against order 10001, order 201 is off by 5e-10 at q = 3,
1.2e-5 at q = 10 and 1.4e-3 at q = 30 for E[tanh^2(sqrt(q) z)], and more
for chi1's E[sech^4(sqrt(q) z)] (1.6e-4 at q = 10): tanh chi1 at
sigma_w = 4, sigma_b = 0.3 is 2.37492 against 2.36726.  Order 1601 is
within ~1e-14 up to q = 10.  Kinked activations (relu, hard_tanh) converge
slowly at any order; ROADMAP.md ("Certified Gaussian expectations") plans
a rule with an error estimate.  Rule construction is O(order) and cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import roots_hermitenorm

#: Default of the CLI's `--order` flags.  Its error grows fast with q (see
#: the accuracy note above): chi1 is off by 3e-3 relative at the
#: sigma_w = 4, sigma_b = 0.3 desk point (q* = 12.6).
DEFAULT_ORDER = 201

# Correlations may drift past 1 by roundoff when fed back from fixed-point
# iterations; anything beyond this slack is a caller error.
_CORRELATION_SLACK = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for the unit-variance Gaussian measure."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if self.order < 2:
            raise ValueError(f"quadrature order must be >= 2, got {self.order}")
        if nodes.shape != (self.order,) or weights.shape != (self.order,):
            raise ValueError("nodes/weights must be 1-D arrays of length `order`")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("quadrature rule contains non-finite entries")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")


def build_rule(order: int) -> QuadratureRule:
    """Gauss-Hermite rule rescaled to the unit-variance Gaussian measure.

    Nodes are the roots of the probabilists' Hermite polynomial He_order;
    weights are normalized to sum to exactly 1 so the rule represents a
    probability measure.  Deterministic for a given order.
    """
    if isinstance(order, bool) or int(order) != order:
        raise ValueError(f"order must be an integer, got {order!r}")
    order = int(order)
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    nodes, weights = roots_hermitenorm(order)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise ValueError(f"node computation failed to converge for order {order}")
    weights = weights / weights.sum()
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def _check_finite(values: np.ndarray, nodes_for_msg: np.ndarray) -> None:
    # expect1 and expect2_product scan only once their weighted sum is not
    # finite: the weights are nonnegative, so a NaN or inf at any node
    # (inf * 0 is NaN) reaches the sum.
    if np.all(np.isfinite(values)):
        return
    bad = np.argwhere(~np.isfinite(values))
    first = tuple(bad[0])
    node = nodes_for_msg[first]
    raise ValueError(f"integrand is not finite at node z={node!r} (index {first})")


def expect1(f: Callable[[np.ndarray], np.ndarray], rule: QuadratureRule) -> float:
    """E[f(z)] for z ~ N(0, 1).  `f` must accept an ndarray of nodes."""
    values = np.asarray(f(rule.nodes), dtype=float)
    if values.shape != rule.nodes.shape:
        raise ValueError("integrand must return one value per node")
    result = float(rule.weights @ values)
    if not math.isfinite(result):
        _check_finite(values, rule.nodes)
    return result


def expect2_product(
    f1: Callable[[np.ndarray], np.ndarray],
    f2: Callable[[np.ndarray], np.ndarray],
    c: float,
    q1: float,
    q2: float,
    rule: QuadratureRule,
) -> float:
    """E[f1(u1) * f2(u2)] for the correlated Gaussian pair described above.

    Integrates on the tensor product of the 1-D rule, evaluating f1 on
    order points and f2 on order**2.
    """
    u1, u2 = correlated_nodes(c, q1, q2, rule)
    v1 = np.asarray(f1(u1), dtype=float)
    v2 = np.asarray(f2(u2), dtype=float)
    if v1.shape != u1.shape or v2.shape != u2.shape:
        raise ValueError("integrand factors must be evaluated pointwise")
    result = float(rule.weights @ (v1 * (v2 @ rule.weights)))
    if not math.isfinite(result):
        _check_finite(v1, u1)
        _check_finite(v2, u2)
    return result


def correlated_nodes(
    c: float, q1: float, q2: float, rule: QuadratureRule
) -> tuple[np.ndarray, np.ndarray]:
    """Node arrays (u1 of shape (n,), u2 of shape (n, n)) for expect2_product."""
    if not np.isfinite(c) or abs(c) > 1.0 + _CORRELATION_SLACK:
        raise ValueError(f"correlation must lie in [-1, 1], got {c!r}")
    if q1 < 0 or q2 < 0:
        raise ValueError(f"variances must be nonnegative, got q1={q1!r}, q2={q2!r}")
    c = min(1.0, max(-1.0, float(c)))
    z = rule.nodes
    s = np.sqrt(max(0.0, 1.0 - c * c))
    u1 = np.sqrt(q1) * z
    u2 = np.sqrt(q2) * (c * z[:, None] + s * z[None, :])
    return u1, u2
