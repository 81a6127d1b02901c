"""Expectations under the standard Gaussian measure.

All mean-field maps in this package reduce to one- and two-dimensional
integrals against the unit-variance Gaussian density

    Dz = dz / sqrt(2 pi) * exp(-z^2 / 2).

They are evaluated with Gauss-Hermite rules rescaled to this measure, so

    E[f] = int Dz f(z)  ~=  sum_i w_i f(z_i),     sum_i w_i = 1.

Bivariate expectations over a correlated Gaussian pair (u1, u2) with
<u1^2> = <u2^2> = q and correlation c are formed from two independent
standard normals z1, z2 via

    u1 = sqrt(q) * z1
    u2 = sqrt(q) * (c * z1 + sqrt(1 - c^2) * z2)

so that <u_a u_b> reproduces the target covariance exactly, and integrated
on the tensor product of the 1-D rule with itself.

Rule construction (numpy only).  The positive roots of He_order start from
Tricomi's asymptotic formula in the bulk and Gatteschi's Airy-zero formula
near the largest root (Townsend, Trogdon & Olver 2016, arXiv 1410.5286).
One Halley step per pass, evaluated by the monic three-term recurrence,
brings each root to floating-point accuracy; only roots whose step was not
yet negligible enter a second pass, which no order from 215 up needs.
Weights come from Christoffel-Darboux, w_i ~ 1 / He_{order-1}(x_i)^2, and
the negative half mirrors the positive one bit for bit.  The recurrence has
integer coefficients and rescales by powers of two, so the only rounding is
in its own steps: against an extended-precision refinement the nodes are
within 1.1e-16 max(1, |z|) and the weights within 7e-15 in total at order
10001, and |E[z^2] - 1| is at most 12 eps over orders 2 to 3000 and a
sample up to 10001 (2 eps at order 201, 4 at 10001).  The cost is
O(order^2): on a 2-core x86 box orders 201, 1601 and 10001 take 2, 9 and
110 ms.

Accuracy note: convergence is spectral but slows as the integrand
steepens.  Against order 10001, order 201 is off by 5e-10 at q = 3,
1.2e-5 at q = 10 and 1.4e-3 at q = 30 for E[tanh^2(sqrt(q) z)], and more
for chi1's E[sech^4(sqrt(q) z)] (1.6e-4 at q = 10): tanh chi1 at
sigma_w = 4, sigma_b = 0.3 is 2.37492 against 2.36726.  Order 1601 is
within ~1e-14 up to q = 10.  Kinked activations (relu, hard_tanh) converge
slowly at any order; ROADMAP.md ("Certified Gaussian expectations") plans
a rule with an error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, _require_count, _require_length

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
        _require_count("order", self.order, 2)
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
    probability measure.  Deterministic for a given order.  The method is
    described in the module docstring.
    """
    if isinstance(order, bool) or int(order) != order:
        raise ValueError(f"order must be an integer, got {order!r}")
    order = _require_count("order", int(order), 2)
    x = _initial_roots(order)
    if order % 2:
        x = np.concatenate(([0.0], x))      # He_order(0) = 0 exactly
    inv_sq = np.empty_like(x)               # 1 / He_{order-1}(x)^2 ...
    exponent = np.zeros(x.size, dtype=np.int64)  # ... times 2^(-2 exponent)
    todo = np.arange(x.size)
    tol = 1e-5 / math.sqrt(order)           # ~5e-6 of the central node spacing
    for _ in range(_MAX_PASSES):
        if todo.size == 0:
            break
        xs = x[todo]
        he2, he1, he0, exponent[todo] = _hermite_tail(xs, order)
        # Halley step for He_n from He_n' = n He_{n-1} and the Hermite
        # equation He_n'' = x He_n' - n He_n
        u = he0 / (order * he1)
        step = u / (1.0 - 0.5 * u * (xs - order * u))
        # He_{n-1} moved to the stepped node by its second-order Taylor
        # series; its error is third order in the step, like the node's
        d1 = (order - 1) * he2
        d2 = xs * d1 - (order - 1) * he1
        he1 = he1 - step * d1 + 0.5 * step * step * d2
        x[todo] = xs - step
        inv_sq[todo] = 1.0 / (he1 * he1)
        todo = todo[~(np.abs(step) <= tol)]
    # Christoffel-Darboux: w_i is proportional to 1 / He_{n-1}(x_i)^2
    w = np.ldexp(inv_sq, -2 * (exponent - exponent.min()))
    if todo.size or not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))
                         and np.all(np.diff(x) > 0.0)):
        raise ConvergenceError(f"node computation failed to converge for order {order}")
    positive = slice(1, None) if order % 2 else slice(None)
    nodes = np.concatenate((-x[positive][::-1], x))
    weights = np.concatenate((w[positive][::-1], w))
    weights = weights / weights.sum()
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


# Halley passes before `build_rule` gives up; no order up to 10001 needs
# more than two.
_MAX_PASSES = 8
# The recurrence is rescaled by a power of two every this many degrees; in
# between, the monic He_k grow by at most ~(|x| + sqrt(k))^64, which stays
# finite for every order below 1e8.
_RESCALE_EVERY = 64
# Zeros a_1..a_5 of the Airy function Ai (DLMF Table 9.9.1); later zeros
# come from the asymptotic series DLMF 9.9.6, within 2e-11 from a_6 on.
_AIRY_ZEROS = np.array([-2.338107410459767, -4.087949444130971, -5.520559828095551,
                        -6.786708090071759, -7.944133587120853])


def _airy_zeros(k: np.ndarray) -> np.ndarray:
    s = 3.0 * np.pi / 8.0 * (4.0 * k - 1.0)
    s2 = s ** -2.0
    a = -s ** (2.0 / 3.0) * (1.0 + s2 * (5.0 / 48.0 + s2 * (-5.0 / 36.0 + s2 * (
        77125.0 / 82944.0 - s2 * 108056875.0 / 6967296.0))))
    tabled = k <= _AIRY_ZEROS.size
    a[tabled] = _AIRY_ZEROS[k[tabled] - 1]
    return a


def _initial_roots(order: int) -> np.ndarray:
    """Approximate positive roots of He_order, ascending.

    Tricomi's formula in the bulk and Gatteschi's Airy-zero formula for the
    0.4 sqrt(order) largest roots, where it is the closer of the two
    (Townsend, Trogdon & Olver 2016, arXiv 1410.5286, Lemmas 3.1 and 3.2).
    Both give t = x^2 / 2; the worst error in x falls from 3e-3 at order 2
    to 9e-7 at 201 and 1e-8 at 10001.
    """
    m = order // 2
    nu = 2.0 * order + 1.0
    n_edge = min(m, max(1, round(0.4 * math.sqrt(order))))
    # Tricomi: tau - sin(tau) = (4m - 4k + 3) pi / nu, solved by Newton
    k = np.arange(1, m - n_edge + 1)
    c = (4.0 * (m - k) + 3.0) * np.pi / nu
    tau = np.full(k.size, 0.5 * np.pi)
    for _ in range(6):
        tau -= (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
    sigma = np.cos(0.5 * tau) ** 2
    t_bulk = nu * sigma - (1.25 / (1.0 - sigma) ** 2 - 1.0 / (1.0 - sigma) - 0.25) / (3.0 * nu)
    # Gatteschi, counting from the largest root
    a = _airy_zeros(np.arange(n_edge, 0, -1))
    t_edge = (nu + 2.0 ** (2 / 3) * a * nu ** (1 / 3)
              + 0.2 * 2.0 ** (4 / 3) * a ** 2 * nu ** (-1 / 3)
              + (9.0 / 140.0 - 12.0 / 175.0 * a ** 3) / nu
              + (16.0 / 1575.0 * a + 92.0 / 7875.0 * a ** 4) * 2.0 ** (2 / 3) * nu ** (-5 / 3)
              - (15152.0 / 3031875.0 * a ** 5 + 1088.0 / 121275.0 * a ** 2)
              * 2.0 ** (1 / 3) * nu ** (-7 / 3))
    return np.sqrt(2.0 * np.concatenate((t_bulk, t_edge)))


def _hermite_tail(x: np.ndarray, order: int):
    """He_{n-2}(x), He_{n-1}(x), He_n(x) for n = order, sharing a binary exponent.

    Runs the monic recurrence He_{k+1} = x He_k - k He_{k-1}, whose integer
    coefficients are exact, and rescales by powers of two (also exact) so
    that no value overflows.  Returns (he2, he1, he0, e) with He_{n-j}(x) =
    he_j * 2^e.
    """
    p0, p1 = np.ones_like(x), x.copy()
    tmp = np.empty_like(x)
    exponent = np.zeros(x.size, dtype=np.int64)
    for k in range(1, order - 1):
        np.multiply(x, p1, out=tmp)
        p0 *= k
        tmp -= p0
        p0, p1, tmp = p1, tmp, p0
        if k % _RESCALE_EVERY == 0:
            _, e = np.frexp(np.maximum(np.abs(p0), np.abs(p1)))
            np.ldexp(p0, -e, out=p0)
            np.ldexp(p1, -e, out=p1)
            exponent += e
    return p0, p1, x * p1 - (order - 1) * p0, exponent


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
    f: Callable[[np.ndarray], np.ndarray],
    c: float,
    q: float,
    rule: QuadratureRule,
) -> float:
    """E[f(u1) * f(u2)] for the correlated Gaussian pair described above.

    Integrates on the tensor product of the 1-D rule, evaluating f on
    order points for u1 and on order**2 for u2.
    """
    if not np.isfinite(c) or abs(c) > 1.0 + _CORRELATION_SLACK:
        raise ValueError(f"correlation must lie in [-1, 1], got {c!r}")
    _require_length("q", q)
    c = min(1.0, max(-1.0, float(c)))
    z = rule.nodes
    s = np.sqrt(max(0.0, 1.0 - c * c))
    sq = np.sqrt(q)
    u1 = sq * z
    u2 = sq * (c * z[:, None] + s * z[None, :])
    v1 = np.asarray(f(u1), dtype=float)
    v2 = np.asarray(f(u2), dtype=float)
    if v1.shape != u1.shape or v2.shape != u2.shape:
        raise ValueError("integrand factors must be evaluated pointwise")
    result = float(rule.weights @ (v1 * (v2 @ rule.weights)))
    if not math.isfinite(result):
        _check_finite(v1, u1)
        _check_finite(v2, u2)
    return result
