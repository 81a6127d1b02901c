"""Curvature of a decision boundary backpropagated into earlier layers.

A linear readout y = sgn(beta . x^D - beta0) defines a flat boundary in
the last layer.  Seen from layer l, the boundary is the level set of

    G(x) = beta . x^D(x) - beta0

where x ranges over layer-l activity space and x^D(x) is the suffix of the
feedforward map.  Its local shape at a point x* with G(x*) = 0 is captured
by the normalized Hessian restricted to the tangent plane,

    K = |grad G|^-1  T^T (d^2 G / dx dx^T) T,

with T an orthonormal basis of the plane orthogonal to the unit normal
n = grad G / |grad G|.  The N-1 eigenvalues of K, sorted descending, are
the signed principal curvatures; positive values bend the boundary toward
the side where G decreases (a sphere |x|^2 - r^2 = 0 has all curvatures
+1/r).

The Hessian of a network suffix is exact, by forward-over-reverse through
the layers j = l+1..D with preactivations h^j:

    d^2 G / dx dx^T = sum_j  J_j^T diag(phi''(h^j) . s_j) J_j,

where J_j = dh^j/dx is carried forward as a matrix (J_{l+1} = W^{l+1},
J_j = W^j diag(phi'(h^{j-1})) J_{j-1}) and s_j = dG/dphi(h^j) comes from
the reverse pass of the gradient (s_D = beta).  Activations without a
smooth phi'' refuse it themselves (UnsupportedActivationError).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DegenerateGeometryError
from .simulator import NetworkRealization, forward

# Boundary membership: |G| below this multiple of |beta| counts as "on the
# boundary" (scale-free in the readout).
BOUNDARY_TOL_FACTOR = 1e-8
_MAX_ITERS = 10_000  # line-search steps before `find_boundary_point` gives up


@dataclass(frozen=True)
class LinearReadout:
    beta: np.ndarray
    beta0: float = 0.0

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", beta)
        if beta.ndim != 1 or float(np.linalg.norm(beta)) == 0.0:
            raise ValueError("readout weight vector must be a nonzero 1-D vector")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.beta))


@dataclass(frozen=True)
class ScalarField:
    """A twice-differentiable scalar function of layer-l activity.

    `value_and_grad` maps x -> (G(x), grad G(x)) and `hessian` maps x to
    the dim x dim matrix d^2 G / dx dx^T.  `tol_scale` sets the boundary
    tolerance (the readout norm for network suffixes).
    """

    dim: int
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    hessian: Callable[[np.ndarray], np.ndarray]
    tol_scale: float = 1.0


def _suffix_pass(
    net: NetworkRealization,
    readout: LinearReadout,
    layer: int,
    x: np.ndarray,
    order: int,
) -> tuple[float, np.ndarray, list[tuple[np.ndarray, ...]], list[np.ndarray]]:
    """One forward and one reverse pass of the suffix at layer-l activity x.

    Returns G(x), grad G(x) and, for j = l+1..D, the activation's
    derivatives (phi, .., phi^(order)) at h^j, from one evaluation per
    layer (order 1 or 2), and the sensitivities s_j = dG/dphi(h^j).
    """
    if not 0 <= layer <= net.depth:
        raise ValueError(f"layer must be in 0..{net.depth}, got {layer}")
    x = np.asarray(x, dtype=float)
    if x.shape != (net.widths[layer],):
        raise ValueError(f"x has shape {x.shape}, expected ({net.widths[layer]},)")
    if readout.beta.shape != (net.widths[net.depth],):
        raise ValueError("readout dimension does not match the last layer")
    derivs = []
    activity = x
    for w, b in zip(net.weights[layer:], net.biases[layer:]):
        derivs.append(net.nonlinearity.derivatives(w @ activity + b, order))
        activity = derivs[-1][0]
    value = float(readout.beta @ activity) - readout.beta0
    sens = []
    grad = readout.beta.copy()
    for w, d in zip(reversed(net.weights[layer:]), reversed(derivs)):
        sens.append(grad)
        grad = w.T @ (d[1] * grad)
    return value, grad, derivs, sens[::-1]


def readout_value_and_gradient(
    net: NetworkRealization,
    readout: LinearReadout,
    layer: int,
    x: np.ndarray,
) -> tuple[float, np.ndarray]:
    """G and its exact gradient for the suffix starting at layer-l activity."""
    value, grad, _, _ = _suffix_pass(net, readout, layer, x, 1)
    return value, grad


def readout_hessian(
    net: NetworkRealization,
    readout: LinearReadout,
    layer: int,
    x: np.ndarray,
) -> np.ndarray:
    """Exact Hessian of G for the suffix starting at layer-l activity.

    Zero at layer == depth, where the suffix is affine.  A suffix through
    an activation without a smooth phi'' (relu, hard_tanh) is refused with
    UnsupportedActivationError rather than given phi'' = 0.
    """
    _, _, derivs, sens = _suffix_pass(net, readout, layer, x, 2)
    n = net.widths[layer]
    hessian = np.zeros((n, n))
    jac = None  # dh^j/dx, an N_j x N_l matrix carried forward
    for k, (w, d, s) in enumerate(zip(net.weights[layer:], derivs, sens)):
        jac = w if jac is None else w @ (derivs[k - 1][1][:, None] * jac)
        hessian += jac.T @ ((d[2] * s)[:, None] * jac)
    return hessian


def readout_field(net: NetworkRealization, readout: LinearReadout, layer: int) -> ScalarField:
    return ScalarField(
        dim=net.widths[layer],
        value_and_grad=lambda x: readout_value_and_gradient(net, readout, layer, x),
        hessian=lambda x: readout_hessian(net, readout, layer, x),
        tol_scale=readout.norm,
    )


def find_boundary_point(
    field: ScalarField,
    x_init: np.ndarray,
) -> np.ndarray:
    """A point x* with |G(x*)| below the boundary tolerance.

    Descends G^2 with a backtracking line search.  The initial trial step
    each iteration is the scalar-Newton step G / |grad G|^2 along the
    gradient, halved until G^2 decreases (Armijo condition); only the
    converged point matters.
    """
    x = np.asarray(x_init, dtype=float).copy()
    if x.shape != (field.dim,):
        raise ValueError(f"x_init has shape {x.shape}, expected ({field.dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x_init must be finite")
    tol = BOUNDARY_TOL_FACTOR * field.tol_scale
    value, grad = field.value_and_grad(x)
    for _ in range(_MAX_ITERS):
        if abs(value) < tol:
            return x
        gnorm_sq = float(grad @ grad)
        f0 = value * value
        if gnorm_sq <= (np.finfo(float).eps * field.tol_scale) ** 2 * max(1.0, f0):
            raise DegenerateGeometryError(
                f"vanishing gradient (|grad|^2={gnorm_sq:.3e}) away from the boundary "
                f"(|G|={abs(value):.3e}): G is flat here, at a critical point or on a "
                "plateau where the suffix is saturated"
            )
        # descent direction for f = G^2 is -2 G grad; t=1 below is the
        # scalar-Newton step x - (G/|grad|^2) grad
        t = 1.0
        step = (value / gnorm_sq) * grad
        slope = -2.0 * value * value  # directional derivative of f along -step/t
        accepted = False
        for _ in range(60):
            x_try = x - t * step
            v_try, g_try = field.value_and_grad(x_try)
            if v_try * v_try <= f0 + 1e-4 * t * slope:
                x, value, grad = x_try, v_try, g_try
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise ConvergenceError(f"line search failed at |G|={abs(value):.3e}")
    if abs(value) < tol:
        return x
    raise ConvergenceError(
        f"boundary search did not converge in {_MAX_ITERS} iterations; "
        f"|G| = {abs(value):.3e} (tolerance {tol:.3e})"
    )


def principal_curvatures(field: ScalarField, x_star: np.ndarray) -> np.ndarray:
    """The N-1 signed principal curvatures of the level set at x*, descending.

    The tangent basis T is columns 1..N-1 of the Householder reflector
    Q = I - 2 u u^T, u = (n + sign(n_0) e_0) / |n + sign(n_0) e_0|, which
    sends the normal n to -sign(n_0) e_0.  With w = H u and
    p = w - (u.w) u, Q H Q = H - 2 u p^T - 2 p u^T, so its lower-right
    block T^T H T costs one matrix-vector product and a rank-2 update of H;
    its eigenvalues over |grad G| are the curvatures.  H is the field's
    exact Hessian (for a network suffix, the forward-over-reverse sum in
    the module docstring).
    """
    x = np.asarray(x_star, dtype=float)
    tol = BOUNDARY_TOL_FACTOR * field.tol_scale
    value, grad = field.value_and_grad(x)
    if abs(value) >= tol:
        raise ValueError(f"point is not on the boundary: |G|={abs(value):.3e} >= {tol:.3e}")
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm == 0.0:
        raise DegenerateGeometryError("gradient vanishes at the boundary point")
    n = x.size
    hessian = np.asarray(field.hessian(x), dtype=float)
    if hessian.shape != (n, n):
        raise ValueError(f"hessian has shape {hessian.shape}, expected ({n}, {n})")
    hessian = 0.5 * (hessian + hessian.T)
    u = grad / grad_norm
    # |n + sign(n_0) e_0|^2 = 2 + 2 |n_0| >= 2: no cancellation
    u[0] += np.copysign(1.0, u[0])
    u /= np.linalg.norm(u)
    w = hessian @ u
    p = w - (u @ w) * u
    up = np.outer(u[1:], p[1:])
    block = hessian[1:, 1:] - 2.0 * (up + up.T)
    return np.linalg.eigvalsh(block)[::-1] / grad_norm


@dataclass(frozen=True)
class LayerCurvatureSummary:
    layer: int
    n_converged: int
    n_attempted: int
    mean_top: np.ndarray         # mean of kappa_1..kappa_4 across points
    kappas: tuple[np.ndarray, ...]   # per converged point, descending


def curvature_vs_depth(
    net: NetworkRealization,
    readout: LinearReadout,
    n_points: int,
    seed: int,
    *,
    init_scale: float,
) -> list[LayerCurvatureSummary]:
    """Boundary curvature summaries for suffixes from layer D-1 down to 0.

    Search starts are Gaussian inputs with std `init_scale` per coordinate,
    pushed through the network prefix to the layer, so starts carry the
    layer's activity statistics.  Layers where no point converges are
    reported with n_converged = 0 and NaN summaries; the sweep continues.
    """
    if net.depth < 2:
        raise ValueError("curvature-vs-depth needs depth >= 2")
    if n_points < 1:
        raise ValueError(f"curvature-vs-depth needs n_points >= 1, got {n_points}")
    summaries = []
    for layer in range(net.depth - 1, -1, -1):
        field = readout_field(net, readout, layer)
        # one child stream per (layer, point) keeps inits independent of
        # how many layers or points were requested before
        kappas = []
        for p in range(n_points):
            child = np.random.SeedSequence(entropy=seed, spawn_key=(layer, p))
            x_init = np.random.default_rng(child).normal(size=net.widths[0]) * init_scale
            if layer > 0:
                x_init = net.nonlinearity.value(forward(net, x_init)[layer - 1].h)
            try:
                kappas.append(principal_curvatures(field, find_boundary_point(field, x_init)))
            except (ConvergenceError, DegenerateGeometryError):
                continue
        if kappas:
            tops = np.mean([k[:4] for k in kappas], axis=0)
        else:
            tops = np.full(4, np.nan)
        summaries.append(LayerCurvatureSummary(
            layer=layer,
            n_converged=len(kappas),
            n_attempted=n_points,
            mean_top=tops,
            kappas=tuple(kappas),
        ))
    return summaries
