"""Expressivity measures: shallow length bound, Fourier regression, weight chaos.

Three independent probes of what depth buys:

* A hard upper bound on the Euclidean length a single hidden layer can
  give a curve: for monotone phi with dynamic range R and an input curve
  whose velocity projections change sign at most s times,
  L^E <= N_1 (1 + s) R, for any weights.  A circle has s = 1.

* A function-space probe: ridge-regress output activations over a theta
  grid onto each Fourier basis vector and score each frequency by the
  squared angle between prediction and target.

* Weight chaos: interpolate one layer's weight matrix along
  W(Delta) = sqrt(1-|Delta|) W + sqrt(|Delta|) dW and track the
  function-space correlation C^D(Delta) of the induced maps, against the
  mean-field recursion (layer 2 scaled by sqrt(1-|Delta|), deeper layers
  the ordinary c-map).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedActivationError
from .geometry import periodic_trapezoid
from .meanfield import (
    EnsembleParams,
    _require_positive_q_star,
    _weighted_moment,
    c_map,
    length_fixed_point,
)
from .quadrature import QuadratureRule
from .simulator import CircleManifold, _draw_layers


@dataclass(frozen=True)
class ShallowBoundReport:
    bound: float              # N_1 (1 + s) R with s = 1
    lengths: np.ndarray       # per-trial L^E in hidden-activity space
    max_length: float
    violations: int


def verify_shallow_bound(
    n_trials: int,
    n_hidden: int,
    params: EnsembleParams,
    circle: CircleManifold,
    seed: int,
) -> ShallowBoundReport:
    """Measure L^E of x^1(theta) = phi(W x^0(theta) + b) over random W and b.

    The circle x^0(theta) = sqrt(N_0 q) (cos theta u0 + sin theta u1) has
    s = 1 (each 1-D projection of its velocity is a sinusoid), so the
    bound is 2 N_1 R.  With u0, u1 orthonormal and
    W_ij ~ N(0, sigma_w^2 / N_0), W u0 and W u1 are independent
    N(0, sigma_w^2 / N_0) vectors, so

        h(theta) = sigma_w sqrt(q) (cos theta z0 + sin theta z1) + b

    with z0, z1 standard normal N_1-vectors: N_0 cancels, W is never
    formed, and the circle contributes only q and its theta grid.  Trial t
    draws z = (z0, z1), then b ~ N(0, sigma_b^2), from child t of
    SeedSequence(seed).  The lengths have the distribution of a dense W
    draw, not its bytes.
    """
    nl = params.nonlinearity
    if not nl.monotone_nondecreasing:
        raise UnsupportedActivationError("the length bound assumes a monotone nonlinearity")
    if nl.dynamic_range is None:
        raise UnsupportedActivationError(
            f"the length bound needs a bounded dynamic range; {nl.name!r} is unbounded"
        )
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if n_hidden < 1:
        raise ValueError("n_hidden must be >= 1")
    if not nl.dynamic_range > 0:
        raise ValueError("dynamic_range must be positive")
    bound = n_hidden * 2 * nl.dynamic_range
    # h = position @ z + b and dh/dtheta = velocity @ z, as (n_theta, 2) @ (2, N_1)
    r = params.sigma_w * math.sqrt(circle.q)
    cos, sin = np.cos(circle.thetas), np.sin(circle.thetas)
    position = r * np.stack([cos, sin], axis=1)
    velocity = r * np.stack([-sin, cos], axis=1)
    lengths = np.empty(n_trials)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        rng = np.random.default_rng(child)
        z = rng.standard_normal((2, n_hidden))
        b = rng.normal(0.0, params.sigma_b, size=n_hidden)
        v_hidden = nl.derivatives(position @ z + b, 1)[1] * (velocity @ z)
        speed = np.sqrt(np.einsum("ij,ij->i", v_hidden, v_hidden))
        lengths[t] = periodic_trapezoid(speed, circle.thetas)
    violations = int(np.sum(lengths > bound))
    return ShallowBoundReport(bound=bound, lengths=lengths,
                              max_length=float(lengths.max()), violations=violations)


# ---------------------------------------------------------------------------
# Fourier regression harness


@dataclass(frozen=True)
class FourierProbe:
    """Fourier basis {1, cos k theta, sin k theta}, k <= omega_max, on the
    uniform grid of n_theta angles in [0, 2 pi), where its columns are
    orthogonal."""

    omega_max: int
    n_theta: int

    def __post_init__(self):
        if self.omega_max < 1:
            raise ValueError("omega_max must be >= 1")
        if self.n_theta <= 2 * self.omega_max + 1:
            raise ValueError(
                f"{self.n_theta} theta samples cannot resolve omega_max={self.omega_max}"
            )

    @property
    def thetas(self) -> np.ndarray:
        return np.linspace(0.0, 2.0 * math.pi, self.n_theta, endpoint=False)

    def basis(self) -> np.ndarray:
        """(n_theta, 2*omega_max + 1) matrix; column 0 constant, then cos/sin pairs."""
        thetas = self.thetas
        cols = [np.ones(self.n_theta)]
        for k in range(1, self.omega_max + 1):
            cols.append(np.cos(k * thetas))
            cols.append(np.sin(k * thetas))
        return np.stack(cols, axis=1)


def uniform_probe(omega_max: int, n_theta: int) -> FourierProbe:
    return FourierProbe(omega_max=omega_max, n_theta=n_theta)


@dataclass(frozen=True)
class FourierErrorProfile:
    frequencies: np.ndarray      # 0..omega_max
    errors: np.ndarray           # per frequency (cos/sin averaged)


def fourier_error_profile(activations: np.ndarray, probe: FourierProbe) -> FourierErrorProfile:
    """Per-frequency regression error of activations against the basis.

    For each basis column y, ridge least squares predicts yhat from the
    activation columns (plus a constant column); the error is the squared
    angle 1 - (yhat.y)^2 / (|yhat|^2 |y|^2), in [0, 1].  The ridge is
    1e-6 tr(Gram) / n_columns, positive because the constant column adds
    n_theta to the trace, so the system is positive definite even for
    rank-deficient activations, and one solve fits every column.
    """
    activations = np.asarray(activations, dtype=float)
    if activations.ndim != 2 or activations.shape[0] != probe.n_theta:
        raise ValueError("activation rows must align with the probe theta grid")
    design = np.concatenate([activations, np.ones((activations.shape[0], 1))], axis=1)
    gram = design.T @ design
    n_cols = gram.shape[0]
    ridge = 1e-6 * float(np.trace(gram)) / n_cols
    basis = probe.basis()
    rhs = design.T @ basis
    coef = np.linalg.solve(gram + ridge * np.eye(n_cols), rhs)
    predictions = design @ coef
    y_norm_sq = np.einsum("ij,ij->j", basis, basis)
    yhat_norm_sq = np.einsum("ij,ij->j", predictions, predictions)
    overlaps = np.einsum("ij,ij->j", predictions, basis)
    column_errors = np.ones(basis.shape[1])
    usable = yhat_norm_sq > np.finfo(float).eps * y_norm_sq
    column_errors[usable] = 1.0 - overlaps[usable] ** 2 / (
        yhat_norm_sq[usable] * y_norm_sq[usable]
    )
    column_errors = np.clip(column_errors, 0.0, 1.0)
    # frequency 0 has one column; each k >= 1 averages its cos/sin pair
    errors = np.concatenate([column_errors[:1], column_errors[1:].reshape(-1, 2).mean(axis=1)])
    return FourierErrorProfile(frequencies=np.arange(probe.omega_max + 1), errors=errors)


# ---------------------------------------------------------------------------
# weight chaos


@dataclass(frozen=True)
class WeightChaosFamily:
    """C^D(Delta) of a one-parameter family of networks differing only in
    layer-2 weights.

    The family holds no network: its layers are drawn, used once and
    dropped (see `weight_chaos_empirical`).
    """

    delta_grid: np.ndarray
    c_theory: np.ndarray         # C^D(Delta) from the mean-field recursion
    c_empirical: np.ndarray      # measured C^D(Delta)


def weight_chaos_theory(
    params: EnsembleParams,
    delta: float,
    depth: int,
    rule: QuadratureRule,
    *,
    q_star: float,
) -> np.ndarray:
    """C^l(Delta) for l = 1..depth at the fixed point q* of `params`.

    C^1 = 1; the layer-2 update scales the weight term by sqrt(1-|Delta|);
    all deeper layers follow the ordinary c-map at q*.
    """
    if abs(delta) > 1.0:
        raise ValueError(f"delta must lie in [-1, 1], got {delta!r}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _require_positive_q_star(q_star, "the weight-chaos recursion")
    out = np.empty(depth)
    out[0] = 1.0
    if depth == 1:
        return out
    weight_term = _weighted_moment(0, q_star, params, rule)
    q2 = math.sqrt(1.0 - abs(delta)) * weight_term + params.sigma_b**2
    out[1] = q2 / q_star
    for l in range(2, depth):
        out[l] = c_map(out[l - 1], params, rule, q_star=q_star)
    return out


def weight_chaos_empirical(
    params: EnsembleParams,
    widths,
    delta_grid,
    seed: int,
    *,
    n_theta: int = 256,
    rule: QuadratureRule,
) -> WeightChaosFamily:
    """Simulate the interpolated-weight family on a circle at radius q*.

    The circle is injected at the first layer, so the interpolated matrix
    is W^2; the base network, the perturbation, and the circle draw from
    independent child seeds of `seed`.  W^1 and b^1 are never drawn, and
    W^2..W^D are streamed: each is drawn when the batch reaches it and
    dropped after its product, and dW after x^1 dW^T.

    The whole family runs as one batch.  Layer 2 is linear in its weights,
    so h^2(Delta) = sqrt(1-|Delta|) x^1 W^T + sqrt(|Delta|) x^1 dW^T + b^2
    for every Delta comes from two products; each deeper layer is one
    product on the stacked (n_Delta * n_theta, N) block.  The reference
    network (Delta = 0) is one more block when the grid lacks it.
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    if np.any(np.abs(delta_grid) > 1.0):
        raise ValueError("all deltas must lie in [-1, 1]")
    widths = tuple(int(n) for n in widths)
    if len(widths) < 3:
        raise ValueError("weight chaos needs depth >= 2 (widths N_0..N_D)")
    q_star = _require_positive_q_star(length_fixed_point(params, rule), "weight chaos")

    net_seed, dw_seed, circle_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(3)
    )
    circle = CircleManifold.sample(widths[1], q_star, n_theta, circle_seed)
    deltas = delta_grid if np.any(delta_grid == 0.0) else np.append(delta_grid, 0.0)
    ref = int(np.flatnonzero(deltas == 0.0)[0])
    phi = params.nonlinearity.value
    x1 = phi(circle.h1())

    layers = _draw_layers(widths, params, net_seed, first=2)
    w2, b2 = next(layers)
    x1_w = x1 @ w2.T
    del w2
    dw_rng = np.random.default_rng(np.random.SeedSequence(dw_seed))
    d_weights = dw_rng.normal(0.0, params.sigma_w / math.sqrt(widths[1]),
                              size=(widths[2], widths[1]))
    x1_dw = x1 @ d_weights.T
    del d_weights
    h = np.empty((deltas.size * n_theta, widths[2]))
    for k, delta in enumerate(deltas):
        block = h[k * n_theta:(k + 1) * n_theta]
        np.multiply(math.sqrt(1.0 - abs(delta)), x1_w, out=block)
        block += math.sqrt(abs(delta)) * x1_dw
        block += b2
    for w, b in layers:
        if w.shape[0] == h.shape[1]:
            h = np.matmul(phi(h), w.T, out=h)
        else:
            h = phi(h) @ w.T
        h += b

    width_last = widths[-1]
    outputs = h.reshape(deltas.size, n_theta, width_last)
    q_self = np.einsum("kij,kij->ki", outputs, outputs).mean(axis=1) / width_last
    q_cross = np.einsum("kij,ij->ki", outputs, outputs[ref]).mean(axis=1) / width_last
    c_emp = (q_cross / np.sqrt(q_self[ref] * q_self))[:delta_grid.size]

    depth = len(widths) - 1
    c_theory = np.array([
        weight_chaos_theory(params, d, depth, rule, q_star=q_star)[-1]
        for d in delta_grid
    ])
    return WeightChaosFamily(
        delta_grid=delta_grid,
        c_theory=c_theory,
        c_empirical=c_emp,
    )
