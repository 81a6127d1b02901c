"""Iterative mean-field maps for wide random deep networks.

For a network with i.i.d. Gaussian weights (variance sigma_w^2 / fan-in)
and biases (variance sigma_b^2), the per-neuron squared pre-activation
length q^l evolves under the length map

    V(q) = sigma_w^2 * E[ phi(sqrt(q) z)^2 ] + sigma_b^2,

with the affine first layer q^1 = sigma_w^2 q^0 + sigma_b^2.  Two inputs
with correlation c, both at the fixed-point length q*, evolve under the
c-map

    c  ->  ( sigma_w^2 * E[ phi(u1) phi(u2) ] + sigma_b^2 ) / q*,

with (u1, u2) of variance q* and correlation c, whose slope at c=1,

    chi1 = sigma_w^2 * E[ phi'(sqrt(q*) z)^2 ],

separates an ordered phase (chi1 < 1, nearby inputs converge, c* = 1) from
a chaotic phase (chi1 > 1, nearby inputs decorrelate, c* < 1).  The
second-derivative analogue

    chi2 = sigma_w^2 * E[ phi''(sqrt(q*) z)^2 ]

drives the layerwise evolution of the extrinsic geometry of a 1-D manifold
at the fixed-point radius:

    gE_l     = chi1 * gE_{l-1},            gE_1     = q*,
    kappa2_l = 3 chi2 / chi1^2 + kappa2_{l-1} / chi1,   kappa2_1 = 1/q*,

(per-neuron normalized quantities), whose kappa2 fixed point is
3 chi2 / (chi1 (chi1 - 1)) when chi1 > 1.  The c-map, c* and the
curvature recursion divide by q* and raise DegenerateGeometryError at
q* = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .activations import Nonlinearity
from .errors import ConvergenceError, DegenerateGeometryError
from .quadrature import QuadratureRule, expect1, expect2_product

# Solver budgets.  q* and c* are roots of V(q) - q and c_map(c) - c, each
# bracketed by a sign change and closed by `_bracketed_root`; on the
# CLI-default tanh grid (order 201) a q* bracket closes in 6 map calls on
# average (at most 15), a c* bracket in 6 (at most 9).  For q* the
# upper bracket end doubles from 1.0 at most _Q_MAX_DOUBLINGS times
# (2**340 > 1e100); for c* it is 1 - delta, with delta halved from 1/2 down
# to _C_MIN_DELTA.  q* is certified by `_residual_tol`, c* by
# |c_map(c*) - c*| <= _C_RESIDUAL_TOL, and a q* so large that the
# certificate is relative to it must also change sign over _Q_SIGN_STEP
# relative.
# The chi1 = 1 boundary is bracketed on the geometric sigma_w scan
# _BOUNDARY_SCAN (first, last, points), closed by `_bracketed_root` (at most
# 9 chi1 calls there) and certified by _BOUNDARY_RESIDUAL_TOL.
_Q_MAX_DOUBLINGS = 340
_Q_SIGN_STEP = 1e-3
# With sigma_b = 0, the q at which V(q) - q is read to decide whether the
# origin is stable (see `length_fixed_point`)
_ORIGIN_RUNGS = (1e-18, 1e-15, 1e-12, 1e-9, 1e-6)
_C_MIN_DELTA = 2.0**-50
_C_RESIDUAL_TOL = 1e-12
_BOUNDARY_SCAN = (1e-3, 10.0, 9)
_BOUNDARY_RESIDUAL_TOL = 1e-8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class EnsembleParams:
    """A point (sigma_w, sigma_b) of the weight/bias-variance plane."""

    sigma_w: float
    sigma_b: float
    nonlinearity: Nonlinearity

    def __post_init__(self):
        if not (np.isfinite(self.sigma_w) and self.sigma_w >= 0):
            raise ValueError(f"sigma_w must be a finite nonnegative real, got {self.sigma_w!r}")
        if not (np.isfinite(self.sigma_b) and self.sigma_b >= 0):
            raise ValueError(f"sigma_b must be a finite nonnegative real, got {self.sigma_b!r}")


@dataclass(frozen=True)
class LengthTrajectory:
    values: np.ndarray          # q^l for layers l = 1..depth
    q_star: float
    iterations_to_1pct: Optional[int]   # None: no layer up to depth within 1 %


@dataclass(frozen=True)
class ChiFactors:
    chi1: float
    q_star: float


@dataclass(frozen=True)
class CorrelationTrajectory:
    values: np.ndarray          # c^l for layers l = 1..depth, values[0] = c0
    c_star: float
    c_star_converged: bool
    chi: ChiFactors


@dataclass(frozen=True)
class CurvatureTrajectory:
    gE: np.ndarray              # per-neuron Euclidean metric, layers 1..depth
    kappa_sq: np.ndarray        # squared normalized extrinsic curvature
    LE_norm: np.ndarray         # 2 pi sqrt(gE)
    LG: np.ndarray              # 2 pi sqrt(gE * kappa_sq)
    kappa_star_sq: float        # inf when the recursion has no finite fixed point
    diverges: bool
    chi: ChiFactors
    chi2: float


@dataclass(frozen=True)
class PhaseGrid:
    sigma_w_axis: np.ndarray
    sigma_b_axis: np.ndarray
    q_star: np.ndarray          # shape (n_w, n_b)
    c_star: np.ndarray
    chi1: np.ndarray
    c_converged: np.ndarray     # bool, per cell
    boundary: np.ndarray        # rows (sigma_b, sigma_w_star); NaN where not found
    cell_errors: dict = field(default_factory=dict)  # (i_w, j_b) -> message


# ---------------------------------------------------------------------------
# length map


def length_map(q: float, params: EnsembleParams, rule: QuadratureRule) -> float:
    """One application of the variance map V(q)."""
    if not (np.isfinite(q) and q >= 0):
        raise ValueError(f"q must be a finite nonnegative real, got {q!r}")
    return _weighted_moment(0, q, params, rule) + params.sigma_b**2


def _weighted_moment(k: int, q: float, params: EnsembleParams, rule: QuadratureRule) -> float:
    """sigma_w^2 E[phi^(k)(sqrt(q) z)^2] for z ~ N(0, 1) and k = 0, 1 or 2."""
    derivatives = params.nonlinearity.derivatives
    sq = math.sqrt(q)
    return params.sigma_w**2 * expect1(lambda z: derivatives(sq * z, k)[k] ** 2, rule)


def length_fixed_point(
    params: EnsembleParams,
    rule: QuadratureRule,
) -> float:
    """Stable fixed point q* of the length map, by a bracketed root solve.

    With sigma_b = 0 and V(0) = 0 the origin is a fixed point; it is
    returned (exactly 0.0) unless the map expands there.  The decision
    reads V(q) - q on the rungs q = 1e-18, 1e-15, ..., 1e-6 and takes the
    first one where it clears the rounding noise 64 eps q of V; there the
    difference is no longer the rule's error in E[z^2] (~eps q).  A map that
    no rung tells from the identity (the linear map at sigma_w = 1) keeps
    the origin.  Otherwise V(q) - q > 0 at the lower bracket end (0, or the
    decisive rung above the unstable origin), the upper end starts at 1.0
    and doubles until V(q) <= q, and
    `_bracketed_root` closes the bracket to floating-point resolution.
    The result is certified by its residual: |V(q*) - q*| < 1e-10, or
    64 eps q* for fixed points so large that rounding noise in V itself
    (~eps q*) dominates.  A root in that large-q* regime must also show a
    definite sign change: V(q) - q must exceed 64 eps q* in magnitude, with
    opposite signs, at q*(1 -+ 1e-3), which refuses roots where
    |V'(q*) - 1| < ~1.4e-11.  Quadrature error alone can satisfy the
    relative residual where V(q) - q has no root (the critical line of a
    positively homogeneous activation with bias, where the rule's E[z^2]
    misses 1 by ~1e-14), and this refuses such roots.  Raises
    `ConvergenceError` when the bracket cannot be closed below ~1e100 (an
    expansive map) or either certificate fails.
    """
    g = lambda q: length_map(q, params, rule) - q
    lo, g_lo = 0.0, length_map(0.0, params, rule)
    if params.sigma_b == 0.0 and g_lo == 0.0:
        # V(0) = 0; the origin is a fixed point.  It is the stable one
        # unless the map decisively expands there.
        for lo in _ORIGIN_RUNGS:
            g_lo = g(lo)
            if abs(g_lo) > 64.0 * _EPS * lo:
                break
        if not g_lo > 64.0 * _EPS * lo:
            return 0.0
    hi, g_hi = 1.0, g(1.0)
    doubles = 0
    while g_hi > 0.0:
        if doubles == _Q_MAX_DOUBLINGS:
            raise ConvergenceError(
                f"length map has no finite fixed point for sigma_w={params.sigma_w}, "
                f"sigma_b={params.sigma_b} (expansive map); V(q) > q up to q={hi!r}"
            )
        lo, g_lo = hi, g_hi
        hi *= 2.0
        g_hi = g(hi)
        doubles += 1
    q_star, residual = _bracketed_root(g, lo, hi, g_lo, g_hi, 0.0)
    if abs(residual) >= _residual_tol(q_star):
        raise ConvergenceError(
            f"fixed-point residual {abs(residual):.3e} exceeds tolerance at q={float(q_star)!r}"
        )
    noise = 64.0 * _EPS * q_star
    if noise > 1e-10 and not (g(q_star * (1.0 - _Q_SIGN_STEP)) > noise
                              and g(q_star * (1.0 + _Q_SIGN_STEP)) < -noise):
        raise ConvergenceError(
            f"ill-conditioned fixed point at q={float(q_star)!r}: V(q) - q does not change "
            f"sign beyond rounding noise within {_Q_SIGN_STEP:g} relative (no finite "
            f"fixed point for sigma_w={params.sigma_w}, sigma_b={params.sigma_b})"
        )
    return q_star


def _residual_tol(q: float) -> float:
    # 1e-10 in the theory's operating regime; scaled by q where rounding
    # noise in V(q) itself (~eps * q) makes an absolute bound meaningless
    return max(1e-10, 64.0 * _EPS * abs(q))


def _bracketed_root(g, lo: float, hi: float, g_lo: float, g_hi: float,
                    xtol: float) -> tuple[float, float]:
    """Root of g on [lo, hi], given g_lo = g(lo) and g_hi = g(hi) of opposite sign.

    Chandrupatla's method (Chandrupatla 1997, Adv. Eng. Software 28:145).
    Each step evaluates g at x = a + t (b - a), where a is the newest point,
    b the bracket end across the root from it, and c the point the last step
    dropped from the bracket.  t is the inverse quadratic interpolant
    through (a, b, c) when their values pass Chandrupatla's test that the
    interpolant is monotone over the bracket, and 1/2 (bisection) otherwise,
    which includes the first step and every step next to an infinite g.  t
    is then clamped so that x lies at least 2 eps max(|a|, |b|) + xtol/2
    inside the bracket, which moves the far end in as well once the
    interpolant has converged on one side.  Stops when g is exactly zero at
    an end or the bracket is no wider than xtol + 4 eps max(|lo|, |hi|).
    Returns (x, g(x)) for the bracket end with the smaller |g|, the lower
    one on a tie.
    """
    a, g_a, b, g_b = hi, g_hi, lo, g_lo
    t = 0.5
    while (g_a != 0.0 and g_b != 0.0
           and abs(b - a) > xtol + 4.0 * _EPS * max(abs(a), abs(b))):
        x = a + t * (b - a)
        if not min(a, b) < x < max(a, b):
            break               # the bracket is two adjacent floats
        g_x = g(x)
        if (g_x > 0.0) == (g_a > 0.0):
            c, g_c = a, g_a
        else:
            c, g_c = b, g_b
            b, g_b = a, g_a
        a, g_a = x, g_x
        xi = (a - b) / (c - b)              # a's place in [b, c], in (0, 1)
        phi = (g_a - g_b) / (g_c - g_b)     # g_c != g_b: they differ in sign
        t = 0.5
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = (g_a / (g_b - g_a) * g_c / (g_b - g_c)
                 + (c - a) / (b - a) * g_a / (g_c - g_a) * g_b / (g_c - g_b))
        t_min = (2.0 * _EPS * max(abs(a), abs(b)) + 0.5 * xtol) / abs(b - a)
        t = min(1.0 - t_min, max(t_min, t))
    (lo, g_lo), (hi, g_hi) = sorted([(a, g_a), (b, g_b)])
    return (lo, g_lo) if abs(g_lo) <= abs(g_hi) else (hi, g_hi)


def length_trajectory(
    q0: float,
    depth: int,
    params: EnsembleParams,
    rule: QuadratureRule,
) -> LengthTrajectory:
    """Layerwise theory trajectory q^1..q^depth from input length q0.

    The first layer is affine in the input, q^1 = sigma_w^2 q^0 + sigma_b^2;
    deeper layers apply the length map.  `iterations_to_1pct` is the first
    layer l <= depth with |q^l - q*| <= 0.01 q* (absolute 1e-8 when
    q* = 0), or None when no layer up to `depth` is that close.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not (np.isfinite(q0) and q0 >= 0):
        raise ValueError(f"q0 must be a finite nonnegative real, got {q0!r}")
    q_star = length_fixed_point(params, rule)

    def close(q):
        if q_star == 0.0:
            return abs(q - q_star) <= 1e-8
        return abs(q - q_star) / q_star <= 0.01

    values = np.empty(depth)
    iterations = None
    q = params.sigma_w**2 * q0 + params.sigma_b**2
    for l in range(1, depth + 1):
        if l > 1:
            q = length_map(q, params, rule)
        values[l - 1] = q
        if iterations is None and close(q):
            iterations = l
    return LengthTrajectory(values=values, q_star=q_star, iterations_to_1pct=iterations)


# ---------------------------------------------------------------------------
# correlation map


def _require_positive_q_star(q_star: float, what: str) -> float:
    """q_star itself, or DegenerateGeometryError when q* = 0."""
    if q_star <= 0.0:
        raise DegenerateGeometryError(f"{what} needs q* > 0, got q* = {q_star!r}")
    return q_star


def c_map(
    c: float,
    params: EnsembleParams,
    rule: QuadratureRule,
    *,
    q_star: float,
) -> float:
    """Correlation-coefficient map at the fixed-point length q_star."""
    _require_positive_q_star(q_star, "the c-map")
    moment = expect2_product(params.nonlinearity.value, c, q_star, rule)
    return (params.sigma_w**2 * moment + params.sigma_b**2) / q_star


def chi1(
    params: EnsembleParams,
    rule: QuadratureRule,
    *,
    q_star: float | None = None,
) -> float:
    """Slope of the c-map at c = 1: sigma_w^2 E[phi'(sqrt(q*) z)^2]."""
    if q_star is None:
        q_star = length_fixed_point(params, rule)
    return _weighted_moment(1, q_star, params, rule)


def chi2(
    params: EnsembleParams,
    rule: QuadratureRule,
    *,
    q_star: float,
) -> float:
    """Curvature injection factor at q_star: sigma_w^2 E[phi''(sqrt(q*) z)^2].

    Defined only for activations with a smooth second derivative; for
    the others `derivatives` raises UnsupportedActivationError at order 2.
    """
    return _weighted_moment(2, q_star, params, rule)


def _c_star(
    params: EnsembleParams,
    rule: QuadratureRule,
    q_star: float,
    chi1: float,
) -> tuple[float, bool]:
    """Stable fixed point c* of the c-map, by a bracketed root solve.

    Returns (c_star, converged); `chi1` is the c-map's slope at c = 1 for
    this q*.  By Mehler's expansion the c-map at equal variances q* is a
    power series in c with nonnegative coefficients, so g(c) = c_map(c) - c
    is convex on [0, 1], with g(1) = 0,
    g'(1) = chi1 - 1 and g(0) = (sigma_w^2 E[phi]^2 + sigma_b^2) / q* >= 0.
    If chi1 <= 1, g >= 0 on [0, 1] and c* = 1.  Otherwise g has exactly one
    root in [0, 1).  A g(0) <= 64 eps, within rounding of zero (odd phi
    without bias), is read as that root and c* = 0.0 is returned exactly.
    Otherwise g < 0 just below 1: delta is halved from 1/2 until
    g(1 - delta) < 0, the root then lies between 1 - delta and the last
    point with g >= 0 (0 or 1 - 2 delta), and `_bracketed_root` closes that
    bracket.  `converged` means the bracket closed and |g(c*)| <= 1e-12.
    When no delta >= 2**-50 makes g(1 - delta) negative (chi1 within
    quadrature noise of 1) there is no bracket, and c* is returned as NaN
    with converged=False.  Raises DegenerateGeometryError at q* = 0, where
    the c-map is undefined.
    """
    _require_positive_q_star(q_star, "c*")
    if chi1 <= 1.0:
        return 1.0, True

    def g(c: float) -> float:
        return c_map(c, params, rule, q_star=q_star) - c

    lo, g_lo = 0.0, g(0.0)
    if g_lo <= 64.0 * _EPS:
        # g(0) >= 0 in exact arithmetic (0 for odd phi without bias), so a
        # g(0) within rounding of zero is the root c* = 0, returned exactly
        return 0.0, abs(g_lo) <= _C_RESIDUAL_TOL
    delta = 0.5
    while (g_hi := g(1.0 - delta)) >= 0.0:
        if delta <= _C_MIN_DELTA:
            return math.nan, False
        lo, g_lo = 1.0 - delta, g_hi
        delta *= 0.5
    c, residual = _bracketed_root(g, lo, 1.0 - delta, g_lo, g_hi, _EPS)
    return c, abs(residual) <= _C_RESIDUAL_TOL


def correlation_trajectory(
    c0: float,
    depth: int,
    params: EnsembleParams,
    rule: QuadratureRule,
) -> CorrelationTrajectory:
    """Layerwise c^1..c^depth under the c-map, starting at c^1 = c0."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if abs(c0) > 1.0:
        raise ValueError(f"c0 must lie in [-1, 1], got {c0!r}")
    q_star = length_fixed_point(params, rule)
    values = np.empty(depth)
    values[0] = c0
    for l in range(1, depth):
        values[l] = c_map(values[l - 1], params, rule, q_star=q_star)
    chi = ChiFactors(chi1=chi1(params, rule, q_star=q_star), q_star=q_star)
    c_star, converged = _c_star(params, rule, q_star, chi.chi1)
    return CorrelationTrajectory(values=values, c_star=c_star,
                                 c_star_converged=converged, chi=chi)


# ---------------------------------------------------------------------------
# curvature recursion


def curvature_trajectory(
    depth: int,
    params: EnsembleParams,
    rule: QuadratureRule,
) -> CurvatureTrajectory:
    """Evolution of (gE, kappa^2) for a circle at the fixed-point radius.

    Needs chi2, so an activation without a smooth phi'' is refused with
    UnsupportedActivationError, before the q* solve.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    params.nonlinearity.derivatives(np.zeros(1), 2)
    q_star = _require_positive_q_star(length_fixed_point(params, rule),
                                      "the curvature recursion")
    x1 = chi1(params, rule, q_star=q_star)
    x2 = chi2(params, rule, q_star=q_star)
    if x1 == 0.0:
        raise ValueError("chi1 = 0: curvature recursion is degenerate")
    gE = np.empty(depth)
    kappa_sq = np.empty(depth)
    gE[0] = q_star
    kappa_sq[0] = 1.0 / q_star
    for l in range(1, depth):
        gE[l] = x1 * gE[l - 1]
        kappa_sq[l] = 3.0 * x2 / x1**2 + kappa_sq[l - 1] / x1
    if x1 > 1.0:
        kappa_star_sq = 3.0 * x2 / (x1 * (x1 - 1.0))
        diverges = False
    else:
        kappa_star_sq = math.inf
        diverges = True
    return CurvatureTrajectory(
        gE=gE,
        kappa_sq=kappa_sq,
        LE_norm=2.0 * math.pi * np.sqrt(gE),
        LG=2.0 * math.pi * np.sqrt(gE * kappa_sq),
        kappa_star_sq=kappa_star_sq,
        diverges=diverges,
        chi=ChiFactors(chi1=x1, q_star=q_star),
        chi2=x2,
    )


# ---------------------------------------------------------------------------
# phase diagram


def phase_boundary(
    sigma_b: float,
    nonlinearity: Nonlinearity,
    rule: QuadratureRule,
) -> float:
    """sigma_w at which chi1 crosses 1, at fixed sigma_b, by a bracketed root solve.

    chi1 - 1 must be nondecreasing (within 1e-9) on the _BOUNDARY_SCAN
    points and change sign; `_bracketed_root` closes the first scan cell
    where it does.  Like q* and c*, the answer is certified by a bracket
    plus a residual: the end with the smaller |chi1 - 1|, refused
    (`ConvergenceError`) unless that is below _BOUNDARY_RESIDUAL_TOL.
    Ensembles whose length map has no finite fixed point count as chaotic,
    chi1 = +inf (which only makes the solver bisect): lengths and
    perturbations both grow without bound there, and for positively
    homogeneous activations expansiveness is exactly chi1 > 1.
    """
    if sigma_b < 0:
        raise ValueError(f"sigma_b must be nonnegative, got {sigma_b!r}")

    def g(sw: float) -> float:
        params = EnsembleParams(sw, sigma_b, nonlinearity)
        try:
            return chi1(params, rule) - 1.0
        except ConvergenceError:
            return math.inf

    scan = np.geomspace(*_BOUNDARY_SCAN).tolist()
    gs = [g(s) for s in scan]
    span = _BOUNDARY_SCAN[:2]
    if any(b < a - 1e-9 for a, b in zip(gs, gs[1:])):
        raise ConvergenceError(
            f"chi1 is not monotone increasing in sigma_w over {span} at sigma_b={sigma_b}"
        )
    if not (gs[0] < 0.0 < gs[-1]):
        raise ConvergenceError(
            f"chi1 - 1 does not change sign over sigma_w in {span} at sigma_b={sigma_b}"
        )
    k = next(i for i in range(len(gs) - 1) if gs[i + 1] >= 0.0)
    sigma_w, residual = _bracketed_root(g, scan[k], scan[k + 1], gs[k], gs[k + 1], 0.0)
    if not abs(residual) < _BOUNDARY_RESIDUAL_TOL:
        raise ConvergenceError(
            f"phase boundary residual |chi1 - 1| = {abs(residual):.3e} exceeds "
            f"{_BOUNDARY_RESIDUAL_TOL:g} at sigma_w = {sigma_w!r}, sigma_b={sigma_b}"
        )
    return sigma_w


def phase_grid(
    sigma_w_axis,
    sigma_b_axis,
    nonlinearity: Nonlinearity,
    rule: QuadratureRule,
) -> PhaseGrid:
    """Evaluate q*, c*, chi1 on a (sigma_w, sigma_b) grid.

    Per-cell failures (no fixed point, undefined c-map) are recorded in
    `cell_errors` with NaN entries; the sweep never aborts.  Errors are
    recorded cell by cell in row-major order, then the boundary's by
    sigma_b, so `cell_errors` iterates in a deterministic order.
    """
    sw_axis = np.asarray(sigma_w_axis, dtype=float)
    sb_axis = np.asarray(sigma_b_axis, dtype=float)
    if sw_axis.size < 2 or sb_axis.size < 2:
        raise ValueError("phase grid needs at least 2 samples per axis")
    if np.any(np.diff(sw_axis) <= 0) or np.any(np.diff(sb_axis) <= 0):
        raise ValueError("grid axes must be strictly increasing")

    n_w, n_b = sw_axis.size, sb_axis.size
    q_star = np.full((n_w, n_b), np.nan)
    c_star = np.full((n_w, n_b), np.nan)
    chi = np.full((n_w, n_b), np.nan)
    converged = np.zeros((n_w, n_b), dtype=bool)
    errors: dict[tuple, str] = {}

    for i in range(n_w):
        for j in range(n_b):
            params = EnsembleParams(sw_axis[i], sb_axis[j], nonlinearity)
            try:
                qs = length_fixed_point(params, rule)
                chi[i, j] = chi1(params, rule, q_star=qs)
            except (ConvergenceError, ValueError) as exc:
                errors[(i, j)] = str(exc)
                continue
            q_star[i, j] = qs
            if qs <= 0.0:
                errors[(i, j)] = "c-map undefined at q* = 0"
                continue
            c_star[i, j], converged[i, j] = _c_star(params, rule, qs, chi[i, j])

    boundary = np.full((n_b, 2), np.nan)
    for j, sb in enumerate(sb_axis):
        boundary[j, 0] = sb
        try:
            boundary[j, 1] = phase_boundary(sb, nonlinearity, rule)
        except (ConvergenceError, ValueError) as exc:
            errors[("boundary", j)] = str(exc)

    return PhaseGrid(
        sigma_w_axis=sw_axis,
        sigma_b_axis=sb_axis,
        q_star=q_star,
        c_star=c_star,
        chi1=chi,
        c_converged=converged,
        boundary=boundary,
        cell_errors=errors,
    )
