import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mfprop as mf
from mfprop import boundary
from mfprop import meanfield
from mfprop import expressivity
from mfprop import simulator
from mfprop.errors import ConvergenceError, DegenerateGeometryError, UnsupportedActivationError
from mfprop.meanfield import _c_star
from mfprop.quadrature import expect2_product

from oracles import (
    ERF,
    bisect_root,
    erf_c_map,
    erf_chi1,
    erf_chi2,
    erf_q_star,
    fd_second_derivative_at_one,
    fd_slope_at_one,
    gauss_expect2_grid,
    gauss_expect_trapezoid,
)

TANH = mf.builtin("tanh")
LINEAR = mf.builtin("linear")
RULE = mf.build_rule(201)
RULE_FINE = mf.build_rule(2001)

CHAOTIC = mf.EnsembleParams(4.0, 0.3, TANH)
ORDERED = mf.EnsembleParams(0.5, 0.3, TANH)


# ---------------------------------------------------------------------------
# length map


def test_length_map_linear_closed_form():
    params = mf.EnsembleParams(0.5, 0.1, LINEAR)
    assert mf.length_map(2.0, params, RULE) == pytest.approx(0.51, abs=1e-12)


def test_length_map_tanh_at_origin():
    params = mf.EnsembleParams(1.7, 0.0, TANH)
    assert mf.length_map(0.0, params, RULE) == 0.0


def test_length_map_against_trapezoid_oracle():
    truth = 16.0 * gauss_expect_trapezoid(lambda z: np.tanh(z) ** 2) + 0.09
    assert mf.length_map(1.0, CHAOTIC, RULE) == pytest.approx(truth, abs=1e-9)


def test_length_map_rejects_negative_q():
    with pytest.raises(ValueError):
        mf.length_map(-0.1, CHAOTIC, RULE)


def test_length_map_monotone_in_q():
    qs = np.linspace(0.0, 30.0, 40)
    values = [mf.length_map(q, CHAOTIC, RULE) for q in qs]
    assert np.all(np.diff(values) >= 0.0)


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_decays_to_zero_without_bias():
    assert mf.length_fixed_point(mf.EnsembleParams(0.5, 0.0, TANH), RULE) == 0.0


def test_fixed_point_linear_geometric_series():
    params = mf.EnsembleParams(0.5, 0.3, LINEAR)
    assert mf.length_fixed_point(params, RULE) == pytest.approx(0.12, abs=1e-12)


def test_fixed_point_matches_bisection_oracle():
    q_star = mf.length_fixed_point(CHAOTIC, RULE)
    oracle = bisect_root(lambda q: mf.length_map(q, CHAOTIC, RULE) - q, 1.0, 100.0)
    assert q_star == pytest.approx(oracle, abs=1e-9)


def test_fixed_point_error_for_expansive_map():
    with pytest.raises(ConvergenceError):
        mf.length_fixed_point(mf.EnsembleParams(1.5, 0.0, LINEAR), RULE)


@pytest.mark.parametrize("name, sigma_w", [("linear", 1.0), ("relu", math.sqrt(2.0))])
def test_fixed_point_refused_on_homogeneous_critical_line(name, sigma_w):
    # V(q) - q = sigma_b^2 > 0 for every q here.  The rule's second moment
    # exceeds the exact one by 2 eps, so V(q) - q = 0.09 + 4e-16 q has no
    # root, and the bracket never closes
    params = mf.EnsembleParams(sigma_w, 0.3, mf.builtin(name))
    slope = mf.length_map(1.0, params, RULE) - mf.length_map(0.0, params, RULE)
    assert slope > 1.0
    with pytest.raises(ConvergenceError, match="expansive map"):
        mf.length_fixed_point(params, RULE)


def test_fixed_point_refused_when_ill_conditioned():
    # q* = sigma_b^2 / (1 - sigma_w^2) = 9e10 is a true root, but V'(q*) is
    # 1 - 1e-12, so V(q) - q changes sign by less than its rounding noise
    params = mf.EnsembleParams(math.sqrt(1.0 - 1e-12), 0.3, LINEAR)
    with pytest.raises(ConvergenceError, match="ill-conditioned"):
        mf.length_fixed_point(params, RULE)


@pytest.mark.parametrize("order", [11, 41, 101, 201, 401, 1601, 2001])
def test_fixed_point_origin_decided_above_rounding(order):
    # tanh at sigma_w = 1, sigma_b = 0: V(q) - q ~ -2 q^2, which at
    # q = 1e-18 is smaller than the rule's rounding of E[z^2] times q
    rule = mf.build_rule(order)
    assert mf.length_fixed_point(mf.EnsembleParams(1.0, 0.0, TANH), rule) == 0.0
    q_star = mf.length_fixed_point(mf.EnsembleParams(1.0 + 1e-9, 0.0, TANH), rule)
    assert q_star == pytest.approx(1e-9, rel=1e-6)


def test_fixed_point_origin_unstable_beyond_first_rung(monkeypatch):
    # V(q) - q = q^2 (1.5 - q) is inside the rounding noise 64 eps q at
    # q = 1e-18 and 1e-15 but clears it at 1e-12: the origin is unstable
    monkeypatch.setattr(meanfield, "length_map", lambda q, params, rule: q + q * q * (1.5 - q))
    q_star = mf.length_fixed_point(mf.EnsembleParams(1.0, 0.0, TANH), RULE)
    assert q_star == pytest.approx(1.5, rel=1e-12)


@pytest.mark.parametrize("sigma_w", [0.999, 1.001])
def test_fixed_point_cost_bounded_at_criticality(monkeypatch, sigma_w):
    # At sigma_w = 1, sigma_b = 0 the slope of V(q) - q vanishes at the
    # origin, so any solve that iterates V slows down critically; a
    # bracketed solve needs a bounded number of map evaluations.
    calls = 0
    length_map = meanfield.length_map

    def counting_length_map(*args, **kwargs):
        nonlocal calls
        calls += 1
        return length_map(*args, **kwargs)

    monkeypatch.setattr(meanfield, "length_map", counting_length_map)
    mf.length_fixed_point(mf.EnsembleParams(sigma_w, 0.0, TANH), RULE)
    assert 0 < calls <= 300


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_decays_in_ordered_biasfree_regime():
    traj = mf.length_trajectory(1.0, 12, mf.EnsembleParams(0.5, 0.0, TANH), RULE)
    assert traj.q_star == 0.0
    assert np.all(np.diff(traj.values) < 0.0)
    assert traj.values[-1] < 1e-6


def test_trajectory_constant_for_critical_linear():
    traj = mf.length_trajectory(5.0, 8, mf.EnsembleParams(1.0, 0.0, LINEAR), RULE)
    assert np.allclose(traj.values, 5.0, rtol=1e-12)


def test_trajectory_constant_from_fixed_point():
    q_star = mf.length_fixed_point(CHAOTIC, RULE)
    q0 = (q_star - CHAOTIC.sigma_b**2) / CHAOTIC.sigma_w**2
    traj = mf.length_trajectory(q0, 10, CHAOTIC, RULE)
    assert np.allclose(traj.values, q_star, rtol=1e-10)
    assert traj.iterations_to_1pct == 1


def test_trajectory_counts_layers_only_within_depth(monkeypatch):
    # q* = 0 and q^l decays like 1/l, so no layer up to depth is within 1e-8
    calls = 0
    length_map = meanfield.length_map

    def counting_length_map(*args, **kwargs):
        nonlocal calls
        calls += 1
        return length_map(*args, **kwargs)

    monkeypatch.setattr(meanfield, "length_map", counting_length_map)
    traj = mf.length_trajectory(1.0, 10, mf.EnsembleParams(1.0, 0.0, TANH), RULE)
    assert traj.q_star == 0.0
    assert traj.iterations_to_1pct is None
    assert calls <= 20


def test_trajectory_first_layer_is_affine():
    traj = mf.length_trajectory(2.0, 3, CHAOTIC, RULE)
    assert traj.values[0] == pytest.approx(16.0 * 2.0 + 0.09, abs=1e-12)
    assert np.all(traj.values >= CHAOTIC.sigma_b**2)


def test_trajectory_refuses_first_layer_overflow_from_numpy_scalars():
    # numpy scalars would warn of the overflow in sigma_w^2 q0 before the
    # refusal that names q0
    params = mf.EnsembleParams(np.float64(4.0), np.float64(0.0), TANH)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows at q0 = "):
            mf.length_trajectory(np.float64(1e308), 3, params, RULE)


# ---------------------------------------------------------------------------
# correlation map and c-map


def test_c_map_at_c_one_is_length_map_over_q_star():
    # at c = 1 both inputs coincide: c_map(1) = V(q) / q for any length q
    q = 1.7
    lhs = mf.c_map(1.0, CHAOTIC, RULE, q_star=q)
    assert lhs == pytest.approx(mf.length_map(q, CHAOTIC, RULE) / q, abs=1e-12)


def test_c_map_rejects_bad_c():
    with pytest.raises(ValueError, match="correlation"):
        mf.c_map(1.2, CHAOTIC, RULE, q_star=1.0)


def test_correlation_map_odd_activation_uncorrelated():
    # cross-covariance q12 = q * c_map(c) at a length q that is not the fixed point
    params = mf.EnsembleParams(2.0, 0.0, TANH)
    assert mf.c_map(0.0, params, RULE, q_star=1.0) == pytest.approx(0.0, abs=1e-14)


def test_correlation_map_against_dense_grid():
    rule = mf.build_rule(1001)
    q = 1.7
    got = q * mf.c_map(0.5, CHAOTIC, rule, q_star=q)
    f = lambda a, b: np.tanh(a) * np.tanh(b)
    truth = 16.0 * gauss_expect2_grid(f, 0.5, q, n=2000) + 0.09
    assert got == pytest.approx(truth, abs=1e-7)


def test_c_map_has_fixed_point_at_one():
    for params in (CHAOTIC, ORDERED, mf.EnsembleParams(2.5, 0.3, TANH),
                   mf.EnsembleParams(1.2, 0.05, TANH)):
        q_star = mf.length_fixed_point(params, RULE)
        assert mf.c_map(1.0, params, RULE, q_star=q_star) == pytest.approx(1.0, abs=1e-10)


def test_c_map_odd_activation_maps_zero_to_zero():
    params = mf.EnsembleParams(2.0, 0.0, TANH)
    q_star = mf.length_fixed_point(params, RULE)
    assert mf.c_map(0.0, params, RULE, q_star=q_star) == pytest.approx(0.0, abs=1e-14)


def test_c_map_undefined_at_zero_length():
    params = mf.EnsembleParams(0.5, 0.0, TANH)
    q_star = mf.length_fixed_point(params, RULE)
    with pytest.raises(DegenerateGeometryError, match=r"q\* > 0, got q\* = 0"):
        mf.c_map(0.5, params, RULE, q_star=q_star)


# a NaN fails each check (it compares false), and the refusal names the
# argument, a count's too; q* = 0 stays a DegenerateGeometryError (above)
@pytest.mark.parametrize("call, name", [
    (lambda: mf.c_map(0.5, CHAOTIC, RULE, q_star=math.nan), "q_star"),
    (lambda: mf.c_map(0.5, CHAOTIC, RULE, q_star=math.inf), "q_star"),
    (lambda: expressivity.weight_chaos_theory(CHAOTIC, 0.1, 3, RULE, q_star=math.nan),
     "q_star"),
    (lambda: simulator.autocorrelation(np.ones((4, 3)), math.nan), "q_star"),
    (lambda: mf.chi1(CHAOTIC, RULE, q_star=-1.0), "q_star"),
    (lambda: mf.chi2(CHAOTIC, RULE, q_star=-1.0), "q_star"),
    (lambda: mf.chi2(CHAOTIC, RULE, q_star=math.nan), "q_star"),
    (lambda: boundary.LinearReadout(beta=[1.0, math.nan]), "beta"),
    (lambda: boundary.LinearReadout(beta=[1.0, 2.0], beta0=math.nan), "beta0"),
    (lambda: expect2_product(np.tanh, 0.5, math.nan, RULE), "q"),
    (lambda: mf.length_trajectory(1.0, math.nan, CHAOTIC, RULE), "depth"),
    (lambda: simulator.singular_spectrum(np.ones((4, 3)), top_k=math.nan), "top_k"),
], ids=["c_map-nan", "c_map-inf", "weight_chaos_theory-nan", "autocorrelation-nan",
        "chi1-negative", "chi2-negative", "chi2-nan", "readout-beta-nan", "readout-beta0-nan",
        "expect2_product-nan", "length_trajectory-depth-nan", "singular_spectrum-top_k-nan"])
def test_non_finite_inputs_are_refused_by_name(call, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call()


# erf's theory is closed-form (tests/oracles.py).  The rule reproduces it to
# rounding where it resolves erf's integrands: every sigma_w <= 4 at order
# 1601, and sigma_w = 1.5 at order 201.  At larger sigma_w it does not (the
# erf table in CHANGES.md), so no such case is pinned here.
@pytest.mark.parametrize("sigma_w, order, c", [
    (0.5, 1601, -0.5), (1.5, 1601, 0.5), (4.0, 1601, 0.9), (1.5, 201, 0.5),
])
def test_erf_theory_matches_its_closed_forms(sigma_w, order, c):
    rule = mf.build_rule(order)
    params = mf.EnsembleParams(sigma_w, 0.3, ERF)
    q_star = erf_q_star(sigma_w, 0.3)
    assert mf.length_fixed_point(params, rule) == pytest.approx(q_star, rel=1e-13, abs=0)
    # each map at the exact q*, so that it is checked apart from the q* solve
    assert mf.chi1(params, rule, q_star=q_star) == pytest.approx(
        erf_chi1(q_star, sigma_w), rel=1e-13, abs=0)
    assert mf.chi2(params, rule, q_star=q_star) == pytest.approx(
        erf_chi2(q_star, sigma_w), rel=1e-13, abs=0)
    assert mf.c_map(c, params, rule, q_star=q_star) == pytest.approx(
        erf_c_map(c, q_star, sigma_w, 0.3), rel=0, abs=1e-13)


def test_c_map_against_dense_grid():
    rule = mf.build_rule(1001)
    q_star = mf.length_fixed_point(CHAOTIC, rule)
    got = mf.c_map(0.5, CHAOTIC, rule, q_star=q_star)
    f = lambda a, b: np.tanh(a) * np.tanh(b)
    truth = (16.0 * gauss_expect2_grid(f, 0.5, q_star, n=2000) + 0.09) / q_star
    assert got == pytest.approx(truth, abs=1e-7)


# ---------------------------------------------------------------------------
# chi factors


def test_chi_at_zero_length():
    params = mf.EnsembleParams(0.7, 0.0, TANH)
    assert mf.chi1(params, RULE) == pytest.approx(0.49, abs=1e-12)
    q_star = mf.length_fixed_point(params, RULE)
    assert mf.chi2(params, RULE, q_star=q_star) == pytest.approx(0.0, abs=1e-12)


def test_chi_linear():
    params = mf.EnsembleParams(0.9, 0.4, LINEAR)
    assert mf.chi1(params, RULE) == pytest.approx(0.81, abs=1e-12)
    assert mf.chi2(params, RULE, q_star=mf.length_fixed_point(params, RULE)) == 0.0


def test_chi2_refuses_piecewise_linear():
    params = mf.EnsembleParams(1.5, 0.3, mf.builtin("hard_tanh"))
    q_star = mf.length_fixed_point(params, RULE)
    with pytest.raises(UnsupportedActivationError, match="phi''"):
        mf.chi2(params, RULE, q_star=q_star)
    assert mf.chi1(params, RULE) > 0
    # the correlation theory needs only chi1, so it still runs
    assert mf.correlation_trajectory(0.5, 3, params, RULE).chi.chi1 > 0


def test_chi2_refuses_before_solving_q_star():
    # relu at sigma_w = 2 has no finite q* (expansive map); the refusal
    # names phi'' instead of the failed q* solve
    params = mf.EnsembleParams(2.0, 0.3, mf.builtin("relu"))
    with pytest.raises(ConvergenceError, match="expansive map"):
        mf.length_fixed_point(params, RULE)
    with pytest.raises(UnsupportedActivationError, match="phi''"):
        mf.curvature_trajectory(5, params, RULE)


@pytest.mark.parametrize("sigma_w", [1.5, 2.5, 4.0])
def test_chi1_matches_c_map_slope(sigma_w):
    params = mf.EnsembleParams(sigma_w, 0.3, TANH)
    q_star = mf.length_fixed_point(params, RULE_FINE)
    x1 = mf.chi1(params, RULE_FINE, q_star=q_star)
    slope = fd_slope_at_one(lambda c: mf.c_map(c, params, RULE_FINE, q_star=q_star))
    assert slope == pytest.approx(x1, abs=1e-5)
    if sigma_w > 1.39:
        assert x1 > 1.0


@pytest.mark.parametrize("sigma_w", [1.5, 2.5, 4.0])
def test_chi2_matches_c_map_second_derivative(sigma_w):
    # the c-map's second derivative at c=1 is chi2 * q_star
    params = mf.EnsembleParams(sigma_w, 0.3, TANH)
    q_star = mf.length_fixed_point(params, RULE_FINE)
    x2 = mf.chi2(params, RULE_FINE, q_star=q_star)
    d2 = fd_second_derivative_at_one(
        lambda c: mf.c_map(c, params, RULE_FINE, q_star=q_star)
    )
    assert d2 == pytest.approx(x2 * q_star, abs=1e-4)


# ---------------------------------------------------------------------------
# correlation trajectories


def test_correlation_trajectory_constant_at_one():
    traj = mf.correlation_trajectory(1.0, 10, CHAOTIC, RULE)
    assert np.allclose(traj.values, 1.0, atol=1e-10)


def test_correlation_trajectory_ordered_converges_to_one():
    traj = mf.correlation_trajectory(0.2, 30, ORDERED, RULE)
    assert traj.c_star == pytest.approx(1.0, abs=1e-9)
    assert traj.c_star_converged
    assert np.all(np.diff(traj.values[:10]) > 0.0)  # saturates at 1.0 later
    assert traj.values[-1] == pytest.approx(1.0, abs=1e-12)


def test_correlation_trajectory_chaotic_decorrelates():
    traj = mf.correlation_trajectory(0.9, 30, CHAOTIC, RULE)
    assert np.all(np.diff(traj.values) < 0.0)
    assert traj.c_star < 1.0
    assert traj.c_star == pytest.approx(traj.values[-1], abs=0.02)
    assert traj.chi.chi1 > 1.0


@given(st.floats(min_value=-1.0, max_value=1.0))
def test_c_map_keeps_unit_interval(c0):
    value = mf.c_map(c0, CHAOTIC, RULE, q_star=mf.length_fixed_point(CHAOTIC, RULE))
    assert -1.0 <= value <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# curvature recursion


def test_curvature_initial_conditions():
    traj = mf.curvature_trajectory(1, CHAOTIC, RULE)
    q_star = traj.chi.q_star
    assert traj.gE[0] == pytest.approx(q_star, rel=1e-12)
    assert traj.kappa_sq[0] == pytest.approx(1.0 / q_star, rel=1e-12)
    assert traj.LE_norm[0] == pytest.approx(2.0 * math.pi * math.sqrt(q_star), rel=1e-12)
    assert traj.LG[0] == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_curvature_linear_preserves_gauss_length():
    params = mf.EnsembleParams(0.8, 0.3, LINEAR)
    traj = mf.curvature_trajectory(8, params, RULE)
    # chi2 = 0: curvature changes by exactly 1/chi1 per layer and the
    # Gauss-map length stays at the circle value
    ratios = traj.kappa_sq[1:] / traj.kappa_sq[:-1]
    assert np.allclose(ratios, 1.0 / traj.chi.chi1, rtol=1e-12)
    assert np.allclose(traj.LG, 2.0 * math.pi, rtol=1e-12)
    assert traj.diverges  # 1/chi1 > 1 here, kappa grows without bound


def test_curvature_gE_ratio_is_chi1():
    traj = mf.curvature_trajectory(12, CHAOTIC, RULE)
    ratios = traj.gE[1:] / traj.gE[:-1]
    assert np.allclose(ratios, traj.chi.chi1, rtol=1e-12)


def test_curvature_converges_to_closed_form():
    traj = mf.curvature_trajectory(20, CHAOTIC, RULE)
    expected = 3.0 * traj.chi2 / (traj.chi.chi1 * (traj.chi.chi1 - 1.0))
    assert traj.kappa_star_sq == pytest.approx(expected, rel=1e-15)
    assert traj.kappa_sq[-1] == pytest.approx(expected, abs=1e-6)
    assert not traj.diverges


@pytest.mark.parametrize("start", [1e-6, 1.0, 1e6])
def test_curvature_recursion_fixed_point_attracts(start):
    q_star = mf.length_fixed_point(CHAOTIC, RULE)
    x1, x2 = mf.chi1(CHAOTIC, RULE, q_star=q_star), mf.chi2(CHAOTIC, RULE, q_star=q_star)
    kappa_sq = start
    for _ in range(10_000):
        kappa_sq = 3.0 * x2 / x1**2 + kappa_sq / x1
    assert kappa_sq == pytest.approx(3.0 * x2 / (x1 * (x1 - 1.0)), rel=1e-10)


def test_curvature_refuses_non_smooth():
    # sigma_w kept below sqrt(2) so the relu length map has a fixed point
    params = mf.EnsembleParams(1.2, 0.3, mf.builtin("relu"))
    with pytest.raises(UnsupportedActivationError, match="phi''"):
        mf.curvature_trajectory(5, params, RULE)


def test_curvature_undefined_at_zero_length():
    zero = mf.EnsembleParams(0.5, 0.0, TANH)
    with pytest.raises(DegenerateGeometryError, match=r"q\* > 0, got q\* = 0"):
        mf.curvature_trajectory(5, zero, RULE)
    # the weight-chaos recursion is the c-map below layer 2
    with pytest.raises(DegenerateGeometryError, match=r"q\* > 0, got q\* = 0"):
        expressivity.weight_chaos_theory(zero, 0.1, 3, RULE,
                                         q_star=mf.length_fixed_point(zero, RULE))
    with pytest.raises(DegenerateGeometryError, match=r"q\* > 0, got q\* = 0"):
        expressivity.weight_chaos_empirical(zero, (8, 8, 8), [0.1], 0, n_theta=8, rule=RULE)


# ---------------------------------------------------------------------------
# phase boundary and grid


def test_phase_boundary_biasfree_tanh():
    assert mf.phase_boundary(0.0, TANH, RULE) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("sigma_b", [0.1, 0.5])
def test_phase_boundary_linear(sigma_b):
    assert mf.phase_boundary(sigma_b, LINEAR, RULE) == pytest.approx(1.0, abs=1e-6)


def test_phase_boundary_certified_in_few_chi1_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return mf.chi1(*args, **kwargs)

    monkeypatch.setattr(meanfield, "chi1", counted)
    for sigma_b in np.linspace(0.0, 1.0, 15):    # the CLI's default sigma_b axis
        calls.clear()
        sigma_w = mf.phase_boundary(sigma_b, TANH, RULE)
        assert len(calls) <= 25
        residual = mf.chi1(mf.EnsembleParams(sigma_w, sigma_b, TANH), RULE) - 1.0
        assert abs(residual) <= 1e-12


def test_phase_boundary_refuses_a_scan_without_crossing():
    # chi1 <= 1e-4 sigma_w^2 < 1 over the whole scan (sigma_w <= 10)
    tanh = mf.builtin("tanh").derivatives
    faint = mf.Nonlinearity(
        name="faint_tanh",
        derivatives=lambda h, order: tuple(0.01 * d for d in tanh(h, order)),
        monotone_nondecreasing=True,
        dynamic_range=0.02,
    )
    with pytest.raises(ConvergenceError, match="does not change sign"):
        mf.phase_boundary(0.3, faint, RULE)


def _sign_crossings(values):
    """Indices i where values changes sign between i and i + 1.  An exact
    zero sides with the positive values, so it makes one crossing, not two."""
    return np.nonzero(np.diff(np.asarray(values) >= 0.0))[0]


def test_sign_crossings_count_an_exact_zero_once():
    assert _sign_crossings([-1e-3, 0.0, 1e-3]).tolist() == [0]
    assert _sign_crossings([1e-3, 0.0, -1e-3]).tolist() == [1]
    assert _sign_crossings([-2e-3, -1e-3, 1e-3]).tolist() == [1]


def test_phase_boundary_tanh_dense_scan_crosscheck():
    boundary = mf.phase_boundary(0.3, TANH, RULE)
    assert 1.0 < boundary < 1.5
    grid = np.arange(boundary - 3e-4, boundary + 3e-4, 1e-4)
    chis = np.array([
        mf.chi1(mf.EnsembleParams(sw, 0.3, TANH), RULE) for sw in grid
    ])
    crossings = _sign_crossings(chis - 1.0)
    assert crossings.size == 1
    assert abs(grid[crossings[0]] - boundary) <= 1e-4


def test_phase_grid_partition_and_errors():
    grid = mf.phase_grid(
        np.array([0.5, 1.2, 2.0, 4.0]),
        np.array([0.0, 0.3, 0.6]),
        TANH,
        RULE,
    )
    # (0.5, 0.0): q* = 0, c-map undefined, recorded without aborting
    assert (0, 0) in grid.cell_errors
    assert np.isnan(grid.c_star[0, 0])
    # (0.5, 0.3) ordered; (4.0, 0.3) chaotic
    assert grid.chi1[0, 1] < 1.0 and grid.c_star[0, 1] == pytest.approx(1.0, abs=1e-6)
    assert grid.chi1[3, 1] > 1.0 and grid.c_star[3, 1] < 1.0 - 1e-3
    # boundary rows align with the sigma_b axis
    assert grid.boundary.shape == (3, 2)
    assert grid.boundary[1, 1] == pytest.approx(1.3955839751558594, abs=1e-6)
    # defined cells partition cleanly by sign(chi1 - 1)
    defined = ~np.isnan(grid.c_star)
    ordered = defined & (grid.chi1 < 1.0)
    chaotic = defined & (grid.chi1 > 1.0)
    assert np.all(grid.c_star[ordered] >= 1.0 - 1e-6)
    assert np.all(grid.c_star[chaotic] < 1.0 - 1e-3)


def test_phase_grid_records_a_failed_boundary_solve(monkeypatch):
    axes = (np.array([0.5, 4.0]), np.array([0.3, 0.6]))
    expected = mf.phase_grid(*axes, TANH, RULE)
    solve = meanfield.phase_boundary

    def fail_at_second_sigma_b(sigma_b, nonlinearity, rule):
        if sigma_b == 0.6:
            raise ConvergenceError("no sign change")
        return solve(sigma_b, nonlinearity, rule)

    monkeypatch.setattr(meanfield, "phase_boundary", fail_at_second_sigma_b)
    grid = mf.phase_grid(*axes, TANH, RULE)
    for name in ("q_star", "c_star", "chi1", "c_converged"):
        np.testing.assert_array_equal(getattr(grid, name), getattr(expected, name))
    assert expected.cell_errors == {}
    assert grid.cell_errors == {("boundary", 1): "no sign change"}
    assert grid.boundary[0].tolist() == expected.boundary[0].tolist()
    assert grid.boundary[1, 0] == 0.6 and np.isnan(grid.boundary[1, 1])


def test_phase_grid_linear_boundary_column():
    grid = mf.phase_grid(
        np.array([0.5, 0.9, 1.5, 3.0]),
        np.array([0.1, 0.4]),
        LINEAR,
        RULE,
    )
    # expansive cells (sigma_w > 1) recorded as errors, sweep completes
    assert (2, 0) in grid.cell_errors and (3, 1) in grid.cell_errors
    assert np.allclose(grid.boundary[:, 1], 1.0, atol=1e-6)


def test_c_star_helper_reports_convergence(monkeypatch):
    value, converged, calls, q_star = _counted_c_star(monkeypatch, CHAOTIC, RULE)
    assert converged and 0.0 < value < 0.1 and calls < 1000
    residual = abs(mf.c_map(value, CHAOTIC, RULE, q_star=q_star) - value)
    assert residual < 1e-10


def test_c_star_is_one_in_ordered_phase(monkeypatch):
    assert mf.chi1(ORDERED, RULE) < 1.0
    value, converged, calls, _ = _counted_c_star(monkeypatch, ORDERED, RULE)
    assert (value, converged, calls) == (1.0, True, 0)


def test_c_star_refuses_zero_length():
    with pytest.raises(DegenerateGeometryError, match=r"q\* > 0, got q\* = 0"):
        mf.correlation_trajectory(0.5, 1, mf.EnsembleParams(0.5, 0.0, TANH), RULE)


def _counted_c_star(monkeypatch, params, rule):
    calls = 0
    c_map = meanfield.c_map

    def counting_c_map(*args, **kwargs):
        nonlocal calls
        calls += 1
        return c_map(*args, **kwargs)

    q_star = mf.length_fixed_point(params, rule)
    x1 = mf.chi1(params, rule, q_star=q_star)
    monkeypatch.setattr(meanfield, "c_map", counting_c_map)
    value, converged = _c_star(params, rule, q_star, x1)
    monkeypatch.undo()
    return value, converged, calls, q_star


@pytest.mark.parametrize("sigma_w, sigma_b", [
    (1.0413793103448277, 0.0),
    (1.4448275862068964, 0.35714285714285715),
])
def test_c_star_settles_near_critical_cells(monkeypatch, sigma_w, sigma_b):
    # Iterating the c-map slows down critically near chi1 = 1; both cells
    # of the CLI-default grid used to end unconverged on a stale iterate.
    params = mf.EnsembleParams(sigma_w, sigma_b, TANH)
    value, converged, calls, q_star = _counted_c_star(monkeypatch, params, RULE)
    assert converged
    assert 0 < calls <= 100
    if sigma_b == 0.0:
        assert abs(value) <= 1e-12  # odd phi without bias: c* = 0 exactly
    else:
        assert abs(mf.c_map(value, params, RULE, q_star=q_star) - value) <= 1e-12


def test_c_star_hard_tanh_matches_iteration():
    # chi1 = 1.17 here, so c* < 1; iterating the discretized map from just
    # below 1 stalls near 1, but from 0.9 it reaches the true c*
    params = mf.EnsembleParams(1.3103448275862069, 0.21428571428571427,
                               mf.builtin("hard_tanh"))
    q_star = mf.length_fixed_point(params, RULE)
    x1 = mf.chi1(params, RULE, q_star=q_star)
    value, converged = _c_star(params, RULE, q_star, x1)
    c = 0.9
    for _ in range(3000):
        c = mf.c_map(c, params, RULE, q_star=q_star)
    assert converged
    assert value == pytest.approx(c, abs=1e-10)


def test_c_star_without_bracket_is_unconverged_nan(monkeypatch):
    # chi1 = 1.5 > 1, but a c-map that stays above c on [0, 1 - 2**-50]
    # gives no bracket; no value near 1 is made up
    monkeypatch.setattr(meanfield, "c_map", lambda c, params, rule, *, q_star: c + 1e-6)
    params = mf.EnsembleParams(2.0, 0.3, TANH)
    value, converged = _c_star(params, RULE, 1.0, 1.5)
    assert math.isnan(value) and not converged


@pytest.fixture(scope="module")
def default_grid():
    """The CLI-default tanh grid, with the c-map and length-map calls its
    solves made: (grid, calls per map, c-map calls per c* solve)."""
    calls = {"c_map": 0, "length_map": 0}
    per_cell = []

    def counted(name):
        inner = getattr(meanfield, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    c_star = meanfield._c_star

    def counted_c_star(*args):
        before = calls["c_map"]
        result = c_star(*args)
        per_cell.append(calls["c_map"] - before)
        return result

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(meanfield, name, counted(name))
        mp.setattr(meanfield, "_c_star", counted_c_star)
        grid = mf.phase_grid(np.linspace(0.1, 4.0, 30), np.linspace(0.0, 1.0, 15), TANH, RULE)
    return grid, calls, per_cell


def test_default_grid_solves_within_call_budgets(default_grid):
    # 450 cells and 15 boundaries; Illinois false position took 3450 c-map
    # calls (27 in the worst cell) and 10359 length-map calls
    _, calls, per_cell = default_grid
    assert len(per_cell) > 300
    assert calls["c_map"] <= 2400 and max(per_cell) <= 16
    assert calls["length_map"] <= 6500


def test_c_star_is_exactly_zero_without_bias(default_grid):
    # odd phi without bias: c* = 0, not a rounding-level root next to it
    grid = default_grid[0]
    assert grid.sigma_b_axis[0] == 0.0
    chaotic = grid.chi1[:, 0] > 1.0
    assert chaotic.sum() > 10
    assert np.all(grid.c_star[chaotic, 0] == 0.0)
    assert np.all(grid.c_converged[chaotic, 0])


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: math.exp(x) - 2.0, 0.0, 3.0),
    (lambda x: x**3 - x - 1.0, 1.0, 2.0),
])
def test_bracketed_root_closes_in_few_evaluations(f, lo, hi):
    # both functions increase across their bracket, so the final bracket is
    # the last point with g < 0 and the first with g >= 0
    seen = []

    def g(x):
        seen.append((x, f(x)))
        return seen[-1][1]

    x, gx = meanfield._bracketed_root(g, lo, hi, f(lo), f(hi), 0.0)
    assert len(seen) <= 10
    points = seen + [(lo, f(lo)), (hi, f(hi))]
    end_lo = max(p for p in points if p[1] < 0.0)
    end_hi = min(p for p in points if p[1] >= 0.0)
    assert (x, gx) in (end_lo, end_hi)
    assert abs(gx) == min(abs(end_lo[1]), abs(end_hi[1]))
    width = end_hi[0] - end_lo[0]
    assert gx == 0.0 or width <= 4.0 * meanfield._EPS * max(abs(end_lo[0]), abs(end_hi[0]))


def test_c_star_certified_on_default_grid(default_grid):
    grid = default_grid[0]
    chaotic = grid.chi1 > 1.0
    assert chaotic.sum() > 100
    assert np.all(grid.c_converged[chaotic])
    for i, j in zip(*np.nonzero(chaotic)):
        params = mf.EnsembleParams(grid.sigma_w_axis[i], grid.sigma_b_axis[j], TANH)
        c = grid.c_star[i, j]
        assert c < 1.0
        assert abs(mf.c_map(c, params, RULE, q_star=grid.q_star[i, j]) - c) <= 1e-12
