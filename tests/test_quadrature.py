import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfprop.quadrature import (
    QuadratureRule,
    build_rule,
    expect1,
    expect2_product,
)

from oracles import gauss_expect2_grid, gauss_expect_trapezoid, gaussian_moment


def test_two_point_rule():
    rule = build_rule(2)
    assert rule.nodes == pytest.approx([-1.0, 1.0], abs=1e-14)
    assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-14)


def test_measure_normalization():
    rule = build_rule(64)
    assert expect1(lambda z: np.ones_like(z), rule) == pytest.approx(1.0, abs=1e-15)


def test_fourth_moment():
    rule = build_rule(64)
    assert expect1(lambda z: z**4, rule) == pytest.approx(3.0, abs=1e-12)


def test_rule_invariants():
    for order in (2, 5, 64, 201):
        rule = build_rule(order)
        assert abs(rule.weights.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(rule.nodes) > 0)
        assert expect1(lambda z: z, rule) == pytest.approx(0.0, abs=1e-12)
        assert expect1(lambda z: z * z, rule) == pytest.approx(1.0, abs=1e-10)


def test_bad_orders_rejected():
    with pytest.raises(ValueError):
        build_rule(1)
    with pytest.raises(ValueError):
        build_rule(0)
    with pytest.raises(ValueError):
        build_rule(2.5)


def test_rule_validation():
    with pytest.raises(ValueError, match="increasing"):
        QuadratureRule(nodes=np.array([1.0, -1.0]), weights=np.array([0.5, 0.5]), order=2)
    with pytest.raises(ValueError, match="sum to 1"):
        QuadratureRule(nodes=np.array([-1.0, 1.0]), weights=np.array([0.5, 0.6]), order=2)


def test_expect1_tanh_squared_against_trapezoid():
    rule = build_rule(201)
    truth = gauss_expect_trapezoid(lambda z: np.tanh(z) ** 2)
    assert expect1(lambda z: np.tanh(z) ** 2, rule) == pytest.approx(truth, abs=1e-10)


def test_expect1_mgf():
    rule = build_rule(201)
    assert expect1(np.exp, rule) == pytest.approx(math.exp(0.5), abs=1e-12)


def test_expect1_nonfinite_names_node():
    rule = build_rule(5)  # odd order has a node at 0
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="not finite at node"):
            expect1(lambda z: 1.0 / z, rule)


@pytest.mark.parametrize("factor", [0, 1])
def test_expect2_product_nonfinite_names_node(factor):
    rule = build_rule(5)  # odd order has a node at 0
    fs = [np.tanh, np.tanh]
    fs[factor] = lambda u: 1.0 / u
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not finite at node"):
            expect2_product(*fs, 0.5, 1.0, 1.0, rule)


def identity(u):
    return u


def test_expect2_independent_product():
    rule = build_rule(101)
    assert expect2_product(identity, identity, 0.0, 1.0, 1.0, rule) == pytest.approx(
        0.0, abs=1e-14)


def test_expect2_perfectly_correlated():
    rule = build_rule(101)
    assert expect2_product(identity, identity, 1.0, 1.0, 1.0, rule) == pytest.approx(
        1.0, abs=1e-12)


def test_expect2_covariance_structure():
    rule = build_rule(101)
    c, q1, q2 = 0.37, 1.7, 0.4
    cov = expect2_product(identity, identity, c, q1, q2, rule)
    assert cov == pytest.approx(c * math.sqrt(q1 * q2), abs=1e-12)
    assert expect2_product(np.square, np.ones_like, c, q1, q2, rule) == pytest.approx(
        q1, abs=1e-12)
    assert expect2_product(np.ones_like, np.square, c, q1, q2, rule) == pytest.approx(
        q2, abs=1e-12)


def test_expect2_tanh_against_dense_grid():
    rule = build_rule(201)
    truth = gauss_expect2_grid(lambda a, b: np.tanh(a) * np.tanh(b), 0.5, 1.0, 1.0)
    assert expect2_product(np.tanh, np.tanh, 0.5, 1.0, 1.0, rule) == pytest.approx(
        truth, abs=1e-8
    )


def test_expect2_rejects_bad_correlation():
    rule = build_rule(11)
    with pytest.raises(ValueError, match="correlation"):
        expect2_product(identity, identity, 1.5, 1.0, 1.0, rule)
    with pytest.raises(ValueError, match="nonneg"):
        expect2_product(identity, identity, 0.5, -1.0, 1.0, rule)


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=2, max_value=40))
def test_polynomial_exactness(degree, order):
    # Gaussian quadrature integrates monomials up to degree 2*order-1 exactly
    if degree > 2 * order - 1:
        degree = 2 * order - 1
    rule = build_rule(order)
    value = expect1(lambda z: z**degree, rule)
    assert value == pytest.approx(gaussian_moment(degree), abs=1e-10, rel=1e-10)


@given(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=0.1, max_value=4.0))
def test_expect2_symmetric_in_marginals(c, q):
    rule = build_rule(41)
    forward = expect2_product(np.cos, np.cos, c, q, 2.0 * q, rule)
    swapped = expect2_product(np.cos, np.cos, c, 2.0 * q, q, rule)
    assert forward == pytest.approx(swapped, abs=1e-12)


def test_expect2_degenerates_to_expect1_at_c_one():
    rule = build_rule(101)
    q = 2.3
    f2 = expect2_product(np.tanh, np.tanh, 1.0, q, q, rule)
    f1 = expect1(lambda z: np.tanh(math.sqrt(q) * z) ** 2, rule)
    assert f2 == pytest.approx(f1, abs=1e-10)


def test_doubling_order_is_converged():
    # spectral convergence on smooth integrands; the change under doubling
    # sits below 1e-12 from order 128 up (at 64 it is still ~1e-9)
    f = lambda z: np.tanh(z) ** 2
    v128 = expect1(f, build_rule(128))
    v256 = expect1(f, build_rule(256))
    assert abs(v128 - v256) < 1e-12


def test_rules_are_deterministic():
    a, b = build_rule(77), build_rule(77)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)
