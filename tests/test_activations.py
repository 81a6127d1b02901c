import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfprop.activations import builtin, builtin_names
from mfprop.errors import UnsupportedActivationError


GRID = np.linspace(-5.0, 5.0, 201)
# the kinks of relu and hard_tanh, and +-20, where tanh rounds to exactly +-1
# (so tanh' and tanh'' are exactly 0 there)
KINKS = np.array([-20.0, -1.0, -0.5, 0.0, 0.5, 1.0, 20.0])


def central_diff(f, h, step=1e-5):
    return (f(h + step) - f(h - step)) / (2.0 * step)


def derivative(nl, k):
    return lambda h: nl.derivatives(h, k)[k]


@pytest.mark.parametrize("name", ["tanh", "linear"])
def test_deriv1_matches_finite_differences(name):
    nl = builtin(name)
    assert np.allclose(derivative(nl, 1)(GRID), central_diff(nl.value, GRID), atol=1e-6)


@pytest.mark.parametrize("name", ["tanh", "linear"])
def test_deriv2_matches_finite_differences(name):
    nl = builtin(name)
    assert np.allclose(derivative(nl, 2)(GRID), central_diff(derivative(nl, 1), GRID),
                       atol=1e-5)


def _closed_forms(name, h):
    t = np.tanh(h)
    inside = ((h > -1.0) & (h < 1.0)).astype(float)
    return {
        "tanh": (t, 1.0 - t * t, -2.0 * t * (1.0 - t * t)),
        "linear": (h, np.ones_like(h), np.zeros_like(h)),
        # relu'(0) = 0 and hard_tanh'(+-1) = 0 at the kinks
        "hard_tanh": (np.clip(h, -1.0, 1.0), inside),
        "relu": (np.maximum(h, 0.0), (h > 0.0).astype(float)),
    }[name]


@pytest.mark.parametrize("name", builtin_names())
def test_derivatives_match_closed_forms_bit_for_bit(name):
    nl = builtin(name)
    h = np.concatenate([KINKS, GRID])
    want = _closed_forms(name, h)
    for order in range(len(want)):
        got = nl.derivatives(h, order)
        assert len(got) == order + 1
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    assert np.array_equal(nl.value(h), want[0])


def test_tanh_at_zero():
    assert builtin("tanh").derivatives(0.0, 2) == (0.0, 1.0, 0.0)


def test_tanh_evaluates_once_per_call(monkeypatch):
    from mfprop import activations

    calls = []
    real = np.tanh

    def counted(h):
        calls.append(1)
        return real(h)

    monkeypatch.setattr(activations.np, "tanh", counted)
    for order in (0, 1, 2):
        builtin("tanh").derivatives(GRID, order)
    assert len(calls) == 3


def test_tanh_dynamic_range():
    assert builtin("tanh").dynamic_range == 2.0


def test_linear_second_derivative_vanishes():
    nl = builtin("linear")
    assert np.all(nl.derivatives(GRID, 2)[2] == 0.0)
    assert nl.dynamic_range is None


def test_unknown_name_lists_builtins():
    with pytest.raises(ValueError) as err:
        builtin("swish")
    for name in builtin_names():
        assert name in str(err.value)


@given(st.floats(min_value=-20.0, max_value=20.0))
def test_tanh_symmetries(h):
    plus = builtin("tanh").derivatives(h, 2)
    minus = builtin("tanh").derivatives(-h, 2)
    for k, (p, m) in enumerate(zip(plus, minus)):
        # phi and phi'' are odd, phi' is even
        assert m == pytest.approx((-1.0) ** (k + 1) * p, abs=1e-12)


@pytest.mark.parametrize("name", builtin_names())
def test_monotone_flag_consistent(name):
    nl = builtin(name)
    if nl.monotone_nondecreasing:
        assert np.all(nl.derivatives(GRID, 1)[1] >= 0.0)


@pytest.mark.parametrize("name,smooth", [
    ("tanh", True), ("linear", True), ("hard_tanh", False), ("relu", False),
])
def test_smoothness_flags(name, smooth):
    # an activation without a smooth phi'' refuses order 2 itself
    nl = builtin(name)
    if smooth:
        d2 = nl.derivatives(GRID, 2)[2]
        assert d2.shape == GRID.shape and np.all(np.isfinite(d2))
        if name == "linear":
            assert np.all(d2 == 0.0)
    else:
        with pytest.raises(UnsupportedActivationError, match=f"{name!r} has no smooth phi''"):
            nl.derivatives(GRID, 2)
        with pytest.raises(UnsupportedActivationError):
            nl.derivatives(0.0, 2)


def test_hard_tanh_clips():
    nl = builtin("hard_tanh")
    h = np.array([-3.0, -1.0, 0.25, 1.0, 3.0])
    assert np.array_equal(nl.value(h), [-1.0, -1.0, 0.25, 1.0, 1.0])
    # the kinks take slope 0
    assert np.array_equal(nl.derivatives(h, 1)[1], [0.0, 0.0, 1.0, 0.0, 0.0])
    assert nl.dynamic_range == 2.0


def test_relu_derivatives():
    nl = builtin("relu")
    h = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(nl.value(h), [0.0, 0.0, 3.0])
    assert np.array_equal(nl.derivatives(h, 1)[1], [0.0, 0.0, 1.0])   # relu'(0) = 0
    with pytest.raises(UnsupportedActivationError, match="phi''"):
        nl.derivatives(GRID, 2)
    assert nl.dynamic_range is None


def test_user_defined_nonlinearity_plugs_into_the_theory():
    import mfprop as mf
    from mfprop.activations import Nonlinearity

    def scaled_sin(h, order):
        s, c = np.sin(0.5 * h), np.cos(0.5 * h)
        return (s, 0.5 * c, -0.25 * s)[:order + 1]

    erfish = Nonlinearity(
        name="scaled_sin",
        derivatives=scaled_sin,
        monotone_nondecreasing=False,
        dynamic_range=2.0,
    )
    assert np.allclose(derivative(erfish, 1)(GRID), central_diff(erfish.value, GRID),
                       atol=1e-6)
    assert np.allclose(derivative(erfish, 2)(GRID), central_diff(derivative(erfish, 1), GRID),
                       atol=1e-5)
    params = mf.EnsembleParams(3.0, 0.2, erfish)
    rule = mf.build_rule(201)
    q_star = mf.length_fixed_point(params, rule)
    assert q_star > 0
    assert mf.chi2(params, rule, q_star=q_star) >= 0.0
