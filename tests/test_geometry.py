import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ellipe

from mfprop.errors import DegenerateGeometryError
from mfprop.geometry import CurveJet, _curvature_from_dots, curve_geometry, periodic_trapezoid


def circle_jet(width, q, n_theta, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, width))
    u0 = g[0] / np.linalg.norm(g[0])
    u1 = g[1] - (g[1] @ u0) * u0
    u1 /= np.linalg.norm(u1)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    r = math.sqrt(width * q)
    c, s = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    h = r * (c * u0 + s * u1)
    v = r * (-s * u0 + c * u1)
    return CurveJet(thetas=thetas, h=h, v=v, a=-h)


def ellipse_jet(a, b, n_theta):
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    h = np.stack([a * np.cos(thetas), b * np.sin(thetas)], axis=1)
    v = np.stack([-a * np.sin(thetas), b * np.cos(thetas)], axis=1)
    return CurveJet(thetas=thetas, h=h, v=v, a=-h)


# ---------------------------------------------------------------------------
# extrinsic curvature


def point_curvature(v, a):
    return float(_curvature_from_dots(np.array([v @ v]), np.array([a @ a]),
                                      np.array([v @ a]))[0])


def test_straight_line_has_zero_curvature():
    assert point_curvature(np.array([1.0, 2.0, 0.5]), np.zeros(3)) == 0.0


def test_unit_speed_curvature_is_acceleration_norm():
    v = np.array([1.0, 0.0, 0.0])
    a = np.array([0.0, 0.7, -0.3])
    assert point_curvature(v, a) == pytest.approx(np.linalg.norm(a), rel=1e-14)


def test_circle_curvature_matches_inverse_radius():
    jet = circle_jet(width=64, q=2.5, n_theta=16)
    expected = 1.0 / math.sqrt(64 * 2.5)
    kappa = curve_geometry(jet).kappa
    for i in range(16):
        assert kappa[i] == pytest.approx(expected, rel=1e-12)


def test_degenerate_tangent_raises():
    jet = circle_jet(width=8, q=1.0, n_theta=16)
    v = jet.v.copy()
    v[5] = 0.0
    with pytest.raises(DegenerateGeometryError, match="degenerate tangent"):
        curve_geometry(CurveJet(jet.thetas, jet.h, v, jet.a))


def test_substantially_negative_radicand_raises():
    # fabricate dots violating Cauchy-Schwarz far beyond roundoff: v almost
    # parallel to a but longer than allowed
    with pytest.raises(DegenerateGeometryError):
        _curvature_from_dots(np.array([1.0]), np.array([1.0]), np.array([1.1]))


def test_roundoff_radicand_clamped_to_zero():
    v = np.array([1.0, 0.0])
    a = 3.0 * v  # exactly parallel: radicand is a tiny negative after roundoff
    assert point_curvature(v, a * (1 + 1e-16)) == pytest.approx(0.0, abs=1e-7)


# ---------------------------------------------------------------------------
# whole-curve geometry


def test_circle_geometry_normalized_quantities():
    jet = circle_jet(width=1000, q=1.0, n_theta=256)
    geom = curve_geometry(jet)
    assert geom.LE_norm == pytest.approx(2.0 * math.pi, abs=1e-6)
    assert np.allclose(geom.kappa_norm, 1.0, atol=1e-6)
    assert geom.LG == pytest.approx(2.0 * math.pi, abs=1e-6)
    assert np.allclose(geom.gG, geom.kappa**2 * geom.gE, atol=1e-10)


def test_uniform_scaling_scales_lengths_not_gauss_length():
    jet = circle_jet(width=32, q=1.3, n_theta=128, seed=3)
    geom = curve_geometry(jet)
    chi = 2.7
    scaled = curve_geometry(CurveJet(jet.thetas, chi * jet.h, chi * jet.v, chi * jet.a))
    assert scaled.LE == pytest.approx(chi * geom.LE, rel=1e-10)
    assert np.allclose(scaled.kappa, geom.kappa / chi, rtol=1e-10)
    assert scaled.LG == pytest.approx(geom.LG, rel=1e-10)


def test_ellipse_perimeter_against_elliptic_integral():
    a, b = 2.0, 1.0
    geom = curve_geometry(ellipse_jet(a, b, 4096))
    oracle = 4.0 * a * ellipe(1.0 - (b / a) ** 2)
    assert geom.LE == pytest.approx(oracle, rel=1e-4)


def test_reparameterization_invariance():
    # theta -> theta + 0.3 sin(theta), a smooth monotone circle map
    n = 2048
    s = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    psi = s + 0.3 * np.sin(s)
    dpsi = 1.0 + 0.3 * np.cos(s)
    d2psi = -0.3 * np.sin(s)
    a_ax, b_ax = 2.0, 1.0
    h = np.stack([a_ax * np.cos(psi), b_ax * np.sin(psi)], axis=1)
    hp = np.stack([-a_ax * np.sin(psi), b_ax * np.cos(psi)], axis=1)
    base_jet = ellipse_jet(a_ax, b_ax, n)
    base = curve_geometry(base_jet)
    v = hp * dpsi[:, None]
    acc = -h * dpsi[:, None] ** 2 + hp * d2psi[:, None]
    reparam = curve_geometry(CurveJet(s, h, v, acc))
    assert reparam.LE == pytest.approx(base.LE, abs=1e-8)
    assert reparam.LG == pytest.approx(base.LG, abs=1e-8)
    # curvature is attached to image points: the analytic ellipse curvature
    # at the mapped angles must match
    kappa_analytic = (a_ax * b_ax) / (
        (a_ax**2 * np.sin(psi) ** 2 + b_ax**2 * np.cos(psi) ** 2) ** 1.5
    )
    assert np.allclose(reparam.kappa, kappa_analytic, atol=1e-8)
    assert np.allclose(base.kappa, (a_ax * b_ax) / (
        (a_ax**2 * np.sin(base_jet.thetas) ** 2
         + b_ax**2 * np.cos(base_jet.thetas) ** 2) ** 1.5), atol=1e-8)


@given(st.integers(min_value=0, max_value=10_000))
def test_rotation_invariance(seed):
    jet = ellipse_jet(1.7, 0.6, 64)
    rng = np.random.default_rng(seed)
    q_mat, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    rotated = curve_geometry(CurveJet(jet.thetas, jet.h @ q_mat.T, jet.v @ q_mat.T,
                                      jet.a @ q_mat.T))
    base = curve_geometry(jet)
    assert rotated.LE == pytest.approx(base.LE, abs=1e-10)
    assert rotated.LG == pytest.approx(base.LG, abs=1e-10)
    assert np.allclose(rotated.kappa, base.kappa, atol=1e-10)


def test_grid_refinement_converges_quadratically_or_better():
    values = {}
    for n in (16, 32, 64, 128):
        geom = curve_geometry(ellipse_jet(2.0, 1.0, n))
        values[n] = (geom.LE, geom.LG)
    for key in (0, 1):
        changes = [abs(values[n][key] - values[2 * n][key]) for n in (16, 32, 64)]
        for first, second in zip(changes, changes[1:]):
            if first > 1e-12:
                assert second <= first / 2.0


def test_too_few_samples_rejected():
    with pytest.raises(ValueError, match=r"len\(thetas\) must be >= 8"):
        curve_geometry(ellipse_jet(2.0, 1.0, 4))


def test_degenerate_tangent_names_theta():
    jet = ellipse_jet(2.0, 1.0, 16)
    v = jet.v.copy()
    v[3] = 0.0
    with pytest.raises(DegenerateGeometryError, match="theta"):
        curve_geometry(CurveJet(jet.thetas, jet.h, v, jet.a))


def test_jet_validation():
    thetas = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    h = np.zeros((16, 3))
    with pytest.raises(ValueError):
        CurveJet(thetas[::-1], h, h, h)
    with pytest.raises(ValueError):
        CurveJet(thetas, h, h, np.zeros((16, 4)))
    with pytest.raises(ValueError):
        CurveJet(thetas + 2.0 * math.pi, h, h, h)


def test_periodic_trapezoid_exact_on_constant():
    thetas = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
    assert periodic_trapezoid(np.full(17, 3.0), thetas) == pytest.approx(
        6.0 * math.pi, rel=1e-14
    )
