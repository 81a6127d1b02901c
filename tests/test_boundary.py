import numpy as np
import pytest

import mfprop as mf
from mfprop import boundary as bd
from mfprop import simulator as sim
from mfprop.errors import ConvergenceError, DegenerateGeometryError, UnsupportedActivationError

from oracles import principal_curvatures_projected, readout_hessian_fd

TANH = mf.builtin("tanh")
LINEAR = mf.builtin("linear")
CHAOTIC = mf.EnsembleParams(4.0, 0.3, TANH)


def sphere_field(r, dim):
    def value_and_grad(x):
        return float(x @ x - r * r), 2.0 * x

    return bd.ScalarField(dim=dim, layer=-1, value_and_grad=value_and_grad,
                          hessian=lambda x: 2.0 * np.eye(dim), tol_scale=1.0)


def quadric_field(axes):
    """G(x) = sum_i x_i^2 / a_i^2 - 1: a sphere or an ellipsoid."""
    inv_sq = 1.0 / np.asarray(axes, dtype=float) ** 2

    def value_and_grad(x):
        return float(inv_sq @ (x * x) - 1.0), 2.0 * inv_sq * x

    return bd.ScalarField(dim=inv_sq.size, layer=-1, value_and_grad=value_and_grad,
                          hessian=lambda x: np.diag(2.0 * inv_sq), tol_scale=1.0)


def assert_matches_projection_oracle(field, point, report):
    x = point.x_star
    expected = principal_curvatures_projected(field.hessian(x), field.value_and_grad(x)[1])
    assert report.kappas.shape == expected.shape == (field.dim - 1,)
    scale = np.max(np.abs(expected), initial=0.0)
    assert np.all(np.abs(report.kappas - expected) <= 1e-12 * scale)


def small_net(params=CHAOTIC, widths=(12, 12, 12, 12), seed=0):
    return sim.sample_network(widths, params, seed=seed)


def test_readout_requires_nonzero_beta():
    with pytest.raises(ValueError):
        bd.LinearReadout(beta=np.zeros(4))


def test_gradient_of_single_linear_layer():
    net = small_net(mf.EnsembleParams(1.1, 0.2, LINEAR), widths=(8, 8), seed=1)
    beta = np.arange(1.0, 9.0)
    readout = bd.LinearReadout(beta=beta, beta0=0.4)
    x = np.linspace(-1, 1, 8)
    value, grad = bd.readout_value_and_gradient(net, readout, 0, x)
    expected = beta @ (net.weights[0] @ x + net.biases[0]) - 0.4
    assert value == pytest.approx(expected, abs=1e-12)
    assert np.allclose(grad, net.weights[0].T @ beta, atol=1e-12)


def test_gradient_matches_finite_differences_in_random_directions():
    net = small_net(seed=2)
    readout = bd.LinearReadout(beta=np.random.default_rng(3).normal(size=12))
    field = bd.readout_field(net, readout, 0)
    rng = np.random.default_rng(4)
    x = rng.normal(size=12)
    value, grad = field.value_and_grad(x)
    step = 1e-5
    for _ in range(20):
        d = rng.normal(size=12)
        d /= np.linalg.norm(d)
        vp, _ = field.value_and_grad(x + step * d)
        vm, _ = field.value_and_grad(x - step * d)
        fd = (vp - vm) / (2 * step)
        assert fd == pytest.approx(float(grad @ d), rel=1e-5, abs=1e-8)


def test_gradient_dimension_checks():
    net = small_net(seed=5)
    readout = bd.LinearReadout(beta=np.ones(12))
    with pytest.raises(ValueError):
        bd.readout_value_and_gradient(net, readout, 0, np.ones(5))
    with pytest.raises(ValueError):
        bd.readout_value_and_gradient(net, readout, 9, np.ones(12))


def test_boundary_point_on_readout_hyperplane():
    # suffix at the last layer: G is affine, the solve lands on the plane
    net = small_net(seed=6)
    beta = np.random.default_rng(7).normal(size=12)
    readout = bd.LinearReadout(beta=beta, beta0=0.7)
    field = bd.readout_field(net, readout, net.depth)
    x_init = np.random.default_rng(8).normal(size=12)
    point = bd.find_boundary_point(field, x_init)
    assert point.residual < 1e-8 * np.linalg.norm(beta)
    projection = x_init - ((beta @ x_init - 0.7) / (beta @ beta)) * beta
    assert np.allclose(point.x_star, projection, atol=1e-8)


def test_sphere_level_set_hook():
    field = sphere_field(1.7, 9)
    point = bd.find_boundary_point(field, np.random.default_rng(9).normal(size=9))
    assert np.linalg.norm(point.x_star) == pytest.approx(1.7, abs=1e-6)


def test_convergence_study_width_100():
    net = sim.sample_network((100,) * 5, CHAOTIC, seed=10)
    readout = bd.LinearReadout(beta=np.random.default_rng(11).normal(size=100))
    field = bd.readout_field(net, readout, 0)
    rng = np.random.default_rng(12)
    converged = 0
    for _ in range(50):
        try:
            bd.find_boundary_point(field, rng.normal(size=100))
            converged += 1
        except (ConvergenceError, DegenerateGeometryError):
            pass
    assert converged >= 45


def test_saddle_flagged():
    field = sphere_field(1.0, 4)
    with pytest.raises(DegenerateGeometryError, match="saddle|gradient"):
        bd.find_boundary_point(field, np.zeros(4))


def test_saturated_plateau_is_named_as_flat_not_a_saddle():
    # the search lands where tanh' rounds to exactly 0 in the suffix:
    # |grad|^2 = 0 at |G| = 0.251, on a plateau with no saddle
    net = sim.sample_network((12, 9, 14, 11, 10), CHAOTIC, seed=40)
    field = bd.readout_field(net, bd.LinearReadout(np.random.default_rng(51).normal(size=10)), 1)
    with pytest.raises(DegenerateGeometryError, match="plateau") as err:
        bd.find_boundary_point(field, np.random.default_rng(78).normal(size=9))
    assert "saddle" not in str(err.value)
    assert "|grad|^2=0.000e+00" in str(err.value) and "|G|=2.510e-01" in str(err.value)


def test_sphere_principal_curvatures():
    for r in (0.5, 2.0):
        field = sphere_field(r, 20)
        point = bd.find_boundary_point(field, np.random.default_rng(13).normal(size=20))
        report = bd.principal_curvatures(field, point)
        assert report.kappas.shape == (19,)
        assert np.allclose(report.kappas, 1.0 / r, atol=1e-4)
        assert_matches_projection_oracle(field, point, report)


@pytest.mark.parametrize("axis, sign", [(0, 1.0), (0, -1.0), (1, 1.0)])
def test_sphere_curvatures_where_normal_is_a_coordinate_axis(axis, sign):
    # the reflector's sign choice at n = +e_0, n = -e_0 and n_0 = 0
    field = sphere_field(2.0, 5)
    x = np.zeros(5)
    x[axis] = 2.0 * sign
    point = bd.BoundaryPoint(layer=-1, x_star=x, residual=0.0, grad_norm=4.0)
    report = bd.principal_curvatures(field, point)
    assert np.allclose(report.kappas, 0.5, rtol=1e-14, atol=0.0)
    assert_matches_projection_oracle(field, point, report)


def test_curvatures_use_the_symmetric_part_of_the_hessian():
    # a field hook may return an asymmetric Hessian (say, from differences)
    skew = np.triu(np.random.default_rng(30).normal(size=(6, 6)), 1)
    exact = sphere_field(2.0, 6)
    field = bd.ScalarField(dim=6, layer=-1, value_and_grad=exact.value_and_grad,
                           hessian=lambda x: 2.0 * np.eye(6) + skew - skew.T)
    point = bd.find_boundary_point(field, np.random.default_rng(31).normal(size=6))
    report = bd.principal_curvatures(field, point)
    assert np.allclose(report.kappas, 0.5, rtol=1e-8, atol=0.0)


def test_low_dimensional_level_sets():
    # an ellipse has one curvature, ab / (a^2 sin^2 t + b^2 cos^2 t)^(3/2);
    # a pair of points on a line has none
    a, b, t = 3.0, 0.5, 0.7
    ellipse = quadric_field([a, b])
    point = bd.find_boundary_point(ellipse, np.array([a * np.cos(t), b * np.sin(t)]))
    report = bd.principal_curvatures(ellipse, point)
    expected = a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5
    assert report.kappas == pytest.approx([expected], rel=1e-12)
    assert_matches_projection_oracle(ellipse, point, report)

    segment = quadric_field([1.5])
    point = bd.find_boundary_point(segment, np.array([0.9]))
    report = bd.principal_curvatures(segment, point)
    assert report.kappas.shape == (0,)
    assert_matches_projection_oracle(segment, point, report)


def test_linear_network_has_flat_boundary():
    net = small_net(mf.EnsembleParams(1.2, 0.3, LINEAR), widths=(15, 15, 15), seed=14)
    readout = bd.LinearReadout(beta=np.random.default_rng(15).normal(size=15))
    field = bd.readout_field(net, readout, 0)
    point = bd.find_boundary_point(field, np.random.default_rng(16).normal(size=15))
    report = bd.principal_curvatures(field, point)
    assert np.all(np.abs(report.kappas) <= 1e-8)


def test_curvatures_invariant_under_readout_scaling():
    net = small_net(seed=17)
    rng = np.random.default_rng(18)
    beta = rng.normal(size=12)
    x_init = rng.normal(size=12)
    kappas = {}
    for c in (1.0, 13.7):
        readout = bd.LinearReadout(beta=c * beta, beta0=c * 0.2)
        field = bd.readout_field(net, readout, 0)
        point = bd.find_boundary_point(field, x_init)
        kappas[c] = bd.principal_curvatures(field, point).kappas
    assert np.allclose(kappas[1.0], kappas[13.7], atol=1e-8)


def test_hessian_symmetry_before_symmetrization():
    net = small_net(seed=19)
    readout = bd.LinearReadout(beta=np.random.default_rng(20).normal(size=12))
    field = bd.readout_field(net, readout, 1)
    point = bd.find_boundary_point(field, np.random.default_rng(21).normal(size=12))
    hessian = field.hessian(point.x_star)
    assert np.linalg.norm(hessian - hessian.T) <= 1e-12 * np.linalg.norm(hessian)
    assert_matches_projection_oracle(field, point, bd.principal_curvatures(field, point))


@pytest.mark.parametrize("layer", [0, 1, 2, 3])
def test_curvatures_match_projection_oracle_on_uneven_widths(layer):
    net = small_net(widths=(12, 9, 14, 11, 10), seed=40)
    readout = bd.LinearReadout(beta=np.random.default_rng(41).normal(size=10), beta0=0.3)
    field = bd.readout_field(net, readout, layer)
    x_init = np.random.default_rng(60 + layer).uniform(-1.0, 1.0, size=field.dim)
    point = bd.find_boundary_point(field, x_init)
    report = bd.principal_curvatures(field, point)
    assert np.max(np.abs(report.kappas)) > 0.0
    assert_matches_projection_oracle(field, point, report)


@pytest.mark.parametrize("layer", [0, 1, 2, 3])
def test_exact_hessian_matches_finite_difference_oracle(layer):
    # uneven widths, so a transposed Jacobian cannot pass
    net = small_net(widths=(12, 9, 14, 11, 10), seed=40)
    readout = bd.LinearReadout(beta=np.random.default_rng(41).normal(size=10), beta0=0.3)
    field = bd.readout_field(net, readout, layer)
    x = np.random.default_rng(42 + layer).normal(size=field.dim)
    hessian = field.hessian(x)
    norm = np.linalg.norm(hessian)
    assert hessian.shape == (field.dim, field.dim) and norm > 0.0
    assert np.linalg.norm(hessian - hessian.T) <= 1e-12 * norm
    oracle = readout_hessian_fd(lambda y: field.value_and_grad(y)[1], x,
                                1e-3 * (1.0 + np.linalg.norm(x)))
    assert np.linalg.norm(hessian - oracle) <= 1e-6 * norm


def test_exact_hessian_of_linear_net_is_zero():
    net = small_net(mf.EnsembleParams(1.2, 0.3, LINEAR), widths=(15, 15, 15), seed=43)
    readout = bd.LinearReadout(beta=np.random.default_rng(44).normal(size=15))
    for layer in (0, 1, 2):
        hessian = bd.readout_field(net, readout, layer).hessian(np.linspace(-2, 2, 15))
        assert hessian.shape == (15, 15)
        assert np.all(hessian == 0.0)


@pytest.mark.parametrize("name", ["tanh", "relu"])
def test_last_layer_suffix_is_flat(name):
    # at layer == depth the suffix is affine: no phi'' enters, even for relu
    net = small_net(mf.EnsembleParams(2.0, 0.3, mf.builtin(name)), seed=45)
    readout = bd.LinearReadout(beta=np.random.default_rng(46).normal(size=12), beta0=0.5)
    field = bd.readout_field(net, readout, net.depth)
    assert np.all(field.hessian(np.ones(12)) == 0.0)
    point = bd.find_boundary_point(field, np.random.default_rng(47).normal(size=12))
    report = bd.principal_curvatures(field, point)
    assert report.kappas.shape == (11,)
    assert np.all(report.kappas == 0.0)


@pytest.mark.parametrize("name", ["relu", "hard_tanh"])
def test_hessian_refused_without_smooth_second_derivative(name):
    net = small_net(mf.EnsembleParams(2.0, 0.3, mf.builtin(name)), seed=48)
    readout = bd.LinearReadout(beta=np.random.default_rng(49).normal(size=12))
    field = bd.readout_field(net, readout, 0)
    x = np.random.default_rng(50).normal(size=12)
    field.value_and_grad(x)  # the gradient needs only phi'
    with pytest.raises(UnsupportedActivationError, match="phi''"):
        field.hessian(x)


def test_principal_curvatures_makes_at_most_two_gradient_calls(monkeypatch):
    net = sim.sample_network((100,) * 7, CHAOTIC, seed=51)
    readout = bd.LinearReadout(beta=np.random.default_rng(52).normal(size=100))
    field = bd.readout_field(net, readout, 0)
    point = bd.find_boundary_point(field, np.random.default_rng(53).normal(size=100))
    calls = []
    exact = bd.readout_value_and_gradient

    def counted(*args):
        calls.append(1)
        return exact(*args)

    monkeypatch.setattr(bd, "readout_value_and_gradient", counted)
    report = bd.principal_curvatures(field, point)
    assert report.kappas.shape == (99,)
    assert len(calls) <= 2


def test_eigenvalues_match_known_spectrum_oracle():
    rng = np.random.default_rng(22)
    spectrum = np.sort(rng.normal(size=20))[::-1]
    q_mat, _ = np.linalg.qr(rng.normal(size=(20, 20)))
    matrix = q_mat @ np.diag(spectrum) @ q_mat.T
    eigs = np.sort(np.linalg.eigvalsh(matrix))[::-1]
    assert np.allclose(eigs, spectrum, atol=1e-10)


def test_curvature_point_must_be_on_boundary():
    field = sphere_field(1.0, 6)
    off = bd.BoundaryPoint(layer=-1, x_star=np.full(6, 1.0), residual=5.0, grad_norm=1.0)
    with pytest.raises(ValueError, match="not on the boundary"):
        bd.principal_curvatures(field, off)


def test_curvature_vs_depth_linear_net_all_zero():
    params = mf.EnsembleParams(1.1, 0.2, LINEAR)
    net = sim.sample_network((10, 10, 10), params, seed=23)
    readout = bd.LinearReadout(beta=np.random.default_rng(24).normal(size=10))
    summaries = bd.curvature_vs_depth(net, readout, n_points=3, seed=25, init_scale=1.0)
    assert [s.layer for s in summaries] == [1, 0]
    for s in summaries:
        assert s.n_converged == 3
        assert np.all(np.abs(s.mean_top) <= 1e-8)
        assert np.all(np.abs(s.mean_bottom) <= 1e-8)


def test_curvature_vs_depth_zero_weights_reports_missing_layers():
    # sigma_w = 0 makes G constant in x: no boundary point exists and every
    # search fails with a vanishing gradient; layers are marked missing
    params = mf.EnsembleParams(0.0, 0.3, TANH)
    net = sim.sample_network((8, 8, 8), params, seed=26)
    readout = bd.LinearReadout(beta=np.ones(8))
    summaries = bd.curvature_vs_depth(net, readout, n_points=2, seed=27, init_scale=1.0)
    for s in summaries:
        assert s.n_converged == 0
        assert np.all(np.isnan(s.mean_top))


def test_curvature_vs_depth_refuses_bad_sizes():
    net = sim.sample_network((8, 8, 8), CHAOTIC, seed=28)
    readout = bd.LinearReadout(beta=np.ones(8))
    with pytest.raises(ValueError, match="n_points >= 1"):
        bd.curvature_vs_depth(net, readout, n_points=0, seed=29, init_scale=1.0)
    shallow = sim.sample_network((8, 8), CHAOTIC, seed=28)
    with pytest.raises(ValueError, match="depth >= 2"):
        bd.curvature_vs_depth(shallow, readout, n_points=1, seed=29, init_scale=1.0)
