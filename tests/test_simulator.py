import hashlib
import math
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import mfprop as mf
from mfprop import geometry as geo
from mfprop import simulator as sim
from mfprop.errors import UnsupportedActivationError

from oracles import gram_singular_values, jet_three_gemm, naive_matmul

TANH = mf.builtin("tanh")
LINEAR = mf.builtin("linear")
CHAOTIC = mf.EnsembleParams(4.0, 0.3, TANH)


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic():
    a = sim.sample_network((20, 30, 10), CHAOTIC, seed=5)
    b = sim.sample_network((20, 30, 10), CHAOTIC, seed=5)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


# sha256 of each realization's weight and bias bytes (W^1, b^1, W^2, ...) at
# seed 2025, recorded from a serial layer-by-layer loop.  sigma_w = 0 pins
# the sign of the zero weights: rng.normal(0, 0) gives +0.0, while scaling a
# standard normal in place would give -0.0 for negative draws.
STREAM_DIGESTS = [
    ((1000,) * 11, CHAOTIC,
     "f8b1190ddd6c9553b1f57a71bdfc3602193c05a18759c54c001f7a963915326a"),
    ((3, 1), mf.EnsembleParams(1.5, 0.5, TANH),
     "0cc5a32f16484276a7cda74c67597dd394aeb6854670c533060bb93d57daf834"),
    ((10, 10, 10), mf.EnsembleParams(0.0, 0.3, TANH),
     "d30c6ce003c94d1b9ecec82236eb5622e1f131f434dafdac800924d7433e1df6"),
]


def _digest(net):
    h = hashlib.sha256()
    for w, b in zip(net.weights, net.biases):
        h.update(w.tobytes())
        h.update(b.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("widths, params, digest", STREAM_DIGESTS,
                         ids=["1000x11", "3-1", "sigma_w-0"])
def test_sampling_stream_is_pinned(widths, params, digest):
    assert _digest(sim.sample_network(widths, params, seed=2025)) == digest


def test_concurrent_callers_get_identical_bytes():
    widths = (200,) * 11
    expected = _digest(sim.sample_network(widths, CHAOTIC, seed=7))
    start = threading.Barrier(4, timeout=30)

    def draw(_):
        start.wait()
        return _digest(sim.sample_network(widths, CHAOTIC, seed=7))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as callers:
            futures = [callers.submit(draw, i) for i in range(4)]
            digests = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert digests == [expected] * 4


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_can_sample():
    # Occupy every worker so the draw pool starts all its threads here.
    sim._parallel_map(time.sleep, [0.05] * (os.cpu_count() or 1))
    child = multiprocessing.get_context("fork").Process(
        target=sim.sample_network, args=((5, 5, 5), CHAOTIC, 1))
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_truncating_depth_preserves_shallow_layers():
    deep = sim.sample_network((20,) * 6, CHAOTIC, seed=9)
    shallow = sim.sample_network((20,) * 3, CHAOTIC, seed=9)
    for l in range(shallow.depth):
        assert np.array_equal(deep.weights[l], shallow.weights[l])
        assert np.array_equal(deep.biases[l], shallow.biases[l])


def test_zero_weight_scale_gives_zero_weights():
    net = sim.sample_network((10, 10), mf.EnsembleParams(0.0, 0.3, TANH), seed=1)
    assert np.all(net.weights[0] == 0.0)
    assert not np.all(net.biases[0] == 0.0)


def test_weight_variance_matches_ensemble():
    net = sim.sample_network((1000, 1000), CHAOTIC, seed=0)
    w = net.weights[0]
    target = CHAOTIC.sigma_w**2 / 1000
    tolerance = 5.0 * CHAOTIC.sigma_w**2 / (1000 * math.sqrt(1000 * 1000))
    assert abs(w.var() - target) <= tolerance


def test_bad_widths_rejected():
    with pytest.raises(ValueError):
        sim.sample_network((10,), CHAOTIC, seed=0)
    with pytest.raises(ValueError):
        sim.sample_network((10, 0), CHAOTIC, seed=0)


# ---------------------------------------------------------------------------
# forward passes


def test_forward_zero_network_is_zero():
    net = sim.sample_network((8, 8, 8), mf.EnsembleParams(0.0, 0.0, TANH), seed=2)
    records = sim.forward(net, np.ones(8))
    for rec in records:
        assert np.all(rec.h == 0.0)


def test_forward_single_layer_matches_manual_product():
    net = sim.sample_network((6, 4), mf.EnsembleParams(1.3, 0.2, LINEAR), seed=3)
    x0 = np.arange(6.0)
    rec = sim.forward(net, x0)[0]
    assert np.allclose(rec.h, net.weights[0] @ x0 + net.biases[0], atol=1e-14)


def test_forward_second_layer_matches_naive_matmul():
    net = sim.sample_network((5, 7, 4), CHAOTIC, seed=4)
    x0 = np.linspace(-1.0, 1.0, 5)
    records = sim.forward(net, x0)
    x1 = np.tanh(records[0].h)
    expected = naive_matmul(net.weights[1], x1[:, None])[:, 0] + net.biases[1]
    assert np.allclose(records[1].h, expected, atol=1e-12)


def test_forward_dimension_mismatch():
    net = sim.sample_network((5, 7), CHAOTIC, seed=4)
    with pytest.raises(ValueError):
        sim.forward(net, np.ones(6))


def test_forward_batch_shape():
    net = sim.sample_network((5, 7, 3), CHAOTIC, seed=4)
    records = sim.forward(net, np.ones((11, 5)))
    assert records[0].h.shape == (11, 7)
    assert records[1].h.shape == (11, 3)


def test_forward_from_first_matches_forward():
    net = sim.sample_network((5, 5, 5, 5), CHAOTIC, seed=6)
    x0 = np.linspace(-2.0, 2.0, 5)
    full = sim.forward(net, x0)
    from_h1 = sim.forward_from_first(net, full[0].h)
    for a, b in zip(full, from_h1):
        assert np.allclose(a.h, b.h, atol=1e-14)


# ---------------------------------------------------------------------------
# circle manifold and jets


def test_circle_orthonormal_basis_and_radius():
    circle = sim.CircleManifold.sample(200, 2.5, 64, seed=11)
    assert abs(circle.u0 @ circle.u1) < 1e-12
    h1 = circle.h1()
    lengths = np.einsum("ij,ij->i", h1, h1)
    assert np.allclose(lengths, 200 * 2.5, rtol=1e-8)


def test_circle_jet_identities():
    circle = sim.CircleManifold.sample(50, 1.0, 32, seed=12)
    h1, v1, a1 = circle.h1(), circle.v1(), circle.a1()
    assert np.allclose(np.einsum("ij,ij->i", v1, h1), 0.0, atol=1e-9)
    assert np.allclose(a1, -h1, atol=1e-12)


def test_jet_linear_network_propagates_velocity_exactly():
    params = mf.EnsembleParams(0.9, 0.1, LINEAR)
    net = sim.sample_network((30, 30, 30), params, seed=13)
    circle = sim.CircleManifold.sample(30, 1.0, 16, seed=14)
    records = sim.forward_jet(net, circle)
    v2_expected = records[0].v @ net.weights[1].T
    assert np.allclose(records[1].v, v2_expected, atol=1e-12)


def test_jet_matches_finite_differences():
    net = sim.sample_network((100,) * 5, CHAOTIC, seed=15)
    thetas = np.sort(np.random.default_rng(0).uniform(0, 2 * math.pi, 20))
    circle = sim.CircleManifold.sample(100, 1.5, 8, seed=16).at(thetas)
    records = sim.forward_jet(net, circle)
    delta = 1e-5
    plus = sim.forward_from_first(net, circle.at(thetas + delta).h1())
    minus = sim.forward_from_first(net, circle.at(thetas - delta).h1())
    for l in (2, 4):
        rec = records[l - 1]
        v_fd = (plus[l - 1].h - minus[l - 1].h) / (2 * delta)
        rel = np.linalg.norm(v_fd - rec.v, axis=1) / np.linalg.norm(rec.v, axis=1)
        assert rel.max() < 1e-5


def test_jet_curvature_matches_finite_difference_jets():
    net = sim.sample_network((200,) * 5, CHAOTIC, seed=40)
    n_theta = 64
    circle = sim.CircleManifold.sample(200, 2.0, n_theta, seed=41)
    records = sim.forward_jet(net, circle)
    delta = 1e-4
    plus = sim.forward_from_first(net, circle.at(circle.thetas + delta).h1())
    minus = sim.forward_from_first(net, circle.at(circle.thetas - delta).h1())
    for layer in (2, 4):
        rec = records[layer - 1]
        v_fd = (plus[layer - 1].h - minus[layer - 1].h) / (2 * delta)
        a_fd = (plus[layer - 1].h - 2 * rec.h + minus[layer - 1].h) / delta**2
        exact = geo.curve_geometry(geo.CurveJet(circle.thetas, rec.h, rec.v, rec.a)).kappa
        approx = geo.curve_geometry(geo.CurveJet(circle.thetas, rec.h, v_fd, a_fd)).kappa
        for i in range(0, n_theta, 8):
            assert approx[i] == pytest.approx(exact[i], rel=1e-4)


@pytest.mark.parametrize("name, acceleration",
                         [("tanh", True), ("tanh", False), ("relu", False)])
def test_jet_matches_unstacked_oracle_on_uneven_widths(name, acceleration):
    nl = mf.builtin(name)
    net = sim.sample_network((12, 9, 14, 11, 10), mf.EnsembleParams(2.0, 0.3, nl), seed=42)
    circle = sim.CircleManifold.sample(9, 1.5, 16, seed=43)
    records = sim.forward_jet(net, circle, acceleration=acceleration)
    points = sim.forward_from_first(net, circle.h1())
    expected = jet_three_gemm(net.weights, net.biases, nl.derivatives,
                              circle.h1(), circle.v1(),
                              circle.a1() if acceleration else None)
    assert len(records) == len(points) == len(expected)
    for rec, point, (h, v, a) in zip(records, points, expected):
        assert (rec.a is None) == (a is None)
        assert point.v is None and point.a is None
        pairs = ([(rec.h, h), (rec.v, v), (point.h, h)]
                 + ([(rec.a, a)] if acceleration else []))
        for got, want in pairs:
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_jet_acceleration_requires_smooth_activation():
    # depth 2: a depth-1 jet is the injected circle and evaluates no phi''
    params = mf.EnsembleParams(1.0, 0.1, mf.builtin("hard_tanh"))
    net = sim.sample_network((20, 20, 20), params, seed=17)
    circle = sim.CircleManifold.sample(20, 1.0, 16, seed=18)
    with pytest.raises(UnsupportedActivationError, match="phi''"):
        sim.forward_jet(net, circle)
    records = sim.forward_jet(net, circle, acceleration=False)
    assert len(records) == 2
    assert all(r.a is None and r.v is not None for r in records)


# ---------------------------------------------------------------------------
# measurements


def test_empirical_length_basics():
    assert sim.empirical_length(np.zeros(10)) == 0.0
    with pytest.raises(ValueError):
        sim.empirical_length(np.array([]))
    circle = sim.CircleManifold.sample(300, 0.7, 32, seed=19)
    assert np.allclose(sim.empirical_length(circle.h1()), 0.7, rtol=1e-8)


def test_empirical_correlation_limits():
    v = np.array([1.0, -2.0, 0.5])
    q11, q22, q12, c12 = sim.empirical_correlation(v, v)
    assert c12 == pytest.approx(1.0, abs=1e-15)
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 2.0])
    assert sim.empirical_correlation(a, b)[3] == 0.0
    with pytest.raises(ValueError):
        sim.empirical_correlation(a, np.zeros(2))


def test_pair_at_correlation_exact_gram():
    hA, hB = sim.pair_at_correlation(500, 2.0, 0.37, seed=20)
    q11, q22, q12, c12 = sim.empirical_correlation(hA, hB)
    assert q11 == pytest.approx(2.0, rel=1e-12)
    assert q22 == pytest.approx(2.0, rel=1e-12)
    assert c12 == pytest.approx(0.37, abs=1e-12)


def test_autocorrelation_of_circle_is_cosine():
    circle = sim.CircleManifold.sample(400, 1.2, 64, seed=21)
    dthetas, c = sim.autocorrelation(circle.h1(), q_star=1.2)
    assert np.allclose(c, np.cos(dthetas), atol=1e-6)
    assert c[0] == pytest.approx(1.0, rel=1e-10)


def test_autocorrelation_needs_positive_qstar():
    with pytest.raises(ValueError):
        sim.autocorrelation(np.ones((4, 3)), q_star=0.0)


def test_autocorrelation_decays_with_depth_in_chaos():
    rule = mf.build_rule(201)
    q_star = mf.length_fixed_point(CHAOTIC, rule)
    net = sim.sample_network((400,) * 7, CHAOTIC, seed=22)
    circle = sim.CircleManifold.sample(400, q_star, 64, seed=23)
    records = sim.forward_from_first(net, circle.h1())
    lag = 8  # fixed dtheta = 2 pi / 8
    values = [sim.autocorrelation(rec.h, q_star)[1][lag] for rec in records]
    assert values[-1] < values[1] < values[0]


def test_singular_spectrum_circle_is_rank_two():
    circle = sim.CircleManifold.sample(300, 1.0, 64, seed=24)
    spec = sim.singular_spectrum(circle.h1(), top_k=5)
    assert spec.singular_values[0] == pytest.approx(spec.singular_values[1], rel=1e-9)
    assert spec.singular_values[2] < 1e-9 * spec.singular_values[0]
    assert spec.top_k_fraction == pytest.approx(1.0, abs=1e-12)
    assert not spec.degenerate


def test_singular_spectrum_matches_gram_oracle():
    rng = np.random.default_rng(25)
    h = rng.normal(size=(20, 40))
    spec = sim.singular_spectrum(h)
    centered = h - h.mean(axis=0)
    oracle = gram_singular_values(centered)
    assert np.allclose(spec.singular_values, oracle, atol=1e-8)


def test_singular_spectrum_tall_input_matches_gram_oracle():
    rng = np.random.default_rng(28)
    h = rng.normal(size=(60, 25))
    spec = sim.singular_spectrum(h)
    centered = h - h.mean(axis=0)
    oracle = gram_singular_values(centered.T)
    assert spec.singular_values.shape == (25,)
    assert np.allclose(spec.singular_values, oracle, atol=1e-8)


@pytest.mark.parametrize("top_k", [0, -1])
def test_singular_spectrum_rejects_nonpositive_top_k(top_k):
    h = np.random.default_rng(29).normal(size=(8, 5))
    with pytest.raises(ValueError, match="top_k"):
        sim.singular_spectrum(h, top_k=top_k)


def test_singular_spectrum_flags_degenerate_records():
    h = np.ones((10, 5))
    spec = sim.singular_spectrum(h)
    assert spec.degenerate
    assert np.all(spec.singular_values == 0.0)


def test_spectrum_flattens_with_depth_in_chaos():
    rule = mf.build_rule(201)
    q_star = mf.length_fixed_point(CHAOTIC, rule)
    net = sim.sample_network((400,) * 9, CHAOTIC, seed=26)
    circle = sim.CircleManifold.sample(400, q_star, 128, seed=27)
    records = sim.forward_from_first(net, circle.h1())
    first = sim.singular_spectrum(records[0].h).top_k_fraction
    deep = sim.singular_spectrum(records[-1].h).top_k_fraction
    assert deep < first


def test_self_averaging_moments():
    params = mf.EnsembleParams(2.0, 0.3, TANH)
    rule = mf.build_rule(401)
    net = sim.sample_network((1000,) * 4, params, seed=28)
    x0 = np.random.default_rng(29).normal(size=1000)
    x0 *= math.sqrt(1000 * 1.0) / np.linalg.norm(x0)
    traj = mf.length_trajectory(1.0, 3, params, rule)
    rec = sim.forward(net, x0)[2]
    n = rec.h.size
    q_l = traj.values[2]
    mean_se = math.sqrt(q_l / n)
    var_se = q_l * math.sqrt(2.0 / n)
    assert abs(rec.h.mean()) <= 5.0 * mean_se
    assert abs(sim.empirical_length(rec.h) - q_l) <= 5.0 * var_se
