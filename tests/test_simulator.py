import hashlib
import itertools
import math
import os
import select
import signal
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import mfprop as mf
from mfprop import experiments as xp
from mfprop import geometry as geo
from mfprop import simulator as sim
from mfprop.errors import DegenerateGeometryError, UnsupportedActivationError

from oracles import (circle_whole_network, correlation_whole_network, gram_singular_values,
                     jet_errors_whole_network, jet_three_gemm, length_whole_network,
                     naive_matmul)

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
# seed 2025, recorded from a serial layer-by-layer loop of rng.normal(0, s).
# sigma_w = 0 and sigma_b = 0 pin the sign of the zero weights and biases:
# rng.normal(0, 0) gives +0.0, while a negative standard normal times 0
# alone would give -0.0.
STREAM_DIGESTS = [
    ((1000,) * 11, CHAOTIC,
     "f8b1190ddd6c9553b1f57a71bdfc3602193c05a18759c54c001f7a963915326a"),
    ((3, 1), mf.EnsembleParams(1.5, 0.5, TANH),
     "0cc5a32f16484276a7cda74c67597dd394aeb6854670c533060bb93d57daf834"),
    ((10, 10, 10), mf.EnsembleParams(0.0, 0.3, TANH),
     "d30c6ce003c94d1b9ecec82236eb5622e1f131f434dafdac800924d7433e1df6"),
    ((10, 10, 10), mf.EnsembleParams(1.5, 0.0, TANH),
     "e8e00c5d8a11fc0584c07d08f0ff1c7ecf79e700308c05b63d0f31b798060f74"),
]


def _digest(net):
    h = hashlib.sha256()
    for w, b in zip(net.weights, net.biases):
        h.update(w.tobytes())
        h.update(b.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("widths, params, digest", STREAM_DIGESTS,
                         ids=["1000x11", "3-1", "sigma_w-0", "sigma_b-0"])
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
    # One layer per worker is submitted at once, so this starts every thread
    # of the draw pool.  The child inherits the pool but none of its threads;
    # the fork handler gives it a pool of its own, which draws the same bytes.
    widths = (300,) * (sim._cores() + 1)
    expected = _digest(sim.sample_network(widths, CHAOTIC, 1))
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.write(write_end, _digest(sim.sample_network(widths, CHAOTIC, 1)).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    ready, _, _ = select.select([read_end], [], [], 30)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    digest = os.read(read_end, 64).decode() if ready else None
    os.close(read_end)
    os.waitpid(pid, 0)
    assert digest == expected


def test_truncating_depth_preserves_shallow_layers():
    deep = sim.sample_network((20,) * 6, CHAOTIC, seed=9)
    shallow = sim.sample_network((20,) * 3, CHAOTIC, seed=9)
    for l in range(shallow.depth):
        assert np.array_equal(deep.weights[l], shallow.weights[l])
        assert np.array_equal(deep.biases[l], shallow.biases[l])


# deeper than the draw pool has workers, so `sample_network` queues some draws
STREAM_WIDTHS = tuple(10 + 3 * l for l in range(sim._cores() + 5))


def _assert_is_layer(layer, net, l):
    # the stream's layer l at its one case is the network's W^l and b^l
    l_yielded, k, w, b = layer
    assert (l_yielded, k) == (l, 0)
    assert np.array_equal(w, net.weights[l - 1])
    assert np.array_equal(b, net.biases[l - 1])


@pytest.mark.parametrize("first", [1, 2, 5])
def test_layer_stream_matches_whole_network(first):
    net = sim.sample_network(STREAM_WIDTHS, CHAOTIC, seed=31)
    layers = list(sim._layers(STREAM_WIDTHS, [CHAOTIC], 31, first=first))
    assert len(layers) == net.depth - first + 1
    for layer, l in zip(layers, range(first, net.depth + 1)):
        _assert_is_layer(layer, net, l)


def test_layer_stream_stopped_early():
    net = sim.sample_network(STREAM_WIDTHS, CHAOTIC, seed=31)
    stream = sim._layers(STREAM_WIDTHS, [CHAOTIC], 31, first=2)
    taken = list(itertools.islice(stream, 2))
    stream.close()
    for layer, l in zip(taken, (2, 3)):
        _assert_is_layer(layer, net, l)
    # a stream closed early does not disturb the next caller
    assert _digest(sim.sample_network(STREAM_WIDTHS, CHAOTIC, seed=31)) == _digest(net)


def test_layer_stream_holds_one_layer(warm_draws):
    # the layer in use, for a caller that drops each layer before asking
    # for the next
    widths, layer_bytes = (300,) * 13, 300 * 300 * 8
    tracemalloc.start()
    try:
        for _, _, w, b in sim._layers(widths, [CHAOTIC], 4):
            del w, b
        dropped = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        # W^2..W^12 streamed into `_propagate`, as the experiments read them
        for record in xp._from_first_layer(CHAOTIC, 12, 300, 4, [np.ones((1, 300))]):
            del record
        propagated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dropped < 1.5 * layer_bytes
    assert propagated < 1.5 * layer_bytes


def test_no_draws_sees_a_streams_first_draw(no_draws):
    # the refusal tests below rely on it: asking for a layer draws it
    next(sim._layers(STREAM_WIDTHS, [CHAOTIC], 31, first=2))
    assert len(no_draws) == 1


@pytest.mark.parametrize("widths, message", [
    ((10,), "depth must be >= 1"),
    ((0, 10, 10), "all widths must be >= 1"),
])
def test_layer_stream_checks_widths_at_the_call(no_draws, widths, message):
    # a bad width is refused before any layer is asked for or drawn
    with pytest.raises(ValueError, match=message):
        sim._layers(widths, [CHAOTIC], 31)
    assert no_draws == []


@pytest.mark.parametrize("agreement", [xp.length_agreement, xp.correlation_agreement])
def test_agreements_refuse_an_empty_case_list(no_draws, agreement):
    # no case is a usage error, refused before any layer is drawn
    with pytest.raises(ValueError, match="cases"):
        agreement([], 3, 20, 5, 3, mf.build_rule(201))
    assert no_draws == []


def test_zero_scales_keep_positive_zeros_in_the_shared_buffer():
    # sigma_w = 0 is not the last sigma_w, so its W^l is scaled into the
    # reused buffer (which changes shape at layers 2 and 4); sigma_b = 0
    # is scaled into a new array for case 0 and in place for case 1.  A
    # zero scale must give +0.0, which array_equal and == 0.0 do not tell
    # from -0.0
    widths = (10, 12, 12, 12, 7)
    cases = [mf.EnsembleParams(0.0, 0.0, TANH), mf.EnsembleParams(1.5, 0.0, TANH),
             mf.EnsembleParams(0.0, 0.3, TANH)]
    nets = [sim.sample_network(widths, params, seed=8) for params in cases]
    seen = []
    for l, k, w, b in sim._layers(widths, cases, 8):
        seen.append((l, k))
        assert w.tobytes() == nets[k].weights[l - 1].tobytes()
        assert b.tobytes() == nets[k].biases[l - 1].tobytes()
        for x, scale in ((w, cases[k].sigma_w), (b, cases[k].sigma_b)):
            if scale == 0.0:
                assert not np.signbit(x).any()
    assert seen == [(l, k) for l in range(1, 5) for k in (0, 2, 1)]


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


@pytest.mark.parametrize("nl", [TANH, LINEAR], ids=["tanh", "linear"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_layer_step_into_its_own_blocks_keeps_the_bytes(order, nl):
    # weight chaos advances each block over its own memory; linear's phi is
    # h itself, so there the product's operand overlaps its output
    rng = np.random.default_rng(order)
    n, width = 9, 60
    w, b = rng.normal(size=(width, width)), rng.normal(size=width)
    stacked = rng.normal(size=((order + 1) * n, width))
    expected = sim._advance(np.split(stacked.copy(), order + 1), w, b, nl)
    got = sim._advance(np.split(stacked, order + 1), w, b, nl, out=stacked)
    assert all(np.shares_memory(block, stacked) for block in got)
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


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


@pytest.mark.parametrize("c", [1.5, math.nan])
def test_pair_at_correlation_refuses_c_outside_unit_interval(c):
    with pytest.raises(ValueError, match="c must lie in"):
        sim.pair_at_correlation(50, 1.0, c, seed=20)


@pytest.mark.parametrize("q", [-1.0, math.nan, math.inf])
def test_circle_refuses_a_radius_that_is_not_finite_and_nonnegative(q):
    with pytest.raises(ValueError, match="q must be"):
        sim.CircleManifold.sample(4, q, 8, seed=0)


def test_autocorrelation_of_circle_is_cosine():
    circle = sim.CircleManifold.sample(400, 1.2, 64, seed=21)
    dthetas, c = sim.autocorrelation(circle.h1(), q_star=1.2)
    assert np.allclose(c, np.cos(dthetas), atol=1e-6)
    assert c[0] == pytest.approx(1.0, rel=1e-10)


def test_autocorrelation_needs_positive_qstar():
    # q* = 0 is a degenerate ensemble, as on every other path; a negative
    # q* is a bad argument
    with pytest.raises(DegenerateGeometryError, match=r"q\* > 0"):
        sim.autocorrelation(np.ones((4, 3)), q_star=0.0)
    with pytest.raises(ValueError, match="q_star"):
        sim.autocorrelation(np.ones((4, 3)), q_star=-1.0)


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


@pytest.mark.parametrize("h, top_k, message", [
    (np.ones((8, 5)), 0, "top_k"),
    (np.ones((8, 5)), -1, "top_k"),
    (np.ones(5), 5, r"h must have shape \(n_theta, N\)"),
    (np.ones((1, 5)), 5, "need at least 2 theta samples"),
], ids=["top_k-0", "top_k-negative", "one-dimensional", "one-row"])
def test_singular_spectrum_refuses_bad_arguments(h, top_k, message):
    with pytest.raises(ValueError, match=message):
        sim.singular_spectrum(h, top_k=top_k)


def test_singular_spectrum_flags_degenerate_records():
    h = np.ones((10, 5))
    spec = sim.singular_spectrum(h)
    assert np.all(spec.singular_values == 0.0)
    assert np.all(spec.variance_fractions == 0.0) and spec.top_k_fraction == 0.0


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


# ---------------------------------------------------------------------------
# experiments on streamed layers


def test_streamed_experiments_match_whole_network_oracles():
    params = mf.EnsembleParams(2.5, 0.3, TANH)
    rule = mf.build_rule(201)
    width, depth, seed, n_theta = 40, sim._cores() + 3, 7, 16

    length, = xp.length_agreement([(params, 0.5)], depth, width, seed, 2, rule)
    assert np.array_equal(length.q_emp,
                          length_whole_network(params, 0.5, depth, width, [seed, seed + 1]))

    corr, = xp.correlation_agreement([(params, 0.6)], depth, width, seed, 2, rule)
    assert np.array_equal(corr.c_emp, correlation_whole_network(
        params, corr.theory.chi.q_star, 0.6, depth, width, [seed, seed + 1]))

    q_star, stream = xp.circle_at_fixed_point(params, depth, width, n_theta, rule, seed)
    mine = list(stream)    # a stream reads once
    _, records = circle_whole_network(params, q_star, depth, width, n_theta, seed,
                                      jets=False)
    assert [r.layer for r in mine] == [r.layer for r in records] == list(range(1, depth + 1))
    for rec, oracle in zip(mine, records):
        assert np.array_equal(rec.h, oracle.h)

    curv = xp.curvature_agreement(params, depth, width, n_theta, seed, rule)
    circle, jets = circle_whole_network(params, curv.theory.chi.q_star, depth, width,
                                        n_theta, seed, jets=True)
    geoms = [geo.curve_geometry(geo.CurveJet(circle.thetas, r.h, r.v, r.a)) for r in jets]
    assert np.array_equal(curv.gE_bar, [g.gE_norm.mean() for g in geoms])
    assert np.array_equal(curv.kappa_sq, [(g.kappa_norm**2).mean() for g in geoms])
    assert np.array_equal(curv.LG, [g.LG for g in geoms])


# uneven widths: W^1 (8 -> 30) is never drawn by the stream, and the jets
# change width at every later layer
JET_WIDTHS = (8, 30, 22, 35, 17, 26)


def test_jet_errors_match_the_whole_network_oracle(monkeypatch):
    rule = mf.build_rule(201)
    thetas = np.sort(np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, 12))
    drawn, fill = [], sim._fill
    monkeypatch.setattr(sim, "_fill", lambda child, z, z_b: (drawn.append(z.shape),
                                                             fill(child, z, z_b)))
    errors = xp.jet_errors(CHAOTIC, JET_WIDTHS, thetas, 1e-5, 9, 77, rule)
    monkeypatch.undo()
    # W^2..W^D, each drawn once; W^1 never
    assert drawn == [(m, n) for n, m in zip(JET_WIDTHS[1:], JET_WIDTHS[2:])]
    oracle = jet_errors_whole_network(CHAOTIC, mf.length_fixed_point(CHAOTIC, rule),
                                      JET_WIDTHS, thetas, 1e-5, 9, 77)
    assert np.array_equal(errors, oracle)
    # the errors are those of a correct jet, not of two equal wrong ones
    assert errors.max() < 1e-4


def test_shared_draws_match_each_case_alone():
    # 2 sigma_w x 2 inputs, listed so that the sigma_w alternate: each case
    # gets the bytes of its own whole-network run, as if drawn alone
    rule = mf.build_rule(201)
    width, depth, seed = 40, sim._cores() + 3, 7
    seeds = [seed, seed + 1]
    ensembles = [mf.EnsembleParams(1.5, 0.3, TANH), mf.EnsembleParams(2.5, 0.05, TANH)]

    cases = [(params, q0) for q0 in (0.5, 3.0) for params in ensembles]
    runs = xp.length_agreement(cases, depth, width, seed, len(seeds), rule)
    assert len(runs) == len(cases)
    for (params, q0), run in zip(cases, runs):
        assert np.array_equal(run.theory.values,
                              mf.length_trajectory(q0, depth, params, rule).values)
        assert np.array_equal(run.q_emp, length_whole_network(params, q0, depth, width, seeds))

    cases = [(params, c0) for c0 in (0.3, 0.9) for params in ensembles]
    runs = xp.correlation_agreement(cases, depth, width, seed, len(seeds), rule)
    assert len(runs) == len(cases)
    for (params, c0), run in zip(cases, runs):
        theory = mf.correlation_trajectory(c0, depth, params, rule)
        assert np.array_equal(run.theory.values, theory.values)
        assert np.array_equal(run.c_emp, correlation_whole_network(
            params, theory.chi.q_star, c0, depth, width, seeds))


def test_one_sigma_w_is_scaled_in_place(warm_draws):
    # with one sigma_w, W^l is Z^l scaled in place: the layer in use only,
    # no buffer of its own
    depth, width = 12, 300
    rule = mf.build_rule(201)
    tracemalloc.start()
    try:
        xp.length_agreement([(CHAOTIC, 0.5)], depth, width, 5, 2, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * width * width * 8


def test_jet_errors_hold_one_layer_not_the_network(warm_draws):
    # the layer in use and a few row blocks (n_theta x width); the
    # whole-network oracle holds every one of the 11 layers
    widths, n_theta = (300,) * 12, 8
    layer_bytes, block_bytes = 300 * 300 * 8, n_theta * 300 * 8
    rule = mf.build_rule(201)
    q_star = mf.length_fixed_point(CHAOTIC, rule)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    tracemalloc.start()
    try:
        xp.jet_errors(CHAOTIC, widths, thetas, 1e-5, 5, 77, rule)
        streamed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        jet_errors_whole_network(CHAOTIC, q_star, widths, thetas, 1e-5, 5, 77)
        whole = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert streamed < 1.5 * layer_bytes + 20 * block_bytes
    assert whole > 10 * layer_bytes


def test_curvature_agreement_holds_a_few_jets_not_the_network():
    # a jet is one layer's h, v and a; keeping every layer's would be 12
    depth, width, n_theta = 12, 300, 512
    rule = mf.build_rule(201)
    tracemalloc.start()
    try:
        xp.curvature_agreement(CHAOTIC, depth, width, n_theta, 5, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the jet in use, the next one and the product's operands (~6 jets)
    assert peak < 8 * (3 * n_theta * width * 8)
