import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mfprop as mf
from mfprop import expressivity as ex
from mfprop import simulator as sim
from mfprop.errors import UnsupportedActivationError

from oracles import fourier_ridge_errors, shallow_lengths_dense, weight_chaos_outputs_loop

TANH = mf.builtin("tanh")
CHAOTIC = mf.EnsembleParams(4.0, 0.3, TANH)
RULE = mf.build_rule(201)
Q_STAR = mf.length_fixed_point(CHAOTIC, RULE)


# ---------------------------------------------------------------------------
# shallow length bound


def test_bound_formula():
    # N_1 (1 + s) R with s = 1 for a circle; only R is read from phi
    circle = sim.CircleManifold.sample(4, 1.0, 16, seed=0)
    unit_range = dataclasses.replace(TANH, dynamic_range=1.0)
    for n_hidden, nl, bound in ((1000, TANH, 4000.0), (1, TANH, 4.0), (10, unit_range, 20.0)):
        params = mf.EnsembleParams(1.0, 0.0, nl)
        assert ex.verify_shallow_bound(1, n_hidden, params, circle, seed=0).bound == bound


def test_bound_spec_validation():
    circle = sim.CircleManifold.sample(4, 1.0, 16, seed=0)
    with pytest.raises(ValueError, match="n_hidden"):
        ex.verify_shallow_bound(1, 0, mf.EnsembleParams(1.0, 0.0, TANH), circle, seed=0)
    flat = mf.EnsembleParams(1.0, 0.0, dataclasses.replace(TANH, dynamic_range=0.0))
    with pytest.raises(ValueError, match="dynamic_range"):
        ex.verify_shallow_bound(1, 10, flat, circle, seed=0)
    for n_trials in (0, -1):
        with pytest.raises(ValueError, match="n_trials"):
            ex.verify_shallow_bound(n_trials, 10, mf.EnsembleParams(1.0, 0.0, TANH),
                                    circle, seed=0)


def test_zero_weights_give_zero_length():
    circle = sim.CircleManifold.sample(50, 1.0, 128, seed=0)
    params = mf.EnsembleParams(0.0, 0.0, TANH)
    report = ex.verify_shallow_bound(5, 30, params, circle, seed=1)
    assert report.max_length == 0.0
    assert report.violations == 0


def test_bound_holds_on_random_shallow_nets():
    circle = sim.CircleManifold.sample(100, 1.0, 256, seed=2)
    params = mf.EnsembleParams(4.0, 0.0, TANH)
    report = ex.verify_shallow_bound(25, 200, params, circle, seed=3)
    assert report.bound == 200 * 2 * 2.0
    assert report.violations == 0
    assert report.max_length < report.bound


@pytest.mark.parametrize("name", ["tanh", "hard_tanh"])
def test_shallow_bound_lengths_match_dense_weights_in_distribution(name):
    # Two N_1-vectors per trial stand in for W u0 and W u1; the dense oracle
    # draws the whole N_1 x N_0 matrix.  Independent seeds on the two sides.
    nl = mf.builtin(name)
    circle = sim.CircleManifold.sample(300, 1.0, 128, seed=8)
    params = mf.EnsembleParams(2.0, 0.0, nl)
    n_trials = 200
    lengths = ex.verify_shallow_bound(n_trials, 200, params, circle, seed=9).lengths
    dense = shallow_lengths_dense(nl.derivatives, 2.0, 200, n_trials, circle.h1(), circle.v1(),
                                  seed=10)
    assert np.all(dense > 0.0) and np.all(lengths > 0.0)
    se = math.sqrt((lengths.var(ddof=1) + dense.var(ddof=1)) / n_trials)
    assert abs(lengths.mean() - dense.mean()) <= 4.0 * se


def test_shallow_bound_lengths_do_not_depend_on_input_width():
    narrow = sim.CircleManifold.sample(3, 1.5, 128, seed=0)
    wide = sim.CircleManifold.sample(300, 1.5, 128, seed=1)
    params = mf.EnsembleParams(3.0, 0.0, TANH)
    a = ex.verify_shallow_bound(4, 50, params, narrow, seed=2).lengths
    b = ex.verify_shallow_bound(4, 50, params, wide, seed=2).lengths
    assert np.array_equal(a, b)


def test_shallow_bound_draws_a_bias():
    circle = sim.CircleManifold.sample(2, 1.0, 128, seed=0)
    plain = ex.verify_shallow_bound(10, 100, mf.EnsembleParams(4.0, 0.0, TANH), circle, seed=3)
    biased = ex.verify_shallow_bound(10, 100, mf.EnsembleParams(4.0, 0.5, TANH), circle, seed=3)
    assert np.all(biased.lengths != plain.lengths)
    assert biased.violations == 0


def test_unbounded_range_unsupported():
    circle = sim.CircleManifold.sample(20, 1.0, 64, seed=4)
    params = mf.EnsembleParams(1.0, 0.0, mf.builtin("relu"))
    with pytest.raises(UnsupportedActivationError):
        ex.verify_shallow_bound(2, 10, params, circle, seed=5)


def test_hard_tanh_supported_by_bound():
    circle = sim.CircleManifold.sample(20, 1.0, 64, seed=6)
    params = mf.EnsembleParams(3.0, 0.0, mf.builtin("hard_tanh"))
    report = ex.verify_shallow_bound(5, 10, params, circle, seed=7)
    assert report.violations == 0


# ---------------------------------------------------------------------------
# fourier probe


def test_probe_basis_is_orthogonal():
    probe = ex.uniform_probe(10, 64)
    basis = probe.basis()
    gram = basis.T @ basis
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-10


def test_probe_rejects_undersampled_grid():
    with pytest.raises(ValueError):
        ex.uniform_probe(40, 64)


def test_exact_recovery_when_basis_present():
    probe = ex.uniform_probe(6, 64)
    activations = probe.basis()
    profile = ex.fourier_error_profile(activations, probe)
    assert np.all(profile.errors <= 1e-12)


def test_constant_activations_fail_all_frequencies():
    probe = ex.uniform_probe(6, 64)
    activations = np.full((64, 5), 2.0)
    profile = ex.fourier_error_profile(activations, probe)
    assert profile.errors[0] <= 1e-12
    assert np.all(profile.errors[1:] == 1.0)


def test_rank_deficient_activations_give_errors_in_unit_interval():
    # two equal columns: the automatic ridge keeps the system positive
    # definite, and cos(theta) is still predicted exactly
    probe = ex.uniform_probe(4, 64)
    column = np.cos(probe.thetas)[:, None]
    activations = np.concatenate([column, column], axis=1)
    profile = ex.fourier_error_profile(activations, probe)
    assert np.all(profile.errors >= 0.0) and np.all(profile.errors <= 1.0)
    assert profile.errors[0] <= 1e-12
    assert profile.errors[1] == pytest.approx(0.5, abs=1e-12)    # cos exact, sin missed
    assert np.all(profile.errors[2:] == 1.0)


def test_profile_invariant_under_activation_scaling():
    rng = np.random.default_rng(8)
    probe = ex.uniform_probe(8, 64)
    activations = rng.normal(size=(64, 12))
    base = ex.fourier_error_profile(activations, probe)
    scaled = ex.fourier_error_profile(3.7 * activations, probe)
    # identical up to roundoff (the auto ridge scales with the squared
    # activations, so predictions only change by floating-point noise)
    assert np.allclose(base.errors, scaled.errors, atol=1e-9)


def test_errors_lie_in_unit_interval():
    rng = np.random.default_rng(9)
    probe = ex.uniform_probe(12, 128)
    profile = ex.fourier_error_profile(rng.normal(size=(128, 20)), probe)
    assert np.all(profile.errors >= 0.0) and np.all(profile.errors <= 1.0)
    assert profile.errors.shape == profile.frequencies.shape == (13,)


@pytest.mark.parametrize("case", ["random", "rank_deficient", "tanh_circle"])
def test_profile_matches_augmented_least_squares(case):
    rng = np.random.default_rng(17)
    n_theta, omega_max = 128, 20
    if case == "random":
        activations = rng.normal(size=(n_theta, 30))
    elif case == "rank_deficient":    # 24 columns of rank 4
        activations = rng.normal(size=(n_theta, 4)) @ rng.normal(size=(4, 24))
    else:
        circle = sim.CircleManifold.sample(60, Q_STAR, n_theta, seed=18)
        activations = np.tanh(circle.h1())
    profile = ex.fourier_error_profile(activations, ex.uniform_probe(omega_max, n_theta))
    expected = fourier_ridge_errors(activations, omega_max)
    assert np.max(np.abs(profile.errors - expected)) <= 1e-8


def test_depth_one_tanh_has_no_even_harmonics():
    # tanh of a centered circle is odd around the circle: even frequencies
    # are absent no matter the width
    q_star = mf.length_fixed_point(CHAOTIC, RULE)
    circle = sim.CircleManifold.sample(500, q_star, 256, seed=11)
    activations = np.tanh(circle.h1())
    probe = ex.uniform_probe(20, 256)
    profile = ex.fourier_error_profile(activations, probe)
    even = profile.errors[2::2]
    assert np.all(even > 1.0 - 1e-6)


# ---------------------------------------------------------------------------
# weight chaos


def test_weight_chaos_theory_delta_zero_constant():
    values = ex.weight_chaos_theory(CHAOTIC, 0.0, 8, RULE, q_star=Q_STAR)
    assert np.allclose(values, 1.0, atol=1e-12)


def test_weight_chaos_theory_full_swap_kills_layer_two():
    params = mf.EnsembleParams(2.0, 0.0, TANH)
    values = ex.weight_chaos_theory(params, 1.0, 5, RULE,
                                    q_star=mf.length_fixed_point(params, RULE))
    assert values[0] == 1.0
    assert values[1] == pytest.approx(0.0, abs=1e-14)
    assert abs(values[2]) < 1e-10  # c-map of 0 stays 0 for odd phi, no bias


@given(st.floats(min_value=0.0, max_value=1.0))
def test_weight_chaos_theory_even_in_delta(delta):
    forward = ex.weight_chaos_theory(CHAOTIC, delta, 6, RULE, q_star=Q_STAR)
    backward = ex.weight_chaos_theory(CHAOTIC, -delta, 6, RULE, q_star=Q_STAR)
    assert np.array_equal(forward, backward)


def test_weight_chaos_deep_layers_follow_c_map():
    values = ex.weight_chaos_theory(CHAOTIC, 0.3, 9, RULE, q_star=Q_STAR)
    traj = mf.correlation_trajectory(values[1], 8, CHAOTIC, RULE)
    assert np.allclose(values[1:], traj.values, atol=1e-12)


def test_weight_chaos_theory_decreases_with_depth():
    values = [ex.weight_chaos_theory(CHAOTIC, 0.1, d, RULE, q_star=Q_STAR)[-1]
              for d in (3, 6, 9, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_weight_chaos_empirical_delta_zero_is_one():
    family = ex.weight_chaos_empirical(
        CHAOTIC, (100,) * 5, np.array([0.0, 0.4]), seed=12, n_theta=64, rule=RULE
    )
    assert family.c_empirical[0] == pytest.approx(1.0, abs=1e-14)
    assert family.c_empirical[1] < 1.0


def _weight_chaos_draws(widths, seed):
    """The base network and the layer-2 perturbation weight_chaos_empirical
    uses: each from its child seed of SeedSequence(seed), the circle's being
    the third."""
    net_seed, dw_seed, _ = (int(s) for s in np.random.SeedSequence(seed).generate_state(3))
    base = sim.sample_network(widths, CHAOTIC, net_seed)
    d_weights = np.random.default_rng(np.random.SeedSequence(dw_seed)).normal(
        0.0, CHAOTIC.sigma_w / math.sqrt(widths[1]), size=base.weights[1].shape)
    return base, d_weights


def test_interpolated_weights_keep_ensemble_variance():
    family = ex.weight_chaos_empirical(
        CHAOTIC, (400,) * 4, np.array([0.0, 0.25, 0.5]), seed=13, n_theta=32, rule=RULE
    )
    base, d_weights = _weight_chaos_draws((400,) * 4, 13)
    target = CHAOTIC.sigma_w**2 / 400
    for delta in family.delta_grid:
        w2 = (math.sqrt(1 - abs(delta)) * base.weights[1]
              + math.sqrt(abs(delta)) * d_weights)
        se = target * math.sqrt(2.0 / w2.size)
        assert abs(w2.var() - target) <= 5.0 * se


def test_weight_chaos_empirical_tracks_theory_at_small_scale():
    family = ex.weight_chaos_empirical(
        CHAOTIC, (600,) * 7, np.array([0.0, 0.1, 0.3]), seed=14, n_theta=128, rule=RULE
    )
    assert np.max(np.abs(family.c_empirical - family.c_theory)) < 0.08


@pytest.mark.parametrize("widths", [(12, 9, 14, 11, 10), (12, 9, 14, 14, 10), (12, 9, 14)])
@pytest.mark.parametrize("deltas", [(0.0, 0.1, 0.4), (0.1, 0.25, 0.9), (-0.3, 0.2, 0.0, 0.6)])
def test_weight_chaos_batch_matches_per_delta_loop(widths, deltas):
    seed, n_theta = 16, 24
    family = ex.weight_chaos_empirical(CHAOTIC, widths, np.array(deltas), seed=seed,
                                       n_theta=n_theta, rule=RULE)
    circle_seed = int(np.random.SeedSequence(seed).generate_state(3)[2])
    circle = sim.CircleManifold.sample(widths[1], mf.length_fixed_point(CHAOTIC, RULE),
                                       n_theta, circle_seed)
    base, d_weights = _weight_chaos_draws(widths, seed)
    outputs, ref = weight_chaos_outputs_loop(base.weights, base.biases,
                                             np.tanh, circle.h1(), d_weights, deltas)

    def q(a, b):
        return float(np.mean(np.einsum("ij,ij->i", a, b))) / widths[-1]

    expected = [q(ref, out) / math.sqrt(q(ref, ref) * q(out, out)) for out in outputs]
    assert np.max(np.abs(family.c_empirical - expected)) < 1e-13


def test_weight_chaos_holds_a_few_layers_not_the_network(warm_draws):
    # a short circle and two deltas keep the batch small beside one layer
    widths, layer_bytes = (300,) * 11, 300 * 300 * 8
    tracemalloc.start()
    try:
        ex.weight_chaos_empirical(CHAOTIC, widths, np.array([0.0, 0.3]), 3, n_theta=16,
                                  rule=RULE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the layer in use (dW or W^l) and room for the batch; the whole network
    # is 10 layers plus dW
    assert peak < layer_bytes + 500_000


def test_weight_chaos_multiplies_the_batch_in_place(warm_draws):
    # a wide family of Delta blocks dwarfs the layers: each layer replaces
    # one block at a time with its product, so neither a fresh family per
    # layer nor phi of the whole family is ever held
    deltas, n_theta, width = np.linspace(0.0, 0.5, 11), 512, 200
    block_bytes = deltas.size * n_theta * width * 8
    delta_bytes, layer_bytes = n_theta * width * 8, width * width * 8
    tracemalloc.start()
    try:
        ex.weight_chaos_empirical(CHAOTIC, (width,) * 5, deltas, 3, n_theta=n_theta, rule=RULE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 11 blocks, x1 W^T and x1 dW^T made in two of them; beside them
    # x1 and one layer, then one scaled copy and one layer, then one block's
    # phi and one layer.  phi of the whole family would be 11 blocks more
    assert peak < block_bytes + delta_bytes + layer_bytes + 100_000


def test_weight_chaos_family_changes_width_in_its_own_buffer(warm_draws):
    # a wider layer's family is written over the narrower one's, not beside
    # it: one buffer of the widest family, one block's phi and one layer
    deltas, n_theta, widths = np.linspace(0.0, 0.5, 11), 512, (200, 200, 200, 300, 200)
    widest = deltas.size * n_theta * 300 * 8
    delta_bytes, layer_bytes = n_theta * 300 * 8, 300 * 200 * 8
    tracemalloc.start()
    try:
        ex.weight_chaos_empirical(CHAOTIC, widths, deltas, 3, n_theta=n_theta, rule=RULE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the narrower family beside the wider one would be 7.3 blocks more
    assert peak < widest + delta_bytes + layer_bytes + 100_000


def test_weight_chaos_rejects_bad_delta():
    for bad in (1.5, math.nan):
        with pytest.raises(ValueError, match="delta must"):
            ex.weight_chaos_theory(CHAOTIC, bad, 4, RULE, q_star=Q_STAR)
        with pytest.raises(ValueError, match="deltas must"):
            ex.weight_chaos_empirical(CHAOTIC, (50,) * 4, np.array([0.0, 2 * bad]), seed=15,
                                      rule=RULE)


def test_weight_chaos_refuses_an_empty_delta_grid(no_draws):
    # refused before any layer or dW is drawn
    with pytest.raises(ValueError, match="delta_grid"):
        ex.weight_chaos_empirical(CHAOTIC, (200,) * 6, [], seed=15, rule=RULE)
    assert no_draws == []
