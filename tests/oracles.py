"""Independent reference computations used to check the library's paths.

Everything here is deliberately dumb and slow: dense trapezoid grids,
bisection, triple-loop matrix products, closed forms.  None of it shares
code with the package beyond numpy and scipy, except the erf activation,
a `Nonlinearity` for the library's theory to integrate, and the
whole-network experiments, which hold every layer of a `sample_network`
realization and run the public `forward*` passes on it: the path the
experiments' layer streams must reproduce byte for byte.
"""

import math

import numpy as np
from scipy.special import erf

from mfprop import simulator as sim
from mfprop.activations import Nonlinearity


def gauss_expect_trapezoid(f, n=10**6, lim=12.0):
    """E[f(z)] over N(0,1) by dense trapezoid on [-lim, lim]."""
    z = np.linspace(-lim, lim, n)
    density = np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi)
    return float(np.trapezoid(f(z) * density, z))


def gauss_expect2_grid(f, c, q, n=1500, lim=8.0):
    """E[f(u1, u2)] for the pair of variance q and correlation c, by a dense 2-D trapezoid."""
    z = np.linspace(-lim, lim, n)
    density = np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi)
    s = np.sqrt(max(0.0, 1.0 - c * c))
    u1 = np.sqrt(q) * z
    u2 = np.sqrt(q) * (c * z[:, None] + s * z[None, :])
    vals = f(u1[:, None] + np.zeros_like(u2), u2) * density[:, None] * density[None, :]
    return float(np.trapezoid(np.trapezoid(vals, z, axis=1), z))


def bisect_root(g, lo, hi, iters=200):
    """Root of g by plain bisection; g(lo) and g(hi) must differ in sign."""
    glo = g(lo)
    if glo == 0.0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (g(mid) > 0.0) == (glo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gaussian_moment(k: int) -> float:
    """E[z^k] for z ~ N(0,1): (k-1)!! for even k, 0 for odd."""
    if k % 2 == 1:
        return 0.0
    result = 1.0
    for j in range(k - 1, 0, -2):
        result *= j
    return result


def naive_matmul(a, b):
    """Triple-loop matrix product."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def weight_chaos_outputs_loop(weights, biases, phi, h1, d_weights, deltas):
    """Per-Delta network outputs of the weight-chaos family, one network at
    a time: W^2(Delta) = sqrt(1-|Delta|) W^2 + sqrt(|Delta|) dW is built
    explicitly and h1 is pushed through layers 2..D of that network.
    Returns (outputs for each Delta, output of the Delta = 0 network)."""

    def output_of(w2):
        h = h1
        for l, (w, b) in enumerate(zip(weights[1:], biases[1:])):
            h = phi(h) @ (w2 if l == 0 else w).T + b
        return h

    outputs = [output_of(np.sqrt(1.0 - abs(d)) * weights[1]
                         + np.sqrt(abs(d)) * d_weights) for d in deltas]
    return outputs, output_of(weights[1])


def fourier_ridge_errors(activations, omega_max):
    """Per-frequency Fourier regression error, the ridge fit done as one
    augmented least-squares problem: min |D c - B|^2 + lam |c|^2 is
    lstsq([D; sqrt(lam) I], [B; 0]).  D is the activations plus a constant
    column, B the basis {1, cos k t, sin k t} on t_j = 2 pi j / n, and
    lam = 1e-6 tr(D^T D) / n_columns.  A column whose prediction is below
    roundoff (|yhat|^2 <= eps |y|^2) scores 1; each k >= 1 averages cos and
    sin."""
    n = activations.shape[0]
    t = 2.0 * math.pi * np.arange(n) / n
    basis = np.ones((n, 2 * omega_max + 1))
    for k in range(1, omega_max + 1):
        basis[:, 2 * k - 1] = np.cos(k * t)
        basis[:, 2 * k] = np.sin(k * t)
    design = np.column_stack([activations, np.ones(n)])
    n_cols = design.shape[1]
    lam = 1e-6 * float(np.sum(design * design)) / n_cols
    augmented = np.vstack([design, math.sqrt(lam) * np.eye(n_cols)])
    targets = np.vstack([basis, np.zeros((n_cols, basis.shape[1]))])
    coef = np.linalg.lstsq(augmented, targets, rcond=None)[0]
    errors = np.ones(basis.shape[1])
    for j in range(basis.shape[1]):
        y, yhat = basis[:, j], design @ coef[:, j]
        if yhat @ yhat > np.finfo(float).eps * (y @ y):
            errors[j] = min(1.0, max(0.0, 1.0 - (yhat @ y) ** 2 / ((yhat @ yhat) * (y @ y))))
    return np.array([errors[0]] + [(errors[2 * k - 1] + errors[2 * k]) / 2.0
                                   for k in range(1, omega_max + 1)])


def jet_three_gemm(weights, biases, derivatives, h, v, a=None):
    """(h, v, a) at every layer from h^1, v^1 and optionally a^1, with three
    separate products per layer (two without a)."""
    out = [(h, v, a)]
    for w, b in zip(weights[1:], biases[1:]):
        phi, d1, *d2 = derivatives(h, 1 if a is None else 2)
        if a is not None:
            a = (d2[0] * v * v + d1 * a) @ w.T
        h, v = phi @ w.T + b, (d1 * v) @ w.T
        out.append((h, v, a))
    return out


def gram_singular_values(m):
    """Singular values via eigendecomposition of the Gram matrix."""
    gram = m @ m.T
    eigs = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(eigs, 0.0, None))[::-1]


def fd_slope_at_one(f, h=1e-6):
    """One-sided second-order derivative estimate at the domain edge c=1."""
    return (3.0 * f(1.0) - 4.0 * f(1.0 - h) + f(1.0 - 2.0 * h)) / (2.0 * h)


def fd_second_derivative_at_one(f, h=2.5e-5):
    """One-sided second-order estimate of f''(1)."""
    return (2.0 * f(1.0) - 5.0 * f(1.0 - h) + 4.0 * f(1.0 - 2.0 * h)
            - f(1.0 - 3.0 * h)) / h**2


def shallow_lengths_dense(derivatives, sigma_w, n_hidden, n_trials, h1, v1, seed):
    """Per-trial length of phi(W x0(theta)) from the dense products h1 @ W.T
    and v1 @ W.T, with each trial's W drawn from child t of
    SeedSequence(seed) as N(0, sigma_w^2 / width), integrated by a plain
    rectangle sum over the uniform theta grid of the rows of h1."""
    n_theta, width = h1.shape
    lengths = np.empty(n_trials)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        w = np.random.default_rng(child).normal(0.0, sigma_w / np.sqrt(width),
                                                size=(n_hidden, width))
        v_hidden = derivatives(h1 @ w.T, 1)[1] * (v1 @ w.T)
        speed = np.sqrt(np.sum(v_hidden * v_hidden, axis=1))
        lengths[t] = np.sum(speed) * 2.0 * np.pi / n_theta
    return lengths


def readout_hessian_fd(grad, x, step):
    """Hessian of a scalar field from central differences of its gradient
    `grad` at steps h and h/2, Richardson-extrapolated to O(h^4)."""
    x = np.asarray(x, dtype=float)
    n = x.size

    def central(h):
        cols = np.empty((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            cols[:, i] = (grad(x + e) - grad(x - e)) / (2.0 * h)
        return cols

    return (4.0 * central(step / 2.0) - central(step)) / 3.0


def principal_curvatures_projected(hessian, grad):
    """Principal curvatures of the level set with gradient `grad` and
    Hessian `hessian`: eigenvalues of P H P / |grad|, P = I - n n^T, with the
    near-zero eigenvalue whose eigenvector lies along the normal n removed.
    Sorted descending."""
    hessian = 0.5 * (hessian + hessian.T)
    grad_norm = np.linalg.norm(grad)
    normal = grad / grad_norm
    projected = hessian - np.outer(normal, normal @ hessian)
    projected = projected - np.outer(projected @ normal, normal)
    eigvals, eigvecs = np.linalg.eigh(projected / grad_norm)
    alignments = np.abs(eigvecs.T @ normal)
    threshold = 1e-6 * np.max(np.abs(eigvals)) + 1e-12
    near_zero = np.flatnonzero(np.abs(eigvals) < threshold)
    assert near_zero.size > 0, "no near-zero eigenvalue along the normal"
    drop = near_zero[np.argmax(alignments[near_zero])]
    return np.sort(np.delete(eigvals, drop))[::-1]


def hermite_rule_extended(nodes, order, iterations=2):
    """Gauss-Hermite nodes and probability weights in np.longdouble.

    Newton's method on He_order, evaluated by the monic recurrence
    He_{k+1} = x He_k - k He_{k-1} in extended precision, started from the
    nonnegative entries of `nodes`; then w_i ~ 1 / He_{order-1}(x_i)^2.
    He_k is not rescaled: for orders up to 2001 it stays below 1e3723,
    inside long double's range.
    """
    x = np.asarray(nodes, dtype=np.longdouble)
    x = x[x >= 0]
    for _ in range(iterations):
        prev, cur = np.ones_like(x), x.copy()
        for k in range(1, order):
            prev, cur = cur, x * cur - k * prev
        x = x - cur / (order * prev)
    prev, cur = np.ones_like(x), x.copy()
    for k in range(1, order - 1):
        prev, cur = cur, x * cur - k * prev
    ratio = cur[0] / cur                    # He_{n-1}(x_0) / He_{n-1}(x_i)
    w = ratio * ratio
    mirror = slice(1, None) if order % 2 else slice(None)
    x_all = np.concatenate((-x[mirror][::-1], x))
    w_all = np.concatenate((w[mirror][::-1], w))
    return x_all, w_all / w_all.sum()


# ---------------------------------------------------------------------------
# erf: a smooth, saturating phi whose mean-field theory is closed-form
# (Williams 1997, "Computing with infinite networks").  For (u1, u2) of
# variance q and correlation c, E[erf(u1) erf(u2)] = (2/pi) arcsin(2qc/(1 + 2q)),
# E[erf'(u)^2] = (4/pi) / sqrt(1 + 4q) and E[erf''(u)^2] = (16 q/pi) (1 + 4q)^(-3/2).


def _erf_derivatives(h, order):
    h = np.asarray(h, dtype=float)
    d1 = (2.0 / math.sqrt(math.pi)) * np.exp(-h * h)
    return (erf(h), d1, -2.0 * h * d1)[:order + 1]


ERF = Nonlinearity(name="erf", derivatives=_erf_derivatives, monotone_nondecreasing=True,
                   dynamic_range=2.0)


def erf_length_map(q, sigma_w, sigma_b):
    return sigma_w**2 * (2.0 / math.pi) * math.asin(2.0 * q / (1.0 + 2.0 * q)) + sigma_b**2


def erf_c_map(c, q_star, sigma_w, sigma_b):
    moment = (2.0 / math.pi) * math.asin(2.0 * q_star * c / (1.0 + 2.0 * q_star))
    return (sigma_w**2 * moment + sigma_b**2) / q_star


def erf_chi1(q_star, sigma_w):
    return sigma_w**2 * (4.0 / math.pi) / math.sqrt(1.0 + 4.0 * q_star)


def erf_chi2(q_star, sigma_w):
    return sigma_w**2 * (16.0 * q_star / math.pi) * (1.0 + 4.0 * q_star) ** -1.5


def erf_q_star(sigma_w, sigma_b):
    """The fixed point of erf_length_map for sigma_b > 0, bisected to the ulp:
    V(0) = sigma_b^2 > 0 and V(q) < sigma_w^2 + sigma_b^2 for every q."""
    return bisect_root(lambda q: erf_length_map(q, sigma_w, sigma_b) - q,
                       0.0, sigma_w**2 + sigma_b**2 + 1.0)


# ---------------------------------------------------------------------------
# experiments on whole networks (the experiments' seeds and inputs)


def length_whole_network(params, q0, depth, width, seeds):
    """Per-layer squared length of length_agreement's input, averaged over seeds."""
    acc = np.zeros(depth)
    for s in seeds:
        net = sim.sample_network((width,) * (depth + 1), params, s)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=s, spawn_key=(101,)))
        x0 = rng.normal(size=width)
        x0 *= math.sqrt(width * q0) / np.linalg.norm(x0)
        acc += np.array([sim.empirical_length(r.h) for r in sim.forward(net, x0)])
    return acc / len(seeds)


def correlation_whole_network(params, q_star, c0, depth, width, seeds, n_orientations=8):
    """Per-layer pair correlation of correlation_agreement's pairs, averaged."""
    acc = np.zeros(depth)
    for s in seeds:
        net = sim.sample_network((width,) * (depth + 1), params, s)
        pairs = np.concatenate([
            sim.pair_at_correlation(width, q_star, c0, seed=1_000_000 * (o + 1) + s)
            for o in range(n_orientations)])
        records = sim.forward_from_first(net, pairs)
        for o in range(n_orientations):
            acc += np.array([sim.empirical_correlation(r.h[2 * o], r.h[2 * o + 1])[3]
                             for r in records])
    return acc / (len(seeds) * n_orientations)


def circle_whole_network(params, q_star, depth, width, n_theta, seed, jets):
    """(circle, records) for the circle at seed + 50 on the network of
    `seed`: forward_jet's records if `jets`, else forward_from_first's."""
    net = sim.sample_network((width,) * (depth + 1), params, seed)
    circle = sim.CircleManifold.sample(width, q_star, n_theta, seed + 50)
    if jets:
        return circle, sim.forward_jet(net, circle)
    return circle, sim.forward_from_first(net, circle.h1())


def jet_errors_whole_network(params, q_star, widths, thetas, delta, seed, circle_seed):
    """jet_errors' [velocity, acceleration] error per layer, from forward_jet
    and forward_from_first on the whole network of `seed`."""
    net = sim.sample_network(widths, params, seed)
    circle = sim.CircleManifold.sample(widths[1], q_star, len(thetas), circle_seed).at(thetas)
    plus = sim.forward_from_first(net, circle.at(circle.thetas + delta).h1())
    minus = sim.forward_from_first(net, circle.at(circle.thetas - delta).h1())
    errors = []
    for rec, p, m in zip(sim.forward_jet(net, circle), plus, minus):
        v_fd = (p.h - m.h) / (2.0 * delta)
        a_fd = (p.h - 2.0 * rec.h + m.h) / delta**2
        errors.append([np.max(np.linalg.norm(fd - exact, axis=1) / np.linalg.norm(exact, axis=1))
                       for fd, exact in ((v_fd, rec.v), (a_fd, rec.a))])
    return np.array(errors)
