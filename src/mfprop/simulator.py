"""Finite-width Monte-Carlo simulator for random deep networks.

Samples concrete realizations of the Gaussian network ensemble (weights
i.i.d. N(0, sigma_w^2 / fan_in), biases N(0, sigma_b^2)) and propagates
points, point pairs, circle manifolds, and exact derivative jets through

    x^l = phi(h^l),    h^l = W^l x^{l-1} + b^l.

Derivative jets along a 1-D manifold coordinate theta follow the chain
rule layer by layer:

    v^l = W^l ( phi'(h^{l-1}) . v^{l-1} )
    a^l = W^l ( phi''(h^{l-1}) . v^{l-1} . v^{l-1} + phi'(h^{l-1}) . a^{l-1} )

Points and jets share one layer loop: at jet order k (0 for points, 1
with velocities, 2 with accelerations) each layer evaluates the activation
once, as `derivatives(h, k)`, and multiplies W with the stacked rows
[phi; phi' v; phi'' v v + phi' a] in one product.

Each layer draws from an independent child of the realization seed, so
truncating the depth never changes shallower layers.  Layers are drawn
concurrently on a process-wide thread pool with one worker per available
core; the bytes are identical to drawing them one after another.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .activations import Nonlinearity
from .meanfield import EnsembleParams


@dataclass(frozen=True)
class NetworkRealization:
    """One sampled network: weights W^1..W^D and biases b^1..b^D."""

    widths: tuple[int, ...]              # N_0 .. N_D
    weights: tuple[np.ndarray, ...]      # W^l of shape (N_l, N_{l-1})
    biases: tuple[np.ndarray, ...]       # b^l of shape (N_l,)
    nonlinearity: Nonlinearity

    def __post_init__(self):
        depth = len(self.weights)
        if depth != len(self.biases) or depth != len(self.widths) - 1:
            raise ValueError("inconsistent widths/weights/biases")
        for l, (w, b) in enumerate(zip(self.weights, self.biases), start=1):
            if w.shape != (self.widths[l], self.widths[l - 1]) or b.shape != (self.widths[l],):
                raise ValueError(f"layer {l} matrices do not match widths")

    @property
    def depth(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class LayerRecord:
    """Pre-activations (and optional jet arrays) at one layer."""

    layer: int
    h: np.ndarray
    v: Optional[np.ndarray] = None
    a: Optional[np.ndarray] = None


@dataclass(frozen=True)
class CircleManifold:
    """A circle of squared radius-per-neuron q in a random 2-D subspace."""

    width: int
    q: float
    u0: np.ndarray
    u1: np.ndarray
    thetas: np.ndarray

    def __post_init__(self):
        if self.q < 0:
            raise ValueError("q must be nonnegative")
        for u in (self.u0, self.u1):
            if u.shape != (self.width,):
                raise ValueError("basis vectors must have shape (width,)")
        if abs(self.u0 @ self.u0 - 1.0) > 1e-12 or abs(self.u1 @ self.u1 - 1.0) > 1e-12:
            raise ValueError("basis vectors must be unit norm")
        if abs(self.u0 @ self.u1) > 1e-12:
            raise ValueError("basis vectors must be orthogonal")

    @classmethod
    def sample(cls, width: int, q: float, n_theta: int, seed: int) -> "CircleManifold":
        """Orthonormalize two Gaussian vectors (rotation-invariant choice)."""
        if width < 2:
            raise ValueError("circle needs ambient width >= 2")
        if n_theta < 1:
            raise ValueError("n_theta must be >= 1")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        g0, g1 = rng.normal(size=(2, width))
        u0 = g0 / np.linalg.norm(g0)
        u1 = g1 - (g1 @ u0) * u0
        u1 /= np.linalg.norm(u1)
        thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
        return cls(width=width, q=q, u0=u0, u1=u1, thetas=thetas)

    def at(self, thetas: np.ndarray) -> "CircleManifold":
        """Same circle sampled on a different theta grid."""
        return replace(self, thetas=np.asarray(thetas, dtype=float))

    def _radius(self) -> float:
        return math.sqrt(self.width * self.q)

    def h1(self) -> np.ndarray:
        r = self._radius()
        c, s = np.cos(self.thetas), np.sin(self.thetas)
        return r * (c[:, None] * self.u0[None, :] + s[:, None] * self.u1[None, :])

    def v1(self) -> np.ndarray:
        r = self._radius()
        c, s = np.cos(self.thetas), np.sin(self.thetas)
        return r * (-s[:, None] * self.u0[None, :] + c[:, None] * self.u1[None, :])

    def a1(self) -> np.ndarray:
        return -self.h1()


_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _parallel_map(fn: Callable, items: Iterable) -> list:
    """[fn(item) for item in items], run on the process-wide draw pool.

    The pool is created on first use with one worker per core this process
    may run on; numpy's Generator fills arrays without holding the GIL, so
    independent streams are drawn in parallel.  Results keep the order of
    `items`.

    The pool lives for the whole process.  A pool made per call starts its
    threads again on every `sample_network`, and on perfbench's ensemble-sim
    workload (2-core box, alternating pairs against this pool) that raised
    the median operation from 165.9 to 186.1 ms in one set of 10 pairs
    (slower in 10/10) and from 187.7 to 194.8 ms in another set of 5
    (slower in 5/5), with no lower wall time in either set.

    Rules for `fn`:
    * it must not submit work to this pool itself: a task waiting on a
      nested task can deadlock a pool with as few workers as cores;
    * it calls only numpy, never a public function of quadrature,
      meanfield, simulator, geometry, boundary or expressivity, whose
      callers may trace them on a single per-process span stack that
      worker threads would corrupt.
    """
    global _POOL
    if _POOL is None:
        with _POOL_LOCK:
            if _POOL is None:
                if hasattr(os, "sched_getaffinity"):
                    cores = len(os.sched_getaffinity(0))
                else:
                    cores = os.cpu_count() or 1
                _POOL = ThreadPoolExecutor(max_workers=cores,
                                           thread_name_prefix="mfprop-draw")
    return list(_POOL.map(fn, items))


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads; it
    # would wait forever on its first task, so it starts a pool of its own.
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def sample_network(widths: Sequence[int], params: EnsembleParams, seed: int) -> NetworkRealization:
    """Draw one realization; deterministic for a given seed.

    Layer l draws W^l then b^l from child l of SeedSequence(seed); the
    layers are drawn concurrently, with bytes identical to a serial loop.
    """
    widths = tuple(int(n) for n in widths)
    if len(widths) < 2:
        raise ValueError("widths must list N_0..N_D with depth >= 1")
    if any(n < 1 for n in widths):
        raise ValueError(f"all widths must be >= 1, got {widths}")
    depth = len(widths) - 1
    children = np.random.SeedSequence(seed).spawn(depth)

    def draw_layer(l: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(children[l - 1])
        fan_in = widths[l - 1]
        w = rng.normal(0.0, params.sigma_w / math.sqrt(fan_in), size=(widths[l], fan_in))
        b = rng.normal(0.0, params.sigma_b, size=widths[l])
        return w, b

    weights, biases = zip(*_parallel_map(draw_layer, range(1, depth + 1)))
    return NetworkRealization(
        widths=widths,
        weights=weights,
        biases=biases,
        nonlinearity=params.nonlinearity,
    )


def forward(net: NetworkRealization, x0: np.ndarray) -> list[LayerRecord]:
    """Propagate input-layer activity x0; returns h^1..h^D.

    x0 may be a single vector (N_0,) or a batch (P, N_0); records keep the
    input's dimensionality.
    """
    x0 = np.asarray(x0, dtype=float)
    X = np.atleast_2d(x0)
    if X.shape[1] != net.widths[0]:
        raise ValueError(f"input has dimension {X.shape[1]}, expected {net.widths[0]}")
    h1 = X @ net.weights[0].T + net.biases[0]
    return forward_from_first(net, h1[0] if x0.ndim == 1 else h1)


def forward_from_first(net: NetworkRealization, h1: np.ndarray) -> list[LayerRecord]:
    """Propagate given first-layer pre-activations h^1 (manifold entry point)."""
    h1 = np.asarray(h1, dtype=float)
    H = np.atleast_2d(h1)
    if H.shape[1] != net.widths[1]:
        raise ValueError(f"h1 has dimension {H.shape[1]}, expected {net.widths[1]}")
    return [LayerRecord(layer=l, h=blocks[0][0] if h1.ndim == 1 else blocks[0])
            for l, blocks in enumerate(_propagate(net, [H]), start=1)]


def forward_jet(
    net: NetworkRealization,
    manifold: CircleManifold,
    *,
    acceleration: bool = True,
) -> list[LayerRecord]:
    """Propagate the circle with exact theta-derivatives at every layer.

    Acceleration propagation needs phi'' below the first layer, so an
    activation without a smooth one raises UnsupportedActivationError at
    depth >= 2; pass acceleration=False to propagate velocities only.
    """
    if manifold.width != net.widths[1]:
        raise ValueError(f"manifold width {manifold.width} != first layer width {net.widths[1]}")
    first = [manifold.h1(), manifold.v1()] + ([manifold.a1()] if acceleration else [])
    return [LayerRecord(l, *blocks) for l, blocks in enumerate(_propagate(net, first), start=1)]


def _propagate(net: NetworkRealization, first: list[np.ndarray]) -> list[list[np.ndarray]]:
    """[h], [h, v] or [h, v, a] at layers 1..D, from those of layer 1.

    The jet order is len(first) - 1.  The blocks of a layer are row blocks
    of its one product (module docstring); at order 0 that is phi(h) W^T.
    """
    derivatives = net.nonlinearity.derivatives
    order = len(first) - 1
    n = first[0].shape[0]
    layers = [first]
    for W, b in zip(net.weights[1:], net.biases[1:]):
        H, *jet = layers[-1]
        d = derivatives(H, order)
        if order == 0:
            stacked = d[0]
        else:
            stacked = np.empty(((order + 1) * n, H.shape[1]))
            stacked[:n] = d[0]
            np.multiply(d[1], jet[0], out=stacked[n:2 * n])
            if order == 2:
                stacked[2 * n:] = d[2] * jet[0] * jet[0] + d[1] * jet[1]
        out = stacked @ W.T
        blocks = [out[k * n:(k + 1) * n] for k in range(order + 1)]
        blocks[0] += b
        layers.append(blocks)
    return layers


# ---------------------------------------------------------------------------
# measurements


def empirical_length(h: np.ndarray):
    """Mean squared entry along the last axis: q = (1/N) sum_i h_i^2."""
    h = np.asarray(h, dtype=float)
    if h.size == 0:
        raise ValueError("empirical length of an empty vector is undefined")
    out = np.mean(h * h, axis=-1)
    return float(out) if out.ndim == 0 else out


def empirical_correlation(hA: np.ndarray, hB: np.ndarray) -> tuple[float, float, float, float]:
    """(q11, q22, q12, c12) for two same-layer activity vectors."""
    hA = np.asarray(hA, dtype=float)
    hB = np.asarray(hB, dtype=float)
    if hA.shape != hB.shape or hA.ndim != 1:
        raise ValueError("inputs must be two vectors of equal dimension")
    n = hA.size
    q11 = float(hA @ hA) / n
    q22 = float(hB @ hB) / n
    q12 = float(hA @ hB) / n
    if q11 == 0.0 or q22 == 0.0:
        raise ValueError("correlation coefficient undefined for a zero vector")
    return q11, q22, q12, q12 / math.sqrt(q11 * q22)


def pair_at_correlation(width: int, q: float, c: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two vectors with exact Gram matrix q * [[1, c], [c, 1]]."""
    if abs(c) > 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {c!r}")
    circle = CircleManifold.sample(width, 1.0, 1, seed)
    r = math.sqrt(width * q)
    hA = r * circle.u0
    hB = r * (c * circle.u0 + math.sqrt(1.0 - c * c) * circle.u1)
    return hA, hB


def autocorrelation(h: np.ndarray, q_star: float) -> tuple[np.ndarray, np.ndarray]:
    """Angular autocorrelation of manifold activity at one layer.

    `h` has shape (n_theta, N) on a uniform theta grid.  Returns
    (delta_thetas, c) where c[k] averages (1/N) h(theta).h(theta+dtheta_k)
    over theta, normalized by q_star.
    """
    if q_star <= 0.0:
        raise ValueError(f"q_star must be positive, got {q_star!r}")
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] < 1:
        raise ValueError("h must have shape (n_theta, N)")
    n, width = h.shape
    gram = (h @ h.T) / width
    rows = np.arange(n)[:, None]
    cols = (np.arange(n)[None, :] + rows) % n
    c = gram[rows, cols].mean(axis=0) / q_star
    dthetas = 2.0 * math.pi * np.arange(n) / n
    return dthetas, c


@dataclass(frozen=True)
class SpectrumResult:
    singular_values: np.ndarray    # descending
    variance_fractions: np.ndarray
    top_k_fraction: float
    degenerate: bool


def singular_spectrum(h: np.ndarray, top_k: int = 5) -> SpectrumResult:
    """Singular values of mean-centered manifold activity (n_theta, N).

    LAPACK is handed the orientation with at least as many rows as columns
    (the transpose when n_theta < N); the singular values are the same, and
    its wide-matrix path is the slower one.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k!r}")
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] < 2:
        raise ValueError("need at least 2 theta samples")
    centered = h - h.mean(axis=0)
    tall = centered if centered.shape[0] >= centered.shape[1] else centered.T
    s = np.linalg.svd(tall, compute_uv=False)
    total = float(np.sum(s * s))
    scale = float(np.abs(h).max())
    degenerate = total <= (1e-12 * max(scale, 1.0)) ** 2
    if degenerate:
        fractions = np.zeros_like(s)
        s = np.zeros_like(s)
        top_fraction = 0.0
    else:
        fractions = s * s / total
        top_fraction = float(np.sum(fractions[:top_k]))
    return SpectrumResult(
        singular_values=s,
        variance_fractions=fractions,
        top_k_fraction=top_fraction,
        degenerate=degenerate,
    )
