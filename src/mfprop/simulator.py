"""Finite-width Monte-Carlo simulator for random deep networks.

Samples concrete realizations of the Gaussian network ensemble (weights
i.i.d. N(0, sigma_w^2 / fan_in), biases N(0, sigma_b^2)) and propagates
points, point pairs, circle manifolds, and exact derivative jets through

    x^l = phi(h^l),    h^l = W^l x^{l-1} + b^l.

Derivative jets along a 1-D manifold coordinate theta follow the chain
rule layer by layer:

    v^l = W^l ( phi'(h^{l-1}) . v^{l-1} )
    a^l = W^l ( phi''(h^{l-1}) . v^{l-1} . v^{l-1} + phi'(h^{l-1}) . a^{l-1} )

Points and jets share one layer loop, a generator: at jet order k (0 for
points, 1 with velocities, 2 with accelerations) each layer evaluates the
activation once, as `derivatives(h, k)`, multiplies W with the stacked rows
[phi; phi' v; phi'' v v + phi' a] in one product, and yields the layer's
record.  `forward`, `forward_from_first` and `forward_jet` collect it.

Every layer is drawn by one function, `_fill`: standard normals from an
independent child of the realization seed, so truncating the depth never
changes shallower layers, later scaled by sigma_w / sqrt(fan_in) and
sigma_b, which gives the bytes of Generator.normal.  A network used for one
pass (weight chaos, the experiments) is propagated from a stream, `_layers`,
without being held whole: each layer is drawn when it is asked for, and the
stream keeps no layer it has yielded, so a consumer that drops each layer
before asking for the next holds one.  The experiments reduce each layer's
record before the next is made; the length and correlation experiments
draw each layer once for all their cases.  `sample_network` keeps every
layer, so it draws all of them at once on a process-wide thread pool; the
bytes are identical to drawing them one after another.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .activations import Nonlinearity
from .errors import _require_count, _require_length, _require_positive_q_star
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
        _require_length("q", self.q)
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
        _require_count("width", width, 2)
        _require_count("n_theta", n_theta)
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


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _new_pool() -> ThreadPoolExecutor:
    # starts no thread before its first submit
    return ThreadPoolExecutor(max_workers=_cores(), thread_name_prefix="mfprop-draw")


_POOL = _new_pool()


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads; it
    # would wait forever on its first task, so it gets a pool of its own.
    global _POOL
    _POOL = _new_pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _seeded(widths: Sequence[int],
            seed: int) -> tuple[tuple[int, ...], list[np.random.SeedSequence]]:
    """The checked widths and, for each layer l, the seed of its draw:
    child l - 1 of SeedSequence(seed)."""
    widths = tuple(int(n) for n in widths)
    _require_count("depth", len(widths) - 1)
    if any(n < 1 for n in widths):
        raise ValueError(f"all widths must be >= 1, got {widths}")
    return widths, np.random.SeedSequence(seed).spawn(len(widths) - 1)


def _fill(child: np.random.SeedSequence, z: np.ndarray, z_b: np.ndarray) -> None:
    """Fill z = Z^l, then z_b = z_b^l, with standard normals from `child`,
    the seed of layer l alone, so a layer's bytes depend on neither the
    layers drawn before it nor the depth.  Every layer is drawn here."""
    rng = np.random.default_rng(child)
    rng.standard_normal(out=z)
    rng.standard_normal(out=z_b)


def _layers(widths: Sequence[int], cases: Sequence[EnsembleParams], seed: int,
            first: int = 1) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield (l, k, W^l, b^l) of the network of `seed` at each cases[k], for
    layers l = first..D in order; deterministic for a given seed.

    Layer l is drawn (`_fill`) when it is asked for, on the caller's thread,
    and scaled to W^l = Z^l sigma_w / sqrt(N_{l-1}) and b^l = z_b^l sigma_b
    (`_scaled`).  Each layer is drawn once for all the cases (common random
    numbers) and scaled once per distinct sigma_w: the last sigma_w in
    place, since Z^l is not read after it, and the others into one buffer
    that they and every layer of their shape reuse; the layer's last b^l is
    z_b^l scaled in place.  So a single case holds no array beyond the
    draws, and every case gets the bytes of its network drawn alone.

    The stream keeps no reference to a layer it has yielded once the next
    is asked for, so a caller that releases each layer before asking for
    the next holds one layer, not D.  Drawing the next layer on a thread
    pool while the caller worked on this one held two layers and was no
    faster on perfbench's manifold-probe (README).
    """
    widths, children = _seeded(widths, seed)
    if not cases:
        raise ValueError("cases must list at least one ensemble, got none")
    by_sigma_w: dict[float, list[int]] = {}
    for k, p in enumerate(cases):
        by_sigma_w.setdefault(p.sigma_w, []).append(k)
    groups = list(by_sigma_w.items())
    last = groups[-1][1][-1]    # the case whose b^l is the layer's last

    def layers() -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        buf = None
        for l in range(first, len(widths)):
            z, z_b = np.empty((widths[l], widths[l - 1])), np.empty(widths[l])
            _fill(children[l - 1], z, z_b)
            fan_in = math.sqrt(widths[l - 1])
            for i, (sigma_w, ks) in enumerate(groups):
                if i == len(groups) - 1:    # Z^l is not read after this
                    w = _scaled(z, sigma_w / fan_in, out=z)
                else:
                    if buf is None or buf.shape != z.shape:
                        buf = np.empty_like(z)
                    w = _scaled(z, sigma_w / fan_in, out=buf)
                for k in ks:
                    b = _scaled(z_b, cases[k].sigma_b, out=z_b if k == last else None)
                    yield l, k, w, b
            # no name here keeps the layer while the next one is drawn
            z = z_b = w = b = None

    # the arguments above are checked at the call, before the first layer is read
    return layers()


def _scaled(z: np.ndarray, scale: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """z * scale + 0.0, into `out` (z itself for in place, a new array if None).

    The bytes are those of Generator.normal(0, scale), which computes
    0 + scale * z: adding 0.0 turns the -0.0 of a negative draw times a
    zero scale into +0.0."""
    out = np.multiply(z, scale, out=out)
    out += 0.0
    return out


def sample_network(widths: Sequence[int], params: EnsembleParams, seed: int) -> NetworkRealization:
    """Draw one realization; deterministic for a given seed.

    The layers are those `_layers(widths, [params], seed)` yields, each
    scaled in place, but all drawn at once on a process-wide thread pool
    with one worker per core this process may run on; numpy's Generator
    fills arrays without holding the GIL, so the layers are drawn in
    parallel, with the bytes of drawing them one after another.  Drawing
    them one ahead of the one in use instead made perfbench's ensemble-sim
    slower in every pair of BENCH_sample_ahead.json (README).

    The arrays are allocated here, on the caller's thread, and the tasks
    only fill them.  An array a worker allocates comes from that worker's
    malloc arena, and once freed it goes back there, where the caller's
    next allocation cannot reuse it, so the process's peak grows by those
    arenas.  The price is page faults: the caller's arena hands freed
    layers back to the system more often.  README gives both, and
    BENCH_two_layers.json the peak RSS of each perfbench workload.

    The pool lives for the whole process.  A pool made per call starts its
    threads again on every call, which made perfbench's ensemble-sim
    operations slower in every one of 15 alternating pairs, with no lower
    wall time.

    Rules for the pool's tasks:
    * a task must not submit work to this pool itself: a task waiting on a
      nested task can deadlock a pool with as few workers as cores;
    * a task calls only numpy, never a public function of quadrature,
      meanfield, simulator, geometry, boundary or expressivity, whose
      callers may trace them on a single per-process span stack that
      worker threads would corrupt.
    """
    widths, children = _seeded(widths, seed)
    draws = [(np.empty((m, n)), np.empty(m)) for n, m in zip(widths, widths[1:])]
    futures = [_POOL.submit(_fill, child, *draw) for child, draw in zip(children, draws)]
    for future, (z, z_b) in zip(futures, draws):
        future.result()    # each layer is scaled while the later ones are drawn
        _scaled(z, params.sigma_w / math.sqrt(z.shape[1]), out=z)
        _scaled(z_b, params.sigma_b, out=z_b)
    weights, biases = zip(*draws)
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
    records = _propagate(zip(net.weights[1:], net.biases[1:]), net.nonlinearity, [H])
    return [LayerRecord(r.layer, r.h[0]) if h1.ndim == 1 else r for r in records]


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
    return list(_propagate(zip(net.weights[1:], net.biases[1:]), net.nonlinearity, first))


def _propagate(layers: Iterable[tuple[np.ndarray, np.ndarray]], nonlinearity: Nonlinearity,
               first: list[np.ndarray]) -> Iterator[LayerRecord]:
    """Yield the record of layer 1 and of each of `layers` (W^l, b^l), from
    [h], [h, v] or [h, v, a] at layer 1.

    The jet order is len(first) - 1.  The blocks of a layer are row blocks
    of its one product (module docstring); at order 0 that is phi(h) W^T.
    `layers` is consumed once, in order, so it may be a stream of draws, and
    each record is yielded as soon as its product is done: a consumer that
    reduces one record before asking for the next holds one layer's arrays,
    not the network's.  A layer of `layers` is released before the record
    is yielded, so a stream of draws holds one layer, not two.
    """
    blocks = first
    yield LayerRecord(1, *blocks)
    l = 1
    # not enumerate: its cached result tuple would keep the previous layer
    for W, b in layers:
        l += 1
        blocks = _advance(blocks, W, b, nonlinearity)
        del W, b
        yield LayerRecord(l, *blocks)


def _advance(blocks: list[np.ndarray], W: np.ndarray, b: np.ndarray,
             nonlinearity: Nonlinearity, out: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """The next layer's [h], [h, v] or [h, v, a] from this layer's, through
    (W, b): one product on the stacked rows (module docstring), written into
    `out` of shape ((order + 1) n, N_l) if given.  `out` may be the memory
    of `blocks` (numpy copies an operand that overlaps it first), with the
    bytes of a new array."""
    H, *jet = blocks
    order, n = len(jet), H.shape[0]
    d = nonlinearity.derivatives(H, order)
    if order == 0:
        stacked = d[0]
    else:
        stacked = np.empty(((order + 1) * n, H.shape[1]))
        stacked[:n] = d[0]
        np.multiply(d[1], jet[0], out=stacked[n:2 * n])
        if order == 2:
            stacked[2 * n:] = d[2] * jet[0] * jet[0] + d[1] * jet[1]
    out = np.matmul(stacked, W.T, out=out)
    del d, stacked    # numpy takes a buffer to add b; phi need not be held beside it
    blocks = [out[k * n:(k + 1) * n] for k in range(order + 1)]
    blocks[0] += b
    return blocks


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
    if not abs(c) <= 1.0:
        raise ValueError(f"c must lie in [-1, 1], got {c!r}")
    circle = CircleManifold.sample(width, 1.0, 1, seed)
    r = math.sqrt(width * q)
    hA = r * circle.u0
    hB = r * (c * circle.u0 + math.sqrt(1.0 - c * c) * circle.u1)
    return hA, hB


def autocorrelation(h: np.ndarray, q_star: float) -> tuple[np.ndarray, np.ndarray]:
    """Angular autocorrelation of manifold activity at one layer.

    `h` has shape (n_theta, N) on a uniform theta grid.  Returns
    (delta_thetas, c) where c[k] averages (1/N) h(theta).h(theta+dtheta_k)
    over theta, normalized by q_star; q* = 0 raises DegenerateGeometryError.
    """
    _require_positive_q_star(q_star, "the autocorrelation")
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


def singular_spectrum(h: np.ndarray, top_k: int = 5) -> SpectrumResult:
    """Singular values of mean-centered manifold activity (n_theta, N).

    LAPACK is handed the orientation with at least as many rows as columns
    (the transpose when n_theta < N); the singular values are the same, and
    its wide-matrix path is the slower one.
    """
    _require_count("top_k", top_k)
    h = np.asarray(h, dtype=float)
    if h.ndim != 2:
        raise ValueError("h must have shape (n_theta, N)")
    if h.shape[0] < 2:
        raise ValueError("need at least 2 theta samples")
    centered = h - h.mean(axis=0)
    tall = centered if centered.shape[0] >= centered.shape[1] else centered.T
    s = np.linalg.svd(tall, compute_uv=False)
    total = float(np.sum(s * s))
    scale = float(np.abs(h).max())
    if total <= (1e-12 * max(scale, 1.0)) ** 2:   # constant rows: report zeros
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
    )
