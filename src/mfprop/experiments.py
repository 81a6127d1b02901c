"""One definition of each theory-against-simulation experiment.

The CLI, the acceptance suite and `scripts/` run these functions, so each
experiment's seeds, inputs and averaging exist once.  Each returns the
theory next to the measured arrays: the CLI formats them, the acceptance
suite applies thresholds to them and the scripts write them.

Realization k of an ensemble with base seed s is the network of seed s + k.
Its layers come from `simulator._layers`, drawn once per realization and
shared by every case of a call (common random numbers), and each layer is
dropped before the next is drawn.
Inputs come from streams derived from the network seed:

* length inputs: SeedSequence(seed, spawn_key=(101,));
* correlated pairs: orientation o = 0..7 at seed 1_000_000 (o + 1) + seed;
* circles at q*: seed + 50 (the jet check takes its circle's seed);
* boundary readouts: SeedSequence(seed, spawn_key=(202,)), with searches
  started from seed + 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from . import boundary as bd
from . import expressivity as ex
from . import simulator as sim
from .errors import DegenerateGeometryError, _require_count, _require_positive_q_star
from .geometry import CurveJet, curve_geometry
from .meanfield import (
    CorrelationTrajectory,
    CurvatureTrajectory,
    EnsembleParams,
    LengthTrajectory,
    correlation_trajectory,
    curvature_trajectory,
    length_fixed_point,
    length_trajectory,
)
from .quadrature import QuadratureRule

# Pair orientations averaged per realization: one pair carries ~0.06
# correlation noise through the chaotic transient at width 1000.
N_ORIENTATIONS = 8


@dataclass(frozen=True)
class LengthAgreement:
    theory: LengthTrajectory
    q_emp: np.ndarray         # per layer, mean over realizations


@dataclass(frozen=True)
class CorrelationAgreement:
    theory: CorrelationTrajectory
    c_emp: np.ndarray         # per layer, mean over realizations and orientations


@dataclass(frozen=True)
class CurvatureAgreement:
    theory: CurvatureTrajectory
    gE_bar: np.ndarray        # per layer, circle mean of gE / N
    kappa_sq: np.ndarray      # per layer, circle mean of N kappa^2
    LG: np.ndarray            # per layer, Gauss-map length


def _realization_seeds(seed: int, n_seeds: int) -> list[int]:
    _require_count("n_seeds", n_seeds)
    return [seed + k for k in range(n_seeds)]


def _from_first_layer(params: EnsembleParams, depth: int, width: int, seed: int,
                      first: list[np.ndarray]) -> Iterator[sim.LayerRecord]:
    """The records of `forward_from_first` (one block) or `forward_jet`
    (three) on the network of `seed`, streamed: each layer 2..depth is drawn
    as it is needed and dropped before the next is drawn (one layer is held
    at a time), each record is yielded when its product is done, and W^1,
    b^1 are never drawn."""
    # a `map`, not a generator, so no frame keeps (W, b) while the next is drawn
    layers = map(itemgetter(2, 3), sim._layers((width,) * (depth + 1), [params], seed, first=2))
    return sim._propagate(layers, params.nonlinearity, first)


def length_agreement(cases: Sequence[tuple[EnsembleParams, float]], depth: int, width: int,
                     seed: int, n_seeds: int, rule: QuadratureRule) -> list[LengthAgreement]:
    """Per-layer squared length of an input at q0 against the length map,
    for each case (params, q0), on networks shared by the cases."""
    seeds = _realization_seeds(seed, n_seeds)
    params = [p for p, _ in cases]
    theories = [length_trajectory(q0, depth, p, rule) for p, q0 in cases]
    acc = np.zeros((len(cases), depth))
    for s in seeds:
        layers = sim._layers((width,) * (depth + 1), params, s)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=s, spawn_key=(101,)))
        g = rng.normal(size=width)
        h = [g[None] * (math.sqrt(width * q0) / np.linalg.norm(g)) for _, q0 in cases]
        for l, k, w, b in layers:
            if l == 1:    # the input enters through W^1 without phi
                h[k] = h[k] @ w.T + b
            else:
                h[k], = sim._advance([h[k]], w, b, params[k].nonlinearity)
            del w, b
            acc[k, l - 1] += sim.empirical_length(h[k][0])
    acc /= len(seeds)
    return [LengthAgreement(theory=t, q_emp=a) for t, a in zip(theories, acc)]


def correlation_agreement(cases: Sequence[tuple[EnsembleParams, float]], depth: int,
                          width: int, seed: int, n_seeds: int,
                          rule: QuadratureRule) -> list[CorrelationAgreement]:
    """Per-layer correlation of pairs injected at q* with correlation c0,
    for each case (params, c0), on networks shared by the cases."""
    seeds = _realization_seeds(seed, n_seeds)
    params = [p for p, _ in cases]
    theories = [correlation_trajectory(c0, depth, p, rule) for p, c0 in cases]
    acc = np.zeros((len(cases), depth))

    def measure(k: int, l: int, h: np.ndarray) -> None:
        # orientation o is rows 2o (A) and 2o + 1 (B)
        for orient in range(N_ORIENTATIONS):
            acc[k, l - 1] += sim.empirical_correlation(h[2 * orient], h[2 * orient + 1])[3]

    for s in seeds:
        layers = sim._layers((width,) * (depth + 1), params, s, first=2)
        h = [np.concatenate([
            sim.pair_at_correlation(width, t.chi.q_star, c0, seed=1_000_000 * (orient + 1) + s)
            for orient in range(N_ORIENTATIONS)
        ]) for (_, c0), t in zip(cases, theories)]
        for k in range(len(cases)):
            measure(k, 1, h[k])
        for l, k, w, b in layers:
            h[k], = sim._advance([h[k]], w, b, params[k].nonlinearity)
            del w, b
            measure(k, l, h[k])
    acc /= len(seeds) * N_ORIENTATIONS
    return [CorrelationAgreement(theory=t, c_emp=a) for t, a in zip(theories, acc)]


def curvature_agreement(params: EnsembleParams, depth: int, width: int, n_theta: int,
                        seed: int, rule: QuadratureRule) -> CurvatureAgreement:
    """Jets of a circle at q* against the metric and curvature recursions."""
    theory = curvature_trajectory(depth, params, rule)
    circle = sim.CircleManifold.sample(width, theory.chi.q_star, n_theta, seed + 50)
    jets = _from_first_layer(params, depth, width, seed, [circle.h1(), circle.v1(), circle.a1()])
    gE_bar, kappa_sq, lg = np.empty(depth), np.empty(depth), np.empty(depth)
    for l, rec in enumerate(jets):
        geom = curve_geometry(CurveJet(circle.thetas, rec.h, rec.v, rec.a))
        gE_bar[l] = geom.gE_norm.mean()
        kappa_sq[l] = (geom.kappa_norm**2).mean()
        lg[l] = geom.LG
    return CurvatureAgreement(theory=theory, gE_bar=gE_bar, kappa_sq=kappa_sq, LG=lg)


def jet_errors(params: EnsembleParams, widths: Sequence[int], thetas: np.ndarray, delta: float,
               seed: int, circle_seed: int, rule: QuadratureRule) -> np.ndarray:
    """[velocity, acceleration] error per layer: max over `thetas` of |fd - jet| / |jet| for the
    jets of a circle at q* and central differences fd of step `delta`, read off one layer stream."""
    layers = sim._layers(widths, [params], seed, first=2)
    q_star = _require_positive_q_star(length_fixed_point(params, rule), "jets of a circle at q*")
    circle = sim.CircleManifold.sample(widths[1], q_star, len(thetas), circle_seed).at(thetas)
    jet = [circle.h1(), circle.v1(), circle.a1()]
    plus, minus = circle.at(circle.thetas + delta).h1(), circle.at(circle.thetas - delta).h1()

    def errors() -> list[float]:
        fds = (plus - minus) / (2.0 * delta), (plus - 2.0 * jet[0] + minus) / delta**2
        return [np.max(np.linalg.norm(fd - x, axis=1) / np.linalg.norm(x, axis=1))
                for fd, x in zip(fds, jet[1:])]

    measured = [errors()]
    for _, _, w, b in layers:
        jet, [plus], [minus] = (sim._advance(x, w, b, params.nonlinearity)
                                for x in (jet, [plus], [minus]))
        del w, b
        measured.append(errors())
    return np.array(measured)


def boundary_curvature(params: EnsembleParams, depth: int, width: int, n_points: int,
                       seed: int, rule: QuadratureRule) -> list[bd.LayerCurvatureSummary]:
    """Principal curvatures of a random readout's boundary at every layer.

    Searches start from inputs scaled to the fixed-point activity,
    sqrt((q* - sigma_b^2) / sigma_w^2) per coordinate, pushed through the
    network prefix, so each start carries its layer's activity statistics.
    """
    # curvature_vs_depth's size rules, checked before the network is drawn
    _require_count("depth", depth, 2)
    _require_count("n_points", n_points)
    # refuse an activation without phi'' before the q* solve, which fails
    # first (expansive map) for a kinked phi at large sigma_w
    params.nonlinearity.derivatives(np.zeros(1), 2)
    if params.sigma_w == 0:
        raise DegenerateGeometryError(
            "boundary curvature needs sigma_w > 0: at sigma_w = 0 the readout "
            "is constant in every layer's activity")
    q_star = _require_positive_q_star(length_fixed_point(params, rule), "boundary curvature")
    activity_scale = math.sqrt((q_star - params.sigma_b**2) / params.sigma_w**2)
    net = sim.sample_network((width,) * (depth + 1), params, seed)
    beta_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(202,)))
    readout = bd.LinearReadout(beta=beta_rng.normal(size=width))
    return bd.curvature_vs_depth(net, readout, n_points, seed + 5, init_scale=activity_scale)


def circle_at_fixed_point(params: EnsembleParams, depth: int, width: int, n_theta: int,
                          rule: QuadratureRule,
                          seed: int) -> tuple[float, Iterator[sim.LayerRecord]]:
    """(q*, records): a circle of radius sqrt(N q*) at layer 1, propagated to
    layer `depth`.  The records are a stream, made one layer at a time as
    they are read, and can be read once."""
    q_star = _require_positive_q_star(length_fixed_point(params, rule),
                                      "a circle at the fixed-point radius")
    circle = sim.CircleManifold.sample(width, q_star, n_theta, seed + 50)
    return q_star, _from_first_layer(params, depth, width, seed, [circle.h1()])


def fourier_errors(params: EnsembleParams, depths, width: int, omega_max: int, n_theta: int,
                   seed: int, rule: QuadratureRule) -> dict[int, ex.FourierErrorProfile]:
    """{l: Fourier regression error profile of phi(h^l) up to `omega_max`}
    for each layer l in `depths`, in layer order, on `circle_at_fixed_point`'s
    circle of `seed`."""
    depths = set(depths)
    if not depths or min(depths) < 1:
        raise ValueError(f"depths must be a nonempty list of integers >= 1, got {sorted(depths)}")
    probe = ex.uniform_probe(omega_max, n_theta)
    _, records = circle_at_fixed_point(params, max(depths), width, n_theta, rule, seed)
    return {rec.layer: ex.fourier_error_profile(params.nonlinearity.value(rec.h), probe)
            for rec in records if rec.layer in depths}
