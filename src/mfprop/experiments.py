"""One definition of each theory-against-simulation experiment.

The CLI, the acceptance suite and `scripts/` run these functions, so each
experiment's seeds, inputs and averaging exist once.  Each returns the
theory next to the measured arrays: the CLI formats them, the acceptance
suite applies thresholds to them and the scripts write them.

Realization k of an ensemble with base seed s is the network of seed s + k.
Inputs come from streams derived from the network seed:

* length inputs: SeedSequence(seed, spawn_key=(101,));
* correlated pairs: orientation o = 0..7 at seed 1_000_000 (o + 1) + seed;
* circles at q*: seed + 50;
* boundary readouts: SeedSequence(seed, spawn_key=(202,)), with searches
  started from seed + 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boundary as bd
from . import simulator as sim
from .errors import DegenerateGeometryError
from .geometry import CurveJet, curve_geometry
from .meanfield import (
    CorrelationTrajectory,
    CurvatureTrajectory,
    EnsembleParams,
    LengthTrajectory,
    _require_positive_q_star,
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


@dataclass(frozen=True)
class CircleRun:
    q_star: float
    records: list             # LayerRecord per layer, h of shape (n_theta, width)


def _realization_seeds(seed: int, n_seeds: int) -> list[int]:
    if n_seeds < 1:
        raise ValueError(f"need at least one network realization, got {n_seeds}")
    return [seed + k for k in range(n_seeds)]


def length_agreement(params: EnsembleParams, q0: float, depth: int, width: int,
                     seed: int, n_seeds: int, rule: QuadratureRule) -> LengthAgreement:
    """Per-layer squared length of an input at q0 against the length map."""
    seeds = _realization_seeds(seed, n_seeds)
    theory = length_trajectory(q0, depth, params, rule)
    acc = np.zeros(depth)
    for s in seeds:
        net = sim.sample_network((width,) * (depth + 1), params, s)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=s, spawn_key=(101,)))
        x0 = rng.normal(size=width)
        x0 *= math.sqrt(width * q0) / np.linalg.norm(x0)
        acc += np.array([sim.empirical_length(r.h) for r in sim.forward(net, x0)])
    acc /= len(seeds)
    return LengthAgreement(theory=theory, q_emp=acc)


def correlation_agreement(params: EnsembleParams, c0: float, depth: int, width: int,
                          seed: int, n_seeds: int,
                          rule: QuadratureRule) -> CorrelationAgreement:
    """Per-layer correlation of pairs injected at q* with correlation c0."""
    seeds = _realization_seeds(seed, n_seeds)
    theory = correlation_trajectory(c0, depth, params, rule)
    acc = np.zeros(depth)
    for s in seeds:
        net = sim.sample_network((width,) * (depth + 1), params, s)
        # one pass: orientation o is rows 2o (A) and 2o + 1 (B)
        pairs = np.concatenate([
            sim.pair_at_correlation(width, theory.chi.q_star, c0,
                                    seed=1_000_000 * (orient + 1) + s)
            for orient in range(N_ORIENTATIONS)
        ])
        records = sim.forward_from_first(net, pairs)
        for orient in range(N_ORIENTATIONS):
            acc += np.array([
                sim.empirical_correlation(r.h[2 * orient], r.h[2 * orient + 1])[3]
                for r in records
            ])
    acc /= len(seeds) * N_ORIENTATIONS
    return CorrelationAgreement(theory=theory, c_emp=acc)


def curvature_agreement(params: EnsembleParams, depth: int, width: int, n_theta: int,
                        seed: int, rule: QuadratureRule) -> CurvatureAgreement:
    """Jets of a circle at q* against the metric and curvature recursions."""
    theory = curvature_trajectory(depth, params, rule)
    net = sim.sample_network((width,) * (depth + 1), params, seed)
    circle = sim.CircleManifold.sample(width, theory.chi.q_star, n_theta, seed + 50)
    gE_bar, kappa_sq, lg = np.empty(depth), np.empty(depth), np.empty(depth)
    for l, rec in enumerate(sim.forward_jet(net, circle)):
        geom = curve_geometry(CurveJet(circle.thetas, rec.h, rec.v, rec.a))
        gE_bar[l] = geom.gE_norm.mean()
        kappa_sq[l] = (geom.kappa_norm**2).mean()
        lg[l] = geom.LG
    return CurvatureAgreement(theory=theory, gE_bar=gE_bar, kappa_sq=kappa_sq, LG=lg)


def boundary_curvature(params: EnsembleParams, depth: int, width: int, n_points: int,
                       seed: int, rule: QuadratureRule) -> list[bd.LayerCurvatureSummary]:
    """Principal curvatures of a random readout's boundary at every layer.

    Searches start from inputs scaled to the fixed-point activity,
    sqrt((q* - sigma_b^2) / sigma_w^2) per coordinate, pushed through the
    network prefix, so each start carries its layer's activity statistics.
    """
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
                          rule: QuadratureRule, seed: int) -> CircleRun:
    """A circle of radius sqrt(N q*) at layer 1, propagated to layer `depth`."""
    q_star = _require_positive_q_star(length_fixed_point(params, rule),
                                      "a circle at the fixed-point radius")
    net = sim.sample_network((width,) * (depth + 1), params, seed)
    circle = sim.CircleManifold.sample(width, q_star, n_theta, seed + 50)
    return CircleRun(q_star=q_star, records=sim.forward_from_first(net, circle.h1()))
