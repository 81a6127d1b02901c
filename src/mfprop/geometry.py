"""Riemannian quantities of a sampled closed curve in R^N.

Given per-point position h, velocity v = d h / d theta and acceleration
a = d v / d theta, the curve carries a Euclidean metric gE = v.v and an
extrinsic curvature

    kappa = (v.v)^(-3/2) * sqrt( (v.v)(a.a) - (v.a)^2 ),

the inverse radius of the osculating circle.  The metric induced by the
map to unit tangent directions is gG = kappa^2 * gE.  Lengths are the
closed-curve integrals of sqrt(gE) and sqrt(gG) over theta (periodic
trapezoid).  Per-neuron normalized variants divide out the ambient
dimension: gE/N, kappa*sqrt(N), LE/sqrt(N); the gG integrand is already
dimension-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, _require_count

# Tolerance for Cauchy-Schwarz violations of the curvature radicand that
# are attributable to roundoff (relative to the product (v.v)(a.a)).
_RADICAND_SLACK = 1e-9


@dataclass(frozen=True)
class CurveJet:
    """Positions, velocities and accelerations of a curve on a theta grid."""

    thetas: np.ndarray   # (n,), sorted, in [0, 2 pi)
    h: np.ndarray        # (n, N)
    v: np.ndarray        # (n, N)
    a: np.ndarray        # (n, N)

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        h = np.asarray(self.h, dtype=float)
        v = np.asarray(self.v, dtype=float)
        a = np.asarray(self.a, dtype=float)
        for name, arr in (("thetas", thetas), ("h", h), ("v", v), ("a", a)):
            object.__setattr__(self, name, arr)
        if thetas.ndim != 1:
            raise ValueError("thetas must be 1-D")
        if np.any(np.diff(thetas) <= 0):
            raise ValueError("thetas must be strictly increasing")
        if thetas.size and (thetas[0] < 0.0 or thetas[-1] >= 2.0 * math.pi):
            raise ValueError("thetas must lie in [0, 2 pi)")
        n = thetas.size
        if h.shape != v.shape or h.shape != a.shape or h.ndim != 2 or h.shape[0] != n:
            raise ValueError("h, v, a must share shape (len(thetas), N)")

    @property
    def width(self) -> int:
        return self.h.shape[1]


@dataclass(frozen=True)
class CurveGeometry:
    gE: np.ndarray          # per-theta v.v
    kappa: np.ndarray       # per-theta extrinsic curvature
    gG: np.ndarray          # kappa^2 * gE
    LE: float
    LG: float
    gE_norm: np.ndarray     # gE / N
    kappa_norm: np.ndarray  # sqrt(N) * kappa
    LE_norm: float          # LE / sqrt(N)


def _curvature_from_dots(vv: np.ndarray, aa: np.ndarray, va: np.ndarray) -> np.ndarray:
    radicand = vv * aa - va * va
    floor = -_RADICAND_SLACK * vv * aa
    bad = radicand < floor
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DegenerateGeometryError(
            f"curvature radicand {radicand[i]:.3e} is negative beyond roundoff "
            f"(v.v={vv[i]:.3e}, a.a={aa[i]:.3e}, v.a={va[i]:.3e})"
        )
    return np.sqrt(np.maximum(radicand, 0.0)) / vv**1.5


def periodic_trapezoid(values: np.ndarray, thetas: np.ndarray) -> float:
    """Trapezoid rule around a closed theta loop of period 2 pi (wraps the last segment)."""
    values = np.asarray(values, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    d = np.diff(thetas)
    wrap = 2.0 * math.pi - (thetas[-1] - thetas[0])
    core = float(np.sum(0.5 * (values[1:] + values[:-1]) * d))
    return core + 0.5 * (values[-1] + values[0]) * wrap


def curve_geometry(jet: CurveJet) -> CurveGeometry:
    """Metric, curvature and lengths of a sampled closed curve."""
    _require_count("len(thetas)", jet.thetas.size, 8)
    vv = np.einsum("ij,ij->i", jet.v, jet.v)
    aa = np.einsum("ij,ij->i", jet.a, jet.a)
    va = np.einsum("ij,ij->i", jet.v, jet.a)
    degenerate = vv == 0.0
    if np.any(degenerate):
        theta = jet.thetas[int(np.argmax(degenerate))]
        raise DegenerateGeometryError(f"degenerate tangent (v.v = 0) at theta={theta!r}")
    kappa = _curvature_from_dots(vv, aa, va)
    gG = kappa**2 * vv
    LE = periodic_trapezoid(np.sqrt(vv), jet.thetas)
    LG = periodic_trapezoid(np.sqrt(gG), jet.thetas)
    width = jet.width
    return CurveGeometry(
        gE=vv,
        kappa=kappa,
        gG=gG,
        LE=LE,
        LG=LG,
        gE_norm=vv / width,
        kappa_norm=kappa * math.sqrt(width),
        LE_norm=LE / math.sqrt(width),
    )
