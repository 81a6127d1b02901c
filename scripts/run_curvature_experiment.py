#!/usr/bin/env python3
"""Curvature-propagation dataset: theory recursion vs jet simulation.

Propagates a circle at the fixed-point radius through one wide random
network, measuring the per-layer Euclidean metric, extrinsic curvature
and Gauss-map length next to the theoretical recursion, plus the
backpropagated decision-boundary curvature summary.
"""

import argparse
import pathlib
import sys

import mfprop as mf
from mfprop import experiments
from mfprop.cli import run
from mfprop.output import write_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/curvature", type=pathlib.Path)
    parser.add_argument("--width", default=1000, type=int)
    parser.add_argument("--depth", default=10, type=int)
    parser.add_argument("--theta-samples", default=1024, type=int)
    parser.add_argument("--seed", default=0, type=int)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    params = mf.EnsembleParams(4.0, 0.3, mf.builtin("tanh"))
    result = experiments.curvature_agreement(params, args.depth, args.width,
                                             args.theta_samples, args.seed,
                                             mf.build_rule(1601))
    theory = result.theory
    rows = [
        (l + 1,
         float(theory.gE[l]), float(result.gE_bar[l]),
         float(theory.kappa_sq[l]), float(result.kappa_sq[l]),
         float(theory.LG[l]), float(result.LG[l]))
        for l in range(args.depth)
    ]
    write_csv(
        str(args.outdir / "curvature_layers.csv"),
        ["layer", "gE_theory", "gE_emp", "kappa_sq_theory", "kappa_sq_emp",
         "LG_theory", "LG_emp"],
        rows,
        {"command": "scripts/run_curvature_experiment.py",
         "width": args.width, "depth": args.depth,
         "theta_samples": args.theta_samples, "seed": args.seed,
         "sigma_w": 4.0, "sigma_b": 0.3},
        mf.__version__,
        footer=[f"chi1 = {theory.chi.chi1:.17g}",
                f"chi2 = {theory.chi.chi2:.17g}",
                f"kappa_star_sq = {theory.kappa_star_sq:.17g}"],
    )
    print(f"wrote {args.outdir / 'curvature_layers.csv'}")
    return run([
        "boundary", "--sw", "4", "--sb", "0.3",
        "--width", "100", "--depth", "6", "--n-points", "10",
        "--seed", str(args.seed),
        "-o", str(args.outdir / "boundary_curvature.csv"),
    ])


if __name__ == "__main__":
    sys.exit(main())
