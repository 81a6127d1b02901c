#!/usr/bin/env python3
"""Expressivity dataset: Fourier error profiles, length bound, weight chaos."""

import argparse
import pathlib
import sys

from mfprop.cli import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/expressivity", type=pathlib.Path)
    parser.add_argument("--seed", default=0, type=int)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    seed = str(args.seed)

    status = run([
        "fourier", "--sw", "2.5", "--sb", "0.3",
        "--depths", "1,2,4,6,8", "--width", "200",
        "--omega-max", "50", "--theta-samples", "512", "--seed", seed,
        "-o", str(args.outdir / "fourier_errors.csv"),
    ])
    status |= run([
        "shallow-bound", "--n-trials", "100", "--n-hidden", "1000",
        "--sw", "4", "--seed", seed,
        "-o", str(args.outdir / "shallow_bound.csv"),
    ])
    status |= run([
        "weight-chaos", "--sw", "4", "--sb", "0.3",
        "--depth", "10", "--width", "1000", "--deltas", "0:0.5:11",
        "--theta-samples", "256", "--seed", seed,
        "-o", str(args.outdir / "weight_chaos.csv"),
    ])
    return status


if __name__ == "__main__":
    sys.exit(main())
