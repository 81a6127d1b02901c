"""Command-line front end: seeded experiments emitted as CSV/JSON.

Subcommands map one-to-one onto the standard experiments (length map,
c-map, phase grid, curvature, simulation probes, boundary curvature,
shallow bound, Fourier regression, weight chaos) plus `validate-all`,
which runs the acceptance suite.  Every output embeds its resolved config
and is byte-identical across reruns with the same seed.

Exit codes: 0 success, 1 usage error (a flag or config value that does
not parse, or an argument the library refuses), 2 numerical failure
(MFPropError or LinAlgError), 3 acceptance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable

import numpy as np

from . import __version__
from .activations import builtin, builtin_names
from .errors import MFPropError
from .meanfield import (
    EnsembleParams,
    correlation_trajectory,
    curvature_trajectory,
    length_trajectory,
    phase_grid,
    c_map,
)
from .output import write_table
from .quadrature import DEFAULT_ORDER, build_rule
from . import experiments as xp
from . import expressivity as expr_mod
from . import simulator as sim_mod


class UsageError(ValueError):
    """A flag or config value that does not parse."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_range(text: str) -> np.ndarray:
    """Grid syntax lo:hi:count, e.g. 0.1:5:50."""
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise UsageError(f"range must be lo:hi:count, got {text!r}") from None
    if count < 1:
        raise UsageError(f"range count must be >= 1, got {count}")
    return np.linspace(lo, hi, count)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


# Per-command flag tables: (dest, flags, type, default, help).  Flags parse
# with default None so config-file values can fill unset ones; the resolved
# config is what gets embedded in artifacts.
_COMMON = [
    ("sigma_w", ("--sigma-w", "--sw"), float, 1.0, "weight std scale"),
    ("sigma_b", ("--sigma-b", "--sb"), float, 0.0, "bias std"),
    ("nonlinearity", ("--nonlinearity", "--nl"), str, "tanh",
     f"one of {', '.join(builtin_names())}"),
    ("order", ("--order",), int, DEFAULT_ORDER, "quadrature order"),
    ("out", ("--out", "-o"), str, None, "output path (default: <command>.<format>)"),
    ("format", ("--format",), str, "csv", "csv or json"),
]

# the network and circle of the circle probes (autocorr, spectrum, weight-chaos)
_CIRCLE = [
    ("depth", ("--depth",), int, 10, "number of layers"),
    ("width", ("--width",), int, 1000, "width of every layer"),
    ("theta_samples", ("--theta-samples",), int, 256, "circle resolution"),
    ("seed", ("--seed",), int, 0, "seed"),
]

# name -> (flag table, handler), in help order, filled by @_command; a
# handler returns an exit status, or None once its artifact is written
_COMMANDS: dict[str, tuple[list, Callable[[dict], int | None]]] = {}


def _command(name: str, flags: list):
    def register(handler):
        _COMMANDS[name] = (flags, handler)
        return handler
    return register


def _build_parser() -> _Parser:
    parser = _Parser(prog="mfprop", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"mfprop {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (table, _handler) in _COMMANDS.items():
        p = sub.add_parser(name)
        for dest, flags, typ, default, help_text in table:
            if default is not None:
                help_text = f"{help_text} (default: {default})"
            p.add_argument(*flags, dest=dest, type=typ, default=None, help=help_text)
        p.add_argument("--config", dest="config", type=str, default=None,
                       help="JSON config file; explicit flags override it")
    return parser


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            values = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc.strerror}") from None
    except ValueError as exc:   # invalid JSON or text encoding
        raise UsageError(f"config file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise UsageError(f"config file {path!r} must hold a JSON object, "
                         f"got {type(values).__name__}")
    return values


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    table, _handler = _COMMANDS[command]
    file_values = _read_config(args.config) if args.config else {}
    # null means "the default", as for a defined key, so a key an older
    # version wrote as null still replays
    keys = {"command"} | {dest for dest, *_ in table}
    unknown = [key for key, raw in file_values.items() if raw is not None and key not in keys]
    if unknown:
        raise UsageError(f"config file {args.config!r}: {command} has no option "
                         + ", ".join(repr(key) for key in unknown))
    cfg = {"command": command}
    for dest, _flags, typ, default, _help in table:
        value = getattr(args, dest)
        raw = file_values.get(dest)
        if value is None and raw is not None:
            try:
                if typ is int and isinstance(raw, float) and not raw.is_integer():
                    raise ValueError("not an integer")
                value = typ(raw)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"config file {args.config!r}: {dest} = {raw!r} is not "
                                 f"a valid {typ.__name__} ({exc})") from None
        if value is None:
            value = default
        cfg[dest] = value
    # open() and write_table would refuse a bad path or format only after the handler's work
    out = cfg["out"]
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        raise UsageError(f"output path {out!r} is a directory or in one that does not exist")
    if "format" in cfg and cfg["format"] not in ("csv", "json"):
        raise UsageError(f"unknown output format {cfg['format']!r}; choose csv or json")
    return cfg


def _ensemble(cfg: dict) -> EnsembleParams:
    return EnsembleParams(cfg["sigma_w"], cfg["sigma_b"], builtin(cfg["nonlinearity"]))


def _finish(cfg: dict, columns, rows, footer=()) -> str:
    """Write the artifact to `--out` or <command>.<format>; returns the path."""
    out = cfg["out"] or f"{cfg['command']}.{cfg['format']}"
    cfg = dict(cfg)
    cfg["out"] = out
    write_table(out, cfg["format"], columns, rows, cfg, __version__, footer)
    print(f"wrote {out}")
    return out


# ---------------------------------------------------------------------------
# handlers


@_command("length-map", _COMMON + [
    ("q0", ("--q0",), float, 1.0, "input squared length per neuron"),
    ("depth", ("--depth",), int, 10, "number of layers"),
])
def _run_length_map(cfg):
    params = _ensemble(cfg)
    rule = build_rule(cfg["order"])
    traj = length_trajectory(cfg["q0"], cfg["depth"], params, rule)
    rows = [(l + 1, float(q)) for l, q in enumerate(traj.values)]
    layers = traj.iterations_to_1pct
    footer = [f"q_star = {traj.q_star:.17g}",
              f"iterations_to_1pct = {'none' if layers is None else layers}"]
    _finish(cfg, ["layer", "q_theory"], rows, footer)


@_command("c-map", _COMMON + [
    ("c0", ("--c0",), float, 0.9, "initial correlation"),
    ("depth", ("--depth",), int, 20, "number of layers"),
])
def _run_c_map(cfg):
    params = _ensemble(cfg)
    rule = build_rule(cfg["order"])
    traj = correlation_trajectory(cfg["c0"], cfg["depth"], params, rule)
    rows = [(l + 1, float(c)) for l, c in enumerate(traj.values)]
    footer = [
        f"c_star = {traj.c_star:.17g}",
        f"c_star_converged = {traj.c_star_converged}",
        f"chi1 = {traj.chi.chi1:.17g}",
        f"q_star = {traj.chi.q_star:.17g}",
    ]
    _finish(cfg, ["layer", "c_theory"], rows, footer)


@_command("phase-grid", [
    ("sw_range", ("--sw", "--sigma-w"), str, "0.1:4:30", "sigma_w grid lo:hi:count"),
    ("sb_range", ("--sb", "--sigma-b"), str, "0:1:15", "sigma_b grid lo:hi:count"),
] + [f for f in _COMMON if f[0] not in ("sigma_w", "sigma_b")])
def _run_phase_grid(cfg):
    grid = phase_grid(
        _parse_range(cfg["sw_range"]),
        _parse_range(cfg["sb_range"]),
        builtin(cfg["nonlinearity"]),
        build_rule(cfg["order"]),
    )
    rows = []
    for i, sw in enumerate(grid.sigma_w_axis):
        for j, sb in enumerate(grid.sigma_b_axis):
            rows.append((
                float(sw), float(sb),
                float(grid.q_star[i, j]), float(grid.c_star[i, j]),
                float(grid.chi1[i, j]), bool(grid.c_converged[i, j]),
            ))
    # keys are (i_w, j_b) for cells and ("boundary", j_b) for boundary
    # solves, in the order phase_grid recorded them
    footer = [f"cell_errors = {len(grid.cell_errors)}"] + [
        f"cell_error[{','.join(map(str, key))}] = {message}"
        for key, message in grid.cell_errors.items()
    ]
    out = _finish(cfg, ["sigma_w", "sigma_b", "q_star", "c_star", "chi1", "c_converged"],
                  rows, footer)
    boundary_path = out + ".boundary." + cfg["format"]
    brows = [(float(sb), float(sw)) for sb, sw in grid.boundary]
    write_table(boundary_path, cfg["format"], ["sigma_b", "sigma_w_star"], brows,
                {**cfg, "artifact": "phase-boundary"}, __version__)
    print(f"wrote {boundary_path}")


@_command("curvature", _COMMON + [
    ("depth", ("--depth",), int, 20, "number of layers"),
])
def _run_curvature(cfg):
    params = _ensemble(cfg)
    rule = build_rule(cfg["order"])
    traj = curvature_trajectory(cfg["depth"], params, rule)
    rows = [
        (l + 1, float(traj.gE[l]), float(traj.kappa_sq[l]),
         float(traj.LE_norm[l]), float(traj.LG[l]))
        for l in range(cfg["depth"])
    ]
    footer = [
        f"chi1 = {traj.chi.chi1:.17g}",
        f"chi2 = {traj.chi2:.17g}",
        f"q_star = {traj.chi.q_star:.17g}",
        f"kappa_star_sq = {traj.kappa_star_sq:.17g}",
    ]
    _finish(cfg, ["layer", "gE_bar", "kappa_sq_bar", "LE_bar", "LG"], rows, footer)


@_command("simulate", _COMMON + [
    ("q0", ("--q0",), float, 1.0, "input squared length per neuron"),
    ("c0", ("--c0",), float, None,
     "if set, propagate pairs injected at the fixed-point radius "
     f"({xp.N_ORIENTATIONS} orientations per realization)"),
    ("depth", ("--depth",), int, 10, "number of layers"),
    ("width", ("--width",), int, 1000, "width of every layer"),
    ("seeds", ("--seeds",), int, 5, "number of network realizations"),
    ("seed", ("--seed",), int, 0, "base seed"),
])
def _run_simulate(cfg):
    params = _ensemble(cfg)
    rule = build_rule(cfg["order"])
    if cfg["c0"] is None:
        run, = xp.length_agreement([(params, cfg["q0"])], cfg["depth"], cfg["width"],
                                   cfg["seed"], cfg["seeds"], rule)
        rows = [(l + 1, float(q), float(e))
                for l, (q, e) in enumerate(zip(run.theory.values, run.q_emp))]
        footer = [f"q_star = {run.theory.q_star:.17g}"]
        _finish(cfg, ["layer", "q_theory", "q_emp"], rows, footer)
        return
    run, = xp.correlation_agreement([(params, cfg["c0"])], cfg["depth"], cfg["width"],
                                    cfg["seed"], cfg["seeds"], rule)
    rows = [(l + 1, float(c), float(e))
            for l, (c, e) in enumerate(zip(run.theory.values, run.c_emp))]
    footer = [f"q_star = {run.theory.chi.q_star:.17g}", f"c_star = {run.theory.c_star:.17g}"]
    _finish(cfg, ["layer", "c_theory", "c_emp"], rows, footer)


@_command("autocorr", _COMMON + _CIRCLE)
def _run_autocorr(cfg):
    params = _ensemble(cfg)
    rule = build_rule(cfg["order"])
    q_star, records = xp.circle_at_fixed_point(params, cfg["depth"], cfg["width"],
                                               cfg["theta_samples"], rule, cfg["seed"])
    theory = np.cos(2.0 * math.pi * np.arange(cfg["theta_samples"]) / cfg["theta_samples"])
    rows = []
    for rec in records:
        if rec.layer > 1:    # the records start at layer 1, where theory is cos(dtheta)
            theory = np.array([c_map(c, params, rule, q_star=q_star) for c in theory])
        dthetas, c_emp = sim_mod.autocorrelation(rec.h, q_star)
        for k in range(dthetas.size):
            rows.append((rec.layer, float(dthetas[k]), float(c_emp[k]), float(theory[k])))
    footer = [f"q_star = {q_star:.17g}"]
    _finish(cfg, ["layer", "dtheta", "c_emp", "c_theory"], rows, footer)


@_command("spectrum", _COMMON + _CIRCLE + [
    ("top_k", ("--top-k",), int, 5, "report variance fraction of top k"),
])
def _run_spectrum(cfg):
    _, records = xp.circle_at_fixed_point(_ensemble(cfg), cfg["depth"], cfg["width"],
                                          cfg["theta_samples"], build_rule(cfg["order"]),
                                          cfg["seed"])
    rows = []
    footer = []
    for rec in records:
        spec = sim_mod.singular_spectrum(rec.h, top_k=cfg["top_k"])
        for rank, (sv, fr) in enumerate(zip(spec.singular_values,
                                            spec.variance_fractions), start=1):
            rows.append((rec.layer, rank, float(sv), float(fr)))
        footer.append(f"layer {rec.layer}: top{cfg['top_k']}_fraction = "
                      f"{spec.top_k_fraction:.17g}")
    _finish(cfg, ["layer", "rank", "singular_value", "variance_fraction"],
                   rows, footer)


@_command("boundary", _COMMON + [
    ("depth", ("--depth",), int, 6, "number of layers"),
    ("width", ("--width",), int, 100, "width of every layer"),
    ("n_points", ("--n-points",), int, 10, "boundary points per layer"),
    ("seed", ("--seed",), int, 0, "seed"),
])
def _run_boundary(cfg):
    summaries = xp.boundary_curvature(_ensemble(cfg), cfg["depth"], cfg["width"],
                                      cfg["n_points"], cfg["seed"], build_rule(cfg["order"]))
    rows = []
    for summary in summaries:
        for pid, kappas in enumerate(summary.kappas):
            # ranks 1..4 from the top and -4..-1 from the bottom; below
            # width 9 the two ends overlap and each curvature is listed once
            n = kappas.size
            for rank in (*range(1, min(4, n) + 1), *range(max(4 - n, -4), 0)):
                rows.append((summary.layer, pid, rank,
                             float(kappas[rank - 1 if rank > 0 else rank])))
    footer = [
        f"layer {s.layer}: converged {s.n_converged}/{s.n_attempted}"
        for s in summaries
    ]
    _finish(cfg, ["layer", "point_id", "kappa_rank", "kappa_value"], rows, footer)


# the bound draws networks and solves no theory, so it takes no --order
@_command("shallow-bound", [f for f in _COMMON if f[0] != "order"] + [
    ("n_trials", ("--n-trials",), int, 100, "number of sampled nets"),
    ("n_hidden", ("--n-hidden",), int, 1000, "hidden width N1"),
    ("q0", ("--q0",), float, 1.0, "circle squared radius per neuron"),
    ("theta_samples", ("--theta-samples",), int, 512, "circle resolution"),
    ("seed", ("--seed",), int, 0, "seed"),
])
def _run_shallow_bound(cfg):
    params = _ensemble(cfg)
    # the bound's lengths depend on the circle only through q and its theta
    # grid, so it lies in the smallest input space a circle fits in
    circle = sim_mod.CircleManifold.sample(2, cfg["q0"], cfg["theta_samples"],
                                           cfg["seed"] + 11)
    report = expr_mod.verify_shallow_bound(cfg["n_trials"], cfg["n_hidden"],
                                           params, circle, cfg["seed"])
    rows = [(t, float(le), float(report.bound))
            for t, le in enumerate(report.lengths)]
    footer = [f"max_LE = {report.max_length:.17g}",
              f"violations = {report.violations}"]
    _finish(cfg, ["trial", "LE", "bound"], rows, footer)


@_command("fourier", _COMMON + [
    ("depths", ("--depths",), str, "1,4,8", "comma-separated depths"),
    ("width", ("--width",), int, 200, "width of every layer"),
    ("omega_max", ("--omega-max",), int, 50, "largest Fourier frequency"),
    ("theta_samples", ("--theta-samples",), int, 512, "circle resolution"),
    ("seed", ("--seed",), int, 0, "seed"),
])
def _run_fourier(cfg):
    profiles = xp.fourier_errors(_ensemble(cfg), _parse_int_list(cfg["depths"]), cfg["width"],
                                 cfg["omega_max"], cfg["theta_samples"], cfg["seed"],
                                 build_rule(cfg["order"]))
    rows = [(depth, int(freq), float(err))
            for depth, profile in profiles.items()
            for freq, err in zip(profile.frequencies, profile.errors)]
    _finish(cfg, ["depth", "frequency", "error"], rows)


@_command("weight-chaos", _COMMON + _CIRCLE + [
    ("deltas", ("--deltas",), str, "0:0.5:11", "delta grid lo:hi:count"),
])
def _run_weight_chaos(cfg):
    params = _ensemble(cfg)
    rule = build_rule(cfg["order"])
    widths = (cfg["width"],) * (cfg["depth"] + 1)
    family = expr_mod.weight_chaos_empirical(
        params, widths, _parse_range(cfg["deltas"]), cfg["seed"],
        n_theta=cfg["theta_samples"], rule=rule,
    )
    rows = [
        (float(d), float(ct), float(ce))
        for d, ct, ce in zip(family.delta_grid, family.c_theory, family.c_empirical)
    ]
    _finish(cfg, ["delta", "C_theory", "C_empirical"], rows)


@_command("validate-all", [
    ("only", ("--only",), str, None, "comma-separated criteria numbers"),
    ("out", ("--out", "-o"), str, None, "optional report path"),
])
def _run_validate_all(cfg):
    from . import acceptance

    only = None if cfg["only"] is None else _parse_int_list(cfg["only"])
    results = acceptance.run_all(only=only)
    lines = [acceptance.format_result(r) for r in results]
    for line in lines:
        print(line)
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 3


def run(argv) -> int:
    """The exit status of one command, as the module docstring lists them."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        _table, handler = _COMMANDS[args.command]
        return handler(_resolve_config(args.command, args)) or 0
    # LinAlgError subclasses ValueError, so this clause comes first
    except (MFPropError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


__all__ = ["main", "run", "UsageError"]
