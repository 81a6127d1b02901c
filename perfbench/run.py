"""mfprop benchmark: one command, three workloads, one traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; mfprop is imported from its `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it name every metric
with its unit, the environment and the output checks.  A fuller record
(and, with --trace 1, the spans) goes to `.perfbench/` in the checkout.

--trace 0: end-to-end metrics, untraced.  The run measures one full pass of
the workload's op schedule, then further passes (each on fresh inputs
derived from the seed) while the next one is expected to fit in --seconds.
--trace 1: per-layer metrics from one traced pass at the seed, plus
`trace.overhead_s` against an untraced pass of the same inputs in a fresh
process.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import machine
import runner

SETUP_PROBES = 5
OUT_DIR = machine.REPO / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("theory-sweep", "ensemble-sim", "manifold-probe"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def _print_metric(name, value, unit, detail="") -> None:
    print(f"{name} = {value:.6g} {unit}{f'  ({detail})' if detail else ''}")


def _report_pass(index: int, result: runner.PassResult) -> None:
    print(f"pass {index} (input seed {result.seed}): {len(result.outcomes)} ops, "
          f"wall {result.wall:.3f} s, {result.failed} failed, {result.refused} refused")
    for line in result.checks:
        print(f"  check {line}")


def _emit(record: dict, stem: str, correct: bool, attempted: int, failed: int,
          metrics: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))


def timed_run(workload, args) -> int:
    setups = machine.time_fresh_setups(workload.rule_orders, SETUP_PROBES)
    rules = machine.setup(workload.rule_orders)
    passes = []
    while True:
        result = runner.run_pass(workload, runner.pass_seed(args.seed, len(passes)), rules)
        _report_pass(len(passes), result)
        passes.append(result)
        walls = [p.wall for p in passes]
        if sum(walls) + statistics.median(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    env, calibration = machine.environment(), machine.calibrate()
    print(f"environment: {machine.describe(env)}")
    for name, value in calibration.items():
        _print_metric(name, value, "GFLOP/s" if name.endswith("gflops") else "ns",
                      "calibration, same process")

    latencies = [o.seconds * 1e3 for p in passes for o in p.outcomes]
    attempted = len(latencies)
    failed = sum(p.failed for p in passes)
    wrong = sum(p.wrong for p in passes)
    tail_p, tail_value = runner.highest_percentile(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (runner.percentile(latencies, 50), "ms"),
        "op_p90_ms": (runner.percentile(latencies, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"median of {len(walls)} pass(es), first op to last op",
        "op_p50_ms": f"{attempted} ops",
        "op_p90_ms": f"{attempted} ops; highest percentile with >= 10 beyond: "
                     f"p{tail_p:g} = {tail_value:.6g} ms",
        "peak_rss_mb": "peak resident set of the benchmark process",
    }
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit, details[name])
    _print_metric("error_rate", failed / attempted, "fraction",
                  f"{failed} failed / {attempted} attempted; {wrong} wrong answers")
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": 0,
        "environment": env, "calibration": calibration, "setup_samples_s": setups,
        "passes": [{"seed": p.seed, "wall_s": p.wall, "failed": p.failed,
                    "refused": p.refused, "checks": p.checks,
                    "op_ms": [o.seconds * 1e3 for o in p.outcomes]} for p in passes],
    }
    _emit(record, f"{workload.name}-seed{args.seed}-trace0", wrong == 0, attempted, failed,
          metrics)
    return 0


def _untraced_wall(args) -> float:
    """wall_s of one untraced pass at the same seed, in a fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    done = subprocess.run(argv, cwd=machine.REPO, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]["wall_s"]["value"]


def traced_run(workload, args) -> int:
    import spans

    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        rules = machine.setup(workload.rule_orders)
        result = runner.run_pass(workload, args.seed, rules, recorder=recorder)
    finally:
        recorder.uninstall()
    _report_pass(0, result)
    env, calibration = machine.environment(), machine.calibrate()
    print(f"environment: {machine.describe(env)}")
    untraced = _untraced_wall(args)

    metrics = spans.layer_metrics(recorder)
    metrics["machine.gemm_gflops"] = (calibration["machine.gemm_gflops"], "GFLOP/s")
    metrics["machine.ns_per_normal"] = (calibration["machine.ns_per_normal"], "ns")
    metrics["trace.overhead_s"] = (result.wall - untraced, "s")
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit)
    print(f"traced wall {result.wall:.3f} s, untraced wall {untraced:.3f} s, "
          f"{len(recorder.name_id)} spans")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace1"
    recorder.save(OUT_DIR / f"{stem}.spans.npz")
    record = {
        "workload": workload.name, "seed": args.seed, "trace": 1, "environment": env,
        "calibration": calibration, "traced_wall_s": result.wall,
        "untraced_wall_s": untraced, "spans": len(recorder.name_id), "checks": result.checks,
    }
    _emit(record, stem, result.wrong == 0, len(result.outcomes), result.failed, metrics)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        machine.load_mfprop()
    except machine.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    return traced_run(workload, args) if args.trace else timed_run(workload, args)


if __name__ == "__main__":
    sys.exit(main())
