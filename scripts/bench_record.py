#!/usr/bin/env python3
"""Benchmark record of this checkout: perfbench, Tier-1 tests, criterion budgets.

    python3 scripts/bench_record.py --tag T --seeds 44 45 46

For each seed it runs `perfbench/run.py` on all three workloads with
--seconds 30 --trace 0, then the Tier-1 test suite and
`acceptance.run_all` once each, and writes BENCH_<T>.json at the root of
the checkout the script lives in:

* runs: workload, seed and the run's last-line JSON (correct, attempted,
  failed and the end-to-end metrics);
* environment: perfbench's environment record (versions, BLAS build and
  thread count, CPU), which simulation timings and bytes depend on;
* tier1: the pytest summary counts and the wall time of the suite;
* criteria: each acceptance criterion's result and time against its budget.

Records compare only when taken on the same machine.
"""

import argparse
import datetime
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("theory-sweep", "ensemble-sim", "manifold-probe")
SECONDS = 30    # perfbench --seconds, the run length BENCHMARK.json sets
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def run_workload(workload: str, seed: int) -> tuple[dict, dict]:
    """(the run's last-line JSON with workload and seed, its environment)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    record = REPO / ".perfbench" / f"{workload}-seed{seed}-trace0.json"
    environment = json.loads(record.read_text())["environment"]
    return {"workload": workload, "seed": seed, **last}, environment


def run_tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable] + TIER1, cwd=REPO, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = done.stdout.strip().splitlines()[-1].strip("= ")
    counts = {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", summary)}
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1),
            "exit_code": done.returncode, "summary": summary, "counts": counts,
            "wall_s": wall}


def run_criteria() -> list[dict]:
    sys.path.insert(0, str(REPO / "src"))
    from mfprop import acceptance

    return [{"number": r.number, "name": r.name, "passed": r.passed,
             "elapsed_s": r.elapsed, "budget_s": r.budget}
            for r in acceptance.run_all()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tag", required=True, help="the record goes to BENCH_<tag>.json")
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    args = parser.parse_args()

    runs, environment = [], None
    for seed in args.seeds:
        for workload in WORKLOADS:
            run, environment = run_workload(workload, seed)
            wall = run["metrics"]["wall_s"]["value"]
            print(f"{workload} seed {seed}: wall_s {wall:.3f}, correct {run['correct']}, "
                  f"failed {run['failed']}", flush=True)
            runs.append(run)
    tier1 = run_tier1()
    print(f"tier-1: {tier1['summary']} ({tier1['wall_s']:.1f} s)", flush=True)
    criteria = run_criteria()
    for c in criteria:
        print(f"criterion {c['number']}: {'PASS' if c['passed'] else 'FAIL'} "
              f"{c['elapsed_s']:.1f} s / budget {c['budget_s']:.0f} s")

    record = {
        "tag": args.tag,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seconds": SECONDS,
        "environment": environment,
        "runs": runs,
        "tier1": tier1,
        "criteria": criteria,
    }
    out = REPO / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0 if tier1["exit_code"] == 0 and all(c["passed"] for c in criteria) else 1


if __name__ == "__main__":
    sys.exit(main())
