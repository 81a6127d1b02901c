#!/usr/bin/env python3
"""Benchmark record of this checkout: perfbench, Tier-1 tests, criterion budgets.

    python3 scripts/bench_record.py --tag T --seeds 44 45 46
    python3 scripts/bench_record.py --tag T --seeds 44 45 46 --parent ../parent

For each seed it runs `perfbench/run.py` on all three workloads with
--seconds 30 --trace 0, then the Tier-1 test suite once and each
acceptance criterion CRITERION_PAIRS times, and writes BENCH_<T>.json at
the root of the checkout the script lives in:

* runs: workload, seed, the number of passes the run made and its
  last-line JSON (correct, attempted, failed and the end-to-end metrics);
* environment: perfbench's environment record (versions, BLAS build and
  thread count, CPU), which simulation timings and bytes depend on;
* tier1: the pytest summary counts and the wall time of the suite;
* criteria: per acceptance criterion, its number, which side ran first
  in each of its CRITERION_PAIRS runs and, under `change` (this checkout),
  every run (result, time against its budget, peak RSS in MB as
  `peak_rss_mb`, perfbench's unit) and the median `elapsed_s` and
  `peak_rss_mb` over them; each run is a child process of its own, so that
  the peak is the criterion's.

With --parent PATH (another checkout, typically the parent commit), each
(workload, seed) runs on both checkouts back to back, the parent first on
even-numbered pairs and this checkout first on odd ones, so that host load
drifting over the record falls on both sides alike.  The record then holds
`pairs` (workload, seed, which side ran first, and both runs) instead of
`runs`, and a `summary` per workload and end-to-end metric: each side's
median and quartiles and the number of pairs this checkout won, by the
metric's direction in BENCHMARK.json (ties count for neither side).  Each
criterion then runs CRITERION_PAIRS times on both checkouts too, in
alternating pairs, and its entry holds a `parent` side beside the `change`
one.  Tier-1 runs on this checkout only.

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

import numpy as np

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("theory-sweep", "ensemble-sim", "manifold-probe")
SECONDS = 30    # perfbench --seconds, the run length BENCHMARK.json sets
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# Runs of each criterion per side.  One pair cannot resolve a 10 % bound:
# criterion 5's peak RSS read 204-229 MB on one checkout and 220-245 MB on
# another with no changed code on its path, over seven alternating pairs.
CRITERION_PAIRS = 5
# run as `python -c CRITERION_CHILD <number>`; ru_maxrss is in KiB on Linux
CRITERION_CHILD = """\
import json, resource, sys
from mfprop import acceptance
(r,) = acceptance.run_all([int(sys.argv[1])])
print(json.dumps({"number": r.number, "name": r.name, "passed": r.passed,
                  "elapsed_s": r.elapsed, "budget_s": r.budget,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  * 1024 / 1e6}))
"""


def run_workload(workload: str, seed: int, checkout: Path = REPO) -> tuple[dict, dict]:
    """(the run's last-line JSON with workload, seed and pass count, its environment).

    The pass count comes from the run's `.perfbench` record: a run of fixed
    length holds more passes when each is faster, and perfbench keeps every
    pass's outcomes, so `peak_rss_mb` is read against it.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / ".perfbench" / f"{workload}-seed{seed}-trace0.json")
                        .read_text())
    return ({"workload": workload, "seed": seed, "passes": len(record["passes"]), **last},
            record["environment"])


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: each side's median and quartiles
    over the pairs, and how many pairs this checkout won."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        mine = [p for p in pairs if p["workload"] == workload]
        summary[workload] = {}
        for metric in end_to_end:
            name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
            value = {side: [p[side]["metrics"][name]["value"] for p in mine]
                     for side in ("parent", "change")}
            row = {"better": metric["better"], "pairs": len(mine),
                   "wins": sum(sign * (c - p) < 0
                               for p, c in zip(value["parent"], value["change"]))}
            for side, values in value.items():
                q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
                row[side] = {"median": median, "q1": q1, "q3": q3}
            summary[workload][name] = row
    return summary


def _with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def run_tier1() -> dict:
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable] + TIER1, cwd=REPO, env=_with_src(),
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = done.stdout.strip().splitlines()[-1].strip("= ")
    counts = {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", summary)}
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1),
            "exit_code": done.returncode, "summary": summary, "counts": counts,
            "wall_s": wall}


def run_criterion(number: int, checkout: Path = REPO) -> dict:
    """Criterion `number` of `checkout` in a child process: its result, time,
    budget and peak RSS."""
    done = subprocess.run([sys.executable, "-c", CRITERION_CHILD, str(number)],
                          cwd=checkout, env=_with_src(), capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_criteria(sides: list[tuple[str, Path]]) -> list[dict]:
    """Each criterion CRITERION_PAIRS times per (side, checkout), the sides'
    order alternating from one pair to the next as the workload pairs' does.

    A side holds its `runs`, its name and budget, whether every run passed,
    and the median `elapsed_s` and `peak_rss_mb` over its runs.
    """
    sys.path.insert(0, str(REPO / "src"))
    from mfprop import acceptance

    criteria, n_pairs = [], 0
    for number in sorted(acceptance._CRITERIA):
        entry = {"number": number, "first": []}
        runs = {side: [] for side, _ in sides}
        for _ in range(CRITERION_PAIRS):
            order = sides if n_pairs % 2 == 0 else sides[::-1]
            entry["first"].append(order[0][0])
            for side, checkout in order:
                runs[side].append(run_criterion(number, checkout))
            n_pairs += 1
        for side, side_runs in runs.items():
            entry[side] = {
                "name": side_runs[0]["name"], "budget_s": side_runs[0]["budget_s"],
                "passed": all(r["passed"] for r in side_runs),
                **{key: float(np.median([r[key] for r in side_runs]))
                   for key in ("elapsed_s", "peak_rss_mb")},
                "runs": side_runs,
            }
        criteria.append(entry)
    return criteria


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tag", required=True, help="the record goes to BENCH_<tag>.json")
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--parent", type=Path,
                        help="a second checkout to run in alternating pairs with this one")
    args = parser.parse_args()

    sides = [("change", REPO)]
    if args.parent is not None:
        sides.insert(0, ("parent", args.parent.resolve()))
    pairs, environment = [], None
    for seed in args.seeds:
        for workload in WORKLOADS:
            order = sides if len(pairs) % 2 == 0 else sides[::-1]
            pair = {"workload": workload, "seed": seed, "first": order[0][0]}
            for side, checkout in order:
                pair[side], environment = run_workload(workload, seed, checkout)
            print(f"{workload} seed {seed}: " + "; ".join(
                f"{side} wall_s {pair[side]['metrics']['wall_s']['value']:.3f}, passes "
                f"{pair[side]['passes']}, correct {pair[side]['correct']}, "
                f"failed {pair[side]['failed']}"
                for side, _ in order), flush=True)
            pairs.append(pair)
    tier1 = run_tier1()
    print(f"tier-1: {tier1['summary']} ({tier1['wall_s']:.1f} s)", flush=True)
    criteria = run_criteria(sides)
    for c in criteria:
        print(f"criterion {c['number']}: " + "; ".join(
            f"{side} {'PASS' if c[side]['passed'] else 'FAIL'} median "
            f"{c[side]['elapsed_s']:.1f} s / budget {c[side]['budget_s']:.0f} s, "
            f"peak RSS {c[side]['peak_rss_mb']:.1f} MB"
            for side, _ in sides))

    record = {
        "tag": args.tag,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seconds": SECONDS,
        "environment": environment,
        **({"runs": [pair["change"] for pair in pairs]} if args.parent is None else {
            "pairs": pairs, "summary": summarize(pairs, json.loads(
                (REPO / "BENCHMARK.json").read_text())["end_to_end"])}),
        "tier1": tier1,
        "criteria": criteria,
    }
    out = REPO / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0 if tier1["exit_code"] == 0 and all(c["change"]["passed"] for c in criteria) else 1


if __name__ == "__main__":
    sys.exit(main())
