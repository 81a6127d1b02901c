#!/usr/bin/env python3
"""Compare the artifacts of README's CLI block between two checkouts.

    python3 scripts/artifact_diff.py --parent ../parent --out diff.json

Reads the CLI block of this checkout's README.md (every line that starts
with `mfprop`, parsed and resolved by this checkout's CLI), skips
`validate-all`, and runs each line on both checkouts, each line in a
directory of its own, once at the default BLAS thread count and once with
OPENBLAS_NUM_THREADS=1: simulation bytes depend on the thread count.  Each
file a line writes is reported as

* identical: the same bytes;
* header only: only the `#` lines above the column line differ;
* rows differ: the column line or the rows differ; each changed column
  gives its number of changed rows and its largest absolute and relative
  change;
* footer differs: only the `#` lines below the rows differ;
* missing: one side wrote no such file;
* failed: the line exited nonzero on either side (no artifact compared).

Each entry records the line and both sides' exit codes.

The report (JSON) goes to stdout, or to --out.  The exit status is 0 when
every artifact is identical and 1 otherwise.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SETTINGS = {"default": None, "OPENBLAS_NUM_THREADS=1": "1"}


def readme_lines() -> list[list[str]]:
    """The argv of each `mfprop` line of README's CLI block, each checked to
    parse and resolve as the CLI would run it (no handler runs).
    `tests/test_cli.py` checks with it that the block names every command."""
    sys.path.insert(0, str(REPO / "src"))
    from mfprop import cli

    readme = (REPO / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    parser = cli._build_parser()
    lines = []
    for line in block.splitlines():
        if not line.startswith("mfprop "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        args = parser.parse_args(argv)
        cli._resolve_config(args.command, args)
        lines.append(argv)
    return lines


def run_line(checkout: Path, argv: list[str], outdir: Path, threads) -> int:
    """Run one CLI line of `checkout` in `outdir`; its exit code."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    outdir.mkdir(parents=True)
    done = subprocess.run([sys.executable, "-m", "mfprop", *argv], cwd=outdir, env=env,
                          capture_output=True, text=True)
    return done.returncode


def _sections(text: str) -> tuple[list[str], list[str], list[str]]:
    """(header, column line and rows, footer) of a CSV artifact."""
    lines = text.splitlines()
    top = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    bottom = next((i for i in range(top, len(lines)) if lines[i].startswith("#")), len(lines))
    return lines[:top], lines[top:bottom], lines[bottom:]


def _column_changes(parent: list[str], change: list[str]) -> dict:
    """Per column that differs: rows changed, largest absolute and relative change."""
    columns = change[0].split(",")
    report = {}
    for row_p, row_c in zip(parent[1:], change[1:]):
        for name, a, b in zip(columns, row_p.split(","), row_c.split(",")):
            if a == b:
                continue
            entry = report.setdefault(name, {"rows": 0, "max_abs": 0.0, "max_rel": 0.0})
            entry["rows"] += 1
            try:
                x, y = float(a), float(b)
            except ValueError:
                continue
            entry["max_abs"] = max(entry["max_abs"], abs(y - x))
            if x != 0.0:
                entry["max_rel"] = max(entry["max_rel"], abs(y - x) / abs(x))
    return report


def compare(parent: Path, change: Path) -> dict:
    """The status of one artifact (module docstring), with its details."""
    if not (parent.exists() and change.exists()):
        return {"status": "missing", "parent": parent.exists(), "change": change.exists()}
    a, b = parent.read_bytes(), change.read_bytes()
    if a == b:
        return {"status": "identical"}
    (_, body_a, foot_a), (_, body_b, foot_b) = _sections(a.decode()), _sections(b.decode())
    if body_a != body_b:
        out = {"status": "rows differ", "rows": [len(body_a) - 1, len(body_b) - 1]}
        if body_a[:1] != body_b[:1]:
            out["columns_line"] = [body_a[:1], body_b[:1]]
        out["columns"] = _column_changes(body_a, body_b)
        return out
    if foot_a != foot_b:
        return {"status": "footer differs",
                "lines": [[x, y] for x, y in zip(foot_a, foot_b) if x != y]
                + [[x, None] for x in foot_a[len(foot_b):]]
                + [[None, y] for y in foot_b[len(foot_a):]]}
    return {"status": "header only"}


def diff(parent: Path, lines: list[list[str]], workdir: Path) -> dict:
    """Run `lines` on the parent and on this checkout at each thread setting,
    into `workdir`, and compare every artifact."""
    report = {"parent": str(parent), "change": str(REPO), "settings": {}}
    for setting, threads in SETTINGS.items():
        entries = []
        for k, argv in enumerate(lines):
            dirs = {side: workdir / setting / side / str(k) for side in ("parent", "change")}
            codes = {side: run_line(checkout, argv, dirs[side], threads)
                     for side, checkout in (("parent", parent), ("change", REPO))}
            line = {"line": shlex.join(["mfprop", *argv]), "exit_codes": codes}
            if any(codes.values()):
                entries.append({**line, "artifact": None, "status": "failed"})
                continue
            for name in sorted({p.name for d in dirs.values() for p in d.iterdir()}):
                entries.append({**line, "artifact": name,
                                **compare(dirs["parent"] / name, dirs["change"] / name)})
        report["settings"][setting] = entries
    report["identical"] = all(e["status"] == "identical"
                              for entries in report["settings"].values() for e in entries)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True,
                        help="the checkout to compare this one against")
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        lines = [argv for argv in readme_lines() if argv[0] != "validate-all"]
        report = diff(args.parent.resolve(), lines, Path(tmp))
    text = json.dumps(report, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0 if report["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
