"""Deterministic CSV/JSON artifact emission.

Every artifact embeds the tool version and the fully resolved experiment
config in its header; data sections carry no timestamps, so rerunning a
command with the same seed reproduces the file byte for byte.  Floats are
printed with 17 significant digits.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence


def fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def config_json(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def write_csv(
    path: str,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    config: dict,
    version: str,
    footer: Sequence[str] = (),
) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# mfprop {version}\n")
        fh.write(f"# config = {config_json(config)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt_value(v) for v in row) + "\n")
        for line in footer:
            fh.write(f"# {line}\n")


def write_json(
    path: str,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    config: dict,
    version: str,
    footer: Sequence[str] = (),
) -> None:
    payload = {
        "tool": {"name": "mfprop", "version": version},
        "config": config,
        "columns": list(columns),
        "rows": [list(row) for row in rows],
    }
    if footer:
        payload["notes"] = list(footer)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_table(path, fmt, columns, rows, config, version, footer=()):
    if fmt == "csv":
        write_csv(path, columns, rows, config, version, footer)
    elif fmt == "json":
        write_json(path, columns, rows, config, version, footer)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
