"""Smoke tests of the dataset scripts in scripts/, run in-process."""

import json
import pathlib
import runpy
import subprocess
import sys

import numpy as np
import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *map(str, argv)])
    return runpy.run_path(str(SCRIPTS / name))["main"]()


def columns_and_rows(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_phase_diagram_script(tmp_path, monkeypatch):
    assert run_script(monkeypatch, "run_phase_diagram.py",
                      "--resolution", "2", "--outdir", tmp_path) == 0
    expected = {"grid.csv", "grid.csv.boundary.csv"}
    for sw in ("0.5", "2.5", "4.0"):
        expected |= {f"length_sw{sw}.csv", f"cmap_sw{sw}.csv"}
    assert {p.name for p in tmp_path.iterdir()} == expected
    columns, rows = columns_and_rows(tmp_path / "grid.csv")
    assert columns == ["sigma_w", "sigma_b", "q_star", "c_star", "chi1", "c_converged"]
    assert len(rows) == 4
    columns, rows = columns_and_rows(tmp_path / "grid.csv.boundary.csv")
    assert columns == ["sigma_b", "sigma_w_star"] and len(rows) == 2
    columns, rows = columns_and_rows(tmp_path / "length_sw2.5.csv")
    assert columns == ["layer", "q_theory"] and len(rows) == 12
    columns, rows = columns_and_rows(tmp_path / "cmap_sw2.5.csv")
    assert columns == ["layer", "c_theory"] and len(rows) == 25


def test_curvature_script(tmp_path, monkeypatch):
    assert run_script(monkeypatch, "run_curvature_experiment.py", "--width", 50,
                      "--depth", 3, "--theta-samples", 32, "--outdir", tmp_path) == 0
    assert {p.name for p in tmp_path.iterdir()} == {"curvature_layers.csv",
                                                    "boundary_curvature.csv"}
    columns, rows = columns_and_rows(tmp_path / "curvature_layers.csv")
    assert columns == ["layer", "gE_theory", "gE_emp", "kappa_sq_theory", "kappa_sq_emp",
                       "LG_theory", "LG_emp"]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    # layer 1 is the injected circle: its metric equals q* exactly up to roundoff
    assert float(rows[0][2]) == pytest.approx(float(rows[0][1]), rel=1e-12)
    columns, rows = columns_and_rows(tmp_path / "boundary_curvature.csv")
    assert columns == ["layer", "point_id", "kappa_rank", "kappa_value"]
    assert {r[0] for r in rows} == {"0", "1", "2", "3", "4", "5"}


def test_expressivity_script(tmp_path, monkeypatch):
    assert run_script(monkeypatch, "run_expressivity_experiment.py", "--outdir", tmp_path) == 0
    assert {p.name for p in tmp_path.iterdir()} == {"fourier_errors.csv", "shallow_bound.csv",
                                                    "weight_chaos.csv"}
    columns, rows = columns_and_rows(tmp_path / "fourier_errors.csv")
    assert columns == ["depth", "frequency", "error"]
    assert len(rows) == 5 * 51 and {r[0] for r in rows} == {"1", "2", "4", "6", "8"}
    columns, rows = columns_and_rows(tmp_path / "shallow_bound.csv")
    assert columns == ["trial", "LE", "bound"] and len(rows) == 100
    columns, rows = columns_and_rows(tmp_path / "weight_chaos.csv")
    assert columns == ["delta", "C_theory", "C_empirical"] and len(rows) == 11
    # Delta = 0 is the reference network itself
    assert float(rows[0][0]) == 0.0 and float(rows[0][2]) == 1.0


def test_bench_record_summarizes_alternating_pairs():
    summarize = runpy.run_path(str(SCRIPTS / "bench_record.py"))["summarize"]

    def run(wall, rss):
        return {"metrics": {"wall_s": {"value": wall}, "peak_rss_mb": {"value": rss}}}

    walls = [(1.0, 0.5), (2.0, 0.6), (3.0, 3.0), (4.0, 0.8)]    # a tie in pair 3
    rss = [(50.0, 55.0), (50.0, 45.0), (50.0, 56.0), (50.0, 57.0)]
    pairs = [{"workload": "theory-sweep", "seed": seed, "parent": run(wp, rp),
              "change": run(wc, rc)}
             for seed, ((wp, wc), (rp, rc)) in enumerate(zip(walls, rss))]
    end_to_end = [{"name": "wall_s", "better": "lower"},
                  {"name": "peak_rss_mb", "better": "lower"}]
    summary = summarize(pairs, end_to_end)["theory-sweep"]
    assert summary["wall_s"]["wins"] == 3 and summary["wall_s"]["pairs"] == 4
    assert summary["wall_s"]["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert summary["wall_s"]["change"]["median"] == pytest.approx(0.7)
    assert summary["peak_rss_mb"]["wins"] == 1
    higher = summarize(pairs, [{"name": "wall_s", "better": "higher"}])
    assert higher["theory-sweep"]["wall_s"]["wins"] == 0


def test_bench_record_reads_each_runs_pass_count(tmp_path, monkeypatch):
    # a stand-in for perfbench/run.py: its last stdout line and its record
    run_workload = runpy.run_path(str(SCRIPTS / "bench_record.py"))["run_workload"]
    last = {"correct": True, "attempted": 210, "failed": 0,
            "metrics": {"wall_s": {"value": 29.5, "unit": "s"}}}
    record = {"environment": {"numpy": "2.x"},
              "passes": [{"seed": 44 + k, "wall_s": 0.9} for k in range(3)]}
    (tmp_path / ".perfbench").mkdir()
    (tmp_path / ".perfbench" / "theory-sweep-seed44-trace0.json").write_text(json.dumps(record))
    argvs = []

    def fake_run(argv, cwd, **kwargs):
        argvs.append((argv, cwd))
        return subprocess.CompletedProcess(argv, 0, stdout="pass 0 ...\n" + json.dumps(last))

    monkeypatch.setattr(subprocess, "run", fake_run)
    run, environment = run_workload("theory-sweep", 44, tmp_path)
    assert run == {"workload": "theory-sweep", "seed": 44, "passes": 3, **last}
    assert environment == {"numpy": "2.x"}
    (argv, cwd), = argvs
    assert cwd == tmp_path and argv[1:] == ["perfbench/run.py", "--workload", "theory-sweep",
                                            "--seed", "44", "--seconds", "30", "--trace", "0"]


def test_bench_record_runs_each_criterion_in_a_child_of_its_own(monkeypatch):
    script = runpy.run_path(str(SCRIPTS / "bench_record.py"))
    record = script["run_criterion"](2)
    assert record["number"] == 2 and record["passed"] is True
    assert 0.0 <= record["elapsed_s"] < record["budget_s"]
    # the child imports numpy and mfprop
    assert 10.0 < record["peak_rss_mb"] < 10_000.0

    children = []

    def fake_run(argv, cwd, **kwargs):
        children.append((argv, cwd))
        n = len(children)
        line = json.dumps({"number": int(argv[-1]), "name": f"c{argv[-1]}", "passed": n != 7,
                           "elapsed_s": 0.5 * n, "budget_s": 60.0, "peak_rss_mb": float(n)})
        return subprocess.CompletedProcess(argv, 0, stdout=line + "\n")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "path", sys.path[:])
    parent, change = pathlib.Path("/parent"), pathlib.Path("/change")
    criteria = script["run_criteria"]([("parent", parent), ("change", change)])
    pairs = script["CRITERION_PAIRS"]
    assert pairs == 5
    # 2 * pairs children per criterion, one per checkout and pair, the
    # first side alternating from pair to pair across the criteria
    assert [c["number"] for c in criteria] == list(range(1, 11))
    assert [argv[-1] for argv, _ in children] == [str(n) for n in range(1, 11)
                                                  for _ in range(2 * pairs)]
    assert all(argv[:2] == [sys.executable, "-c"] for argv, _ in children)
    assert [cwd for _, cwd in children] == [parent, change, change, parent] * 5 * pairs
    assert [first for c in criteria for first in c["first"]] == ["parent", "change"] * 5 * pairs
    for k, c in enumerate(criteria):
        base = 2 * pairs * k
        # child i (from 1) reported peak RSS i and time i / 2
        expected = {"parent": [], "change": []}
        for j in range(pairs):
            first, second = ("parent", "change") if (k * pairs + j) % 2 == 0 else ("change", "parent")
            expected[first].append(base + 2 * j + 1)
            expected[second].append(base + 2 * j + 2)
        for side in ("parent", "change"):
            assert [r["peak_rss_mb"] for r in c[side]["runs"]] == expected[side]
            assert c[side]["peak_rss_mb"] == float(np.median(expected[side]))
            assert c[side]["elapsed_s"] == 0.5 * float(np.median(expected[side]))
            assert c[side]["name"] == f"c{c['number']}" and c[side]["budget_s"] == 60.0
            assert c[side]["passed"] == (7 not in expected[side])


def test_artifact_diff_finds_a_checkout_identical_to_itself(tmp_path):
    script = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))
    lines = [argv for argv in script["readme_lines"]() if argv[0] in {"length-map", "c-map"}]
    assert [argv[0] for argv in lines] == ["length-map", "c-map"]
    report = script["diff"](SCRIPTS.parent, lines, tmp_path)
    assert report["identical"] is True
    assert list(report["settings"]) == ["default", "OPENBLAS_NUM_THREADS=1"]
    for entries in report["settings"].values():
        assert [(e["artifact"], e["status"]) for e in entries] == [("q.csv", "identical"),
                                                                    ("cmap.csv", "identical")]
        assert all(e["exit_codes"] == {"parent": 0, "change": 0} for e in entries)


def test_artifact_diff_reports_each_kind_of_change(tmp_path):
    compare = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))["compare"]
    original = ("# mfprop 0.1\n# config = {}\nlayer,q\n1,0.5\n2,0.25\n3,2\n# q_star = 1\n")
    parent = tmp_path / "parent.csv"
    parent.write_text(original)

    def against(text):
        change = tmp_path / "change.csv"
        change.write_text(text)
        return compare(parent, change)

    assert against(original) == {"status": "identical"}
    assert against(original.replace("{}", '{"a":1}')) == {"status": "header only"}
    assert against(original.replace("q_star = 1", "q_star = 2")) == {
        "status": "footer differs", "lines": [["# q_star = 1", "# q_star = 2"]]}
    doctored = against(original.replace("2,0.25", "2,0.3").replace("3,2\n", "3,2.5\n"))
    assert doctored["status"] == "rows differ" and doctored["rows"] == [3, 3]
    assert list(doctored["columns"]) == ["q"]
    q = doctored["columns"]["q"]
    assert q["rows"] == 2
    assert q["max_abs"] == pytest.approx(0.5) and q["max_rel"] == pytest.approx(0.25)
    assert compare(parent, tmp_path / "absent.csv") == {"status": "missing", "parent": True,
                                                       "change": False}
