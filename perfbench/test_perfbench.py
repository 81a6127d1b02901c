"""Self-tests of the benchmark: `python3 -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import machine

machine.load_mfprop()

import runner  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mfprop import meanfield as mf  # noqa: E402
from mfprop.quadrature import build_rule  # noqa: E402

HERE = Path(__file__).resolve().parent
RULES = {order: build_rule(order) for order in (201, 401, 1601)}


# ---------------------------------------------------------------------------
# schedules


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_schedule_is_deterministic(name):
    workload = workloads.WORKLOADS[name]
    assert workload.schedule(7) == workload.schedule(7)
    assert workload.schedule(0) != workload.schedule(7)


def test_schedule_sizes_and_seed_zero_configuration():
    theory, ensemble, manifold = (workloads.WORKLOADS[n] for n in
                                  ("theory-sweep", "ensemble-sim", "manifold-probe"))
    sweep = theory.schedule(0)
    assert len(sweep) == 30 * 15 + 15 + 3
    cells = [op.args for op in sweep if op.kind == "cell"]
    assert cells[0] == (0.1, 0.0) and cells[-1] == (4.0, 1.0)
    for seed in (1, 12345):
        assert sorted(op.args for op in theory.schedule(seed) if op.kind == "cell") == sorted(cells)
    assert len(ensemble.schedule(0)) == 105
    assert len(manifold.schedule(0)) >= 100


def test_ensemble_repeats_realizations_and_manifold_does_not():
    ensemble = workloads.WORKLOADS["ensemble-sim"]
    draws = [(op.kind, op.args[2]) for op in ensemble.schedule(0)
             if op.kind in ("length", "corr")]
    assert len(draws) == 75 and len(draws) - len(set(draws)) == 65
    manifold = workloads.WORKLOADS["manifold-probe"]
    nets = [op.args[0] for op in manifold.schedule(3) if op.kind == "jet"]
    assert len(nets) == len(set(nets)) == 4


def test_pass_seeds_are_distinct_and_start_at_the_run_seed():
    seeds = [runner.pass_seed(5, k) for k in range(4)]
    assert seeds[0] == 5 and len(set(seeds)) == 4
    assert seeds == [runner.pass_seed(5, k) for k in range(4)]


# ---------------------------------------------------------------------------
# percentiles


def test_percentile_needs_ten_samples_beyond():
    assert runner.percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        runner.percentile(list(range(99)), 90)
    assert runner.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        runner.percentile(list(range(19)), 50)


def test_highest_percentile_with_ten_beyond():
    assert runner.highest_percentile(list(range(100))) == (90.0, 89.0)
    assert runner.highest_percentile(list(range(999))) == (90.0, 899.0)
    assert runner.highest_percentile(list(range(1000))) == (99.0, 989.0)
    assert runner.highest_percentile(list(range(10_000)))[0] == 99.9
    with pytest.raises(ValueError):
        runner.highest_percentile(list(range(19)))


# ---------------------------------------------------------------------------
# theory-sweep classification


def _cell(sigma_w, sigma_b, value=None, error=None):
    outcome = runner.Outcome(runner.OpSpec("cell", (sigma_w, sigma_b)), 0.0, value, error)
    if error is not None:
        outcome.fail(f"{type(error).__name__}: {error}")
    return outcome


def test_q_star_zero_refusal_counts_as_correct():
    sweep = workloads.WORKLOADS["theory-sweep"]
    refusal = _cell(0.5, 0.0, error=ValueError("c-map is undefined at q* = 0"))
    bogus = _cell(2.0, 0.5, error=ValueError("c-map is undefined at q* = 0"))
    sweep.check([refusal, bogus], RULES)
    assert refusal.status == "refused" and not refusal.wrong
    assert bogus.status == "failed"


def test_unconverged_c_star_counts_as_failed():
    sweep = workloads.WORKLOADS["theory-sweep"]
    params = workloads._params(2.5, 0.3)
    q_star = mf.length_fixed_point(params, RULES[201])
    chi1 = mf.chi1(params, RULES[201], q_star=q_star)
    c_star = mf.correlation_trajectory(0.9, 1, params, RULES[201]).c_star
    unconverged = _cell(2.5, 0.3, value=(q_star, chi1, c_star, False))
    good = _cell(2.5, 0.3, value=(q_star, chi1, c_star, True))
    broken = _cell(2.5, 0.3, value=(q_star, chi1, 1.0, True))
    sweep.check([unconverged, good, broken], RULES)
    assert unconverged.status == "failed" and not unconverged.wrong
    assert good.status == "ok"
    assert broken.status == "failed" and broken.wrong


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_nested_spans_of_other_layers():
    rec = spans.SpanRecorder()
    tree = [("meanfield.f", 0, 100, -1), ("quadrature.q", 10, 30, 0),
            ("meanfield.g", 40, 60, 0), ("quadrature.q", 45, 55, 2)]
    for name, start, end, parent in tree:
        rec.name_id.append(rec._nid(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
    self_ns, calls = rec.self_times()
    assert self_ns == {"meanfield.f": 70, "meanfield.g": 10, "quadrature.q": 30}
    assert calls["quadrature.q"] == 2


# ---------------------------------------------------------------------------
# smoke-sized runs


class SmokeSweep(workloads.TheorySweep):
    SIGMA_W = np.linspace(0.1, 4.0, 4)
    SIGMA_B = np.linspace(0.0, 1.0, 3)


class SmokeEnsemble(workloads.EnsembleSim):
    WIDTH = 100
    N_SEEDS = 2
    N_CHUNKS = 1
    ORIENTATIONS = 2


class SmokeManifold(workloads.ManifoldProbe):
    NETS_PER_PASS = 1
    WIDTH = 100
    N_THETA = 64
    BOUNDARY_LAYERS = (5, 0)
    BOUNDARY_POINTS = 2


@pytest.mark.parametrize("workload", [SmokeSweep(), SmokeEnsemble(), SmokeManifold()],
                         ids=lambda w: w.name)
def test_smoke_sized_pass_completes(workload):
    result = runner.run_pass(workload, 3, RULES)
    assert len(result.outcomes) == len(workload.schedule(3))
    assert all(o.error is None for o in result.outcomes if o.status != "refused")
    assert result.wall > 0 and result.checks


def test_traced_counts_repeat_and_cover_every_per_layer_metric():
    def traced(workload):
        rec = spans.SpanRecorder()
        rec.install()
        try:
            runner.run_pass(workload, 1, RULES, recorder=rec)
        finally:
            rec.uninstall()
        return spans.layer_metrics(rec)

    first = traced(SmokeEnsemble())
    again = traced(SmokeEnsemble())
    counts = {k: v for k, v in first.items() if k.endswith((".calls", ".normals"))}
    assert counts == {k: again[k] for k in counts}
    assert first["simulator.sample_network.calls"][0] == 30
    assert first["simulator.sample_network.repeat_share"][0] == pytest.approx(26 / 30)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    reported = set(first) | {"machine.gemm_gflops", "machine.ns_per_normal",
                             "trace.overhead_s"}
    assert {m["name"] for m in declared} == reported
    assert all(first[m["name"]][1] == m["unit"] for m in declared if m["name"] in first)
    assert mf.length_fixed_point.__module__ == "mfprop.meanfield"
    assert not hasattr(mf.length_fixed_point, "__wrapped__")


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "theory-sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
