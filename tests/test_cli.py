import json
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest

from mfprop import cli
from mfprop import experiments as xp
from mfprop import expressivity as ex
from mfprop import simulator as sim
from mfprop.activations import builtin
from mfprop.cli import run
from mfprop.expressivity import fourier_error_profile, uniform_probe
from mfprop.meanfield import EnsembleParams, c_map, correlation_trajectory
from mfprop.quadrature import DEFAULT_ORDER, build_rule


def invoke(tmp_path, *argv):
    return run([str(a) for a in argv])


def read_embedded_config(path: str) -> dict:
    """The resolved config from a CSV artifact's header."""
    with open(path) as fh:
        for line in fh:
            if line.startswith("# config = "):
                return json.loads(line[len("# config = "):])
    raise ValueError(f"no embedded config found in {path}")


def read_rows(path):
    rows = []
    columns = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if columns is None:
            columns = line.split(",")
            continue
        rows.append(line.split(","))
    return columns, rows


def test_length_map_csv_contract(tmp_path):
    out = tmp_path / "lm.csv"
    status = run(["length-map", "--sigma-w", "4", "--sigma-b", "0.3",
                  "--depth", "10", "--q0", "2", "-o", str(out)])
    assert status == 0
    text = out.read_text()
    assert text.startswith("# mfprop ")
    columns, rows = read_rows(out)
    assert columns == ["layer", "q_theory"]
    assert len(rows) == 10
    assert "# q_star = " in text
    cfg = read_embedded_config(str(out))
    assert cfg["sigma_w"] == 4.0 and cfg["depth"] == 10


def test_length_map_footer_says_none_without_a_close_layer(tmp_path):
    # defaults sigma_w = 1, sigma_b = 0: q* = 0 and q^l decays like 1/l
    out = tmp_path / "lm.csv"
    assert run(["length-map", "-o", str(out)]) == 0
    assert "# iterations_to_1pct = none\n" in out.read_text()


def test_identical_runs_are_byte_identical(tmp_path):
    args = ["c-map", "--sw", "2.5", "--sb", "0.3", "--depth", "6"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    assert a.read_text().replace("a.csv", "X") == b.read_text().replace("b.csv", "X")


def test_config_roundtrip_reproduces_output(tmp_path):
    first = tmp_path / "first.csv"
    assert run(["curvature", "--sw", "4", "--sb", "0.3", "--depth", "5",
                "--order", "401", "-o", str(first)]) == 0
    cfg = read_embedded_config(str(first))
    cfg.pop("command")
    cfg.pop("out")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    second = tmp_path / "second.csv"
    assert run(["curvature", "--config", str(cfg_path), "-o", str(second)]) == 0
    assert (first.read_text().replace("first.csv", "X")
            == second.read_text().replace("second.csv", "X"))


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sigma_w": 4.0, "sigma_b": 0.3, "depth": 3}))
    out = tmp_path / "out.csv"
    assert run(["length-map", "--config", str(cfg_path), "--depth", "5",
                "-o", str(out)]) == 0
    cfg = read_embedded_config(str(out))
    assert cfg["depth"] == 5 and cfg["sigma_w"] == 4.0


@pytest.mark.parametrize("text, message", [
    ('{"depth": "ten"}', "depth = 'ten' is not a valid int"),
    ('{"depth": 2.5}', "depth = 2.5 is not a valid int"),
    ('{"sigma_w": [4]}', "sigma_w = [4] is not a valid float"),
    ('{"depth": ', "is not valid JSON"),
    ("[4, 0.3]", "must hold a JSON object"),
    (None, "cannot read config file"),
])
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    out = tmp_path / "out.csv"
    assert run(["length-map", "--config", str(cfg_path), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "cfg.json" in err
    assert not out.exists()


def test_config_key_the_command_lacks_is_a_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": "fourier", "widht": 30, "ridge": 0.5}))
    out = tmp_path / "out.csv"
    assert run(["fourier", "--config", str(cfg_path), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'widht'" in err and "'ridge'" in err and "cfg.json" in err
    assert not out.exists()


def test_config_key_the_command_lacks_is_ignored_when_null(tmp_path):
    # fourier artifacts written while it took --ridge carry "ridge": null
    args = ["fourier", "--sw", "2.5", "--sb", "0.3", "--depths", "1,2", "--width", "20",
            "--omega-max", "5", "--theta-samples", "32"]
    first = tmp_path / "first.csv"
    assert run(args + ["-o", str(first)]) == 0
    cfg = read_embedded_config(str(first))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, "ridge": None}))
    second = tmp_path / "second.csv"
    assert run(["fourier", "--config", str(cfg_path), "-o", str(second)]) == 0
    assert (first.read_text().replace("first.csv", "X")
            == second.read_text().replace("second.csv", "X"))


def test_phase_grid_emits_boundary_file(tmp_path):
    out = tmp_path / "grid.csv"
    status = run(["phase-grid", "--sw", "0.5:4:4", "--sb", "0:0.6:3",
                  "-o", str(out)])
    assert status == 0
    columns, rows = read_rows(out)
    assert columns == ["sigma_w", "sigma_b", "q_star", "c_star", "chi1", "c_converged"]
    assert len(rows) == 12
    boundary = tmp_path / "grid.csv.boundary.csv"
    bcols, brows = read_rows(boundary)
    assert bcols == ["sigma_b", "sigma_w_star"]
    assert len(brows) == 3
    assert float(brows[0][1]) == pytest.approx(1.0, abs=1e-6)


def test_simulate_pair_mode(tmp_path):
    out = tmp_path / "pair.csv"
    assert run(["simulate", "--sw", "2.5", "--sb", "0.3", "--depth", "4",
                "--width", "200", "--seeds", "2", "--c0", "0.8", "-o", str(out)]) == 0
    columns, rows = read_rows(out)
    assert columns == ["layer", "c_theory", "c_emp"]
    assert float(rows[0][1]) == pytest.approx(0.8)


def test_simulate_length_mode(tmp_path):
    # without --c0 the network propagates one input of squared length q0
    args = ["simulate", "--sw", "2.5", "--sb", "0.3", "--depth", "4", "--width", "200",
            "--seeds", "2", "--q0", "0.5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    columns, rows = read_rows(a)
    assert columns == ["layer", "q_theory", "q_emp"]
    assert [row[0] for row in rows] == ["1", "2", "3", "4"]
    assert float(rows[0][1]) == 2.5**2 * 0.5 + 0.3**2
    assert a.read_text().rstrip("\n").splitlines()[-1].startswith("# q_star = ")
    assert a.read_text().replace("a.csv", "X") == b.read_text().replace("b.csv", "X")


def test_shallow_bound_columns(tmp_path, capsys):
    out = tmp_path / "bound.csv"
    args = ["shallow-bound", "--n-trials", "3", "--n-hidden", "50", "--sw", "4",
            "--theta-samples", "64", "--seed", "1", "-o", str(out)]
    assert run(args) == 0
    columns, rows = read_rows(out)
    assert columns == ["trial", "LE", "bound"]
    assert len(rows) == 3
    assert all(float(r[1]) <= float(r[2]) for r in rows)
    assert "input_width" not in read_embedded_config(str(out))
    # the lengths do not depend on the input width, so there is no flag for it
    out.unlink()
    assert run(args + ["--input-width", "60"]) == 1
    assert not out.exists()
    capsys.readouterr()


def test_fourier_columns(tmp_path):
    out = tmp_path / "fourier.csv"
    assert run(["fourier", "--sw", "2.5", "--sb", "0.3", "--depths", "1,2",
                "--width", "40", "--omega-max", "8", "--theta-samples", "64",
                "--seed", "1", "-o", str(out)]) == 0
    columns, rows = read_rows(out)
    assert columns == ["depth", "frequency", "error"]
    assert len(rows) == 2 * 9


def test_weight_chaos_columns(tmp_path):
    out = tmp_path / "wc.csv"
    assert run(["weight-chaos", "--sw", "4", "--sb", "0.3", "--depth", "3",
                "--width", "80", "--deltas", "0:0.4:3", "--theta-samples", "32",
                "--seed", "1", "-o", str(out)]) == 0
    columns, rows = read_rows(out)
    assert columns == ["delta", "C_theory", "C_empirical"]
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-12)


def test_boundary_command_kappa_ranks(tmp_path):
    out = tmp_path / "bd.csv"
    assert run(["boundary", "--sw", "4", "--sb", "0.3", "--depth", "3",
                "--width", "20", "--n-points", "2", "--seed", "1",
                "-o", str(out)]) == 0
    columns, rows = read_rows(out)
    assert columns == ["layer", "point_id", "kappa_rank", "kappa_value"]
    ranks = {r[2] for r in rows}
    assert ranks == {"1", "2", "3", "4", "-1", "-2", "-3", "-4"}


@pytest.mark.parametrize("width, ranks", [(4, [1, 2, 3]), (6, [1, 2, 3, 4, -1])])
def test_boundary_lists_each_curvature_once_at_small_widths(tmp_path, width, ranks):
    # a point has width - 1 curvatures; below width 9 the top four and the
    # bottom four overlap, and every curvature is listed once, in order
    out = tmp_path / "bd.csv"
    assert run(["boundary", "--sw", "4", "--sb", "0.3", "--depth", "3",
                "--width", str(width), "--n-points", "2", "--seed", "1",
                "-o", str(out)]) == 0
    summaries = xp.boundary_curvature(EnsembleParams(4.0, 0.3, builtin("tanh")), 3, width,
                                      2, 1, build_rule(DEFAULT_ORDER))
    expected = [[str(s.layer), str(pid), str(rank), f"{k:.17g}"]
                for s in summaries for pid, kappas in enumerate(s.kappas)
                for rank, k in zip(ranks, kappas, strict=True)]
    assert expected and read_rows(out)[1] == expected


def test_boundary_refuses_activation_without_smooth_second_derivative(tmp_path, capsys):
    out = tmp_path / "bd.csv"
    assert run(["boundary", "--nl", "relu", "--sw", "2", "--sb", "0.3", "--depth", "3",
                "--width", "20", "--n-points", "2", "--seed", "1", "-o", str(out)]) == 2
    assert "phi''" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--depth", "3", "--n-points", "0"], "n_points must be >= 1"),
    (["--depth", "1", "--n-points", "2"], "depth must be >= 2"),
])
def test_boundary_refuses_bad_sizes(tmp_path, capsys, argv, message):
    out = tmp_path / "bd.csv"
    assert run(["boundary", "--sw", "4", "--sb", "0.3", "--width", "20", *argv,
                "-o", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_boundary_refuses_no_points_before_sampling(tmp_path, no_draws):
    # n_points = 0 is refused before the network is drawn
    assert run(["boundary", "--sw", "4", "--sb", "0.3", "--width", "20", "--depth", "3",
                "--n-points", "0", "-o", str(tmp_path / "bd.csv")]) == 1
    assert no_draws == []


_CHAOTIC = EnsembleParams(4.0, 0.3, builtin("tanh"))
_RULE = build_rule(DEFAULT_ORDER)


# Each experiment entry point, called with one bad size, and the words of the
# ValueError that name it; an argv is run through the CLI, which exits 1
_BAD_SIZES = {
    "length-depth": (lambda: xp.length_agreement([(_CHAOTIC, 1.0)], 0, 20, 0, 1, _RULE),
                     "depth must be >= 1"),
    "length-n_seeds": (lambda: xp.length_agreement([(_CHAOTIC, 1.0)], 3, 20, 0, 0, _RULE),
                       "n_seeds must be >= 1"),
    "correlation-n_seeds": (
        lambda: xp.correlation_agreement([(_CHAOTIC, 0.5)], 3, 20, 0, 0, _RULE),
        "n_seeds must be >= 1"),
    "curvature-depth": (lambda: xp.curvature_agreement(_CHAOTIC, 0, 20, 16, 0, _RULE),
                        "depth must be >= 1"),
    "curvature-width": (lambda: xp.curvature_agreement(_CHAOTIC, 3, 1, 16, 0, _RULE),
                        "width must be >= 2"),
    "curvature-n_theta": (lambda: xp.curvature_agreement(_CHAOTIC, 3, 20, 0, 0, _RULE),
                          "n_theta must be >= 1"),
    "boundary-depth": (lambda: xp.boundary_curvature(_CHAOTIC, 1, 20, 2, 0, _RULE),
                       "depth must be >= 2"),
    "boundary-n_points": (lambda: xp.boundary_curvature(_CHAOTIC, 3, 20, 0, 0, _RULE),
                          "n_points must be >= 1"),
    "circle-depth": (lambda: xp.circle_at_fixed_point(_CHAOTIC, 0, 20, 16, _RULE, 0),
                     "depth must be >= 1"),
    "circle-n_theta": (lambda: xp.circle_at_fixed_point(_CHAOTIC, 3, 20, 0, _RULE, 0),
                       "n_theta must be >= 1"),
    "fourier-depths": (lambda: xp.fourier_errors(_CHAOTIC, [0], 20, 4, 16, 0, _RULE), "depths"),
    "fourier-omega_max": (lambda: xp.fourier_errors(_CHAOTIC, [2], 20, 0, 16, 0, _RULE),
                          "omega_max must be >= 1"),
    "jet-n_theta": (lambda: xp.jet_errors(_CHAOTIC, (20, 20, 20), [], 1e-5, 0, 0, _RULE),
                    "n_theta must be >= 1"),
    "weight_chaos-depth": (
        lambda: ex.weight_chaos_empirical(_CHAOTIC, (20, 20), [0.1], 0, rule=_RULE),
        "depth must be >= 2"),
    "cli-boundary-depth": (["boundary", "--sw", "4", "--sb", "0.3", "--width", "20",
                            "--depth", "1", "--n-points", "2"], "depth must be >= 2"),
}


@pytest.mark.parametrize("call, named", _BAD_SIZES.values(), ids=_BAD_SIZES.keys())
def test_experiments_refuse_bad_sizes_before_any_draw(tmp_path, capsys, no_draws, call, named):
    if isinstance(call, list):
        out = tmp_path / "out.csv"
        assert run(call + ["-o", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()
    else:
        with pytest.raises(ValueError, match=named):
            call()
    assert no_draws == []


@pytest.mark.parametrize("argv, message", [
    (["--n-trials", "0", "--n-hidden", "10"], "n_trials must be >= 1"),
    (["--n-trials", "2", "--n-hidden", "0"], "n_hidden must be >= 1"),
])
def test_shallow_bound_refuses_bad_sizes(tmp_path, capsys, argv, message):
    out = tmp_path / "sb.csv"
    assert run(["shallow-bound", "--sw", "4", *argv, "-o", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_shallow_bound_takes_no_quadrature_order(tmp_path, capsys):
    # the bound solves no theory, so a quadrature order would be ignored
    out = tmp_path / "sb.csv"
    args = ["shallow-bound", "--n-trials", "1", "--n-hidden", "5", "--sw", "4",
            "--theta-samples", "16", "-o", str(out)]
    assert run(args + ["--order", "401"]) == 1
    assert "--order" in capsys.readouterr().err
    assert not out.exists()
    assert run(args) == 0
    assert "order" not in read_embedded_config(str(out))


@pytest.mark.parametrize("argv", [
    ["curvature", "--nl", "relu", "--sw", "1.2"],
    ["curvature", "--nl", "hard_tanh", "--sw", "2"],
    ["boundary", "--nl", "hard_tanh", "--sw", "2", "--width", "20", "--depth", "3",
     "--n-points", "2"],
    # an expansive relu map: phi'' is refused before the q* solve can fail
    ["curvature", "--nl", "relu", "--sw", "2"],
])
def test_curvature_commands_refuse_activation_without_smooth_phi2(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert run(argv + ["--sb", "0.3", "-o", str(out)]) == 2
    assert "has no smooth phi''" in capsys.readouterr().err
    assert not out.exists()


def test_autocorr_and_spectrum_run(tmp_path):
    ac = tmp_path / "ac.csv"
    assert run(["autocorr", "--sw", "4", "--sb", "0.3", "--depth", "2",
                "--width", "60", "--theta-samples", "16", "--seed", "1",
                "-o", str(ac)]) == 0
    columns, rows = read_rows(ac)
    assert columns == ["layer", "dtheta", "c_emp", "c_theory"]
    assert float(rows[0][3]) == pytest.approx(1.0)
    sp = tmp_path / "sp.csv"
    assert run(["spectrum", "--sw", "4", "--sb", "0.3", "--depth", "2",
                "--width", "30", "--theta-samples", "16", "--seed", "1",
                "-o", str(sp)]) == 0
    columns, rows = read_rows(sp)
    assert columns == ["layer", "rank", "singular_value", "variance_fraction"]


def test_autocorr_advances_the_theory_only_between_layers(tmp_path, monkeypatch):
    calls = []

    def counted_c_map(*args, **kwargs):
        calls.append(args[0])
        return c_map(*args, **kwargs)

    monkeypatch.setattr(cli, "c_map", counted_c_map)
    depth, n_theta = 3, 8
    out = tmp_path / "ac.csv"
    assert invoke(tmp_path, "autocorr", "--sw", 4, "--sb", 0.3, "--depth", depth, "--width", 30,
                  "--theta-samples", n_theta, "--seed", 1, "-o", out) == 0
    assert len(read_rows(out)[1]) == depth * n_theta
    assert len(calls) == (depth - 1) * n_theta


@pytest.mark.parametrize("top_k", ["0", "-1"])
def test_spectrum_nonpositive_top_k_is_a_usage_error(tmp_path, capsys, top_k):
    out = tmp_path / "sp.csv"
    assert run(["spectrum", "--sw", "4", "--sb", "0.3", "--depth", "2",
                "--width", "30", "--theta-samples", "16", "--seed", "1",
                "--top-k", top_k, "-o", str(out)]) == 1
    assert "top_k" in capsys.readouterr().err
    assert not out.exists()


def test_json_format(tmp_path):
    out = tmp_path / "lm.json"
    assert run(["length-map", "--sw", "2.0", "--depth", "3", "--format", "json",
                "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["layer", "q_theory"]
    assert len(payload["rows"]) == 3
    assert payload["config"]["sigma_w"] == 2.0


def test_usage_errors_exit_1(capsys):
    assert run(["no-such-command"]) == 1
    assert run([]) == 1
    assert run(["phase-grid", "--sw", "oops"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command, module, experiment, key, flag, value, message", [
    ("weight-chaos", cli.expr_mod, "weight_chaos_empirical", "format", "--format", "xml",
     "unknown output format 'xml'"),
    ("length-map", cli, "length_trajectory", "nonlinearity", "--nl", "foo",
     "unknown nonlinearity 'foo'"),
], ids=["format", "nonlinearity"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_bad_choice_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch, via,
                                                     command, module, experiment, key,
                                                     flag, value, message):
    calls = []
    monkeypatch.setattr(module, experiment, lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "out.csv"
    if via == "flag":
        argv = [command, flag, value]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        argv = [command, "--config", str(cfg_path)]
    assert run(argv + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and message in err
    assert not out.exists()
    assert calls == []


def test_every_readme_cli_line_parses():
    # README's CLI block names every subcommand, and each line parses and
    # resolves as the CLI would run it (no handler runs)
    script = Path(__file__).resolve().parent.parent / "scripts" / "artifact_diff.py"
    lines = runpy.run_path(str(script))["readme_lines"]()
    assert {argv[0] for argv in lines} == set(cli._COMMANDS)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("```python\n", readme.index("## Library example")) + len("```python\n")
    block = readme[start:readme.index("```\n", start)]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    theory_lg, measured_lg = map(float, capsys.readouterr().out.split()[:2])
    assert theory_lg == namespace["run"].theory.LG[-1] and measured_lg == namespace["run"].LG[-1]
    assert abs(measured_lg / theory_lg - 1.0) < 0.1


def test_numerical_failure_exits_2(tmp_path, capsys):
    # c-map is undefined at q* = 0
    assert run(["c-map", "--sw", "0.5", "--sb", "0",
                "-o", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err


# Arguments refused with a ValueError before any work, and the words of its
# message that name what was refused
_REFUSALS = [
    (["phase-grid", "--sw", "1:1:1"], "len(sigma_w_axis) must be >= 2"),
    (["phase-grid", "--sw", "4:0.1:5"], "strictly increasing"),
    (["weight-chaos", "--sw", "4", "--sb", "0.3", "--deltas", "0:2:3"], "deltas"),
    (["weight-chaos", "--sw", "4", "--sb", "0.3", "--depth", "1"], "depth must be >= 2"),
    (["simulate", "--width", "0"], "widths"),
    (["simulate", "--depth", "0"], "depth"),
    (["simulate", "--q0", "-1"], "q0"),
    (["length-map", "--depth", "0"], "depth"),
    (["length-map", "--sw", "-1"], "sigma_w must"),
    (["length-map", "--order", "1"], "order"),
    (["c-map", "--sw", "2.5", "--sb", "0.3", "--c0", "2"], "c0"),
    (["autocorr", "--sw", "4", "--sb", "0.3", "--theta-samples", "0"], "n_theta"),
    (["fourier", "--sw", "2.5", "--sb", "0.3", "--omega-max", "50", "--theta-samples", "64"],
     "omega_max"),
    (["spectrum", "--sw", "4", "--sb", "0.3", "--width", "1"], "width"),
    (["validate-all", "--only", "11"], "no criterion [11]"),
    # a nonzero sigma whose square overflows or underflows
    (["length-map", "--sw", "1e200"], "sigma_w must"),
    (["length-map", "--sb", "1e200"], "sigma_b must"),
    (["c-map", "--sw", "1", "--sb", "1e-200"], "sigma_b must"),
    # the first-layer length sigma_w^2 q0 + sigma_b^2 overflows
    (["length-map", "--sw", "4", "--q0", "1e308"], "q0 = 1e+308, sigma_w = 4.0"),
    # NaN fails every range check, before any work and at any depth
    (["c-map", "--c0", "nan", "--depth", "1"], "c0 must"),
    (["c-map", "--sw", "2.5", "--sb", "0.3", "--c0", "nan"], "c0 must"),
    (["simulate", "--c0", "nan", "--depth", "1"], "c0 must"),
    (["shallow-bound", "--q0", "nan"], "q must"),
    (["shallow-bound", "--q0", "inf"], "q must"),
    (["weight-chaos", "--sw", "4", "--sb", "0.3", "--deltas", "nan:0.5:3"], "deltas must"),
    # a range that does not convert is named whole
    (["phase-grid", "--sw", "0.1:4:x"], "range must be lo:hi:count, got '0.1:4:x'"),
    (["phase-grid", "--sb", "a:1:5"], "range must be lo:hi:count, got 'a:1:5'"),
    (["weight-chaos", "--deltas", "0:0.5:2.5"], "range must be lo:hi:count, got '0:0.5:2.5'"),
]


@pytest.mark.parametrize("argv, named",
                         [pytest.param(argv, named, id=" ".join(argv)) for argv, named in _REFUSALS])
def test_library_refusals_are_usage_errors(tmp_path, capsys, no_draws, argv, named):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and named in err
    assert not out.exists()
    assert no_draws == []


@pytest.mark.parametrize("argv", [
    ["length-map", "--sw", "4", "--sb", "0.3"],
    ["simulate", "--width", "20", "--depth", "2", "--seeds", "1"],
    ["validate-all", "--only", "2"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("kind", ["missing-directory", "directory"])
def test_unwritable_out_is_a_usage_error_before_any_work(tmp_path, capsys, no_draws, argv, kind):
    out = tmp_path / "no-such-dir" / "out.csv" if kind == "missing-directory" else tmp_path
    assert run(argv + ["-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ") and repr(str(out)) in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert "criterion" not in captured.out
    assert no_draws == []


def test_degenerate_curvature_recursion_exits_2(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run(["curvature", "--sw", "0", "--sb", "0.3", "-o", str(out)]) == 2
    assert "numerical failure: chi1 = 0" in capsys.readouterr().err
    assert not out.exists()


def test_linalg_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, so the usage-error clause must not
    # catch it first
    def fail(cfg):
        raise np.linalg.LinAlgError("SVD did not converge")

    flags, _handler = cli._COMMANDS["length-map"]
    monkeypatch.setitem(cli._COMMANDS, "length-map", (flags, fail))
    assert run(["length-map", "-o", str(tmp_path / "out.csv")]) == 2
    assert "numerical failure: SVD did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("only", [",", " ", ""])
def test_validate_all_refuses_an_empty_selection(tmp_path, capsys, only):
    report = tmp_path / "report.txt"
    assert run(["validate-all", "--only", only, "-o", str(report)]) == 1
    captured = capsys.readouterr()
    assert "no criterion selected" in captured.err
    assert "criterion" not in captured.out
    assert not report.exists()


def test_validate_all_subset(capsys, tmp_path):
    report = tmp_path / "report.txt"
    assert run(["validate-all", "--only", "2", "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "criterion 2" in out and "PASS" in out
    assert report.read_text().startswith("[PASS]")


def test_floats_printed_with_17_significant_digits(tmp_path):
    out = tmp_path / "lm.csv"
    assert run(["length-map", "--sw", "4", "--sb", "0.3", "--depth", "2",
                "--q0", "2", "-o", str(out)]) == 0
    _, rows = read_rows(out)
    assert rows[0][1] == "32.090000000000003"


def test_phase_grid_footer_lists_each_cell_error(tmp_path):
    # linear activation: sigma_w = 1.5 is expansive, so both of its cells fail
    out = tmp_path / "grid.csv"
    assert run(["phase-grid", "--nl", "linear", "--sw", "0.5:1.5:2", "--sb", "0.1:0.4:2",
                "-o", str(out)]) == 0
    footer = [line for line in out.read_text().splitlines() if line.startswith("# cell_error")]
    assert footer[0] == "# cell_errors = 2"
    assert [line.split(" = ")[0] for line in footer[1:]] == [
        "# cell_error[1,0]", "# cell_error[1,1]"]
    assert all("no finite fixed point" in line for line in footer[1:])
    _, rows = read_rows(out)
    assert [r[2] for r in rows[2:]] == ["nan", "nan"]


def test_simulate_refuses_zero_seeds(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["simulate", "--sw", "2", "--sb", "0.3", "--depth", "2",
                    "--width", "20", "--seeds", "0", "-o", str(out)]) == 1
    assert "n_seeds must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("depths", [",", "0,2", "-1"])
def test_fourier_refuses_empty_or_nonpositive_depths(tmp_path, capsys, depths):
    out = tmp_path / "fourier.csv"
    assert run(["fourier", "--sw", "2.5", "--sb", "0.3", "--depths", depths,
                "--width", "40", "--omega-max", "8", "--theta-samples", "64",
                "-o", str(out)]) == 1
    assert "depths" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--sw", "0", "--sb", "0.3"], "sigma_w > 0"),
    ([], "q* > 0"),  # CLI defaults sigma_w = 1, sigma_b = 0: q* = 0
])
def test_boundary_refuses_degenerate_ensembles(tmp_path, capsys, argv, message):
    out = tmp_path / "bd.csv"
    assert run(["boundary", *argv, "--depth", "3", "--width", "20", "--n-points", "2",
                "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_pair_mode_averages_eight_orientations(tmp_path):
    out = tmp_path / "pair.csv"
    assert run(["simulate", "--sw", "2.5", "--sb", "0.3", "--depth", "3",
                "--width", "50", "--seeds", "2", "--seed", "7", "--c0", "0.6",
                "-o", str(out)]) == 0
    params = EnsembleParams(2.5, 0.3, builtin("tanh"))
    q_star = correlation_trajectory(0.6, 3, params, build_rule(201)).chi.q_star
    acc = np.zeros(3)
    for seed in (7, 8):
        net = sim.sample_network((50,) * 4, params, seed)
        for orient in range(8):
            hA, hB = sim.pair_at_correlation(50, q_star, 0.6, seed=1_000_000 * (orient + 1) + seed)
            records = sim.forward_from_first(net, np.stack([hA, hB]))
            acc += [sim.empirical_correlation(r.h[0], r.h[1])[3] for r in records]
    _, rows = read_rows(out)
    assert [float(r[2]) for r in rows] == pytest.approx(acc / 16, abs=1e-15)


def test_fourier_runs_the_shared_circle_experiment(tmp_path):
    # the CLI's circle is experiments.circle_at_fixed_point's: net seed s,
    # circle seed s + 50, as in acceptance criterion 8 (both run
    # experiments.fourier_errors)
    out = tmp_path / "fourier.csv"
    assert run(["fourier", "--sw", "2.5", "--sb", "0.3", "--depths", "1,2", "--width", "20",
                "--omega-max", "5", "--theta-samples", "32", "--seed", "3",
                "-o", str(out)]) == 0
    params = EnsembleParams(2.5, 0.3, builtin("tanh"))
    _, records = xp.circle_at_fixed_point(params, 2, 20, 32, build_rule(201), 3)
    expected = []
    for rec in records:
        profile = fourier_error_profile(params.nonlinearity.value(rec.h), uniform_probe(5, 32))
        expected += [[str(rec.layer), str(freq), f"{err:.17g}"]
                     for freq, err in enumerate(profile.errors)]
    _, rows = read_rows(out)
    assert rows == expected
    # depths are reported once each, in layer order
    shuffled = tmp_path / "shuffled.csv"
    assert run(["fourier", "--sw", "2.5", "--sb", "0.3", "--depths", "2,1,2", "--width", "20",
                "--omega-max", "5", "--theta-samples", "32", "--seed", "3",
                "-o", str(shuffled)]) == 0
    assert read_rows(shuffled)[1] == expected
