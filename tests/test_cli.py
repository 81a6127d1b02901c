import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from mfprop import cli
from mfprop import experiments as xp
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
    (["--depth", "3", "--n-points", "0"], "--n-points >= 1"),
    (["--depth", "1", "--n-points", "2"], "--depth >= 2"),
])
def test_boundary_refuses_bad_sizes(tmp_path, capsys, argv, message):
    out = tmp_path / "bd.csv"
    assert run(["boundary", "--sw", "4", "--sb", "0.3", "--width", "20", *argv,
                "-o", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--n-trials", "0", "--n-hidden", "10"], "--n-trials >= 1"),
    (["--n-trials", "2", "--n-hidden", "0"], "--n-hidden >= 1"),
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
def test_spectrum_nonpositive_top_k_exits_2(tmp_path, capsys, top_k):
    out = tmp_path / "sp.csv"
    assert run(["spectrum", "--sw", "4", "--sb", "0.3", "--depth", "2",
                "--width", "30", "--theta-samples", "16", "--seed", "1",
                "--top-k", top_k, "-o", str(out)]) == 2
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
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("mfprop ")]
    parser = cli._build_parser()
    commands = set()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        commands.add(cli._resolve_config(args.command, args)["command"])
    assert commands == set(cli._COMMANDS)


def test_numerical_failure_exits_2(tmp_path, capsys):
    # c-map is undefined at q* = 0
    assert run(["c-map", "--sw", "0.5", "--sb", "0",
                "-o", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err


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
                    "--width", "20", "--seeds", "0", "-o", str(out)]) == 2
    assert "realization" in capsys.readouterr().err
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
