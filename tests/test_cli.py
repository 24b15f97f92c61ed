"""End-to-end CLI checks: flags, file emission, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwhorl.cli import COMMANDS, build_parser, main, parse_args
from qwhorl.core import MU1
from qwhorl.liouville import GaussianState, initial_distribution

from conftest import read_output

PANEL_TAUS = [math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi]


class TestParsing:
    def test_defaults_match_protocol(self):
        cfg = parse_args(["evolve"])
        assert cfg.params.q == 0.5
        assert complex(cfg.center) == 0.5 + 0.0j
        assert cfg.radius == 0.5
        assert (cfg.grid.xmin, cfg.grid.xmax, cfg.grid.ymin, cfg.grid.ymax) == (-1, 1, -1, 1)
        assert cfg.taus == pytest.approx(PANEL_TAUS)
        assert cfg.profile.selector.value == "mu1"
        assert cfg.to_dict()["kind"] == "type1"

    def test_center_is_python_complex(self):
        cfg = parse_args(["evolve", "--alpha0-re", "0.25", "--alpha0-im", "-0.5"])
        assert type(cfg.center) is complex and cfg.center == 0.25 - 0.5j
        assert cfg.to_dict()["alpha0"] == [0.25, -0.5]

    def test_repeatable_tau(self):
        cfg = parse_args(["evolve", "--tau", "1.5707963", "--tau", "3.1415927"])
        assert cfg.taus == [1.5707963, 3.1415927]

    def test_bad_q_exits_2(self, capsys):
        assert main(["evolve", "--q", "1.5"]) == 2
        assert "--q must lie in (0, 1)" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["evolve", "--frobnicate", "1"]) == 2

    def test_unknown_subcommand_exits_2(self):
        assert main(["transmogrify"]) == 2

    def test_bad_window_exits_2(self, capsys):
        assert main(["evolve", "--window", "1,-1,0,2"]) == 2
        assert main(["evolve", "--window", "1,2,3"]) == 2

    def test_negative_window_values_need_equals_form(self):
        cfg = parse_args(["evolve", "--window=-2,2,-2,2"])
        assert (cfg.grid.xmin, cfg.grid.xmax, cfg.grid.ymin, cfg.grid.ymax) == (-2, 2, -2, 2)
        # as a separate argument, "-2,2,-2,2" reads as a flag
        assert main(["evolve", "--window", "-2,2,-2,2"]) == 2

    # n * n nodes beyond np.intp: refused before any array is allocated
    @pytest.mark.parametrize("grid", ["100000000000000000000", "3037000500"])
    @pytest.mark.parametrize("head", [["evolve"], ["contour", "--from-grid"]])
    def test_grid_beyond_the_index_range_exits_2(self, tmp_path, capsys, head, grid):
        out = tmp_path / "o"
        assert main(head + ["--grid", grid, "--tau", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: --grid {grid}: {grid}x{grid} nodes exceed" in err
        assert "law" not in err
        assert not out.exists()

    # refused while parsing, so no huge value ever runs
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["freq", "--s-samples", "100000000000000000000"], "--s-samples 100000000000000000000 exceeds"),
            (["contour", "--points", "9223372036854775808"], "--points 9223372036854775808 exceeds"),
            (["reproduce", "fig1", "--points", "100000000000000000000"], "--points 100000000000000000000"),
            (["verify", "--steps", "1000001"], "--steps must be <= 1000000"),
            (["verify", "--steps", "100000000000000000000"], "--steps must be <= 1000000"),
        ],
    )
    def test_size_beyond_its_bound_exits_2_naming_the_flag(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"error: {message}" in errors[0], errors

    def test_size_at_its_bound_parses(self):
        assert parse_args(["verify", "--steps", "1000000"]).steps == 1000000
        assert parse_args(["contour", "--points", "9223372036854775807"]).points == 2**63 - 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["freq", "--s-samples", "100000000000000000000"],
            ["contour", "--points", "100000000000000000000", "--tau", "1"],
            ["evolve", "--q", "0.01", "--window=-40,40,-40,40", "--tau", "1"],
        ],
    )
    def test_failed_request_leaves_no_out_directory(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "a" / "o")]) == 2
        assert not (tmp_path / "a").exists()

    def test_grid_beyond_the_index_range_in_config_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"grid": 10**20}))
        assert main(["evolve", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
        assert "--grid 100000000000000000000" in capsys.readouterr().err

    def test_negative_radius_exits_2(self):
        assert main(["contour", "--radius", "-0.5"]) == 2

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"q": 0.25, "grid": 16, "profile": "mu2"}))
        cfg = parse_args(["evolve", "--config", str(cfg_file)])
        assert cfg.params.q == 0.25
        assert cfg.grid.nx == 16
        assert cfg.profile.selector.value == "mu2"

    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"q": 0.25}))
        cfg = parse_args(["evolve", "--config", str(cfg_file), "--q", "0.75"])
        assert cfg.params.q == 0.75

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"qq": 0.25}))
        assert main(["evolve", "--config", str(cfg_file)]) == 2

    @pytest.mark.parametrize(
        "loaded, key",
        [({"tau": 1.0}, "--tau"), ({"grid": "abc"}, "--grid"), ({"q": "x"}, "--q")],
    )
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, loaded, key):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(loaded))
        assert main(["evolve", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err


def _actions(parser):
    """Every action of a parser and of its subcommand parsers."""
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _actions(sub)


class TestParserReuse:
    """One parser serves every parse_args call in a process; no call leaks into the next."""

    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_tau_list_does_not_carry_over(self):
        assert parse_args(["evolve", "--tau", "1", "--tau", "2"]).taus == [1.0, 2.0]
        assert parse_args(["evolve", "--tau", "3"]).taus == [3.0]
        assert parse_args(["evolve"]).taus == pytest.approx(PANEL_TAUS)

    def test_from_grid_does_not_carry_over(self):
        assert parse_args(["contour", "--from-grid"]).from_grid
        assert not parse_args(["contour"]).from_grid

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["evolve", "--bogus"], "unrecognized arguments: --bogus"),
            (["evolve", "--q", "2"], "--q must lie in (0, 1)"),
        ],
    )
    def test_bad_flag_exits_2_with_same_message_again(self, capsys, argv, message):
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert message in errors[0]

    def test_no_append_action_has_a_mutable_default(self):
        appends = [a for a in _actions(build_parser()) if isinstance(a, argparse._AppendAction)]
        assert appends
        assert all(a.default is None for a in appends)


class TestFlagTable:
    """Each subcommand takes only the flags its handler reads; --kind only checks the law."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_subparser_flags_are_the_table(self, command):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions} - {"help", "config", "figure"}
        assert dests == set(COMMANDS[command][1])

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["verify", "--grid", "4"], "--grid"),
            (["verify", "--format", "json"], "--format"),
            (["verify", "--profile", "mu2"], "--profile"),
            (["freq", "--tau", "1"], "--tau"),
            (["evolve", "--radius", "1"], "--radius"),
            (["reproduce", "fig2", "--profile", "mu2"], "--profile"),
            (["reproduce", "fig4", "--format", "json"], "--format"),
        ],
    )
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv, flag):
        assert main(argv) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["freq", "evolve", "contour"])
    def test_kind_that_disagrees_with_the_law_exits_2(self, tmp_path, capsys, command):
        argv = [command, "--profile", "mu2", "--kind", "type1", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--kind type1" in err and "mu2 law" in err and "type2" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "law,kind",
        [("undeformed", "none"), ("mu1", "type1"), ("mu2", "type2"), ("mu3", "type1"),
         ("mu4", "type2"), ("anharmonic", "none")],
    )
    def test_matching_kind_is_accepted_and_recorded(self, law, kind):
        with_kind = parse_args(["evolve", "--profile", law, "--kind", kind]).to_dict()
        assert with_kind == parse_args(["evolve", "--profile", law]).to_dict()
        assert with_kind["kind"] == kind

    @pytest.mark.parametrize(
        "head,loaded,named",
        [
            (["evolve"], {"seed": 3}, "seed"),
            (["evolve"], {"kind": "type1", "profile": "mu2"}, "--kind type1"),
            (["evolve"], {"profile": "mu9"}, "profile"),
            (["evolve"], {"format": "svg"}, "format"),
            (["evolve"], 3, "JSON object"),
            (["reproduce", "fig2"], {"profile": "mu2"}, "profile"),
        ],
    )
    def test_config_the_command_cannot_take_exits_2(self, tmp_path, capsys, head, loaded, named):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(loaded))
        assert main(head + ["--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_evolve_records_the_kind_of_its_law(self, tmp_path):
        out = tmp_path / "e"
        argv = ["evolve", "--profile", "mu2", "--grid", "8", "--tau", "1", "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "evolve_manifest.json").read_text())
        assert manifest["config"]["kind"] == "type2"
        assert read_output(out / "snap_tau1.json")["config"]["kind"] == "type2"

    def test_from_grid_radius_whose_level_underflows_exits_2(self, tmp_path, capsys):
        # exp(-radius**2) is 0.0 above radius ~27.3; 1e200 squared overflows
        for radius in ("30", "1e200"):
            argv = ["contour", "--from-grid", "--radius", radius, "--grid", "8", "--tau", "1"]
            assert main(argv + ["--out", str(tmp_path / "o")]) == 2
            assert "--radius" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_from_grid_radius_whose_level_rounds_to_1_exits_2(self, tmp_path, capsys):
        # exp(-radius**2) is 1.0 below radius ~7.45e-9
        for radius in ("1e-9", "7.4e-9"):
            argv = ["contour", "--from-grid", "--radius", radius, "--grid", "8", "--tau", "1"]
            assert main(argv + ["--out", str(tmp_path / "o")]) == 2
            assert "--radius" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_from_grid_radius_below_the_underflow_runs(self, tmp_path):
        argv = ["contour", "--from-grid", "--radius", "27", "--grid", "8", "--tau", "1"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0


def _load_perfbench(name):
    """The benchmark module perfbench/<name>.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


class TestBenchmarkRequestsParse:
    """Every request the benchmark sends still parses, onto the law it names."""

    @pytest.mark.parametrize("workload", ["snapshot", "whorl", "certify"])
    def test_one_cycle_parses(self, workload):
        mixes = _load_perfbench("mixes")
        requests = itertools.islice(mixes.stream(workload, 1), 1 + mixes.cycle_length(workload))
        for req in requests:
            cfg = parse_args(req.argv("out"))
            assert cfg.profile.selector.value == req.law
            assert cfg.to_dict()["kind"] == mixes.LAW_KIND[req.law]


class TestBenchmarkTracingTargets:
    """Every function the benchmark's tracer wraps still exists where it looks."""

    def test_every_target_resolves(self):
        tracing = _load_perfbench("tracing")
        for layer, names in tracing.TARGETS.items():
            module = importlib.import_module(f"qwhorl.{layer}")
            missing = [name for name in names if not callable(getattr(module, name, None))]
            assert missing == [], f"qwhorl.{layer} lacks {missing}"


class TestFreq:
    def test_mu1_table_values(self, tmp_path, capsys):
        out = tmp_path / "f"
        assert main(["freq", "--profile", "mu1", "--out", str(out)]) == 0
        cols = read_output(out / "freq_mu1.csv")
        assert len(cols["s"]) == 101
        assert cols["s"][0] == 0.0 and cols["s"][-1] == 1.0
        assert cols["omega_ratio"][0] == pytest.approx(0.9241962407465937, rel=1e-14)

    def test_mu2_row_zero(self, tmp_path):
        out = tmp_path / "f"
        assert main(["freq", "--profile", "mu2", "--out", str(out)]) == 0
        cols = read_output(out / "freq_mu2.csv")
        assert cols["omega_ratio"][0] == pytest.approx(1.3862943611198906, rel=1e-14)

    def test_undeformed_all_ones(self, tmp_path):
        out = tmp_path / "f"
        assert main(["freq", "--profile", "undeformed", "--out", str(out)]) == 0
        cols = read_output(out / "freq_undeformed.csv")
        assert np.all(cols["omega_ratio"] == 1.0)

    def test_custom_s_range(self, tmp_path):
        out = tmp_path / "f"
        assert (
            main(
                ["freq", "--profile", "mu1", "--s-range", "0,2", "--s-samples", "11", "--out", str(out)]
            )
            == 0
        )
        cols = read_output(out / "freq_mu1.csv")
        assert len(cols["s"]) == 11 and cols["s"][-1] == 2.0


class TestEvolve:
    def test_default_panel_files(self, tmp_path):
        out = tmp_path / "e"
        assert main(["evolve", "--grid", "32", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("snap_*.json"))
        assert len(names) == 4
        snap = read_output(out / names[0])
        assert snap["grid"]["nx"] == 32
        assert snap["config"]["q"] == 0.5
        assert snap["config"]["profile"] == "mu1"
        manifest = json.loads((out / "evolve_manifest.json").read_text())
        assert len(manifest["outputs"]) == 4
        assert manifest["outputs"][1]["tau_over_pi"] == pytest.approx(1.0)

    def test_tau_zero_matches_initial_distribution(self, tmp_path, params):
        out = tmp_path / "e"
        assert main(["evolve", "--grid", "16", "--tau", "0", "--out", str(out)]) == 0
        snap = read_output(out / "snap_tau0.json")
        state = GaussianState(complex(0.5), MU1, params)
        from qwhorl.field import GridSpec

        mesh = GridSpec.square(16).mesh_complex()
        expected = initial_distribution(mesh, state).ravel()
        assert np.array_equal(np.array(snap["values"]), expected)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "e"
        assert main(["evolve", "--grid", "8", "--tau", "1.0", "--format", "csv", "--out", str(out)]) == 0
        cols = read_output(out / "snap_tau1.csv")
        assert len(cols["value"]) == 64

    def test_svg_format_rejected(self, tmp_path):
        assert main(["evolve", "--format", "svg", "--out", str(tmp_path)]) == 2

    def test_snapshot_tau_is_the_requested_tau(self, tmp_path):
        # 0.1 * (tau / 0.1) rounds to 31.025583629491837, not tau
        tau = 31.02558362949184
        out = tmp_path / "e"
        argv = ["evolve", "--omega", "0.1", "--tau", repr(tau), "--grid", "4", "--out", str(out)]
        assert main(argv) == 0
        snap = read_output(out / "snap_tau31.02558363.json")
        manifest = json.loads((out / "evolve_manifest.json").read_text())
        assert snap["tau"] == manifest["outputs"][0]["tau"] == snap["config"]["tau"][0] == tau

    def test_peak_capture_fine_grid(self, tmp_path):
        out = tmp_path / "e"
        assert main(["evolve", "--grid", "512", "--tau", "3.141592653589793", "--out", str(out)]) == 0
        snap = read_output(out / "snap_tau3.141592654.json")
        assert max(snap["values"]) >= 0.999


class TestContour:
    def test_default_svg_panels(self, tmp_path):
        out = tmp_path / "c"
        assert main(["contour", "--points", "128", "--out", str(out)]) == 0
        files = sorted(out.glob("contour_*.svg"))
        assert len(files) == 4
        text = files[0].read_text()
        assert "<desc>" in text and '"profile": "mu1"' in text

    def test_csv_traces(self, tmp_path):
        out = tmp_path / "c"
        assert main(
            ["contour", "--points", "64", "--tau", "1.0", "--format", "csv", "--out", str(out)]
        ) == 0
        cols = read_output(out / "contour_tau1.csv")
        assert len(cols["x"]) == 64

    def test_from_grid_extraction(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(
            [
                "contour",
                "--from-grid",
                "--grid",
                "128",
                "--tau",
                "1.5707963267948966",
                "--out",
                str(out),
            ]
        ) == 0
        svg = (out / "contour_tau1.570796327.svg").read_text()
        assert "<path" in svg
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fmt", ["svg", "csv"])
    def test_from_grid_empty_panel_warns(self, tmp_path, capsys, fmt):
        # a radius-0.01 level set is far below an 8x8 grid's resolution: the
        # panel stays empty (a frame-only SVG, or no CSV) and one line says so
        out = tmp_path / "c"
        argv = ["contour", "--from-grid", "--radius", "0.01", "--grid", "8", "--tau", "1"]
        assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: empty panel at tau = 1: ") and err.count("\n") == 1
        assert "exp(-r^2) = 0.9999 " in err and "--grid" in err and "--radius" in err
        written = sorted(p.name for p in out.iterdir())
        if fmt == "svg":
            assert written == ["contour_manifest.json", "contour_tau1.svg"]
            assert "<path" not in (out / "contour_tau1.svg").read_text()
        else:
            assert written == ["contour_manifest.json"]

    def test_undeformed_panels_congruent(self, tmp_path):
        # rigid rotation: every panel's polyline has the same length
        out = tmp_path / "c"
        assert main(
            [
                "contour",
                "--profile",
                "undeformed",
                "--format",
                "csv",
                "--points",
                "512",
                "--out",
                str(out),
            ]
        ) == 0
        lengths = []
        for path in sorted(out.glob("contour_*.csv")):
            cols = read_output(path)
            pts = cols["x"] + 1j * cols["y"]
            seg = np.abs(np.diff(np.append(pts, pts[0])))
            lengths.append(seg.sum())
        assert len(lengths) == 4
        assert max(lengths) - min(lengths) <= 1e-9 * lengths[0]


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "pde_sign_discrimination" in out

    def test_wrong_sign_exits_3(self, capsys):
        assert main(["verify", "--sign", "-1"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out and "pde_residual[sigma=-1]" in out

    def test_near_one_q_passes(self):
        assert main(["verify", "--q", "0.999999"]) == 0

    def test_starved_integrator_fails_honestly(self, capsys):
        # 50 RK4 steps over a full period cannot meet the 1e-8 tolerances
        assert main(["verify", "--steps", "50"]) == 3
        assert "rk4_endpoint" in capsys.readouterr().out

    # sha256 of stdout and the exit code of each run, recorded with the
    # complex-arithmetic RK4 loop: the byte contract of the report table
    @pytest.mark.parametrize(
        "args, code, digest",
        [
            (["--q", "0.2"], 3, "13198ee4d821f9ea39e30a82d039edec1ef7c1b6bbef73f8acf0a22331317ab4"),
            (["--q", "0.2", "--seed", "7"], 3, "7bb7ce0fc8b1105bc6f53531b54053e46b8b23477fff23cd20869f7ee51bdb00"),
            (["--q", "0.25"], 0, "78239415676c8c6308c923bdada773a929dd43b0d8017e7bb7ad9e32a75e4ada"),
            (["--q", "0.25", "--seed", "7"], 0, "d1a2d86ad1f0ef312c477168361b27ca900e7d1a993af65f7605e124d60a277a"),
            (["--q", "0.5"], 0, "ffe53e81ee9dd9310e0d08af44d123758a8d2b687026a8a9e0e010eda6717476"),
            (["--q", "0.5", "--seed", "7"], 0, "00be38a267f6d6fa21d75dcd8ed96a86fdbec91e0dd21cfc4dde2e52ede408ca"),
            (["--q", "0.95"], 0, "1957f49f2199cee58537653160c278b2d10293259b9584d4213df63b72b49a12"),
            (["--q", "0.95", "--seed", "7"], 0, "20117f937b38cc6ffe4ccf4af381589b29fe01d823e1a04561d87dc5c4ba5c08"),
            (["--q", "1e-100"], 3, "e9b4c45bd12b214d0be95151eefba763c7def29e2d563d74e68b90e574b48526"),
            (["--q", "0.999999999"], 3, "4e8b118bc8e07fbae4f0e5fb436dfeab86571c9ab010bba5436d1ccec271894a"),
            (["--steps", "50"], 3, "d1ae26b9443ee93f0d7458ca8b84d8a6c1297b7e0c43557249816325979fe368"),
        ],
    )
    def test_stdout_is_pinned(self, capsys, args, code, digest):
        assert main(["verify", *args]) == code
        out, err = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert err == ""

    @pytest.mark.parametrize("steps", ["1", "2"])
    def test_diverged_integration_fails_its_rows(self, capsys, steps):
        # one or two steps over a full period throw the mu1 orbit past its
        # law's range; the q-constants are finite, so the rows built on that
        # path FAIL as non-finite and say where (the exit-2 case of
        # q-constants that overflow is TestNonFinite's verify --q 1e-200)
        assert main(["verify", "--q", "0.4", "--steps", steps]) == 3
        out, err = capsys.readouterr()
        assert err == ""
        rows = {line.split()[0]: line for line in out.splitlines()[2:-1]}
        note = f"mu1 path diverged: Omega(s) overflowed in RK4 step {steps} of {steps}"
        for name in ("rk4_endpoint[mu1]", "rk4_action_drift", "rk4_energy_drift"):
            assert rows[name].split()[1] == "inf" and rows[name].split()[4] == "FAIL"
            assert rows[name].endswith(note)
        assert "diverged" not in rows["rk4_endpoint[undeformed]"]

    def test_extreme_q_fails_non_finite_rows_quietly(self, capsys):
        # at q = 1e-100 the type1 errors overflow to inf or NaN without the
        # q-constants overflowing; each such row FAILs and no warning leaks
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--q", "1e-100"]) == 3
        assert caught == []
        out, err = capsys.readouterr()
        assert err == ""
        rows = [line.split() for line in out.splitlines()[2:-1]]
        assert all(len(row) >= 5 for row in rows)
        non_finite = [row for row in rows if not math.isfinite(float(row[1]))]
        assert {row[0] for row in non_finite} >= {"alphaq_pair_bracket[type1]", "chain_identities[type1]"}
        assert all(row[4] == "FAIL" for row in non_finite), non_finite
        # both signs' residuals are 5.3e+101 there: no sign is discriminated
        assert {row[0]: row[4] for row in rows}["pde_sign_discrimination"] == "FAIL"


class TestReproduce:
    def test_fig2_panel_set(self, tmp_path):
        out = tmp_path / "r"
        assert main(["reproduce", "fig2", "--points", "128", "--out", str(out)]) == 0
        assert len(list(out.glob("fig2_tau*.svg"))) == 4
        manifest = json.loads((out / "fig2_manifest.json").read_text())
        assert manifest["config"]["q"] == 0.5
        assert manifest["config"]["profile"] == "mu1"
        assert manifest["config"]["alpha0"] == [0.5, 0.0]
        taus = [entry["tau"] for entry in manifest["outputs"]]
        assert taus == pytest.approx(PANEL_TAUS)
        assert [e["tau_over_pi"] for e in manifest["outputs"]] == pytest.approx(
            [0.5, 1.0, 1.5, 2.0]
        )

    def test_fig3_uses_mu2(self, tmp_path):
        out = tmp_path / "r"
        assert main(["reproduce", "fig3", "--points", "64", "--out", str(out)]) == 0
        manifest = json.loads((out / "fig3_manifest.json").read_text())
        assert manifest["config"]["profile"] == "mu2"
        assert manifest["config"]["kind"] == "type2"

    def test_fig4_emits_grids_with_chi_note(self, tmp_path):
        out = tmp_path / "r"
        assert main(["reproduce", "fig4", "--grid", "16", "--out", str(out)]) == 0
        assert len(list(out.glob("fig4_tau*.json"))) == 4
        manifest = json.loads((out / "fig4_manifest.json").read_text())
        assert manifest["config"]["profile"] == "anharmonic"
        assert "chi" in manifest["notes"]

    @pytest.mark.parametrize("figure", [f"fig{k}" for k in range(1, 7)])
    def test_recorded_format_matches_files(self, tmp_path, figure):
        out = tmp_path / "r"
        argv = ["reproduce", figure, "--grid", "16", "--points", "64", "--tau", "1.0"]
        assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / f"{figure}_manifest.json").read_text())
        suffixes = {Path(entry["file"]).suffix for entry in manifest["outputs"]}
        suffixes |= {p.suffix for p in out.glob(f"{figure}_tau*")}
        assert suffixes == {"." + manifest["config"]["format"]}

    @pytest.mark.parametrize("figure, fmt", [("fig4", "svg"), ("fig2", "json")])
    def test_format_other_than_preset_exits_2(self, tmp_path, capsys, figure, fmt):
        assert main(["reproduce", figure, "--format", fmt, "--out", str(tmp_path / "r")]) == 2
        assert "--format" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_unknown_figure_exits_2(self):
        assert main(["reproduce", "fig9"]) == 2

    def test_deterministic_rerun(self, tmp_path):
        # identical argv (the embedded config includes --out) overwrites
        # every file with identical bytes
        out = tmp_path / "a"
        argv = ["reproduce", "fig2", "--points", "64", "--grid", "16", "--out", str(out)]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second


def _tree_digest(out: Path) -> str:
    """sha256 over the sorted names and sha256 digests of the files in out."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _request_digest(request_line, tmp_path, monkeypatch, capsys) -> str:
    """_tree_digest of the files a request writes; it must succeed silently."""
    monkeypatch.chdir(tmp_path)  # manifests and SVG <desc> record --out
    assert main([*request_line.split(), "--out", "o"]) == 0
    assert capsys.readouterr().err == ""
    return _tree_digest(Path("o"))


class TestEmittedFiles:
    # the digest of every file each request writes, recorded with the
    # per-float f-string emitters: the byte contract of the .6f SVG and
    # .17g CSV numbers.  The wide window puts values below 1e-4 (exponent
    # form) and underflows others to 0.0.
    GOLDEN = {
        "contour --profile undeformed --format svg --points 128": "e632fc099a70d60ce8cfee1eef16168c6395e8b0e0e0f29b736f95dd757e71d0",
        "contour --profile undeformed --format svg --from-grid --grid 33": "3e8649064e8466d09f35c07d05e7e484f20361d3660bb5dbf1ed206a31e231ad",
        "contour --profile undeformed --format csv --points 128": "a990905ddbc3c2aee0d6a943a6cc67ac4ef42ee2d99bd675fd2ba8ad9f3d20dc",
        "contour --profile undeformed --format csv --from-grid --grid 33": "625a0cd43c5906d6e11115383d04f2d0cd3908170fa7a4751cdb012451e3f65e",
        "contour --profile mu1 --format svg --points 128": "d17e2d76f60d4bcbc2bfdd4df3643809a0830a23932fc5f5941050dbfcbd2fc2",
        "contour --profile mu1 --format svg --from-grid --grid 33": "8b9bb4041d49b34a31459b6fb3e79e2cb990f2411cdf5ae552ba9fa95a293888",
        "contour --profile mu1 --format csv --points 128": "9818a228b162d3124c0cbfc205219113ec10c31b3818266d5065c14feae4ee3d",
        "contour --profile mu1 --format csv --from-grid --grid 33": "59d897ae82e185629eb2c734472bddd80e29ba937214a56a08286929ca279d6a",
        "contour --profile mu2 --format svg --points 128": "5765e6b9d1c1014a035ca3030037b42a6506ff3e36ce513cab03587fa56f3126",
        "contour --profile mu2 --format svg --from-grid --grid 33": "93f884036fbf27a800c06a7587b5c66a7d0bc2fcbd71c2ed10af48d3669d32f3",
        "contour --profile mu2 --format csv --points 128": "e53b73896e0845f3c7420dc3630c17cca98b3b2df3842479cdea59e23e1fae8c",
        "contour --profile mu2 --format csv --from-grid --grid 33": "c35f1bb0be81ddc0cca0243e8603f0fba1abfeb3be26b5b8e072663b30695be5",
        "contour --profile mu3 --format svg --points 128": "71c583f5956d2a648e0f5a9ee12f2cb9a544111ecdf76f320b2102c4c675b3c7",
        "contour --profile mu3 --format svg --from-grid --grid 33": "dbc8d381e27b121b3ba713d588e2a2912c2a600fd598a9777a0346c82f004b3c",
        "contour --profile mu3 --format csv --points 128": "a08ef1fb4ed7632bc48ea04cb87872481da9f8e1a5908d7c6701879ed11a8df4",
        "contour --profile mu3 --format csv --from-grid --grid 33": "38226e557fd008270a6bb009eb7ff325029132fd3e1e88513e7a1d96b9c85e66",
        "contour --profile mu4 --format svg --points 128": "a60639cf698fa4e5d99d63f213b527bc855412f9a110efca1aeaf18adb1c1a94",
        "contour --profile mu4 --format svg --from-grid --grid 33": "6856e8b2943e2cdbe614fbee07731696a285aa0f00b1aec6c75409a8c8c380ce",
        "contour --profile mu4 --format csv --points 128": "388e64818876ce30d12289fcae1d1fb495676c110ae81b9e9941ba402115d3b2",
        "contour --profile mu4 --format csv --from-grid --grid 33": "8bb3847b0b203cd7a4df2542e3b9025d192a26854999ef2bb08f71535c15f4bc",
        "contour --profile anharmonic --format svg --points 128": "4056eca7eb3d8b71936547352d942893dd2f6094725972152554806e06f29d32",
        "contour --profile anharmonic --format svg --from-grid --grid 33": "5c339873ab378ecee42267cb35bbfa375c289934e1089b02b9655efe35d73574",
        "contour --profile anharmonic --format csv --points 128": "5f2aa2c0e0e6f1905a233844b6eb8d09acccd661b62d4cfc28577032a3d6f6e0",
        "contour --profile anharmonic --format csv --from-grid --grid 33": "0dd81036bc0a1b6a9a725874c28ad95927129ea4ede6abfb63bee823d3bc7e8d",
        "evolve --format csv --grid 33": "a547ce8dd188edecd4ea5531a333fcf9408ecc727d9c0b390a94294c28c0d3d8",
        "evolve --profile mu2 --format csv --grid 33 --window=-30,30,-30,30 --tau 1": "c2f27d0836fab074112b3213380a9d2ef9715dfae1b941a937110206cffffbe7",
        "reproduce fig1": "dda3d30789e8b37f9f5737dd4929ca90a413dd34f8978c8dbadf5610a78551c2",
        "reproduce fig2": "85014f50b2abbc084f022cda77c6f4e53ead5bc4b8b66b6b0fa3daac4ae7b67b",
        "reproduce fig3": "efc7bf76552c61335e8e222dc7539d7233f43e439369479d6ff09febd1628130",
        "freq --profile undeformed": "21b13a9ac6765fcdf55fc2d52f4a85d075aae5bf294abb58044f4a1ae667c380",
        "freq --profile mu1": "a1a5f9daadff81c13f479ea2365e51c73281617751b2bf496d92908c77883381",
        "freq --profile mu2": "7ffcd76650c24e1f713fdf76f5dafa1c1c77e810f518b4f37516c30abb1ee0dd",
        "freq --profile mu3": "8ee8f0dac7c5d4593a7451d322e41dbd6c008de2004b1b6721bf6261e0ee860b",
        "freq --profile mu4": "f0347de4d0cc49f79f25d490cfa2a086a315562506d5af5bd6a77d0bef6c7fd4",
        "freq --profile anharmonic": "079c80502ecc8c1bbe2d2ee083eec295ccd87d0c6fbb63a82fac44b3ec7036fe",
    }

    @pytest.mark.parametrize("request_line", sorted(GOLDEN))
    def test_files_are_pinned(self, tmp_path, monkeypatch, capsys, request_line):
        assert _request_digest(request_line, tmp_path, monkeypatch, capsys) == self.GOLDEN[request_line]


class TestEmittedSnapshots:
    # the digest of every file each JSON snapshot request writes, recorded
    # with json.dumps of the values as a list of Python floats: the byte
    # contract of the repr numbers.  The wide window puts values below 1e-4
    # (exponent form), subnormals and 0.0 into the snapshot.
    GOLDEN = {
        "evolve --profile undeformed --format json --grid 2": "47bf1cfdf3d9c7147729d94f3dbf3a7075ccb12613a41fd99f8642f6f58ddefb",
        "evolve --profile undeformed --format json --grid 33": "76aba19f0d1edafd340f39c7505ad9f1878578e03836a673f97db759d2bf9e4e",
        "evolve --profile undeformed --format json --grid 257": "94e2fc4102792fa3dc4b619092bca9b17da98124950b4aeb1764b49d0a25107d",
        "evolve --profile mu1 --format json --grid 2": "0cd6d747b8e3f3851825891f60f3dbb2131ec1b288fb21e9be9a81117ad69c91",
        "evolve --profile mu1 --format json --grid 33": "2b9cf5278f73caf3b042deced9b02dbd333bbc1b3bb1765d4fcf07e13aad2807",
        "evolve --profile mu1 --format json --grid 257": "752cf70ff16df1aa91a0f30ea7d35a369a0a45e19c2b7ca21d541ef94108ddd1",
        "evolve --profile mu2 --format json --grid 2": "714c79146b1b73e0568a5dc96ab049a52f1647e1952e46d14520441a48bd1e4b",
        "evolve --profile mu2 --format json --grid 33": "009c314e5c22a94bc7ef163cdb10ccbcd0f1b9fdc1b48f2fc9103269ede3b2ca",
        "evolve --profile mu2 --format json --grid 257": "f445c8a9dac4ec7b20d61ebdb2f6de2f950605ef5b4004e27bb9266e8cb2e9ef",
        "evolve --profile mu3 --format json --grid 2": "0fb900eca642bb9e00327395239dff13c9089a5754975512490da215c279d5ac",
        "evolve --profile mu3 --format json --grid 33": "5c3adf74334c726b3d8bc85017beddaa309e1a22d3bfb812c1795357c9ec0cd8",
        "evolve --profile mu3 --format json --grid 257": "7d48e3d618ca8aa4a91ee0e74c9d9f7b82a7caf680c0398063c20534ac6af5d8",
        "evolve --profile mu4 --format json --grid 2": "af9c99e26ffc06e277e629988bc924266c95cfbe75ce1e62e2531aec2d62a316",
        "evolve --profile mu4 --format json --grid 33": "5d479b9e92363f64b2049f2a0151f55b5aaba887740122c197c5921608af35f1",
        "evolve --profile mu4 --format json --grid 257": "cd0a503150667967435a52b2c3c62870bb2d02c94ee776899e1de125be80534c",
        "evolve --profile anharmonic --format json --grid 2": "3ed77f6aa48efbc8a540593b19ea645a06e4e08a364a4134fd53b5411605e149",
        "evolve --profile anharmonic --format json --grid 33": "0cd49034ba33a770e7ef30370fdecafa8b30d2e307d37308d54b16c1be826a85",
        "evolve --profile anharmonic --format json --grid 257": "0414057ad038bb52896bcd136e7dd1ad98389477bb084dced7c45449a9493586",
        "evolve --profile mu2 --format json --grid 33 --window=-30,30,-30,30 --tau 1": "35a8f560c5ca0386b4bcfcfedc736e6a016a38c8400d17532e6588c305870849",
        "reproduce fig4": "faceae874b5867f7de9b9340e690303ee2a8ecfc518fda68761d3e34a6d711c6",
        "reproduce fig5": "ee533b799c6366601861d0ec12b79db99bbb28abfbcb587a8dd8df51f41b2a8d",
        "reproduce fig6": "f3c940694fde7cc31fa3c9f981e193510a0b1a00fb43258ba96a2a11a0e2451f",
    }

    @pytest.mark.parametrize("request_line", sorted(GOLDEN))
    def test_files_are_pinned(self, tmp_path, monkeypatch, capsys, request_line):
        assert _request_digest(request_line, tmp_path, monkeypatch, capsys) == self.GOLDEN[request_line]


class TestNonFinite:
    # at q = 0.01 cosh(lam s) of the mu1 law overflows once s exceeds ~150;
    # at q = 1e-200 sinh(lam)^2 of the mu3 law overflows, and at q = 1e-310
    # sinh(lam) itself
    @pytest.mark.parametrize(
        "argv,prefix",
        [
            (["evolve", "--q", "0.01", "--window=-40,40,-40,40", "--tau", "1"], "mu1 law at q = 0.01"),
            (["contour", "--q", "0.01", "--radius", "30", "--tau", "1"], "mu1 law at q = 0.01"),
            (["freq", "--q", "0.01", "--s-range=0,1000"], "mu1 law at q = 0.01"),
            # verify names the law whose q-constants overflowed, not --profile
            (["verify", "--q", "1e-200"], "mu3 law at q = 1e-200"),
            (["verify", "--q", "1e-310"], "mu1 law at q = 1e-310"),
            (["freq", "--q", "1e-200", "--profile", "mu3"], "mu3 law at q = 1e-200"),
            (["evolve", "--q", "1e-310", "--grid", "8", "--tau", "1"], "mu1 law at q = 1e-310"),
        ],
    )
    def test_exits_2_and_writes_no_non_finite_value(self, tmp_path, capsys, argv, prefix):
        out = [] if argv[0] == "verify" else ["--out", str(tmp_path / "o")]  # verify writes no file
        assert main(argv + out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}: ") and err.count("\n") == 1, err
        for path in tmp_path.rglob("*"):
            if path.is_file():
                data = path.read_bytes()
                assert not any(tok in data for tok in (b"NaN", b"nan", b"inf"))

    # the window corner (40, 40) reaches s = 3200; the radius-30 circle about
    # 0.5 reaches s = 30.5^2
    @pytest.mark.parametrize(
        "argv,action",
        [
            (["evolve", "--window=-40,40,-40,40"], "3200"),
            (["contour", "--radius", "30"], "930.25"),
            (["contour", "--from-grid", "--grid", "16", "--window=-40,40,-40,40"], "3200"),
        ],
    )
    def test_names_the_largest_action_reached(self, tmp_path, capsys, argv, action):
        argv = argv + ["--q", "0.01", "--tau", "1", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: mu1 law at q = 0.01: Omega(s) is not finite; "
            f"the largest action reached is s = |z|^2 = {action}\n"
        )

    # |z|^2 itself overflows to inf: refused with one line and no numpy warning
    @pytest.mark.parametrize(
        "argv",
        [
            ["contour", "--radius", "1e200"],
            ["contour", "--alpha0-re", "1e200"],
            ["evolve", "--grid", "3", "--window=-1e200,1e200,-1,1"],
        ],
    )
    def test_overflowing_action_names_inf(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main(argv + ["--tau", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: mu1 law at q = 0.5: Omega(s) is not finite; "
            "the largest action reached is s = |z|^2 = inf\n"
        )
        assert not out.exists()

    # Omega is finite on every grid node and seed, but Omega(s) * 1e308
    # overflows
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--grid", "4"],
            ["contour", "--from-grid", "--grid", "16"],
            ["contour", "--q", "0.1"],
        ],
    )
    def test_huge_tau_names_the_phase(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--tau", "1e308", "--out", str(out)]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: mu1 law at q = ") and err.count("\n") == 1, err
        assert err.endswith(": the phase Omega(s) t overflows at t = 1e+308\n"), err
        assert not out.exists()


@st.composite
def _requests(draw):
    """A small freq / evolve / contour request over q, window, tau and law."""
    command = draw(st.sampled_from(["freq", "evolve", "contour"]))
    law = draw(st.sampled_from(["undeformed", "mu1", "mu2", "mu3", "mu4", "anharmonic"]))
    q = 10.0 ** draw(st.floats(-300.0, -0.001))  # log-uniform in [1e-300, 0.998]
    argv = [command, "--q", repr(q), "--profile", law]
    if command == "freq":
        smax = 10.0 ** draw(st.floats(-2.0, 3.0))
        return argv + [f"--s-range=0,{smax!r}", "--s-samples", "16"]
    half = draw(st.floats(0.1, 50.0))
    tau = draw(st.floats(0.0, 50.0))
    argv += [f"--window={-half!r},{half!r},{-half!r},{half!r}", "--grid", "8", "--tau", repr(tau)]
    if command == "contour":
        argv += ["--radius", repr(draw(st.floats(0.05, 30.0))), "--points", "16"]
        argv += ["--format", draw(st.sampled_from(["csv", "svg"]))]
        if draw(st.booleans()):
            argv.append("--from-grid")
    return argv


@st.composite
def _suite_requests(draw):
    """A verify request with few RK4 steps, or a reproduce request on a small grid."""
    q = 10.0 ** draw(st.floats(-300.0, -0.001))  # log-uniform in [1e-300, 0.998]
    if draw(st.booleans()):
        steps = draw(st.integers(1, 64))
        sign = draw(st.sampled_from(["1", "-1"]))
        return ["verify", "--q", repr(q), "--steps", str(steps), "--sign", sign]
    figure = draw(st.sampled_from(["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"]))
    half = draw(st.floats(0.1, 50.0))
    argv = ["reproduce", figure, "--q", repr(q), "--tau", repr(draw(st.floats(0.0, 50.0)))]
    argv += [f"--window={-half!r},{half!r},{-half!r},{half!r}", "--grid", "8"]
    return argv + ["--radius", repr(draw(st.floats(0.05, 30.0))), "--points", "16"]


def _reject_constant(token):
    raise AssertionError(f"non-finite JSON value {token}")


def _assert_finite_outputs(out: Path):
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            columns = read_output(path)
            assert all(np.isfinite(c).all() for c in columns.values()), path.name
            assert all(0.0 <= v <= 1.0 for v in columns.get("value", [])), path.name
        elif path.suffix == ".json":
            values = json.loads(text, parse_constant=_reject_constant).get("values", [])
            assert all(0.0 <= v <= 1.0 for v in values), path.name
        else:
            for d in re.findall(r' d="([^"]*)"', text):
                coords = [float(tok) for tok in d.split() if tok not in ("M", "L", "Z")]
                assert np.isfinite(coords).all(), path.name


class TestNonFiniteInput:
    """NaN or an infinity given to a numeric flag, or to its --config key,
    exits 2 on one error line that names the flag, before any file exists."""

    @staticmethod
    def _assert_refused(argv, tmp_path, capsys, flag):
        out = [] if argv[0] == "verify" else ["--out", str(tmp_path / "o")]  # verify writes no file
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + out) == 2
        assert caught == []
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"error: {flag}" in errors[0], errors
        assert [p for p in tmp_path.rglob("*") if p.name != "run.json"] == []

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["verify", "--mass", "nan"], "--mass"),
            (["verify", "--hbar", "nan"], "--hbar"),
            (["evolve", "--omega", "nan"], "--omega"),
            (["evolve", "--omega", "inf"], "--omega"),
            (["evolve", "--window=-inf,inf,-1,1"], "--window"),
            (["evolve", "--alpha0-re", "nan"], "--alpha0-re"),
            (["contour", "--radius", "nan"], "--radius"),
            (["contour", "--profile", "anharmonic", "--chi", "nan"], "--chi"),
            (["evolve", "--tau", "inf"], "--tau"),
            (["contour", "--tau", "1", "--tau", "nan"], "--tau"),
            (["freq", "--s-range=0,inf"], "--s-range"),
            (["freq", "--q", "nan"], "--q"),
        ],
    )
    def test_flag_exits_2_naming_it(self, tmp_path, capsys, argv, flag):
        self._assert_refused(argv, tmp_path, capsys, flag)

    @pytest.mark.parametrize(
        "command,loaded,flag",
        [
            ("evolve", {"omega": math.nan}, "--omega"),
            ("contour", {"alpha0_im": math.inf}, "--alpha0-im"),
            ("evolve", {"tau": [1.0, math.nan]}, "--tau"),
            ("evolve", {"window": "-1,1,-1,inf"}, "--window"),
            ("verify", {"mass": -math.inf}, "--mass"),
        ],
    )
    def test_config_value_exits_2_naming_its_flag(self, tmp_path, capsys, command, loaded, flag):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(loaded))  # NaN, Infinity, -Infinity
        self._assert_refused([command, "--config", str(cfg_file)], tmp_path, capsys, flag)


class TestTauLabels:
    """Each tau names its own file, so two taus with one label are refused."""

    @pytest.mark.parametrize("head", [["evolve"], ["contour"], ["reproduce", "fig2"]])
    @pytest.mark.parametrize("second", ["1.00000000001", "1"])
    def test_taus_sharing_a_label_exit_2(self, tmp_path, capsys, head, second):
        out = tmp_path / "o"
        assert main(head + ["--tau", "1", "--tau", second, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: --tau 1.0 and {float(second)!r} share the file label tau1" in err
        assert not out.exists()

    def test_taus_with_distinct_labels_parse(self):
        assert parse_args(["evolve", "--tau", "1", "--tau", "1.000000001"]).taus == [1.0, 1.000000001]

    @pytest.mark.parametrize("head", [["evolve"], ["contour"], ["reproduce", "fig2"]])
    def test_empty_tau_list_exits_2(self, tmp_path, capsys, head):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"tau": []}))
        out = tmp_path / "o"
        assert main(head + ["--config", str(cfg_file), "--out", str(out)]) == 2
        assert "error: --tau: expected at least one value" in capsys.readouterr().err
        assert not out.exists()


class TestRequestProperty:
    @given(argv=_requests())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exit_0_with_finite_outputs_or_exit_2_with_one_line(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", str(out)])
            err = stderr.getvalue()
            if code == 0:
                # a successful run is silent, except that a --from-grid panel
                # that resolves no contour says so and holds none
                if err:
                    assert "--from-grid" in argv, err
                    assert err.startswith("warning: empty panel at tau = ") and err.count("\n") == 1, err
                    assert not list(out.glob("contour_tau*.csv"))
                    assert all("<path" not in p.read_text() for p in out.glob("*.svg"))
                _assert_finite_outputs(out)
            else:
                assert code == 2, err
                assert err.startswith("error: ") and err.count("\n") == 1, err


    @given(argv=_suite_requests())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_verify_prints_its_table_and_reproduce_its_files(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(stdout):
                    code = main(argv + ([] if argv[0] == "verify" else ["--out", str(out)]))
            assert caught == [], [str(w.message) for w in caught]
            err, lines = stderr.getvalue(), stdout.getvalue().splitlines()
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, err
            elif argv[0] == "verify":
                assert err == ""
                assert lines[0].startswith("check ") and set(lines[1]) == {"-"}
                failed = sum(" FAIL " in line for line in lines[2:-1])
                if code == 0:
                    assert failed == 0 and lines[-1] == "all checks passed"
                else:
                    assert code == 3 and failed > 0 and lines[-1] == f"{failed} check(s) failed"
            else:
                assert code == 0 and err == "", err
                _assert_finite_outputs(out)


class TestImportFootprint:
    def test_cli_import_loads_no_network_or_xml_module(self):
        src = Path(importlib.import_module("qwhorl").__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        code = "import sys, qwhorl.cli; print(*sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        # pathlib imports urllib.parse; nothing else of these packages may load
        loaded = [
            name
            for name in run.stdout.split()
            if name.split(".")[0] in ("urllib", "http", "email", "ssl", "socket", "xml")
            and name not in ("urllib", "urllib.parse")
        ]
        assert loaded == []


class TestExitCodes:
    def test_size_beyond_memory_exits_2_naming_it(self, tmp_path, capsys):
        # 4 EiB of float64, beyond the address space of any 64-bit platform,
        # so numpy's allocation fails at once without touching memory
        out = tmp_path / "o"
        assert main(["freq", "--s-samples", "576460752303423488", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: freq: ") and err.count("\n") == 1
        assert "--s-samples 576460752303423488" in err
        assert not out.exists()

    def test_io_failure_exits_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["evolve", "--grid", "8", "--tau", "1.0", "--out", str(blocker)]) == 4

    def test_help_exits_0(self):
        assert main(["--help"]) == 0
