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

from qwhorl.cli import _FLAGS, COMMANDS, build_parser, main, parse_args
from qwhorl.core import MU1
from qwhorl.liouville import GaussianState, initial_distribution

from conftest import pinned, read_output

PANEL_TAUS = [math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi]


# valid values of every flag but --kind, which only checks the law
_FLAG_VALUES = {
    "q": st.floats(0.01, 0.99),
    "mass": st.floats(0.1, 10.0),
    "omega": st.floats(0.1, 10.0),
    "hbar": st.floats(0.1, 10.0),
    "profile": st.sampled_from(["undeformed", "mu1", "mu2", "mu3", "mu4", "anharmonic"]),
    "chi": st.floats(-1.0, 1.0),
    "alpha0_re": st.floats(-1.0, 1.0),
    "alpha0_im": st.floats(-1.0, 1.0),
    "tau": st.lists(st.integers(0, 400), min_size=1, max_size=3, unique=True).map(
        lambda ks: [k / 16 for k in ks]
    ),
    "grid": st.integers(2, 64),
    "window": st.sampled_from(["-1,1,-1,1", "-2.5,2,-1,0.5", "0,1,0.25,3"]),
    "radius": st.floats(0.1, 2.0),
    "points": st.integers(8, 4096),
    "from_grid": st.booleans(),
    "steps": st.integers(1, 1_000_000),
    "seed": st.integers(0, 2**63),
    "sign": st.sampled_from([1, -1]),
    "s_range": st.sampled_from(["0,1", "0.5,2"]),
    "s_samples": st.integers(2, 1000),
    "out": st.sampled_from(["out", "runs/a/", "./b"]),
}
_COMMAND_FORMATS = {"freq": ["csv"], "evolve": ["json", "csv"], "contour": ["svg", "csv"]}


@st.composite
def _flag_sets(draw):
    """(head, flags, config): a command and some of its flags with valid
    values, and the same values as a --config object, each either a JSON
    value or its flag's text."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    head = [command] + ([draw(st.sampled_from(["fig1", "fig4"]))] if command == "reproduce" else [])
    values = dict(_FLAG_VALUES, format=st.sampled_from(_COMMAND_FORMATS.get(command, [None])))
    argv, loaded = [], {}
    for key in COMMANDS[command][1]:
        if key == "kind" or not draw(st.booleans()):
            continue
        value = draw(values[key])
        flag = "--" + key.replace("_", "-")
        as_text = draw(st.booleans())
        if key == "from_grid":
            argv += [flag] * value
        elif key == "tau":
            argv += [f"{flag}={v!r}" for v in value]
            value = [repr(v) if as_text else v for v in value]
        else:
            argv.append(f"{flag}={value}")
            value = str(value) if as_text else value
        loaded[key] = value
    return head, argv, loaded


# a size flag's refusal: the largest N is the largest intp over 8 * N (one
# float64 per grid node) or 16 (one complex128 per point or sample)
_GRID = "argument --grid: expected an integer in [2, 1073741823], got"
_SAMPLES = "argument --s-samples: expected an integer in [2, 576460752303423487], got"
_POINTS = "argument --points: expected an integer in [8, 576460752303423487], got"
_STEPS = "argument --steps: expected an integer in [1, 1000000], got"


class TestParsing:
    def test_defaults_match_protocol(self):
        cfg = parse_args(["evolve"])
        assert cfg.params.q == 0.5
        assert complex(cfg.center) == 0.5 + 0.0j
        assert cfg.radius == 0.5
        assert (cfg.grid.xmin, cfg.grid.xmax, cfg.grid.ymin, cfg.grid.ymax) == (-1, 1, -1, 1)
        assert cfg.tau == pytest.approx(PANEL_TAUS)
        assert cfg.profile == "mu1"
        assert cfg.to_dict()["kind"] == "type1"

    def test_center_is_python_complex(self):
        cfg = parse_args(["evolve", "--alpha0-re", "0.25", "--alpha0-im", "-0.5"])
        assert type(cfg.center) is complex and cfg.center == 0.25 - 0.5j
        assert cfg.to_dict()["alpha0"] == [0.25, -0.5]

    def test_repeatable_tau(self):
        cfg = parse_args(["evolve", "--tau", "1.5707963", "--tau", "3.1415927"])
        assert cfg.tau == [1.5707963, 3.1415927]

    def test_bad_q_exits_2(self, capsys):
        assert main(["evolve", "--q", "1.5"]) == 2
        assert "argument --q: expected a number in (0, 1), got '1.5'" in capsys.readouterr().err

    # every refusal of a command, a flag's own, a --config value's or a check
    # that combines flags, carries the command's program name and usage
    @pytest.mark.parametrize(
        "argv,loaded,message",
        [
            (["contour", "--kind", "type2"], None, "--kind type2 does not match the mu1 law, which is type1"),
            (["contour"], {"tau": []}, "--tau: expected at least one value, got an empty list"),
            (["contour"], {"from_grid": "false"}, 'argument --from-grid: expected true or false, got "false"'),
            (["evolve"], {"qq": 1}, "--config: evolve reads no keys ['qq']"),
            (["evolve", "--window=1,-1,-1,1"], None, "--window: xmax must exceed xmin, got [1.0, -1.0]"),
            (["reproduce", "fig1", "--tau", "1", "--tau", "1.0"], None,
             "--tau 1.0 and 1.0 share the file label tau1"),
            (["contour", "--from-grid", "--radius", "30"], None,
             "--radius 30: the --from-grid level exp(-radius^2) underflows to 0"),
            (["evolve", "--q", "2"], None, "argument --q: expected a number in (0, 1), got '2'"),
        ],
    )
    def test_refusal_carries_the_command_name(self, tmp_path, capsys, argv, loaded, message):
        if loaded is not None:
            (tmp_path / "run.json").write_text(json.dumps(loaded))
            argv = argv + ["--config", str(tmp_path / "run.json")]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        prog = f"qwhorl {argv[0]}"
        assert err.startswith(f"usage: {prog} ") and err.endswith(f"\n{prog}: error: {message}\n"), err
        assert not (tmp_path / "o").exists()

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
        assert f"error: {_GRID} '{grid}'" in err
        assert "law" not in err
        assert not out.exists()

    # N * N nodes numpy can index, but not their 8 * N * N bytes of float64
    # values: refused while parsing, so the grid is never sampled
    @pytest.mark.parametrize("head", [["evolve"], ["contour", "--from-grid"], ["reproduce", "fig4"]])
    def test_grid_whose_values_numpy_cannot_address_exits_2(self, tmp_path, capsys, monkeypatch, head):
        monkeypatch.setattr("qwhorl.cli.sample_grid", lambda *a, **k: pytest.fail("the grid was sampled"))
        out = tmp_path / "o"
        assert main(head + ["--grid", "1100000000", "--tau", "1", "--out", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"qwhorl {head[0]}: error: {_GRID} '1100000000'"]
        assert not out.exists()
        # the largest N whose values numpy can address: 8 * N * N <= 2**63 - 1
        assert parse_args(head + ["--grid", "1073741823"]).grid.nx == 2**30 - 1

    # refused while parsing, so no huge value ever runs
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["freq", "--s-samples", "100000000000000000000"], f"{_SAMPLES} '100000000000000000000'"),
            (["contour", "--points", "9223372036854775808"], f"{_POINTS} '9223372036854775808'"),
            (["reproduce", "fig1", "--points", "100000000000000000000"], f"{_POINTS} '100000000000000000000'"),
            # 16 bytes, one complex128, per sample or point pass the largest intp
            (["freq", "--s-samples", "9223372036854775807"], f"{_SAMPLES} '9223372036854775807'"),
            (["freq", "--s-samples", "4611686018427387904"], f"{_SAMPLES} '4611686018427387904'"),
            (["contour", "--points", "4611686018427387904"], f"{_POINTS} '4611686018427387904'"),
            (["contour", "--points", "9223372036854775807"], f"{_POINTS} '9223372036854775807'"),
            (["verify", "--steps", "1000001"], f"{_STEPS} '1000001'"),
            (["verify", "--steps", "100000000000000000000"], f"{_STEPS} '100000000000000000000'"),
        ],
    )
    def test_size_beyond_its_bound_exits_2_naming_the_flag(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"error: {message}" in errors[0], errors

    # random.Random(-1) would quietly draw seed 1's points
    @pytest.mark.parametrize("how", ["flag", "equals", "config"])
    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys, monkeypatch, how):
        monkeypatch.setattr("qwhorl.cli.run_full_suite", lambda *a, **k: pytest.fail("the suite ran"))
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"seed": -1}))
        flags = {"flag": ["--seed", "-1"], "equals": ["--seed=-1"], "config": ["--config", str(cfg_file)]}
        assert main(["verify", *flags[how]]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == ["qwhorl verify: error: argument --seed: expected an integer >= 0, got '-1'"]

    def test_size_at_its_bound_parses(self):
        assert parse_args(["verify", "--steps", "1000000"]).steps == 1000000
        # 16 bytes, one complex128, per point: the largest intp // 16
        assert parse_args(["contour", "--points", "576460752303423487"]).points == 2**59 - 1
        assert parse_args(["freq", "--s-samples", "576460752303423487"]).s_samples == 2**59 - 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["freq", "--s-samples", "100000000000000000000"],
            ["contour", "--points", "100000000000000000000", "--tau", "1"],
            ["freq", "--s-samples", "9223372036854775807"],
            ["freq", "--s-samples", "4611686018427387904"],
            ["contour", "--points", "4611686018427387904", "--tau", "1"],
            ["contour", "--points", "9223372036854775807", "--tau", "1"],
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
        assert f"{_GRID} '100000000000000000000'" in capsys.readouterr().err

    def test_negative_radius_exits_2(self):
        assert main(["contour", "--radius", "-0.5"]) == 2

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"q": 0.25, "grid": 16, "profile": "mu2"}))
        cfg = parse_args(["evolve", "--config", str(cfg_file)])
        assert cfg.params.q == 0.25
        assert cfg.grid.nx == 16
        assert cfg.profile == "mu2"

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


class TestConfigFile:
    """A --config file is parsed as the flags it names: --key=value for a
    number or a string, one --tau per list entry, --from-grid for true and
    --no-from-grid for false."""

    # a JSON value its flag's text cannot hold exits 2, on one error line
    # naming the flag, before any file exists
    @pytest.mark.parametrize(
        "command,loaded,flag",
        [
            ("contour", {"from_grid": "false"}, "--from-grid"),
            ("contour", {"from_grid": 1}, "--from-grid"),
            ("contour", {"grid": 2.7}, "--grid"),
            ("contour", {"tau": [True]}, "--tau"),
            ("verify", {"sign": True}, "--sign"),
            ("verify", {"steps": 50.0}, "--steps"),
            ("contour", {"out": None}, "--out"),
            ("evolve", {"window": [-1, 1, -1, 1]}, "--window"),
        ],
    )
    def test_value_of_the_wrong_type_exits_2(self, tmp_path, monkeypatch, capsys, command, loaded, flag):
        monkeypatch.setattr("qwhorl.cli.run_full_suite", lambda *a, **k: pytest.fail("the suite ran"))
        monkeypatch.chdir(tmp_path)  # a relative --out such as "None" would land here
        (tmp_path / "run.json").write_text(json.dumps(loaded))
        assert main([command, "--config", "run.json"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"error: argument {flag}: " in errors[0], errors
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    # false is --no-from-grid, so the command line overrides the file either way
    @pytest.mark.parametrize("from_file,flag", [(True, "--no-from-grid"), (False, "--from-grid")])
    def test_command_line_overrides_from_grid(self, tmp_path, monkeypatch, from_file, flag):
        (tmp_path / "run.json").write_text(json.dumps({"from_grid": from_file}))
        argv = ["contour", "--grid", "32", "--points", "16", "--tau", "1", "--out", "o", flag]
        svgs = []
        for run, extra in (("config", ["--config", "../run.json"]), ("flag", [])):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            assert main(argv + extra) == 0
            manifest = json.loads(Path("o/contour_manifest.json").read_text())
            assert manifest["config"]["from_grid"] is not from_file
            svgs.append(Path("o/contour_tau1.svg").read_bytes())
        assert svgs[0] == svgs[1]

    @pytest.mark.parametrize(
        "text",
        [b"\xff\xfe{}", b'{"seed": 1' + b"0" * 5000 + b"}"],
        ids=["not-utf-8", "int-beyond-the-digit-limit"],
    )
    def test_unreadable_file_exits_2(self, tmp_path, capsys, text):
        (tmp_path / "run.json").write_bytes(text)
        assert main(["verify", "--config", str(tmp_path / "run.json")]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "error: --config: cannot read " in errors[0], errors

    @given(flags=_flag_sets())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_config_file_parses_as_its_flags(self, flags):
        head, argv, loaded = flags
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(loaded))
            from_file = parse_args(head + ["--config", str(path)]).to_dict()
        assert from_file == parse_args(head + argv).to_dict()


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
        assert parse_args(["evolve", "--tau", "1", "--tau", "2"]).tau == [1.0, 2.0]
        assert parse_args(["evolve", "--tau", "3"]).tau == [3.0]
        assert parse_args(["evolve"]).tau == pytest.approx(PANEL_TAUS)

    def test_from_grid_does_not_carry_over(self):
        assert parse_args(["contour", "--from-grid"]).from_grid
        assert not parse_args(["contour"]).from_grid

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["evolve", "--bogus"], "unrecognized arguments: --bogus"),
            (["evolve", "--q", "2"], "argument --q: expected a number in (0, 1), got '2'"),
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
            assert cfg.profile == req.law
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

    # anharmonic arms pinch apart on a coarse grid, so the one closed level
    # set is drawn as several traces and one line says so; a window that cuts
    # the disk |z| <= |alpha0| + radius cuts the curve itself, and stays silent
    @pytest.mark.parametrize(
        "flags,traces,err",
        [
            (["--grid", "128"], 4, "warning: split panel at tau = 6.283185307: the level set is"
             " one closed curve, drawn as 4 traces on the 128x128 grid; try a larger --grid\n"),
            (["--grid", "512"], 1, ""),
            (["--grid", "128", "--window=-0.9,0.9,-0.9,0.9"], 3, ""),
        ],
    )
    def test_from_grid_split_panel_warns(self, tmp_path, capsys, flags, traces, err):
        out = tmp_path / "c"
        argv = ["contour", "--profile", "anharmonic", "--from-grid", f"--tau={2 * math.pi!r}", *flags]
        assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
        assert capsys.readouterr().err == err
        # the panel is still written, one CSV per trace
        assert len(list(out.glob("*.csv"))) == traces

    def test_from_grid_level_below_one_never_reads_as_one(self, tmp_path, capsys):
        # exp(-r^2) is 0.9999999999999999 here; .6g would print it as 1, the
        # level that parsing refuses
        argv = ["contour", "--from-grid", "--radius", "7.5e-9", "--grid", "16", "--tau", "1"]
        assert main(argv + ["--out", str(tmp_path / "c")]) == 0
        err = capsys.readouterr().err
        assert "exp(-r^2) = 0.9999999999999999 " in err, err

    def test_capped_contour_warns(self, tmp_path, capsys):
        # the seeds are placed at MAX_SEEDS, and 3 of their gaps stay wide
        argv = ["contour", "--tau", "1000", "--format", "csv", "--out", str(tmp_path / "c")]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "warning: unresolved contour at tau = 1000: its 65536 points leave gaps up to"
            " 0.0063, wider than the refinement limit 0.00614\n"
        )
        assert len(read_output(tmp_path / "c" / "contour_tau1000.csv")["x"]) == 65536

    def test_resolved_contour_is_silent(self, tmp_path, capsys):
        # the longest whorl the benchmark draws: anharmonic at 16 pi
        argv = ["contour", "--profile", "anharmonic", f"--tau={16 * math.pi!r}"]
        assert main(argv + ["--format", "csv", "--out", str(tmp_path / "c")]) == 0
        assert capsys.readouterr().err == ""

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

    # sha256 of stdout of each run, recorded with the annulus points drawn
    # from random.Random(--seed): the byte contract of the report table.
    # Each digest table is keyed by numpy's dispatch level (conftest.pinned);
    # X86_V3 was recorded under NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
    # AVX512_SPR", and X86_V2 with X86_V3 disabled as well.
    STDOUT = {
        "X86_V4": {
            "--q 0.2": "4e1dd2e61c9d7ddeb6a4a96594fa88943e7bc28282a80a32fc5637ffa6d79690",
            "--q 0.2 --seed 7": "17d1e57fb75782dd845390846b4c4bde029cf803a7d3e1e0b198bda15bc3d532",
            "--q 0.25": "d515c299ad8897d1aaabfb3e985f1506b510c4d6009e2c2f078ee46016544f6c",
            "--q 0.25 --seed 7": "00e3456714c243f1121011a476b76b9c7268e8ee1b446bddb2cc1c4503db6851",
            "--q 0.5": "fc149da1b529eb62f6fe1fbdbb0bd2b605e6c8905bec5f25d2999f91c972a232",
            "--q 0.5 --seed 7": "c343218ba90198bd6be23ac478028c61050ce12399b741ea32f9d81904a8346b",
            "--q 0.95": "0c2919c67a3c745a3f6283a46f947dcaf8d04380e0956651d49cb28ceb2c2911",
            "--q 0.95 --seed 7": "3e398c79f454363f7f515a78acb830de9367a764d28afc16a64d928a0b8d5dfe",
            "--q 1e-100": "309ef6e09bbe0d866cafbb2b6eded9bf931cccd7eda78bd91f63f12c7ba13675",
            "--q 0.9999": "6bd0842cb2584a0b477d4da1f117456dc63bbb36ebba6d0994cee22e56ab9a2a",
            "--q 0.9999999": "3d8b6d89d869a2cb1cf974759c1d4bfa151fb25c1415dce6a863e7d2ae8677b9",
            "--q 0.999999999": "3249a3e534db15cfa3812fc82b3ca2a3b396a1a859386371ae1a0cdeb64f81a4",
            "--steps 50": "020334db1f44a2f297d4faee839a5df3e5d5b9ebd339c67dced0cf98489bbfc5",
        },
        "X86_V3": {
            "--q 0.2": "7200b59b41875f7c8b5685f4dedc73c58519395c7923dd3d140afffd05bea954",
            "--q 0.2 --seed 7": "a04f638575dc9bc35bfd8fa05f78be4ba3aa4ddebd7dc986e357a1c2ce7ffc03",
            "--q 0.25": "4859e54d09baede63a9ea96b727db0a1cf5631b7e7985ccebe5ee5b5e5fb5c1a",
            "--q 0.25 --seed 7": "0f6fada4175457cd60e18b1cd44f720df97690f290b58c72a93080c9505f1fb8",
            "--q 0.5": "5e3d0f2d4dc93237eac486f1434c6216f0ccffc521c74e751ddf67b12a06aa13",
            "--q 0.5 --seed 7": "7d164ddc0c8aa180f62396ca25a6c0791328ef03526f5ab4666089c091c7552f",
            "--q 0.95": "d6bf7b5e541ab9fc9271fc5a682b46c2d5e10c7c7acb70bc9d64d7cd1f58e97e",
            "--q 0.95 --seed 7": "dcf902cce9783b5979c928a51be7cdcccba36d17b17068a69ec826cbab0fec77",
            "--q 1e-100": "309ef6e09bbe0d866cafbb2b6eded9bf931cccd7eda78bd91f63f12c7ba13675",
            "--q 0.9999": "5f7b7faa61e435bb9ed819f1c81c1323b71025e70d9cb3d31b8ef64433ec3ce6",
            "--q 0.9999999": "013ebf26d7428c289a6188f190643532041fe696921b935c5a3e0fc4f0a43570",
            "--q 0.999999999": "e892b8c520dba93bfb2e6a4ee0a03d8d14663028c1c4652d04268f4704605992",
            "--steps 50": "2d5662a45a22893c9c899b0208d8b80c34cca4fda6ae1baef8325c8c3561a6ff",
        },
        "X86_V2": {
            "--q 0.2": "2f881695b5c768299aa92c0d858f33c3cbe285bd3f5031f55f02716d8c781606",
            "--q 0.2 --seed 7": "b8525fe4bc2b1bc9a89d38904e053ec5cfe8891523010fb771330b33af6934ba",
            "--q 0.25": "f706d38ce3ff6bc935a35aed8bc021dc51fdb84971468dc0816b1eebff8e2945",
            "--q 0.25 --seed 7": "03bf184386d92e94341d0f8ad70503551f501b81dff9259e0e01f9e16728985c",
            "--q 0.5": "6e075245f1e0a080aa73e084c28de0b2444a597e162fe61d91fa9608be0a895a",
            "--q 0.5 --seed 7": "d1292bb1ee7c26d93ab1a50cc6132d2ec6ee9425bc10b484ccd58b4ef30d3e4f",
            "--q 0.95": "383362b5e64cd7d1c6b64cae793585ba887bb3350476c2cc4d93d9df7577326c",
            "--q 0.95 --seed 7": "7a05b1a9c2f24bd972370958a74e916373a545998067b070c92e7c48df3e04f6",
            "--q 1e-100": "2068ddb4725e93c5af1d908c969ba254b9d8c4c43c09aaf464870cbf84808155",
            "--q 0.9999": "9a1e94fb787f698ed10c43733fd478f9af057c708ba4f9c1bef98a14e07b9610",
            "--q 0.9999999": "1ba651ae51bc33cc0c95a044407a9fb20a21e3fd4cd4e83c3b3a81f76197ef96",
            "--q 0.999999999": "56ccefc13aca8b38022cc4169d7bb218033b601a31d5a90b091d555bf7964bd5",
            "--steps 50": "d0612b2139ebec255a0d7c2078a7906d45e972c440a24c3da401c73831cecf8d",
        },
    }

    @pytest.mark.parametrize(
        "args, code",
        [
            ("--q 0.2", 3),
            ("--q 0.2 --seed 7", 3),
            ("--q 0.25", 0),
            ("--q 0.25 --seed 7", 0),
            ("--q 0.5", 0),
            ("--q 0.5 --seed 7", 0),
            ("--q 0.95", 0),
            ("--q 0.95 --seed 7", 0),
            ("--q 1e-100", 3),
            ("--q 0.9999", 0),
            ("--q 0.9999999", 0),
            ("--q 0.999999999", 0),
            ("--steps 50", 3),
        ],
    )
    def test_stdout_is_pinned(self, capsys, args, code):
        digest = pinned(self.STDOUT, args)
        assert main(["verify", *args.split()]) == code
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


# the pinned requests whose grid splits the one closed level set of a panel
# into pieces: the files are pinned all the same, and stderr says so
_SPLIT_PANELS = "".join(
    f"warning: split panel at tau = {tau}: the level set is one closed curve, drawn as"
    f" {pieces} traces on the 33x33 grid; try a larger --grid\n"
    for tau, pieces in (("4.71238898", 3), ("6.283185307", 4))
)
_REQUEST_STDERR = {
    "contour --profile anharmonic --format svg --from-grid --grid 33": _SPLIT_PANELS,
    "contour --profile anharmonic --format csv --from-grid --grid 33": _SPLIT_PANELS,
}


def _request_digest(request_line, tmp_path, monkeypatch, capsys) -> str:
    """_tree_digest of the files a request writes; it must succeed, silently
    but for the warnings _REQUEST_STDERR pins."""
    monkeypatch.chdir(tmp_path)  # manifests and SVG <desc> record --out
    assert main([*request_line.split(), "--out", "o"]) == 0
    assert capsys.readouterr().err == _REQUEST_STDERR.get(request_line, "")
    return _tree_digest(Path("o"))


class TestEmittedFiles:
    # the digest of every file each request writes, recorded with the
    # per-float f-string emitters: the byte contract of the .6f SVG and
    # .17g CSV numbers, per dispatch level as STDOUT above.  The wide window
    # puts values below 1e-4 (exponent form) and underflows others to 0.0.
    GOLDEN = {
        "X86_V4": {
            "contour --profile undeformed --format svg --points 128": "e632fc099a70d60ce8cfee1eef16168c6395e8b0e0e0f29b736f95dd757e71d0",
            "contour --profile undeformed --format svg --from-grid --grid 33": "3e8649064e8466d09f35c07d05e7e484f20361d3660bb5dbf1ed206a31e231ad",
            "contour --profile undeformed --format csv --points 128": "a990905ddbc3c2aee0d6a943a6cc67ac4ef42ee2d99bd675fd2ba8ad9f3d20dc",
            "contour --profile undeformed --format csv --from-grid --grid 33": "625a0cd43c5906d6e11115383d04f2d0cd3908170fa7a4751cdb012451e3f65e",
            "contour --profile mu1 --format svg --points 128": "f9a121b68854e87d462d4509b4d6e00be0a48008f159b34f7ba02fba5a94d6d9",
            "contour --profile mu1 --format svg --from-grid --grid 33": "8b9bb4041d49b34a31459b6fb3e79e2cb990f2411cdf5ae552ba9fa95a293888",
            "contour --profile mu1 --format csv --points 128": "f0b7a1560ed93a1c51467c002c82105a797b40870aaf2d5d3283353937bb4ab7",
            "contour --profile mu1 --format csv --from-grid --grid 33": "59d897ae82e185629eb2c734472bddd80e29ba937214a56a08286929ca279d6a",
            "contour --profile mu2 --format svg --points 128": "20f5db6e50a73a94c7d2534f8d3af12f6527e7c205d3684099fed06b98479145",
            "contour --profile mu2 --format svg --from-grid --grid 33": "93f884036fbf27a800c06a7587b5c66a7d0bc2fcbd71c2ed10af48d3669d32f3",
            "contour --profile mu2 --format csv --points 128": "131c585e4d696ec3b305fd43f639b215d0d4232318041cabaf2e8416ca2ce248",
            "contour --profile mu2 --format csv --from-grid --grid 33": "c35f1bb0be81ddc0cca0243e8603f0fba1abfeb3be26b5b8e072663b30695be5",
            "contour --profile mu3 --format svg --points 128": "8a4e64c9fd89e9182b9ef75e3463e952f65e7ecfad907bf7f022bcf5da00d5cd",
            "contour --profile mu3 --format svg --from-grid --grid 33": "dbc8d381e27b121b3ba713d588e2a2912c2a600fd598a9777a0346c82f004b3c",
            "contour --profile mu3 --format csv --points 128": "ec7431bb2ce8e0d76307694406c033f7d8838b1510c7acd141124d6a29ddd42c",
            "contour --profile mu3 --format csv --from-grid --grid 33": "38226e557fd008270a6bb009eb7ff325029132fd3e1e88513e7a1d96b9c85e66",
            "contour --profile mu4 --format svg --points 128": "4ec1f95306e2765a715b806c0e70a016cdfa3e4ff67b9ef1eff4cb63a9d5d8d2",
            "contour --profile mu4 --format svg --from-grid --grid 33": "6856e8b2943e2cdbe614fbee07731696a285aa0f00b1aec6c75409a8c8c380ce",
            "contour --profile mu4 --format csv --points 128": "20b7c9d521670cdf4399181cf8a18ebbf11bb14cebc4211173946889e77e305c",
            "contour --profile mu4 --format csv --from-grid --grid 33": "8bb3847b0b203cd7a4df2542e3b9025d192a26854999ef2bb08f71535c15f4bc",
            "contour --profile anharmonic --format svg --points 128": "8ce5f9a310cfea1deabd6c8f5eddeb3218445af86af8ee8ac0f436219c7fdc24",
            "contour --profile anharmonic --format svg --from-grid --grid 33": "5c339873ab378ecee42267cb35bbfa375c289934e1089b02b9655efe35d73574",
            "contour --profile anharmonic --format csv --points 128": "751902e8c550acc8cdf062b3bca15cd266a449494afbcf085427ae8c50be6061",
            "contour --profile anharmonic --format csv --from-grid --grid 33": "0dd81036bc0a1b6a9a725874c28ad95927129ea4ede6abfb63bee823d3bc7e8d",
            "evolve --format csv --grid 33": "a547ce8dd188edecd4ea5531a333fcf9408ecc727d9c0b390a94294c28c0d3d8",
            "evolve --profile mu2 --format csv --grid 33 --window=-30,30,-30,30 --tau 1": "c2f27d0836fab074112b3213380a9d2ef9715dfae1b941a937110206cffffbe7",
            "reproduce fig1": "ca31a7e8fc0d54a990ff546c6bb28478dd6166843bcf87d2f9d0194c5e081134",
            "reproduce fig2": "f49272012459b4278eb7a0cd98eedaf124c3b1153766fd77c2548ac825fba4b0",
            "reproduce fig3": "14b3040b9595be5ee472d71388c7bd5c1b1b96869cd260eafdd5c74fe0ea6608",
            "freq --profile undeformed": "21b13a9ac6765fcdf55fc2d52f4a85d075aae5bf294abb58044f4a1ae667c380",
            "freq --profile mu1": "a1a5f9daadff81c13f479ea2365e51c73281617751b2bf496d92908c77883381",
            "freq --profile mu2": "7ffcd76650c24e1f713fdf76f5dafa1c1c77e810f518b4f37516c30abb1ee0dd",
            "freq --profile mu3": "8ee8f0dac7c5d4593a7451d322e41dbd6c008de2004b1b6721bf6261e0ee860b",
            "freq --profile mu4": "f0347de4d0cc49f79f25d490cfa2a086a315562506d5af5bd6a77d0bef6c7fd4",
            "freq --profile anharmonic": "079c80502ecc8c1bbe2d2ee083eec295ccd87d0c6fbb63a82fac44b3ec7036fe",
        },
        "X86_V3": {
            "contour --profile undeformed --format svg --points 128": "e632fc099a70d60ce8cfee1eef16168c6395e8b0e0e0f29b736f95dd757e71d0",
            "contour --profile undeformed --format svg --from-grid --grid 33": "3e8649064e8466d09f35c07d05e7e484f20361d3660bb5dbf1ed206a31e231ad",
            "contour --profile undeformed --format csv --points 128": "a990905ddbc3c2aee0d6a943a6cc67ac4ef42ee2d99bd675fd2ba8ad9f3d20dc",
            "contour --profile undeformed --format csv --from-grid --grid 33": "a83c431bb07a9aa24ce4ddc858b4a054e65e009ba04e2f6620707c28e4a4c6e0",
            "contour --profile mu1 --format svg --points 128": "f9a121b68854e87d462d4509b4d6e00be0a48008f159b34f7ba02fba5a94d6d9",
            "contour --profile mu1 --format svg --from-grid --grid 33": "8b9bb4041d49b34a31459b6fb3e79e2cb990f2411cdf5ae552ba9fa95a293888",
            "contour --profile mu1 --format csv --points 128": "2534d1d5a7daa86ca07a498a422449d9c739c575cdb85a1b7407733276cf53c0",
            "contour --profile mu1 --format csv --from-grid --grid 33": "646335a5932c7bc23fe91dfdff942757dad542ed0c41dca952657b6be6728e81",
            "contour --profile mu2 --format svg --points 128": "20f5db6e50a73a94c7d2534f8d3af12f6527e7c205d3684099fed06b98479145",
            "contour --profile mu2 --format svg --from-grid --grid 33": "93f884036fbf27a800c06a7587b5c66a7d0bc2fcbd71c2ed10af48d3669d32f3",
            "contour --profile mu2 --format csv --points 128": "17387e1737a93395874ad4abb79c55734969866cc60ef837e551b00e3297666f",
            "contour --profile mu2 --format csv --from-grid --grid 33": "30cc4c19f28c487d8b2fb5d391353c7ae0b73412c0177d9520ecd62baf8860c8",
            "contour --profile mu3 --format svg --points 128": "8a4e64c9fd89e9182b9ef75e3463e952f65e7ecfad907bf7f022bcf5da00d5cd",
            "contour --profile mu3 --format svg --from-grid --grid 33": "dbc8d381e27b121b3ba713d588e2a2912c2a600fd598a9777a0346c82f004b3c",
            "contour --profile mu3 --format csv --points 128": "ec7431bb2ce8e0d76307694406c033f7d8838b1510c7acd141124d6a29ddd42c",
            "contour --profile mu3 --format csv --from-grid --grid 33": "c5e57ac452d7a7191772c2a1fa8a244e877b1aaaf43c98dcf67df339fc35af1b",
            "contour --profile mu4 --format svg --points 128": "4ec1f95306e2765a715b806c0e70a016cdfa3e4ff67b9ef1eff4cb63a9d5d8d2",
            "contour --profile mu4 --format svg --from-grid --grid 33": "6856e8b2943e2cdbe614fbee07731696a285aa0f00b1aec6c75409a8c8c380ce",
            "contour --profile mu4 --format csv --points 128": "20b7c9d521670cdf4399181cf8a18ebbf11bb14cebc4211173946889e77e305c",
            "contour --profile mu4 --format csv --from-grid --grid 33": "9f9e503979b4e5d954daadd2163db600c3064817b5cacae841fcfc03270ad2d2",
            "contour --profile anharmonic --format svg --points 128": "8ce5f9a310cfea1deabd6c8f5eddeb3218445af86af8ee8ac0f436219c7fdc24",
            "contour --profile anharmonic --format svg --from-grid --grid 33": "5c339873ab378ecee42267cb35bbfa375c289934e1089b02b9655efe35d73574",
            "contour --profile anharmonic --format csv --points 128": "751902e8c550acc8cdf062b3bca15cd266a449494afbcf085427ae8c50be6061",
            "contour --profile anharmonic --format csv --from-grid --grid 33": "038e224df79181ed56687f6413614586668c344fce1b32e25445619742766eb5",
            "evolve --format csv --grid 33": "9dcabcd4406f9bd71267c38c75ae691db2357011dbdb6d449204a6c248b7b186",
            "evolve --profile mu2 --format csv --grid 33 --window=-30,30,-30,30 --tau 1": "8bd212acca90d83f6b07b921efb87572dbcd6f38a61d5b2034a818f3f02a3bc1",
            "reproduce fig1": "ca31a7e8fc0d54a990ff546c6bb28478dd6166843bcf87d2f9d0194c5e081134",
            "reproduce fig2": "f49272012459b4278eb7a0cd98eedaf124c3b1153766fd77c2548ac825fba4b0",
            "reproduce fig3": "14b3040b9595be5ee472d71388c7bd5c1b1b96869cd260eafdd5c74fe0ea6608",
            "freq --profile undeformed": "21b13a9ac6765fcdf55fc2d52f4a85d075aae5bf294abb58044f4a1ae667c380",
            "freq --profile mu1": "d4124912da3c847d2bdd9aa028a8017a478fbd39cdbf505df80d056a14f37e95",
            "freq --profile mu2": "70a0133aebde040e07c822877fe0270f19f39d4b47fc8c126baba7f4083c7cbf",
            "freq --profile mu3": "8ee8f0dac7c5d4593a7451d322e41dbd6c008de2004b1b6721bf6261e0ee860b",
            "freq --profile mu4": "f0347de4d0cc49f79f25d490cfa2a086a315562506d5af5bd6a77d0bef6c7fd4",
            "freq --profile anharmonic": "079c80502ecc8c1bbe2d2ee083eec295ccd87d0c6fbb63a82fac44b3ec7036fe",
        },
        "X86_V2": {
            "contour --profile undeformed --format svg --points 128": "e632fc099a70d60ce8cfee1eef16168c6395e8b0e0e0f29b736f95dd757e71d0",
            "contour --profile undeformed --format svg --from-grid --grid 33": "3e8649064e8466d09f35c07d05e7e484f20361d3660bb5dbf1ed206a31e231ad",
            "contour --profile undeformed --format csv --points 128": "a990905ddbc3c2aee0d6a943a6cc67ac4ef42ee2d99bd675fd2ba8ad9f3d20dc",
            "contour --profile undeformed --format csv --from-grid --grid 33": "a83c431bb07a9aa24ce4ddc858b4a054e65e009ba04e2f6620707c28e4a4c6e0",
            "contour --profile mu1 --format svg --points 128": "f9a121b68854e87d462d4509b4d6e00be0a48008f159b34f7ba02fba5a94d6d9",
            "contour --profile mu1 --format svg --from-grid --grid 33": "8b9bb4041d49b34a31459b6fb3e79e2cb990f2411cdf5ae552ba9fa95a293888",
            "contour --profile mu1 --format csv --points 128": "dc607b47b5ec7a1584c22cdb5f711758199cf9f007ec54c19cf47b825ee16b63",
            "contour --profile mu1 --format csv --from-grid --grid 33": "c00e721d9bcc10639aeb701270e7b9dda2f2018454cdc8eac7fa523eab97f7d4",
            "contour --profile mu2 --format svg --points 128": "20f5db6e50a73a94c7d2534f8d3af12f6527e7c205d3684099fed06b98479145",
            "contour --profile mu2 --format svg --from-grid --grid 33": "93f884036fbf27a800c06a7587b5c66a7d0bc2fcbd71c2ed10af48d3669d32f3",
            "contour --profile mu2 --format csv --points 128": "da85bb69497def2803135aa0dc2de64e9b9b1ef21ddff0511f132042a6ab2fac",
            "contour --profile mu2 --format csv --from-grid --grid 33": "1f7608ad08c07129e1c1b139b881e6b7b1f941d23f0a27dd1f18f6b2a42a366d",
            "contour --profile mu3 --format svg --points 128": "8a4e64c9fd89e9182b9ef75e3463e952f65e7ecfad907bf7f022bcf5da00d5cd",
            "contour --profile mu3 --format svg --from-grid --grid 33": "dbc8d381e27b121b3ba713d588e2a2912c2a600fd598a9777a0346c82f004b3c",
            "contour --profile mu3 --format csv --points 128": "44ec3e830fef04df9610453a646e8481c0cf8143723d2c2cad38178015b2123f",
            "contour --profile mu3 --format csv --from-grid --grid 33": "82dfb91e721f67448dbb53c181fed76a7eea65ec20f8b7272483af58a1723b13",
            "contour --profile mu4 --format svg --points 128": "4ec1f95306e2765a715b806c0e70a016cdfa3e4ff67b9ef1eff4cb63a9d5d8d2",
            "contour --profile mu4 --format svg --from-grid --grid 33": "6856e8b2943e2cdbe614fbee07731696a285aa0f00b1aec6c75409a8c8c380ce",
            "contour --profile mu4 --format csv --points 128": "ffaadf242db3a80596194b711c49a4bd6e1ea31dee2c723007cf554ce0f13b6d",
            "contour --profile mu4 --format csv --from-grid --grid 33": "ab7c00c6d7f3eede443d11e75888c80309917926cd0db7cd939ab727b1a55716",
            "contour --profile anharmonic --format svg --points 128": "8ce5f9a310cfea1deabd6c8f5eddeb3218445af86af8ee8ac0f436219c7fdc24",
            "contour --profile anharmonic --format svg --from-grid --grid 33": "5c339873ab378ecee42267cb35bbfa375c289934e1089b02b9655efe35d73574",
            "contour --profile anharmonic --format csv --points 128": "478b7547d02f350bb6f2852e5c8ce5e1ed8d12b919c20a9607187a5d1341e859",
            "contour --profile anharmonic --format csv --from-grid --grid 33": "18910f155d28b711c3535ad761ea7e2fb58edc17047ef03eefb0fd125032d4e1",
            "evolve --format csv --grid 33": "e031e75da96efb4f31d2d07f6e9847ee97702c95c440ae06c159022a0c5d18e8",
            "evolve --profile mu2 --format csv --grid 33 --window=-30,30,-30,30 --tau 1": "757ef5e97033cd0227643b4384e7f47695f5db0848d5772778a6ee9804d1af52",
            "reproduce fig1": "ca31a7e8fc0d54a990ff546c6bb28478dd6166843bcf87d2f9d0194c5e081134",
            "reproduce fig2": "f49272012459b4278eb7a0cd98eedaf124c3b1153766fd77c2548ac825fba4b0",
            "reproduce fig3": "14b3040b9595be5ee472d71388c7bd5c1b1b96869cd260eafdd5c74fe0ea6608",
            "freq --profile undeformed": "21b13a9ac6765fcdf55fc2d52f4a85d075aae5bf294abb58044f4a1ae667c380",
            "freq --profile mu1": "d4124912da3c847d2bdd9aa028a8017a478fbd39cdbf505df80d056a14f37e95",
            "freq --profile mu2": "70a0133aebde040e07c822877fe0270f19f39d4b47fc8c126baba7f4083c7cbf",
            "freq --profile mu3": "8ee8f0dac7c5d4593a7451d322e41dbd6c008de2004b1b6721bf6261e0ee860b",
            "freq --profile mu4": "f0347de4d0cc49f79f25d490cfa2a086a315562506d5af5bd6a77d0bef6c7fd4",
            "freq --profile anharmonic": "079c80502ecc8c1bbe2d2ee083eec295ccd87d0c6fbb63a82fac44b3ec7036fe",
        },
    }

    @pytest.mark.parametrize("request_line", sorted(GOLDEN["X86_V4"]))
    def test_files_are_pinned(self, tmp_path, monkeypatch, capsys, request_line):
        digest = pinned(self.GOLDEN, request_line)
        assert _request_digest(request_line, tmp_path, monkeypatch, capsys) == digest


class TestEmittedSnapshots:
    # the digest of every file each JSON snapshot request writes, recorded
    # with json.dumps of the values as a list of Python floats: the byte
    # contract of the repr numbers, per dispatch level as STDOUT above.  The
    # wide window puts values below 1e-4 (exponent form), subnormals and 0.0
    # into the snapshot.
    GOLDEN = {
        "X86_V4": {
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
        },
        "X86_V3": {
            "evolve --profile undeformed --format json --grid 2": "47bf1cfdf3d9c7147729d94f3dbf3a7075ccb12613a41fd99f8642f6f58ddefb",
            "evolve --profile undeformed --format json --grid 33": "3e42c19549d21bcf3470eded625e58969edfc3b62278f0e5dd78a9d94416717b",
            "evolve --profile undeformed --format json --grid 257": "0782221b23db4d5e6fbb44243e1be481a60e40a3094d486153f4a144b63597f9",
            "evolve --profile mu1 --format json --grid 2": "634b62744bedf54da4de68d2bea2f2df9e19366cf789e97530007bb7cf47093a",
            "evolve --profile mu1 --format json --grid 33": "310f69fb821199c9f9ef175fc96357d30d5a9795bc72e3cdb6c55d69a4b7aaf9",
            "evolve --profile mu1 --format json --grid 257": "5549debdf41bcc22cbcc3190d7568463a10d1e089855038fd654e7b5b24caf34",
            "evolve --profile mu2 --format json --grid 2": "714c79146b1b73e0568a5dc96ab049a52f1647e1952e46d14520441a48bd1e4b",
            "evolve --profile mu2 --format json --grid 33": "c6b8c7f98d768b73319c063220105c0546d0d80b6dcdae3908fecae53c55399f",
            "evolve --profile mu2 --format json --grid 257": "f831dd437ffb1146cb660aa65d678c8b78b3d3e1573ea28800555d92e4a6d8e0",
            "evolve --profile mu3 --format json --grid 2": "155be16d816925d9058b41bb77f7d8fbbe6e22511bd02272d36a57be9aa86c58",
            "evolve --profile mu3 --format json --grid 33": "0b9272a069db97158f8dba27e6b72e356fb0d22b6367411faa4f2d2ac85d15b9",
            "evolve --profile mu3 --format json --grid 257": "c946419ca1f9c44fe21bc638712d1b83aabdf481aa9624c38ef74674957a7779",
            "evolve --profile mu4 --format json --grid 2": "af9c99e26ffc06e277e629988bc924266c95cfbe75ce1e62e2531aec2d62a316",
            "evolve --profile mu4 --format json --grid 33": "e8b9411ce1342c8504aabf295c01c642116776aea6d66593e7330b392a232f1c",
            "evolve --profile mu4 --format json --grid 257": "370dcec17d753af805172c38bc8061e8cb51f5f8878859a5b3e4dbf6c64e73d1",
            "evolve --profile anharmonic --format json --grid 2": "3ed77f6aa48efbc8a540593b19ea645a06e4e08a364a4134fd53b5411605e149",
            "evolve --profile anharmonic --format json --grid 33": "d88e60fdc1bb18f45d27be10caef644c78d5130c567c4476c8ffddd9dd3d1af9",
            "evolve --profile anharmonic --format json --grid 257": "e5b2b643a5bfaaa97c7b0d2dd9d4bd6737070bb2311a7e4b7b3b694c3b523e4b",
            "evolve --profile mu2 --format json --grid 33 --window=-30,30,-30,30 --tau 1": "da1598ab08b89efe0b10674de521fb2338804160027a5cdfaffd175b3fc74a1d",
            "reproduce fig4": "d3a4cf904058aef60a29de5c0a9d1d67ca87eeeecf27f3e1e932f9e8937a9489",
            "reproduce fig5": "f24e3686413ed83470c5dd3772e0722ab987b27a5e19deef4dd4e50af1b84699",
            "reproduce fig6": "eeb517278813268ba48f21577d92f5fbfc86b6f558f5f246ebac8172b65acb3a",
        },
        "X86_V2": {
            "evolve --profile undeformed --format json --grid 2": "47bf1cfdf3d9c7147729d94f3dbf3a7075ccb12613a41fd99f8642f6f58ddefb",
            "evolve --profile undeformed --format json --grid 33": "3e42c19549d21bcf3470eded625e58969edfc3b62278f0e5dd78a9d94416717b",
            "evolve --profile undeformed --format json --grid 257": "0782221b23db4d5e6fbb44243e1be481a60e40a3094d486153f4a144b63597f9",
            "evolve --profile mu1 --format json --grid 2": "634b62744bedf54da4de68d2bea2f2df9e19366cf789e97530007bb7cf47093a",
            "evolve --profile mu1 --format json --grid 33": "a785f1c53bd0eb2b3a8edd12b2ffdcaa847f23129a74c67368b0d2a9c8014341",
            "evolve --profile mu1 --format json --grid 257": "c9676be9b8aeb187a467445e6971e72967b16bbfb8bf17ef3625600214ec394c",
            "evolve --profile mu2 --format json --grid 2": "714c79146b1b73e0568a5dc96ab049a52f1647e1952e46d14520441a48bd1e4b",
            "evolve --profile mu2 --format json --grid 33": "b7e25ad3713ab09ff732150d3acce7258b41cdc980218dc154facb854c99f12d",
            "evolve --profile mu2 --format json --grid 257": "331472a0f30d4bc9a62880317cb55a5144c9e6eb3b735b626a4309287acf73ea",
            "evolve --profile mu3 --format json --grid 2": "155be16d816925d9058b41bb77f7d8fbbe6e22511bd02272d36a57be9aa86c58",
            "evolve --profile mu3 --format json --grid 33": "460087ccbdacf8d11e11af68384d6bda94b48193bc3e237f8eda44b533e5d746",
            "evolve --profile mu3 --format json --grid 257": "d7e583be46308baf7a898476d4264bce4853fae266457518a9405f6272a029d2",
            "evolve --profile mu4 --format json --grid 2": "af9c99e26ffc06e277e629988bc924266c95cfbe75ce1e62e2531aec2d62a316",
            "evolve --profile mu4 --format json --grid 33": "4094c754637de507ce9098438a70fc98bd9db19c0f0f044083fb25fcc09e1b64",
            "evolve --profile mu4 --format json --grid 257": "30b19f28fff03814c42014d78d9ecc9c6b8c1abb8b372db154cad8318355fb08",
            "evolve --profile anharmonic --format json --grid 2": "3ed77f6aa48efbc8a540593b19ea645a06e4e08a364a4134fd53b5411605e149",
            "evolve --profile anharmonic --format json --grid 33": "2e61f0f32f702717d0c2799801dc1cf8c982a91313b84ab91f12affbac9eec60",
            "evolve --profile anharmonic --format json --grid 257": "752d1a7e9c9ca5e3828249795bf807b9f503beb5aa06bc1d3d43d78b7cc8b356",
            "evolve --profile mu2 --format json --grid 33 --window=-30,30,-30,30 --tau 1": "a3b03056cfaceeb5194ee5021ac3a8d5a149368365b15d4e5c7250e8801dbbbc",
            "reproduce fig4": "edcbe883421a782094b8e9289c00bf6f4103799027b91876d1a480c34e055d28",
            "reproduce fig5": "f19e68de97a6f34e22ff983076b059d3d85cc039a64ffb70fa0c7c4c67f5c6c5",
            "reproduce fig6": "e314deed6aa52506be43486fe9120d3bfb96cd4053a01b30e47761d4377ed7c7",
        },
    }

    @pytest.mark.parametrize("request_line", sorted(GOLDEN["X86_V4"]))
    def test_files_are_pinned(self, tmp_path, monkeypatch, capsys, request_line):
        digest = pinned(self.GOLDEN, request_line)
        assert _request_digest(request_line, tmp_path, monkeypatch, capsys) == digest


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
            # omega (1 + 2 s) overflows at s = 1, where mu1 is still finite
            (["verify", "--q", "0.9", "--omega", "1e308"], "anharmonic law at q = 0.9"),
            (["verify", "--q", "0.5", "--omega", "1e308"], "anharmonic law at q = 0.5"),
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


class TestRefusalNamesItsCause:
    """A refused request names the law only when a law failed."""

    def test_largest_action_is_the_grid_corner(self, tmp_path, capsys):
        # the first failing block of rows reaches s ~ 1,700; the corner (+-40, 80) 8000
        argv = ["evolve", "--q", "0.01", "--window=-40,40,0,80", "--tau", "1"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: mu1 law at q = 0.01: Omega(s) is not finite; "
            "the largest action reached is s = |z|^2 = 8000\n"
        )

    # seeds closer than the doubles near the centre round together once
    # rotated, whatever the law
    @pytest.mark.parametrize("radius", ["1e-14", "1e-300"])
    def test_collapsed_circle_names_its_radius(self, tmp_path, capsys, radius):
        out = tmp_path / "o"
        assert main(["contour", "--radius", radius, "--tau", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: the advected circle of radius {radius} about 0.5+0j collapsed at t = 1:"
            " consecutive points coincide\n"
        )
        assert not out.exists()

    def test_trace_beyond_the_svg_view_is_refused(self, tmp_path, capsys):
        # the rotated circle is finite, but 800 (x - xmin) / (xmax - xmin) is not
        argv = ["contour", "--profile", "undeformed", "--radius", "1e308", "--tau", "1"]
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--out", str(out)]) == 2
            assert main(argv + ["--format", "csv", "--out", str(tmp_path / "csv")]) == 0
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: cannot draw traces reaching x in [-1e+308, 1e+308]"), err
        assert err.endswith(" overflows the doubles\n") and err.count("\n") == 1, err
        assert not list(out.glob("*.svg"))

    def test_panel_inside_a_huge_window_is_drawn(self, tmp_path, capsys):
        # 800 (x - xmin) overflows for a window of span 1e308, but the circle
        # of radius 4e307 about -5e307 (1 + i) maps into [80, 720]
        argv = [
            "contour", "--profile", "undeformed", "--alpha0-re=-5e307", "--alpha0-im=-5e307",
            "--radius", "4e307", "--tau", "6.283185307179586", "--window=-1e308,0,-1e308,0",
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--out", str(tmp_path)]) == 0
        assert caught == [] and capsys.readouterr().err == ""
        (svg,) = tmp_path.glob("*.svg")
        body = svg.read_text().split('<path d="')[1].split('"')[0]
        coords = [float(tok) for tok in re.findall(r"[-\d.]+", body)]
        assert len(coords) >= 2 * 1024 and 80.0 <= min(coords) and max(coords) <= 720.0

    def test_circle_above_the_doubles_is_drawn(self, tmp_path):
        assert main(["contour", "--radius", "1e-12", "--tau", "1", "--out", str(tmp_path)]) == 0
        assert main(["contour", "--radius", "1e-17", "--tau", "0", "--out", str(tmp_path)]) == 0


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


# each ranged flag's nearest refused value
_OUT_OF_RANGE = {
    "q": ["1"], "mass": ["0"], "omega": ["0"], "hbar": ["0"], "grid": ["1"], "radius": ["0"],
    "points": ["7"], "steps": ["0", "1000001"], "seed": ["-1"], "sign": ["0"], "s_samples": ["1"],
    "s_range": ["1,1"],
}


def _refused_texts():
    """(command, flag, text): NaN and an infinity for every numeric flag of
    the table (as the last entry of a comma-separated flag), then the flag's
    nearest out-of-range values; each on the first command that reads it."""
    for key, (default, keywords) in _FLAGS.items():
        if "type" not in keywords:
            continue
        command = next(c for c in ("verify", "freq", "evolve", "contour") if key in COMMANDS[c][1])
        if isinstance(default, tuple) and "action" not in keywords:  # comma-separated
            texts = [",".join([*map(repr, default[:-1]), bad]) for bad in ("nan", "inf")]
        else:
            texts = ["nan", "inf"]
        for text in texts + _OUT_OF_RANGE.get(key, []):
            yield command, "--" + key.replace("_", "-"), text


def _json_value(flag, text):
    """text as a --config file holds it: a JSON number where text is one,
    NaN or an infinity as json writes them, a one-entry list for --tau."""
    try:
        value = json.loads(text)
    except ValueError:
        value = text if "," in text else float(text)
    return [value] if flag == "--tau" else value


class TestNonFiniteInput:
    """NaN or an infinity given to a numeric flag, or to its --config key, or
    finite flags whose window or seed circle overflows the doubles, exits 2
    on one error line that names the flag, before any file exists.  So does
    a value outside a flag's range."""

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

    # the file's values are parsed whole, before the command line overrides them
    @pytest.mark.parametrize(
        "command,loaded,override",
        [
            ("verify", {"q": 1}, ["--q", "0.5"]),
            ("evolve", {"grid": 1}, ["--grid", "8"]),
            ("evolve", {"omega": math.nan}, ["--omega", "1"]),
            ("contour", {"tau": [1.0, math.inf]}, ["--tau", "1"]),
        ],
    )
    def test_config_value_exits_2_though_a_flag_overrides_it(
        self, tmp_path, capsys, command, loaded, override
    ):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(loaded))
        argv = [command, "--config", str(cfg_file), *override]
        self._assert_refused(argv, tmp_path, capsys, f"argument {override[0]}: expected ")

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
        ]
        + [pytest.param([c, f"{f}={t}"], f, id=f"{f}={t}") for c, f, t in _refused_texts()],
    )
    def test_flag_exits_2_naming_it(self, tmp_path, capsys, argv, flag):
        self._assert_refused(argv, tmp_path, capsys, f"argument {flag}: expected ")

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["evolve", "--window=-1.7e308,1.7e308,-1,1"], "--window"),
            (["contour", "--from-grid", "--window=-1,1,-1e308,1.7e308"], "--window"),
            (["contour", "--alpha0-re", "1e308", "--radius", "1e308"], "--radius"),
            (["contour", "--alpha0-im=-1.7e308", "--radius", "1e307", "--format", "csv"], "--radius"),
            (["reproduce", "fig2", "--alpha0-re", "1.7e308", "--radius", "1e307"], "--radius"),
        ],
    )
    def test_overflowing_span_exits_2_naming_its_flag(self, tmp_path, capsys, argv, flag):
        self._assert_refused(argv + ["--tau", "1"], tmp_path, capsys, flag)

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--profile", "undeformed", "--window=-1e200,1e200,-1,1"],
            # the grid is sampled, not the circle
            ["contour", "--from-grid", "--alpha0-re", "1.7e308", "--radius", "1"],
            ["reproduce", "fig5", "--alpha0-re", "1.7e308", "--radius", "1e307"],
        ],
    )
    def test_finite_spans_are_drawn(self, tmp_path, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--grid", "3", "--tau", "1", "--out", str(tmp_path)]) == 0
        assert caught == []

    @pytest.mark.parametrize(
        "command,loaded,flag",
        [
            ("evolve", {"omega": math.nan}, "--omega"),
            ("contour", {"alpha0_im": math.inf}, "--alpha0-im"),
            ("evolve", {"tau": [1.0, math.nan]}, "--tau"),
            ("evolve", {"window": "-1,1,-1,inf"}, "--window"),
            ("verify", {"mass": -math.inf}, "--mass"),
        ]
        + [
            pytest.param(c, {f[2:].replace("-", "_"): _json_value(f, t)}, f, id=f"{f}={t}")
            for c, f, t in _refused_texts()
        ],
    )
    def test_config_value_exits_2_naming_its_flag(self, tmp_path, capsys, command, loaded, flag):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(loaded))  # NaN, Infinity, -Infinity
        argv = [command, "--config", str(cfg_file)]
        self._assert_refused(argv, tmp_path, capsys, f"argument {flag}: expected ")


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
        assert parse_args(["evolve", "--tau", "1", "--tau", "1.000000001"]).tau == [1.0, 1.000000001]

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
                # that resolves no contour says so and holds none, and an
                # advected contour left coarse at MAX_SEEDS says so
                if err and "--from-grid" not in argv:
                    assert err.startswith("warning: unresolved contour at tau = ") and err.count("\n") == 1, err
                elif err:
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
    @staticmethod
    def _modules_after(code: str) -> list[str]:
        """The names in sys.modules after a fresh interpreter runs code, which
        must print nothing else to stdout."""
        src = Path(importlib.import_module("qwhorl").__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        code += "\nimport sys; print(*sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return run.stdout.split()

    def test_cli_import_loads_no_network_or_xml_module(self):
        # pathlib imports urllib.parse; nothing else of these packages may load
        loaded = [
            name
            for name in self._modules_after("import qwhorl.cli")
            if name.split(".")[0] in ("urllib", "http", "email", "ssl", "socket", "xml")
            and name not in ("urllib", "urllib.parse")
        ]
        assert loaded == []

    def test_verify_request_loads_no_numpy_random(self):
        # the annulus points come from the standard library's generator
        code = (
            "import contextlib, io\nfrom qwhorl.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify', '--steps', '50']) == 3"
        )
        loaded = self._modules_after(code)
        assert "qwhorl.verify" in loaded
        assert [name for name in loaded if name.split(".")[:2] == ["numpy", "random"]] == []


class TestExitCodes:
    def test_size_beyond_memory_exits_2_naming_it(self, tmp_path, capsys):
        # 4 EiB of float64, beyond the address space of any 64-bit platform,
        # so numpy's allocation fails at once without touching memory
        out = tmp_path / "o"
        assert main(["freq", "--s-samples", "576460752303423487", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: freq: ") and err.count("\n") == 1
        assert "--s-samples 576460752303423487" in err
        assert not out.exists()

    def test_io_failure_exits_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["evolve", "--grid", "8", "--tau", "1.0", "--out", str(blocker)]) == 4

    def test_help_exits_0(self):
        assert main(["--help"]) == 0
