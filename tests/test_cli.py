"""End-to-end CLI checks: flags, file emission, exit codes, determinism."""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwhorl.cli import main, parse_args
from qwhorl.core import MU1, PhasePoint
from qwhorl.field import read_csv, read_json
from qwhorl.liouville import GaussianState, initial_distribution

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
        assert cfg.kind.value == "type1"

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


class TestFreq:
    def test_mu1_table_values(self, tmp_path, capsys):
        out = tmp_path / "f"
        assert main(["freq", "--profile", "mu1", "--out", str(out)]) == 0
        cols = read_csv(out / "freq_mu1.csv")
        assert len(cols["s"]) == 101
        assert cols["s"][0] == 0.0 and cols["s"][-1] == 1.0
        assert cols["omega_ratio"][0] == pytest.approx(0.9241962407465937, rel=1e-14)

    def test_mu2_row_zero(self, tmp_path):
        out = tmp_path / "f"
        assert main(["freq", "--profile", "mu2", "--out", str(out)]) == 0
        cols = read_csv(out / "freq_mu2.csv")
        assert cols["omega_ratio"][0] == pytest.approx(1.3862943611198906, rel=1e-14)

    def test_undeformed_all_ones(self, tmp_path):
        out = tmp_path / "f"
        assert main(["freq", "--profile", "undeformed", "--out", str(out)]) == 0
        cols = read_csv(out / "freq_undeformed.csv")
        assert np.all(cols["omega_ratio"] == 1.0)

    def test_custom_s_range(self, tmp_path):
        out = tmp_path / "f"
        assert (
            main(
                ["freq", "--profile", "mu1", "--s-range", "0,2", "--s-samples", "11", "--out", str(out)]
            )
            == 0
        )
        cols = read_csv(out / "freq_mu1.csv")
        assert len(cols["s"]) == 11 and cols["s"][-1] == 2.0


class TestEvolve:
    def test_default_panel_files(self, tmp_path):
        out = tmp_path / "e"
        assert main(["evolve", "--grid", "32", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("snap_*.json"))
        assert len(names) == 4
        snap = read_json(out / names[0])
        assert snap["grid"]["nx"] == 32
        assert snap["config"]["q"] == 0.5
        assert snap["config"]["profile"] == "mu1"
        manifest = json.loads((out / "evolve_manifest.json").read_text())
        assert len(manifest["outputs"]) == 4
        assert manifest["outputs"][1]["tau_over_pi"] == pytest.approx(1.0)

    def test_tau_zero_matches_initial_distribution(self, tmp_path, params):
        out = tmp_path / "e"
        assert main(["evolve", "--grid", "16", "--tau", "0", "--out", str(out)]) == 0
        snap = read_json(out / "snap_tau0.json")
        state = GaussianState(PhasePoint(0.5), MU1, params)
        from qwhorl.field import GridSpec

        mesh = GridSpec.square(16).mesh_complex()
        expected = initial_distribution(mesh, state).ravel()
        assert np.array_equal(np.array(snap["values"]), expected)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "e"
        assert main(["evolve", "--grid", "8", "--tau", "1.0", "--format", "csv", "--out", str(out)]) == 0
        cols = read_csv(out / "snap_tau1.csv")
        assert len(cols["value"]) == 64

    def test_svg_format_rejected(self, tmp_path):
        assert main(["evolve", "--format", "svg", "--out", str(tmp_path)]) == 2

    def test_peak_capture_fine_grid(self, tmp_path):
        out = tmp_path / "e"
        assert main(["evolve", "--grid", "512", "--tau", "3.141592653589793", "--out", str(out)]) == 0
        snap = read_json(out / "snap_tau3.141592654.json")
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
        cols = read_csv(out / "contour_tau1.csv")
        assert len(cols["x"]) == 64

    def test_from_grid_extraction(self, tmp_path):
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
            cols = read_csv(path)
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
            (["verify", "--q", "1e-200"], "mu1 law at q = 1e-200"),
            (["freq", "--q", "1e-200", "--profile", "mu3"], "mu3 law at q = 1e-200"),
            (["evolve", "--q", "1e-310", "--grid", "8", "--tau", "1"], "mu1 law at q = 1e-310"),
        ],
    )
    def test_exits_2_and_writes_no_non_finite_value(self, tmp_path, capsys, argv, prefix):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}: ") and err.count("\n") == 1, err
        for path in tmp_path.rglob("*"):
            if path.is_file():
                data = path.read_bytes()
                assert not any(tok in data for tok in (b"NaN", b"nan", b"inf"))


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


def _reject_constant(token):
    raise AssertionError(f"non-finite JSON value {token}")


def _assert_finite_outputs(out: Path):
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            columns = read_csv(path)
            assert all(np.isfinite(c).all() for c in columns.values()), path.name
            assert all(0.0 <= v <= 1.0 for v in columns.get("value", [])), path.name
        elif path.suffix == ".json":
            values = json.loads(text, parse_constant=_reject_constant).get("values", [])
            assert all(0.0 <= v <= 1.0 for v in values), path.name
        else:
            for d in re.findall(r' d="([^"]*)"', text):
                coords = [float(tok) for tok in d.split() if tok not in ("M", "L", "Z")]
                assert np.isfinite(coords).all(), path.name


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
                assert err == ""
                _assert_finite_outputs(out)
            else:
                assert code == 2, err
                assert err.startswith("error: ") and err.count("\n") == 1, err


class TestExitCodes:
    def test_io_failure_exits_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["evolve", "--grid", "8", "--tau", "1.0", "--out", str(blocker)]) == 4

    def test_help_exits_0(self):
        assert main(["--help"]) == 0
