"""End-to-end CLI checks: flags, file emission, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

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


class TestExitCodes:
    def test_io_failure_exits_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["evolve", "--grid", "8", "--tau", "1.0", "--out", str(blocker)]) == 4

    def test_help_exits_0(self):
        assert main(["--help"]) == 0
