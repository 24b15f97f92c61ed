"""Grid sampling, marching squares, and the CSV/JSON/SVG file contracts."""

import json
import math
import re

import numpy as np
import pytest

from qwhorl.core import MU1, PhasePoint
from qwhorl.field import (
    DistributionField,
    GridSpec,
    extract_level_set,
    field_from_snapshot,
    field_snapshot,
    read_csv,
    read_json,
    sample_grid,
    svg_map,
    write_csv,
    write_json,
    write_svg,
)
from qwhorl.liouville import (
    ContourTrace,
    GaussianState,
    advect_contour,
    circle_points,
    initial_distribution,
)

EXP_LEVEL = math.exp(-0.25)


@pytest.fixture
def mu1_state(params):
    return GaussianState(PhasePoint(0.5), MU1, params)


class TestGridSpec:
    def test_defaults_cover_protocol_window(self):
        g = GridSpec()
        assert (g.xmin, g.xmax, g.ymin, g.ymax) == (-1.0, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"xmin": 1.0, "xmax": -1.0},
            {"ymin": 2.0, "ymax": 2.0},
            {"nx": 1},
            {"ny": 0},
        ],
    )
    def test_degenerate_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)

    def test_axes_include_endpoints(self):
        g = GridSpec.square(2)
        assert list(g.xs()) == [-1.0, 1.0]
        assert list(g.ys()) == [-1.0, 1.0]
        assert g.cell_size() == (2.0, 2.0)

    def test_mesh_layout(self):
        g = GridSpec(0.0, 1.0, 10.0, 12.0, 3, 2)
        mesh = g.mesh_complex()
        assert mesh.shape == (2, 3)
        assert mesh[0, 0] == 0.0 + 10.0j
        assert mesh[1, 2] == 1.0 + 12.0j


class TestSampleGrid:
    def test_two_by_two_corners(self, mu1_state):
        field = sample_grid(mu1_state, 0.0, GridSpec.square(2))
        # exp(-|corner - 0.5|^2) at the four corners of [-1, 1]^2
        assert field.values[0, 0] == pytest.approx(math.exp(-3.25), rel=1e-14)
        assert field.values[0, 1] == pytest.approx(math.exp(-1.25), rel=1e-14)
        assert field.values[1, 1] == pytest.approx(math.exp(-1.25), rel=1e-14)
        assert field.values[1, 0] == pytest.approx(math.exp(-3.25), rel=1e-14)

    def test_time_zero_equals_initial_sampling(self, mu1_state):
        grid = GridSpec.square(32)
        field = sample_grid(mu1_state, 0.0, grid)
        assert np.array_equal(field.values, initial_distribution(grid.mesh_complex(), mu1_state))
        assert field.tau == 0.0

    def test_deterministic(self, mu1_state):
        grid = GridSpec.square(64)
        a = sample_grid(mu1_state, 1.1, grid)
        b = sample_grid(mu1_state, 1.1, grid)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("tau", [0.3, 1.0, math.pi])
    def test_peak_captured_on_fine_grid(self, mu1_state, params, tau):
        field = sample_grid(mu1_state, tau / params.omega, GridSpec.square(512))
        assert 0.999 <= field.values.max() <= 1.0 + 1e-12

    def test_values_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            DistributionField(GridSpec.square(4), np.zeros((3, 3)), 0.0)
        with pytest.raises(ValueError, match="lie in"):
            DistributionField(GridSpec.square(2), np.full((2, 2), 1.5), 0.0)
        with pytest.raises(ValueError, match="lie in"):
            DistributionField(GridSpec.square(2), np.array([[0.5, np.nan], [0.5, 0.5]]), 0.0)


class TestExtractLevelSet:
    def test_constant_field_yields_nothing(self):
        field = DistributionField(GridSpec.square(16), np.full((16, 16), 0.3), 0.0)
        assert extract_level_set(field, 0.5) == []

    def test_level_out_of_range_rejected(self, mu1_state):
        field = sample_grid(mu1_state, 0.0, GridSpec.square(16))
        for level in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError, match="level"):
                extract_level_set(field, level)

    def test_initial_gaussian_circle(self, mu1_state):
        grid = GridSpec.square(256)
        field = sample_grid(mu1_state, 0.0, grid)
        traces = extract_level_set(field, EXP_LEVEL)
        assert len(traces) == 1
        trace = traces[0]
        assert trace.closed
        assert len(trace) >= 8
        # the level set of exp(-|z - 0.5|^2) at e^{-1/4} is |z - 0.5| = 0.5
        radii = np.abs(trace.points - 0.5)
        cell = grid.cell_size()[0]
        assert np.abs(radii - 0.5).max() <= cell
        centroid = trace.points.mean()
        assert abs(centroid - 0.5) <= cell

    def test_open_trace_reaches_boundary(self):
        # a left-right ramp crosses the window as a single open vertical line
        g = GridSpec.square(33)
        ramp = np.tile((g.xs() + 1.0) / 2.0, (33, 1))
        field = DistributionField(g, ramp, 0.0)
        traces = extract_level_set(field, 0.5)
        assert len(traces) == 1
        trace = traces[0]
        assert not trace.closed
        xs = trace.points.real
        assert np.abs(xs - 0.0).max() <= 1e-12
        ys = np.sort(trace.points.imag)
        assert ys[0] == -1.0 and ys[-1] == 1.0

    def test_two_separate_blobs(self):
        g = GridSpec.square(128)
        mesh = g.mesh_complex()
        vals = np.exp(-np.abs(mesh - 0.5) ** 2 / 0.01) + np.exp(
            -np.abs(mesh + 0.5) ** 2 / 0.01
        )
        field = DistributionField(g, np.clip(vals, 0.0, 1.0), 0.0)
        traces = extract_level_set(field, 0.5)
        assert len(traces) == 2
        assert all(t.closed for t in traces)

    def test_saddle_cell_resolved_consistently(self):
        # checkerboard corners force the ambiguous cases; traces must chain
        # without raising and stay within the cell bounds
        vals = np.array([[0.9, 0.1], [0.1, 0.9]])
        field = DistributionField(GridSpec.square(2), vals, 0.0)
        traces = extract_level_set(field, 0.5)
        assert len(traces) == 2
        for t in traces:
            assert not t.closed
            assert np.all(np.abs(t.points.real) <= 1.0)
            assert np.all(np.abs(t.points.imag) <= 1.0)


class TestCsv:
    def test_field_round_trip_bit_exact(self, mu1_state, tmp_path):
        field = sample_grid(mu1_state, 0.7, GridSpec.square(8))
        path = tmp_path / "field.csv"
        count = write_csv(field, path)
        assert count == path.stat().st_size
        cols = read_csv(path)
        assert list(cols) == ["x", "y", "value"]
        assert np.array_equal(cols["value"], field.values.ravel())
        xs = field.grid.xs()
        assert np.array_equal(cols["x"][:8], xs)

    def test_trace_round_trip(self, tmp_path):
        trace = ContourTrace(points=circle_points(0.5, 0.5, 16), closed=True)
        path = tmp_path / "trace.csv"
        write_csv(trace, path)
        cols = read_csv(path)
        assert np.array_equal(cols["x"] + 1j * cols["y"], trace.points)

    def test_empty_trace_is_header_only(self, tmp_path):
        trace = ContourTrace(points=np.array([], dtype=complex), closed=False)
        path = tmp_path / "empty.csv"
        assert write_csv(trace, path) == 4
        assert path.read_bytes() == b"x,y\n"

    def test_two_by_two_field_line_count(self, mu1_state, tmp_path):
        field = sample_grid(mu1_state, 0.0, GridSpec.square(2))
        path = tmp_path / "tiny.csv"
        write_csv(field, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert len(text.splitlines()) == 5

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv({"not": "supported"}, tmp_path / "x.csv")


class TestJson:
    def test_snapshot_round_trip(self, mu1_state, tmp_path):
        field = sample_grid(mu1_state, math.pi, GridSpec.square(2))
        snap = field_snapshot(field, {"profile": "mu1", "q": 0.5})
        path = tmp_path / "snap.json"
        count = write_json(snap, path)
        assert count == path.stat().st_size
        loaded = read_json(path)
        assert loaded == snap
        rebuilt = field_from_snapshot(loaded)
        assert np.array_equal(rebuilt.values, field.values)
        assert rebuilt.tau == field.tau
        assert rebuilt.grid == field.grid

    def test_reserialization_identical(self, mu1_state, tmp_path):
        field = sample_grid(mu1_state, 0.25, GridSpec.square(2))
        snap = field_snapshot(field, {"k": 1})
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(snap, p1)
        write_json(read_json(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_value_count_validated(self, tmp_path):
        bad = {"grid": {"nx": 2, "ny": 2}, "values": [1.0, 2.0, 3.0], "tau": 0.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="values"):
            read_json(path)

    def test_tau_recorded_exactly(self, mu1_state, tmp_path):
        tau = 4.71238898038469
        field = sample_grid(mu1_state, tau, GridSpec.square(2))
        path = tmp_path / "tau.json"
        write_json(field_snapshot(field, {}), path)
        assert read_json(path)["tau"] == tau


class TestSvg:
    def test_empty_trace_list_is_frame_only(self, tmp_path):
        path = tmp_path / "frame.svg"
        count = write_svg([], GridSpec.square(2), path)
        text = path.read_text()
        assert count == len(text.encode())
        assert 'viewBox="0 0 800 800"' in text
        assert "<rect" in text and "<path" not in text

    def test_unit_circle_bounding_box(self, tmp_path):
        grid = GridSpec.square(2)  # window [-1, 1]^2 maps to [0, 800]^2
        trace = ContourTrace(points=circle_points(0.0, 1.0, 512), closed=True)
        path = tmp_path / "circle.svg"
        write_svg([trace], grid, path)
        coords = re.findall(r"([-\d.]+) ([-\d.]+)", path.read_text().split('<path d="')[1])
        xs = np.array([float(a) for a, _ in coords])
        ys = np.array([float(b) for _, b in coords])
        for arr in (xs, ys):
            assert abs(arr.min() - 0.0) <= 1.0
            assert abs(arr.max() - 800.0) <= 1.0

    def test_affine_map_corners(self):
        g = GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 2)
        assert svg_map(-1.0, -1.0, g) == (0.0, 800.0)
        assert svg_map(1.0, 1.0, g) == (800.0, 0.0)
        assert svg_map(0.0, 0.0, g) == (400.0, 400.0)

    def test_geometry_matches_affine_map(self, tmp_path):
        grid = GridSpec.square(2)
        pts = np.array([0.25 + 0.5j, -0.75 - 0.125j])
        trace = ContourTrace(points=pts, closed=False)
        path = tmp_path / "seg.svg"
        write_svg([trace], grid, path)
        body = path.read_text().split('<path d="')[1].split('"')[0]
        numbers = [float(tok) for tok in re.findall(r"[-\d.]+", body)]
        for (x, y), sx, sy in zip(
            [(z.real, z.imag) for z in pts], numbers[0::2], numbers[1::2]
        ):
            ex, ey = svg_map(x, y, grid)
            assert abs(sx - ex) <= 1e-6
            assert abs(sy - ey) <= 1e-6

    def test_deterministic_bytes(self, mu1_state, tmp_path, params):
        trace = advect_contour(mu1_state, math.pi / 2, radius=0.5, n_points=128)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_svg([trace], GridSpec.square(2), p1, description="cfg")
        write_svg([trace], GridSpec.square(2), p2, description="cfg")
        assert p1.read_bytes() == p2.read_bytes()

    def test_description_escaped(self, tmp_path):
        path = tmp_path / "desc.svg"
        write_svg([], GridSpec.square(2), path, description='a<b&"c"')
        assert "<desc>a&lt;b&amp;\"c\"</desc>" in path.read_text()


class TestLevelSetMatchesAdvection:
    @pytest.mark.parametrize("tau", [math.pi / 2, 2 * math.pi])
    def test_levelset_within_two_cells_of_advected(self, mu1_state, params, tau):
        grid = GridSpec.square(256)
        field = sample_grid(mu1_state, tau / params.omega, grid)
        traces = extract_level_set(field, EXP_LEVEL)
        assert traces
        reference = advect_contour(
            mu1_state, tau / params.omega, radius=0.5, n_points=8192, refine=True
        ).points
        tol = 2.0 * grid.cell_size()[0]
        for trace in traces:
            gaps = np.abs(trace.points[:, None] - reference[None, :]).min(axis=1)
            assert gaps.max() <= tol
