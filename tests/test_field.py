"""Grid sampling, marching squares, and the CSV/JSON/SVG file contracts."""

import json
import math
import re
import tracemalloc
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwhorl.core import MU1, MU4, FrequencyProfile, FrequencySelector, OscillatorParams
from qwhorl import field as field_module
from qwhorl.field import (
    _SAMPLE_BLOCK,
    DistributionField,
    _format_decimal,
    _text_rows,
    GridSpec,
    extract_level_set,
    field_snapshot,
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
    evolved_distribution,
    initial_distribution,
)

from conftest import read_output

EXP_LEVEL = math.exp(-0.25)


def _fmt17(v) -> str:
    return format(float(v), ".17g")


def _reference_csv(obj) -> bytes:
    """CSV bytes formatted value by value, the writer's reference."""
    lines = []
    if isinstance(obj, DistributionField):
        lines.append("x,y,value")
        xs, ys = obj.grid.xs(), obj.grid.ys()
        for j in range(obj.grid.ny):
            for i in range(obj.grid.nx):
                lines.append(f"{_fmt17(xs[i])},{_fmt17(ys[j])},{_fmt17(obj.values[j, i])}")
    else:
        lines.append("x,y")
        for z in obj.points:
            lines.append(f"{_fmt17(z.real)},{_fmt17(z.imag)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_svg(traces, grid, description=None) -> bytes:
    """SVG bytes with every point mapped and formatted on its own."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 800">',
    ]
    if description:
        parts.append(f"<desc>{escape(description)}</desc>")
    parts.append('<rect x="0" y="0" width="800" height="800" fill="none" stroke="black" stroke-width="1"/>')
    for trace in traces:
        coords = []
        for z in trace.points:
            sx = 800.0 * (z.real - grid.xmin) / (grid.xmax - grid.xmin)
            sy = 800.0 * (grid.ymax - z.imag) / (grid.ymax - grid.ymin)
            coords.append(f"{sx:.6f} {sy:.6f}")
        d = "M " + " L ".join(coords) + (" Z" if trace.closed else "")
        parts.append(f'<path d="{d}" fill="none" stroke="black" stroke-width="1"/>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


# The tuple/dict marching squares that the array kernel replaced, kept as its
# reference: edges are ("h"|"v", i, j) keys, adjacency is a dict of lists.
_REF_CASE_EDGES = {
    1: [("left", "bottom")],
    2: [("bottom", "right")],
    3: [("left", "right")],
    4: [("right", "top")],
    6: [("bottom", "top")],
    7: [("left", "top")],
    8: [("top", "left")],
    9: [("top", "bottom")],
    11: [("top", "right")],
    12: [("right", "left")],
    13: [("bottom", "right")],
    14: [("left", "bottom")],
}


def _ref_edge_point(key, xs, ys, values, level):
    kind, i, j = key
    if kind == "h":
        va, vb = values[j, i], values[j, i + 1]
        frac = (level - va) / (vb - va)
        return complex(xs[i] + frac * (xs[i + 1] - xs[i]), ys[j])
    va, vb = values[j, i], values[j + 1, i]
    frac = (level - va) / (vb - va)
    return complex(xs[i], ys[j] + frac * (ys[j + 1] - ys[j]))


def _ref_cell_segments(case, center_above):
    if case in (0, 15):
        return []
    if case == 5:
        if center_above:
            return [("left", "top"), ("right", "bottom")]
        return [("left", "bottom"), ("right", "top")]
    if case == 10:
        if center_above:
            return [("bottom", "left"), ("top", "right")]
        return [("bottom", "right"), ("top", "left")]
    return _REF_CASE_EDGES[case]


def _reference_level_set(field, level):
    values = field.values
    xs, ys = field.grid.xs(), field.grid.ys()
    above = values > level
    edge_names = {
        "bottom": lambda i, j: ("h", i, j),
        "top": lambda i, j: ("h", i, j + 1),
        "left": lambda i, j: ("v", i, j),
        "right": lambda i, j: ("v", i + 1, j),
    }
    links = {}
    cases = above[:-1, :-1] * 1 + above[:-1, 1:] * 2 + above[1:, 1:] * 4 + above[1:, :-1] * 8
    for j, i in np.argwhere((cases != 0) & (cases != 15)).tolist():
        center_above = (
            values[j, i] + values[j, i + 1] + values[j + 1, i + 1] + values[j + 1, i]
        ) > 4.0 * level
        for ea, eb in _ref_cell_segments(int(cases[j, i]), center_above):
            ka = edge_names[ea](i, j)
            kb = edge_names[eb](i, j)
            links.setdefault(ka, []).append(kb)
            links.setdefault(kb, []).append(ka)
    traces = []
    visited = set()
    for start in links:
        if start in visited:
            continue
        chain = [start]
        visited.add(start)
        closed = False
        for nb in links[start]:
            cur, prev = nb, start
            while True:
                if cur == start:
                    closed = True
                    break
                if cur in visited:
                    break
                chain.append(cur)
                visited.add(cur)
                nxt = [k for k in links[cur] if k != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
            if closed:
                break
            chain.reverse()
        pts = [_ref_edge_point(k, xs, ys, values, level) for k in chain]
        deduped = [pts[0]]
        for z in pts[1:]:
            if z != deduped[-1]:
                deduped.append(z)
        if closed and len(deduped) > 1 and deduped[0] == deduped[-1]:
            deduped.pop()
        if closed and len(deduped) < 8:
            continue
        if len(deduped) < 2:
            continue
        traces.append(ContourTrace(points=np.array(deduped), closed=closed))
    return traces


def _assert_matches_reference(field, level):
    """The kernel's traces equal the reference's: count, flags and point bytes."""
    got = extract_level_set(field, level)
    want = _reference_level_set(field, level)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.closed == w.closed
        assert g.points.tobytes() == w.points.tobytes()
    return got


@pytest.fixture
def mu1_state(params):
    return GaussianState(complex(0.5), MU1, params)


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
        assert (g.xmax - g.xmin) / (g.nx - 1) == 2.0
        assert (g.ymax - g.ymin) / (g.ny - 1) == 2.0

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

    def test_deterministic(self, mu1_state):
        grid = GridSpec.square(64)
        a = sample_grid(mu1_state, 1.1, grid)
        b = sample_grid(mu1_state, 1.1, grid)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("tau", [0.3, 1.0, math.pi])
    def test_peak_captured_on_fine_grid(self, mu1_state, params, tau):
        field = sample_grid(mu1_state, tau / params.omega, GridSpec.square(512))
        assert 0.999 <= field.values.max() <= 1.0 + 1e-12

    # a node's value does not depend on its block, so any row split keeps the bits
    _SHAPES = [
        (2, 2), (33, 33), (127, 127), (128, 128), (129, 129), (130, 130),
        (257, 257),  # four blocks of 64 rows, then one of one row
        (516, 516),  # sixteen blocks of 32 rows, then one of four rows
        (700, 30),  # a block of 24 rows, then one of six rows
        (20000, 3), (16383, 2), (300, 301),
    ]

    @pytest.mark.parametrize("nx,ny", _SHAPES)
    @pytest.mark.parametrize(
        "profile",
        [MU1, MU4, FrequencyProfile(FrequencySelector.ANHARMONIC, chi=0.7)],
        ids=["mu1", "mu4", "anharmonic"],
    )
    def test_blocks_match_whole_grid_bits(self, params, profile, nx, ny):
        grid = GridSpec(-1.3, 1.1, -0.9, 1.2, nx, ny)
        state = GaussianState(0.3 + 0.2j, profile, params)
        whole = evolved_distribution(grid.mesh_complex(), state, 7.3)
        assert sample_grid(state, 7.3, grid).values.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("nx,ny", _SHAPES)
    def test_blocks_are_whole_rows_of_a_bounded_size(self, mu1_state, monkeypatch, nx, ny):
        sizes = []

        def recording(z, state, t):
            sizes.append(z.shape)
            return evolved_distribution(z, state, t)

        monkeypatch.setattr(field_module, "evolved_distribution", recording)
        sample_grid(mu1_state, 0.7, GridSpec(-1.0, 1.0, -1.0, 1.0, nx, ny))
        rows = -(-_SAMPLE_BLOCK // nx)
        assert all(cols == nx for _, cols in sizes)
        # every block but the last holds the full count of rows
        assert all(r == rows for r, _ in sizes[:-1]) and 1 <= sizes[-1][0] <= rows
        assert sum(r for r, _ in sizes) == ny

    def test_peak_memory_is_about_the_values(self, mu1_state):
        grid = GridSpec.square(512)
        tracemalloc.start()
        try:
            field = sample_grid(mu1_state, 0.7, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * field.values.nbytes, (peak, field.values.nbytes)

    def test_values_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            DistributionField(GridSpec.square(4), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="lie in"):
            DistributionField(GridSpec.square(2), np.full((2, 2), 1.5))
        with pytest.raises(ValueError, match="lie in"):
            DistributionField(GridSpec.square(2), np.array([[0.5, np.nan], [0.5, 0.5]]))


class TestExtractLevelSet:
    def test_constant_field_yields_nothing(self):
        field = DistributionField(GridSpec.square(16), np.full((16, 16), 0.3))
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
        cell = (grid.xmax - grid.xmin) / (grid.nx - 1)
        assert np.abs(radii - 0.5).max() <= cell
        centroid = trace.points.mean()
        assert abs(centroid - 0.5) <= cell

    def test_open_trace_reaches_boundary(self):
        # a left-right ramp crosses the window as a single open vertical line
        g = GridSpec.square(33)
        ramp = np.tile((g.xs() + 1.0) / 2.0, (33, 1))
        field = DistributionField(g, ramp)
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
        field = DistributionField(g, np.clip(vals, 0.0, 1.0))
        traces = extract_level_set(field, 0.5)
        assert len(traces) == 2
        assert all(t.closed for t in traces)

    def test_saddle_cell_resolved_consistently(self):
        # checkerboard corners force the ambiguous cases; traces must chain
        # without raising and stay within the cell bounds
        vals = np.array([[0.9, 0.1], [0.1, 0.9]])
        field = DistributionField(GridSpec.square(2), vals)
        traces = extract_level_set(field, 0.5)
        assert len(traces) == 2
        for t in traces:
            assert not t.closed
            assert np.all(np.abs(t.points.real) <= 1.0)
            assert np.all(np.abs(t.points.imag) <= 1.0)


_LAWS = ["undeformed", "mu1", "mu2", "mu3", "mu4", "anharmonic"]


def _crossed_edges(values, level) -> int:
    above = values > level
    return int((above[:, 1:] != above[:, :-1]).sum() + (above[1:, :] != above[:-1, :]).sum())


class TestLevelSetMatchesReference:
    @pytest.mark.parametrize("law", _LAWS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_evolved_fields(self, law, seed):
        rng = np.random.default_rng([seed, _LAWS.index(law)])
        nx, ny = (int(n) for n in rng.integers(2, 72, size=2))
        if seed == 0:
            nx, ny = 2 + _LAWS.index(law) % 2, 3  # grid 2-3
        half = float(rng.uniform(0.5, 2.0))
        grid = GridSpec(-half, half, -half * 0.8, half * 1.1, nx, ny)
        params = OscillatorParams(q=float(rng.uniform(0.1, 0.9)))
        profile = FrequencyProfile(FrequencySelector(law), chi=float(rng.uniform(0.2, 2.0)))
        center = complex(float(rng.uniform(-0.6, 0.6)), float(rng.uniform(-0.6, 0.6)))
        state = GaussianState(center, profile, params)
        tau = float(rng.uniform(0.0, 16.0 * math.pi))
        field = sample_grid(state, tau / params.omega, grid)
        for level in rng.uniform(0.05, 0.95, size=3):
            _assert_matches_reference(field, float(level))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3), (17, 40), (40, 17)])
    def test_random_noise_fields(self, shape):
        # uniform noise crosses most cells, saddles included
        rng = np.random.default_rng(list(shape))
        ny, nx = shape
        field = DistributionField(GridSpec(-1.0, 2.0, -0.5, 0.5, nx, ny), rng.uniform(size=shape))
        for level in (0.2, 0.5, 0.77):
            _assert_matches_reference(field, level)

    @pytest.mark.parametrize(
        "corners",
        [
            # case 5 (corners 0 and 2 above), center above then below 0.5
            [[0.9, 0.2], [0.3, 0.9]],
            [[0.6, 0.1], [0.2, 0.6]],
            # case 10 (corners 1 and 3 above), center above then below 0.5
            [[0.2, 0.9], [0.9, 0.3]],
            [[0.1, 0.6], [0.6, 0.2]],
            # case 5 with corner sums that fall on the other side of 4 * level
            # when added in another order: above, then below
            [[0.6057846724349851, 0.4151022309110887], [0.09446851293383107, 0.8846445837200954]],
            [[0.822936590562509, 0.06638940957447788], [0.4162486500456588, 0.6944253498173546]],
        ],
    )
    def test_saddle_cells(self, corners):
        vals = np.array(corners)
        field = DistributionField(GridSpec.square(2), vals)
        traces = _assert_matches_reference(field, 0.5)
        assert len(traces) == 2
        # the same saddle in the middle of a 4x4 block of lows and highs
        big = np.kron(vals, np.ones((2, 2)))
        _assert_matches_reference(DistributionField(GridSpec.square(4), big), 0.5)

    def test_level_on_node_values_merges_repeats(self):
        # values on a 1/8 lattice: crossings at nodes repeat and are merged
        rng = np.random.default_rng(5)
        vals = rng.integers(0, 9, size=(24, 31)) / 8.0
        field = DistributionField(GridSpec(-1.0, 1.0, -1.0, 1.0, 31, 24), vals)
        for level in (0.25, 0.5, 0.625):
            traces = _assert_matches_reference(field, level)
            assert sum(len(t) for t in traces) < _crossed_edges(vals, level)

    def test_short_closed_loop_dropped(self):
        # one raised node closes a 4-vertex diamond, below grid resolution;
        # the broad blob's loop is kept
        g = GridSpec.square(40)
        mesh = g.mesh_complex()
        vals = np.exp(-np.abs(mesh + 0.4) ** 2 / 0.05)
        vals[30, 30] = 0.9
        field = DistributionField(g, vals)
        traces = _assert_matches_reference(field, 0.5)
        assert len(traces) == 1 and traces[0].closed
        assert abs(traces[0].points.mean() + 0.4) < 0.1


class TestCsv:
    def test_field_round_trip_bit_exact(self, mu1_state, tmp_path):
        field = sample_grid(mu1_state, 0.7, GridSpec.square(8))
        path = tmp_path / "field.csv"
        count = write_csv(field, path)
        assert count == path.stat().st_size
        cols = read_output(path)
        assert list(cols) == ["x", "y", "value"]
        assert np.array_equal(cols["value"], field.values.ravel())
        xs = field.grid.xs()
        assert np.array_equal(cols["x"][:8], xs)

    def test_trace_round_trip(self, tmp_path):
        trace = ContourTrace(points=circle_points(0.5, 0.5, 16), closed=True)
        path = tmp_path / "trace.csv"
        write_csv(trace, path)
        cols = read_output(path)
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
        assert not (tmp_path / "x.csv").exists()

    def test_named_columns(self, tmp_path):
        path = tmp_path / "table.csv"
        columns = {"s": np.array([0.0, 0.5]), "omega_ratio": np.array([1.0, 1.0 / 3.0])}
        assert write_csv(columns, path) == path.stat().st_size
        assert path.read_bytes() == b"s,omega_ratio\n0,1\n0.5,0.33333333333333331\n"
        assert {k: list(v) for k, v in read_output(path).items()} == {k: list(v) for k, v in columns.items()}

    @pytest.mark.parametrize(
        "columns",
        [{"a": np.zeros(3), "b": np.zeros(1)}, {"a": np.zeros((2, 2))}, {"a": np.array(1.0)}],
    )
    def test_columns_of_unequal_shape_rejected(self, tmp_path, columns):
        with pytest.raises(ValueError, match="one length"):
            write_csv(columns, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()


class TestCsvMatchesReference:
    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec(-1.3, 0.7, -0.4, 2.1, 7, 4),  # nx != ny
            GridSpec(-2.0, 2.5, -1.0, 1.0, 3, 9),
            GridSpec.square(5),  # odd n: both axes hold an exact 0.0
            GridSpec.square(2),
            GridSpec(-1.3, 0.7, -0.4, 2.1, 600, 3),  # a block of two rows, then one
        ],
    )
    def test_field_bytes(self, mu1_state, tmp_path, grid):
        field = sample_grid(mu1_state, 0.7, grid)
        path = tmp_path / "field.csv"
        assert write_csv(field, path) == path.stat().st_size
        assert path.read_bytes() == _reference_csv(field)

    def test_odd_grid_axis_holds_exact_zero(self):
        assert 0.0 in GridSpec.square(5).xs().tolist()

    def test_extreme_values(self, tmp_path, rng):
        grid = GridSpec(-1.0, 1.0, -3.0, 3.0, 6, 5)
        values = rng.random((5, 6))
        values.flat[:6] = [0.0, 1.0, 5e-324, 1e-300, 0.1, 1.0 - 2.0**-53]
        field = DistributionField(grid, values)
        path = tmp_path / "field.csv"
        write_csv(field, path)
        assert path.read_bytes() == _reference_csv(field)

    @pytest.mark.parametrize(
        "trace",
        [
            ContourTrace(points=np.array([], dtype=complex), closed=False),
            ContourTrace(points=circle_points(0.5 - 0.25j, 0.5, 33), closed=True),
            ContourTrace(points=np.array([0.0 + 0.0j, -0.0 - 1e-300j, 1.0 / 3.0 + 2.0j]), closed=False),
        ],
        ids=["empty", "closed", "open"],
    )
    def test_trace_bytes(self, tmp_path, trace):
        path = tmp_path / "trace.csv"
        assert write_csv(trace, path) == path.stat().st_size
        assert path.read_bytes() == _reference_csv(trace)

    def test_field_is_streamed(self, mu1_state, tmp_path):
        # the traced peak stays a small fraction of the text written
        field = sample_grid(mu1_state, 0.7, GridSpec.square(256))
        tracemalloc.start()
        try:
            count = write_csv(field, tmp_path / "field.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count > 3_000_000
        assert peak < count / 8, (peak, count)


def _assert_formats_as_python(values, spec):
    """The kernel's text of each value, one line each, is format(v, spec)."""
    text = _text_rows((values.size,), _format_decimal(values, spec), b"\n")
    if text != "".join([format(v, spec) + "\n" for v in values.tolist()]).encode():
        lines = text.split(b"\n")
        assert len(lines) == values.size + 1
        for v, line in zip(values.tolist(), lines):
            assert (v, line) == (v, format(v, spec).encode())


def _neighbours(values):
    """values and the doubles one ulp either side of them."""
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


@pytest.mark.filterwarnings("error")
class TestFormatDecimal:
    """The array kernel writes exactly format(v, ".6f"), format(v, ".17g")
    and format(v, ""), which is repr(v), without a RuntimeWarning."""

    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64),
        spec=st.sampled_from([".6f", ".17g", ""]),
    )
    @settings(max_examples=450, deadline=None, derandomize=True)
    def test_any_finite_doubles(self, values, spec):
        _assert_formats_as_python(np.array(values), spec)

    @pytest.mark.parametrize("spec", [".6f", ".17g", ""])
    def test_edge_values(self, spec):
        values = _neighbours(np.array([
            0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 5e-7, 1.5e-6, 1e-4,
            0.5, 1.0, 2.0**52 / 1e6, 2.0**53, 1e15, 1e16, 1e17, 1e300, 1.7976931348623157e308,
        ]))
        values = np.concatenate([values, -values, [np.nan, np.inf, -np.inf]])
        _assert_formats_as_python(values, spec)

    def test_million_values(self):
        # exact ".6f" ties are odd multiples of 2**-7, exact ".17g" ties are
        # 1 + odd * 2**-17; each with its neighbours, the powers of ten from
        # 1e-5 to 1e17 one ulp either side, and doubles of every magnitude
        rng = np.random.default_rng(20261018)
        ties_6f = (2 * rng.integers(0, 2**45, 80_000) + 1) * 2.0**-7
        ties_17g = 1.0 + (2 * rng.integers(0, 2**16, 80_000) + 1) * 2.0**-17
        powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
        bits = rng.integers(0, 2**63, 100_000, dtype=np.uint64).view(np.float64)
        spread = rng.random(150_000) * 10.0 ** rng.integers(-8, 19, 150_000)
        values = np.concatenate([
            _neighbours(ties_6f), -ties_6f, _neighbours(ties_17g), -ties_17g, _neighbours(powers),
            bits[np.isfinite(bits)], spread, rng.uniform(-800.0, 1600.0, 120_000),
        ])
        assert values.size >= 10**6
        for spec in (".6f", ".17g"):
            _assert_formats_as_python(values, spec)

    def test_million_values_repr(self):
        rng = np.random.default_rng(20261019)
        e10 = rng.integers(-4, 16, 300_000)
        # decimals of exactly 15, 16 and 17 digits (read by float(), so each
        # is the double nearest its text) and the doubles one ulp either
        # side; 16-digit ones from 9007199254740992 up do not fit in 2**53
        decimals = [
            float(f"{d}e{e - digits + 1}")
            for digits, low in ((15, 10**14), (16, 10**15), (16, 2**53), (17, 10**16))
            for d, e in zip(rng.integers(low, 10**digits, 30_000).tolist(), e10.tolist())
        ]
        # dyadic values odd * 2**-s hold ties at every digit count; among
        # j * 2**-16 in [8, 10) both 16-digit neighbours read back
        dyadic = (2 * rng.integers(0, 2**52, 100_000) + 1) * 2.0 ** -rng.integers(1, 64, 100_000)
        ties_16 = (2 * rng.integers(2**18, 327_680, 20_000) + 1) * 2.0**-16
        # decimal exponent 14 and 15, where the 15-digit scale 10**(14 - E)
        # is 10**0 or 10**-1
        high = rng.uniform(1e14, 1e16, 60_000)
        halves = np.floor(rng.uniform(1e15, 2.0**52, 20_000)) + 0.5
        integral = np.concatenate([[0.0, 1.0, 123456.0], np.floor(rng.uniform(1.0, 2.0**53, 20_000))])
        powers = 2.0 ** np.arange(-30, 50)
        edges = np.array([1e-4, 1e16, 2.0**53, 1e14, 1e15])
        around_edges = np.concatenate([
            np.nextafter(edges, np.inf) + k * np.spacing(edges) for k in range(-4, 4)
        ])
        subnormal = rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64)
        bits = rng.integers(0, 2**63, 100_000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([
            _neighbours(np.array(decimals)), dyadic, _neighbours(ties_16), high, halves, integral,
            _neighbours(powers), around_edges, subnormal, bits[np.isfinite(bits)],
            rng.random(80_000), np.exp(-9.0 * rng.random(80_000)),
        ])
        values = np.concatenate([values, -values, [-0.0]])
        assert values.size >= 10**6
        _assert_formats_as_python(values, "")

    def test_rows_follow_any_leading_shape(self):
        values = np.array([[0.25, -3.0], [1e-5, 7.0]])
        rows = _text_rows((2, 2), _format_decimal(values, ".17g").reshape(2, 2, -1), b";")
        assert rows == b"0.25;-3;1.0000000000000001e-05;7;"

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="spec"):
            _format_decimal(np.array([1.0]), ".5f")


def _reference_json(snapshot) -> bytes:
    """JSON bytes of a snapshot with its values as a list of Python floats."""
    snapshot = {**snapshot, "values": snapshot["values"].tolist()}
    return (json.dumps(snapshot, sort_keys=True, separators=(",", ":")) + "\n").encode()


class TestJson:
    def test_snapshot_round_trip(self, mu1_state, tmp_path):
        # most values of the wide window lie below 1e-4 (exponent form)
        field = sample_grid(mu1_state, math.pi, GridSpec(-6.0, 6.0, -6.0, 6.0, 65, 65))
        snap = field_snapshot(field, math.pi, {"profile": "mu1", "q": 0.5})
        path = tmp_path / "snap.json"
        count = write_json(snap, path)
        assert count == path.stat().st_size
        loaded = read_output(path)
        assert sorted(loaded) == ["config", "grid", "tau", "values"]
        assert loaded["config"] == snap["config"]
        assert np.array(loaded["values"]).tobytes() == field.values.tobytes()
        assert loaded["tau"] == math.pi
        assert GridSpec(**loaded["grid"]) == field.grid

    def test_snapshot_values_are_the_field_array(self, mu1_state):
        field = sample_grid(mu1_state, 0.3, GridSpec(-1.0, 1.0, -2.0, 2.0, 5, 3))
        values = field_snapshot(field, 0.3, {})["values"]
        assert values.dtype == np.float64 and values.shape == (15,)
        assert np.shares_memory(values, field.values)
        assert values.tobytes() == field.values.tobytes()

    @pytest.mark.parametrize("size", [1, 4, 8192, 8193, 20_000])
    def test_values_bytes_match_json_dumps(self, tmp_path, rng, size):
        values = rng.random(size) ** 9
        values[: min(size, 9)] = [0.5, 0.1, 0.0, 1.0, 5e-324, 1e-5, 2.5e-4, 1.0 - 2.0**-53, 0.3][:size]
        snap = {"config": {"k": [1, "x"]}, "grid": {"nx": size}, "tau": 0.1, "values": values}
        path = tmp_path / "v.json"
        assert write_json(snap, path) == path.stat().st_size
        assert path.read_bytes() == _reference_json(snap)

    def test_values_alone(self, tmp_path):
        snap = {"values": np.array([0.25, 1e-7, 3.0])}
        write_json(snap, tmp_path / "v.json")
        assert (tmp_path / "v.json").read_bytes() == b'{"values":[0.25,1e-07,3.0]}\n'

    def test_key_after_values_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="zeta"):
            write_json({"values": np.zeros(2), "zeta": 1}, tmp_path / "v.json")

    def test_snapshot_is_streamed(self, mu1_state, tmp_path):
        # the traced peak stays below half the text written; a list of
        # Python floats alone would take more than the text
        field = sample_grid(mu1_state, 0.7, GridSpec.square(512))
        snap = field_snapshot(field, 0.7, {})
        tracemalloc.start()
        try:
            count = write_json(snap, tmp_path / "snap.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count > 4_000_000
        assert peak < count / 2, (peak, count)

    def test_reserialization_identical(self, mu1_state, tmp_path):
        field = sample_grid(mu1_state, 0.25, GridSpec.square(2))
        snap = field_snapshot(field, 0.25, {"k": 1})
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(snap, p1)
        write_json(read_output(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tau_recorded_exactly(self, mu1_state, tmp_path):
        tau = 4.71238898038469
        field = sample_grid(mu1_state, tau, GridSpec.square(2))
        path = tmp_path / "tau.json"
        write_json(field_snapshot(field, tau, {}), path)
        assert read_output(path)["tau"] == tau


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

    @pytest.mark.parametrize("description", [None, 'cfg <"q": 0.5> & \'more\''])
    def test_multi_trace_bytes_match_reference(self, mu1_state, tmp_path, description):
        grid = GridSpec(-1.5, 1.25, -0.75, 1.75, 64, 48)
        traces = extract_level_set(sample_grid(mu1_state, math.pi, grid), 0.3)
        traces += [
            advect_contour(mu1_state, 2 * math.pi, radius=0.5, n_points=256, refine=True),
            ContourTrace(points=np.array([], dtype=complex), closed=False),
            ContourTrace(points=np.array([-1.5 + 1.75j, 0.0 + 0.0j, 3.0 - 2.0j]), closed=False),
        ]
        path = tmp_path / "multi.svg"
        assert write_svg(traces, grid, path, description=description) == path.stat().st_size
        assert path.read_bytes() == _reference_svg(traces, grid, description)

    def test_affine_map_of_arrays_matches_scalars(self):
        grid = GridSpec(-1.5, 1.25, -0.75, 1.75, 2, 2)
        xs = np.array([-1.5, 0.1, 1.0 / 3.0, 1.25])
        ys = np.array([1.75, -0.2, 2.0 / 3.0, -0.75])
        sx, sy = svg_map(xs, ys, grid)
        for x, y, ax, ay in zip(xs.tolist(), ys.tolist(), sx.tolist(), sy.tolist()):
            assert svg_map(x, y, grid) == (ax, ay)

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
        tol = 2.0 * ((grid.xmax - grid.xmin) / (grid.nx - 1))
        for trace in traces:
            gaps = np.abs(trace.points[:, None] - reference[None, :]).min(axis=1)
            assert gaps.max() <= tol
