"""Grid sampling, level-set extraction, and deterministic file emitters.

The writers are the repo's stable file contracts: CSV with 17-significant-
digit decimals (`x,y,value` for fields, streamed to the file row by row;
`x,y` for traces), a single-document JSON snapshot ({config, tau, grid,
values}), and an 800x800-viewBox SVG with a flipped y axis.  All output is
a pure function of the inputs - no timestamps, no environment leakage - so
reruns are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .liouville import ContourTrace, GaussianState, evolved_distribution

SVG_VIEW = 800.0


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling window in the (Re alpha, Im alpha) plane."""

    xmin: float = -1.0
    xmax: float = 1.0
    ymin: float = -1.0
    ymax: float = 1.0
    nx: int = 256
    ny: int = 256

    def __post_init__(self):
        if not self.xmax > self.xmin:
            raise ValueError(f"xmax must exceed xmin, got [{self.xmin}, {self.xmax}]")
        if not self.ymax > self.ymin:
            raise ValueError(f"ymax must exceed ymin, got [{self.ymin}, {self.ymax}]")
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid needs nx, ny >= 2, got {self.nx}x{self.ny}")

    @classmethod
    def square(cls, n: int, extent: float = 1.0) -> "GridSpec":
        return cls(-extent, extent, -extent, extent, n, n)

    def xs(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.ymin, self.ymax, self.ny)

    def cell_size(self) -> tuple[float, float]:
        return (
            (self.xmax - self.xmin) / (self.nx - 1),
            (self.ymax - self.ymin) / (self.ny - 1),
        )

    def mesh_complex(self) -> np.ndarray:
        """Complex sample points, shape (ny, nx): row j holds y = ys()[j]."""
        xg, yg = np.meshgrid(self.xs(), self.ys())
        return xg + 1j * yg


@dataclass(frozen=True)
class DistributionField:
    """Probability values sampled on a grid at dimensionless time tau."""

    grid: GridSpec
    values: np.ndarray
    tau: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"values shape {vals.shape} does not match grid {self.grid.ny}x{self.grid.nx}"
            )
        # min/max propagate NaN, and NaN fails both comparisons
        if not (vals.min() >= 0.0 and vals.max() <= 1.0):
            raise ValueError("probability values must lie in [0, 1]")


def sample_grid(state: GaussianState, t: float, grid: GridSpec) -> DistributionField:
    """Evaluate the evolved distribution on every grid node (row-major, y outer)."""
    with np.errstate(over="ignore", invalid="ignore"):  # DistributionField rejects NaN
        values = evolved_distribution(grid.mesh_complex(), state, t)
    return DistributionField(grid=grid, values=values, tau=state.params.omega * t)


# --- marching squares ------------------------------------------------------
#
# Cell corners and edges, with i indexing x and j indexing y:
#
#       top (h, i, j+1)
#     3 ---------- 2
#     |            |   left  (v, i, j)
#     |            |   right (v, i+1, j)
#     0 ---------- 1
#      bottom (h, i, j)
#
# Corner bit c is set when values > level.  Each crossed cell contributes one
# segment joining two edge crossings (two segments for the saddle cases 5 and
# 10, disambiguated by the cell-center average).  Shared edges interpolate to
# identical points, so chaining segment endpoints stitches exact polylines.

_CASE_EDGES = {
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


def _edge_point(key, xs, ys, values, level):
    kind, i, j = key
    if kind == "h":
        va, vb = values[j, i], values[j, i + 1]
        frac = (level - va) / (vb - va)
        return complex(xs[i] + frac * (xs[i + 1] - xs[i]), ys[j])
    va, vb = values[j, i], values[j + 1, i]
    frac = (level - va) / (vb - va)
    return complex(xs[i], ys[j] + frac * (ys[j + 1] - ys[j]))


def _cell_segments(case, center_above):
    if case in (0, 15):
        return []
    if case == 5:
        # corners 0 and 2 above: split per center value
        if center_above:
            return [("left", "top"), ("right", "bottom")]
        return [("left", "bottom"), ("right", "top")]
    if case == 10:
        if center_above:
            return [("bottom", "left"), ("top", "right")]
        return [("bottom", "right"), ("top", "left")]
    return _CASE_EDGES[case]


def extract_level_set(field: DistributionField, level: float) -> list[ContourTrace]:
    """Marching-squares iso-contours of the sampled field at the given level.

    Returns ordered polylines with linear interpolation along cell edges;
    saddle cells are resolved by the cell-center average.  Closed loops with
    fewer than 8 vertices (below grid resolution) are discarded.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    values = field.values
    xs, ys = field.grid.xs(), field.grid.ys()
    above = values > level

    edge_names = {
        "bottom": lambda i, j: ("h", i, j),
        "top": lambda i, j: ("h", i, j + 1),
        "left": lambda i, j: ("v", i, j),
        "right": lambda i, j: ("v", i + 1, j),
    }

    # adjacency over edge keys; each key joins at most two segments
    links: dict[tuple, list[tuple]] = {}
    cases = (
        above[:-1, :-1] * 1
        + above[:-1, 1:] * 2
        + above[1:, 1:] * 4
        + above[1:, :-1] * 8
    )
    for j, i in np.argwhere((cases != 0) & (cases != 15)).tolist():
        case = int(cases[j, i])
        center_above = (
            values[j, i] + values[j, i + 1] + values[j + 1, i + 1] + values[j + 1, i]
        ) > 4.0 * level
        for ea, eb in _cell_segments(case, center_above):
            ka = edge_names[ea](i, j)
            kb = edge_names[eb](i, j)
            links.setdefault(ka, []).append(kb)
            links.setdefault(kb, []).append(ka)

    traces = []
    visited = set()
    for start in links:
        if start in visited:
            continue
        # rewind to a free end if the chain is open
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
        pts = [_edge_point(k, xs, ys, values, level) for k in chain]
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
        traces.append(ContourTrace(points=np.array(deduped), closed=closed, tau=field.tau))
    return traces


# --- emitters ---------------------------------------------------------------


def _write_bytes(destination, text: str) -> int:
    data = text.encode("utf-8")
    Path(destination).write_bytes(data)
    return len(data)


def _field_csv_rows(field: DistributionField):
    """The CSV text of a field: the header, then one item per grid row."""
    xs = [f"{x:.17g}" for x in field.grid.xs().tolist()]
    ys = [f"{y:.17g}" for y in field.grid.ys().tolist()]
    yield "x,y,value\n"
    for y, row in zip(ys, field.values):
        yield "".join([f"{x},{y},{v:.17g}\n" for x, v in zip(xs, row.tolist())])


def write_csv(obj, destination) -> int:
    """Write a field (`x,y,value`) or trace (`x,y`) as round-trippable CSV.

    Returns the byte count written.  Every value is printed with 17
    significant digits so re-parsing reproduces the doubles bit-exactly.
    A field is streamed one grid row at a time, each axis formatted once,
    so the text of the whole file is never held in memory.
    """
    if isinstance(obj, DistributionField):
        rows = _field_csv_rows(obj)
    elif isinstance(obj, ContourTrace):
        xy = zip(obj.points.real.tolist(), obj.points.imag.tolist())
        rows = ["x,y\n", "".join([f"{x:.17g},{y:.17g}\n" for x, y in xy])]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} as CSV")
    with open(destination, "wb") as out:
        return sum(out.write(row.encode("utf-8")) for row in rows)


def read_csv(path) -> dict[str, np.ndarray]:
    """Parse a CSV written by write_csv back into named columns."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    names = lines[0].split(",")
    cols = [[] for _ in names]
    for ln in lines[1:]:
        for col, tok in zip(cols, ln.split(",")):
            col.append(float(tok))
    return {name: np.array(col) for name, col in zip(names, cols)}


def field_snapshot(field: DistributionField, config: dict) -> dict:
    """Single-document snapshot of a sampled field plus its provenance."""
    g = field.grid
    return {
        "config": config,
        "tau": field.tau,
        "grid": {
            "nx": g.nx,
            "ny": g.ny,
            "xmin": g.xmin,
            "xmax": g.xmax,
            "ymin": g.ymin,
            "ymax": g.ymax,
        },
        "values": field.values.ravel().tolist(),
    }


def write_json(snapshot: dict, destination) -> int:
    """Serialize a snapshot dict deterministically; returns the byte count."""
    return _write_bytes(
        destination, json.dumps(snapshot, sort_keys=True, separators=(",", ":")) + "\n"
    )


def read_json(path) -> dict:
    """Load a snapshot and validate the values-vs-grid size contract."""
    snap = json.loads(Path(path).read_text(encoding="utf-8"))
    grid = snap.get("grid", {})
    expect = int(grid.get("nx", 0)) * int(grid.get("ny", 0))
    if len(snap.get("values", [])) != expect:
        raise ValueError(
            f"snapshot has {len(snap.get('values', []))} values, grid implies {expect}"
        )
    return snap


def field_from_snapshot(snap: dict) -> DistributionField:
    """Rebuild the sampled field of a snapshot dict."""
    g = snap["grid"]
    grid = GridSpec(g["xmin"], g["xmax"], g["ymin"], g["ymax"], g["nx"], g["ny"])
    values = np.array(snap["values"], dtype=float).reshape(grid.ny, grid.nx)
    return DistributionField(grid=grid, values=values, tau=float(snap["tau"]))


def svg_map(x, y, grid: GridSpec):
    """Affine map of phase-plane points into the SVG viewBox (y flipped).

    Takes floats or equal-shape arrays; each element rounds as the scalar
    map does.
    """
    sx = SVG_VIEW * (x - grid.xmin) / (grid.xmax - grid.xmin)
    sy = SVG_VIEW * (grid.ymax - y) / (grid.ymax - grid.ymin)
    return sx, sy


def write_svg(traces, grid: GridSpec, destination, description: str | None = None) -> int:
    """Render traces as stroked paths in an 800x800 viewBox with a frame.

    Coordinates are printed with six decimals (5e-7 of a view unit), no
    fill, stroke width 1; the output carries no timestamps so identical
    inputs yield byte-identical files.
    """
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_VIEW:g} {SVG_VIEW:g}">',
    ]
    if description:
        parts.append(f"<desc>{escape(description)}</desc>")
    parts.append(
        f'<rect x="0" y="0" width="{SVG_VIEW:g}" height="{SVG_VIEW:g}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for trace in traces:
        sx, sy = svg_map(trace.points.real, trace.points.imag, grid)
        d = "M " + " L ".join([f"{x:.6f} {y:.6f}" for x, y in zip(sx.tolist(), sy.tolist())])
        if trace.closed:
            d += " Z"
        parts.append(f'<path d="{d}" fill="none" stroke="black" stroke-width="1"/>')
    parts.append("</svg>")
    return _write_bytes(destination, "\n".join(parts) + "\n")
