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

from .liouville import (
    ContourTrace,
    GaussianState,
    evolved_distribution,
    require_finite_frequency,
)

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
    mesh = grid.mesh_complex()
    with np.errstate(over="ignore", invalid="ignore"):  # DistributionField rejects NaN
        values = evolved_distribution(mesh, state, t)
    if np.isnan(values).any():
        require_finite_frequency(mesh, state)
    return DistributionField(grid=grid, values=values, tau=state.params.omega * t)


# --- marching squares ------------------------------------------------------
#
# The 2-D case of Lorensen & Cline, "Marching cubes", SIGGRAPH 1987.
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
# 10, disambiguated by the cell-center average).  The table _SEGMENTS maps
# (case, center_above) to those segments as (edge, edge) pairs of cell sides,
# so one lookup serves every crossed cell.  Edges are integer ids: the
# horizontal edge (h, i, j) is j*(nx-1) + i, and the vertical edges follow
# all ny*(nx-1) horizontal ones, (v, i, j) at ny*(nx-1) + j*nx + i.  A shared
# edge has one id, so chaining segment endpoints stitches exact polylines;
# only that walk is a Python loop, over ints.

_BOTTOM, _RIGHT, _TOP, _LEFT = range(4)


def _segment_table() -> np.ndarray:
    """(case, center_above) -> up to two (edge, edge) segments; -1 pads a slot."""
    table = np.full((16, 2, 2, 2), -1, dtype=np.intp)
    for case, pair in {
        1: (_LEFT, _BOTTOM),
        2: (_BOTTOM, _RIGHT),
        3: (_LEFT, _RIGHT),
        4: (_RIGHT, _TOP),
        6: (_BOTTOM, _TOP),
        7: (_LEFT, _TOP),
        8: (_TOP, _LEFT),
        9: (_TOP, _BOTTOM),
        11: (_TOP, _RIGHT),
        12: (_RIGHT, _LEFT),
        13: (_BOTTOM, _RIGHT),
        14: (_LEFT, _BOTTOM),
    }.items():
        table[case, :, 0] = pair
    # saddles: corners 0 and 2 (case 5) or 1 and 3 (case 10) above, split
    # per center value
    table[5, 1] = [(_LEFT, _TOP), (_RIGHT, _BOTTOM)]
    table[5, 0] = [(_LEFT, _BOTTOM), (_RIGHT, _TOP)]
    table[10, 1] = [(_BOTTOM, _LEFT), (_TOP, _RIGHT)]
    table[10, 0] = [(_BOTTOM, _RIGHT), (_TOP, _LEFT)]
    return table


_SEGMENTS = _segment_table()


def _segments(values, level):
    """Segment endpoint edge ids, shape (S, 2), in cell order (j outer, i inner)."""
    ny, nx = values.shape
    above = (values > level).view(np.uint8)
    cases = above[:-1, :-1] | above[:-1, 1:] << 1 | above[1:, 1:] << 2 | above[1:, :-1] << 3
    j, i = np.nonzero((cases != 0) & (cases != 15))
    center_above = (
        values[j, i] + values[j, i + 1] + values[j + 1, i + 1] + values[j + 1, i]
    ) > 4.0 * level
    bottom = j * (nx - 1) + i
    left = ny * (nx - 1) + j * nx + i
    # a cell's four edges in _BOTTOM, _RIGHT, _TOP, _LEFT order
    cell_edges = np.stack([bottom, left + 1, bottom + (nx - 1), left], axis=1)
    sides = _SEGMENTS[cases[j, i], center_above.astype(np.intp)]  # (C, slot, end)
    # a padded slot indexes the last edge and is masked out after the lookup
    segs = cell_edges[np.arange(j.size)[:, None, None], sides]
    return segs[sides[:, :, 0] >= 0]


def _edge_crossings(edges, xs, ys, values, level):
    """Linear-interpolation crossing points of the level on edge ids."""
    ny, nx = values.shape
    n_h = ny * (nx - 1)
    h = edges < n_h
    v_ids = edges - n_h
    j = np.where(h, edges // (nx - 1), v_ids // nx)
    i = np.where(h, edges % (nx - 1), v_ids % nx)
    j_b = np.where(h, j, j + 1)
    i_b = np.where(h, i + 1, i)
    va, vb = values[j, i], values[j_b, i_b]
    frac = (level - va) / (vb - va)
    # one crossing formula per axis; the other coordinate stays on the node
    x = np.where(h, xs[i] + frac * (xs[i_b] - xs[i]), xs[i])
    y = np.where(h, ys[j], ys[j] + frac * (ys[j_b] - ys[j]))
    pts = np.empty(edges.size, dtype=complex)
    pts.real, pts.imag = x, y
    return pts


def _chains(segs):
    """Walk the segment graph into chains of node indices.

    Nodes are the crossed edges, indexed in ascending edge id; chains start
    at nodes in order of first appearance among the segment ends.  Each node
    links at most two segments: an open chain is walked from its start one
    way, reversed, then extended the other way and reversed again.  Returns
    the flat walk, each chain's start offset in it, each chain's closed flag,
    and the edge id of every node.
    """
    edges, node = np.unique(segs, return_inverse=True)
    node = node.reshape(-1)
    other = node.reshape(-1, 2)[:, ::-1].ravel()
    # each node's links in the order segments were added; -1 marks no link
    count = np.bincount(node, minlength=edges.size)
    head = np.cumsum(count) - count
    links = np.append(other[np.argsort(node, kind="stable")], -1)
    link0 = links[head].tolist()
    link1 = np.where(count > 1, links[head + 1], -1).tolist()

    walk, starts, closed_flags = [], [], []
    visited = bytearray(edges.size)
    for start in node.tolist():
        if visited[start]:
            continue
        chain = [start]
        visited[start] = 1
        closed = False
        for nb in (link0[start], link1[start]):
            if nb < 0:
                continue
            cur, prev = nb, start
            while True:
                if cur == start:
                    closed = True
                    break
                if visited[cur]:
                    break
                chain.append(cur)
                visited[cur] = 1
                nxt = link0[cur] if link0[cur] != prev else link1[cur]
                if nxt < 0:
                    break
                prev, cur = cur, nxt
            if closed:
                break
            chain.reverse()
        starts.append(len(walk))
        walk += chain
        closed_flags.append(closed)
    return np.array(walk), np.array(starts), np.array(closed_flags), edges


def extract_level_set(field: DistributionField, level: float) -> list[ContourTrace]:
    """Marching-squares iso-contours of the sampled field at the given level.

    Returns ordered polylines with linear interpolation along cell edges;
    saddle cells are resolved by the cell-center average.  Repeated
    consecutive points are merged, and closed loops with fewer than 8
    vertices (below grid resolution) are discarded, as are chains of fewer
    than 2.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    values = field.values
    segs = _segments(values, level)
    if not segs.size:
        return []
    walk, starts, closed, edges = _chains(segs)
    pts = _edge_crossings(edges, field.grid.xs(), field.grid.ys(), values, level)[walk]

    keep = np.ones(walk.size, dtype=bool)
    keep[1:] = pts[1:] != pts[:-1]
    keep[starts] = True
    # a closed chain that returns onto its first point drops the repeat
    kept_at = np.maximum.accumulate(np.where(keep, np.arange(walk.size), 0))
    last = kept_at[np.append(starts[1:], walk.size) - 1]
    count = np.add.reduceat(keep, starts, dtype=np.intp)
    repeat = closed & (count > 1) & (pts[starts] == pts[last])
    keep[last[repeat]] = False
    count -= repeat
    emit = np.where(closed, count >= 8, count >= 2)

    pieces = np.split(pts[keep], np.cumsum(count)[:-1])
    return [
        ContourTrace(points=piece, closed=bool(c), tau=field.tau)
        for piece, c, e in zip(pieces, closed.tolist(), emit.tolist())
        if e
    ]


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
