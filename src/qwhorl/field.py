"""Grid sampling, level-set extraction, and deterministic file emitters.

The writers are the repo's stable file contracts: CSV with 17-significant-
digit decimals (`x,y,value` for fields, streamed to the file row by row;
`x,y` for traces), a single-document JSON snapshot ({config, tau, grid,
values}, each value exactly repr(v), streamed in blocks), and an
800x800-viewBox SVG with a flipped y axis.  One array kernel formats every
number of the three.  All output is a pure function of the inputs - no
timestamps, no environment leakage - so reruns are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from html import escape

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
    def square(cls, n: int) -> "GridSpec":
        return cls(-1.0, 1.0, -1.0, 1.0, n, n)

    def xs(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.ymin, self.ymax, self.ny)

    def mesh_complex(self) -> np.ndarray:
        """Complex sample points, shape (ny, nx): row j holds y = ys()[j]."""
        xg, yg = np.meshgrid(self.xs(), self.ys())
        return xg + 1j * yg


@dataclass(frozen=True)
class DistributionField:
    """Probability values sampled on a grid; the time of the sample stays
    with the caller (``field_snapshot`` takes the panel's tau)."""

    grid: GridSpec
    values: np.ndarray

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


# grids are sampled in cache-sized blocks of whole rows of about this many nodes
_SAMPLE_BLOCK = 16384


def sample_grid(state: GaussianState, t: float, grid: GridSpec) -> DistributionField:
    """Evaluate the evolved distribution on every grid node (row-major, y outer).

    The nodes are built and evaluated a block of rows at a time, so the
    temporaries stay cache-sized and peak memory is about the values array.
    """
    xs, ys = grid.xs(), grid.ys()
    values = np.empty((grid.ny, grid.nx))
    rows = -(-_SAMPLE_BLOCK // grid.nx)
    with np.errstate(over="ignore", invalid="ignore"):  # DistributionField rejects NaN
        for j in range(0, grid.ny, rows):
            values[j : j + rows] = evolved_distribution(xs + 1j * ys[j : j + rows, None], state, t)
    if np.isnan(values).any():
        require_finite_frequency(grid.mesh_complex(), state, t)
    return DistributionField(grid=grid, values=values)


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
        ContourTrace(points=piece, closed=bool(c))
        for piece, c, e in zip(pieces, closed.tolist(), emit.tolist())
        if e
    ]


# --- decimal formatting -----------------------------------------------------
#
# _format_decimal writes format(v, ".6f"), format(v, ".17g") or repr(v) for a
# whole float64 array.  All print a correctly rounded integer
# n = round(|v| * 10**k) with a decimal point k digits from its end: k = 6 for
# ".6f", and k = 16 - E for ".17g", where E is the decimal exponent of v, so
# that n has 17 digits.  repr uses the ".17g" layout: where the decimal
# round(|v| * 10**(14 - E)) or round(|v| * 10**(15 - E)) reads back as v, n
# is it times 100 or 10, and the pad zeros drop as trailing ones (_shortest).
# |v| * 10**k is formed exactly as p + e (Dekker's TwoProduct; 10**k is a
# double for k <= 22), so n rounds half to even on the exact product, as
# Python does.  Elements outside that exact fixed-point range are formatted
# by Python into their rows: for ".6f" |v| >= 4.5e9 (where |v| * 1e6 nears
# 2**52), for ".17g" and repr 0, |v| < 1e-4 and |v| >= 1e16 (exponent form),
# for repr also integral values and powers of two; NaN and infinities for
# all.
#
# A row is groups of four bytes, a slot and three digits, read from one
# 1000-entry table.  n is padded with up to two zeros so that the point falls
# on a group boundary, into the slot of the first fraction group; the slot of
# the first group written holds the sign.  Bytes that format() does not print
# are NUL: leading zeros before the units digit, trailing zeros that ".17g"
# drops, unused slots.  Deleting the NULs of the row bytes (bytes.translate)
# leaves the text.

_CHUNK = 8192  # values formatted at a time
_GROUPS = 8  # 17 digits, two pad zeros and the "0." of "0.000ddd"
_DIGITS = 3 * _GROUPS
_POW10 = np.array([float(10**k) for k in range(23)])
# ".17g" layout by decimal exponent E = -4..15, in row E + 4: the factor that
# pads n with zeros so that its 16 - E decimals fill whole groups, the first
# fraction group, and the first digit shown (the units digit if E < 0, else
# n's first)
_E = np.arange(-4, 16)
_FRACTION_GROUPS = (18 - _E) // 3
_E_PAD = 3 * _FRACTION_GROUPS - (16 - _E)
_E_SCALE = 10 ** _E_PAD.astype(np.uint64)
_E_POINT = _GROUPS - _FRACTION_GROUPS
_E_FIRST = np.minimum(3 * _E_POINT - 1, _DIGITS - 17 - _E_PAD)
# group value -> its four bytes, the slot first
_GROUP_BYTES = np.frombuffer(b"".join(b".%03d" % i for i in range(1000)), dtype=np.uint32)
# group value -> its trailing zero digits
_TRAILING_ZEROS = np.array([len(s) - len(s.rstrip("0")) for s in map("{:03d}".format, range(1000))])


def _keep_table():
    """Column (first * (_GROUPS + 1) + point) * _DIGITS + last: the byte mask,
    one uint32 per group, of a row that shows digits first..last and the
    slot of group point if last is a fraction digit."""
    pos = np.arange(4 * _GROUPS)
    slot = pos % 4 == 0
    digit = pos // 4 * 3 + pos % 4 - 1
    first, point, last = np.ogrid[:_DIGITS, : _GROUPS + 1, :_DIGITS]
    first, point, last = first[..., None], point[..., None], last[..., None]
    shown = ~slot & (first <= digit) & (digit <= last)
    dot = slot & (pos // 4 == point) & (last >= 3 * point)
    keep = np.where(shown | dot, 0xFF, 0).astype(np.uint8)
    # transposed, so that each group's masks are one contiguous row
    return keep.reshape(-1, pos.size).view(np.uint32).T.copy()


_KEEP = _keep_table()


def _two_product(a, b):
    """(p, e) with p = fl(a * b) and p + e == a * b exactly (Dekker 1971)."""
    p = a * b
    c = 134217729.0 * a  # 2**27 + 1 splits a double into two 26-bit halves
    ah = c - (c - a)
    c = 134217729.0 * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _round_product(p, e):
    """round(p + e), half to even, as int64, for p + e from _two_product.

    Exact where p + e < 2**52 (ties are p = m + 1/2, broken by e) or
    >= 2**53 (p is an even integer and e holds the fraction).
    """
    r = np.rint(p)
    # a tie of p goes the way e points
    sign = np.sign(e)
    step = np.rint(e) + sign * (p - r == 0.5 * sign)
    return r.astype(np.int64) + step.astype(np.int64)


def _round_scaled(a, k):
    """round(a * 10**k), half to even on the exact product, as int64."""
    return _round_product(*_two_product(a, _POW10[k]))


def _shortest(a, e10, n):
    """repr's digits of a in the ".17g" layout of n = round(a * 10**(16 - e10)).

    repr(a) holds the correctly rounded 15-digit decimal if it reads back as
    a (only one can lie in a's rounding interval), else the 16-digit one if
    it reads back, else the 17 of n, each with trailing zeros dropped.  a
    lies in [1e-4, 1e16) and is neither integral nor a power of two, whose
    rounding interval is asymmetric.  Where a candidate m < 2**53, m and
    10**k are doubles, so reading m / 10**k is one correctly rounded
    division (Clinger 1990).
    """
    q = _POW10[15 - e10]
    p, e = _two_product(a, q)
    m = _round_product(p, e)
    # a 16-digit m >= 2**53 is not a double; there p is an integer and
    # m = p + rint(e), so the error |m - a * 10**k| = |rint(e) - e| is
    # exact.  m reads back if the error is below half an ulp of a, scaled by
    # 10**k; it is never equal, as a midpoint between doubles below 2**52
    # has more than 16 digits.
    err = np.abs((m - p.astype(np.int64)) - e)
    close = err < 0.5 * q * np.spacing(a)
    n = np.where(np.where(m < 2**53, m / q == a, close), 10 * m, n)
    # a 15-digit m < 10**15 is a double.  At e10 = 15 its k = -1 is clipped
    # to 0: m = round(a) then reads back only for an integral a, as the
    # 15-digit decimal would.
    k = np.maximum(14 - e10, 0)
    m = _round_scaled(a, k)
    return np.where(m / _POW10[k] == a, 100 * m, n)


def _format_decimal(values, spec):
    """format(v, spec) of every element, spec ".6f", ".17g" or "" (repr(v)),
    at array speed.

    Returns a uint8 array of shape (N, W): row i holds the bytes of
    format(values.flat[i], spec) in order, with NUL bytes between them.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size > _CHUNK:
        # chunks keep the temporaries in cache; NUL columns pad them on the left
        parts = [_format_decimal(v[i : i + _CHUNK], spec) for i in range(0, v.size, _CHUNK)]
        width = max(part.shape[1] for part in parts)
        return np.concatenate([np.pad(part, ((0, 0), (width - part.shape[1], 0))) for part in parts])
    a = np.abs(v)
    if spec == ".6f":
        exact = a < 4.5e9  # so that a * 1e6 < 2**52
        n = _round_scaled(np.where(exact, a, 0.0), 6)
        point = _GROUPS - 2
        # the units digit, or an integer digit before it
        whole = n // 10**6
        first = np.full(v.size, 3 * point - 1)
        for j in range(1, len(str(whole.max(initial=0)))):
            first -= whole >= 10**j
    elif spec in (".17g", ""):
        exact = (a >= 1e-4) & (a < 1e16)
        if spec == "":
            # repr writes "1.0" for an integral value; powers of two (a
            # mantissa of 0.5) fall outside _shortest
            exact &= (a != np.floor(a)) & (np.frexp(a)[0] != 0.5)
        a = np.where(exact, a, 1.0)
        e10 = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.intp)
        n = _round_scaled(a, 16 - e10)
        # log10 can miss the exponent by one next to a power of ten, and
        # rounding can carry into an 18th digit: both rescale by ten
        shift = (n >= 10**17).astype(np.intp) - (n < 10**16)
        miss = np.flatnonzero(shift)
        if miss.size:
            e10[miss] += shift[miss]
            n[miss] = _round_scaled(a[miss], 16 - e10[miss])
        if spec == "":
            n = _shortest(a, e10, n)
        row = e10 + 4
        n = n.astype(np.uint64) * _E_SCALE[row]
        point, first = _E_POINT[row], _E_FIRST[row]
    else:
        raise ValueError(f"unsupported format spec {spec!r}")

    # groups before `lo` are zero and unprinted in every row; one row of
    # `groups` per group, each a contiguous array
    lo = first.min(initial=_DIGITS - 1) // 3
    groups = np.empty((_GROUPS - lo, v.size), dtype=np.intp)
    for g in range(len(groups) - 1, 0, -1):
        q = n // 1000
        groups[g] = n - 1000 * q
        n = q
    groups[0] = n
    if spec == ".6f":
        last = _DIGITS - 1
    else:
        # trailing zeros are dropped, down to the units digit
        tail = ((groups != 0) * np.arange(len(groups), dtype=np.uint8)[:, None]).max(axis=0)
        last = 3 * (lo + tail) + 2 - _TRAILING_ZEROS[groups[tail, np.arange(v.size)]]
        last = np.maximum(last, 3 * point - 1)

    keep = np.take(_KEEP[lo:], (first * (_GROUPS + 1) + point) * _DIGITS + last, axis=1)
    chars = (np.take(_GROUP_BYTES, groups) & keep).T.copy().view(np.uint8)
    chars[:, 0] = np.signbit(v) * np.uint8(ord("-"))

    outside = np.flatnonzero(~exact)
    if outside.size:
        texts = np.array([format(x, spec) for x in v[outside].tolist()], dtype=np.bytes_)
        texts = texts.view(np.uint8).reshape(outside.size, -1)
        if texts.shape[1] > chars.shape[1]:
            chars = np.pad(chars, ((0, 0), (0, texts.shape[1] - chars.shape[1])))
        chars[outside] = 0
        chars[outside, : texts.shape[1]] = texts
    return chars


# --- emitters ---------------------------------------------------------------


def _write(destination, chunks) -> int:
    """Write byte chunks to the file in order; returns the byte count."""
    with open(destination, "wb") as out:
        return sum(map(out.write, chunks))


def _text_rows(shape, *items) -> bytes:
    """The text of rows of the given leading shape, built left to right from
    items: a bytes literal is written in every row, and the rows of a
    _format_decimal array broadcast over the rows."""
    items = [np.frombuffer(item, dtype=np.uint8) if isinstance(item, bytes) else item for item in items]
    rows = np.empty(shape + (sum(item.shape[-1] for item in items),), dtype=np.uint8)
    at = 0
    for item in items:
        rows[..., at : at + item.shape[-1]] = item
        at += item.shape[-1]
    return rows.tobytes().translate(None, b"\0")


def _csv_rows(shape, *columns) -> bytes:
    """CSV rows of formatted columns: comma-separated, each ended by a newline."""
    items = [b","] * (2 * len(columns) - 1) + [b"\n"]
    items[::2] = columns
    return _text_rows(shape, *items)


# field CSV rows are formatted and written in blocks of about this many nodes
_CSV_BLOCK = 1024


def _field_csv_chunks(field: DistributionField):
    """The CSV bytes of a field: the header, then blocks of whole grid rows."""
    ny, nx = field.values.shape
    axes = _format_decimal(np.concatenate([field.grid.xs(), field.grid.ys()]), ".17g")
    xs, ys = axes[:nx], axes[nx:]
    yield b"x,y,value\n"
    step = -(-_CSV_BLOCK // nx)
    for j in range(0, ny, step):
        block = field.values[j : j + step]
        values = _format_decimal(block, ".17g").reshape(block.shape + (-1,))
        yield _csv_rows(block.shape, xs, ys[j : j + step, None], values)


def write_csv(obj, destination) -> int:
    """Write a field (`x,y,value`), a trace (`x,y`) or a dict of named 1-D
    columns as round-trippable CSV.

    Returns the byte count written.  Every value is printed as
    format(v, ".17g"), 17 significant digits, so re-parsing reproduces the
    doubles bit-exactly.  A field is streamed in blocks of grid rows, each
    axis formatted once, so the text of the whole file is never held in
    memory.
    """
    if isinstance(obj, DistributionField):
        chunks = _field_csv_chunks(obj)
    else:
        if isinstance(obj, ContourTrace):
            obj = {"x": obj.points.real, "y": obj.points.imag}
        if not (isinstance(obj, dict) and obj and all(isinstance(c, np.ndarray) for c in obj.values())):
            raise TypeError(f"cannot serialize {type(obj).__name__} as CSV")
        shapes = {c.shape for c in obj.values()}
        if len(shapes) != 1 or len(shape := shapes.pop()) != 1:
            raise ValueError("CSV columns must be 1-D arrays of one length")
        chars = _format_decimal(np.stack(list(obj.values())), ".17g")
        columns = chars.reshape(len(obj), *shape, chars.shape[1])
        chunks = [",".join(obj).encode("utf-8") + b"\n", _csv_rows(shape, *columns)]
    return _write(destination, chunks)


def field_snapshot(field: DistributionField, tau: float, config: dict) -> dict:
    """Single-document snapshot of a sampled field, the panel's tau and its
    provenance; its values are the field's float64 array, flattened
    row-major (y outer)."""
    return {
        "config": config,
        "tau": tau,
        "grid": asdict(field.grid),
        "values": field.values.ravel(),
    }


def _snapshot_json_chunks(snapshot: dict):
    """The JSON bytes of a snapshot: the sorted-key header up to the values
    list, then the values in blocks of _CHUNK."""
    values = snapshot["values"].ravel()
    # the header ends with "values":[]} and the values go between the brackets
    head = json.dumps({**snapshot, "values": []}, sort_keys=True, separators=(",", ":"))
    yield head[:-2].encode("utf-8")
    for i in range(0, values.size, _CHUNK):
        block = values[i : i + _CHUNK]
        # format(v, "") is repr(v), the text json.dumps writes for a float
        text = _text_rows(block.shape, b",", _format_decimal(block, ""))
        yield text[1:] if i == 0 else text
    yield b"]}\n"


def write_json(snapshot: dict, destination) -> int:
    """Serialize a dict as one line of sorted-key JSON; returns the byte count.

    A snapshot's values, a finite float array, are written flat, as the list
    json.dumps would write for them, each exactly repr(v): the decimal kernel
    formats them in blocks that are streamed after the header, so neither a
    list of Python floats nor the text of the whole file is held in memory.
    Other dicts, such as manifests, go through json.dumps.
    """
    if not isinstance(snapshot.get("values"), np.ndarray):
        text = json.dumps(snapshot, sort_keys=True, separators=(",", ":")) + "\n"
        return _write(destination, [text.encode("utf-8")])
    if max(snapshot) != "values":
        raise ValueError(f"snapshot key {max(snapshot)!r} sorts after 'values'")
    return _write(destination, _snapshot_json_chunks(snapshot))


def svg_map(x, y, grid: GridSpec):
    """Affine map of phase-plane points into the SVG viewBox (y flipped).

    Elementwise over equal-shape arrays (two floats act as 0-d arrays), so
    a point maps to the same bits alone or inside an array.
    """
    sx = SVG_VIEW * (x - grid.xmin) / (grid.xmax - grid.xmin)
    sy = SVG_VIEW * (grid.ymax - y) / (grid.ymax - grid.ymin)
    return sx, sy


def write_svg(traces, grid: GridSpec, destination, description: str | None = None) -> int:
    """Render traces as stroked paths in an 800x800 viewBox with a frame.

    Coordinates are printed as format(v, ".6f"), six decimals (5e-7 of a
    view unit), no fill, stroke width 1; the output carries no timestamps so
    identical inputs yield byte-identical files.
    """
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_VIEW:g} {SVG_VIEW:g}">',
    ]
    if description:
        # quote=False: only & < > are replaced; quotes stay as written
        parts.append(f"<desc>{escape(description, quote=False)}</desc>")
    parts.append(
        f'<rect x="0" y="0" width="{SVG_VIEW:g}" height="{SVG_VIEW:g}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts = [part.encode("utf-8") for part in parts]
    # every trace's coordinates are formatted in one pass
    traces = list(traces)
    points = np.concatenate([trace.points for trace in traces] + [np.empty(0, dtype=complex)])
    chars = _format_decimal(np.stack(svg_map(points.real, points.imag, grid)), ".6f")
    sx, sy = chars.reshape(2, points.size, chars.shape[1])
    start = 0
    for trace in traces:
        rows = slice(start, start + len(trace))
        start = rows.stop
        # "x y L " per point; the last point's " L " is cut
        d = b"M " + _text_rows((len(trace),), sx[rows], b" ", sy[rows], b" L ")[:-3]
        if trace.closed:
            d += b" Z"
        parts.append(b'<path d="' + d + b'" fill="none" stroke="black" stroke-width="1"/>')
    parts.append(b"</svg>")
    return _write(destination, [b"\n".join(parts) + b"\n"])
