"""Grid sampling, level-set extraction, and deterministic file emitters.

The writers are the repo's stable file contracts: CSV with 17-significant-
digit decimals (`x,y,value` for fields, `x,y` for traces), a single-document
JSON snapshot ({config, tau, grid, values}, each value exactly repr(v)), and
an 800x800-viewBox SVG with a flipped y axis.  One array kernel formats
every number of the three a block at a time, and the blocks are streamed to
the file.  All output is a pure function of the inputs - no timestamps, no
environment leakage - so reruns are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from html import escape
from itertools import chain

import numpy as np

from .liouville import ContourTrace, GaussianState, evolved_distribution, evolved_strip

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
        for axis, lo, hi in (("x", self.xmin, self.xmax), ("y", self.ymin, self.ymax)):
            if not hi > lo:
                raise ValueError(f"{axis}max must exceed {axis}min, got [{lo}, {hi}]")
            if not np.isfinite(float(hi) - float(lo)):  # Python floats: no overflow warning
                raise ValueError(f"the {axis} span of [{lo:g}, {hi:g}] overflows the doubles")
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
        return self.xs() + 1j * self.ys()[:, None]


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


def sample_grid(state: GaussianState, t: float, grid: GridSpec) -> DistributionField:
    """Evaluate the evolved distribution on every grid node (row-major, y outer).

    The nodes of the grid's smallest and largest actions go first: |Omega|
    peaks at one of them, so a transport that leaves the doubles is refused
    there, naming the grid's largest action, before any block is sampled.
    The nodes are then built and evaluated a block at a time, so the
    temporaries stay cache-sized and peak memory is about the values array.

    Where the axes are the same doubles, nodes (x_a, x_b) and (x_b, x_a)
    share an action, so the grid is walked in strips of rows j..k holding
    about _CHUNK nodes of the upper triangle, and ``evolved_strip`` lends
    each strip's phase factors to the columns j..k below it, keeping every
    value's whole-grid bits.  Other grids go a block of whole rows at a time.
    """
    xs, ys = grid.xs(), grid.ys()
    # the corners, and the nodes nearest the axes
    evolved_distribution(
        xs[[0, -1, np.abs(xs).argmin()]] + 1j * ys[[0, -1, np.abs(ys).argmin()], None], state, t
    )
    values = np.empty((grid.ny, grid.nx))
    if np.array_equal(xs, ys):
        n, j = grid.nx, 0
        while j < n:
            k = min(n, j - (-_CHUNK // (n - j)))
            evolved_strip(values, xs, j, k, state, t)
            j = k
    else:
        rows = -(-_CHUNK // grid.nx)
        for j in range(0, grid.ny, rows):
            values[j : j + rows] = evolved_distribution(xs + 1j * ys[j : j + rows, None], state, t)
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
# so one lookup serves every crossed cell.  Every segment runs with the
# above-level corners on its right, so a crossed edge starts at most one
# segment and ends at most one.  Edges are integer ids: the
# horizontal edge (h, i, j) is j*(nx-1) + i, and the vertical edges follow
# all ny*(nx-1) horizontal ones, (v, i, j) at ny*(nx-1) + j*nx + i.  A shared
# edge has one id, so chaining segment endpoints stitches exact polylines;
# that walk, over ints, and each chain's finishing are the Python loops.

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
        13: (_RIGHT, _BOTTOM),
        14: (_BOTTOM, _LEFT),
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
    """Linear-interpolation crossing points of the level on ascending edge
    ids; each edge family has one formula, along its own axis."""
    ny, nx = values.shape
    n_h = ny * (nx - 1)
    k = np.searchsorted(edges, n_h)  # the horizontal edges come first
    pts = np.empty(edges.size, dtype=complex)
    j, i = np.divmod(edges[:k], nx - 1)
    frac = (level - values[j, i]) / (values[j, i + 1] - values[j, i])
    pts.real[:k], pts.imag[:k] = xs[i] + frac * (xs[i + 1] - xs[i]), ys[j]
    j, i = np.divmod(edges[k:] - n_h, nx)
    frac = (level - values[j, i]) / (values[j + 1, i] - values[j, i])
    pts.real[k:], pts.imag[k:] = xs[i], ys[j] + frac * (ys[j + 1] - ys[j])
    return pts


def _chains(segs):
    """Walk the directed segments into chains of node indices.

    Nodes are the crossed edges, indexed in ascending edge id; each starts at
    most one segment (succ) and ends at most one (pred).  In order of its
    first segment, each chain is walked along succ from its head, found back
    along pred from that segment's start, which heads a closed chain.  An
    open chain whose first segment starts at its head is emitted from its
    tail, as the pinned output has it.  Returns each chain as (nodes,
    closed), its nodes in emission order, and each node's edge id.
    """
    edges, node = np.unique(segs, return_inverse=True)
    node = node.reshape(-1, 2)
    succ, pred = np.full((2, edges.size), -1)
    succ[node[:, 0]], pred[node[:, 1]] = node[:, 1], node[:, 0]
    succ, pred = succ.tolist(), pred.tolist()

    chains = []
    visited = bytearray(edges.size)
    for start in node[:, 0].tolist():
        if visited[start]:
            continue
        head, closed = start, False
        while not closed and pred[head] >= 0:
            head = pred[head]
            closed = head == start
        nodes, cur = [], head
        while cur >= 0 and not visited[cur]:
            nodes.append(cur)
            visited[cur] = 1
            cur = succ[cur]
        chains.append((nodes[::-1] if head == start and not closed else nodes, closed))
    return chains, edges


def extract_level_set(field: DistributionField, level: float) -> list[ContourTrace]:
    """Marching-squares iso-contours of the sampled field at the given level.

    Returns ordered polylines with linear interpolation along cell edges;
    saddle cells are resolved by the cell-center average.  Each chain is
    finished on its own: repeated consecutive points are merged, a closed
    loop's return onto its first point is dropped, and closed loops with
    fewer than 8 vertices (below grid resolution) are discarded, as are
    chains of fewer than 2.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    values = field.values
    segs = _segments(values, level)
    if not segs.size:
        return []
    chains, edges = _chains(segs)
    crossings = _edge_crossings(edges, field.grid.xs(), field.grid.ys(), values, level)
    traces = []
    for nodes, closed in chains:
        least = 8 if closed else 2
        if len(nodes) < least:
            continue
        pts = crossings[nodes]
        pts = pts[np.append(True, pts[1:] != pts[:-1])]
        if closed and pts[0] == pts[-1]:
            pts = pts[:-1]
        if pts.size >= least:
            traces.append(ContourTrace(points=pts, closed=closed))
    return traces


# --- decimal formatting -----------------------------------------------------
#
# _format_decimal writes format(v, ".6f"), format(v, ".17g") or repr(v) for a
# whole float64 array.  All print a correctly rounded integer
# n = round(|v| * 10**k) with a decimal point k digits from its end: k = 6 for
# ".6f", and k = 16 - E for ".17g", where E is the decimal exponent of v, so
# that n has 17 digits.  |v| * 10**k is formed exactly as p + e (Dekker's
# TwoProduct; 10**k is a double for k <= 22), so n rounds half to even on the
# exact product, as Python does.  repr uses the ".17g" layout: where the
# decimal round(|v| * 10**(14 - E)) or round(|v| * 10**(15 - E)) reads back
# as v, n is it times 100 or 10, and the pad zeros drop as trailing ones.
# Both candidates are rounded from n and the sign of its remainder p + e - n,
# and each is tested against v's rounding interval on the same p + e, with
# exact double bounds (_shortest), so a value costs one exact product.
# Elements outside that exact fixed-point range are formatted by Python into
# their rows: for ".6f" |v| >= 4.5e9 (where |v| * 1e6 nears 2**52), for
# ".17g" and repr 0, |v| < 1e-4 and |v| >= 1e16 (exponent form), for repr
# also integral values and powers of two; NaN and infinities for all.
#
# A row is groups of four bytes, a slot and three digits, read from one
# 1000-entry table.  n is padded with up to two zeros so that the point falls
# on a group boundary, into the slot of the first fraction group; the slot of
# the first group written holds the sign.  Bytes that format() does not print
# are NUL: leading zeros before the units digit, trailing zeros that ".17g"
# drops, unused slots.  Deleting the NULs of the row bytes (bytes.translate)
# leaves the text.  An optional lead, such as a JSON list's comma, takes one
# more 4-byte slot in front of the sign's group, so a block of list items is
# the kernel's rows with their NULs deleted, with no second padded copy.

_CHUNK = 8192  # values sampled or formatted in one cache-sized block
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


def _shortest(a, q, p, e, n):
    """repr's digits of a in the ".17g" layout of n = round(p + e), where
    p + e = a * q exactly and q = 10**(16 - E).

    repr(a) holds the correctly rounded 15-digit decimal if it reads back as
    a (only one can lie in a's rounding interval), else the 16-digit one if
    it reads back, else the 17 of n, each with trailing zeros dropped.  a
    lies in [1e-4, 1e16) and is neither integral nor a power of two, whose
    rounding interval is asymmetric.  Both candidates come from n and the
    product already formed, scaled back by s = 10 or 100:

    - n >= 10**16 > 2**53, so p is an integer, and F = p + e - n, in
      [-1/2, 1/2], has the sign of the rounded e - (n - p).  m = round(n / s
      + F / s) half to even is n // s, plus one where 2 * (n % s) + sign(F)
      + (n // s) % 2 > s.
    - s * m reads back as a if |s * m - (p + e)| < r, half an ulp of a
      scaled by q: never equal, as a midpoint between doubles below 2**52
      has at least 18 digits.  With the integer i = s * m - p, that is
      i - r < e < i + r, tested exactly if both bounds are doubles.  They
      are.  For a's ulp 2**x, r = 2**(x - 1) * q = 5**(16 - E) * 2**(x + 15
      - E), whose last bit 2**(x + 15 - E) is at least 2**-47, as a <
      2**(x + 53) and a >= 10**E.  |i| + r < 128 (|s * m - n| <= 50, |n -
      p| <= 8, r < a * q * 2**-53 < 12), so the bounds need bits 2**6 down
      to 2**(x + 15 - E): 53 or fewer wherever x + 15 - E >= -46.  The one
      binade below, E = -4 and a in [1e-4, 2**-13), has p < 2**54, so |n -
      p| <= 1, r < 0.7 and |i| + r < 64: bits 2**5 to 2**-47, exactly 53.
    """
    p_int = p.astype(np.int64)
    sign = np.sign(e - (n - p_int)).astype(np.int64)
    # half an ulp of a, which is normal: the double whose exponent field is
    # a's less 53
    r = q * ((a.view(np.int64) >> 52) - 53 << 52).view(np.float64)
    out = n
    for s in (10, 100):
        m = n // s
        m += 2 * (n - s * m) + sign + (m & 1) > s
        m *= s
        i = (m - p_int).astype(np.float64)
        out = np.where((i - r < e) & (e < i + r), m, out)
    return out


def _format_decimal(values, spec, lead=b""):
    """format(v, spec) of every element, spec ".6f", ".17g" or "" (repr(v)),
    at array speed.

    Returns a uint8 array of shape (N, W): row i holds the bytes of
    format(values.flat[i], spec) in order, with NUL bytes between them, each
    row after the lead (up to 4 bytes) if one is given.
    """
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    if spec == ".6f":
        exact = a < 4.5e9  # so that a * 1e6 < 2**52
        n = _round_product(*_two_product(np.where(exact, a, 0.0), _POW10[6]))
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
        q = _POW10[16 - e10]
        p, e = _two_product(a, q)
        n = _round_product(p, e)
        # log10 can miss the exponent by one next to a power of ten, and
        # rounding can carry into an 18th digit: both rescale by ten
        shift = (n >= 10**17).astype(np.intp) - (n < 10**16)
        miss = np.flatnonzero(shift)
        if miss.size:
            e10[miss] += shift[miss]
            q[miss] = _POW10[16 - e10[miss]]
            p[miss], e[miss] = _two_product(a[miss], q[miss])
            n[miss] = _round_product(p[miss], e[miss])
        if spec == "":
            n = _shortest(a, q, p, e, n)
        del q, p, e  # freed before the groups, the largest temporary
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

    chars = np.take(_GROUP_BYTES, groups)
    del groups  # the intp groups are the largest temporary
    chars &= np.take(_KEEP[lo:], (first * (_GROUPS + 1) + point) * _DIGITS + last, axis=1)
    # the rows, behind the lead's slot if there is one
    at = 4 if lead else 0
    rows = np.empty((v.size, at // 4 + len(chars)), dtype=np.uint32)
    rows[:, at // 4 :] = chars.T
    rows = rows.view(np.uint8)
    rows[:, :at] = np.frombuffer(lead.ljust(at, b"\0"), dtype=np.uint8)
    rows[:, at] = np.signbit(v) * np.uint8(ord("-"))

    outside = np.flatnonzero(~exact)
    if outside.size:
        texts = np.array([format(x, spec) for x in v[outside].tolist()], dtype=np.bytes_)
        texts = texts.view(np.uint8).reshape(outside.size, -1)
        if at + texts.shape[1] > rows.shape[1]:
            rows = np.pad(rows, ((0, 0), (0, at + texts.shape[1] - rows.shape[1])))
        rows[outside, at:] = 0
        rows[outside, at : at + texts.shape[1]] = texts
    return rows


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
    data = rows.tobytes()
    del rows  # the padded rows go before their text is made
    return data.translate(None, b"\0")


def _formatted_blocks(spec, *columns, mapping=lambda *block: block):
    """_format_decimal of equal-length 1-D float columns, or of their images
    under an elementwise mapping, a block of about _CHUNK values at a time:
    yields each block's arrays, shape (columns, rows, W)."""
    rows = -(-_CHUNK // len(columns))
    for i in range(0, columns[0].size, rows):
        chars = _format_decimal(np.stack(mapping(*[c[i : i + rows] for c in columns])), spec)
        yield chars.reshape(len(columns), -1, chars.shape[1])


def _csv_rows(shape, *columns) -> bytes:
    """CSV rows of formatted columns: comma-separated, each ended by a newline."""
    items = [b","] * (2 * len(columns) - 1) + [b"\n"]
    items[::2] = columns
    return _text_rows(shape, *items)


# field CSV rows are formatted and written in blocks of about this many
# nodes: the kernel's fixed cost per call is spread over 2048 values, while a
# block's padded rows and their text stay within a few hundred KB
_CSV_BLOCK = 2048


def _field_csv_chunks(field: DistributionField):
    """The CSV bytes of a field: the header, then blocks of whole grid rows."""
    ny, nx = field.values.shape
    # each axis value's text, left-justified to the longest one, so that a
    # row carries no more NULs than that
    axes = _format_decimal(np.concatenate([field.grid.xs(), field.grid.ys()]), ".17g")
    axes = np.array(_text_rows((nx + ny,), axes, b"\n").split(b"\n")[:-1])
    axes = axes.view(np.uint8).reshape(nx + ny, -1)
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
    doubles bit-exactly.  The rows are streamed in blocks, a field's in
    blocks of grid rows with each axis formatted once, so the text of the
    whole file is never held in memory.
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
        blocks = _formatted_blocks(".17g", *obj.values())
        rows = (_csv_rows((b.shape[1],), *b) for b in blocks)
        chunks = chain([",".join(obj).encode("utf-8") + b"\n"], rows)
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
    # the header ends with "values":[]} and the values go between the brackets
    head = json.dumps({**snapshot, "values": []}, sort_keys=True, separators=(",", ":"))
    yield head[:-2].encode("utf-8")
    # format(v, "") is repr(v), as json.dumps writes a float; each value is
    # led by its comma in the kernel's rows, and the first comma is cut.  One
    # flat column needs none of _formatted_blocks' stacking.
    values = snapshot["values"].ravel()
    cut = 1
    for i in range(0, values.size, _CHUNK):
        chars = _format_decimal(values[i : i + _CHUNK], "", b",")
        yield chars.tobytes().translate(None, b"\0")[cut:]
        cut = 0
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
    return _view(x - grid.xmin, grid.xmax - grid.xmin), _view(grid.ymax - y, grid.ymax - grid.ymin)


def _view(offset, span: float):
    """SVG_VIEW * offset / span, with offset and span first divided by the
    span's power of two.  That division is exact, so the bits are those of
    the plain formula wherever its product SVG_VIEW * offset is finite, and
    a panel inside a window of span near 1e308 no longer overflows."""
    fraction, exponent = math.frexp(span)
    return SVG_VIEW * np.ldexp(offset, -exponent) / fraction


def _svg_path_chunks(trace: ContourTrace, grid: GridSpec):
    """The bytes of a trace's stroked path element, its points in blocks."""
    yield b'<path d="M '
    # " L x y" per point; the first point's " L " is cut
    cut = 3
    pts = trace.points
    for sx, sy in _formatted_blocks(".6f", pts.real, pts.imag, mapping=partial(svg_map, grid=grid)):
        yield _text_rows((len(sx),), b" L ", sx, b" ", sy)[cut:]
        cut = 0
    yield (b" Z" if trace.closed else b"") + b'" fill="none" stroke="black" stroke-width="1"/>\n'


def write_svg(traces, grid: GridSpec, destination, description: str | None = None) -> int:
    """Render traces as stroked paths in an 800x800 viewBox with a frame.

    Coordinates are printed as format(v, ".6f"), six decimals (5e-7 of a
    view unit), no fill, stroke width 1; the output carries no timestamps so
    identical inputs yield byte-identical files.  Traces whose image in the
    view overflows are refused before the file is opened.
    """
    # the map is affine, so the traces' extreme coordinates bound their image
    ends = [(f(t.points.real), f(t.points.imag))
            for t in traces if len(t) for f in (np.min, np.max)]
    x, y = np.array(ends).reshape(-1, 2).T
    with np.errstate(over="ignore"):
        if not np.isfinite(svg_map(x, y, grid)).all():
            raise ValueError(
                f"cannot draw traces reaching x in [{x.min():g}, {x.max():g}], y in [{y.min():g},"
                f" {y.max():g}]: their image in the {SVG_VIEW:g}-unit view overflows the doubles"
            )
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
    head = "".join(part + "\n" for part in parts).encode("utf-8")
    paths = chain.from_iterable(_svg_path_chunks(trace, grid) for trace in traces)
    return _write(destination, chain([head], paths, [b"</svg>\n"]))
