"""Output checks that use the benchmark's own closed forms, never the package.

Every check raises CheckError on the first mismatch.  The transported
distribution is P(z, t) = exp(-|z e^{i Omega(|z|^2) t} - c|^2) and an advected
contour of radius r sits on the level exp(-r^2); both are recomputed here from
the frequency laws of the source paper.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from mixes import Request

WINDOW = (-1.0, 1.0, -1.0, 1.0)
SVG_VIEW = 800.0
NODE_SAMPLES = 64
NODE_TOL = 1e-12          # sampled grid nodes against the closed form
LEVEL_TOL = 1e-10         # advected CSV vertices (17 significant digits)
SVG_LEVEL_TOL = 1e-4      # advected SVG vertices (6 decimals of an 800 view)
SEED_POINTS = 1024        # the CLI's default --points, before refinement
EDGE_TOL = 1e-9           # marching-squares CSV vertices on a grid line
SVG_EDGE_TOL = 1e-8       # the same, from 6-decimal SVG coordinates
EXPECTED_CHECKS = frozenset({
    "canonical_pair_bracket", "alpha_pair_bracket", "self_bracket_zero",
    "bracket_antisymmetry", "alphaq_pair_bracket[type1]", "alphaq_pair_bracket[type2]",
    "alphaq_bracket_order", "chain_identities[none]", "chain_identities[type1]",
    "chain_identities[type2]", "f_derivative_identity[type1]",
    "f_derivative_identity[type2]", "constants_of_motion[none]",
    "constants_of_motion[type1]", "constants_of_motion[type2]",
    "rk4_endpoint[undeformed]", "rk4_endpoint[mu1]", "rk4_endpoint[mu2]",
    "rk4_action_drift", "rk4_energy_drift", "rk4_convergence_order",
    "frequency_cross_identity", "q_limit_qnumber", "q_limit_frequency",
    "transport_identity", "peak_value_analytic", "peak_grid_capture",
    "pde_residual[sigma=+1]", "pde_residual_order", "pde_sign_discrimination",
    "whorl_stretching", "rigid_rotation_length",
})
_ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(PASS|FAIL)\b")


class CheckError(Exception):
    """An output broke its contract or disagreed with the closed form."""


def _require(ok, message: str):
    if not ok:
        raise CheckError(message)


def omega(law: str, s, q: float, chi: float = 1.0):
    """Frequency law Omega(s) in natural units (omega = 1), lam = ln q."""
    lam = math.log(q)
    s = np.asarray(s, dtype=float)
    if law == "undeformed":
        return np.ones_like(s)
    if law == "mu1":
        return lam * np.cosh(lam * s) / math.sinh(lam)
    if law == "mu2":
        return lam * np.exp(lam * s) / (math.exp(lam) - 1.0)
    if law == "mu3":
        return lam * np.sqrt(1.0 + (s * math.sinh(lam)) ** 2) / math.sinh(lam)
    if law == "mu4":
        return lam * (1.0 - s * (1.0 - math.exp(lam))) / (math.exp(lam) - 1.0)
    if law == "anharmonic":
        return 1.0 + 2.0 * chi * s
    raise ValueError(f"unknown law {law!r}")


def preimage(z, law: str, q: float, tau: float):
    """Characteristic pre-image z e^{+i Omega(|z|^2) tau} of points at time tau."""
    z = np.asarray(z, dtype=complex)
    return z * np.exp(1j * omega(law, z.real**2 + z.imag**2, q) * tau)


def density(z, req: Request, tau: float):
    """Closed-form transported Gaussian at points z and time tau."""
    d = preimage(z, req.law, req.q, tau) - req.centre
    return np.exp(-(d.real**2 + d.imag**2))


def _manifest_outputs(req: Request, out: Path) -> list[dict]:
    name = f"{req.figure if req.command == 'reproduce' else req.command}_manifest.json"
    manifest = json.loads((out / name).read_text(encoding="utf-8"))
    cfg = manifest["config"]
    _require(cfg["q"] == req.q, f"manifest q {cfg['q']} != {req.q}")
    _require(cfg["profile"] == req.law, f"manifest law {cfg['profile']} != {req.law}")
    _require(len(cfg["tau"]) == len(req.taus)
             and all(math.isclose(a, b, rel_tol=1e-15) for a, b in zip(cfg["tau"], req.taus)),
             "manifest tau list differs from the request")
    outputs = manifest["outputs"]
    _require(bool(outputs), "manifest lists no outputs")
    for entry in outputs:
        _require((out / entry["file"]).is_file(), f"listed output {entry['file']} missing")
    return outputs


def _grid_axes(n: int):
    xmin, xmax, ymin, ymax = WINDOW
    return np.linspace(xmin, xmax, n), np.linspace(ymin, ymax, n)


def _check_nodes(req: Request, tau: float, xs, ys, values, rng):
    """Seeded sample of nodes against the closed form; values lie in [0, 1]."""
    _require(values.min() >= 0.0 and values.max() <= 1.0, "value outside [0, 1]")
    n = req.grid
    i = rng.integers(0, n, NODE_SAMPLES)
    j = rng.integers(0, n, NODE_SAMPLES)
    got = values[j * n + i]
    want = density(xs[i] + 1j * ys[j], req, tau)
    worst = float(np.abs(got - want).max())
    _require(worst <= NODE_TOL, f"grid node off the closed form by {worst:.3e}")


def _check_snapshot_json(req: Request, path: Path, tau: float, rng):
    snap = json.loads(path.read_text(encoding="utf-8"))
    grid = snap["grid"]
    n = req.grid
    _require((grid["nx"], grid["ny"]) == (n, n), f"grid {grid['nx']}x{grid['ny']} != {n}")
    _require((grid["xmin"], grid["xmax"], grid["ymin"], grid["ymax"]) == WINDOW, "window")
    _require(math.isclose(snap["tau"], tau, rel_tol=1e-15), "snapshot tau")
    values = np.asarray(snap["values"], dtype=float)
    _require(values.size == n * n, f"{values.size} values for a {n}x{n} grid")
    xs, ys = _grid_axes(n)
    _check_nodes(req, tau, xs, ys, values, rng)


def _csv_table(path: Path, header: str, width: int) -> np.ndarray:
    text = path.read_text(encoding="utf-8")
    head, sep, body = text.partition("\n")
    _require(head == header and sep, f"{path.name}: header {head!r}")
    _require(body.endswith("\n"), f"{path.name}: missing final newline")
    rows = body.count("\n")
    table = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    _require(table.size == rows * width, f"{path.name}: ragged rows")
    return table.reshape(rows, width)


def _check_snapshot_csv(req: Request, path: Path, tau: float, rng):
    n = req.grid
    table = _csv_table(path, "x,y,value", 3)
    _require(table.shape[0] == n * n, f"{table.shape[0]} rows for a {n}x{n} grid")
    xs, ys = _grid_axes(n)
    _require(np.allclose(table[:n, 0], xs, rtol=0.0, atol=1e-14)
             and np.allclose(table[::n, 1], ys, rtol=0.0, atol=1e-14),
             "CSV x/y columns are not the grid in row-major order")
    _check_nodes(req, tau, table[:n, 0], table[::n, 1], table[:, 2], rng)


def _level(req: Request) -> float:
    return math.exp(-req.radius**2)


def _check_advected(req: Request, pts: np.ndarray, tau: float, tol: float, what: str):
    _require(pts.size >= SEED_POINTS, f"{what}: {pts.size} vertices, fewer than the seeds")
    worst = float(np.abs(density(pts, req, tau) - _level(req)).max())
    _require(worst <= tol, f"{what}: vertex off its level by {worst:.3e}")


def _check_on_grid_edges(req: Request, pts: np.ndarray, tau: float, tol: float, what: str):
    """Every marching-squares vertex lies on a grid line, on an edge whose
    closed-form end values straddle the level.  A vertex within tol of a node
    may sit on any edge at that node, so every such edge is tried."""
    axis = _grid_axes(req.grid)[0]  # the square window gives x and y the same nodes
    h, level = axis[1] - axis[0], _level(req)
    last = req.grid - 1

    def crossed(line_k, free, vertical):
        line = axis[line_k]
        found = np.zeros(pts.size, dtype=bool)
        for shift in (-tol, tol):
            lo = np.clip(np.floor((free + shift - axis[0]) / h).astype(int), 0, last - 1)
            a = np.where(vertical, line + 1j * axis[lo], axis[lo] + 1j * line)
            b = np.where(vertical, line + 1j * axis[lo + 1], axis[lo + 1] + 1j * line)
            va, vb = density(a, req, tau), density(b, req, tau)
            found |= (np.minimum(va, vb) <= level + 1e-9) & (np.maximum(va, vb) >= level - 1e-9)
        return found

    ok = np.zeros(pts.size, dtype=bool)
    for coord, free, vertical in ((pts.real, pts.imag, True), (pts.imag, pts.real, False)):
        k = np.clip(np.rint((coord - axis[0]) / h).astype(int), 0, last)
        on_line = np.abs(coord - axis[k]) <= tol
        ok |= on_line & crossed(k, free, vertical)
    _require(ok.all(), f"{what}: vertex off every grid edge the level crosses")


def _parse_svg(path: Path) -> list[str]:
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    _require(root.tag == ns + "svg", f"{path.name}: root is {root.tag}")
    _require(root.get("viewBox") == "0 0 800 800", f"{path.name}: viewBox")
    return [p.get("d", "") for p in root.iter(ns + "path")]


def _svg_points(d: str, what: str) -> np.ndarray:
    _require(d.startswith("M "), f"{what}: path does not start with M")
    body = d[2:-2] if d.endswith(" Z") else d[2:]
    xy = np.array(body.replace(" L ", " ").split(), dtype=float).reshape(-1, 2)
    xmin, xmax, ymin, ymax = WINDOW
    return (xmin + xy[:, 0] / SVG_VIEW * (xmax - xmin)
            + 1j * (ymax - xy[:, 1] / SVG_VIEW * (ymax - ymin)))


def _check_svg(req: Request, path: Path, tau: float):
    paths = _parse_svg(path)
    what = path.name
    if req.from_grid:
        _require(len(paths) >= 1, f"{what}: no level-set path")
        for d in paths:
            _check_on_grid_edges(req, _svg_points(d, what), tau, SVG_EDGE_TOL, what)
        return
    _require(len(paths) == 1, f"{what}: {len(paths)} paths, expected 1")
    _require(paths[0].endswith(" Z"), f"{what}: advected contour not closed with Z")
    _check_advected(req, _svg_points(paths[0], what), tau, SVG_LEVEL_TOL, what)


def _check_contour_csv(req: Request, path: Path, tau: float):
    table = _csv_table(path, "x,y", 2)
    pts = table[:, 0] + 1j * table[:, 1]
    if req.from_grid:
        _require(pts.size >= 2, f"{path.name}: fewer than 2 vertices")
        _check_on_grid_edges(req, pts, tau, EDGE_TOL, path.name)
    else:
        _check_advected(req, pts, tau, LEVEL_TOL, path.name)


def check_files(req: Request, out: Path):
    """Check every file a snapshot or whorl request wrote."""
    rng = np.random.default_rng(req.check_seed)
    outputs = _manifest_outputs(req, out)
    if not (req.from_grid and req.fmt == "csv"):
        _require(len(outputs) == len(req.taus), f"{len(outputs)} outputs for {len(req.taus)} taus")
    for entry in outputs:
        path, tau = out / entry["file"], entry["tau"]
        _require(math.isclose(entry["tau_over_pi"] * math.pi, tau, rel_tol=1e-12), "tau_over_pi")
        if path.suffix == ".json":
            _check_snapshot_json(req, path, tau, rng)
        elif path.suffix == ".svg":
            _check_svg(req, path, tau)
        elif req.command == "evolve":
            _check_snapshot_csv(req, path, tau, rng)
        else:
            _check_contour_csv(req, path, tau)


def check_verify(code: int, stdout: str) -> int:
    """Check a verify table; returns the number of FAIL rows."""
    lines = stdout.rstrip("\n").split("\n")
    _require(len(lines) >= 3 and lines[0].startswith("check") and set(lines[1]) == {"-"},
             "verify table header missing")
    rows = [_ROW.match(ln) for ln in lines[2:-1]]
    _require(all(rows), "unparseable verify row")
    names = [m.group(1) for m in rows]
    _require(len(names) == len(set(names)) and set(names) == EXPECTED_CHECKS,
             f"verify table rows {sorted(set(names) ^ EXPECTED_CHECKS)} differ from the suite")
    failed = 0
    for m in rows:
        error, tol, status = float(m.group(2)), float(m.group(3)), m.group(5)
        # printed with 4 and 2 significant digits, so compare loosely
        if status == "FAIL":
            failed += 1
            _require(error >= tol * 0.95, f"{m.group(1)} FAIL with error below tolerance")
        else:
            _require(error <= tol * 1.05, f"{m.group(1)} PASS with error above tolerance")
    summary = lines[-1]
    if failed:
        _require(code == 3, f"exit code {code} with {failed} FAIL rows")
        _require(summary == f"{failed} check(s) failed", f"summary {summary!r}")
    else:
        _require(code == 0, f"exit code {code} with no FAIL row")
        _require(summary == "all checks passed", f"summary {summary!r}")
    return failed
