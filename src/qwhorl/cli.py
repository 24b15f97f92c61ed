"""Command-line front end.

Subcommands: freq (frequency-law tables), evolve (distribution snapshots),
contour (advected or grid-extracted level sets), verify (the certification
suite), and reproduce (one-shot standard figure scenarios).  Exit codes:
0 success, 2 configuration error, 3 verification failure, 4 I/O failure.
Every run drops a manifest carrying the fully resolved configuration, and
file names are pure functions of that configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    DeformationKind,
    FrequencyProfile,
    FrequencySelector,
    OscillatorParams,
    PhasePoint,
    frequency,
)
from .field import (
    GridSpec,
    extract_level_set,
    field_snapshot,
    sample_grid,
    write_csv,
    write_json,
    write_svg,
)
from .liouville import GaussianState, advect_contour
from .verify import DEFAULT_SEED, PANEL_TAUS, all_passed, format_reports, run_full_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_IO = 4

# figure -> (profile, kind, format): SVG contour panels or JSON grid snapshots
FIGURE_PRESETS = {
    "fig1": ("anharmonic", "none", "svg"),
    "fig2": ("mu1", "type1", "svg"),
    "fig3": ("mu2", "type2", "svg"),
    "fig4": ("anharmonic", "none", "json"),
    "fig5": ("mu1", "type1", "json"),
    "fig6": ("mu2", "type2", "json"),
}

_DEFAULTS = {
    "q": 0.5,
    "mass": 1.0,
    "omega": 1.0,
    "hbar": 1.0,
    "kind": "type1",
    "profile": "mu1",
    "chi": 1.0,
    "alpha0_re": 0.5,
    "alpha0_im": 0.0,
    "tau": PANEL_TAUS,
    "grid": 256,
    "window": "-1,1,-1,1",
    "radius": 0.5,
    "points": 1024,
    "steps": 10000,
    "format": None,
    "out": "out",
    "seed": DEFAULT_SEED,
    "sign": 1,
    "s_range": "0,1",
    "s_samples": 101,
    "from_grid": False,
}


@dataclass
class RunConfig:
    """Fully resolved invocation: what to run and with which parameters."""

    command: str
    params: OscillatorParams
    kind: DeformationKind
    profile: FrequencyProfile
    center: PhasePoint
    taus: list[float]
    grid: GridSpec
    radius: float
    points: int
    steps: int
    fmt: str
    out: Path
    seed: int
    sign: int
    s_range: tuple[float, float]
    s_samples: int
    from_grid: bool
    figure: str | None = None

    def to_dict(self) -> dict:
        g = self.grid
        return {
            "command": self.command,
            "q": self.params.q,
            "mass": self.params.mass,
            "omega": self.params.omega,
            "hbar": self.params.hbar,
            "kind": self.kind.value,
            "profile": self.profile.selector.value,
            "chi": self.profile.chi,
            "alpha0": [self.center.re, self.center.im],
            "tau": list(self.taus),
            "grid": {
                "nx": g.nx,
                "ny": g.ny,
                "xmin": g.xmin,
                "xmax": g.xmax,
                "ymin": g.ymin,
                "ymax": g.ymax,
            },
            "radius": self.radius,
            "points": self.points,
            "steps": self.steps,
            "format": self.fmt,
            "out": str(self.out),
            "seed": self.seed,
            "sign": self.sign,
            "s_range": list(self.s_range),
            "s_samples": self.s_samples,
            "from_grid": self.from_grid,
            "figure": self.figure,
        }


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--q", type=float, help="deformation parameter in (0, 1)")
    sp.add_argument("--mass", type=float)
    sp.add_argument("--omega", type=float)
    sp.add_argument("--hbar", type=float)
    sp.add_argument("--kind", choices=["none", "type1", "type2"])
    sp.add_argument(
        "--profile", choices=["undeformed", "mu1", "mu2", "mu3", "mu4", "anharmonic"]
    )
    sp.add_argument("--chi", type=float, help="anharmonic strength")
    sp.add_argument("--alpha0-re", type=float, dest="alpha0_re")
    sp.add_argument("--alpha0-im", type=float, dest="alpha0_im")
    sp.add_argument("--tau", type=float, action="append", help="repeatable snapshot time")
    sp.add_argument("--grid", type=int, help="samples per axis")
    sp.add_argument("--window", help="xmin,xmax,ymin,ymax")
    sp.add_argument("--radius", type=float, help="initial contour radius")
    sp.add_argument("--points", type=int, help="contour seed points")
    sp.add_argument("--steps", type=int, help="integrator steps")
    sp.add_argument("--format", choices=["csv", "json", "svg"])
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--sign", type=int, choices=[1, -1], help="generator sign")
    sp.add_argument("--config", help="JSON file with defaults; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwhorl",
        description="Phase-space transport of the q-deformed classical oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    freq = sub.add_parser("freq", help="tabulate Omega(s)/omega for a frequency law")
    _add_common(freq)
    freq.add_argument("--s-range", dest="s_range", help="smin,smax")
    freq.add_argument("--s-samples", dest="s_samples", type=int)

    evolve = sub.add_parser("evolve", help="write distribution snapshots per tau")
    _add_common(evolve)

    contour = sub.add_parser("contour", help="write advected contours per tau")
    _add_common(contour)
    contour.add_argument(
        "--from-grid",
        dest="from_grid",
        action="store_const",
        const=True,
        help="extract the level set from a sampled grid instead of advecting",
    )

    verify = sub.add_parser("verify", help="run the certification suite")
    _add_common(verify)

    reproduce = sub.add_parser("reproduce", help="emit a standard figure panel set")
    reproduce.add_argument("figure", choices=sorted(FIGURE_PRESETS))
    _add_common(reproduce)
    return parser


def _pair(parser, text, flag):
    parts = text.split(",")
    try:
        values = [float(tok) for tok in parts]
    except ValueError:
        parser.error(f"{flag}: expected comma-separated numbers, got {text!r}")
    return values


def _number(parser, resolved, key, cast=float):
    """resolved[key] converted by cast; a value of the wrong type exits 2."""
    value = resolved[key]
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if cast is int else "a number"
        parser.error(f"--{key.replace('_', '-')}: expected {what}, got {value!r}")


def _taus(parser, value):
    """The tau list as floats; a scalar or non-numeric entry exits 2."""
    if not isinstance(value, (list, tuple)):
        parser.error(f"--tau: expected a list of numbers, got {value!r}")
    try:
        return [float(t) for t in value]
    except (TypeError, ValueError):
        parser.error(f"--tau: expected a list of numbers, got {value!r}")


def parse_args(argv=None) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)

    resolved = dict(_DEFAULTS)
    config_path = getattr(ns, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"--config: cannot read {config_path}: {exc}")
        unknown = set(loaded) - set(resolved)
        if unknown:
            parser.error(f"--config: unknown keys {sorted(unknown)}")
        resolved.update(loaded)
    for key in _DEFAULTS:
        value = getattr(ns, key, None)
        if value is not None:
            resolved[key] = value

    q, mass, omega, hbar, chi, radius, alpha0_re, alpha0_im = (
        _number(parser, resolved, key)
        for key in ("q", "mass", "omega", "hbar", "chi", "radius", "alpha0_re", "alpha0_im")
    )
    n, points, steps, seed, sign, s_samples = (
        _number(parser, resolved, key, int)
        for key in ("grid", "points", "steps", "seed", "sign", "s_samples")
    )
    taus = _taus(parser, resolved["tau"])

    if not 0.0 < q < 1.0:
        parser.error("--q must lie in (0, 1)")
    for flag, value in (("mass", mass), ("omega", omega), ("hbar", hbar)):
        if value <= 0.0:
            parser.error(f"--{flag} must be positive")
    try:
        kind = DeformationKind(resolved["kind"])
        selector = FrequencySelector(resolved["profile"])
    except ValueError as exc:
        parser.error(f"--kind/--profile: {exc}")
    params = OscillatorParams(q=q, mass=mass, omega=omega, hbar=hbar)
    window = _pair(parser, str(resolved["window"]), "--window")
    if len(window) != 4:
        parser.error("--window needs xmin,xmax,ymin,ymax")
    if n < 2:
        parser.error("--grid must be >= 2")
    try:
        grid = GridSpec(window[0], window[1], window[2], window[3], n, n)
    except ValueError as exc:
        parser.error(f"--window: {exc}")
    s_range = _pair(parser, str(resolved["s_range"]), "--s-range")
    if len(s_range) != 2 or s_range[1] <= s_range[0] or s_range[0] < 0:
        parser.error("--s-range needs 0 <= smin < smax")
    if s_samples < 2:
        parser.error("--s-samples must be >= 2")
    if radius <= 0:
        parser.error("--radius must be positive")
    if points < 8:
        parser.error("--points must be >= 8")
    if steps < 1:
        parser.error("--steps must be >= 1")
    if sign not in (1, -1):
        parser.error("--sign must be +1 or -1")

    command = ns.command
    fmt = resolved["format"]
    figure = getattr(ns, "figure", None)
    if figure is not None:
        prof_name, kind_name, preset_fmt = FIGURE_PRESETS[figure]
        if fmt not in (None, preset_fmt):
            parser.error(f"--format: {figure} emits {preset_fmt} only")
        fmt = preset_fmt
        if getattr(ns, "profile", None) is None:
            selector = FrequencySelector(prof_name)
            kind = DeformationKind(kind_name)
    if fmt is None:
        fmt = {"freq": "csv", "evolve": "json", "contour": "svg"}.get(command, "json")
    if command == "freq" and fmt != "csv":
        parser.error("--format: freq tables are CSV only")
    if command == "evolve" and fmt == "svg":
        parser.error("--format: evolve snapshots are csv or json")
    if command == "contour" and fmt == "json":
        parser.error("--format: contours are svg or csv")

    return RunConfig(
        command=command,
        params=params,
        kind=kind,
        profile=FrequencyProfile(selector, chi=chi),
        center=PhasePoint(alpha0_re, alpha0_im),
        taus=taus,
        grid=grid,
        radius=radius,
        points=points,
        steps=steps,
        fmt=fmt,
        out=Path(str(resolved["out"])),
        seed=seed,
        sign=sign,
        s_range=(s_range[0], s_range[1]),
        s_samples=s_samples,
        from_grid=bool(resolved["from_grid"]),
        figure=figure,
    )


def _tau_label(tau: float) -> str:
    return format(tau, ".10g")


def _write_manifest(cfg: RunConfig, outputs: list[dict], stem: str):
    """Write <stem>_manifest.json; a reproduce run names it after its figure."""
    manifest = {"command": cfg.command, "config": cfg.to_dict(), "outputs": outputs}
    if cfg.figure is not None and FIGURE_PRESETS[cfg.figure][0] == "anharmonic":
        manifest["notes"] = {"chi": "chi=1.0 is a tool default; the scenario fixes only the law shape"}
    write_json(manifest, cfg.out / f"{cfg.figure or stem}_manifest.json")


def _output_entry(path: Path, tau: float | None = None) -> dict:
    entry = {"file": path.name}
    if tau is not None:
        entry["tau"] = tau
        entry["tau_over_pi"] = tau / math.pi
    return entry


def cmd_freq(cfg: RunConfig) -> int:
    cfg.out.mkdir(parents=True, exist_ok=True)
    s = np.linspace(cfg.s_range[0], cfg.s_range[1], cfg.s_samples)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are rejected below
        ratio = np.asarray(frequency(s, cfg.params, cfg.profile)) / cfg.params.omega
    if not np.isfinite(ratio).all():
        raise ValueError(f"Omega(s) is not finite on s in [{s[0]:g}, {s[-1]:g}]")
    lines = ["s,omega_ratio"]
    lines += [f"{v:.17g},{r:.17g}" for v, r in zip(s, ratio)]
    path = cfg.out / f"freq_{cfg.profile.selector.value}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(cfg, [_output_entry(path)], "freq")
    print(path)
    return EXIT_OK


def cmd_evolve(cfg: RunConfig) -> int:
    cfg.out.mkdir(parents=True, exist_ok=True)
    state = GaussianState(cfg.center, cfg.profile, cfg.params)
    stem = cfg.figure or "snap"
    outputs = []
    for tau in cfg.taus:
        t = tau / cfg.params.omega
        fld = sample_grid(state, t, cfg.grid)
        path = cfg.out / f"{stem}_tau{_tau_label(tau)}.{cfg.fmt}"
        if cfg.fmt == "json":
            write_json(field_snapshot(fld, cfg.to_dict()), path)
        else:
            write_csv(fld, path)
        outputs.append(_output_entry(path, tau))
        print(path)
    _write_manifest(cfg, outputs, "evolve")
    return EXIT_OK


def _contour_traces(cfg: RunConfig, state: GaussianState, tau: float):
    t = tau / cfg.params.omega
    if cfg.from_grid:
        level = math.exp(-cfg.radius**2)
        return extract_level_set(sample_grid(state, t, cfg.grid), level)
    return [advect_contour(state, t, radius=cfg.radius, n_points=cfg.points, refine=True)]


def cmd_contour(cfg: RunConfig) -> int:
    cfg.out.mkdir(parents=True, exist_ok=True)
    state = GaussianState(cfg.center, cfg.profile, cfg.params)
    stem = cfg.figure or "contour"
    desc = json.dumps(cfg.to_dict(), sort_keys=True)
    outputs = []
    for tau in cfg.taus:
        traces = _contour_traces(cfg, state, tau)
        if cfg.fmt == "svg":
            path = cfg.out / f"{stem}_tau{_tau_label(tau)}.svg"
            write_svg(traces, cfg.grid, path, description=desc)
            outputs.append(_output_entry(path, tau))
            print(path)
        else:
            for k, trace in enumerate(traces):
                suffix = "" if len(traces) == 1 else f"_{k}"
                path = cfg.out / f"{stem}_tau{_tau_label(tau)}{suffix}.csv"
                write_csv(trace, path)
                outputs.append(_output_entry(path, tau))
                print(path)
    _write_manifest(cfg, outputs, "contour")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    reports = run_full_suite(cfg.params, seed=cfg.seed, sign=cfg.sign, rk4_steps=cfg.steps)
    print(format_reports(reports))
    if all_passed(reports):
        print("all checks passed")
        return EXIT_OK
    failed = sum(1 for r in reports if not r.passed)
    print(f"{failed} check(s) failed")
    return EXIT_VERIFY


def cmd_reproduce(cfg: RunConfig) -> int:
    return cmd_contour(cfg) if cfg.fmt == "svg" else cmd_evolve(cfg)


_HANDLERS = {
    "freq": cmd_freq,
    "evolve": cmd_evolve,
    "contour": cmd_contour,
    "verify": cmd_verify,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
    except SystemExit as exc:  # argparse already printed the reason
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _HANDLERS[cfg.command](cfg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, OverflowError) as exc:
        law = cfg.profile.selector.value
        reason = "floating-point overflow" if isinstance(exc, OverflowError) else exc
        print(f"error: {law} law at q = {cfg.params.q:g}: {reason}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
