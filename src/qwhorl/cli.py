"""Command-line front end.

Subcommands: freq (frequency-law tables), evolve (distribution snapshots),
contour (advected or grid-extracted level sets), verify (the certification
suite), and reproduce (one-shot standard figure scenarios).  A subcommand
takes only the flags its handler reads (``COMMANDS``), and its ``--config``
file only the same keys.  The law fixes the deformation kind, so ``--kind``
is only a check against it.  Exit codes: 0 success, 2 configuration error,
3 verification failure, 4 I/O failure.  Every run drops a manifest carrying
the fully resolved configuration, and file names are pure functions of that
configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import (
    DeformationKind,
    FrequencyProfile,
    FrequencySelector,
    LawOverflowError,
    OscillatorParams,
    frequency,
    kind_for_profile,
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

# the largest verify --steps, 100x the default
MAX_STEPS = 1_000_000

# figure -> (profile, format): SVG contour panels or JSON grid snapshots
FIGURE_PRESETS = {
    "fig1": ("anharmonic", "svg"),
    "fig2": ("mu1", "svg"),
    "fig3": ("mu2", "svg"),
    "fig4": ("anharmonic", "json"),
    "fig5": ("mu1", "json"),
    "fig6": ("mu2", "json"),
}

# key -> (default, keywords of its flag --key, with - for _)
_FLAGS = {
    "q": (0.5, {"type": float, "help": "deformation parameter in (0, 1)"}),
    "mass": (1.0, {"type": float}),
    "omega": (1.0, {"type": float}),
    "hbar": (1.0, {"type": float}),
    "profile": ("mu1", {"choices": [s.value for s in FrequencySelector]}),
    "kind": (None, {"choices": [k.value for k in DeformationKind], "help": "must match the law"}),
    "chi": (1.0, {"type": float, "help": "anharmonic strength"}),
    "alpha0_re": (0.5, {"type": float}),
    "alpha0_im": (0.0, {"type": float}),
    "tau": (PANEL_TAUS, {"type": float, "action": "append", "help": "repeatable snapshot time"}),
    "grid": (256, {"type": int, "help": "samples per axis"}),
    "window": ("-1,1,-1,1", {"help": "xmin,xmax,ymin,ymax"}),
    "radius": (0.5, {"type": float, "help": "initial contour radius"}),
    "points": (1024, {"type": int, "help": "contour seed points"}),
    "from_grid": (False, {"action": "store_const", "const": True,
                          "help": "extract the level set from a sampled grid, not advect"}),
    "steps": (10000, {"type": int, "help": f"integrator steps, at most {MAX_STEPS}"}),
    "seed": (DEFAULT_SEED, {"type": int}),
    "sign": (1, {"type": int, "choices": [1, -1], "help": "generator sign"}),
    "s_range": ("0,1", {"help": "smin,smax"}),
    "s_samples": (101, {"type": int}),
    "format": (None, {}),  # choices: the command's _FORMATS
    "out": ("out", {"help": "output directory"}),
}

# command -> the formats it writes, its default first
_FORMATS = {"freq": ("csv",), "evolve": ("json", "csv"), "contour": ("svg", "csv")}

_LAW = ("q", "omega", "profile", "kind", "chi")
_SNAPSHOT = _LAW + ("alpha0_re", "alpha0_im", "tau", "grid", "window", "out")
_CONTOUR = _SNAPSHOT + ("radius", "points", "from_grid")

# command -> (help, the keys its handler reads in some mode): its flags and
# the only keys its --config file may hold
COMMANDS = {
    "freq": ("tabulate Omega(s)/omega for a frequency law",
             _LAW + ("s_range", "s_samples", "out")),
    "evolve": ("write distribution snapshots per tau", _SNAPSHOT + ("format",)),
    "contour": ("write advected contours per tau", _CONTOUR + ("format",)),
    "verify": ("run the certification suite",
               ("q", "mass", "omega", "hbar", "steps", "seed", "sign")),
    # the figure preset fixes the law and the format
    "reproduce": ("emit a standard figure panel set",
                  tuple(k for k in _CONTOUR if k not in ("profile", "kind"))),
}


@dataclass
class RunConfig:
    """Fully resolved invocation: what to run and with which parameters."""

    command: str
    params: OscillatorParams
    profile: FrequencyProfile
    center: complex
    taus: list[float]
    grid: GridSpec
    radius: float
    points: int
    steps: int
    fmt: str | None
    out: Path
    seed: int
    sign: int
    s_range: tuple[float, float]
    s_samples: int
    from_grid: bool
    figure: str | None = None

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "q": self.params.q,
            "mass": self.params.mass,
            "omega": self.params.omega,
            "hbar": self.params.hbar,
            "kind": kind_for_profile(self.profile).value,
            "profile": self.profile.selector.value,
            "chi": self.profile.chi,
            "alpha0": [self.center.real, self.center.imag],
            "tau": list(self.taus),
            "grid": asdict(self.grid),
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


def _keywords(command, key):
    """add_argument keywords of the flag --key of command; only --format differs."""
    return {"choices": _FORMATS[command]} if key == "format" else _FLAGS[key][1]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call.

    Parsing leaves it unchanged: each parse fills a fresh namespace, and the
    repeatable --tau starts from a None default, never a shared list.
    """
    parser = argparse.ArgumentParser(
        prog="qwhorl",
        description="Phase-space transport of the q-deformed classical oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, keys) in COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        if command == "reproduce":
            sp.add_argument("figure", choices=sorted(FIGURE_PRESETS))
        for key in keys:
            sp.add_argument("--" + key.replace("_", "-"), dest=key, **_keywords(command, key))
        sp.add_argument("--config", help="JSON file with defaults; flags override")
    return parser


def _pair(parser, text, flag):
    """Comma-separated finite floats; anything else exits 2."""
    try:
        values = [float(tok) for tok in text.split(",")]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    parser.error(f"{flag}: expected comma-separated finite numbers, got {text!r}")


def _number(parser, resolved, key, cast=float):
    """resolved[key] converted by cast; a value of the wrong type, NaN or an
    infinity exits 2."""
    value = resolved[key]
    try:
        number = cast(value)
        if cast is int or math.isfinite(number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if cast is int else "a finite number"
    parser.error(f"--{key.replace('_', '-')}: expected {what}, got {value!r}")


def _tau_label(tau: float) -> str:
    return format(tau, ".10g")


def _taus(parser, value):
    """The tau list as finite floats with distinct file labels; a scalar, an
    empty list, a non-numeric or non-finite entry, or two taus sharing a label
    exits 2."""
    taus = None
    if isinstance(value, (list, tuple)):
        try:
            taus = [float(t) for t in value]
        except (TypeError, ValueError):
            pass
    if taus is None or not all(map(math.isfinite, taus)):
        parser.error(f"--tau: expected a list of finite numbers, got {value!r}")
    if not taus:
        parser.error("--tau: expected at least one value, got an empty list")
    seen = {}
    for tau in taus:
        label = _tau_label(tau)
        if label in seen:
            parser.error(f"--tau {seen[label]!r} and {tau!r} share the file label tau{label}")
        seen[label] = tau
    return taus


def parse_args(argv=None) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    command, figure = ns.command, getattr(ns, "figure", None)
    keys = COMMANDS[command][1]

    resolved = {key: default for key, (default, _) in _FLAGS.items()}
    if ns.config:
        try:
            loaded = json.loads(Path(ns.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"--config: cannot read {ns.config}: {exc}")
        if not isinstance(loaded, dict):
            parser.error(f"--config: {ns.config} must hold a JSON object")
        unread = set(loaded) - set(keys)
        if unread:
            parser.error(f"--config: {command} reads no keys {sorted(unread)}")
        for key, value in loaded.items():  # flags meet their choices in argparse
            choices = _keywords(command, key).get("choices")
            if choices and value not in choices:
                parser.error(f"--config: {key} must be one of {list(choices)}, got {value!r}")
        resolved.update(loaded)
    for key in keys:
        value = getattr(ns, key)
        if value is not None:
            resolved[key] = value
    if figure is not None:
        resolved["profile"], resolved["format"] = FIGURE_PRESETS[figure]

    q, mass, omega, hbar, chi, radius, alpha0_re, alpha0_im = (
        _number(parser, resolved, key)
        for key in ("q", "mass", "omega", "hbar", "chi", "radius", "alpha0_re", "alpha0_im")
    )
    n, points, steps, seed, sign, s_samples = (
        _number(parser, resolved, key, int)
        for key in ("grid", "points", "steps", "seed", "sign", "s_samples")
    )
    taus = _taus(parser, resolved["tau"])
    from_grid = bool(resolved["from_grid"])

    if not 0.0 < q < 1.0:
        parser.error("--q must lie in (0, 1)")
    for flag, value in (("mass", mass), ("omega", omega), ("hbar", hbar)):
        if value <= 0.0:
            parser.error(f"--{flag} must be positive")
    profile = FrequencyProfile(FrequencySelector(resolved["profile"]), chi=chi)
    kind = kind_for_profile(profile).value
    if resolved["kind"] not in (None, kind):
        law = profile.selector.value
        parser.error(f"--kind {resolved['kind']} does not match the {law} law, which is {kind}")
    params = OscillatorParams(q=q, mass=mass, omega=omega, hbar=hbar)
    window = _pair(parser, str(resolved["window"]), "--window")
    if len(window) != 4:
        parser.error("--window needs xmin,xmax,ymin,ymax")
    if n < 2:
        parser.error("--grid must be >= 2")
    if n * n > np.iinfo(np.intp).max:
        parser.error(f"--grid {n}: {n}x{n} nodes exceed numpy's index range")
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
    # the --from-grid level exp(-radius**2) is 0.0 beyond radius ~27.3 (and
    # radius**2 overflows far beyond it), and 1.0 below radius ~7.45e-9
    if from_grid and (radius > 28.0 or math.exp(-radius**2) == 0.0):
        parser.error(f"--radius {radius:g}: the --from-grid level exp(-radius^2) underflows to 0")
    if from_grid and math.exp(-radius**2) == 1.0:
        parser.error(f"--radius {radius:g}: the --from-grid level exp(-radius^2) rounds to 1")
    if points < 8:
        parser.error("--points must be >= 8")
    for flag, count in (("--s-samples", s_samples), ("--points", points)):
        if count > np.iinfo(np.intp).max:
            parser.error(f"{flag} {count} exceeds numpy's index range")
    if steps < 1:
        parser.error("--steps must be >= 1")
    if steps > MAX_STEPS:
        parser.error(f"--steps must be <= {MAX_STEPS}")

    return RunConfig(
        command=command,
        params=params,
        profile=profile,
        center=complex(alpha0_re, alpha0_im),
        taus=taus,
        grid=grid,
        radius=radius,
        points=points,
        steps=steps,
        fmt=resolved["format"] or _FORMATS.get(command, (None,))[0],
        out=Path(str(resolved["out"])),
        seed=seed,
        sign=sign,
        s_range=(s_range[0], s_range[1]),
        s_samples=s_samples,
        from_grid=from_grid,
        figure=figure,
    )


def _out_path(cfg: RunConfig, name: str) -> Path:
    """cfg.out / name, creating cfg.out first, so that a request that fails
    before its first write leaves no directory behind."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg.out / name


def _write_manifest(cfg: RunConfig, outputs: list[dict], stem: str):
    """Write <stem>_manifest.json; a reproduce run names it after its figure."""
    manifest = {"command": cfg.command, "config": cfg.to_dict(), "outputs": outputs}
    if cfg.figure is not None and FIGURE_PRESETS[cfg.figure][0] == "anharmonic":
        manifest["notes"] = {"chi": "chi=1.0 is a tool default; the scenario fixes only the law shape"}
    write_json(manifest, _out_path(cfg, f"{cfg.figure or stem}_manifest.json"))


def _output_entry(path: Path, tau: float | None = None) -> dict:
    entry = {"file": path.name}
    if tau is not None:
        entry["tau"] = tau
        entry["tau_over_pi"] = tau / math.pi
    return entry


def cmd_freq(cfg: RunConfig) -> int:
    s = np.linspace(cfg.s_range[0], cfg.s_range[1], cfg.s_samples)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are rejected below
        ratio = np.asarray(frequency(s, cfg.params, cfg.profile)) / cfg.params.omega
    if not np.isfinite(ratio).all():
        raise ValueError(f"Omega(s) is not finite on s in [{s[0]:g}, {s[-1]:g}]")
    path = _out_path(cfg, f"freq_{cfg.profile.selector.value}.csv")
    write_csv({"s": s, "omega_ratio": ratio}, path)
    _write_manifest(cfg, [_output_entry(path)], "freq")
    print(path)
    return EXIT_OK


def cmd_evolve(cfg: RunConfig) -> int:
    state = GaussianState(cfg.center, cfg.profile, cfg.params)
    stem = cfg.figure or "snap"
    outputs = []
    for tau in cfg.taus:
        t = tau / cfg.params.omega
        fld = sample_grid(state, t, cfg.grid)
        path = _out_path(cfg, f"{stem}_tau{_tau_label(tau)}.{cfg.fmt}")
        if cfg.fmt == "json":
            write_json(field_snapshot(fld, tau, cfg.to_dict()), path)
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
        traces = extract_level_set(sample_grid(state, t, cfg.grid), level)
        if not traces:
            print(
                f"warning: empty panel at tau = {_tau_label(tau)}: the level set"
                f" exp(-r^2) = {level:.6g} is below the resolution of the"
                f" {cfg.grid.nx}x{cfg.grid.ny} grid; try a larger --grid or --radius",
                file=sys.stderr,
            )
        return traces
    return [advect_contour(state, t, radius=cfg.radius, n_points=cfg.points, refine=True)]


def cmd_contour(cfg: RunConfig) -> int:
    state = GaussianState(cfg.center, cfg.profile, cfg.params)
    stem = cfg.figure or "contour"
    desc = json.dumps(cfg.to_dict(), sort_keys=True)
    outputs = []
    for tau in cfg.taus:
        traces = _contour_traces(cfg, state, tau)
        if cfg.fmt == "svg":
            path = _out_path(cfg, f"{stem}_tau{_tau_label(tau)}.svg")
            write_svg(traces, cfg.grid, path, description=desc)
            outputs.append(_output_entry(path, tau))
            print(path)
        else:
            for k, trace in enumerate(traces):
                suffix = "" if len(traces) == 1 else f"_{k}"
                path = _out_path(cfg, f"{stem}_tau{_tau_label(tau)}{suffix}.csv")
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
    except MemoryError as exc:
        # a size inside numpy's index range can still be beyond memory
        sizes = {"grid": cfg.grid.nx, "points": cfg.points, "s_samples": cfg.s_samples,
                 "steps": cfg.steps}
        asked = ", ".join(f"--{key.replace('_', '-')} {value}"
                          for key, value in sizes.items() if key in COMMANDS[cfg.command][1])
        print(f"error: {cfg.command}: not enough memory for {asked}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OverflowError) as exc:
        # verify runs every law, so an overflow of q-constants names its own
        law = exc.law if isinstance(exc, LawOverflowError) else cfg.profile.selector.value
        reason = "floating-point overflow" if isinstance(exc, OverflowError) else exc
        print(f"error: {law} law at q = {cfg.params.q:g}: {reason}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
