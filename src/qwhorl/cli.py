"""Command-line front end.

Subcommands: freq (frequency-law tables), evolve (distribution snapshots),
contour (advected or grid-extracted level sets), verify (the certification
suite), and reproduce (one-shot standard figure scenarios).  A subcommand
takes only the flags its handler reads (``COMMANDS``), and its ``--config``
file only the same keys, each turned into its flag's text and parsed by the
same subparser before the command line's flags override it.  Each numeric
flag's type (``_FLAGS``) takes only the values the flag allows, so a value
from either source that it refuses exits 2 as ``argument --flag: expected
<what>, got '<text>'``; ``parse_args`` checks only what combines flags.
Every refusal of a command comes from that command's subparser, so its
error lines carry one program name, ``qwhorl <command>: error:``.
The law fixes the deformation kind, so ``--kind`` is only a check against
it.  Exit codes: 0 success, 2 configuration error, 3 verification failure,
4 I/O failure.  Every run drops a manifest whose ``config`` is the resolved
``RunConfig``, field for field, and file names are pure functions of that
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
    LawError,
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
from .liouville import GaussianState, advect_contour, refinement_limit
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


def _checked(convert, what, ok=lambda value: True):
    """A flag's argparse type: convert(text) if its numbers are all finite and
    ok holds for it, else the error "expected <what>, got '<text>'"."""

    def check(text):
        try:
            value = convert(text)
            numbers = value if isinstance(value, list) else [value]
            # NaN compares false, and an int of any size compares exactly
            if all(-math.inf < v < math.inf for v in numbers) and ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return check


def _integer(least, most):
    return _checked(int, f"an integer in [{least}, {most}]", lambda n: least <= n <= most)


def _floats(text) -> list[float]:
    return [float(tok) for tok in text.split(",")]


_NUMBER = _checked(float, "a finite number")
_POSITIVE = _checked(float, "a finite number > 0", lambda v: v > 0)
# the most bytes numpy can address: a size flag's array must fit
_INTP_MAX = int(np.iinfo(np.intp).max)

# key -> (default, keywords of its flag --key, with - for _)
_FLAGS = {
    "q": (0.5, {"type": _checked(float, "a number in (0, 1)", lambda q: 0 < q < 1),
                "help": "deformation parameter in (0, 1)"}),
    "mass": (1.0, {"type": _POSITIVE}),
    "omega": (1.0, {"type": _POSITIVE}),
    "hbar": (1.0, {"type": _POSITIVE}),
    "profile": ("mu1", {"choices": [s.value for s in FrequencySelector]}),
    "kind": (None, {"choices": [k.value for k in DeformationKind], "help": "must match the law"}),
    "chi": (1.0, {"type": _NUMBER, "help": "anharmonic strength"}),
    "alpha0_re": (0.5, {"type": _NUMBER}),
    "alpha0_im": (0.0, {"type": _NUMBER}),
    "tau": (PANEL_TAUS, {"type": _NUMBER, "action": "append", "help": "repeatable snapshot time"}),
    # 8 bytes, one float64 value, per node of the N x N grid
    "grid": (256, {"type": _integer(2, math.isqrt(_INTP_MAX // 8)), "help": "samples per axis"}),
    "window": ((-1.0, 1.0, -1.0, 1.0), {"type": _checked(_floats, "4 comma-separated finite numbers",
                                                         lambda v: len(v) == 4),
                                        "help": "xmin,xmax,ymin,ymax"}),
    "radius": (0.5, {"type": _POSITIVE, "help": "initial contour radius"}),
    # 16 bytes, one complex128, per point or sample
    "points": (1024, {"type": _integer(8, _INTP_MAX // 16), "help": "contour seed points"}),
    "from_grid": (False, {"action": argparse.BooleanOptionalAction,
                          "help": "extract the level set from a sampled grid, not advect"}),
    "steps": (10000, {"type": _integer(1, MAX_STEPS), "help": f"integrator steps, at most {MAX_STEPS}"}),
    "seed": (DEFAULT_SEED, {"type": _checked(int, "an integer >= 0", lambda n: n >= 0)}),
    "sign": (1, {"type": _checked(int, "1 or -1", lambda n: n in (1, -1)),
                 "help": "generator sign, 1 or -1"}),
    "s_range": ((0.0, 1.0), {"type": _checked(_floats, "smin,smax with 0 <= smin < smax",
                                              lambda v: len(v) == 2 and 0 <= v[0] < v[1]),
                             "help": "smin,smax"}),
    "s_samples": (101, {"type": _integer(2, _INTP_MAX // 16)}),
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
    """Fully resolved invocation; its fields are the manifest's config keys."""

    command: str
    q: float
    mass: float
    omega: float
    hbar: float
    kind: str
    profile: str
    chi: float
    alpha0: list[float]
    tau: list[float]
    grid: GridSpec
    radius: float
    points: int
    steps: int
    format: str | None
    out: str
    seed: int
    sign: int
    s_range: list[float]
    s_samples: int
    from_grid: bool
    figure: str | None

    @property
    def params(self) -> OscillatorParams:
        return OscillatorParams(q=self.q, mass=self.mass, omega=self.omega, hbar=self.hbar)

    @property
    def law(self) -> FrequencyProfile:
        return FrequencyProfile(self.profile, chi=self.chi)

    @property
    def center(self) -> complex:
        return complex(*self.alpha0)

    def to_dict(self) -> dict:
        return asdict(self)


def _keywords(command, key):
    """add_argument keywords of the flag --key of command; only --format differs."""
    return {"choices": _FORMATS[command]} if key == "format" else _FLAGS[key][1]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call.

    Parsing leaves it unchanged: each parse fills a fresh namespace, and the
    repeatable --tau starts from a None default, never a shared list.  Its
    ``commands`` are the subparsers action's choices, command -> subparser,
    so that a command's refusals carry its own program name and usage.
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
    parser.commands = sub.choices
    return parser


def _tau_label(tau: float) -> str:
    return format(tau, ".10g")


def _is_text(value) -> bool:
    """A JSON number or string, which --config reads as its flag's text."""
    return isinstance(value, (int, float, str)) and not isinstance(value, bool)


def _config_argv(refuse, path, command) -> list[str]:
    """The --config file at path as command-line text: --key=value for a
    number or a string, one --tau=v per entry of the tau list, and
    --from-grid or --no-from-grid for true or false.  Any other value is
    refused naming its flag, through refuse, the command's parser.error."""
    try:
        loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        refuse(f"--config: cannot read {path}: {exc}")
    if not isinstance(loaded, dict):
        refuse(f"--config: {path} must hold a JSON object")
    unread = set(loaded) - set(COMMANDS[command][1])
    if unread:
        refuse(f"--config: {command} reads no keys {sorted(unread)}")
    argv = []
    for key, value in loaded.items():
        flag = "--" + key.replace("_", "-")
        if key == "from_grid" and isinstance(value, bool):
            argv.append(flag if value else "--no-" + flag[2:])
        elif key == "tau" and isinstance(value, list) and all(map(_is_text, value)):
            if not value:
                refuse(f"{flag}: expected at least one value, got an empty list")
            argv += [f"{flag}={v}" for v in value]
        elif key not in ("from_grid", "tau") and _is_text(value):
            argv.append(f"{flag}={value}")
        else:
            what = {"from_grid": "true or false", "tau": "a list of numbers"}
            refuse(f"argument {flag}: expected {what.get(key, 'a number or a string')},"
                   f" got {json.dumps(value)}")
    return argv


def parse_args(argv=None) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    command, figure = ns.command, getattr(ns, "figure", None)
    keys, refuse = COMMANDS[command][1], parser.commands[command].error

    # the --config file is parsed as flags too, and the command line's win
    layers = [ns]
    if ns.config:
        head = [command] + ([figure] if figure else [])
        layers.insert(0, parser.parse_args(head + _config_argv(refuse, ns.config, command)))
    r = {key: default for key, (default, _) in _FLAGS.items()}  # key -> resolved value
    for layer in layers:
        r.update((key, value) for key in keys if (value := getattr(layer, key)) is not None)
    if figure is not None:
        r["profile"], r["format"] = FIGURE_PRESETS[figure]

    r["tau"], r["s_range"] = [float(tau) for tau in r["tau"]], list(r["s_range"])
    seen = {}
    for tau in r["tau"]:
        label = _tau_label(tau)
        if label in seen:
            refuse(f"--tau {seen[label]!r} and {tau!r} share the file label tau{label}")
        seen[label] = tau

    kind = kind_for_profile(FrequencyProfile(r["profile"])).value
    if r["kind"] not in (None, kind):
        refuse(f"--kind {r['kind']} does not match the {r['profile']} law, which is {kind}")
    r["kind"] = kind
    try:
        r["grid"] = GridSpec(*r.pop("window"), r["grid"], r["grid"])
    except ValueError as exc:
        refuse(f"--window: {exc}")
    radius, from_grid = r["radius"], r["from_grid"]
    # the --from-grid level exp(-radius**2) is 0.0 beyond radius ~27.3 (and
    # radius**2 overflows far beyond it), and 1.0 below radius ~7.45e-9
    if from_grid and (radius > 28.0 or math.exp(-radius**2) == 0.0):
        refuse(f"--radius {radius:g}: the --from-grid level exp(-radius^2) underflows to 0")
    if from_grid and math.exp(-radius**2) == 1.0:
        refuse(f"--radius {radius:g}: the --from-grid level exp(-radius^2) rounds to 1")
    # an advected contour starts on the seed circle about alpha0
    r["alpha0"] = [r.pop("alpha0_re"), r.pop("alpha0_im")]
    advected = not from_grid and (command == "contour" or r["format"] == "svg")
    if advected and not math.isfinite(math.hypot(*r["alpha0"]) + radius):
        refuse(f"--radius {radius:g}: the seed circle about --alpha0-re {r['alpha0'][0]:g},"
               f" --alpha0-im {r['alpha0'][1]:g} overflows the doubles")

    r["format"] = r["format"] or _FORMATS.get(command, (None,))[0]
    r["out"] = str(Path(r["out"]))
    return RunConfig(command=command, figure=figure, **r)


def _out_path(cfg: RunConfig, name: str) -> Path:
    """cfg.out / name, creating cfg.out first, so that a request that fails
    before its first write leaves no directory behind."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


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
        ratio = np.asarray(frequency(s, cfg.params, cfg.law)) / cfg.omega
    if not np.isfinite(ratio).all():
        reason = f"Omega(s) is not finite on s in [{s[0]:g}, {s[-1]:g}]"
        raise LawError(cfg.profile, cfg.q, reason)
    path = _out_path(cfg, f"freq_{cfg.profile}.csv")
    write_csv({"s": s, "omega_ratio": ratio}, path)
    _write_manifest(cfg, [_output_entry(path)], "freq")
    print(path)
    return EXIT_OK


def cmd_evolve(cfg: RunConfig) -> int:
    state = GaussianState(cfg.center, cfg.law, cfg.params)
    stem = cfg.figure or "snap"
    outputs = []
    for tau in cfg.tau:
        t = tau / cfg.omega
        fld = sample_grid(state, t, cfg.grid)
        path = _out_path(cfg, f"{stem}_tau{_tau_label(tau)}.{cfg.format}")
        if cfg.format == "json":
            write_json(field_snapshot(fld, tau, cfg.to_dict()), path)
        else:
            write_csv(fld, path)
        outputs.append(_output_entry(path, tau))
        print(path)
    _write_manifest(cfg, outputs, "evolve")
    return EXIT_OK


def _contour_traces(cfg: RunConfig, state: GaussianState, tau: float):
    t = tau / cfg.omega
    if cfg.from_grid:
        level = math.exp(-cfg.radius**2)
        traces = extract_level_set(sample_grid(state, t, cfg.grid), level)
        if not traces:
            # the fewest digits, at least 6, that do not round the level up to 1
            shown = next(text for n in range(6, 18) if (text := f"{level:.{n}g}") != "1")
            print(
                f"warning: empty panel at tau = {_tau_label(tau)}: the level set"
                f" exp(-r^2) = {shown} is below the resolution of the"
                f" {cfg.grid.nx}x{cfg.grid.ny} grid; try a larger --grid or --radius",
                file=sys.stderr,
            )
        # the seed circle's actions, and so its image's, stay in |z| <= reach:
        # inside the window, the exact level set is one closed curve
        reach, grid = math.hypot(*cfg.alpha0) + cfg.radius, cfg.grid
        inside = grid.xmin <= -reach <= reach <= grid.xmax and grid.ymin <= -reach <= reach <= grid.ymax
        if inside and traces and (len(traces) > 1 or not traces[0].closed):
            pieces = f"{len(traces)} traces" if len(traces) > 1 else "an open trace"
            print(
                f"warning: split panel at tau = {_tau_label(tau)}: the level set is one closed"
                f" curve, drawn as {pieces} on the {grid.nx}x{grid.ny} grid; try a larger --grid",
                file=sys.stderr,
            )
        return traces
    trace = advect_contour(state, t, radius=cfg.radius, n_points=cfg.points)
    widest = np.abs(np.diff(trace.points, append=trace.points[:1])).max()
    limit = refinement_limit(cfg.radius, cfg.points)
    if widest > limit:  # refinement stopped at MAX_SEEDS
        print(
            f"warning: unresolved contour at tau = {_tau_label(tau)}: its {len(trace)} points"
            f" leave gaps up to {widest:.3g}, wider than the refinement limit {limit:.3g}",
            file=sys.stderr,
        )
    return [trace]


def cmd_contour(cfg: RunConfig) -> int:
    state = GaussianState(cfg.center, cfg.law, cfg.params)
    stem = cfg.figure or "contour"
    desc = json.dumps(cfg.to_dict(), sort_keys=True)
    outputs = []
    for tau in cfg.tau:
        traces = _contour_traces(cfg, state, tau)
        if cfg.format == "svg":
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
    return cmd_contour(cfg) if cfg.format == "svg" else cmd_evolve(cfg)


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
    except (ValueError, OverflowError) as exc:  # a failed law names itself (LawError)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
