"""Seeded request streams for the three workloads.

A workload is a cycle of request templates.  Each cycle holds every template
once, in an order the seed shuffles, so every run carries the same mix of
request sizes whatever the seed; the seed draws the order and every
continuous parameter (q, centre, tau values, radius, law, verify seed).
Keeping the mix fixed is what makes medians of different seeds comparable.

The first request of a stream is always an instance of the first template: it
is the cold request timed by the set-up probe, so its size must not depend on
the seed.  Whole cycles follow it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PI = math.pi
PANEL_TAUS = (PI / 2, PI, 3 * PI / 2, 2 * PI)
FIGURE_LAW = {
    "fig1": "anharmonic", "fig2": "mu1", "fig3": "mu2",
    "fig4": "anharmonic", "fig5": "mu1", "fig6": "mu2",
}
LAW_KIND = {
    "undeformed": "none", "anharmonic": "none",
    "mu1": "type1", "mu3": "type1", "mu2": "type2", "mu4": "type2",
}
Q_RANGE = (0.1, 0.95)
MAX_CENTRE = 0.7
# q values pinned into every certify cycle: at the seed commit the
# pde_residual[sigma=+1] check fails at q = 0.2 and passes at q = 0.25.
PINNED_Q = (0.2, 0.25)


@dataclass(frozen=True)
class Request:
    """One generated invocation plus what the output checks need to know."""

    command: str                 # reproduce | evolve | contour | verify
    law: str
    q: float
    centre: complex
    taus: tuple[float, ...]
    grid: int = 256
    fmt: str = "json"
    radius: float = 0.5
    figure: str | None = None
    from_grid: bool = False
    verify_seed: int | None = None
    check_seed: int = 0          # seeds the output checks' node sample
    explicit_taus: bool = True   # False: reproduce uses its panel times

    def argv(self, out: str) -> list[str]:
        # --flag=value: argparse would read a value such as -5e-05 as a flag
        if self.command == "verify":
            return ["verify", f"--q={self.q!r}", f"--seed={self.verify_seed}", "--sign=1"]
        head = ["reproduce", self.figure] if self.command == "reproduce" else [self.command]
        args = head + [f"--q={self.q!r}", f"--alpha0-re={self.centre.real!r}",
                       f"--alpha0-im={self.centre.imag!r}", f"--grid={self.grid}",
                       f"--out={out}"]
        if self.command != "reproduce":
            args += [f"--profile={self.law}", f"--kind={LAW_KIND[self.law]}",
                     f"--format={self.fmt}"]
        if self.command == "contour" or self.figure in ("fig1", "fig2", "fig3"):
            args.append(f"--radius={self.radius!r}")
        if self.from_grid:
            args.append("--from-grid")
        if self.explicit_taus:
            args += [f"--tau={tau!r}" for tau in self.taus]
        return args


def _centre(rng: random.Random) -> complex:
    r = MAX_CENTRE * math.sqrt(rng.random())
    phi = rng.uniform(0.0, 2.0 * PI)
    return complex(r * math.cos(phi), r * math.sin(phi))


def _taus(rng: random.Random, count: int, lo: float, hi: float) -> tuple[float, ...]:
    return tuple(sorted(rng.uniform(lo, hi) for _ in range(count)))


def _jitter(rng: random.Random, n: int) -> int:
    return n + rng.randint(-4, 4)


def _base(rng: random.Random) -> dict:
    return {"q": rng.uniform(*Q_RANGE), "centre": _centre(rng),
            "check_seed": rng.getrandbits(32)}


# Snapshot templates: (command, figure or law, grid, tau count, format).
# A tau count of 0 means the figure's four panel times.  JSON and CSV share
# the cycle so a speed-up to one emitter that slows the other shows.
_SNAPSHOT = (
    ("reproduce", "fig5", 256, 1, "json"),
    ("reproduce", "fig4", 384, 2, "json"),
    ("reproduce", "fig6", 512, 1, "json"),
    ("reproduce", "fig", 256, 0, "json"),
    ("evolve", "law", 448, 1, "json"),
    ("evolve", "law", 320, 3, "json"),
    ("evolve", "law", 256, 2, "csv"),
    ("evolve", "law", 384, 1, "csv"),
    ("evolve", "law", 512, 1, "csv"),
)


def _snapshot(rng: random.Random, template) -> Request:
    command, which, grid, count, fmt = template
    base = _base(rng)
    if command == "reproduce":
        figure = rng.choice(("fig4", "fig5", "fig6")) if which == "fig" else which
        explicit = count > 0
        taus = _taus(rng, count, PI / 2, 4 * PI) if explicit else PANEL_TAUS
        return Request("reproduce", FIGURE_LAW[figure], taus=taus, grid=_jitter(rng, grid),
                       fmt="json", figure=figure, explicit_taus=explicit, **base)
    law = rng.choice(sorted(LAW_KIND))
    return Request("evolve", law, taus=_taus(rng, count, PI / 2, 4 * PI),
                   grid=_jitter(rng, grid), fmt=fmt, **base)


# Whorl templates: (command, figure or law, tau count, tau range in units of
# pi, format, grid for --from-grid or None).  Long anharmonic whorls grow to
# tens of thousands of vertices and set the tail.
_WHORL = (
    ("reproduce", "fig2", 0, None, "svg", None),
    ("reproduce", "fig1", 0, None, "svg", None),
    ("reproduce", "fig3", 0, None, "svg", None),
    ("contour", "mu1", 2, (0.5, 2.0), "svg", None),
    ("contour", "mu2", 1, (2.0, 8.0), "csv", None),
    ("contour", "mu3", 1, (4.0, 16.0), "svg", None),
    ("contour", "mu4", 1, (0.5, 16.0), "csv", None),
    ("contour", "anharmonic", 1, (8.0, 16.0), "svg", None),
    ("contour", "anharmonic", 2, (0.5, 4.0), "csv", None),
    ("contour", "law", 1, (0.5, 2.0), "svg", 256),
    ("contour", "law", 1, (0.5, 2.0), "csv", 512),
    ("contour", "law", 1, (0.5, 2.0), "svg", 384),
)


def _whorl(rng: random.Random, template) -> Request:
    command, which, count, span, fmt, grid = template
    base = _base(rng)
    radius = rng.uniform(0.3, 0.6)
    if command == "reproduce":
        return Request("reproduce", FIGURE_LAW[which], taus=PANEL_TAUS, fmt="svg",
                       radius=radius, figure=which, explicit_taus=False, **base)
    law = which if which != "law" else rng.choice(("mu1", "mu2", "anharmonic"))
    taus = _taus(rng, count, span[0] * PI, span[1] * PI)
    if grid is None:
        return Request("contour", law, taus=taus, fmt=fmt, radius=radius, **base)
    return Request("contour", law, taus=taus, grid=_jitter(rng, grid), fmt=fmt,
                   radius=radius, from_grid=True, **base)


# Certify templates: the q stratum each request draws from.  Degenerate
# strata pin the q values that bracket the known low-q failure.
_CERTIFY = (
    (PINNED_Q[1], PINNED_Q[1]),
    (PINNED_Q[0], PINNED_Q[0]),
    (0.1, 0.3),
    (0.3, 0.5),
    (0.5, 0.75),
    (0.75, 0.95),
)


def _certify(rng: random.Random, stratum) -> Request:
    q = rng.uniform(*stratum)
    return Request("verify", "mu1", q=q, centre=0j, taus=(),
                   verify_seed=rng.randrange(1, 2**31), check_seed=rng.getrandbits(32))


_WORKLOADS = {
    "snapshot": (_SNAPSHOT, _snapshot),
    "whorl": (_WHORL, _whorl),
    "certify": (_CERTIFY, _certify),
}
WORKLOADS = tuple(_WORKLOADS)


def cycle_length(workload: str) -> int:
    return len(_WORKLOADS[workload][0])


def stream(workload: str, seed: int):
    """Endless request stream of a workload; the same seed gives the same stream.

    The first request is the warm-up and set-up request; whole cycles follow.
    """
    templates, make = _WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    yield make(rng, templates[0])
    while True:
        order = list(range(len(templates)))
        rng.shuffle(order)
        for k in order:
            yield make(rng, templates[k])
