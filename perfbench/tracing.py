"""Per-layer tracing by wrapping the package's public functions from outside.

Each wrapped function is replaced in every module namespace where callers
look it up (a `from .core import frequency` binding is patched in the
importing module), and restored when tracing ends.  Spans nest through a
stack of child-time accumulators, so a span's self time is its duration minus
the time of the wrapped calls it made.  Spans are aggregated per name as they
close instead of being stored: the certify workload makes ~10^5 scalar calls
per request.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "core", "dynamics", "liouville", "field", "verify")

# Core functions are split by call pattern: one array call versus many
# scalar calls are different costs and different optimisations.
_SPLIT = {"frequency", "deform", "deformation_f", "q_number", "canonical_to_complex",
          "complex_to_canonical", "hamiltonian_alpha"}


def _size(x) -> int:
    return x.size if isinstance(x, np.ndarray) else 1


# Counters recorded at layer boundaries: span name -> ((counter, amount), ...)
# where amount(args, result) is computed from the call, never timed.
_COUNTERS = {
    "core.frequency": (("core.frequency.points",
                        lambda a, r: a[0].size if isinstance(a[0], np.ndarray) else 0),),
    "dynamics.integrate_path": (("dynamics.rk4_steps", lambda a, r: len(r) - 1),),
    "liouville.evolved_distribution": (("liouville.evolved_distribution.points",
                                        lambda a, r: _size(a[0])),),
    "liouville.advect_points": (("liouville.advect_points.points", lambda a, r: _size(r)),),
    "liouville.advect_contour": (("liouville.contour.points_out", lambda a, r: len(r)),),
    "field.sample_grid": (("field.sample_grid.points", lambda a, r: r.values.size),),
    "field.extract_level_set": (("field.extract_level_set.vertices",
                                 lambda a, r: sum(len(t) for t in r)),),
    "field.write_json": (("field.write_json.bytes", lambda a, r: r),),
    "field.write_csv": (("field.write_csv.bytes", lambda a, r: r),),
    "field.write_svg": (("field.write_svg.bytes", lambda a, r: r),),
    "verify.run_full_suite": (("verify.checks", lambda a, r: len(r)),
                              ("verify.checks_failed",
                               lambda a, r: sum(1 for rep in r if not rep.passed))),
}

TARGETS = {
    "cli": ("parse_args",),
    "core": ("frequency", "deform", "deformation_f", "q_number", "inverse_q_number",
             "canonical_to_complex", "complex_to_canonical", "hamiltonian_alpha",
             "hamiltonian_alphaq"),
    "dynamics": ("integrate_path", "integrate_eom", "evolve_exact"),
    "liouville": ("evolved_distribution", "initial_distribution", "liouville_generator",
                  "pde_residual", "advect_points", "advect_contour", "circle_points",
                  "contour_length"),
    "field": ("sample_grid", "extract_level_set", "field_snapshot", "write_json",
              "write_csv", "write_svg"),
    "verify": ("run_full_suite", "poisson_bracket_fd", "verify_alphaq_bracket",
               "chain_identity_errors", "verify_f_derivative_identity",
               "verify_constants_of_motion", "format_reports", "all_passed"),
}


class Tracer:
    """Aggregated spans (calls, total ns, self ns per name) and counters."""

    def __init__(self):
        self.stack: list[int] = []
        self.spans: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def _close(self, name: str, t0: int):
        dt = time.perf_counter_ns() - t0
        child = self.stack.pop()
        if self.stack:
            self.stack[-1] += dt
        span = self.spans[name]
        span[0] += 1
        span[1] += dt
        span[2] += dt - child

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as a span named name (used for the request root)."""
        self.stack.append(0)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, t0)

    def wrap(self, name: str, fn, split: bool):
        stack, close, counts, clock = self.stack, self._close, self.counts, time.perf_counter_ns
        counters = _COUNTERS.get(name, ())
        array_name, scalar_name = name + ".array", name + ".scalar"

        def traced(*args, **kwargs):
            span = name
            if split:
                first = args[0] if args else None
                span = (array_name if isinstance(first, np.ndarray) and first.ndim
                        else scalar_name)
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span, t0)
            for counter, amount in counters:
                counts[counter] += amount(args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Replace every target in every layer namespace; restore on exit."""
        modules = {layer: importlib.import_module(f"qwhorl.{layer}") for layer in LAYERS}
        saved = []
        try:
            for layer, names in TARGETS.items():
                for fname in names:
                    original = getattr(modules[layer], fname)
                    traced = self.wrap(f"{layer}.{fname}", original, fname in _SPLIT)
                    for mod in modules.values():
                        if mod.__dict__.get(fname) is original:
                            saved.append((mod, fname, original))
                            setattr(mod, fname, traced)
            yield self
        finally:
            for mod, fname, original in reversed(saved):
                setattr(mod, fname, original)


def _calls(spans, prefix: str) -> int:
    return sum(v[0] for k, v in spans.items() if k == prefix or k.startswith(prefix + "."))


def _ms(ns: int) -> float:
    return ns / 1e6


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of everything traced since the last reset."""
    sp, c = tracer.spans, tracer.counts

    def self_ms(name):
        return _ms(sp[name][2]) if name in sp else 0.0

    def total_ms(name):
        return _ms(sp[name][1]) if name in sp else 0.0

    emit_bytes = sum(c.get(f"field.{w}.bytes", 0) for w in ("write_json", "write_csv", "write_svg"))
    emit_s = sum(self_ms(f"field.{w}") for w in ("write_json", "write_csv", "write_svg")) / 1e3
    advected = c.get("liouville.advect_points.points", 0)
    return {
        "cli.parse_args.ms": total_ms("cli.parse_args"),
        "cli.self_ms": self_ms("cli.main"),
        "core.frequency.array_calls": _calls(sp, "core.frequency.array"),
        "core.frequency.points": c.get("core.frequency.points", 0),
        "core.frequency.self_ms": self_ms("core.frequency.array"),
        "core.frequency.scalar_calls": _calls(sp, "core.frequency.scalar"),
        "core.deform.calls": _calls(sp, "core.deform"),
        "core.q_number.calls": _calls(sp, "core.q_number"),
        "core.canonical_to_complex.calls": _calls(sp, "core.canonical_to_complex"),
        "core.scalar.self_ms": sum((_ms(v[2]) for k, v in sp.items()
                                    if k.startswith("core.") and k.endswith(".scalar")), 0.0),
        "dynamics.integrate_path.calls": _calls(sp, "dynamics.integrate_path"),
        "dynamics.rk4_steps": c.get("dynamics.rk4_steps", 0),
        "dynamics.integrate_path.ms": total_ms("dynamics.integrate_path"),
        "dynamics.integrate_path.self_ms": self_ms("dynamics.integrate_path"),
        "liouville.evolved_distribution.points": c.get("liouville.evolved_distribution.points", 0),
        "liouville.evolved_distribution.self_ms": self_ms("liouville.evolved_distribution"),
        "liouville.advect_contour.calls": _calls(sp, "liouville.advect_contour"),
        "liouville.advect_contour.self_ms": self_ms("liouville.advect_contour"),
        "liouville.advect_points.points": advected,
        "liouville.contour.points_out": c.get("liouville.contour.points_out", 0),
        "liouville.refine.useful_ratio": (c.get("liouville.contour.points_out", 0) / advected
                                          if advected else 0.0),
        "liouville.pde_residual.self_ms": self_ms("liouville.pde_residual"),
        "field.sample_grid.points": c.get("field.sample_grid.points", 0),
        "field.sample_grid.self_ms": self_ms("field.sample_grid"),
        "field.extract_level_set.vertices": c.get("field.extract_level_set.vertices", 0),
        "field.extract_level_set.self_ms": self_ms("field.extract_level_set"),
        "field.field_snapshot.self_ms": self_ms("field.field_snapshot"),
        "field.write_json.bytes": c.get("field.write_json.bytes", 0),
        "field.write_json.self_ms": self_ms("field.write_json"),
        "field.write_csv.bytes": c.get("field.write_csv.bytes", 0),
        "field.write_csv.self_ms": self_ms("field.write_csv"),
        "field.write_svg.bytes": c.get("field.write_svg.bytes", 0),
        "field.write_svg.self_ms": self_ms("field.write_svg"),
        "field.emit.mb_per_s": emit_bytes / emit_s / 1e6 if emit_s else 0.0,
        "verify.run_full_suite.calls": _calls(sp, "verify.run_full_suite"),
        "verify.run_full_suite.self_ms": self_ms("verify.run_full_suite"),
        "verify.poisson_bracket_fd.calls": _calls(sp, "verify.poisson_bracket_fd"),
        "verify.poisson_bracket_fd.self_ms": self_ms("verify.poisson_bracket_fd"),
        "verify.checks": c.get("verify.checks", 0),
        "verify.checks_failed": c.get("verify.checks_failed", 0),
    }
