"""qwhorl request benchmark: closed-loop, single-client request streams.

Usage (from the repository root):

    python3 perfbench/run.py --workload snapshot|whorl|certify --seed N \
        --seconds S --trace 0|1

Requests are generated from --seed (see mixes.py) and sent in process through
the public entry point qwhorl.cli.main(argv), one at a time: the next request
is sent only after the previous one returned and its outputs were checked
(checks.py).  Outputs go to .perfbench_work/ under the repository root, which
is removed at the end.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the package's
public functions (tracing.py) and prints per-layer metrics over passes of a
fixed request set.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import time

# Set-up probes time from here, so the numpy and qwhorl imports count.
T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import mixes  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Relative to ROOT: the path is written into manifests and JSON snapshots, so
# it must not vary between runs or byte counts would not repeat.
WORK = Path(".perfbench_work")
OUT = WORK / "out"
SETUP_PROBES = 3
TAIL_BEYOND = 10
MIN_TRACE_PASSES = 2
PROBE_TIMEOUT_S = 150


def load_cli():
    """Import qwhorl.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "qwhorl" / "__init__.py").is_file():
        raise SystemExit(f"error: no qwhorl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qwhorl
    import qwhorl.cli

    if Path(qwhorl.__file__).resolve().parent != SRC / "qwhorl":
        raise SystemExit(f"error: imported qwhorl from {qwhorl.__file__}, not {SRC}")
    return qwhorl.cli


@dataclass
class Outcome:
    latency_s: float
    error: str | None = None
    failed_rows: int = 0


def send(cli, req: mixes.Request, tracer=None) -> Outcome:
    """One request: call cli.main, time it, then check what it produced."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = req.argv(str(OUT))
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call("cli.main", cli.main, argv)
            finally:
                latency = time.perf_counter() - t0
        outcome = Outcome(latency)
        if req.command == "verify":
            outcome.failed_rows = checks.check_verify(code, stdout.getvalue())
        elif code != 0:
            outcome.error = f"exit code {code}: {stderr.getvalue().strip()}"
        else:
            checks.check_files(req, OUT)
    except checks.CheckError as exc:
        outcome.error = f"check failed: {exc}"
    except Exception:  # a crash inside the package is a failed request
        outcome = Outcome(time.perf_counter() - t0, traceback.format_exc(limit=3))
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    return outcome


class Tally:
    """Attempted and failed requests; the first few failures are reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, req: mixes.Request, outcome: Outcome) -> bool:
        self.attempted += 1
        if outcome.error is None:
            return True
        self.failed += 1
        if self.failed <= 3:
            print(f"FAILED {' '.join(req.argv(str(OUT)))}\n  {outcome.error}", file=sys.stderr)
        return False


def probe(workload: str, seed: int) -> int:
    """Set-up probe, run in a fresh process: imports plus the first, cold request."""
    cli = load_cli()
    req = next(mixes.stream(workload, seed))
    before = time.perf_counter()
    outcome = send(cli, req)
    if outcome.error is not None:
        print(outcome.error, file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": before - T_START + outcome.latency_s}))
    return 0


def measure_setup(workload: str, seed: int) -> float:
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_untraced(cli, workload: str, seed: int, seconds: float, stream=None) -> dict:
    """End-to-end metrics.  A test may pass its own request stream."""
    setup_s = measure_setup(workload, seed)
    tally = Tally()
    stream = stream or mixes.stream(workload, seed)
    warm = next(stream)
    tally.add(warm, send(cli, warm))  # checked, not timed: set-up covers it
    outcomes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        req = next(stream)
        outcome = send(cli, req)
        tally.add(req, outcome)
        outcomes.append(outcome)
    # Statistics over whole cycles only, so every run weighs each request
    # template equally whatever the seed; a run shorter than one cycle uses
    # what it has.
    cycle = mixes.cycle_length(workload)
    whole = outcomes[: len(outcomes) // cycle * cycle] or outcomes
    latencies = [o.latency_s for o in whole if o.error is None]
    if not latencies:
        raise SystemExit("error: no request succeeded")
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "request_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "request_tail_ms": (tail_s * 1e3, "ms"),
        "throughput_rps": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"{workload}: closed loop, 1 client, {tally.attempted} requests attempted, "
          f"{tally.failed} failed, failed_ratio {tally.failed / tally.attempted:.4g}")
    print(f"{workload}: request_tail_ms is p{tail_pct:.2f} of {len(latencies)} timed requests "
          f"({min(TAIL_BEYOND, len(latencies) - 1)} beyond it)")
    for name, (value, unit) in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {unit}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def run_traced(cli, workload: str, seed: int, seconds: float, stream=None, size=None) -> dict:
    """Per-layer metrics over passes of a fixed request set (one full cycle
    of the workload's templates unless a test passes its own stream and set
    size), each request once untraced and once traced, alternating which goes
    first.  Counts must repeat exactly from pass to pass."""
    tracer = Tracer()
    tally = Tally()
    stream = stream or mixes.stream(workload, seed)
    warm = next(stream)
    tally.add(warm, send(cli, warm))
    request_set = [next(stream) for _ in range(size or mixes.cycle_length(workload))]
    passes, plain, traced = [], [], []
    start = time.perf_counter()
    while len(passes) < MIN_TRACE_PASSES or time.perf_counter() - start < seconds:
        for req in request_set:
            order = (False, True) if len(passes) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    with tracer.patched():
                        outcome = send(cli, req, tracer)
                else:
                    outcome = send(cli, req)
                if tally.add(req, outcome):
                    (traced if with_trace else plain).append(outcome.latency_s)
                if with_trace and not passes and req.command == "verify":
                    print(f"{workload}: verify --q {req.q:.4f}: {outcome.failed_rows} FAIL rows")
        passes.append(layer_metrics(tracer))
        tracer.reset()
    counts = [k for k, v in passes[0].items() if isinstance(v, int)]
    repeat = all(p[k] == passes[0][k] for p in passes for k in counts)
    if not repeat:
        print("counts differ between passes of the same request set:", file=sys.stderr)
        for k in counts:
            print(f"  {k}: {[p[k] for p in passes]}", file=sys.stderr)
    metrics = {}
    for name in passes[0]:
        value = passes[0][name] if name in counts else statistics.median(p[name] for p in passes)
        metrics[name] = (value, _unit(name))
    ratio = (statistics.median(traced) / statistics.median(plain)) if plain and traced else 0.0
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    print(f"{workload}: {len(passes)} passes over {len(request_set)} requests; "
          f"counts repeat exactly: {repeat}")
    for name, (value, unit) in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {unit}")
    return {"correct": tally.failed == 0 and repeat, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=mixes.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.probe:
        return probe(args.workload, args.seed)
    cli = load_cli()
    try:
        measure = run_traced if args.trace else run_untraced
        result = measure(cli, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
