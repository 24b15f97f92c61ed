"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

For each workload it runs a stream of tiny requests through the same
measuring code as run.py and proves that every metric BENCHMARK.json names is
emitted with its unit, that two traced runs of the same requests report
identical counts, and that the output checks reject a corrupted output.
Exits 0 when every step passes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import shutil
import sys
from pathlib import Path

import checks
import mixes
import run
from run import OUT, ROOT, WORK

TINY = {
    "snapshot": [
        mixes.Request("evolve", "mu1", q=0.5, centre=0.3 + 0.2j, taus=(1.0,), grid=16,
                      fmt="json", check_seed=1),
        mixes.Request("evolve", "mu2", q=0.3, centre=-0.2j, taus=(2.0,), grid=16,
                      fmt="csv", check_seed=2),
    ],
    "whorl": [
        mixes.Request("contour", "anharmonic", q=0.5, centre=0.5, taus=(8 * math.pi,),
                      fmt="svg", radius=0.5),
        mixes.Request("contour", "mu1", q=0.2, centre=0.4j, taus=(math.pi,), fmt="csv",
                      radius=0.4),
        mixes.Request("contour", "mu2", q=0.5, centre=0.5, taus=(math.pi,), grid=32,
                      fmt="csv", radius=0.5, from_grid=True),
    ],
    "certify": [
        mixes.Request("verify", "mu1", q=0.25, centre=0j, taus=(), verify_seed=1),
    ],
}


def _fail(message: str):
    raise SystemExit(f"smoke: FAIL {message}")


def _declared() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _same_names(result: dict, declared: dict, what: str):
    emitted = {name: unit for name, (value, unit) in result["metrics"].items()}
    if emitted != declared:
        _fail(f"{what}: emitted {emitted} but BENCHMARK.json declares {declared}")
    if not result["correct"] or result["failed"]:
        _fail(f"{what}: run not correct ({result['failed']} failed)")


def check_metrics(cli):
    end_to_end, per_layer = _declared()
    layer_map = json.loads((run.HERE / "meta.json").read_text(encoding="utf-8"))["layer_map"]
    if set(layer_map) != set(per_layer):
        _fail(f"meta.json layer_map differs from per_layer: {set(layer_map) ^ set(per_layer)}")
    for workload, tiny in TINY.items():
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.run_untraced(cli, workload, 1, 0.01, itertools.cycle(tiny))
        _same_names(result, end_to_end, f"{workload} --trace 0")
        counts = []
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.run_traced(cli, workload, 1, 0.01, itertools.cycle(tiny), len(tiny))
            _same_names(result, per_layer, f"{workload} --trace 1")
            counts.append({k: v for k, (v, u) in result["metrics"].items() if u in ("count", "bytes")})
        if counts[0] != counts[1]:
            _fail(f"{workload}: counts differ between two traced runs")
        print(f"smoke: {workload}: every metric emitted with its unit; counts repeat")


def _produce(cli, req: mixes.Request) -> tuple[int, str]:
    shutil.rmtree(OUT, ignore_errors=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(req.argv(str(OUT)))
    return code, stdout.getvalue()


def _rewrite(path: Path, change):
    path.write_text(change(path.read_text(encoding="utf-8")), encoding="utf-8")


def _one(directory: Path, suffix: str) -> Path:
    return next(p for p in sorted(directory.iterdir()) if p.suffix == suffix
                and not p.name.endswith("_manifest.json"))


def _scale_json_values(text: str) -> str:
    snap = json.loads(text)
    snap["values"] = [v * 0.999 for v in snap["values"]]
    return json.dumps(snap)


def _nudge_first_vertex(text: str) -> str:
    head, first, rest = text.split("\n", 2)
    x, y = first.split(",")
    return "\n".join([head, f"{float(x) + 1e-6!r},{y}", rest])


CORRUPTIONS = [
    ("snapshot JSON values scaled", TINY["snapshot"][0], ".json", _scale_json_values),
    ("snapshot CSV row dropped", TINY["snapshot"][1], ".csv",
     lambda t: "\n".join(t.split("\n")[:-2]) + "\n"),
    ("whorl SVG contour left open", TINY["whorl"][0], ".svg", lambda t: t.replace(' Z"', '"')),
    ("whorl CSV vertex moved", TINY["whorl"][1], ".csv", _nudge_first_vertex),
]


def check_rejects_corruption(cli):
    for what, req, suffix, change in CORRUPTIONS:
        code, _ = _produce(cli, req)
        if code != 0:
            _fail(f"{what}: tiny request exited {code}")
        checks.check_files(req, OUT)
        _rewrite(_one(OUT, suffix), change)
        try:
            checks.check_files(req, OUT)
        except checks.CheckError as exc:
            print(f"smoke: rejected {what}: {exc}")
        else:
            _fail(f"{what}: corrupted output accepted")
    code, table = _produce(cli, TINY["certify"][0])
    checks.check_verify(code, table)
    rows = table.split("\n")
    for what, bad_code, bad_table in (
        ("verify exit code 3 with no FAIL row", 3, table),
        ("verify table with a row missing", code, "\n".join(rows[:2] + rows[3:])),
    ):
        try:
            checks.check_verify(bad_code, bad_table)
        except checks.CheckError as exc:
            print(f"smoke: rejected {what}: {exc}")
        else:
            _fail(f"{what}: accepted")


def main() -> int:
    os.chdir(ROOT)
    cli = run.load_cli()
    try:
        check_rejects_corruption(cli)
        check_metrics(cli)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
