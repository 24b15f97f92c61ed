"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; under a plain run the test names serve the same purpose.  Every
tolerance is pinned here, not configurable.
"""

import json
import math
import random

import numpy as np

from qwhorl.cli import main
from qwhorl.core import (
    MU1,
    MU2,
    MU3,
    MU4,
    UNDEFORMED,
    DeformationKind,
    FrequencyProfile,
    OscillatorParams,
    complex_to_canonical,
    deform,
    frequency,
    q_number,
)
from qwhorl.dynamics import evolve_exact, integrate_eom, integrate_path
from qwhorl.field import GridSpec, extract_level_set, sample_grid
from qwhorl.liouville import (
    GaussianState,
    advect_contour,
    advect_points,
    circle_points,
    contour_length,
    evolved_distribution,
    initial_distribution,
    pde_residual,
)
from qwhorl.verify import (
    DEFAULT_SEED,
    _annulus_points,
    all_passed,
    canonical_field,
    chain_identity_errors,
    format_reports,
    poisson_bracket_fd,
    run_full_suite,
    verify_alphaq_bracket,
    verify_constants_of_motion,
    verify_f_derivative_identity,
)

TYPE1 = DeformationKind.TYPE1
TYPE2 = DeformationKind.TYPE2
PANEL_TAUS = [math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi]
ANHARMONIC = FrequencyProfile("anharmonic", chi=1.0)


def _criterion(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status}: {desc}  {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _protocol_states(params):
    center = complex(0.5)
    return [
        ("undeformed", GaussianState(center, UNDEFORMED, params)),
        ("mu1", GaussianState(center, MU1, params)),
        ("mu2", GaussianState(center, MU2, params)),
        ("anharmonic", GaussianState(center, ANHARMONIC, params)),
        ("mu3", GaussianState(deform(center, params, TYPE1), MU3, params)),
        ("mu4", GaussianState(deform(center, params, TYPE2), MU4, params)),
    ]


def test_criterion_01_cross_representation_frequency_identity():
    s = np.linspace(0.0, 2.0, 201)
    worst = 0.0
    for q in (0.1, 0.5, 0.9):
        params = OscillatorParams(q=q)
        for kind, mu_q, mu_a in ((TYPE1, MU3, MU1), (TYPE2, MU4, MU2)):
            ref = frequency(s, params, mu_a)
            rel = np.abs(frequency(q_number(s, params, kind), params, mu_q) - ref) / ref
            worst = max(worst, float(rel.max()))
    _criterion(
        1,
        "cross-representation frequency identity (201 s-values, q in {0.1,0.5,0.9})",
        worst <= 1e-12,
        f"max rel err {worst:.2e} <= 1e-12",
    )


def test_criterion_02_undeformed_limit():
    params = OscillatorParams(q=1.0 - 1e-8)
    s = np.linspace(0.0, 1.0, 101)
    worst_freq = max(
        float(np.abs(np.asarray(frequency(s, params, prof)) / params.omega - 1.0).max())
        for prof in (MU1, MU2, MU3, MU4)
    )
    grid = GridSpec.square(64).mesh_complex()
    t = math.pi / params.omega
    reference = evolved_distribution(grid, GaussianState(complex(0.5), UNDEFORMED, params), t)
    worst_dist = max(
        float(
            np.abs(
                evolved_distribution(grid, GaussianState(complex(0.5), prof, params), t)
                - reference
            ).max()
        )
        for prof in (MU1, MU2, MU3, MU4)
    )
    ok = worst_freq <= 1e-6 and worst_dist <= 1e-6
    _criterion(
        2,
        "q -> 1 limit: frequencies and evolved distribution reduce to the undeformed case",
        ok,
        f"max |Omega/omega - 1| {worst_freq:.2e} <= 1e-6; max field gap {worst_dist:.2e} <= 1e-6",
    )


def test_criterion_03_bracket_certification(params):
    rng = random.Random(DEFAULT_SEED)
    pts100 = _annulus_points(rng, 100)
    al, alc = canonical_field(params, lambda a: a), canonical_field(params, np.conj)
    eq20 = max(
        abs(
            poisson_bracket_fd(al, alc, complex_to_canonical(complex(z), params))
            + 1j / params.hbar
        )
        for z in pts100
    )

    pair = 0.0
    for z in _annulus_points(rng, 25):
        for kind in (TYPE1, TYPE2):
            pair = max(pair, verify_alphaq_bracket(params, kind, complex(z)).error)

    chain = 0.0
    fder = 0.0
    for z in _annulus_points(rng, 10):
        pt = complex(z)
        for kind in DeformationKind:
            chain = max(chain, max(chain_identity_errors(params, kind, pt).values()))
        for kind in (TYPE1, TYPE2):
            fder = max(fder, verify_f_derivative_identity(params, kind, pt).error)

    consts = max(
        verify_constants_of_motion(params, kind, pts100).error
        for kind in DeformationKind
    )

    ok = eq20 <= 1e-8 and pair <= 1e-6 and chain <= 1e-6 and fder <= 1e-6 and consts <= 1e-8
    _criterion(
        3,
        "bracket certification: amplitude pair, deformed pair, chain identities, "
        "radial derivative identity, constants of motion",
        ok,
        f"pair {eq20:.1e}<=1e-8; deformed {pair:.1e}<=1e-6; chain {chain:.1e}<=1e-6; "
        f"f' {fder:.1e}<=1e-6; constants {consts:.1e}<=1e-8",
    )


def test_criterion_04_pde_residual(params):
    grid = GridSpec.square(64)
    t = (math.pi / 4) / params.omega
    worst_good = 0.0
    worst_ratio_gap = 0.0
    worst_wrong = math.inf
    for _, state in _protocol_states(params):
        r_coarse = pde_residual(state, t, grid.mesh_complex(), sign=1, h=1e-4)
        r_fine = pde_residual(state, t, grid.mesh_complex(), sign=1, h=5e-5)
        worst_good = max(worst_good, r_coarse)
        worst_ratio_gap = max(worst_ratio_gap, abs(r_coarse / r_fine - 4.0))
        worst_wrong = min(worst_wrong, pde_residual(state, t, grid.mesh_complex(), sign=-1, h=1e-4))
    ok = worst_good <= 1e-6 and worst_ratio_gap <= 0.5 and worst_wrong >= 0.1
    _criterion(
        4,
        "transported solution satisfies the generator (sigma=+1) at 2nd order; "
        "sigma=-1 is discriminated",
        ok,
        f"max resid {worst_good:.2e}<=1e-6; ratio within 4+-{worst_ratio_gap:.2f}; "
        f"wrong-sign resid {worst_wrong:.2f}>=0.1",
    )


def test_criterion_05_transport_identity(params):
    worst = 0.0
    for _, state in _protocol_states(params):
        seeds = circle_points(state.center, 0.5, 4096)
        base = initial_distribution(seeds, state)
        for tau in PANEL_TAUS:
            t = tau / params.omega
            moved = advect_points(seeds, state, t)
            worst = max(worst, float(np.abs(evolved_distribution(moved, state, t) - base).max()))
    _criterion(
        5,
        "transport identity for 4096 seeds, all profiles, all panel times",
        worst <= 1e-12,
        f"max |P_t(advected) - P_0(seed)| {worst:.2e} <= 1e-12",
    )


def test_criterion_06_trajectory_cross_check(params):
    t_end = 2.0 * math.pi / params.omega
    worst_end = 0.0
    paths = {}
    for profile in (UNDEFORMED, MU1, MU2):
        state = GaussianState(complex(0.5), profile, params)
        paths[profile] = integrate_path(state, t_end, 10_000)
        worst_end = max(
            worst_end, abs(complex(paths[profile][-1]) - complex(evolve_exact(state, t_end)))
        )

    # the drift checks reuse the mu1 path integrated for its endpoint
    state = GaussianState(complex(0.5), MU1, params)
    path = paths[MU1]
    s_path = path.real**2 + path.imag**2
    action_drift = float(np.abs(s_path - s_path[0]).max())
    energy = params.hbar * params.omega * q_number(s_path, params, TYPE1)
    energy_drift = float(np.abs(energy - energy[0]).max())

    exact = complex(evolve_exact(state, t_end))
    errs = [abs(complex(integrate_eom(state, t_end, n)) - exact) for n in (128, 256, 512)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = (
        worst_end <= 1e-8
        and action_drift <= 1e-8
        and energy_drift <= 1e-8
        and all(12.0 <= r <= 20.0 for r in ratios)
    )
    _criterion(
        6,
        "RK4 against the closed form: endpoint, drift, 4th-order convergence",
        ok,
        f"endpoint {worst_end:.1e}<=1e-8; action {action_drift:.1e}; energy {energy_drift:.1e}; "
        f"ratios {ratios[0]:.1f}, {ratios[1]:.1f} in [12, 20]",
    )


def test_criterion_07_peak_conservation(params):
    state = GaussianState(complex(0.5), MU1, params)
    peaks = [
        evolved_distribution(evolve_exact(state, tau / params.omega), state, tau / params.omega)
        for tau in PANEL_TAUS
    ]
    grid_max = float(sample_grid(state, math.pi / params.omega, GridSpec.square(512)).values.max())
    ok = all(p == 1.0 for p in peaks) and 0.999 <= grid_max <= 1.0 + 1e-12
    _criterion(
        7,
        "co-moving peak stays exactly 1; 512^2 sampled max in [0.999, 1 + 1e-12]",
        ok,
        f"analytic peaks {peaks}; grid max {grid_max:.6f}",
    )


def test_criterion_08_whorl_formation(params):
    grows = {}
    for name, profile in (("mu1", MU1), ("mu2", MU2), ("anharmonic", ANHARMONIC)):
        state = GaussianState(complex(0.5), profile, params)
        lengths = [
            contour_length(advect_contour(state, tau / params.omega, radius=0.5, n_points=4096))
            for tau in PANEL_TAUS
        ]
        grows[name] = all(b > a for a, b in zip(lengths, lengths[1:]))

    state = GaussianState(complex(0.5), UNDEFORMED, params)
    base = contour_length(advect_contour(state, 0.0, radius=0.5, n_points=4096))
    rigid_drift = max(
        abs(
            contour_length(
                advect_contour(state, tau / params.omega, radius=0.5, n_points=4096)
            )
            - base
        )
        / base
        for tau in PANEL_TAUS
    )
    ok = all(grows.values()) and rigid_drift <= 1e-9
    _criterion(
        8,
        "whorl stretching: contour length strictly grows (mu1, mu2, anharmonic); "
        "undeformed length constant",
        ok,
        f"monotone {grows}; rigid drift {rigid_drift:.1e} <= 1e-9",
    )


def test_criterion_09_figure_protocol(tmp_path, params):
    emitted_ok = True
    for fig, ext, extra in (
        ("fig1", "svg", ["--points", "512"]),
        ("fig2", "svg", ["--points", "512"]),
        ("fig3", "svg", ["--points", "512"]),
        ("fig4", "json", ["--grid", "64"]),
        ("fig5", "json", ["--grid", "64"]),
        ("fig6", "json", ["--grid", "64"]),
    ):
        out = tmp_path / fig
        assert main(["reproduce", fig, "--out", str(out)] + extra) == 0
        files = sorted(out.glob(f"{fig}_tau*.{ext}"))
        manifest = json.loads((out / f"{fig}_manifest.json").read_text())
        emitted_ok &= len(files) == 4 and len(manifest["outputs"]) == 4
        emitted_ok &= manifest["config"]["q"] == 0.5
        emitted_ok &= manifest["config"]["alpha0"] == [0.5, 0.0]
        emitted_ok &= manifest["config"]["grid"]["xmin"] == -1.0

    # determinism of a rerun with identical argv
    out = tmp_path / "fig2"
    argv = ["reproduce", "fig2", "--out", str(out), "--points", "512"]
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == 0
    deterministic = before == {p.name: p.read_bytes() for p in out.iterdir()}

    # marching-squares level set vs the advected contour, 512^2 grid
    grid = GridSpec.square(512)
    tol = 2.0 * ((grid.xmax - grid.xmin) / (grid.nx - 1))
    level = math.exp(-0.25)
    worst = 0.0
    cases = [(MU1, tau) for tau in PANEL_TAUS] + [(ANHARMONIC, 2 * math.pi)]
    for profile, tau in cases:
        state = GaussianState(complex(0.5), profile, params)
        t = tau / params.omega
        traces = extract_level_set(sample_grid(state, t, grid), level)
        assert traces
        reference = advect_contour(state, t, radius=0.5, n_points=8192).points
        for trace in traces:
            for chunk in np.array_split(trace.points, max(1, len(trace) // 64)):
                d = np.abs(chunk[:, None] - reference[None, :]).min(axis=1)
                worst = max(worst, float(d.max()))
    ok = emitted_ok and deterministic and worst <= tol
    _criterion(
        9,
        "figure protocol: fig1..fig6 panel sets emitted deterministically; "
        "level sets track advected contours within 2 cells",
        ok,
        f"emitted {emitted_ok}; deterministic {deterministic}; "
        f"hausdorff {worst:.4f} <= {tol:.4f}",
    )


def test_criterion_10_full_suite_and_reproducibility(params):
    reports_a = run_full_suite(params, seed=DEFAULT_SEED)
    reports_b = run_full_suite(params, seed=DEFAULT_SEED)
    table_a, table_b = format_reports(reports_a), format_reports(reports_b)
    ok = all_passed(reports_a) and table_a == table_b
    failed = [r.name for r in reports_a if not r.passed]
    _criterion(
        10,
        "full verification suite passes; rerun with the same seed is byte-identical",
        ok,
        f"{len(reports_a)} checks, failures {failed}, identical {table_a == table_b}",
    )
