"""Finite-difference certification of the bracket algebra and dynamics.

Every closed-form claim the package relies on - the canonical bracket of
the complex amplitudes, the deformed-pair brackets, the chain-rule
identities connecting canonical and complex-variable brackets, the radial
derivative identity of the deformation factor, the constants of motion,
and the transport/residual behavior of the evolved distribution - is
checked here against an independent centered-difference oracle in the
canonical (position, momentum) plane.  Checks never throw on failure; they
return reports so a whole run is always visible at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    MU1,
    MU2,
    MU3,
    MU4,
    UNDEFORMED,
    DeformationKind,
    FrequencyProfile,
    FrequencySelector,
    OscillatorParams,
    PhasePoint,
    Representation,
    as_point,
    canonical_to_complex,
    complex_to_canonical,
    deform,
    deformation_f,
    frequency,
    hamiltonian_alpha,
    q_number,
)
from .dynamics import Trajectory, evolve_exact, integrate_eom, integrate_path
from .field import GridSpec, sample_grid
from .liouville import (
    GaussianState,
    advect_contour,
    advect_points,
    circle_points,
    contour_length,
    evolved_distribution,
    initial_distribution,
    pde_residual,
)

DEFAULT_FD_STEP = 1e-5
DEFAULT_SEED = 20260808
PANEL_TAUS = (np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi)


@dataclass(frozen=True)
class ScalarField:
    """A named smooth evaluator over the canonical (position, momentum) plane."""

    name: str
    func: Callable[[float, float], complex]

    def __call__(self, qc: float, p: float) -> complex:
        return self.func(qc, p)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one numerical check; passes iff error <= tolerance."""

    name: str
    error: float
    tolerance: float
    passed: bool
    order: float | None = None
    note: str = ""

    def __post_init__(self):
        if self.passed != (self.error <= self.tolerance):
            raise ValueError("pass flag inconsistent with error vs tolerance")

    @classmethod
    def from_measurement(cls, name, error, tolerance, order=None, note=""):
        error = float(error)
        tolerance = float(tolerance)
        return cls(name, error, tolerance, error <= tolerance, order, note)


def poisson_bracket_fd(F, G, at, h: float = DEFAULT_FD_STEP) -> complex:
    """{F, G} = dF/dq dG/dp - dF/dp dG/dq by centered differences (O(h^2))."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    qc, p = at
    fq = (F(qc + h, p) - F(qc - h, p)) / (2.0 * h)
    fp = (F(qc, p + h) - F(qc, p - h)) / (2.0 * h)
    gq = (G(qc + h, p) - G(qc - h, p)) / (2.0 * h)
    gp = (G(qc, p + h) - G(qc, p - h)) / (2.0 * h)
    return fq * gp - fp * gq


# --- canonical-plane test fields -------------------------------------------


def alpha_field(params: OscillatorParams) -> ScalarField:
    return ScalarField("alpha", lambda qc, p: complex(canonical_to_complex(qc, p, params)))


def alpha_conj_field(params: OscillatorParams) -> ScalarField:
    return ScalarField(
        "alpha*", lambda qc, p: complex(canonical_to_complex(qc, p, params)).conjugate()
    )


def alphaq_field(params: OscillatorParams, kind: DeformationKind) -> ScalarField:
    def f(qc, p):
        return complex(deform(canonical_to_complex(qc, p, params), params, kind))

    return ScalarField(f"alpha_q[{kind.value}]", f)


def alphaq_conj_field(params: OscillatorParams, kind: DeformationKind) -> ScalarField:
    base = alphaq_field(params, kind)
    return ScalarField(f"alpha_q*[{kind.value}]", lambda qc, p: base(qc, p).conjugate())


def action_field(params: OscillatorParams) -> ScalarField:
    return ScalarField("|alpha|^2", lambda qc, p: canonical_to_complex(qc, p, params).s)


def deformed_action_field(params: OscillatorParams, kind: DeformationKind) -> ScalarField:
    def f(qc, p):
        return q_number(canonical_to_complex(qc, p, params).s, params, kind)

    return ScalarField(f"|alpha_q|^2[{kind.value}]", f)


def hamiltonian_field(params: OscillatorParams, kind: DeformationKind) -> ScalarField:
    def f(qc, p):
        return hamiltonian_alpha(canonical_to_complex(qc, p, params), params, kind)

    return ScalarField(f"H[{kind.value}]", f)


def gaussian_field(params: OscillatorParams, center: complex) -> ScalarField:
    c = complex(center)

    def f(qc, p):
        z = complex(canonical_to_complex(qc, p, params))
        d = z - c
        return math.exp(-(d.real * d.real + d.imag * d.imag))

    return ScalarField("gaussian", f)


def deformed_gaussian_field(
    params: OscillatorParams, kind: DeformationKind, center_q: complex
) -> ScalarField:
    cq = complex(center_q)

    def f(qc, p):
        zq = complex(deform(canonical_to_complex(qc, p, params), params, kind))
        d = zq - cq
        return math.exp(-(d.real * d.real + d.imag * d.imag))

    return ScalarField("gaussian_q", f)


def _pair_bracket_closed(params: OscillatorParams, kind: DeformationKind, s_q: float) -> complex:
    """Closed form of {alpha_q, alpha_q*} expressed through the deformed action."""
    if kind is DeformationKind.UNDEFORMED:
        factor = 1.0
    elif kind is DeformationKind.TYPE1:
        factor = frequency(s_q, params, MU3) / params.omega
    else:
        factor = frequency(s_q, params, MU4) / params.omega
    return -1j / params.hbar * factor


def _annulus_points(rng: np.random.Generator, n: int, rmin=0.1, rmax=1.5) -> np.ndarray:
    """Uniform-in-area complex samples from the annulus rmin <= |z| <= rmax."""
    r = np.sqrt(rmin**2 + rng.random(n) * (rmax**2 - rmin**2))
    theta = 2.0 * np.pi * rng.random(n)
    return r * np.exp(1j * theta)


# --- per-point checks --------------------------------------------------------


def verify_alphaq_bracket(
    params: OscillatorParams, kind: DeformationKind, at, h: float = DEFAULT_FD_STEP
) -> VerificationReport:
    """FD bracket of the deformed pair against its closed form."""
    pt = as_point(at)
    canon = complex_to_canonical(pt, params)
    fd = poisson_bracket_fd(alphaq_field(params, kind), alphaq_conj_field(params, kind), canon, h)
    closed = _pair_bracket_closed(params, kind, deform(pt, params, kind).s)
    return VerificationReport.from_measurement(
        f"alphaq_pair_bracket[{kind.value}]",
        abs(fd - closed),
        1e-6,
        note=f"at alpha={complex(pt):.4f}",
    )


def chain_identity_errors(
    params: OscillatorParams,
    kind: DeformationKind,
    at,
    h: float = DEFAULT_FD_STEP,
    center: complex = 0.5 + 0.0j,
) -> dict[str, float]:
    """Raw errors of the four chain-rule identities at one phase point.

    Left sides are canonical FD brackets; right sides compose the closed
    pair bracket with analytic complex-variable derivatives.
    """
    pt = as_point(at)
    canon = complex_to_canonical(pt, params)
    z = complex(pt)
    c = complex(center)
    ham = hamiltonian_field(params, kind)
    w = params.omega

    if kind is DeformationKind.UNDEFORMED:
        om_a = w
    else:
        mu = MU1 if kind is DeformationKind.TYPE1 else MU2
        om_a = frequency(pt.s, params, mu)

    zq = complex(deform(pt, params, kind))
    s_q = zq.real * zq.real + zq.imag * zq.imag
    cq = complex(deform(PhasePoint.from_complex(c), params, kind))
    om_q = w * abs(_pair_bracket_closed(params, kind, s_q)) * params.hbar

    errors = {}
    fd = poisson_bracket_fd(alpha_field(params), ham, canon, h)
    errors["alpha_eom"] = abs(fd - (-1j * om_a * z))

    gauss = gaussian_field(params, c)
    pval = gauss(*canon)
    fd = poisson_bracket_fd(ham, gauss, canon, h)
    errors["alpha_transport"] = abs(fd - 2.0 * om_a * (c * z.conjugate()).imag * pval)

    fd = poisson_bracket_fd(alphaq_field(params, kind), ham, canon, h)
    errors["alphaq_eom"] = abs(fd - (-1j * om_q * zq))

    gauss_q = deformed_gaussian_field(params, kind, cq)
    pqval = gauss_q(*canon)
    fd = poisson_bracket_fd(ham, gauss_q, canon, h)
    errors["alphaq_transport"] = abs(fd - 2.0 * om_q * (cq * zq.conjugate()).imag * pqval)
    return errors


def verify_chain_identities(
    params: OscillatorParams,
    kind: DeformationKind,
    at,
    h: float = DEFAULT_FD_STEP,
    center: complex = 0.5 + 0.0j,
) -> VerificationReport:
    """Canonical FD brackets against pair-bracket * complex-derivative forms."""
    errors = chain_identity_errors(params, kind, at, h, center)
    worst = max(errors, key=errors.get)
    tol = 1e-8 if kind is DeformationKind.UNDEFORMED else 1e-6
    return VerificationReport.from_measurement(
        f"chain_identities[{kind.value}]", errors[worst], tol, note=f"worst branch: {worst}"
    )


def verify_f_derivative_identity(
    params: OscillatorParams, kind: DeformationKind, at, h: float = DEFAULT_FD_STEP
) -> VerificationReport:
    """Radial derivative identity of the deformation factor.

    Checks that alpha df/dalpha and alpha* df/dalpha* (both rebuilt from
    canonical FD partials) agree with each other and with the closed form
    (g(s) - f^2) / (2 f) with g the frequency factor of the matching kind.
    The identity concerns derivatives away from the removable origin, so
    tiny |alpha| is reported as not applicable.
    """
    pt = as_point(at)
    name = f"f_derivative_identity[{kind.value}]"
    if abs(pt) <= 1e-4:
        return VerificationReport.from_measurement(
            name, 0.0, 1e-6, note="not applicable: |alpha| <= 1e-4"
        )
    qc, p = complex_to_canonical(pt, params)

    def f_of(qcv, pv):
        return deformation_f(canonical_to_complex(qcv, pv, params).s, params, kind)

    fq = (f_of(qc + h, p) - f_of(qc - h, p)) / (2.0 * h)
    fp = (f_of(qc, p + h) - f_of(qc, p - h)) / (2.0 * h)
    cq = math.sqrt(params.hbar / (2.0 * params.mass * params.omega))
    cp = math.sqrt(params.hbar * params.mass * params.omega / 2.0)
    z = complex(pt)
    afa = z * (cq * fq - 1j * cp * fp)
    asfas = z.conjugate() * (cq * fq + 1j * cp * fp)

    if kind is DeformationKind.UNDEFORMED:
        g = 1.0
    else:
        mu = MU1 if kind is DeformationKind.TYPE1 else MU2
        g = frequency(pt.s, params, mu) / params.omega
    fval = deformation_f(pt.s, params, kind)
    closed = (g - fval * fval) / (2.0 * fval)
    err = max(abs(afa - closed), abs(asfas - closed), abs(afa - asfas))
    return VerificationReport.from_measurement(name, err, 1e-6, note=f"at alpha={z:.4f}")


def verify_constants_of_motion(
    params: OscillatorParams,
    kind: DeformationKind,
    n_points: int = 100,
    seed: int = DEFAULT_SEED,
    h: float = DEFAULT_FD_STEP,
) -> VerificationReport:
    """FD brackets of the actions with their Hamiltonians vanish.

    Measures {|alpha|^2, H} and {|alpha_q|^2, H} in canonical variables at
    seeded random annulus points; both are exact constants of the motion.
    """
    rng = np.random.default_rng(seed)
    pts = _annulus_points(rng, n_points)
    ham = hamiltonian_field(params, kind)
    saction = action_field(params)
    sq_action = deformed_action_field(params, kind)
    worst = 0.0
    for z in pts:
        canon = complex_to_canonical(PhasePoint(z.real, z.imag), params)
        worst = max(worst, abs(poisson_bracket_fd(saction, ham, canon, h)))
        worst = max(worst, abs(poisson_bracket_fd(sq_action, ham, canon, h)))
    tol = 1e-10 if kind is DeformationKind.UNDEFORMED else 1e-8
    return VerificationReport.from_measurement(
        f"constants_of_motion[{kind.value}]", worst, tol, note=f"{n_points} annulus points"
    )


# --- suite -------------------------------------------------------------------


def _bracket_reports(params, rng, h):
    reports = []
    qc_field = ScalarField("qc", lambda qc, p: qc)
    p_field = ScalarField("p", lambda qc, p: p)
    err = abs(poisson_bracket_fd(qc_field, p_field, (0.3, -0.7), h) - 1.0)
    reports.append(VerificationReport.from_measurement("canonical_pair_bracket", err, 1e-10))

    pts = _annulus_points(rng, 100)
    al, alc = alpha_field(params), alpha_conj_field(params)
    target = -1j / params.hbar
    err = 0.0
    anti = 0.0
    selferr = 0.0
    ham = hamiltonian_field(params, DeformationKind.TYPE1)
    for z in pts:
        canon = complex_to_canonical(PhasePoint(z.real, z.imag), params)
        b = poisson_bracket_fd(al, alc, canon, h)
        err = max(err, abs(b - target))
        selferr = max(selferr, abs(poisson_bracket_fd(al, al, canon, h)))
    reports.append(VerificationReport.from_measurement("alpha_pair_bracket", err, 1e-8))
    reports.append(VerificationReport.from_measurement("self_bracket_zero", selferr, 1e-10))
    for z in pts[:10]:
        canon = complex_to_canonical(PhasePoint(z.real, z.imag), params)
        anti = max(
            anti,
            abs(
                poisson_bracket_fd(al, ham, canon, h) + poisson_bracket_fd(ham, al, canon, h)
            ),
        )
    reports.append(VerificationReport.from_measurement("bracket_antisymmetry", anti, 1e-10))
    return reports


def _alphaq_bracket_reports(params, rng, h):
    reports = []
    pts = _annulus_points(rng, 25)
    for kind in (DeformationKind.TYPE1, DeformationKind.TYPE2):
        worst = 0.0
        for z in pts:
            rep = verify_alphaq_bracket(params, kind, PhasePoint(z.real, z.imag), h)
            worst = max(worst, rep.error)
        reports.append(
            VerificationReport.from_measurement(
                f"alphaq_pair_bracket[{kind.value}]", worst, 1e-6, note="25 annulus points"
            )
        )

    # second-order convergence of FD toward the closed form; the order is
    # only measurable while truncation still dominates roundoff
    pt = PhasePoint(0.3, 0.4)
    errs = [
        verify_alphaq_bracket(params, DeformationKind.TYPE1, pt, hh).error
        for hh in (2e-3, 1e-3, 5e-4)
    ]
    if errs[-1] < 1e-10:
        reports.append(
            VerificationReport.from_measurement(
                "alphaq_bracket_order",
                0.0,
                1.0,
                note=f"truncation below noise floor ({errs[0]:.1e}); order not measurable",
            )
        )
        return reports
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    gm = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    reports.append(
        VerificationReport.from_measurement(
            "alphaq_bracket_order", abs(gm - 4.0), 1.0, order=math.log2(gm)
        )
    )
    return reports


def _identity_reports(params, rng, h):
    reports = []
    pts = _annulus_points(rng, 10)
    for kind in DeformationKind:
        worst_chain = 0.0
        worst_note = ""
        for z in pts:
            errors = chain_identity_errors(params, kind, PhasePoint(z.real, z.imag), h)
            branch = max(errors, key=errors.get)
            if errors[branch] > worst_chain:
                worst_chain, worst_note = errors[branch], branch
        tol = 1e-8 if kind is DeformationKind.UNDEFORMED else 1e-6
        reports.append(
            VerificationReport.from_measurement(
                f"chain_identities[{kind.value}]", worst_chain, tol, note=f"worst: {worst_note}"
            )
        )
    for kind in (DeformationKind.TYPE1, DeformationKind.TYPE2):
        worst = 0.0
        for z in pts:
            rep = verify_f_derivative_identity(params, kind, PhasePoint(z.real, z.imag), h)
            worst = max(worst, rep.error)
        reports.append(
            VerificationReport.from_measurement(
                f"f_derivative_identity[{kind.value}]", worst, 1e-6, note="10 annulus points"
            )
        )
    return reports


def _dynamics_reports(params, rk4_steps):
    reports = []
    start = PhasePoint(0.5)
    t_end = 2.0 * np.pi / params.omega
    paths = {}
    for label, profile in (("undeformed", UNDEFORMED), ("mu1", MU1), ("mu2", MU2)):
        traj = Trajectory(start, profile, params)
        paths[label] = integrate_path(traj, t_end, rk4_steps)
        err = abs(complex(paths[label][-1]) - complex(evolve_exact(traj, t_end)))
        reports.append(
            VerificationReport.from_measurement(f"rk4_endpoint[{label}]", err, 1e-8)
        )

    # The drift checks reuse the mu1 path integrated for its endpoint above.
    traj = Trajectory(start, MU1, params)
    path = paths["mu1"]
    s_path = path.real**2 + path.imag**2
    reports.append(
        VerificationReport.from_measurement(
            "rk4_action_drift", np.abs(s_path - s_path[0]).max(), 1e-8
        )
    )
    energies = params.hbar * params.omega * q_number(s_path, params, DeformationKind.TYPE1)
    reports.append(
        VerificationReport.from_measurement(
            "rk4_energy_drift", np.abs(energies - energies[0]).max(), 1e-8
        )
    )

    exact = complex(evolve_exact(traj, t_end))
    errs = [
        abs(complex(integrate_eom(traj, t_end, n)) - exact) for n in (128, 256, 512)
    ]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    gm = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    reports.append(
        VerificationReport.from_measurement(
            "rk4_convergence_order", abs(gm - 16.0), 4.0, order=math.log2(gm)
        )
    )
    return reports


def _frequency_reports(params):
    reports = []
    s = np.linspace(0.0, 2.0, 201)
    worst = 0.0
    for kind, mu_in, mu_out in (
        (DeformationKind.TYPE1, MU3, MU1),
        (DeformationKind.TYPE2, MU4, MU2),
    ):
        sq = q_number(s, params, kind)
        ref = frequency(s, params, mu_out)
        rel = np.abs(frequency(sq, params, mu_in) - ref) / ref
        worst = max(worst, float(rel.max()))
    reports.append(
        VerificationReport.from_measurement("frequency_cross_identity", worst, 1e-12)
    )

    limit = OscillatorParams(
        q=1.0 - 1e-8, mass=params.mass, omega=params.omega, hbar=params.hbar
    )
    grid = np.linspace(0.0, 1.0, 101)
    qn_err = max(
        float(np.abs(q_number(grid, limit, kind) - grid).max())
        for kind in (DeformationKind.TYPE1, DeformationKind.TYPE2)
    )
    reports.append(VerificationReport.from_measurement("q_limit_qnumber", qn_err, 1e-7))
    freq_err = max(
        float(np.abs(frequency(grid, limit, prof) / limit.omega - 1.0).max())
        for prof in (MU1, MU2, MU3, MU4)
    )
    reports.append(VerificationReport.from_measurement("q_limit_frequency", freq_err, 1e-6))
    return reports


def _transport_states(params, chi=1.0):
    center = PhasePoint(0.5)
    anharmonic = FrequencyProfile(FrequencySelector.ANHARMONIC, chi=chi)
    states = [
        ("undeformed", GaussianState(center, UNDEFORMED, params)),
        ("mu1", GaussianState(center, MU1, params)),
        ("mu2", GaussianState(center, MU2, params)),
        ("anharmonic", GaussianState(center, anharmonic, params)),
        (
            "mu3",
            GaussianState(
                deform(center, params, DeformationKind.TYPE1),
                MU3,
                params,
                Representation.ALPHA_Q,
            ),
        ),
        (
            "mu4",
            GaussianState(
                deform(center, params, DeformationKind.TYPE2),
                MU4,
                params,
                Representation.ALPHA_Q,
            ),
        ),
    ]
    return states


def _transport_reports(params):
    worst = 0.0
    for _, state in _transport_states(params):
        seeds = circle_points(state.center, 0.5, 4096)
        base = initial_distribution(seeds, state)
        for tau in PANEL_TAUS:
            t = tau / params.omega
            moved = advect_points(seeds, state, t)
            worst = max(worst, float(np.abs(evolved_distribution(moved, state, t) - base).max()))
    return [VerificationReport.from_measurement("transport_identity", worst, 1e-12)]


def _peak_reports(params):
    reports = []
    state = GaussianState(PhasePoint(0.5), MU1, params)
    traj = Trajectory(state.center, MU1, params)
    worst = 0.0
    for tau in PANEL_TAUS:
        t = tau / params.omega
        worst = max(worst, abs(evolved_distribution(evolve_exact(traj, t), state, t) - 1.0))
    reports.append(VerificationReport.from_measurement("peak_value_analytic", worst, 0.0))

    field = sample_grid(state, np.pi / params.omega, GridSpec.square(512))
    m = float(field.values.max())
    out_of_band = max(0.999 - m, m - (1.0 + 1e-12), 0.0)
    reports.append(
        VerificationReport.from_measurement(
            "peak_grid_capture", out_of_band, 0.0, note=f"512^2 max = {m:.6f}"
        )
    )
    return reports


def _pde_reports(params, sign):
    reports = []
    grid = GridSpec.square(64)
    t = (np.pi / 4) / params.omega
    worst = 0.0
    for _, state in _transport_states(params):
        worst = max(worst, pde_residual(state, t, grid, sign=sign, h=1e-4).max)
    reports.append(
        VerificationReport.from_measurement(f"pde_residual[sigma={sign:+d}]", worst, 1e-6)
    )

    state = GaussianState(PhasePoint(0.5), MU1, params)
    resids = [pde_residual(state, t, grid, sign=sign, h=hh).max for hh in (4e-4, 2e-4, 1e-4, 5e-5)]
    ratios = [resids[i] / resids[i + 1] for i in range(len(resids) - 1)]
    err = max(abs(r - 4.0) for r in ratios)
    gm = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    reports.append(
        VerificationReport.from_measurement(
            "pde_residual_order", err, 0.5, order=math.log2(gm)
        )
    )

    wrong = pde_residual(state, t, grid, sign=-1, h=1e-4).max
    reports.append(
        VerificationReport.from_measurement(
            "pde_sign_discrimination",
            max(0.0, 0.1 - wrong),
            0.0,
            note=f"sigma=-1 max residual {wrong:.3e} (needs >= 0.1)",
        )
    )
    return reports


def _contour_reports(params):
    reports = []
    min_delta = math.inf
    for _, state in _transport_states(params)[1:4]:  # mu1, mu2, anharmonic
        lengths = [
            contour_length(advect_contour(state, tau / params.omega, radius=0.5, n_points=4096))
            for tau in PANEL_TAUS
        ]
        min_delta = min(min_delta, min(np.diff(lengths)))
    reports.append(
        VerificationReport.from_measurement(
            "whorl_stretching",
            max(0.0, -min_delta),
            0.0,
            note=f"min panel-to-panel growth {min_delta:.4f}",
        )
    )

    state = GaussianState(PhasePoint(0.5), UNDEFORMED, params)
    base = contour_length(advect_contour(state, 0.0, radius=0.5, n_points=4096))
    drift = max(
        abs(contour_length(advect_contour(state, tau / params.omega, radius=0.5, n_points=4096)) - base)
        / base
        for tau in PANEL_TAUS
    )
    reports.append(VerificationReport.from_measurement("rigid_rotation_length", drift, 1e-9))
    return reports


def run_full_suite(
    params: OscillatorParams | None = None,
    seed: int = DEFAULT_SEED,
    sign: int = 1,
    h: float = DEFAULT_FD_STEP,
    rk4_steps: int = 10_000,
) -> list[VerificationReport]:
    """Run every certification check and return the complete report list.

    Failures never abort the run.  All randomness comes from the seed, so a
    rerun with identical arguments reproduces every report bit-for-bit.
    The RK4 tolerances assume the default step count.
    """
    params = params if params is not None else OscillatorParams()
    rng = np.random.default_rng(seed)
    reports = []
    reports += _bracket_reports(params, rng, h)
    reports += _alphaq_bracket_reports(params, rng, h)
    reports += _identity_reports(params, rng, h)
    for kind in DeformationKind:
        reports.append(verify_constants_of_motion(params, kind, seed=seed, h=h))
    reports += _dynamics_reports(params, rk4_steps)
    reports += _frequency_reports(params)
    reports += _transport_reports(params)
    reports += _peak_reports(params)
    reports += _pde_reports(params, sign)
    reports += _contour_reports(params)
    return reports


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


def format_reports(reports) -> str:
    """Fixed-width table of a report list, one line per check."""
    lines = [
        f"{'check':<34} {'error':>12} {'tolerance':>12} {'order':>7} {'status':<6} note",
        "-" * 96,
    ]
    for r in reports:
        order = f"{r.order:7.2f}" if r.order is not None else "      -"
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<34} {r.error:>12.3e} {r.tolerance:>12.1e} {order} {status:<6} {r.note}"
        )
    return "\n".join(lines)
