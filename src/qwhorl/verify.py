"""Finite-difference certification of the bracket algebra and dynamics.

Every closed-form claim the package relies on - the canonical bracket of
the complex amplitudes, the deformed-pair brackets, the chain-rule
identities connecting canonical and complex-variable brackets, the radial
derivative identity of the deformation factor, the constants of motion,
and the transport/residual behavior of the evolved distribution - is
checked here against an independent centered-difference oracle in the
canonical (position, momentum) plane.  Its test fields map position and
momentum arrays to arrays, so a check evaluates all its points in one call
and reports the worst; its arithmetic rounds as Python's ``complex`` and
``math`` do.  Checks never throw on failure; they return reports so a whole
run is always visible at once.  Every worst-of reduction is numpy's ``max``
(or ``argmax``), which keeps a NaN, so a non-finite error always FAILs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    Representation,
    _complex,
    action,
    canonical_to_complex,
    complex_to_canonical,
    deform,
    deformation_f,
    frequency,
    frequency_law,
    hamiltonian_alpha,
    profile_for_kind,
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
# pde_sign_discrimination: the sigma=-1 residual must exceed the sigma=+1
# residual by this factor (about 1e6 to 4e8 for q in [0.1, 1))
SIGN_MARGIN = 1e3

# math.exp per element: np.exp differs from it in the last ulp for ~5% of
# arguments, which moves printed chain-identity digits.
_exp = np.vectorize(math.exp, otypes=[float])


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


def _cmul(a, b):
    """Complex product a b term by term, rounded as Python's complex product."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _abs(z):
    """Modulus of complex values, as Python's complex ``abs`` computes it."""
    return np.hypot(z.real, z.imag)


def _centred(F, qc, p, h):
    """Centred differences (dF/dq, dF/dp) at (qc, p), truncation O(h^2).

    F is called once, on the four offset copies of the points stacked along
    a new first axis.  The quotients are complex, divided part by part.
    """
    v = F(np.stack([qc + h, qc - h, qc, qc]), np.stack([p, p, p + h, p - h]))
    two_h = 2.0 * h
    return tuple(_complex(d.real / two_h, d.imag / two_h) for d in (v[0] - v[1], v[2] - v[3]))


def poisson_bracket_fd(F, G, at, h: float = DEFAULT_FD_STEP):
    """{F, G} = dF/dq dG/dp - dF/dp dG/dq by centered differences (O(h^2)) at
    ``at``, one canonical (qc, p) pair or a pair of equal-shape arrays."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    qc, p = at
    fq, fp = _centred(F, qc, p, h)
    gq, gp = _centred(G, qc, p, h)
    return _cmul(fq, gp) - _cmul(fp, gq)


def _omega(params: OscillatorParams, kind: DeformationKind, s, rep=Representation.ALPHA):
    """Omega at each action of s by the scalar law paired with kind."""
    return np.vectorize(frequency_law(params, profile_for_kind(kind, rep)), otypes=[float])(s)


def _step_ratios(errs):
    """Ratios errs[i] / errs[i + 1] of errors at successively halved steps,
    and their geometric mean: 2^order for a method of that order."""
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    return ratios, math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def _shortfall(value: float, floor: float) -> float:
    """How far value lies below floor, 0.0 when it does not; NaN stays NaN."""
    return 0.0 if value >= floor else floor - value


def _worst(name: str, err: np.ndarray, tolerance: float, z: np.ndarray) -> VerificationReport:
    """Report the largest of per-point errors, noting its phase point."""
    i = int(np.argmax(err))
    return VerificationReport.from_measurement(
        name, err[i], tolerance, note=f"at alpha={complex(z[i]):.4f}"
    )


# --- canonical-plane test fields ---------------------------------------------
# Each factory returns a smooth field (qc, p) -> array on the canonical plane:
# position and momentum arrays in, an array of the same shape out, real or
# complex.


def alpha_field(params: OscillatorParams):
    return lambda qc, p: canonical_to_complex(qc, p, params)


def alpha_conj_field(params: OscillatorParams):
    return lambda qc, p: canonical_to_complex(qc, p, params).conj()


def alphaq_field(params: OscillatorParams, kind: DeformationKind):
    return lambda qc, p: deform(canonical_to_complex(qc, p, params), params, kind)


def alphaq_conj_field(params: OscillatorParams, kind: DeformationKind):
    base = alphaq_field(params, kind)
    return lambda qc, p: base(qc, p).conj()


def action_field(params: OscillatorParams):
    return lambda qc, p: action(canonical_to_complex(qc, p, params))


def deformed_action_field(params: OscillatorParams, kind: DeformationKind):
    return lambda qc, p: q_number(action(canonical_to_complex(qc, p, params)), params, kind)


def hamiltonian_field(params: OscillatorParams, kind: DeformationKind):
    return lambda qc, p: hamiltonian_alpha(canonical_to_complex(qc, p, params), params, kind)


def _unit_gaussian(z, center: complex):
    return _exp(-action(z - center))


def gaussian_field(params: OscillatorParams, center: complex):
    c, alpha = complex(center), alpha_field(params)
    return lambda qc, p: _unit_gaussian(alpha(qc, p), c)


def deformed_gaussian_field(params: OscillatorParams, kind: DeformationKind, center_q: complex):
    cq, alphaq = complex(center_q), alphaq_field(params, kind)
    return lambda qc, p: _unit_gaussian(alphaq(qc, p), cq)


def _pair_bracket_closed(params: OscillatorParams, kind: DeformationKind, s_q) -> np.ndarray:
    """Closed form of {alpha_q, alpha_q*} at each deformed action of s_q."""
    factor = _omega(params, kind, s_q, Representation.ALPHA_Q) / params.omega
    return -1j / params.hbar * factor


def _annulus_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform-in-area complex samples from the annulus 0.1 <= |z| <= 1.5."""
    r = np.sqrt(0.1**2 + rng.random(n) * (1.5**2 - 0.1**2))
    theta = 2.0 * np.pi * rng.random(n)
    return r * np.exp(1j * theta)


# --- point checks: one phase point or an array of complex amplitudes ---------


def verify_alphaq_bracket(
    params: OscillatorParams, kind: DeformationKind, at, h: float = DEFAULT_FD_STEP
) -> VerificationReport:
    """FD bracket of the deformed pair against its closed form."""
    z = np.array(at, dtype=complex, ndmin=1)
    canon = complex_to_canonical(z, params)
    fd = poisson_bracket_fd(alphaq_field(params, kind), alphaq_conj_field(params, kind), canon, h)
    err = _abs(fd - _pair_bracket_closed(params, kind, action(deform(z, params, kind))))
    return _worst(f"alphaq_pair_bracket[{kind.value}]", err, 1e-6, z)


def chain_identity_errors(
    params: OscillatorParams,
    kind: DeformationKind,
    at,
    h: float = DEFAULT_FD_STEP,
    center: complex = 0.5 + 0.0j,
) -> dict[str, np.ndarray]:
    """Raw errors of the four chain-rule identities, shaped like ``at``.

    Left sides are canonical FD brackets; right sides compose the closed
    pair bracket with analytic complex-variable derivatives.
    """
    z = np.array(at, dtype=complex, ndmin=1)
    canon = complex_to_canonical(z, params)
    c = complex(center)
    ham = hamiltonian_field(params, kind)
    om_a = _omega(params, kind, action(z))

    zq = deform(z, params, kind)
    cq = deform(c, params, kind)
    om_q = params.omega * _abs(_pair_bracket_closed(params, kind, action(zq))) * params.hbar
    gauss, gauss_q = gaussian_field(params, c), deformed_gaussian_field(params, kind, cq)

    def bracket(F, G):
        return poisson_bracket_fd(F, G, canon, h)

    errors = {
        "alpha_eom": _abs(bracket(alpha_field(params), ham) - _cmul(-1j * om_a, z)),
        "alpha_transport": _abs(
            bracket(ham, gauss) - 2.0 * om_a * _cmul(c, z.conj()).imag * gauss(*canon)
        ),
        "alphaq_eom": _abs(bracket(alphaq_field(params, kind), ham) - _cmul(-1j * om_q, zq)),
        "alphaq_transport": _abs(
            bracket(ham, gauss_q) - 2.0 * om_q * _cmul(cq, zq.conj()).imag * gauss_q(*canon)
        ),
    }
    return {name: err.reshape(np.shape(at)) for name, err in errors.items()}


def verify_chain_identities(
    params: OscillatorParams, kind: DeformationKind, at, h: float = DEFAULT_FD_STEP
) -> VerificationReport:
    """Canonical FD brackets against pair-bracket * complex-derivative forms."""
    errors = chain_identity_errors(params, kind, at, h)
    names = list(errors)
    peaks = [errors[name].max() for name in names]
    i = int(np.argmax(peaks))
    tol = 1e-8 if kind is DeformationKind.UNDEFORMED else 1e-6
    return VerificationReport.from_measurement(
        f"chain_identities[{kind.value}]", peaks[i], tol, note=f"worst: {names[i]}"
    )


def verify_f_derivative_identity(
    params: OscillatorParams, kind: DeformationKind, at, h: float = DEFAULT_FD_STEP
) -> VerificationReport:
    """Radial derivative identity of the deformation factor.

    Checks that alpha df/dalpha and alpha* df/dalpha* (both rebuilt from
    canonical FD partials) agree with each other and with the closed form
    (g(s) - f^2) / (2 f) with g the frequency factor of the matching kind.
    The identity concerns derivatives away from the removable origin, so
    points with tiny |alpha| are left out as not applicable.
    """
    z = np.array(at, dtype=complex, ndmin=1)
    z = z[_abs(z) > 1e-4]
    name = f"f_derivative_identity[{kind.value}]"
    if z.size == 0:
        return VerificationReport.from_measurement(
            name, 0.0, 1e-6, note="not applicable: |alpha| <= 1e-4"
        )
    qc, p = complex_to_canonical(z, params)

    def f_of(qcv, pv):
        return deformation_f(action(canonical_to_complex(qcv, pv, params)), params, kind)

    fq, fp = _centred(f_of, qc, p, h)
    cq = math.sqrt(params.hbar / (2.0 * params.mass * params.omega))
    cp = math.sqrt(params.hbar * params.mass * params.omega / 2.0)
    afa = _cmul(z, cq * fq - 1j * cp * fp)
    asfas = _cmul(z.conj(), cq * fq + 1j * cp * fp)

    g = _omega(params, kind, action(z)) / params.omega
    fval = deformation_f(action(z), params, kind)
    closed = (g - fval * fval) / (2.0 * fval)
    err = np.maximum(np.maximum(_abs(afa - closed), _abs(asfas - closed)), _abs(afa - asfas))
    return _worst(name, err, 1e-6, z)


def verify_constants_of_motion(
    params: OscillatorParams,
    kind: DeformationKind,
    seed: int = DEFAULT_SEED,
    h: float = DEFAULT_FD_STEP,
) -> VerificationReport:
    """FD brackets of the actions with their Hamiltonians vanish.

    Measures {|alpha|^2, H} and {|alpha_q|^2, H} in canonical variables at
    100 seeded random annulus points; both are exact constants of the motion.
    """
    rng = np.random.default_rng(seed)
    canon = complex_to_canonical(_annulus_points(rng, 100), params)
    ham = hamiltonian_field(params, kind)
    worst = np.max(
        [
            _abs(poisson_bracket_fd(action, ham, canon, h)).max()
            for action in (action_field(params), deformed_action_field(params, kind))
        ]
    )
    tol = 1e-10 if kind is DeformationKind.UNDEFORMED else 1e-8
    return VerificationReport.from_measurement(
        f"constants_of_motion[{kind.value}]", worst, tol, note="100 annulus points"
    )


# --- suite -------------------------------------------------------------------


def _bracket_algebra_reports(params, rng, seed):
    """The FD oracle's checks, one call each, at annulus points drawn from rng."""
    h = DEFAULT_FD_STEP
    err = _abs(poisson_bracket_fd(lambda qc, p: qc, lambda qc, p: p, (0.3, -0.7), h) - 1.0)
    reports = [VerificationReport.from_measurement("canonical_pair_bracket", err, 1e-10)]

    qc, p = complex_to_canonical(_annulus_points(rng, 100), params)
    al, alc = alpha_field(params), alpha_conj_field(params)
    ham = hamiltonian_field(params, DeformationKind.TYPE1)
    err = _abs(poisson_bracket_fd(al, alc, (qc, p), h) - (-1j / params.hbar)).max()
    reports.append(VerificationReport.from_measurement("alpha_pair_bracket", err, 1e-8))
    selferr = _abs(poisson_bracket_fd(al, al, (qc, p), h)).max()
    reports.append(VerificationReport.from_measurement("self_bracket_zero", selferr, 1e-10))
    first = (qc[:10], p[:10])
    anti = _abs(poisson_bracket_fd(al, ham, first, h) + poisson_bracket_fd(ham, al, first, h))
    reports.append(VerificationReport.from_measurement("bracket_antisymmetry", anti.max(), 1e-10))

    pts = _annulus_points(rng, 25)
    for kind in (DeformationKind.TYPE1, DeformationKind.TYPE2):
        rep = verify_alphaq_bracket(params, kind, pts, h)
        reports.append(replace(rep, note="25 annulus points"))

    # second-order convergence of FD toward the closed form; the order is
    # only measurable while truncation still dominates roundoff
    errs = [
        verify_alphaq_bracket(params, DeformationKind.TYPE1, 0.3 + 0.4j, hh).error
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
    else:
        _, gm = _step_ratios(errs)
        reports.append(
            VerificationReport.from_measurement(
                "alphaq_bracket_order", abs(gm - 4.0), 1.0, order=math.log2(gm)
            )
        )

    pts = _annulus_points(rng, 10)
    reports += [verify_chain_identities(params, kind, pts, h) for kind in DeformationKind]
    for kind in (DeformationKind.TYPE1, DeformationKind.TYPE2):
        rep = verify_f_derivative_identity(params, kind, pts, h)
        reports.append(replace(rep, note="10 annulus points"))
    reports += [verify_constants_of_motion(params, kind, seed=seed, h=h) for kind in DeformationKind]
    return reports


def _dynamics_reports(params, rk4_steps):
    reports = []
    start = 0.5 + 0j
    t_end = 2.0 * np.pi / params.omega
    paths = {}
    notes = {}
    for label, profile in (("undeformed", UNDEFORMED), ("mu1", MU1), ("mu2", MU2)):
        traj = Trajectory(start, profile, params)
        try:
            paths[label] = integrate_path(traj, t_end, rk4_steps)
        except OverflowError as exc:  # too few steps: the orbit left the law's range
            err = math.inf
            notes[label] = f"{label} path diverged: {exc}"
        else:
            err = abs(complex(paths[label][-1]) - evolve_exact(traj, t_end))
        reports.append(
            VerificationReport.from_measurement(
                f"rk4_endpoint[{label}]", err, 1e-8, note=notes.get(label, "")
            )
        )

    # The drift checks reuse the mu1 path integrated for its endpoint above.
    traj = Trajectory(start, MU1, params)
    action_drift = energy_drift = math.inf
    if "mu1" in paths:
        path = paths["mu1"]
        s_path = action(path)
        action_drift = np.abs(s_path - s_path[0]).max()
        energies = params.hbar * params.omega * q_number(s_path, params, DeformationKind.TYPE1)
        energy_drift = np.abs(energies - energies[0]).max()
    for name, err in (("rk4_action_drift", action_drift), ("rk4_energy_drift", energy_drift)):
        reports.append(
            VerificationReport.from_measurement(name, err, 1e-8, note=notes.get("mu1", ""))
        )

    exact = evolve_exact(traj, t_end)
    _, gm = _step_ratios([abs(integrate_eom(traj, t_end, n) - exact) for n in (128, 256, 512)])
    reports.append(
        VerificationReport.from_measurement(
            "rk4_convergence_order", abs(gm - 16.0), 4.0, order=math.log2(gm)
        )
    )
    return reports


def _frequency_reports(params):
    reports = []
    s = np.linspace(0.0, 2.0, 201)
    rels = []
    for kind in (DeformationKind.TYPE1, DeformationKind.TYPE2):
        mu_in, mu_out = profile_for_kind(kind, Representation.ALPHA_Q), profile_for_kind(kind)
        sq = q_number(s, params, kind)
        ref = frequency(s, params, mu_out)
        rels.append(np.abs(frequency(sq, params, mu_in) - ref) / ref)
    reports.append(
        VerificationReport.from_measurement("frequency_cross_identity", np.max(rels), 1e-12)
    )

    limit = OscillatorParams(
        q=1.0 - 1e-8, mass=params.mass, omega=params.omega, hbar=params.hbar
    )
    grid = np.linspace(0.0, 1.0, 101)
    qn_err = np.max(
        [
            np.abs(q_number(grid, limit, kind) - grid)
            for kind in (DeformationKind.TYPE1, DeformationKind.TYPE2)
        ]
    )
    reports.append(VerificationReport.from_measurement("q_limit_qnumber", qn_err, 1e-7))
    freq_err = np.max(
        [np.abs(frequency(grid, limit, prof) / limit.omega - 1.0) for prof in (MU1, MU2, MU3, MU4)]
    )
    reports.append(VerificationReport.from_measurement("q_limit_frequency", freq_err, 1e-6))
    return reports


def _transport_states(params):
    center = 0.5 + 0j
    anharmonic = FrequencyProfile(FrequencySelector.ANHARMONIC)
    return [
        ("undeformed", GaussianState(center, UNDEFORMED, params)),
        ("mu1", GaussianState(center, MU1, params)),
        ("mu2", GaussianState(center, MU2, params)),
        ("anharmonic", GaussianState(center, anharmonic, params)),
        ("mu3", GaussianState(deform(center, params, DeformationKind.TYPE1), MU3, params)),
        ("mu4", GaussianState(deform(center, params, DeformationKind.TYPE2), MU4, params)),
    ]


def _transport_reports(params):
    errs = []
    for _, state in _transport_states(params):
        seeds = circle_points(state.center, 0.5, 4096)
        base = initial_distribution(seeds, state)
        for tau in PANEL_TAUS:
            t = tau / params.omega
            moved = advect_points(seeds, state, t)
            errs.append(np.abs(evolved_distribution(moved, state, t) - base))
    return [VerificationReport.from_measurement("transport_identity", np.max(errs), 1e-12)]


def _peak_reports(params):
    reports = []
    state = GaussianState(0.5 + 0j, MU1, params)
    traj = Trajectory(state.center, MU1, params)
    errs = []
    for tau in PANEL_TAUS:
        t = tau / params.omega
        errs.append(abs(evolved_distribution(evolve_exact(traj, t), state, t) - 1.0))
    reports.append(VerificationReport.from_measurement("peak_value_analytic", np.max(errs), 0.0))

    field = sample_grid(state, np.pi / params.omega, GridSpec.square(512))
    m = float(field.values.max())
    out_of_band = np.max([0.999 - m, m - (1.0 + 1e-12), 0.0])
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
    worst = np.max(
        [pde_residual(state, t, grid, sign=sign, h=1e-4).max for _, state in _transport_states(params)]
    )
    reports.append(
        VerificationReport.from_measurement(f"pde_residual[sigma={sign:+d}]", worst, 1e-6)
    )

    state = GaussianState(0.5 + 0j, MU1, params)
    resids = [pde_residual(state, t, grid, sign=sign, h=hh).max for hh in (4e-4, 2e-4, 1e-4, 5e-5)]
    ratios, gm = _step_ratios(resids)
    err = np.max([abs(r - 4.0) for r in ratios])
    reports.append(
        VerificationReport.from_measurement(
            "pde_residual_order", err, 0.5, order=math.log2(gm)
        )
    )

    # the wrong sign must miss the generator outright and by a wide margin
    # over the right sign at the same step (resids[2] is h = 1e-4)
    right = resids[2] if sign == 1 else pde_residual(state, t, grid, sign=1, h=1e-4).max
    wrong = pde_residual(state, t, grid, sign=-1, h=1e-4).max
    floor = np.max([0.1, SIGN_MARGIN * right])
    reports.append(
        VerificationReport.from_measurement(
            "pde_sign_discrimination",
            _shortfall(wrong, floor),
            0.0,
            note=(
                f"sigma=-1 max residual {wrong:.3e} (needs >= 0.1 and "
                f">= {SIGN_MARGIN:g} x sigma=+1 {right:.3e})"
            ),
        )
    )
    return reports


def _contour_reports(params):
    reports = []
    deltas = []
    for _, state in _transport_states(params)[1:4]:  # mu1, mu2, anharmonic
        lengths = [
            contour_length(advect_contour(state, tau / params.omega, radius=0.5, n_points=4096))
            for tau in PANEL_TAUS
        ]
        deltas.append(np.diff(lengths))
    min_delta = np.min(deltas)
    reports.append(
        VerificationReport.from_measurement(
            "whorl_stretching",
            _shortfall(min_delta, 0.0),
            0.0,
            note=f"min panel-to-panel growth {min_delta:.4f}",
        )
    )

    state = GaussianState(0.5 + 0j, UNDEFORMED, params)
    base = contour_length(advect_contour(state, 0.0, radius=0.5, n_points=4096))
    drift = np.max(
        [
            abs(contour_length(advect_contour(state, tau / params.omega, radius=0.5, n_points=4096)) - base)
            / base
            for tau in PANEL_TAUS
        ]
    )
    reports.append(VerificationReport.from_measurement("rigid_rotation_length", drift, 1e-9))
    return reports


def run_full_suite(
    params: OscillatorParams,
    seed: int = DEFAULT_SEED,
    sign: int = 1,
    rk4_steps: int = 10_000,
) -> list[VerificationReport]:
    """Run every certification check and return the complete report list.

    Failures never abort the run.  All randomness comes from the seed, so a
    rerun with identical arguments reproduces every report bit-for-bit.
    The RK4 tolerances assume the default step count.
    """
    for profile in (MU1, MU2, MU3, MU4):  # q-constants that overflow raise here, before array work
        frequency_law(params, profile)
    rng = np.random.default_rng(seed)
    # at extreme q an error may overflow; it is kept and compared, so it FAILs
    with np.errstate(over="ignore", invalid="ignore"):
        reports = _bracket_algebra_reports(params, rng, seed)
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
