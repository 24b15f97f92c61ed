"""Checks of the finite-difference bracket oracle and the report suite."""

import dataclasses
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

import qwhorl.dynamics
import qwhorl.liouville
import qwhorl.verify
from qwhorl.core import (
    MU1,
    DeformationKind,
    OscillatorParams,
    Representation,
    action,
    canonical_to_complex,
    complex_to_canonical,
    deform,
    deformation_f,
    frequency_law,
    hamiltonian_alpha,
    profile_for_kind,
    q_number,
)
from qwhorl.field import GridSpec
from qwhorl.liouville import GaussianState, pde_residual
from qwhorl.verify import (
    DEFAULT_FD_STEP,
    DEFAULT_SEED,
    VerificationReport,
    all_passed,
    canonical_field,
    chain_identity_errors,
    format_reports,
    poisson_bracket_fd,
    run_full_suite,
    verify_alphaq_bracket,
    verify_chain_identities,
    verify_constants_of_motion,
    verify_f_derivative_identity,
)

TYPE1 = DeformationKind.TYPE1
TYPE2 = DeformationKind.TYPE2
UNDEF = DeformationKind.UNDEFORMED


def amplitude_fields(params):
    """The fields alpha and alpha* on the canonical plane."""
    return canonical_field(params, lambda a: a), canonical_field(params, np.conj)


def deformed_fields(params, kind):
    """The fields alpha_q and alpha_q* on the canonical plane."""
    return (
        canonical_field(params, lambda a: deform(a, params, kind)),
        canonical_field(params, lambda a: np.conj(deform(a, params, kind))),
    )


def energy_field(params, kind):
    return canonical_field(params, lambda a: hamiltonian_alpha(a, params, kind))


def annulus(rng, n, rmin=0.1, rmax=1.5):
    r = np.sqrt(rmin**2 + rng.random(n) * (rmax**2 - rmin**2))
    return r * np.exp(2j * np.pi * rng.random(n))


class TestPoissonBracketFd:
    def test_canonical_pair(self, params):
        value = poisson_bracket_fd(lambda q, p: q, lambda q, pp: pp, (0.4, -1.1), h=1e-5)
        assert abs(value - 1.0) <= 1e-10

    def test_amplitude_pair_is_minus_i_over_hbar(self, params, rng):
        al, alc = amplitude_fields(params)
        for z in annulus(rng, 100):
            at = complex_to_canonical(complex(z), params)
            assert abs(poisson_bracket_fd(al, alc, at) + 1j / params.hbar) <= 1e-8

    def test_self_bracket_vanishes(self, params):
        al, _ = amplitude_fields(params)
        assert abs(poisson_bracket_fd(al, al, (0.3, 0.9))) <= 1e-10

    def test_antisymmetry(self, params, rng):
        al, _ = amplitude_fields(params)
        ham = energy_field(params, TYPE1)
        for z in annulus(rng, 10):
            at = complex_to_canonical(complex(z), params)
            fwd = poisson_bracket_fd(al, ham, at)
            rev = poisson_bracket_fd(ham, al, at)
            assert abs(fwd + rev) <= 1e-10

    def test_nonpositive_step_rejected(self, params):
        al, _ = amplitude_fields(params)
        with pytest.raises(ValueError, match="h must be positive"):
            poisson_bracket_fd(al, al, (0.0, 0.0), h=0.0)

    def test_scales_with_hbar(self):
        prm = OscillatorParams(q=0.5, hbar=4.0)
        al, alc = amplitude_fields(prm)
        at = complex_to_canonical(complex(0.4, 0.2), prm)
        assert abs(poisson_bracket_fd(al, alc, at) + 0.25j) <= 1e-8


class TestAlphaqBracket:
    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_protocol_point(self, params, kind):
        report = verify_alphaq_bracket(params, kind, complex(0.5))
        assert report.passed and report.error <= 1e-6

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_origin_limit(self, params, kind):
        # closed forms tend to -i lam / (hbar sinh lam) resp. -i lam / (hbar (e^lam - 1));
        # the exponential kind approaches its limit linearly in s_q, so the
        # probe point must sit within |alpha| <~ 7e-4 to see it at 1e-6
        lam = params.lam
        if kind is TYPE1:
            origin = -1j * lam / math.sinh(lam)
        else:
            origin = -1j * lam / math.expm1(lam)
        fd = poisson_bracket_fd(
            *deformed_fields(params, kind), complex_to_canonical(complex(5e-4), params)
        )
        assert abs(fd - origin) <= 1e-6

    def test_q_to_one_reduces_to_canonical(self):
        prm = OscillatorParams(q=1.0 - 1e-6)
        for kind in (TYPE1, TYPE2):
            report = verify_alphaq_bracket(prm, kind, complex(0.5, 0.3))
            assert report.passed
            fd = poisson_bracket_fd(
                *deformed_fields(prm, kind), complex_to_canonical(complex(0.5, 0.3), prm)
            )
            assert abs(fd + 1j) <= 1e-5

    def test_second_order_convergence_to_closed_form(self, params):
        errs = [
            verify_alphaq_bracket(params, TYPE1, complex(0.3, 0.4), h=h).error
            for h in (2e-3, 1e-3, 5e-4)
        ]
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.0 <= coarse / fine <= 5.0


class TestChainIdentities:
    def test_undeformed_linear_case(self, params):
        report = verify_chain_identities(params, UNDEF, complex(0.4, -0.2))
        assert report.passed and report.error <= 1e-8

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_deformed_case(self, params, kind):
        report = verify_chain_identities(params, kind, complex(0.3, 0.4))
        assert report.passed and report.error <= 1e-6

    def test_radially_symmetric_distribution_annihilated(self, params):
        # with the Gaussian centered on the origin both transport sides vanish
        errors = chain_identity_errors(params, TYPE1, complex(0.6, 0.1), center=0.0 + 0.0j)
        assert errors["alpha_transport"] <= 1e-8
        assert errors["alphaq_transport"] <= 1e-8
        ham = energy_field(params, TYPE1)
        gauss = canonical_field(params, lambda a: qwhorl.verify._unit_gaussian(a, 0j))
        at = complex_to_canonical(complex(0.6, 0.1), params)
        assert abs(poisson_bracket_fd(ham, gauss, at)) <= 1e-8


class TestFDerivativeIdentity:
    @pytest.mark.parametrize(
        "kind,point", [(TYPE1, complex(0.5)), (TYPE2, complex(0.0, 0.7))]
    )
    def test_three_way_agreement(self, params, kind, point):
        report = verify_f_derivative_identity(params, kind, point)
        assert report.passed and report.error <= 1e-6

    def test_q_to_one_value_vanishes(self):
        prm = OscillatorParams(q=1.0 - 1e-6)
        lam = prm.lam
        from qwhorl.core import deformation_f, frequency
        from qwhorl.core import MU1

        s = 0.25
        f = deformation_f(s, prm, TYPE1)
        closed = (frequency(s, prm, MU1) / prm.omega - f * f) / (2.0 * f)
        assert abs(closed) <= 1e-5
        assert verify_f_derivative_identity(prm, TYPE1, complex(0.5)).passed

    def test_small_amplitude_not_applicable(self, params):
        report = verify_f_derivative_identity(params, TYPE1, complex(1e-5))
        assert report.passed
        assert "not applicable" in report.note


class TestConstantsOfMotion:
    def test_undeformed(self, params):
        report = verify_constants_of_motion(params, UNDEF, suite_points()[:100])
        assert report.passed and report.error <= 1e-10

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_deformed(self, params, kind):
        report = verify_constants_of_motion(params, kind, suite_points()[:100])
        assert report.passed and report.error <= 1e-8


class TestVerificationReport:
    def test_constructor(self):
        report = VerificationReport("x", 0.5, 1.0, order=2.0)
        assert report.passed and report.order == 2.0
        assert not VerificationReport("x", 2.0, 1.0).passed

    def test_verdict_follows_a_replaced_error(self):
        report = VerificationReport("x", 0.5, 1.0)
        assert dataclasses.replace(report, error=2.0).passed is False
        assert dataclasses.replace(report, tolerance=0.5).passed is True

    def test_nan_error_fails(self):
        assert VerificationReport("x", math.nan, 1.0).passed is False
        assert "FAIL" in format_reports([VerificationReport("x", math.nan, 1.0)])


class TestFullSuite:
    def test_default_run_all_pass(self, params):
        reports = run_full_suite(params)
        failed = [r.name for r in reports if not r.passed]
        assert all_passed(reports), failed

    def test_near_undeformed_q_all_pass(self):
        reports = run_full_suite(OscillatorParams(q=0.999999))
        assert all_passed(reports), [r.name for r in reports if not r.passed]

    def test_wrong_sign_fails_residual_and_keeps_discrimination(self, params):
        reports = run_full_suite(params, sign=-1)
        by_name = {r.name: r for r in reports}
        assert not by_name["pde_residual[sigma=-1]"].passed
        assert by_name["pde_sign_discrimination"].passed
        assert not all_passed(reports)

    def test_reports_reproducible_bit_for_bit(self, params):
        a = format_reports(run_full_suite(params, seed=DEFAULT_SEED))
        b = format_reports(run_full_suite(params, seed=DEFAULT_SEED))
        assert a == b

    def test_negative_seed_is_refused(self, params):
        # numpy's generators refused it; random.Random would seed -1 as 1
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            run_full_suite(params, seed=-1)

    def test_suite_draws_the_replayed_points(self, params, monkeypatch):
        # the reference tests below evaluate suite_points(): they must be the
        # points the suite evaluates, bit for bit
        drawn, constants_at = [], []
        original = qwhorl.verify._annulus_points
        constants = qwhorl.verify.verify_constants_of_motion

        def recording(rng, n):
            drawn.append(original(rng, n))
            return drawn[-1]

        def recording_constants(params, kind, at, h):
            constants_at.append(np.array(at))
            return constants(params, kind, at, h)

        monkeypatch.setattr(qwhorl.verify, "_annulus_points", recording)
        monkeypatch.setattr(qwhorl.verify, "verify_constants_of_motion", recording_constants)
        run_full_suite(params)
        # drawn once: 100, 25 and 10; each constants-of-motion kind reuses the first 100
        assert [pts.size for pts in drawn] == [100, 25, 10]
        assert np.concatenate(drawn).tobytes() == suite_points().tobytes()
        assert len(constants_at) == len(DeformationKind)
        assert all(at.tobytes() == suite_points()[:100].tobytes() for at in constants_at)

    def test_table_has_one_line_per_check(self, params):
        reports = run_full_suite(params)
        table = format_reports(reports)
        assert len(table.splitlines()) == len(reports) + 2  # header + rule

    def test_rk4_step_budget(self, params, monkeypatch):
        # 3 endpoint paths at the default 10k steps, whose mu1 path also
        # feeds the drift checks, plus the 128/256/512 convergence ladder
        original = qwhorl.dynamics.integrate_path
        steps = []

        def counting(traj, t, n):
            steps.append(n)
            return original(traj, t, n)

        monkeypatch.setattr(qwhorl.dynamics, "integrate_path", counting)
        monkeypatch.setattr(qwhorl.verify, "integrate_path", counting)
        run_full_suite(params)
        assert len(steps) == 6
        assert sum(steps) == 30_896

    def test_each_seed_circle_is_advected_once_per_panel(self, monkeypatch):
        # 6 transport states x 4 panel times: the transport, stretching and
        # rigid-rotation rows read the same images
        original = qwhorl.liouville.advect_points
        sizes = []

        def counting(points, state, t):
            sizes.append(np.size(points))
            return original(points, state, t)

        monkeypatch.setattr(qwhorl.liouville, "advect_points", counting)
        monkeypatch.setattr(qwhorl.verify, "advect_points", counting)
        run_full_suite(OscillatorParams(q=0.5))
        assert sizes == [4096] * 24

    @pytest.mark.parametrize("sign", [1, -1])
    def test_each_pde_residual_is_computed_once(self, monkeypatch, sign):
        # 6 states at h = 1e-4, the mu1 step ladder's 3 other steps and the
        # opposite sign's mu1 residual at h = 1e-4
        original = qwhorl.verify.pde_residual
        calls = []

        def counting(state, t, points, sign=1, h=1e-4):
            calls.append((state, sign, h))
            return original(state, t, points, sign=sign, h=h)

        monkeypatch.setattr(qwhorl.verify, "pde_residual", counting)
        run_full_suite(OscillatorParams(q=0.5), sign=sign)
        assert len(calls) == 10
        assert len(set(calls)) == 10

    def test_step_size_robustness(self, params):
        # each point-style check keeps its verdict across three decades of h
        point, pts100 = complex(0.3, 0.4), suite_points()[:100]
        for h in (1e-4, 1e-5, 1e-6):
            for kind in (TYPE1, TYPE2):
                assert verify_alphaq_bracket(params, kind, point, h=h).passed
                assert verify_chain_identities(params, kind, point, h=h).passed
                assert verify_f_derivative_identity(params, kind, point, h=h).passed
                assert verify_constants_of_motion(params, kind, pts100, h=h).passed
            assert verify_chain_identities(params, UNDEF, point, h=h).passed
            assert verify_constants_of_motion(params, UNDEF, pts100, h=h).passed


# --- reference: the one-point-at-a-time oracle in Python complex and math ----
#
# Each field takes one canonical (qc, p) pair of floats and goes through the
# scalar core conversions; the array oracle must reproduce it bit for bit.


def ref_bracket(F, G, qc, p, h=DEFAULT_FD_STEP):
    fq = (F(qc + h, p) - F(qc - h, p)) / (2.0 * h)
    fp = (F(qc, p + h) - F(qc, p - h)) / (2.0 * h)
    gq = (G(qc + h, p) - G(qc - h, p)) / (2.0 * h)
    gp = (G(qc, p + h) - G(qc, p - h)) / (2.0 * h)
    return fq * gp - fp * gq


def ref_fields(params, kind, center=0.5 + 0.0j):
    """name -> scalar field, for the suite's fields at one deformation kind."""

    def alpha(qc, p):
        return complex(canonical_to_complex(qc, p, params))

    def alphaq(qc, p):
        return complex(deform(canonical_to_complex(qc, p, params), params, kind))

    def gaussian(c, amplitude):
        def f(qc, p):
            d = amplitude(qc, p) - c
            return math.exp(-(d.real * d.real + d.imag * d.imag))

        return f

    cq = complex(deform(complex(center), params, kind))
    return {
        "alpha": alpha,
        "alpha*": lambda qc, p: alpha(qc, p).conjugate(),
        "alpha_q": alphaq,
        "alpha_q*": lambda qc, p: alphaq(qc, p).conjugate(),
        "|alpha|^2": lambda qc, p: action(canonical_to_complex(qc, p, params)),
        "|alpha_q|^2": lambda qc, p: q_number(action(canonical_to_complex(qc, p, params)), params, kind),
        "H": lambda qc, p: hamiltonian_alpha(canonical_to_complex(qc, p, params), params, kind),
        "gaussian": gaussian(center, alpha),
        "gaussian_q": gaussian(cq, alphaq),
    }


def array_fields(params, kind, center=0.5 + 0.0j):
    cq = complex(deform(complex(center), params, kind))
    unit_gaussian = qwhorl.verify._unit_gaussian
    fields = {
        "alpha": lambda a: a,
        "alpha*": np.conj,
        "alpha_q": lambda a: deform(a, params, kind),
        "alpha_q*": lambda a: np.conj(deform(a, params, kind)),
        "|alpha|^2": action,
        "|alpha_q|^2": lambda a: q_number(action(a), params, kind),
        "H": lambda a: hamiltonian_alpha(a, params, kind),
        "gaussian": lambda a: unit_gaussian(a, center),
        "gaussian_q": lambda a: unit_gaussian(deform(a, params, kind), cq),
    }
    return {name: canonical_field(params, f) for name, f in fields.items()}


def ref_pair_closed(params, kind, s_q):
    prof = profile_for_kind(kind, Representation.ALPHA_Q)
    return -1j / params.hbar * (frequency_law(params, prof)(s_q) / params.omega)


def ref_chain_errors(params, kind, z, h=DEFAULT_FD_STEP, c=0.5 + 0.0j):
    pt = complex(z)
    qc, p = complex_to_canonical(pt, params)
    fields = ref_fields(params, kind, c)
    ham = fields["H"]
    w = params.omega
    om_a = frequency_law(params, profile_for_kind(kind))(action(pt))
    zq = complex(deform(pt, params, kind))
    s_q = zq.real * zq.real + zq.imag * zq.imag
    cq = complex(deform(complex(c), params, kind))
    om_q = w * abs(ref_pair_closed(params, kind, s_q)) * params.hbar
    z = complex(pt)
    pval = fields["gaussian"](qc, p)
    pqval = fields["gaussian_q"](qc, p)
    return {
        "alpha_eom": abs(ref_bracket(fields["alpha"], ham, qc, p, h) - (-1j * om_a * z)),
        "alpha_transport": abs(
            ref_bracket(ham, fields["gaussian"], qc, p, h)
            - 2.0 * om_a * (c * z.conjugate()).imag * pval
        ),
        "alphaq_eom": abs(ref_bracket(fields["alpha_q"], ham, qc, p, h) - (-1j * om_q * zq)),
        "alphaq_transport": abs(
            ref_bracket(ham, fields["gaussian_q"], qc, p, h)
            - 2.0 * om_q * (cq * zq.conjugate()).imag * pqval
        ),
    }


def ref_f_derivative_error(params, kind, z, h=DEFAULT_FD_STEP):
    pt = complex(z)
    qc, p = complex_to_canonical(pt, params)

    def f_of(qcv, pv):
        return deformation_f(action(canonical_to_complex(qcv, pv, params)), params, kind)

    fq = (f_of(qc + h, p) - f_of(qc - h, p)) / (2.0 * h)
    fp = (f_of(qc, p + h) - f_of(qc, p - h)) / (2.0 * h)
    cq = math.sqrt(params.hbar / (2.0 * params.mass * params.omega))
    cp = math.sqrt(params.hbar * params.mass * params.omega / 2.0)
    z = complex(pt)
    afa = z * (cq * fq - 1j * cp * fp)
    asfas = z.conjugate() * (cq * fq + 1j * cp * fp)
    g = frequency_law(params, profile_for_kind(kind))(action(pt)) / params.omega
    fval = deformation_f(action(pt), params, kind)
    closed = (g - fval * fval) / (2.0 * fval)
    return max(abs(afa - closed), abs(asfas - closed), abs(afa - asfas))


def suite_points():
    """The annulus points the suite draws from random.Random(DEFAULT_SEED):
    100, then 25, then 10, each as n radius uniforms before n angle uniforms."""
    rng = random.Random(DEFAULT_SEED)
    draws = SimpleNamespace(random=lambda n: np.array([rng.random() for _ in range(n)]))
    return np.concatenate([annulus(draws, n) for n in (100, 25, 10)])


# every ordered field pair whose bracket the suite evaluates
BRACKET_PAIRS = [
    ("alpha", "alpha*"),
    ("alpha", "alpha"),
    ("alpha", "H"),
    ("H", "alpha"),
    ("alpha_q", "alpha_q*"),
    ("|alpha|^2", "H"),
    ("|alpha_q|^2", "H"),
    ("H", "gaussian"),
    ("alpha_q", "H"),
    ("H", "gaussian_q"),
]


class TestSignDiscrimination:
    """pde_sign_discrimination asks sigma=-1 to miss by >= 0.1 and by SIGN_MARGIN x sigma=+1."""

    @staticmethod
    def _report(q, sign=1):
        with np.errstate(over="ignore", invalid="ignore"):
            reports = qwhorl.verify._pde_reports(OscillatorParams(q=q), sign)
        return {r.name: r for r in reports}["pde_sign_discrimination"]

    @pytest.mark.parametrize("q", [0.1, 0.25, 0.5, 0.9])
    def test_ordinary_q_passes_with_wide_margin(self, q):
        state = GaussianState(complex(0.5), MU1, OscillatorParams(q=q))
        grid = GridSpec.square(64)
        t = math.pi / 4
        right = pde_residual(state, t, grid.mesh_complex(), sign=1, h=1e-4)
        wrong = pde_residual(state, t, grid.mesh_complex(), sign=-1, h=1e-4)
        assert wrong >= 100 * qwhorl.verify.SIGN_MARGIN * right
        assert wrong >= 5.0 * 0.1
        report = self._report(q)
        assert report.passed and report.error == 0.0
        assert f"sigma=+1 {right:.3e}" in report.note

    @pytest.mark.parametrize("sign", [1, -1])
    def test_indistinct_signs_fail(self, sign):
        # at q = 1e-100 both signs' residuals are 5.3e+101: far above 0.1,
        # yet no discrimination
        report = self._report(1e-100, sign)
        assert not report.passed
        assert report.error > 0.1

    def test_both_signs_give_the_same_row(self):
        assert self._report(0.5, 1) == self._report(0.5, -1)


class TestWhorlStretching:
    """whorl_stretching leaves out a law whose predicted growth is below STRETCH_ULPS ulps."""

    @staticmethod
    def _row(q):
        circles = qwhorl.verify._advected_circles(OscillatorParams(q=q))
        return qwhorl.verify._contour_reports(circles)[0]

    @pytest.mark.parametrize(
        "q, left_out", [(0.9999, "mu1"), (0.9999999, "mu1"), (0.999999999, "mu1, mu2")]
    )
    def test_near_one_q_passes_naming_the_laws_left_out(self, q, left_out):
        row = self._row(q)
        assert row.passed and row.error == 0.0
        assert row.note.endswith(f"; left out (predicted growth < 4 ulps): {left_out}")

    @pytest.mark.parametrize("q, growth", [(0.1, "3.293"), (0.5, "0.09902")])
    def test_ordinary_q_row_is_unchanged(self, q, growth):
        note = f"min panel-to-panel growth {growth}"
        assert self._row(q) == VerificationReport("whorl_stretching", 0.0, 0.0, note=note)

    @pytest.mark.parametrize("q", [0.95, 0.999, 0.9995])
    @pytest.mark.parametrize("label", ["mu1", "mu2"])
    def test_predicted_growth_bounds_the_measured_step(self, q, label):
        # the second-order shear term predicts the first panel step: mu2's
        # law is nearly linear over the circle, mu1's convex one grows up to
        # about 17% faster
        state, seeds, images = qwhorl.verify._advected_circles(OscillatorParams(q=q))[label]
        length = qwhorl.verify.contour_length(qwhorl.liouville.ContourTrace(seeds, closed=True))
        predicted = qwhorl.verify._least_growth(state, seeds, length)
        lengths = qwhorl.verify._panel_lengths(images)
        assert 0.99 * predicted <= lengths[1] - lengths[0] <= 1.2 * predicted

    def test_one_ulp_decrease_in_a_kept_law_fails(self, monkeypatch):
        # at q = 0.9999 mu2 is kept (its predicted step is about 2e7 ulps)
        circles = qwhorl.verify._advected_circles(OscillatorParams(q=0.9999))
        mu2 = circles["mu2"][2]
        original = qwhorl.verify._panel_lengths

        def lengths(images):
            out = original(images)
            if images is mu2:
                out[1] = out[0] - math.ulp(out[0])
            return out

        monkeypatch.setattr(qwhorl.verify, "_panel_lengths", lengths)
        row = qwhorl.verify._contour_reports(circles)[0]
        assert not row.passed
        assert row.error == math.ulp(original(mu2)[0])
        assert row.note.endswith(": mu1")


class TestArrayOracleMatchesReference:
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("kind", list(DeformationKind))
    def test_brackets_bit_equal(self, q, kind):
        prm = OscillatorParams(q=q)
        pts = suite_points()
        qc, p = complex_to_canonical(pts, prm)
        ref, arr = ref_fields(prm, kind), array_fields(prm, kind)
        for f, g in BRACKET_PAIRS:
            got = poisson_bracket_fd(arr[f], arr[g], (qc, p))
            want = np.array([complex(ref_bracket(ref[f], ref[g], a, b)) for a, b in zip(qc, p)])
            assert np.array_equal(got.real, want.real), (f, g)
            assert np.array_equal(got.imag, want.imag), (f, g)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("kind", list(DeformationKind))
    def test_chain_identity_errors_bit_equal(self, q, kind):
        prm = OscillatorParams(q=q)
        pts = suite_points()
        got = chain_identity_errors(prm, kind, pts)
        want = [ref_chain_errors(prm, kind, z) for z in pts]
        for name, errs in got.items():
            assert np.array_equal(errs, [w[name] for w in want]), name

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_f_derivative_errors_bit_equal(self, q, kind):
        prm = OscillatorParams(q=q)
        pts = suite_points()
        want = [ref_f_derivative_error(prm, kind, z) for z in pts]
        got = [verify_f_derivative_identity(prm, kind, complex(z)).error for z in pts]
        assert got == want
        assert verify_f_derivative_identity(prm, kind, pts).error == max(want)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_alphaq_pair_errors_bit_equal(self, q, kind):
        prm = OscillatorParams(q=q)
        pts = suite_points()
        ref = ref_fields(prm, kind)
        want = []
        for z in pts:
            qc, p = complex_to_canonical(complex(z), prm)
            fd = ref_bracket(ref["alpha_q"], ref["alpha_q*"], qc, p)
            s_q = action(deform(complex(z), prm, kind))
            want.append(abs(fd - ref_pair_closed(prm, kind, s_q)))
        assert verify_alphaq_bracket(prm, kind, pts).error == max(want)
