"""Checks of the finite-difference bracket oracle and the report suite."""

import math

import numpy as np
import pytest

import qwhorl.dynamics
import qwhorl.verify
from qwhorl.core import (
    DeformationKind,
    OscillatorParams,
    PhasePoint,
    complex_to_canonical,
)
from qwhorl.verify import (
    DEFAULT_SEED,
    ScalarField,
    VerificationReport,
    all_passed,
    alpha_conj_field,
    alpha_field,
    chain_identity_errors,
    format_reports,
    gaussian_field,
    hamiltonian_field,
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


def annulus(rng, n, rmin=0.1, rmax=1.5):
    r = np.sqrt(rmin**2 + rng.random(n) * (rmax**2 - rmin**2))
    return r * np.exp(2j * np.pi * rng.random(n))


class TestPoissonBracketFd:
    def test_canonical_pair(self, params):
        qc = ScalarField("qc", lambda q, p: q)
        p = ScalarField("p", lambda q, pp: pp)
        value = poisson_bracket_fd(qc, p, (0.4, -1.1), h=1e-5)
        assert abs(value - 1.0) <= 1e-10

    def test_amplitude_pair_is_minus_i_over_hbar(self, params, rng):
        al, alc = alpha_field(params), alpha_conj_field(params)
        for z in annulus(rng, 100):
            at = complex_to_canonical(PhasePoint(z.real, z.imag), params)
            assert abs(poisson_bracket_fd(al, alc, at) + 1j / params.hbar) <= 1e-8

    def test_self_bracket_vanishes(self, params):
        al = alpha_field(params)
        assert abs(poisson_bracket_fd(al, al, (0.3, 0.9))) <= 1e-10

    def test_antisymmetry(self, params, rng):
        al = alpha_field(params)
        ham = hamiltonian_field(params, TYPE1)
        for z in annulus(rng, 10):
            at = complex_to_canonical(PhasePoint(z.real, z.imag), params)
            fwd = poisson_bracket_fd(al, ham, at)
            rev = poisson_bracket_fd(ham, al, at)
            assert abs(fwd + rev) <= 1e-10

    def test_nonpositive_step_rejected(self, params):
        al = alpha_field(params)
        with pytest.raises(ValueError, match="h must be positive"):
            poisson_bracket_fd(al, al, (0.0, 0.0), h=0.0)

    def test_scales_with_hbar(self):
        prm = OscillatorParams(q=0.5, hbar=4.0)
        al, alc = alpha_field(prm), alpha_conj_field(prm)
        at = complex_to_canonical(PhasePoint(0.4, 0.2), prm)
        assert abs(poisson_bracket_fd(al, alc, at) + 0.25j) <= 1e-8


class TestAlphaqBracket:
    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_protocol_point(self, params, kind):
        report = verify_alphaq_bracket(params, kind, PhasePoint(0.5))
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
        from qwhorl.verify import alphaq_conj_field, alphaq_field

        fd = poisson_bracket_fd(
            alphaq_field(params, kind),
            alphaq_conj_field(params, kind),
            complex_to_canonical(PhasePoint(5e-4), params),
        )
        assert abs(fd - origin) <= 1e-6

    def test_q_to_one_reduces_to_canonical(self):
        prm = OscillatorParams(q=1.0 - 1e-6)
        for kind in (TYPE1, TYPE2):
            report = verify_alphaq_bracket(prm, kind, PhasePoint(0.5, 0.3))
            assert report.passed
            from qwhorl.verify import alphaq_conj_field, alphaq_field

            fd = poisson_bracket_fd(
                alphaq_field(prm, kind),
                alphaq_conj_field(prm, kind),
                complex_to_canonical(PhasePoint(0.5, 0.3), prm),
            )
            assert abs(fd + 1j) <= 1e-5

    def test_second_order_convergence_to_closed_form(self, params):
        errs = [
            verify_alphaq_bracket(params, TYPE1, PhasePoint(0.3, 0.4), h=h).error
            for h in (2e-3, 1e-3, 5e-4)
        ]
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.0 <= coarse / fine <= 5.0


class TestChainIdentities:
    def test_undeformed_linear_case(self, params):
        report = verify_chain_identities(params, UNDEF, PhasePoint(0.4, -0.2))
        assert report.passed and report.error <= 1e-8

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_deformed_case(self, params, kind):
        report = verify_chain_identities(params, kind, PhasePoint(0.3, 0.4))
        assert report.passed and report.error <= 1e-6

    def test_radially_symmetric_distribution_annihilated(self, params):
        # with the Gaussian centered on the origin both transport sides vanish
        errors = chain_identity_errors(params, TYPE1, PhasePoint(0.6, 0.1), center=0.0 + 0.0j)
        assert errors["alpha_transport"] <= 1e-8
        assert errors["alphaq_transport"] <= 1e-8
        ham = hamiltonian_field(params, TYPE1)
        gauss = gaussian_field(params, 0.0 + 0.0j)
        at = complex_to_canonical(PhasePoint(0.6, 0.1), params)
        assert abs(poisson_bracket_fd(ham, gauss, at)) <= 1e-8


class TestFDerivativeIdentity:
    @pytest.mark.parametrize(
        "kind,point", [(TYPE1, PhasePoint(0.5)), (TYPE2, PhasePoint(0.0, 0.7))]
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
        assert verify_f_derivative_identity(prm, TYPE1, PhasePoint(0.5)).passed

    def test_small_amplitude_not_applicable(self, params):
        report = verify_f_derivative_identity(params, TYPE1, PhasePoint(1e-5))
        assert report.passed
        assert "not applicable" in report.note


class TestConstantsOfMotion:
    def test_undeformed(self, params):
        report = verify_constants_of_motion(params, UNDEF)
        assert report.passed and report.error <= 1e-10

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_deformed(self, params, kind):
        report = verify_constants_of_motion(params, kind)
        assert report.passed and report.error <= 1e-8


class TestVerificationReport:
    def test_pass_flag_must_match_comparison(self):
        with pytest.raises(ValueError, match="inconsistent"):
            VerificationReport("x", error=2.0, tolerance=1.0, passed=True)

    def test_from_measurement(self):
        report = VerificationReport.from_measurement("x", 0.5, 1.0, order=2.0)
        assert report.passed and report.order == 2.0
        assert not VerificationReport.from_measurement("x", 2.0, 1.0).passed


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

    def test_step_size_robustness(self, params):
        # each point-style check keeps its verdict across three decades of h
        point = PhasePoint(0.3, 0.4)
        for h in (1e-4, 1e-5, 1e-6):
            for kind in (TYPE1, TYPE2):
                assert verify_alphaq_bracket(params, kind, point, h=h).passed
                assert verify_chain_identities(params, kind, point, h=h).passed
                assert verify_f_derivative_identity(params, kind, point, h=h).passed
                assert verify_constants_of_motion(params, kind, h=h).passed
            assert verify_chain_identities(params, UNDEF, point, h=h).passed
            assert verify_constants_of_motion(params, UNDEF, h=h).passed
