"""Kernel checks: q-numbers, the deformation map, Hamiltonians, frequencies.

Frozen expected values were computed independently with 40-digit mpmath
evaluations of the closed forms at q = 0.5 (lam = ln 0.5, sinh lam = -3/4,
e^lam - 1 = -1/2) and truncated to double precision.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwhorl.core import (
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
    canonical_to_complex,
    complex_to_canonical,
    deform,
    deformation_f,
    frequency,
    frequency_law,
    hamiltonian_alpha,
    hamiltonian_alphaq,
    inverse_q_number,
    kind_for_profile,
    profile_for_kind,
    q_number,
)

TYPE1 = DeformationKind.TYPE1
TYPE2 = DeformationKind.TYPE2

# mpmath-frozen values at q = 0.5
QN1_AT_QUARTER = 0.2322071331660043
QN2_AT_QUARTER = 0.3182071694925709
F1_AT_ZERO = 0.9613512577339220
F1_AT_QUARTER = 0.9637575071894472
ALPHAQ_OF_HALF = 0.4818787535947236
W1_AT_ZERO = 0.9241962407465937
W2_AT_ZERO = 1.3862943611198906
W1_AT_QUARTER = 0.9381070254946933


class TestOscillatorParams:
    def test_defaults_are_natural_units(self, params):
        assert (params.mass, params.omega, params.hbar) == (1.0, 1.0, 1.0)
        assert params.q == 0.5

    def test_lambda_is_derived_log(self, params):
        assert params.lam == math.log(0.5)
        assert OscillatorParams(q=0.9).lam == pytest.approx(math.log(0.9), rel=1e-15)
        assert params.lam < 0

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5, -0.1])
    def test_q_outside_unit_interval_rejected(self, q):
        with pytest.raises(ValueError, match="q must lie"):
            OscillatorParams(q=q)

    @pytest.mark.parametrize("kwargs", [{"mass": 0.0}, {"omega": -1.0}, {"hbar": 0.0}])
    def test_positivity_enforced(self, kwargs):
        with pytest.raises(ValueError, match="must be positive"):
            OscillatorParams(**kwargs)


class TestCanonicalMap:
    def test_protocol_initial_point(self, params):
        # qc = 1/sqrt(2), p = 0 lands on alpha = 0.5 in natural units
        pt = canonical_to_complex(1.0 / math.sqrt(2.0), 0.0, params)
        assert complex(pt) == pytest.approx(0.5 + 0.0j, abs=1e-15)

    def test_origin_is_fixed(self, params):
        assert complex(canonical_to_complex(0.0, 0.0, params)) == 0.0
        assert complex_to_canonical(PhasePoint(0.0, 0.0), params) == (0.0, 0.0)

    def test_pure_momentum_point(self, params):
        pt = canonical_to_complex(0.0, math.sqrt(2.0), params)
        assert complex(pt) == pytest.approx(1.0j, abs=1e-15)

    def test_inverse_of_protocol_point(self, params):
        qc, p = complex_to_canonical(PhasePoint(0.5), params)
        assert qc == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert p == 0.0

    def test_round_trip_random_points(self, params, rng):
        pts = rng.standard_normal((100, 2))
        for qc, p in pts:
            qc2, p2 = complex_to_canonical(canonical_to_complex(qc, p, params), params)
            assert qc2 == pytest.approx(qc, rel=1e-14, abs=1e-300)
            assert p2 == pytest.approx(p, rel=1e-14, abs=1e-300)

    @given(
        qc=st.floats(-10, 10, allow_nan=False),
        p=st.floats(-10, 10, allow_nan=False),
        q=st.floats(0.05, 0.95),
        mass=st.floats(0.1, 10),
        omega=st.floats(0.1, 10),
    )
    @settings(max_examples=60, derandomize=True)
    def test_round_trip_any_units(self, qc, p, q, mass, omega):
        prm = OscillatorParams(q=q, mass=mass, omega=omega)
        qc2, p2 = complex_to_canonical(canonical_to_complex(qc, p, prm), prm)
        assert qc2 == pytest.approx(qc, rel=1e-14, abs=1e-14)
        assert p2 == pytest.approx(p, rel=1e-14, abs=1e-14)


class TestPhasePoint:
    def test_action_accessor(self):
        assert PhasePoint(3.0, 4.0).s == 25.0
        assert abs(PhasePoint(3.0, 4.0)) == 5.0

    def test_complex_round_trip(self):
        z = 0.3 - 0.7j
        assert complex(PhasePoint.from_complex(z)) == z


class TestQNumber:
    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_vanishes_at_zero(self, params, kind):
        assert q_number(0.0, params, kind) == 0.0

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_unity_fixed_point(self, params, kind):
        assert q_number(1.0, params, kind) == pytest.approx(1.0, rel=1e-15)

    def test_frozen_values_at_quarter(self, params):
        assert q_number(0.25, params, TYPE1) == pytest.approx(QN1_AT_QUARTER, rel=1e-14)
        assert q_number(0.25, params, TYPE2) == pytest.approx(QN2_AT_QUARTER, rel=1e-14)

    def test_undeformed_is_identity(self, params):
        s = np.linspace(0.0, 4.0, 17)
        assert np.array_equal(q_number(s, params, DeformationKind.UNDEFORMED), s)

    def test_array_matches_scalar(self, params):
        s = np.linspace(0.0, 4.0, 41)
        for kind in (TYPE1, TYPE2):
            vec = q_number(s, params, kind)
            assert vec.shape == s.shape
            for i in (0, 7, 40):
                assert vec[i] == q_number(float(s[i]), params, kind)

    def test_negative_action_rejected(self, params):
        with pytest.raises(ValueError, match="non-negative"):
            q_number(-0.1, params, TYPE1)

    @given(q=st.floats(0.05, 0.95), s=st.floats(0, 4), ds=st.floats(1e-3, 1.0))
    @settings(max_examples=80, derandomize=True)
    def test_strictly_increasing(self, q, s, ds):
        prm = OscillatorParams(q=q)
        for kind in (TYPE1, TYPE2):
            assert q_number(s + ds, prm, kind) > q_number(s, prm, kind)

    @pytest.mark.parametrize(
        "kind,convex", [(TYPE1, True), (TYPE2, False)]
    )
    def test_curvature_matches_closed_form(self, params, kind, convex):
        # sampled second differences on [0, 4] must agree in sign with the
        # analytic second derivative: lam^2 sinh(lam s)/sinh(lam) > 0 for
        # the sinh kind, lam^2 e^{lam s}/(e^lam - 1) < 0 for the exponential
        s = np.linspace(0.0, 4.0, 81)
        second = np.diff(q_number(s, params, kind), n=2)
        assert np.all(second > 0) if convex else np.all(second < 0)

    def test_q_to_one_limit(self):
        prm = OscillatorParams(q=1.0 - 1e-8)
        s = np.linspace(0.0, 1.0, 101)
        for kind in (TYPE1, TYPE2):
            assert np.abs(q_number(s, prm, kind) - s).max() <= 1e-7


class TestInverseQNumber:
    @pytest.mark.parametrize("kind", list(DeformationKind))
    def test_trivial_points(self, params, kind):
        assert inverse_q_number(0.0, params, kind) == 0.0
        assert inverse_q_number(1.0, params, kind) == pytest.approx(1.0, rel=1e-14)

    def test_frozen_round_trip(self, params):
        assert inverse_q_number(QN1_AT_QUARTER, params, TYPE1) == pytest.approx(0.25, rel=1e-13)

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_inverse_composition(self, params, kind):
        s = np.linspace(0.0, 4.0, 33)
        back = inverse_q_number(q_number(s, params, kind), params, kind)
        assert np.abs(back - s).max() <= 1e-12

    def test_type2_domain_error(self, params):
        # exponential q-number saturates at 1/(1-q) = 2 for q = 0.5
        with pytest.raises(ValueError, match="out of range"):
            inverse_q_number(2.0, params, TYPE2)
        assert inverse_q_number(1.999, params, TYPE2) > 0


class TestDeformationF:
    def test_limit_at_origin(self, params):
        assert deformation_f(0.0, params, TYPE1) == pytest.approx(F1_AT_ZERO, rel=1e-14)
        expected2 = math.sqrt(params.lam / math.expm1(params.lam))
        assert deformation_f(0.0, params, TYPE2) == pytest.approx(expected2, rel=1e-14)

    def test_unity_fixed_point(self, params):
        for kind in (TYPE1, TYPE2):
            assert deformation_f(1.0, params, kind) == pytest.approx(1.0, rel=1e-14)

    def test_frozen_value_at_quarter(self, params):
        assert deformation_f(0.25, params, TYPE1) == pytest.approx(F1_AT_QUARTER, rel=1e-14)

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_continuity_across_series_branch(self, params, kind):
        assert abs(deformation_f(1e-9, params, kind) - deformation_f(0.0, params, kind)) <= 1e-8

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_series_branch_matches_direct_ratio(self, params, kind):
        # inside the cutoff the series must agree with the expm1/sinh ratio
        # evaluated at the same s (the ratio is still accurate there)
        lam = params.lam
        for s in (1e-10, 1e-9, 9.9e-9):
            if kind is TYPE1:
                direct = math.sqrt(math.sinh(lam * s) / (s * math.sinh(lam)))
            else:
                direct = math.sqrt(math.expm1(lam * s) / (s * math.expm1(lam)))
            assert deformation_f(s, params, kind) == pytest.approx(direct, rel=1e-12)

    def test_positive_everywhere(self, params):
        s = np.linspace(0.0, 4.0, 101)
        for kind in (TYPE1, TYPE2):
            assert np.all(deformation_f(s, params, kind) > 0)

    def test_undeformed_is_one(self, params):
        assert deformation_f(0.7, params, DeformationKind.UNDEFORMED) == 1.0


class TestDeform:
    def test_origin_and_unit_circle_fixed(self, params):
        assert complex(deform(PhasePoint(0.0), params, TYPE1)) == 0.0
        assert complex(deform(PhasePoint(1.0), params, TYPE1)) == pytest.approx(1.0, rel=1e-14)

    def test_frozen_value(self, params):
        assert complex(deform(PhasePoint(0.5), params, TYPE1)) == pytest.approx(
            ALPHAQ_OF_HALF, rel=1e-14
        )

    @given(
        re=st.floats(-1.5, 1.5),
        im=st.floats(-1.5, 1.5),
        q=st.floats(0.05, 0.95),
    )
    @settings(max_examples=80, derandomize=True)
    def test_action_maps_to_q_number(self, re, im, q):
        prm = OscillatorParams(q=q)
        pt = PhasePoint(re, im)
        for kind in (TYPE1, TYPE2):
            assert deform(pt, prm, kind).s == pytest.approx(
                q_number(pt.s, prm, kind), abs=1e-13
            )

    def test_phase_preserved(self, params):
        pt = PhasePoint(0.3, 0.4)
        zq = complex(deform(pt, params, TYPE1))
        assert math.atan2(zq.imag, zq.real) == pytest.approx(math.atan2(0.4, 0.3), rel=1e-14)


class TestHamiltonians:
    def test_undeformed_value(self, params):
        assert hamiltonian_alpha(PhasePoint(0.5), params, DeformationKind.UNDEFORMED) == 0.25

    def test_frozen_deformed_values(self, params):
        assert hamiltonian_alpha(PhasePoint(0.5), params, TYPE1) == pytest.approx(
            QN1_AT_QUARTER, rel=1e-14
        )
        assert hamiltonian_alpha(PhasePoint(0.5), params, TYPE2) == pytest.approx(
            QN2_AT_QUARTER, rel=1e-14
        )

    def test_deformed_representation_is_plain_action(self, params):
        assert hamiltonian_alphaq(PhasePoint(0.0), params) == 0.0
        assert hamiltonian_alphaq(PhasePoint(0.5), params) == 0.25

    def test_units_scale(self):
        prm = OscillatorParams(q=0.5, hbar=3.0, omega=2.0)
        assert hamiltonian_alphaq(PhasePoint(0.5), prm) == pytest.approx(6.0 * 0.25)

    def test_representations_agree_through_deform(self, params, rng):
        # energy is invariant under the nonlinear change of variables
        pts = 1.5 * (rng.random(100) * np.exp(2j * np.pi * rng.random(100)))
        for z in pts:
            pt = PhasePoint(z.real, z.imag)
            for kind in (TYPE1, TYPE2):
                direct = hamiltonian_alpha(pt, params, kind)
                composed = hamiltonian_alphaq(deform(pt, params, kind), params)
                assert abs(direct - composed) <= 1e-13

    def test_energy_nonnegative(self, params):
        s_values = np.linspace(0.0, 4.0, 50)
        for s in s_values:
            pt = PhasePoint(math.sqrt(s))
            for kind in DeformationKind:
                assert hamiltonian_alpha(pt, params, kind) >= 0.0


class TestFrequency:
    def test_undeformed_constant(self, params):
        assert frequency(0.0, params, UNDEFORMED) == params.omega
        assert frequency(3.7, params, UNDEFORMED) == params.omega

    def test_frozen_values_at_zero(self, params):
        assert frequency(0.0, params, MU1) == pytest.approx(W1_AT_ZERO, rel=1e-14)
        assert frequency(0.0, params, MU2) == pytest.approx(W2_AT_ZERO, rel=1e-14)

    def test_frozen_value_at_quarter(self, params):
        assert frequency(0.25, params, MU1) == pytest.approx(W1_AT_QUARTER, rel=1e-14)

    def test_anharmonic_law(self, params):
        kerr = FrequencyProfile(FrequencySelector.ANHARMONIC, chi=1.0)
        assert frequency(0.0, params, kerr) == params.omega
        assert frequency(0.25, params, kerr) == pytest.approx(1.5, rel=1e-15)
        strong = FrequencyProfile("anharmonic", chi=2.0)
        assert frequency(0.5, params, strong) == pytest.approx(3.0, rel=1e-15)

    def test_cross_representation_identity(self):
        # MU3 at the TYPE1-deformed action reproduces MU1, MU4/TYPE2 -> MU2
        s = np.linspace(0.0, 2.0, 201)
        for q in (0.1, 0.5, 0.9):
            prm = OscillatorParams(q=q)
            for kind, mu_q, mu_a in ((TYPE1, MU3, MU1), (TYPE2, MU4, MU2)):
                sq = q_number(s, prm, kind)
                ref = frequency(s, prm, mu_a)
                rel = np.abs(frequency(sq, prm, mu_q) - ref) / ref
                assert rel.max() <= 1e-12

    def test_frozen_cross_point(self, params):
        sq = q_number(0.25, params, TYPE1)
        assert sq == pytest.approx(QN1_AT_QUARTER, rel=1e-14)
        assert frequency(sq, params, MU3) == pytest.approx(W1_AT_QUARTER, rel=1e-12)

    def test_scalar_and_array_paths_agree(self, params):
        # math.* and numpy ufuncs may differ in the last ulp
        s = np.linspace(0.0, 4.0, 33)
        for prof in (UNDEFORMED, MU1, MU2, MU3, MU4, FrequencyProfile("anharmonic", 0.7)):
            vec = frequency(s, params, prof)
            scal = np.array([frequency(float(v), params, prof) for v in s])
            assert np.allclose(vec, scal, rtol=5e-16, atol=0.0)

    def test_positive_on_attainable_range(self):
        # MU1/MU2 take any s in [0, 4]; MU3/MU4 take deformed actions,
        # whose attainable image of [0, 4] stays below the MU4 zero crossing
        s = np.linspace(0.0, 4.0, 101)
        for q in (0.1, 0.5, 0.9):
            prm = OscillatorParams(q=q)
            kerr = FrequencyProfile("anharmonic", 1.0)
            for prof in (UNDEFORMED, MU1, MU2, kerr):
                assert np.all(np.asarray(frequency(s, prm, prof)) > 0)
            for kind, prof in ((TYPE1, MU3), (TYPE2, MU4)):
                sq = q_number(s, prm, kind)
                assert np.all(np.asarray(frequency(sq, prm, prof)) > 0)

    def test_q_to_one_limit(self):
        prm = OscillatorParams(q=1.0 - 1e-8)
        s = np.linspace(0.0, 1.0, 101)
        for prof in (MU1, MU2, MU3, MU4):
            ratio = np.asarray(frequency(s, prm, prof)) / prm.omega
            assert np.abs(ratio - 1.0).max() <= 1e-6

    def test_negative_action_rejected(self, params):
        with pytest.raises(ValueError, match="non-negative"):
            frequency(-0.5, params, MU1)
        for profile in (UNDEFORMED, MU1, MU2, MU3, MU4, FrequencyProfile("anharmonic")):
            with pytest.raises(ValueError, match="non-negative"):
                frequency(-0.1, params, profile)


def _reference_scalar(s, prm, profile):
    """Each scalar law spelled out inline; frequency_law must match it bit for bit."""
    w, lam, sel = prm.omega, prm.lam, profile.selector
    if sel is FrequencySelector.UNDEFORMED:
        return w
    if sel is FrequencySelector.MU1:
        return w * lam * math.cosh(lam * s) / math.sinh(lam)
    if sel is FrequencySelector.MU2:
        return w * lam * math.exp(lam * s) / math.expm1(lam)
    if sel is FrequencySelector.MU3:
        return w * lam * math.sqrt(1.0 + s * s * math.sinh(lam) ** 2) / math.sinh(lam)
    if sel is FrequencySelector.MU4:
        return w * lam * (1.0 - s * (1.0 - math.exp(lam))) / math.expm1(lam)
    return w * (1.0 + 2.0 * profile.chi * s)


class TestFrequencyLaw:
    @pytest.mark.parametrize("chi", [1.0, 0.3])
    @pytest.mark.parametrize("q", [0.1, 0.2, 0.5, 0.95])
    @pytest.mark.parametrize("selector", list(FrequencySelector))
    def test_bit_identical_to_frequency(self, selector, q, chi):
        prm = OscillatorParams(q=q)
        profile = FrequencyProfile(selector, chi=chi)
        law = frequency_law(prm, profile)
        for s in (0.0, 1e-9, 0.25, 1.0, 2.0, 5.0):
            assert law(s) == frequency(s, prm, profile)
            assert law(s) == _reference_scalar(s, prm, profile)


class TestProfileKindPairing:
    def test_kind_for_profile(self):
        assert kind_for_profile(MU1) is TYPE1
        assert kind_for_profile(MU3) is TYPE1
        assert kind_for_profile(MU2) is TYPE2
        assert kind_for_profile(MU4) is TYPE2
        assert kind_for_profile(UNDEFORMED) is DeformationKind.UNDEFORMED

    def test_profile_for_kind(self):
        assert profile_for_kind(TYPE1) == MU1
        assert profile_for_kind(TYPE1, Representation.ALPHA_Q) == MU3
        assert profile_for_kind(TYPE2) == MU2
        assert profile_for_kind(TYPE2, Representation.ALPHA_Q) == MU4
        assert profile_for_kind(DeformationKind.UNDEFORMED) == UNDEFORMED

    def test_profile_accepts_selector_strings(self):
        assert FrequencyProfile("mu1") == MU1
        with pytest.raises(ValueError):
            FrequencyProfile("mu7")
