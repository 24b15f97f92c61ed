"""Trajectory checks: exact rotation against the independent RK4 integrator."""

import itertools
import math

import numpy as np
import pytest

import qwhorl.dynamics
from qwhorl.core import (
    MU1,
    MU2,
    MU3,
    MU4,
    UNDEFORMED,
    DeformationKind,
    FrequencyProfile,
    OscillatorParams,
    frequency_law,
    hamiltonian_alpha,
)
from qwhorl.dynamics import (
    Trajectory,
    evolve_exact,
    integrate_eom,
    integrate_path,
)

TWO_PI = 2.0 * math.pi

# mpmath-frozen endpoint of the MU1 orbit from alpha(0) = 0.5 at tau = 2 pi
# (phase -2 pi * 0.9381070254946933)
MU1_END_RE = 0.4626661921449156
MU1_END_IM = 0.1895784656708773


ANHARMONIC = FrequencyProfile("anharmonic")
LAWS = [UNDEFORMED, MU1, MU2, MU3, MU4, ANHARMONIC]


def _reference_path(traj, t, steps):
    """RK4 in Python complex arithmetic: the integrator's bit-level reference."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    omega = frequency_law(traj.params, traj.profile)

    def rhs(z):
        return -1j * omega(z.real * z.real + z.imag * z.imag) * z

    h = t / steps
    path = np.empty(steps + 1, dtype=complex)
    z = complex(traj.start)
    path[0] = z
    for k in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path[k + 1] = z
    return path


def _finite(path):
    return np.isfinite(path.real) & np.isfinite(path.imag)


@pytest.fixture
def mu1_traj(params):
    return Trajectory(complex(0.5), MU1, params)


class TestEvolveExact:
    def test_points_are_python_complex(self, params):
        traj = Trajectory(np.complex128(0.5 + 0.25j), MU1, params)
        assert type(traj.start) is complex and traj.start == 0.5 + 0.25j
        assert type(evolve_exact(traj, 1.0)) is complex
        assert type(integrate_eom(traj, 1.0, steps=4)) is complex

    def test_time_zero_is_identity(self, mu1_traj):
        assert complex(evolve_exact(mu1_traj, 0.0)) == 0.5 + 0.0j

    def test_undeformed_quarter_turn(self, params):
        traj = Trajectory(complex(0.5), UNDEFORMED, params)
        assert complex(evolve_exact(traj, math.pi / 2)) == pytest.approx(-0.5j, abs=1e-15)

    def test_undeformed_full_period(self, params):
        traj = Trajectory(complex(0.5), UNDEFORMED, params)
        assert abs(complex(evolve_exact(traj, TWO_PI)) - 0.5) <= 1e-13

    def test_modulus_preserved(self, mu1_traj, rng):
        for t in rng.uniform(0.0, 50.0, size=50):
            assert abs(evolve_exact(mu1_traj, t)) == pytest.approx(0.5, rel=1e-15)

    def test_frozen_endpoint(self, mu1_traj):
        end = complex(evolve_exact(mu1_traj, TWO_PI))
        assert end.real == pytest.approx(MU1_END_RE, rel=1e-12)
        assert end.imag == pytest.approx(MU1_END_IM, rel=1e-12)

    def test_rotation_composes(self, mu1_traj, params):
        # restarting from alpha(t1) and evolving t2 equals evolving t1 + t2,
        # because the frequency only sees the conserved action
        t1, t2 = 1.3, 2.9
        mid = evolve_exact(mu1_traj, t1)
        resumed = evolve_exact(Trajectory(mid, MU1, params), t2)
        direct = evolve_exact(mu1_traj, t1 + t2)
        assert abs(complex(resumed) - complex(direct)) <= 1e-14

    def test_frequency_frozen_at_initial_action(self, mu1_traj, params):
        from qwhorl.core import frequency

        assert mu1_traj.omega_value == frequency(0.25, params, MU1)


class TestIntegrateEom:
    def test_zero_steps_rejected(self, mu1_traj):
        with pytest.raises(ValueError, match="steps"):
            integrate_eom(mu1_traj, 1.0, steps=0)

    def test_undeformed_full_period_returns(self, params):
        traj = Trajectory(complex(0.5), UNDEFORMED, params)
        end = complex(integrate_eom(traj, TWO_PI, steps=10_000))
        assert abs(end - 0.5) <= 1e-9

    @pytest.mark.parametrize("profile", [UNDEFORMED, MU1, MU2])
    def test_matches_closed_form(self, params, profile):
        traj = Trajectory(complex(0.5), profile, params)
        end = complex(integrate_eom(traj, TWO_PI, steps=10_000))
        assert abs(end - complex(evolve_exact(traj, TWO_PI))) <= 1e-8

    def test_action_drift_bounded(self, mu1_traj):
        path = integrate_path(mu1_traj, TWO_PI, steps=10_000)
        s = path.real**2 + path.imag**2
        assert np.abs(s - s[0]).max() <= 1e-8

    def test_energy_drift_bounded(self, mu1_traj, params):
        path = integrate_path(mu1_traj, TWO_PI, steps=10_000)
        energies = [
            hamiltonian_alpha(complex(z), params, DeformationKind.TYPE1)
            for z in path[::500]
        ]
        assert max(abs(e - energies[0]) for e in energies) <= 1e-8

    def test_fourth_order_convergence(self, mu1_traj):
        exact = complex(evolve_exact(mu1_traj, TWO_PI))
        errs = [
            abs(complex(integrate_eom(mu1_traj, TWO_PI, steps=n)) - exact)
            for n in (128, 256, 512)
        ]
        for coarse, fine in zip(errs, errs[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    def test_loop_never_calls_generic_frequency(self, params, monkeypatch):
        # the RK4 loop evaluates a law resolved once per call, never the generic dispatch
        def forbidden(*args, **kwargs):
            raise AssertionError("integrate_path called dynamics.frequency")

        monkeypatch.setattr(qwhorl.dynamics, "frequency", forbidden)
        for profile in (UNDEFORMED, MU1, MU2, MU3, MU4, FrequencyProfile("anharmonic")):
            traj = Trajectory(complex(0.5), profile, params)
            assert integrate_path(traj, 1.0, steps=16).shape == (17,)

    def test_path_endpoints(self, mu1_traj):
        path = integrate_path(mu1_traj, 1.0, steps=64)
        assert path.shape == (65,)
        assert path[0] == 0.5 + 0.0j
        assert path[-1] == complex(integrate_eom(mu1_traj, 1.0, steps=64))


class TestMatchesComplexReference:
    # the float-pair loop rounds as complex RK4 for finite values; once a
    # path is non-finite the reference may hold nan where the loop holds inf
    @pytest.mark.parametrize("profile", LAWS, ids=lambda p: p.selector.value)
    def test_bit_identical_paths(self, profile):
        for q, steps, t, start in itertools.product(
            (1e-100, 0.2, 0.5, 0.999999999),
            (1, 2, 7, 128, 10_000),
            (TWO_PI, -3.0, 200.0),
            (0.0, 0.5, -0.3 + 0.4j, 3.0 + 2.0j),
        ):
            traj = Trajectory(complex(start), profile, OscillatorParams(q=q))
            case = (q, steps, t, start)
            try:
                want = _reference_path(traj, t, steps)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    integrate_path(traj, t, steps)
                continue
            got = integrate_path(traj, t, steps)
            finite = _finite(want)
            assert np.array_equal(_finite(got), finite), case
            assert np.array_equal(
                got[finite].view(np.uint64), want[finite].view(np.uint64)
            ), case

    def test_overflow_names_the_step(self):
        # at q = 0.4 one step of a full period throws the orbit past the mu1
        # law's range
        traj = Trajectory(complex(0.5), MU1, OscillatorParams(q=0.4))
        with pytest.raises(OverflowError, match="RK4 step 1 of 1"):
            integrate_path(traj, TWO_PI, 1)


class TestConservedAction:
    def test_energy_constant_along_exact_orbit(self, mu1_traj, params):
        energies = [
            hamiltonian_alpha(evolve_exact(mu1_traj, t), params, DeformationKind.TYPE1)
            for t in np.linspace(0.0, TWO_PI, 100)
        ]
        assert max(abs(e - energies[0]) for e in energies) <= 1e-13
