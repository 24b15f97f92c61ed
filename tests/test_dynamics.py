"""Trajectory checks: exact rotation against the independent RK4 integrator."""

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
    PhasePoint,
    hamiltonian_alpha,
)
from qwhorl.dynamics import (
    Trajectory,
    conserved_action,
    evolve_exact,
    integrate_eom,
    integrate_path,
)

TWO_PI = 2.0 * math.pi

# mpmath-frozen endpoint of the MU1 orbit from alpha(0) = 0.5 at tau = 2 pi
# (phase -2 pi * 0.9381070254946933)
MU1_END_RE = 0.4626661921449156
MU1_END_IM = 0.1895784656708773


@pytest.fixture
def mu1_traj(params):
    return Trajectory(PhasePoint(0.5), MU1, params)


class TestEvolveExact:
    def test_time_zero_is_identity(self, mu1_traj):
        assert complex(evolve_exact(mu1_traj, 0.0)) == 0.5 + 0.0j

    def test_undeformed_quarter_turn(self, params):
        traj = Trajectory(PhasePoint(0.5), UNDEFORMED, params)
        assert complex(evolve_exact(traj, math.pi / 2)) == pytest.approx(-0.5j, abs=1e-15)

    def test_undeformed_full_period(self, params):
        traj = Trajectory(PhasePoint(0.5), UNDEFORMED, params)
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
        traj = Trajectory(PhasePoint(0.5), UNDEFORMED, params)
        end = complex(integrate_eom(traj, TWO_PI, steps=10_000))
        assert abs(end - 0.5) <= 1e-9

    @pytest.mark.parametrize("profile", [UNDEFORMED, MU1, MU2])
    def test_matches_closed_form(self, params, profile):
        traj = Trajectory(PhasePoint(0.5), profile, params)
        end = complex(integrate_eom(traj, TWO_PI, steps=10_000))
        assert abs(end - complex(evolve_exact(traj, TWO_PI))) <= 1e-8

    def test_action_drift_bounded(self, mu1_traj):
        path = integrate_path(mu1_traj, TWO_PI, steps=10_000)
        s = path.real**2 + path.imag**2
        assert np.abs(s - s[0]).max() <= 1e-8

    def test_energy_drift_bounded(self, mu1_traj, params):
        path = integrate_path(mu1_traj, TWO_PI, steps=10_000)
        energies = [
            hamiltonian_alpha(PhasePoint(z.real, z.imag), params, DeformationKind.TYPE1)
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
            traj = Trajectory(PhasePoint(0.5), profile, params)
            assert integrate_path(traj, 1.0, steps=16).shape == (17,)

    def test_path_endpoints(self, mu1_traj):
        path = integrate_path(mu1_traj, 1.0, steps=64)
        assert path.shape == (65,)
        assert path[0] == 0.5 + 0.0j
        assert path[-1] == complex(integrate_eom(mu1_traj, 1.0, steps=64))


class TestConservedAction:
    def test_constant_value(self, mu1_traj):
        assert conserved_action(mu1_traj, 0.0) == 0.25
        for t in np.linspace(0.0, 20.0, 21):
            assert conserved_action(mu1_traj, t) == pytest.approx(0.25, rel=1e-15)

    def test_energy_constant_along_exact_orbit(self, mu1_traj, params):
        energies = [
            hamiltonian_alpha(evolve_exact(mu1_traj, t), params, DeformationKind.TYPE1)
            for t in np.linspace(0.0, TWO_PI, 100)
        ]
        assert max(abs(e - energies[0]) for e in energies) <= 1e-13
