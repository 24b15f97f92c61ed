"""Trajectory evolution: exact phase rotation plus an RK4 cross-check.

Every orbit is a pure rotation alpha(t) = alpha(0) e^{-i Omega t} whose
frequency is frozen at the conserved initial action, so the closed form is
ground truth; the fixed-step integrator exists only to confirm it
independently.  It resolves the frequency law once per call
(``core.frequency_law``) and never consults the closed-form orbit.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .core import (
    FrequencyProfile,
    OscillatorParams,
    PhasePoint,
    Representation,
    as_point,
    frequency,
    frequency_law,
)


@dataclass(frozen=True)
class Trajectory:
    """An orbit fixed by its initial point, frequency law, and parameters."""

    start: PhasePoint
    profile: FrequencyProfile
    params: OscillatorParams
    representation: Representation = Representation.ALPHA

    def __post_init__(self):
        object.__setattr__(self, "start", as_point(self.start))

    @property
    def omega_value(self) -> float:
        """Rotation frequency Omega(|alpha(0)|^2), constant along the orbit."""
        return frequency(self.start.s, self.params, self.profile)


def evolve_exact(traj: Trajectory, t: float) -> PhasePoint:
    """Closed-form state at time t: the start rotated clockwise by Omega t."""
    z = complex(traj.start) * cmath.exp(-1j * traj.omega_value * t)
    return PhasePoint(z.real, z.imag)


def conserved_action(traj: Trajectory, t: float) -> float:
    """|alpha(t)|^2 along the exact orbit; constant in t by construction."""
    return evolve_exact(traj, t).s


def integrate_path(traj: Trajectory, t: float, steps: int) -> np.ndarray:
    """All RK4 states from 0 to t inclusive (steps + 1 complex values).

    Integrates the first-order complex system
    alpha' = -i Omega(|alpha|^2) alpha with a classical fixed step.  The
    law Omega is resolved once per call (``core.frequency_law``), so each
    stage does only the s-dependent arithmetic.
    """
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


def integrate_eom(traj: Trajectory, t: float, steps: int = 10_000) -> PhasePoint:
    """Endpoint of the RK4 integration; agrees with evolve_exact to well
    below 1e-8 at tau = 2 pi with the default step count."""
    return PhasePoint.from_complex(integrate_path(traj, t, steps)[-1])
