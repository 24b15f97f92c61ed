"""Trajectory evolution: exact phase rotation plus an RK4 cross-check.

Every orbit is a pure rotation alpha(t) = alpha(0) e^{-i Omega t} whose
frequency is frozen at the conserved initial action, so the closed form is
ground truth; the fixed-step integrator exists only to confirm it
independently.  It resolves the frequency law once per call
(``core.frequency_law``) and never consults the closed-form orbit.
"""

from __future__ import annotations

import cmath
from array import array
from dataclasses import dataclass

import numpy as np

from .core import (
    FrequencyProfile,
    OscillatorParams,
    action,
    frequency,
    frequency_law,
)


@dataclass(frozen=True)
class Trajectory:
    """An orbit fixed by its initial point, frequency law, and parameters."""

    start: complex
    profile: FrequencyProfile
    params: OscillatorParams

    def __post_init__(self):
        # a Python complex: numpy.complex128 division rounds differently in the last ulp
        object.__setattr__(self, "start", complex(self.start))

    @property
    def omega_value(self) -> float:
        """Rotation frequency Omega(|alpha(0)|^2), constant along the orbit."""
        return frequency(action(self.start), self.params, self.profile)


def evolve_exact(traj: Trajectory, t: float) -> complex:
    """Closed-form state at time t: the start rotated clockwise by Omega t."""
    return traj.start * cmath.exp(-1j * traj.omega_value * t)


def integrate_path(traj: Trajectory, t: float, steps: int) -> np.ndarray:
    """All RK4 states from 0 to t inclusive (steps + 1 complex values).

    Integrates the first-order complex system
    alpha' = -i Omega(|alpha|^2) alpha with a classical fixed step.  The
    law Omega is resolved once per call (``core.frequency_law``), so each
    stage does only the s-dependent arithmetic.  The loop runs on the real
    and imaginary parts as two floats: a stage's slope is
    (Omega y, -(Omega x)), which is what -1j * Omega * z rounds to for
    finite values, so every finite state matches complex-arithmetic RK4 bit
    for bit.  An overflowing law raises ``OverflowError`` naming the step.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    omega = frequency_law(traj.params, traj.profile)
    h = t / steps
    hh = 0.5 * h
    h6 = h / 6.0
    x, y = traj.start.real, traj.start.imag
    xs = array("d", [x])  # raw doubles: no float object outlives its step
    ys = array("d", [y])
    try:
        for k in range(steps):
            w = omega(x * x + y * y)
            k1x, k1y = w * y, -(w * x)
            ax, ay = x + hh * k1x, y + hh * k1y
            w = omega(ax * ax + ay * ay)
            k2x, k2y = w * ay, -(w * ax)
            ax, ay = x + hh * k2x, y + hh * k2y
            w = omega(ax * ax + ay * ay)
            k3x, k3y = w * ay, -(w * ax)
            ax, ay = x + h * k3x, y + h * k3y
            w = omega(ax * ax + ay * ay)
            k4x, k4y = w * ay, -(w * ax)
            x = x + h6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y = y + h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            xs.append(x)
            ys.append(y)
    except OverflowError as exc:
        raise OverflowError(f"Omega(s) overflowed in RK4 step {k + 1} of {steps}") from exc
    path = np.empty(steps + 1, dtype=complex)
    path.real = xs
    path.imag = ys
    return path


def integrate_eom(traj: Trajectory, t: float, steps: int = 10_000) -> complex:
    """Endpoint of the RK4 integration; agrees with evolve_exact to well
    below 1e-8 at tau = 2 pi with the default step count."""
    return complex(integrate_path(traj, t, steps)[-1])
