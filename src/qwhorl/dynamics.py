"""Orbit evolution: exact phase rotation plus an RK4 cross-check.

An orbit is the path of a :class:`~qwhorl.liouville.GaussianState`'s
centre.  Every orbit is a pure rotation alpha(t) = alpha(0) e^{-i Omega t}
whose frequency is frozen at the conserved initial action, so the closed
form is ground truth; the fixed-step integrator exists only to confirm it
independently.  Both evaluate the scalar law ``core.frequency_law``,
resolved once per call, and the integrator never consults the closed-form
orbit.
"""

from __future__ import annotations

import cmath
from array import array

import numpy as np

from .core import action, frequency_law
from .liouville import GaussianState


def evolve_exact(state: GaussianState, t: float) -> complex:
    """Closed-form centre at time t: rotated clockwise by Omega t, with
    Omega = Omega(|alpha(0)|^2) constant along the orbit."""
    omega = frequency_law(state.params, state.profile)(action(state.center))
    return state.center * cmath.exp(-1j * omega * t)


def integrate_path(state: GaussianState, t: float, steps: int) -> np.ndarray:
    """All RK4 states of the centre from 0 to t inclusive (steps + 1 complex
    values).

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
    omega = frequency_law(state.params, state.profile)
    h = t / steps
    hh = 0.5 * h
    h6 = h / 6.0
    x, y = state.center.real, state.center.imag
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


def integrate_eom(state: GaussianState, t: float, steps: int = 10_000) -> complex:
    """Endpoint of the RK4 integration; agrees with evolve_exact to well
    below 1e-8 at tau = 2 pi with the default step count."""
    return complex(integrate_path(state, t, steps)[-1])
