"""Mathematical kernel of the q-deformed classical oscillator.

Complex-amplitude coordinates, the two q-number conventions, the radial
deformation map alpha -> alpha_q, the Hamiltonians of both representations,
and the amplitude-dependent frequency laws that drive every downstream
module.  An amplitude is a Python ``complex`` (one point) or a complex
numpy array (many), and :func:`action` gives |alpha|^2 of either.  All
functions here are pure.  The q-numbers, the deformation map, the
amplitude of a canonical pair and the frequency laws are array functions:
they convert their input with ``np.asarray`` and return what numpy
returns, so a Python scalar acts as a 0-d array.  :func:`frequency_law` is
the one scalar law: it resolves a law and its q-constants up front and
returns a plain ``math`` callable, for loops (such as the RK4 integrator)
that evaluate the same law many times.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Below this action the 0/0 ratio defining f is replaced by its series.
TAYLOR_CUTOFF = 1e-8


class DeformationKind(enum.Enum):
    """Which q-number convention deforms the oscillator (or none at all)."""

    UNDEFORMED = "none"
    TYPE1 = "type1"  # symmetric sinh-ratio q-number
    TYPE2 = "type2"  # exponential q-number


class FrequencySelector(enum.Enum):
    """Selector for the frequency law Omega(s)."""

    UNDEFORMED = "undeformed"
    MU1 = "mu1"
    MU2 = "mu2"
    MU3 = "mu3"
    MU4 = "mu4"
    ANHARMONIC = "anharmonic"


class Representation(enum.Enum):
    """Whether a state lives in the plain or the deformed amplitude plane."""

    ALPHA = "alpha"
    ALPHA_Q = "alpha_q"


@dataclass(frozen=True)
class OscillatorParams:
    """Physical constants plus the deformation strength q.

    Natural units (mass = omega = hbar = 1) are the defaults, making the
    complex amplitude alpha = (qc + i p) / sqrt(2).  The deformation
    parameter must satisfy 0 < q < 1; the nonlinearity parameter
    lam = ln(q) < 0 is always derived, never stored.
    """

    q: float = 0.5
    mass: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        for name in ("mass", "omega", "hbar"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def lam(self) -> float:
        """Nonlinearity parameter ln(q), negative for 0 < q < 1."""
        return math.log(self.q)


def action(z):
    """Action-like modulus squared |z|^2 of one complex amplitude or of each
    element of a complex array."""
    return z.real * z.real + z.imag * z.imag


@dataclass(frozen=True)
class FrequencyProfile:
    """A frequency law Omega(s) of the conserved action-like variable.

    MU1/MU2 are laws of s = |alpha|^2; MU3/MU4 are laws of the deformed
    action s_q = |alpha_q|^2.  ``chi`` is the Kerr-type strength used only
    by the anharmonic law Omega(s) = omega (1 + 2 chi s).
    """

    selector: FrequencySelector
    chi: float = 1.0

    def __post_init__(self):
        if not isinstance(self.selector, FrequencySelector):
            object.__setattr__(self, "selector", FrequencySelector(self.selector))


# Handy module-level profile shorthands.
UNDEFORMED = FrequencyProfile(FrequencySelector.UNDEFORMED)
MU1 = FrequencyProfile(FrequencySelector.MU1)
MU2 = FrequencyProfile(FrequencySelector.MU2)
MU3 = FrequencyProfile(FrequencySelector.MU3)
MU4 = FrequencyProfile(FrequencySelector.MU4)


def _check_nonnegative(s, name="s"):
    if np.any(s < 0):
        raise ValueError(f"{name} must be non-negative")


def _complex(re, im) -> np.ndarray:
    """Complex array with exactly these parts (``re + 1j * im`` makes inf * 0 NaN)."""
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def canonical_to_complex(qc, p, params: OscillatorParams):
    """Complex amplitude of a canonical (position, momentum) pair.

    alpha = sqrt(m omega / 2 hbar) qc + i p / sqrt(2 hbar m omega); in
    natural units alpha = (qc + i p) / sqrt(2), one complex array of the
    broadcast shape.
    """
    a = math.sqrt(params.mass * params.omega / (2.0 * params.hbar))
    b = 1.0 / math.sqrt(2.0 * params.hbar * params.mass * params.omega)
    return _complex(a * np.asarray(qc), b * np.asarray(p))


def complex_to_canonical(point, params: OscillatorParams):
    """Canonical (position, momentum) of a complex amplitude, or arrays of
    them for a complex array; inverse of :func:`canonical_to_complex`."""
    qc = math.sqrt(2.0 * params.hbar / (params.mass * params.omega)) * point.real
    p = math.sqrt(2.0 * params.hbar * params.mass * params.omega) * point.imag
    return qc, p


def q_number(s, params: OscillatorParams, kind: DeformationKind):
    """Deformed action [s]_q; the undeformed kind returns s unchanged.

    TYPE1: sinh(lam s) / sinh(lam).  TYPE2: (e^{lam s} - 1) / (e^lam - 1).
    Both are 0 at s = 0, equal 1 at s = 1, and increase strictly on s >= 0.
    """
    s = np.asarray(s, dtype=float)
    _check_nonnegative(s)
    lam = params.lam
    if kind is DeformationKind.UNDEFORMED:
        out = s.copy()
    elif kind is DeformationKind.TYPE1:
        out = np.sinh(lam * s) / math.sinh(lam)
    elif kind is DeformationKind.TYPE2:
        out = np.expm1(lam * s) / math.expm1(lam)
    else:
        raise ValueError(f"unknown deformation kind: {kind!r}")
    return out


def inverse_q_number(s_q, params: OscillatorParams, kind: DeformationKind):
    """Plain action whose deformed value is s_q (inverse of :func:`q_number`).

    The TYPE2 branch only exists for s_q < 1/(1 - q), the supremum of the
    exponential q-number; larger values raise ValueError.
    """
    s_q = np.asarray(s_q, dtype=float)
    _check_nonnegative(s_q, "s_q")
    lam = params.lam
    if kind is DeformationKind.UNDEFORMED:
        out = s_q.copy()
    elif kind is DeformationKind.TYPE1:
        out = np.arcsinh(s_q * math.sinh(lam)) / lam
    elif kind is DeformationKind.TYPE2:
        arg = s_q * math.expm1(lam)
        if np.any(arg <= -1.0):
            raise ValueError(
                f"s_q out of range for the exponential kind; need s_q < {1.0 / (1.0 - params.q)}"
            )
        out = np.log1p(arg) / lam
    else:
        raise ValueError(f"unknown deformation kind: {kind!r}")
    return out


def deformation_f(s, params: OscillatorParams, kind: DeformationKind):
    """Radial deformation factor f(s) = sqrt([s]_q / s), continuous at s = 0.

    The ratio is 0/0 at the origin; below TAYLOR_CUTOFF the removable
    singularity is filled with a two-term series so contour points near the
    origin survive the map.
    """
    s = np.asarray(s, dtype=float)
    _check_nonnegative(s)
    if kind is DeformationKind.UNDEFORMED:
        return np.ones_like(s)
    lam = params.lam
    small = s < TAYLOR_CUTOFF
    safe = np.where(small, 1.0, s)
    if kind is DeformationKind.TYPE1:
        ratio = np.sinh(lam * s) / (safe * math.sinh(lam))
        series = (lam / math.sinh(lam)) * (1.0 + (lam * s) ** 2 / 6.0)
    elif kind is DeformationKind.TYPE2:
        ratio = np.expm1(lam * s) / (safe * math.expm1(lam))
        series = (lam / math.expm1(lam)) * (1.0 + lam * s / 2.0 + (lam * s) ** 2 / 6.0)
    else:
        raise ValueError(f"unknown deformation kind: {kind!r}")
    return np.sqrt(np.where(small, series, ratio))


def deform(point, params: OscillatorParams, kind: DeformationKind):
    """Nonlinear map alpha -> alpha_q = f(|alpha|^2) alpha.

    Preserves the phase and maps the action to |alpha_q|^2 = [|alpha|^2]_q.
    """
    point = np.asarray(point)
    f = deformation_f(action(point), params, kind)
    return _complex(f * point.real, f * point.imag)


def hamiltonian_alpha(point, params: OscillatorParams, kind: DeformationKind):
    """Energy hbar omega [|alpha|^2]_q in the plain-amplitude representation."""
    return params.hbar * params.omega * q_number(action(point), params, kind)


def hamiltonian_alphaq(point, params: OscillatorParams) -> float:
    """Energy hbar omega |alpha_q|^2 in the deformed representation."""
    return params.hbar * params.omega * action(point)


class LawError(ValueError):
    """A frequency law leaves the doubles at q; the text names law, q and why."""

    def __init__(self, law: str, q: float, reason: str):
        super().__init__(f"{law} law at q = {q:g}: {reason}")
        self.law, self.q = law, q


def _law(params: OscillatorParams, profile: FrequencyProfile, cosh, exp, sqrt):
    """Omega(s) of the selected law with its q-constants resolved once.

    The single statement of the six laws.  The elementary functions are
    passed in, so the same bodies serve scalars (``math``) and arrays
    (``numpy``); the undeformed law returns the constant omega for either.
    """
    sel = profile.selector
    w = params.omega
    if sel is FrequencySelector.UNDEFORMED:
        return lambda s: w
    if sel is FrequencySelector.ANHARMONIC:
        two_chi = 2.0 * profile.chi
        return lambda s: w * (1.0 + two_chi * s)
    lam = params.lam
    wl = w * lam
    try:
        if sel is FrequencySelector.MU1:
            sh = math.sinh(lam)
            return lambda s: wl * cosh(lam * s) / sh
        if sel is FrequencySelector.MU2:
            em1 = math.expm1(lam)
            return lambda s: wl * exp(lam * s) / em1
        if sel is FrequencySelector.MU3:
            sh = math.sinh(lam)
            sh2 = sh**2
            return lambda s: wl * sqrt(1.0 + s * s * sh2) / sh
        em1 = math.expm1(lam)
        one_minus_e = 1.0 - math.exp(lam)
        return lambda s: wl * (1.0 - s * one_minus_e) / em1
    except OverflowError as exc:
        raise LawError(sel.value, params.q, "floating-point overflow") from exc


def frequency_law(params: OscillatorParams, profile: FrequencyProfile) -> Callable[[float], float]:
    """Scalar Omega(s) of the selected law with its constants resolved once.

    The selector dispatch and the q-constants (omega lam, sinh(lam),
    expm1(lam), ...) are fixed when the law is built, so the returned
    callable does only the s-dependent arithmetic; it is meant for loops
    that evaluate one law many times.  It takes a non-negative float and
    does not check its sign.  It is the only scalar law.
    """
    return _law(params, profile, math.cosh, math.exp, math.sqrt)


def frequency(s, params: OscillatorParams, profile: FrequencyProfile):
    """Angular frequency Omega(s) of the selected law.

    For MU1/MU2 the argument is the plain action |alpha|^2; for MU3/MU4 it
    is the deformed action |alpha_q|^2.  MU3 applied at [s]_q of the TYPE1
    map coincides exactly with MU1 at s, and likewise MU4/TYPE2 with MU2.
    The law bodies are those of :func:`frequency_law` over ``numpy`` ufuncs
    (a scalar s acts as a 0-d array); the scalar law may differ from them in
    the last ulp.
    """
    s = np.asarray(s, dtype=float)
    _check_nonnegative(s)
    out = _law(params, profile, np.cosh, np.exp, np.sqrt)(s)
    return np.full_like(s, out) if np.ndim(out) == 0 else out


def kind_for_profile(profile: FrequencyProfile) -> DeformationKind:
    """Deformation convention naturally paired with a frequency law."""
    sel = profile.selector
    if sel in (FrequencySelector.MU1, FrequencySelector.MU3):
        return DeformationKind.TYPE1
    if sel in (FrequencySelector.MU2, FrequencySelector.MU4):
        return DeformationKind.TYPE2
    return DeformationKind.UNDEFORMED


def profile_for_kind(kind: DeformationKind, representation: Representation = Representation.ALPHA) -> FrequencyProfile:
    """Frequency law naturally paired with a deformation convention."""
    if kind is DeformationKind.UNDEFORMED:
        return UNDEFORMED
    deformed = representation is Representation.ALPHA_Q
    if kind is DeformationKind.TYPE1:
        return MU3 if deformed else MU1
    return MU4 if deformed else MU2
