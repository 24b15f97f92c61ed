"""Mathematical kernel of the q-deformed classical oscillator.

Complex-amplitude coordinates, the two q-number conventions, the radial
deformation map alpha -> alpha_q, the Hamiltonians of both representations,
and the amplitude-dependent frequency laws that drive every downstream
module.  All functions here are pure; the ones taking an action-like
argument ``s`` accept scalars or numpy arrays alike.  ``frequency_law``
resolves one law and its q-constants up front and returns a plain scalar
callable, for loops (such as the RK4 integrator) that evaluate the same law
many times.
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


@dataclass(frozen=True)
class PhasePoint:
    """A point of the complex amplitude plane."""

    re: float
    im: float = 0.0

    @property
    def s(self) -> float:
        """Action-like modulus squared |alpha|^2."""
        return self.re * self.re + self.im * self.im

    @classmethod
    def from_complex(cls, z) -> "PhasePoint":
        z = complex(z)
        return cls(z.real, z.imag)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __abs__(self) -> float:
        return math.hypot(self.re, self.im)


def as_complex(point) -> complex:
    """Coerce a PhasePoint, complex, or real number to a complex amplitude."""
    return complex(point)


def as_point(point) -> PhasePoint:
    """Coerce a complex or real number (or PhasePoint) to a PhasePoint."""
    if isinstance(point, PhasePoint):
        return point
    return PhasePoint.from_complex(point)


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


def _maybe_scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def _check_nonnegative(s, name="s"):
    if np.any(np.asarray(s) < 0):
        raise ValueError(f"{name} must be non-negative")


def canonical_to_complex(qc, p, params: OscillatorParams) -> PhasePoint:
    """Complex amplitude of a canonical (position, momentum) pair.

    alpha = sqrt(m omega / 2 hbar) qc + i p / sqrt(2 hbar m omega); in
    natural units alpha = (qc + i p) / sqrt(2).
    """
    a = math.sqrt(params.mass * params.omega / (2.0 * params.hbar))
    b = 1.0 / math.sqrt(2.0 * params.hbar * params.mass * params.omega)
    return PhasePoint(a * qc, b * p)


def complex_to_canonical(point, params: OscillatorParams) -> tuple[float, float]:
    """Canonical (position, momentum) of a complex amplitude; inverse of
    :func:`canonical_to_complex`."""
    pt = as_point(point)
    qc = math.sqrt(2.0 * params.hbar / (params.mass * params.omega)) * pt.re
    p = math.sqrt(2.0 * params.hbar * params.mass * params.omega) * pt.im
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
    return _maybe_scalar(out)


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
    return _maybe_scalar(out)


def deformation_f(s, params: OscillatorParams, kind: DeformationKind):
    """Radial deformation factor f(s) = sqrt([s]_q / s), continuous at s = 0.

    The ratio is 0/0 at the origin; below TAYLOR_CUTOFF the removable
    singularity is filled with a two-term series so contour points near the
    origin survive the map.
    """
    s = np.asarray(s, dtype=float)
    _check_nonnegative(s)
    if kind is DeformationKind.UNDEFORMED:
        return _maybe_scalar(np.ones_like(s))
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
    return _maybe_scalar(np.sqrt(np.where(small, series, ratio)))


def deform(point, params: OscillatorParams, kind: DeformationKind) -> PhasePoint:
    """Nonlinear map alpha -> alpha_q = f(|alpha|^2) alpha.

    Preserves the phase and maps the action to |alpha_q|^2 = [|alpha|^2]_q.
    """
    pt = as_point(point)
    f = deformation_f(pt.s, params, kind)
    return PhasePoint(f * pt.re, f * pt.im)


def hamiltonian_alpha(point, params: OscillatorParams, kind: DeformationKind) -> float:
    """Energy hbar omega [|alpha|^2]_q in the plain-amplitude representation."""
    pt = as_point(point)
    return params.hbar * params.omega * q_number(pt.s, params, kind)


def hamiltonian_alphaq(point, params: OscillatorParams) -> float:
    """Energy hbar omega |alpha_q|^2 in the deformed representation."""
    pt = as_point(point)
    return params.hbar * params.omega * pt.s


def frequency_law(params: OscillatorParams, profile: FrequencyProfile) -> Callable[[float], float]:
    """Scalar Omega(s) of the selected law with its constants resolved once.

    The selector dispatch and the q-constants (omega lam, sinh(lam),
    expm1(lam), ...) are fixed when the law is built, so the returned
    callable does only the s-dependent arithmetic; it is meant for loops
    that evaluate one law many times.  It takes a non-negative float and
    does not check its sign.  Each law keeps the operation order of the
    array branch of :func:`frequency`, whose scalar branch delegates here.
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
    if sel is FrequencySelector.MU1:
        sh = math.sinh(lam)
        return lambda s: wl * math.cosh(lam * s) / sh
    if sel is FrequencySelector.MU2:
        em1 = math.expm1(lam)
        return lambda s: wl * math.exp(lam * s) / em1
    if sel is FrequencySelector.MU3:
        sh = math.sinh(lam)
        sh2 = sh**2
        return lambda s: wl * math.sqrt(1.0 + s * s * sh2) / sh
    em1 = math.expm1(lam)
    one_minus_e = 1.0 - math.exp(lam)
    return lambda s: wl * (1.0 - s * one_minus_e) / em1


def frequency(s, params: OscillatorParams, profile: FrequencyProfile):
    """Angular frequency Omega(s) of the selected law.

    For MU1/MU2 the argument is the plain action |alpha|^2; for MU3/MU4 it
    is the deformed action |alpha_q|^2.  MU3 applied at [s]_q of the TYPE1
    map coincides exactly with MU1 at s, and likewise MU4/TYPE2 with MU2.
    A scalar s is evaluated by :func:`frequency_law`.
    """
    if np.ndim(s) == 0:
        s = float(s)
        if s < 0:
            raise ValueError("s must be non-negative")
        return frequency_law(params, profile)(s)
    sel = profile.selector
    w = params.omega
    lam = params.lam
    s = np.asarray(s, dtype=float)
    _check_nonnegative(s)
    if sel is FrequencySelector.UNDEFORMED:
        return np.full_like(s, w)
    if sel is FrequencySelector.MU1:
        return w * lam * np.cosh(lam * s) / math.sinh(lam)
    if sel is FrequencySelector.MU2:
        return w * lam * np.exp(lam * s) / math.expm1(lam)
    if sel is FrequencySelector.MU3:
        return w * lam * np.sqrt(1.0 + s * s * math.sinh(lam) ** 2) / math.sinh(lam)
    if sel is FrequencySelector.MU4:
        return w * lam * (1.0 - s * (1.0 - math.exp(lam))) / math.expm1(lam)
    return w * (1.0 + 2.0 * profile.chi * s)


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
