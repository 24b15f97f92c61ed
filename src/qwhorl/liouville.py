"""Phase-space transport of Gaussian distributions by characteristics.

The evolved distribution is the initial Gaussian evaluated on the
characteristic pre-image of each point, P(z, t) = P0(z e^{+i Omega(|z|^2) t}),
which transports values exactly: the peak co-moves with the rotating center
and every advected contour keeps its initial level.  The module also
evaluates the Liouville generator analytically (with a switchable sign so
the wrong flow direction is machine-distinguishable) and advects circular
contours into whorls.  Its functions take points as arrays (one point acts
as a 0-d array) and return what numpy returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FrequencyProfile,
    OscillatorParams,
    action,
    frequency,
)


@dataclass(frozen=True)
class GaussianState:
    """Unit-peak Gaussian exp(-|z - center|^2) carried by a frequency law.

    The centre moves on the orbit of the law (``dynamics.evolve_exact``), so
    a state is also the initial point of that orbit.  The same machinery
    serves both representations: under the MU3/MU4 laws the coordinates are
    read as deformed amplitudes alpha_q.
    """

    center: complex
    profile: FrequencyProfile
    params: OscillatorParams

    def __post_init__(self):
        # a Python complex: numpy.complex128 division rounds differently in the last ulp
        object.__setattr__(self, "center", complex(self.center))


@dataclass(frozen=True)
class ContourTrace:
    """Ordered polyline in the amplitude plane; its time stays with the caller."""

    points: np.ndarray
    closed: bool

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1:
            raise ValueError("trace points must form a 1-D sequence")
        if not np.isfinite(pts).all():
            raise ValueError("trace points must be finite")
        if self.closed and pts.size < 8:
            raise ValueError(f"closed trace needs >= 8 points, got {pts.size}")
        if pts.size >= 2:
            gaps = np.diff(pts)
            if self.closed:
                gaps = np.append(gaps, pts[0] - pts[-1])
            if np.any(gaps == 0):
                raise ValueError("consecutive trace points must be distinct")

    def __len__(self) -> int:
        return self.points.size


def _gaussian(z, center):
    return np.exp(-action(z - center))


def initial_distribution(alpha, state: GaussianState):
    """exp(-|alpha - center|^2): unit peak on the center, values in (0, 1]."""
    return _gaussian(np.asarray(alpha, dtype=complex), state.center)


def _rotate(alpha, state: GaussianState, t: float):
    """(Omega(|z|^2), z e^{+i Omega(|z|^2) t}), the characteristic map."""
    z = np.asarray(alpha, dtype=complex)
    om = frequency(action(z), state.params, state.profile)
    e = np.exp(1j * om * t)  # named, so z stays the first operand at any array size
    return om, z * e


def evolved_distribution(alpha, state: GaussianState, t: float):
    """Transported solution at time t.

    Evaluates the initial Gaussian on the pre-image z e^{+i Omega(|z|^2) t};
    the action |z|^2 equals the conserved action of the characteristic
    through z, so no root finding is needed.
    """
    return _gaussian(_rotate(alpha, state, t)[1], state.center)


def require_finite_frequency(z, state: GaussianState, t: float):
    """Raise ValueError if Omega, or the phase Omega t, is not finite at some
    action |z|^2 of the points z.

    Called once a request's output at time t has come out non-finite, so the
    error says why: it names the largest action reached, or the time at
    which the phase overflowed.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = action(z)
        om = frequency(s, state.params, state.profile)
        phase = om * t
    if not np.isfinite(om).all():
        raise ValueError(
            f"Omega(s) is not finite; the largest action reached is s = |z|^2 = {s.max():.6g}"
        )
    if not np.isfinite(phase).all():
        raise ValueError(f"the phase Omega(s) t overflows at t = {t:.6g}")


def liouville_generator(state: GaussianState, alpha, t: float, sign: int = 1):
    """Analytic right-hand side sign * (-i) Omega (z* d/dz* - z d/dz) P.

    For the transported Gaussian the derivative combination collapses to
    2 Omega Im(center * conj(u)) P with u the pre-image of z, which is what
    this returns (times sign).  sign=+1 reproduces the analytic dP/dt;
    sign=-1 is the deliberately wrong flow direction kept for the
    discrimination check.
    """
    c = state.center
    om, u = _rotate(alpha, state, t)
    cu = np.conj(u)  # named, so c stays the first operand at any array size
    return sign * 2.0 * om * (c * cu).imag * _gaussian(u, c)


def pde_residual(state: GaussianState, t: float, points, sign: int = 1, h: float = 1e-4) -> float:
    """Largest residual |dP/dt - generator| over the given points, dP/dt by
    centered difference.

    The time step is h in units of the characteristic time 1/omega.  With
    sign=+1 the residual shrinks at second order in h; with sign=-1 it
    stays O(1), which is the machine proof that the transported solution
    satisfies the generator with the printed sign and not its flip.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    dt = h / state.params.omega
    dpdt = (
        evolved_distribution(points, state, t + dt) - evolved_distribution(points, state, t - dt)
    ) / (2.0 * dt)
    return float(np.abs(dpdt - liouville_generator(state, points, t, sign)).max())


def circle_points(center, radius: float, n_points: int) -> np.ndarray:
    """n_points points of the circle |z - center| = radius, CCW from angle 0."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if n_points < 8:
        raise ValueError(f"need at least 8 points, got {n_points}")
    ang = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    return complex(center) + radius * np.exp(1j * ang)


def advect_points(points, state: GaussianState, t: float) -> np.ndarray:
    """Transport seed points along characteristics: z -> z e^{-i Omega(|z|^2) t}."""
    return _rotate(points, state, -t)[1]


def advect_contour(
    state: GaussianState,
    t: float,
    radius: float = 0.5,
    n_points: int = 1024,
    refine: bool = False,
    max_points: int = 1 << 16,
) -> ContourTrace:
    """Advect the circle |z - state.center| = radius to time t.

    With refine=True, midpoints are inserted on the seed circle wherever two
    adjacent advected points separate by more than twice the initial
    spacing, so strongly sheared whorl arms stay smooth.  The transport
    identity holds for every emitted point: the evolved distribution at an
    advected point equals the initial distribution at its seed.
    """
    ang = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    limit = 2.0 * (2.0 * np.pi * radius / n_points)
    with np.errstate(over="ignore", invalid="ignore"):  # ContourTrace rejects non-finite points
        for _ in range(32):
            seeds = state.center + radius * np.exp(1j * ang)
            moved = advect_points(seeds, state, t)
            if not refine or ang.size >= max_points:
                break
            gaps = np.abs(np.diff(moved, append=moved[:1]))
            wide = gaps > limit
            if not wide.any():
                break
            nxt = np.append(ang[1:], 2.0 * np.pi)
            ang = np.sort(np.concatenate([ang, 0.5 * (ang + nxt)[wide]]))
    if not np.isfinite(moved).all():
        require_finite_frequency(seeds, state, t)
    return ContourTrace(points=moved, closed=True)


def contour_length(trace: ContourTrace) -> float:
    """Polyline length; the closing segment counts when the trace is closed."""
    pts = trace.points
    if pts.size < 2:
        raise ValueError("need at least 2 points to measure a length")
    total = float(np.abs(np.diff(pts)).sum())
    if trace.closed:
        total += abs(complex(pts[0] - pts[-1]))
    return total
