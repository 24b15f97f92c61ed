"""Phase-space transport of Gaussian distributions by characteristics.

The evolved distribution is the initial Gaussian evaluated on the
characteristic pre-image of each point, P(z, t) = P0(z e^{+i Omega(|z|^2) t}),
which transports values exactly: the peak co-moves with the rotating center
and every advected contour keeps its initial level.  The module also
evaluates the Liouville generator analytically (with a switchable sign so
the wrong flow direction is machine-distinguishable) and advects circular
contours into whorls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, TYPE_CHECKING

import numpy as np

from .core import (
    FrequencyProfile,
    OscillatorParams,
    action,
    frequency,
)

if TYPE_CHECKING:
    from .field import GridSpec


@dataclass(frozen=True)
class GaussianState:
    """Unit-peak Gaussian exp(-|z - center|^2) carried by a frequency law.

    The same machinery serves both representations: under the MU3/MU4 laws
    the coordinates are read as deformed amplitudes alpha_q.
    """

    center: complex
    profile: FrequencyProfile
    params: OscillatorParams

    def __post_init__(self):
        # a Python complex: numpy.complex128 division rounds differently in the last ulp
        object.__setattr__(self, "center", complex(self.center))


@dataclass(frozen=True)
class ContourTrace:
    """Ordered polyline in the amplitude plane, tagged with its time stamp."""

    points: np.ndarray
    closed: bool
    tau: float = 0.0

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


def _as_complex_array(alpha):
    """Map complex / array input to (ndarray, was_scalar)."""
    arr = np.asarray(alpha, dtype=complex)
    return arr, arr.ndim == 0


def _gaussian(z, center):
    return np.exp(-action(z - center))


def initial_distribution(alpha, state: GaussianState):
    """exp(-|alpha - center|^2): unit peak on the center, values in (0, 1]."""
    z, scalar = _as_complex_array(alpha)
    out = _gaussian(z, state.center)
    return float(out) if scalar else out


def evolved_distribution(alpha, state: GaussianState, t: float):
    """Transported solution at time t.

    Evaluates the initial Gaussian on the pre-image z e^{+i Omega(|z|^2) t};
    the action |z|^2 equals the conserved action of the characteristic
    through z, so no root finding is needed.
    """
    z, scalar = _as_complex_array(alpha)
    om = frequency(action(z), state.params, state.profile)
    out = _gaussian(z * np.exp(1j * om * t), state.center)
    return float(out) if scalar else out


def require_finite_frequency(z, state: GaussianState):
    """Raise ValueError if Omega is not finite at some action |z|^2 of the points z.

    Called once a request's output has come out non-finite, so the error
    says why and names the largest action reached.
    """
    s = action(z)
    with np.errstate(over="ignore", invalid="ignore"):
        om = frequency(s, state.params, state.profile)
    if not np.isfinite(om).all():
        raise ValueError(
            f"Omega(s) is not finite; the largest action reached is s = |z|^2 = {s.max():.6g}"
        )


def liouville_generator(state: GaussianState, alpha, t: float, sign: int = 1):
    """Analytic right-hand side sign * (-i) Omega (z* d/dz* - z d/dz) P.

    For the transported Gaussian the derivative combination collapses to
    2 Omega Im(center * conj(u)) P with u the pre-image of z, which is what
    this returns (times sign).  sign=+1 reproduces the analytic dP/dt;
    sign=-1 is the deliberately wrong flow direction kept for the
    discrimination check.
    """
    z, scalar = _as_complex_array(alpha)
    c = state.center
    om = frequency(action(z), state.params, state.profile)
    u = z * np.exp(1j * om * t)
    out = sign * 2.0 * om * (c * np.conj(u)).imag * _gaussian(u, c)
    return float(out) if scalar else out


class ResidualStats(NamedTuple):
    max: float
    mean: float


def pde_residual(state: GaussianState, t: float, grid: "GridSpec", sign: int = 1, h: float = 1e-4) -> ResidualStats:
    """Residual |dP/dt - generator| over a grid, dP/dt by centered difference.

    The time step is h in units of the characteristic time 1/omega.  With
    sign=+1 the residual shrinks at second order in h; with sign=-1 it
    stays O(1), which is the machine proof that the transported solution
    satisfies the generator with the printed sign and not its flip.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    pts = grid.mesh_complex()
    dt = h / state.params.omega
    dpdt = (
        evolved_distribution(pts, state, t + dt) - evolved_distribution(pts, state, t - dt)
    ) / (2.0 * dt)
    resid = np.abs(dpdt - liouville_generator(state, pts, t, sign))
    return ResidualStats(float(resid.max()), float(resid.mean()))


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
    z = np.asarray(points, dtype=complex)
    om = frequency(action(z), state.params, state.profile)
    return z * np.exp(-1j * om * t)


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
        require_finite_frequency(seeds, state)
    return ContourTrace(points=moved, closed=True, tau=state.params.omega * t)


def contour_length(trace: ContourTrace) -> float:
    """Polyline length; the closing segment counts when the trace is closed."""
    pts = trace.points
    if pts.size < 2:
        raise ValueError("need at least 2 points to measure a length")
    total = float(np.abs(np.diff(pts)).sum())
    if trace.closed:
        total += abs(complex(pts[0] - pts[-1]))
    return total
