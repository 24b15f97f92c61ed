"""Phase-space transport of Gaussian distributions by characteristics.

The evolved distribution is the initial Gaussian evaluated on the
characteristic pre-image of each point, P(z, t) = P0(z e^{+i Omega(|z|^2) t}),
which transports values exactly: the peak co-moves with the rotating center
and every advected contour keeps its initial level.  The module also
evaluates the Liouville generator analytically (with a switchable sign so
the wrong flow direction is machine-distinguishable) and advects circular
contours into whorls.  Its functions take points as arrays (one point acts
as a 0-d array) and return what numpy returns.  Every transport goes
through one characteristic map, whose phase factor e^{i Omega(|z|^2) t}
refuses one that leaves the doubles (``core.LawError``) before its result
is used; ``evolved_strip`` shares that factor between the nodes of equal
action of a square grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FrequencyProfile, LawError, OscillatorParams, action, frequency


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
        # the closing gap counts when the trace is closed
        if not np.diff(pts, append=pts[:1] if self.closed else pts[:0]).all():
            raise ValueError("consecutive trace points must be distinct")

    def __len__(self) -> int:
        return self.points.size


def _gaussian(z, center):
    with np.errstate(over="ignore"):  # |z - c|^2 = inf far out, where exp(-inf) = 0 is right
        return np.exp(-action(z - center))


def initial_distribution(alpha, state: GaussianState):
    """exp(-|alpha - center|^2): unit peak on the center, values in (0, 1]."""
    return _gaussian(np.asarray(alpha, dtype=complex), state.center)


def _phase_factor(z, state: GaussianState, t: float, sense: int = 1):
    """(Omega(|z|^2), e^{+i sense Omega(|z|^2) t}) for a complex array z.

    Every transport passes here, and one that leaves the doubles is refused:
    the LawError names the largest action reached if Omega is not finite,
    else the time t, as the request gave it, at which the phase overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = action(z)
        om = frequency(s, state.params, state.profile)
        phase = om * t
        if not np.isfinite(phase).all():  # also where Omega is not finite, as inf * 0 is NaN
            reason = f"the phase Omega(s) t overflows at t = {t:.6g}"
            if not np.isfinite(om).all():
                reason = f"Omega(s) is not finite; the largest action reached is s = |z|^2 = {s.max():.6g}"
            raise LawError(state.profile.selector.value, state.params.q, reason)
        return om, np.exp(sense * 1j * phase)


def _rotate(alpha, state: GaussianState, t: float, sense: int = 1):
    """(Omega(|z|^2), z e^{+i sense Omega(|z|^2) t}), the characteristic map.

    The factor comes from ``_phase_factor``, which refuses a transport that
    leaves the doubles; z is always the first operand of the product.
    """
    z = np.asarray(alpha, dtype=complex)
    om, e = _phase_factor(z, state, t, sense)
    with np.errstate(over="ignore", invalid="ignore"):
        return om, z * e  # e is named, so z stays the first operand at any array size


def evolved_distribution(alpha, state: GaussianState, t: float):
    """Transported solution at time t.

    Evaluates the initial Gaussian on the pre-image z e^{+i Omega(|z|^2) t};
    the action |z|^2 equals the conserved action of the characteristic
    through z, so no root finding is needed.
    """
    return _gaussian(_rotate(alpha, state, t)[1], state.center)


def evolved_strip(values, xs, j: int, k: int, state: GaussianState, t: float) -> None:
    """Write evolved_distribution on the grid xs x xs (row r holding y = xs[r])
    into values: rows j..k x columns j..n and rows k..n x columns j..k.

    Node (x_a, x_b) and node (x_b, x_a) have the same action x_a^2 + x_b^2 (a
    commutative double sum), so the phase factors of rows j..k x columns j..n
    serve, transposed, rows k..n x columns j..k as well.  numpy's elementwise
    loops give an element the same bits wherever it sits in an array, so
    every value keeps the bits of the whole grid's.
    """
    z = xs[j:] + 1j * xs[j:k, None]
    e = _phase_factor(z, state, t)[1]
    with np.errstate(over="ignore", invalid="ignore"):  # as in _rotate
        values[j:k, j:] = _gaussian(z * e, state.center)
        et = np.ascontiguousarray(e[:, k - j :].T)  # contiguous: the same SIMD product
        del z, e  # freed before the transposed nodes are built
        values[k:, j:k] = _gaussian((xs[j:k] + 1j * xs[k:, None]) * et, state.center)


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
    return _rotate(points, state, t, sense=-1)[1]


# the most seeds advect_contour places by chord length
MAX_SEEDS = 1 << 16


def refinement_limit(radius: float, n_points: int) -> float:
    """The widest gap that advect_contour leaves without placing its seeds
    again by chord length: twice the spacing of its n_points seeds on the
    circle of that radius."""
    return 2.0 * (2.0 * np.pi * radius / n_points)


def advect_contour(
    state: GaussianState, t: float, radius: float = 0.5, n_points: int = 1024
) -> ContourTrace:
    """Advect the circle |z - state.center| = radius to time t.

    The n_points uniform seeds are advected first; if no two adjacent
    images lie more than refinement_limit apart, that is the trace.  Else
    the seeds are placed again at equal steps of that trace's chord length
    L (equidistribution, C. de Boor, LNM 363, 1974), at angles interpolated
    between the first seeds': L / (0.9 limit) of them, but at least one
    more than before and at most MAX_SEEDS, advected once, so strongly
    sheared whorl arms stay smooth.  The gap bound is unchanged: a trace
    that still misses it is placed again from itself, until the seeds
    reach MAX_SEEDS.  A trace holds at most MAX_SEEDS points (or n_points, if
    more).  The transport identity holds for every emitted point: the
    evolved distribution at an advected point equals the initial
    distribution at its seed.
    """
    ang = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    limit = refinement_limit(radius, n_points)
    for _ in range(32):
        moved = advect_points(state.center + radius * np.exp(1j * ang), state, t)
        gaps = np.abs(np.diff(moved, append=moved[:1]))
        if not gaps.all():  # a zero gap: a circle too small for the doubles near it
            raise ValueError(
                f"the advected circle of radius {radius:g} about {state.center:g} collapsed"
                f" at t = {t:.6g}: consecutive points coincide"
            )
        wide = gaps > limit
        if ang.size >= MAX_SEEDS or not wide.any():
            break
        # equal steps of this trace's chord length, mapped back to seed angles
        arc = np.concatenate([[0.0], np.cumsum(gaps)])
        n = min(MAX_SEEDS, max(math.ceil(arc[-1] / (0.9 * limit)), ang.size + 1))
        ang = np.interp(np.arange(n) * (arc[-1] / n), arc, np.append(ang, 2.0 * np.pi))
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
