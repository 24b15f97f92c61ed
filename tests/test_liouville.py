"""Transport checks: distributions, the generator, residuals, and whorls.

The strongest assertions are exact transport statements (advected points
keep their initial distribution value, the co-moving peak stays at 1); the
generator is cross-checked against a centered finite-difference time
derivative, which also discriminates the flow sign.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import same_bits
from qwhorl.core import (
    MU1,
    MU2,
    MU3,
    MU4,
    UNDEFORMED,
    DeformationKind,
    FrequencyProfile,
    LawError,
    OscillatorParams,
    deform,
)
from qwhorl.dynamics import evolve_exact
from qwhorl import liouville as liouville_module
from qwhorl.field import GridSpec
from qwhorl.liouville import (
    MAX_SEEDS,
    ContourTrace,
    GaussianState,
    advect_contour,
    advect_points,
    circle_points,
    contour_length,
    evolved_distribution,
    initial_distribution,
    liouville_generator,
    pde_residual,
    refinement_limit,
)

PANEL_TAUS = [math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi]
EXP_QUARTER = 0.7788007830714049  # e^{-1/4}
EXP_NINE = 1.2340980408667956e-4  # e^{-9}

ANHARMONIC = FrequencyProfile("anharmonic", chi=1.0)


def all_profile_states(params):
    center = complex(0.5)
    return [
        GaussianState(center, UNDEFORMED, params),
        GaussianState(center, MU1, params),
        GaussianState(center, MU2, params),
        GaussianState(center, ANHARMONIC, params),
        GaussianState(deform(center, params, DeformationKind.TYPE1), MU3, params),
        GaussianState(deform(center, params, DeformationKind.TYPE2), MU4, params),
    ]


@pytest.fixture
def mu1_state(params):
    return GaussianState(complex(0.5), MU1, params)


@pytest.fixture
def advect_calls(monkeypatch):
    """The seed count of every advect_points call that advect_contour makes."""
    calls = []

    def counting(points, state, t):
        calls.append(points.size)
        return advect_points(points, state, t)

    monkeypatch.setattr(liouville_module, "advect_points", counting)
    return calls


def _widest_gap(trace):
    return np.abs(np.diff(trace.points, append=trace.points[:1])).max()


class TestZeroDimensionalInput:
    """One point acts as a 0-d array: its value has the bits of the array call."""

    POINTS = (0j, 0.5 + 0j, -0.3 + 0.4j, 1.2 - 0.7j)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.95])
    def test_distributions_and_generator(self, q):
        for state in all_profile_states(OscillatorParams(q=q)):
            for z in self.POINTS:
                arr = np.array([z])
                for one in (z, np.asarray(z)):
                    assert same_bits(
                        initial_distribution(one, state), initial_distribution(arr, state)
                    )
                    for t in (0.0, 0.7, 2.0 * math.pi):
                        assert same_bits(
                            evolved_distribution(one, state, t),
                            evolved_distribution(arr, state, t),
                        )
                        for sign in (1, -1):
                            assert same_bits(
                                liouville_generator(state, one, t, sign),
                                liouville_generator(state, arr, t, sign),
                            )


class TestArraySizeIndependence:
    """A point's value does not depend on the size of the array it comes in:
    from 16384 complex128 numpy reuses temporaries, and the operands of the
    SIMD complex product, which is not commutative in the last bit, must not
    swap when it does."""

    TRANSPORTS = {
        "advect_points": advect_points,
        "evolved_distribution": evolved_distribution,
        "liouville_generator": lambda z, state, t: liouville_generator(state, z, t),
    }

    @pytest.mark.parametrize("name", list(TRANSPORTS))
    @pytest.mark.parametrize(
        "profile",
        [MU1, MU4, FrequencyProfile("anharmonic", chi=0.7)],
        ids=["mu1", "mu4", "anharmonic"],
    )
    def test_whole_array_equals_its_slices(self, params, rng, profile, name):
        fn = self.TRANSPORTS[name]
        z = rng.uniform(-1.5, 1.5, 40000) + 1j * rng.uniform(-1.5, 1.5, 40000)
        state = GaussianState(0.3 + 0.2j, profile, params)
        sliced = np.concatenate([fn(z[i : i + 1000], state, 7.3) for i in range(0, z.size, 1000)])
        assert fn(z, state, 7.3).tobytes() == sliced.tobytes()


class TestGaussianState:
    def test_center_is_python_complex(self, params):
        state = GaussianState(np.complex128(0.5 - 0.25j), MU1, params)
        assert type(state.center) is complex and state.center == 0.5 - 0.25j

    def test_deformed_law_takes_no_representation_argument(self, params):
        # the law alone says which amplitude plane the coordinates live in
        center = deform(complex(0.5), params, DeformationKind.TYPE1)
        state = GaussianState(center, MU3, params)
        assert [f.name for f in dataclasses.fields(GaussianState)] == ["center", "profile", "params"]
        assert initial_distribution(center, state) == 1.0


class TestInitialDistribution:
    def test_unit_peak_at_center(self, mu1_state):
        assert initial_distribution(complex(0.5), mu1_state) == 1.0

    def test_level_at_protocol_radius(self, mu1_state):
        assert initial_distribution(0.5 + 0.5j, mu1_state) == pytest.approx(
            EXP_QUARTER, rel=1e-14
        )

    def test_far_tail(self, mu1_state):
        assert initial_distribution(3.5 + 0.0j, mu1_state) == pytest.approx(
            EXP_NINE, rel=1e-13
        )

    def test_range_bounds(self, mu1_state, rng):
        pts = rng.uniform(-2, 2, (200, 2))
        vals = initial_distribution(pts[:, 0] + 1j * pts[:, 1], mu1_state)
        assert np.all(vals > 0) and np.all(vals <= 1)


class TestEvolvedDistribution:
    def test_time_zero_equals_initial(self, mu1_state):
        grid = GridSpec.square(32).mesh_complex()
        assert np.array_equal(
            evolved_distribution(grid, mu1_state, 0.0),
            initial_distribution(grid, mu1_state),
        )

    def test_undeformed_transported_peak(self, params):
        state = GaussianState(complex(0.5), UNDEFORMED, params)
        assert evolved_distribution(-0.5j, state, math.pi / 2) == 1.0

    @pytest.mark.parametrize("tau", PANEL_TAUS)
    def test_co_moving_peak_is_exactly_one(self, mu1_state, params, tau):
        peak = evolve_exact(mu1_state, tau / params.omega)
        assert evolved_distribution(peak, mu1_state, tau / params.omega) == 1.0

    def test_grid_max_never_exceeds_one(self, mu1_state, params):
        fieldvals = evolved_distribution(
            GridSpec.square(128).mesh_complex(), mu1_state, math.pi
        )
        assert fieldvals.max() <= 1.0 + 1e-12

    def test_transport_identity_all_profiles(self, params):
        for state in all_profile_states(params):
            seeds = circle_points(state.center, 0.5, 4096)
            base = initial_distribution(seeds, state)
            for tau in PANEL_TAUS:
                t = tau / params.omega
                moved = advect_points(seeds, state, t)
                drift = np.abs(evolved_distribution(moved, state, t) - base).max()
                assert drift <= 1e-12, state.profile.selector

    def test_q_to_one_limit_matches_undeformed(self):
        limit = OscillatorParams(q=1.0 - 1e-8)
        grid = GridSpec.square(64).mesh_complex()
        t = math.pi
        reference = evolved_distribution(
            grid, GaussianState(complex(0.5), UNDEFORMED, limit), t
        )
        for profile in (MU1, MU2, MU3, MU4):
            state = GaussianState(complex(0.5), profile, limit)
            assert np.abs(evolved_distribution(grid, state, t) - reference).max() <= 1e-6


class TestLiouvilleGenerator:
    def test_annihilates_radially_symmetric_field(self, params, rng):
        # a Gaussian centered on the origin depends on |alpha|^2 only
        state = GaussianState(complex(0.0), MU1, params)
        pts = rng.uniform(-1, 1, (100, 2))
        vals = liouville_generator(state, pts[:, 0] + 1j * pts[:, 1], 0.7)
        assert np.abs(vals).max() <= 1e-12

    def test_vanishes_at_comoving_peak(self, mu1_state, params):
        # zero up to the rounding of the rotated peak position itself
        for tau in PANEL_TAUS:
            t = tau / params.omega
            assert abs(liouville_generator(mu1_state, evolve_exact(mu1_state, t), t)) <= 1e-15

    @pytest.mark.parametrize("profile", [UNDEFORMED, MU1, MU2, ANHARMONIC])
    def test_matches_fd_time_derivative(self, params, profile, rng):
        state = GaussianState(complex(0.5), profile, params)
        t = math.pi / 4
        pts = rng.uniform(-1, 1, (50, 2))
        z = pts[:, 0] + 1j * pts[:, 1]

        def worst_gap(h):
            fd = (
                evolved_distribution(z, state, t + h) - evolved_distribution(z, state, t - h)
            ) / (2 * h)
            return np.abs(fd - liouville_generator(state, z, t, sign=1)).max()

        errs = [worst_gap(h) for h in (2e-4, 1e-4, 5e-5)]
        assert errs[1] <= 1e-6
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.0 <= coarse / fine <= 5.0  # O(h^2) truncation

    def test_sign_flips_value(self, mu1_state):
        z = 0.3 + 0.2j
        plus = liouville_generator(mu1_state, z, 0.5, sign=1)
        minus = liouville_generator(mu1_state, z, 0.5, sign=-1)
        assert plus == -minus and plus != 0.0


class TestPdeResidual:
    def test_correct_sign_residual_small(self, params):
        grid = GridSpec.square(64)
        t = math.pi / 4
        for state in all_profile_states(params):
            assert pde_residual(state, t, grid.mesh_complex(), sign=1, h=1e-4) <= 1e-6, state.profile.selector

    def test_wrong_sign_residual_large(self, params):
        grid = GridSpec.square(64)
        for state in all_profile_states(params):
            assert pde_residual(state, math.pi / 4, grid.mesh_complex(), sign=-1, h=1e-4) >= 0.1

    def test_second_order_convergence(self, mu1_state):
        grid = GridSpec.square(64)
        t = math.pi / 4
        points = grid.mesh_complex()
        resids = [pde_residual(mu1_state, t, points, sign=1, h=h) for h in (4e-4, 2e-4, 1e-4, 5e-5)]
        for coarse, fine in zip(resids, resids[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_point_layout_does_not_matter(self, mu1_state):
        mesh = GridSpec.square(64).mesh_complex()
        for sign in (1, -1):
            on_mesh = pde_residual(mu1_state, 0.7, mesh, sign=sign)
            assert pde_residual(mu1_state, 0.7, mesh.ravel(), sign=sign) == on_mesh

    def test_scattered_annulus_points(self, params, rng):
        r = np.sqrt(0.1**2 + rng.random(500) * (1.5**2 - 0.1**2))
        points = r * np.exp(2j * np.pi * rng.random(500))
        for state in all_profile_states(params):
            assert pde_residual(state, math.pi / 4, points, sign=1) <= 1e-6, state.profile.selector
            assert pde_residual(state, math.pi / 4, points, sign=-1) >= 0.1, state.profile.selector

    def test_invalid_step_rejected(self, mu1_state):
        with pytest.raises(ValueError, match="h must be positive"):
            pde_residual(mu1_state, 0.1, GridSpec.square(16).mesh_complex(), h=0.0)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError, match="nx, ny >= 2"):
            GridSpec.square(1)


class TestAdvection:
    def test_time_zero_leaves_circle(self, mu1_state):
        trace = advect_contour(mu1_state, 0.0, radius=0.5, n_points=64)
        assert np.array_equal(trace.points, circle_points(0.5, 0.5, 64))
        assert trace.closed

    def test_modulus_preserved_pointwise(self, mu1_state, rng):
        z = rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)
        moved = advect_points(z, mu1_state, 2.2)
        assert np.abs(np.abs(moved) - np.abs(z)).max() <= 1e-15

    def test_equal_radius_equal_phase(self, mu1_state):
        # points sharing |beta| rotate by exactly the same angle
        z = 0.7 * np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False))
        moved = advect_points(z, mu1_state, 1.5)
        phases = np.angle(moved / z)
        assert np.abs(phases - phases[0]).max() <= 1e-12

    def test_rigid_rotation_keeps_length(self, params):
        state = GaussianState(complex(0.5), UNDEFORMED, params)
        expected = contour_length(advect_contour(state, 0.0, radius=0.5, n_points=4096))
        for tau in PANEL_TAUS:
            length = contour_length(advect_contour(state, tau, radius=0.5, n_points=4096))
            assert abs(length - expected) / expected <= 1e-9

    def test_whorl_lengths_increase(self, params):
        for profile in (MU1, MU2, ANHARMONIC):
            state = GaussianState(complex(0.5), profile, params)
            lengths = [
                contour_length(advect_contour(state, tau, radius=0.5, n_points=4096))
                for tau in PANEL_TAUS
            ]
            assert all(b > a for a, b in zip(lengths, lengths[1:])), profile.selector
            assert lengths[0] > 2 * math.pi * 0.5  # already stretched past the seed circle

    def test_refinement_bounds_gap_growth(self, params):
        state = GaussianState(complex(0.5), ANHARMONIC, params)
        coarse = advect_points(circle_points(state.center, 0.5, 64), state, 2 * math.pi)
        fine = advect_contour(state, 2 * math.pi, radius=0.5, n_points=64)
        assert len(fine) > coarse.size
        limit = 2.0 * (2 * math.pi * 0.5 / 64)
        gaps = np.abs(np.diff(fine.points, append=fine.points[:1]))
        assert gaps.max() <= limit * 1.000001

    def test_refinement_stops_at_max_seeds(self, mu1_state):
        # contour --tau 1000: the first trace's chord length asks for 65,724
        # seeds at 0.9 times the limit, more than the cap
        trace = advect_contour(mu1_state, 1000.0, radius=0.5, n_points=1024)
        assert len(trace) == MAX_SEEDS

    @pytest.mark.parametrize("profile", [MU1, MU2, MU3, MU4], ids=lambda p: p.selector.value)
    def test_unrefined_trace_is_its_seeds_advected(self, params, profile, advect_calls):
        state = GaussianState(complex(0.5, 0.3), profile, params)
        trace = advect_contour(state, math.pi / 2, radius=0.3, n_points=1024)
        assert advect_calls == [1024]
        expected = advect_points(circle_points(state.center, 0.3, 1024), state, math.pi / 2)
        assert trace.points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("radius", [0.3, 0.5])
    @pytest.mark.parametrize("tau", [math.pi / 2, 2 * math.pi, 8 * math.pi, 16 * math.pi, 100.0])
    @pytest.mark.parametrize("profile", [MU1, MU2, MU3, MU4, ANHARMONIC], ids=lambda p: p.selector.value)
    def test_placed_seeds_bound_every_gap(self, params, profile, tau, radius):
        trace = advect_contour(GaussianState(complex(0.5, 0.3), profile, params), tau, radius)
        assert 1024 <= len(trace) < MAX_SEEDS
        assert _widest_gap(trace) <= refinement_limit(radius, 1024)

    @pytest.mark.parametrize("radius, points", [(0.3, 53327), (0.5, 60446)])
    def test_long_anharmonic_whorl_resolves_in_two_passes(self, params, advect_calls, radius, points):
        # the sweep's longest whorls: one placement by chord length resolves
        # them below MAX_SEEDS
        trace = advect_contour(GaussianState(complex(0.5, 0.3), ANHARMONIC, params), 100.0, radius)
        assert advect_calls == [1024, points] and len(trace) == points
        assert _widest_gap(trace) <= refinement_limit(radius, 1024)

    @pytest.mark.parametrize(
        "profile, center, tau",
        [
            (MU1, 0.5 + 0.3j, math.pi),
            (MU2, 0.5 + 0.3j, math.pi),
            (MU4, 0.5 + 0.3j, math.pi),
            (ANHARMONIC, 0.5, math.pi / 2),
        ],
        ids=["mu1", "mu2", "mu4", "anharmonic"],
    )
    def test_refined_length_converges_at_second_order(self, params, profile, center, tau):
        # a 4x denser trace stands in for the whorl: the chords of the
        # refined trace fall short of it by O(spacing^2), so a quarter as
        # much when the seeds double
        state = GaussianState(complex(center), profile, params)
        shortfalls = []
        for n in (1024, 2048):
            trace = advect_contour(state, tau, radius=0.5, n_points=n)
            assert len(trace) > n  # refined
            reference = advect_contour(state, tau, radius=0.5, n_points=4 * n)
            shortfalls.append(contour_length(reference) - contour_length(trace))
        assert 0 < shortfalls[1] < shortfalls[0]
        assert abs(math.log2(shortfalls[0] / shortfalls[1]) - 2.0) <= 0.5

    def test_refined_points_still_transport_exactly(self, mu1_state, params):
        trace = advect_contour(mu1_state, math.pi, radius=0.5, n_points=64)
        evolved = evolved_distribution(trace.points, mu1_state, math.pi)
        assert np.abs(evolved - EXP_QUARTER).max() <= 1e-12

    def test_small_seed_counts_rejected(self, mu1_state):
        with pytest.raises(ValueError, match="at least 8"):
            circle_points(0.5, 0.5, 4)
        with pytest.raises(ValueError, match="radius"):
            circle_points(0.5, 0.0, 64)

    @pytest.mark.parametrize("radius", [1e-14, 1e-16, 1e-300])
    def test_collapsed_circle_names_its_radius(self, mu1_state, radius):
        # neighbouring seeds closer than the doubles near 0.5 round together
        # once rotated; at t = 0 their imaginary parts still differ
        advect_contour(mu1_state, 0.0, radius=1e-17)
        with pytest.raises(ValueError) as caught:
            advect_contour(mu1_state, 1.0, radius=radius)
        assert str(caught.value) == (
            f"the advected circle of radius {radius:g} about 0.5+0j collapsed at t = 1:"
            " consecutive points coincide"
        )
        assert not isinstance(caught.value, LawError)

    def test_collapsed_circle_is_refused_on_its_first_pass(self, mu1_state, advect_calls):
        with pytest.raises(ValueError, match="collapsed"):
            advect_contour(mu1_state, 1.0, radius=1e-14)
        assert advect_calls == [1024]


# every transport reaches the characteristic map, which refuses one that
# leaves the doubles with the same line
TRANSPORTS = {
    "evolved_distribution": evolved_distribution,
    "advect_points": advect_points,
    "liouville_generator": lambda z, state, t: liouville_generator(state, z, t),
}


@pytest.mark.parametrize("transport", TRANSPORTS.values(), ids=TRANSPORTS.keys())
class TestRefusedTransport:
    def test_names_the_law_of_its_state(self, transport):
        # omega (1 + 2 s) overflows at s = 1, where the mu1 law is finite (about
        # omega, so also the generator's 2 Omega)
        big = OscillatorParams(q=0.9, omega=8e307)
        z = np.array([0.0, 1.0])
        transport(z, GaussianState(0.5, MU1, big), 1e-308)
        with pytest.raises(LawError) as caught:
            transport(z, GaussianState(0.5, ANHARMONIC, big), 1e-308)
        assert str(caught.value) == (
            "anharmonic law at q = 0.9: Omega(s) is not finite;"
            " the largest action reached is s = |z|^2 = 1"
        )
        assert (caught.value.law, caught.value.q) == ("anharmonic", 0.9)

    @pytest.mark.parametrize("t", [1e308, -1e308])
    def test_names_the_phase_when_omega_is_finite(self, params, transport, t):
        # omega (1 + 2 s) = 3 at s = 1, so Omega t overflows at |t| = 1e308;
        # the line names t as given, though advect_points rotates by -t
        state = GaussianState(0.5, ANHARMONIC, params)
        transport(np.array([1.0]), state, t / 10)
        with pytest.raises(LawError) as caught:
            transport(np.array([1.0]), state, t)
        assert str(caught.value) == (
            f"anharmonic law at q = 0.5: the phase Omega(s) t overflows at t = {t:.6g}"
        )


class TestContourTrace:
    def test_closed_needs_eight_points(self):
        pts = np.exp(2j * np.pi * np.arange(5) / 5)
        with pytest.raises(ValueError, match=">= 8"):
            ContourTrace(points=pts, closed=True)

    def test_consecutive_duplicates_rejected(self):
        pts = np.array([0.0, 1.0, 1.0, 2.0], dtype=complex)
        with pytest.raises(ValueError, match="distinct"):
            ContourTrace(points=pts, closed=False)

    @pytest.mark.parametrize("bad", [complex("nan"), complex(1.0, math.inf)])
    def test_non_finite_points_rejected(self, bad):
        pts = np.exp(2j * np.pi * np.arange(8) / 8)
        pts[3] = bad
        with pytest.raises(ValueError, match="finite"):
            ContourTrace(points=pts, closed=True)

    def test_open_trace_allows_any_size(self):
        assert len(ContourTrace(points=np.array([1.0 + 0j]), closed=False)) == 1


class TestContourLength:
    def test_unit_circle(self):
        trace = ContourTrace(points=circle_points(0.0, 1.0, 4096), closed=True)
        assert contour_length(trace) == pytest.approx(2 * math.pi, abs=1e-5)

    def test_open_two_point_segment(self):
        trace = ContourTrace(points=np.array([0.0, 3.0 + 4.0j]), closed=False)
        assert contour_length(trace) == 5.0

    def test_single_point_rejected(self):
        trace = ContourTrace(points=np.array([1.0 + 0j]), closed=False)
        with pytest.raises(ValueError, match="at least 2"):
            contour_length(trace)

    def test_open_polyline_skips_closing_segment(self):
        square = np.array([0.0, 1.0, 1.0 + 1.0j, 1.0j])
        assert contour_length(ContourTrace(points=square, closed=False)) == 3.0

    def test_closing_segment_counted(self):
        octagon = circle_points(0.0, 1.0, 8)
        expected = 8 * 2 * math.sin(math.pi / 8)
        length = contour_length(ContourTrace(points=octagon, closed=True))
        assert length == pytest.approx(expected, rel=1e-14)
