import math

import numpy as np
import pytest

from hcscatter.covariance import MassFractions, d_minus_half, entropy_from_d_minus_half
from hcscatter.gridsim import (
    CoverageError,
    GridSpec,
    WaveGrid,
    _reflected_amplitudes,
    auto_grid,
    collision_state,
    free_evolve_packet,
    free_state,
    reflected_state,
    schmidt_entropy,
    transient_curve,
)
from hcscatter.scattering import ScatterParams
from oracles import marginal, packet_amplitude, trapezoid

REF_ENTROPY_BITS = 1.797380017291221  # mu1 = 1/4, width ratio 10


@pytest.fixture
def reference_params():
    return ScatterParams(0.25, 0.75, 100.0, 1.0, core_radius=0.5)


class TestGridSpec:
    def test_axes_and_spacing(self):
        grid = GridSpec(-1.0, 1.0, 0.0, 4.0, 101)
        x1, x2 = grid.axes()
        assert x1[0] == -1.0 and x1[-1] == 1.0 and len(x1) == 101
        assert x2[0] == 0.0 and x2[-1] == 4.0 and len(x2) == 101
        assert grid.dx1 == pytest.approx(0.02, rel=1e-12)
        assert grid.dx2 == pytest.approx(0.04, rel=1e-12)

    def test_rejects_inverted_extent(self):
        with pytest.raises(ValueError, match="max > min"):
            GridSpec(1.0, -1.0, 0.0, 1.0)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="64"):
            GridSpec(-1.0, 1.0, -1.0, 1.0, 63)


class TestFreeEvolution:
    def test_time_zero_is_identity(self):
        evolved = free_evolve_packet(2.0, -3.0, 1.7, 1.3, 0.0)
        assert evolved.center == 2.0
        assert evolved.momentum == -3.0
        assert evolved.width_sq == complex(1.7, 0.0)
        assert evolved.phase == 0.0
        x = np.linspace(-5.0, 8.0, 400)
        assert np.allclose(
            evolved.amplitude(x), packet_amplitude(2.0, -3.0, 1.7, x), atol=1e-15
        )

    def test_width_magnitude_grows(self):
        mags = [abs(free_evolve_packet(0.0, 1.0, 1.0, 2.0, t).width_sq)
                for t in (0.0, 0.5, 1.0, 4.0)]
        assert all(b > a for a, b in zip(mags, mags[1:]))
        # Time reversal spreads just the same.
        assert abs(free_evolve_packet(0.0, 1.0, 1.0, 2.0, -4.0).width_sq) == mags[-1]

    def test_density_remains_normalized(self):
        # Quadrature oracle: integrate the evolved density directly.
        evolved = free_evolve_packet(0.0, 2.0, 1.0, 1.0, 5.0)
        x = np.linspace(-80.0, 80.0, 16001)
        norm = trapezoid(np.abs(evolved.amplitude(x)) ** 2, x)
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_center_drifts_at_group_velocity(self):
        evolved = free_evolve_packet(1.0, 3.0, 2.0, 1.5, 2.0)
        assert evolved.center == pytest.approx(1.0 + 3.0 * 2.0 / 1.5, rel=1e-15)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError, match="mass must be positive"):
            free_evolve_packet(0.0, 1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("width_sq", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_width(self, width_sq):
        with pytest.raises(ValueError, match="width_sq must have a positive real part"):
            free_evolve_packet(0.0, 1.0, width_sq, 1.0, 1.0)

    def test_scenario_packets(self):
        # Particle 1 starts at +q1 moving at -K, particle 2 at -q2 moving
        # at +K: the free state at t = 0 is the product of those packets.
        params = ScatterParams(1.0, 2.0, 2.0, 3.0, momentum=5.0, q1=7.0, q2=9.0)
        wave = free_state(params, grid_n=128)
        x1, x2 = wave.grid.axes()
        expected = np.outer(
            packet_amplitude(7.0, -5.0, 2.0, x1), packet_amplitude(-9.0, 5.0, 3.0, x2)
        )
        assert np.max(np.abs(wave.amplitudes - expected)) <= 1e-12


class TestReflectedState:
    def test_auto_grid_norm(self, reference_params):
        wave = reflected_state(reference_params, grid_n=256)
        assert wave.norm() == pytest.approx(1.0, abs=0.01)

    def test_equal_masses_swap_arguments_exactly(self):
        # Contact core (a = 0) and equal masses: the reflected state is the
        # original product with the particle arguments exchanged.
        params = ScatterParams(1.0, 1.0, 4.0, 1.0, momentum=2.0, core_radius=0.0)
        wave = reflected_state(params, grid_n=128)
        x1, x2 = wave.grid.axes()
        swapped = np.outer(
            packet_amplitude(-params.q2, params.momentum, params.sigma2_sq, x1),
            packet_amplitude(params.q1, -params.momentum, params.sigma1_sq, x2),
        )
        assert np.max(np.abs(wave.amplitudes - swapped)) <= 1e-12

    def test_phase_stripped_reduction(self):
        # With zero momentum, zero centers and a contact core, the sampled
        # reflected amplitudes reduce pointwise to the bare quadratic form
        # of the mixed arguments.
        mu = MassFractions(0.3)
        s1, s2 = 4.0, 1.0
        e1 = free_evolve_packet(0.0, 0.0, s1, mu.mu1, 0.0)
        e2 = free_evolve_packet(0.0, 0.0, s2, mu.mu2, 0.0)
        x1 = np.linspace(-8.0, 8.0, 160)
        x2 = np.linspace(-6.0, 6.0, 150)
        sampled = _reflected_amplitudes(e1, e2, mu, 0.0, x1, x2)
        dm = mu.delta
        arg1 = dm * x1[:, None] + 2.0 * mu.mu2 * x2[None, :]
        arg2 = 2.0 * mu.mu1 * x1[:, None] - dm * x2[None, :]
        bare = (
            (math.pi * s1) ** -0.25
            * (math.pi * s2) ** -0.25
            * np.exp(-(arg1**2) / (2.0 * s1) - (arg2**2) / (2.0 * s2))
        )
        assert np.max(np.abs(sampled - bare)) <= 1e-12

    def test_insufficient_grid_raises_coverage_error(self, reference_params):
        # A grid hugging only two density widths loses visible mass.
        with pytest.raises(CoverageError) as excinfo:
            reflected_state(reference_params, grid_n=128, coverage=2.0)
        message = str(excinfo.value)
        norm = float(message.split(" is ", 1)[1].split(" ", 1)[0])
        assert abs(norm - 1.0) > 0.01
        assert "deficit" in message

    def test_exchange_of_marginals_at_equal_masses(self):
        params = ScatterParams(1.0, 1.0, 4.0, 1.0, momentum=2.0, core_radius=0.0)
        wave = reflected_state(params, grid_n=256)
        x1, x2 = wave.grid.axes()
        # Initial marginals with the particles swapped, evaluated exactly.
        k = params.momentum
        expected_x1 = np.abs(packet_amplitude(-params.q2, k, params.sigma2_sq, x1)) ** 2
        expected_x2 = np.abs(packet_amplitude(params.q1, -k, params.sigma1_sq, x2)) ** 2
        dist1 = math.sqrt(np.sum((marginal(wave, 0) - expected_x1) ** 2) * wave.grid.dx1)
        dist2 = math.sqrt(np.sum((marginal(wave, 1) - expected_x2) ** 2) * wave.grid.dx2)
        assert dist1 <= 1e-6
        assert dist2 <= 1e-6


class TestSchmidtEntropy:
    def test_product_state_carries_no_entropy(self):
        params = ScatterParams(1.0, 1.0, 2.0, 1.0, momentum=3.0)
        assert schmidt_entropy(free_state(params, grid_n=128)) <= 1e-6

    def test_balanced_two_term_superposition_is_one_bit(self):
        grid = GridSpec(-16.0, 16.0, -16.0, 16.0, 256)
        x1, x2 = grid.axes()
        phi1, chi1 = packet_amplitude(-6.0, 0.0, 1.0, x1), packet_amplitude(6.0, 0.0, 1.0, x1)
        phi2, chi2 = packet_amplitude(-6.0, 0.0, 1.0, x2), packet_amplitude(6.0, 0.0, 1.0, x2)
        psi = (np.outer(phi1, chi2) + np.outer(chi1, phi2)) / math.sqrt(2.0)
        assert schmidt_entropy(WaveGrid(psi, grid)) == pytest.approx(1.0, abs=1e-6)

    def test_matches_closed_form_on_reference_case(self, reference_params):
        wave = reflected_state(reference_params, grid_n=512)
        assert schmidt_entropy(wave) == pytest.approx(REF_ENTROPY_BITS, abs=1e-3)

    def test_grid_refinement_is_converged(self, reference_params):
        coarse = schmidt_entropy(reflected_state(reference_params, grid_n=256))
        fine = schmidt_entropy(reflected_state(reference_params, grid_n=512))
        assert abs(fine - coarse) <= 1e-4

    def test_rejects_unnormalized_state(self):
        grid = GridSpec(-8.0, 8.0, -8.0, 8.0, 64)
        x1, x2 = grid.axes()
        phi = packet_amplitude(0.0, 0.0, 1.0, x1)
        psi = 0.5 * np.outer(phi, phi)
        with pytest.raises(CoverageError):
            schmidt_entropy(WaveGrid(psi, grid))

    def test_free_evolution_leaves_entropy_alone(self):
        params = ScatterParams(1.0, 3.0, 16.0, 1.0, momentum=4.0, core_radius=0.5)
        entropies = [
            schmidt_entropy(reflected_state(params, t=t, grid_n=256))
            for t in (0.0, 1.0, 2.5, 5.0, 9.0)
        ]
        assert max(entropies) - min(entropies) <= 2e-3


class TestCollisionState:
    def test_hard_wall_is_exactly_respected(self):
        params = ScatterParams(1.0, 1.0, 1.0, 1.0, momentum=4.0, core_radius=0.5)
        wave = collision_state(params, 1.0, grid_n=128)
        x1, x2 = wave.grid.axes()
        inside = (x1[:, None] - x2[None, :]) <= params.core_radius
        assert inside.any()
        assert np.abs(wave.amplitudes[inside]).max() == 0.0
        # In particular the band of sampled points within one cell of the
        # wall on the inside carries nothing.
        band = inside & ((x1[:, None] - x2[None, :]) > params.core_radius - wave.grid.dx1)
        assert not band.any() or np.abs(wave.amplitudes[band]).max() == 0.0

    def test_before_collision_is_a_product(self):
        params = ScatterParams(1.0, 1.0, 1.0, 1.0, momentum=4.0, core_radius=0.5)
        assert schmidt_entropy(collision_state(params, 0.0, grid_n=256)) <= 0.01
        assert schmidt_entropy(collision_state(params, 0.2, grid_n=256)) <= 0.01
        # The image solution extends to negative times, where the packets
        # sit even further apart.
        assert schmidt_entropy(collision_state(params, -2.0, grid_n=256)) <= 0.01

    def test_late_time_reaches_asymptote(self):
        params = ScatterParams(1.0, 3.0, 16.0, 1.0, momentum=4.0, core_radius=0.5)
        target = entropy_from_d_minus_half(d_minus_half(params.fractions, 16.0, 1.0))
        late = schmidt_entropy(collision_state(params, 9.0, grid_n=256))
        assert abs(late - target) <= 2e-2


class TestTransientCurve:
    def test_equal_mass_entanglement_is_transient(self):
        params = ScatterParams(1.0, 1.0, 1.0, 1.0, momentum=4.0, core_radius=0.5)
        entropies = np.array(transient_curve(params, np.linspace(0.0, 5.0, 21), grid_n=256))
        assert entropies.max() > 0.05
        assert entropies[-1] <= 0.02

    def test_rejects_empty_times(self):
        params = ScatterParams(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="at least one"):
            transient_curve(params, [])

    def test_rejects_unordered_times(self):
        params = ScatterParams(1.0, 1.0, 1.0, 1.0)
        for times in ([0.0, 1.0, 0.5], [0.0, 1.0, 1.0]):
            with pytest.raises(ValueError, match="ascending"):
                transient_curve(params, times)


class TestWaveGrid:
    def test_norm_of_sampled_product(self):
        params = ScatterParams(1.0, 2.0, 1.0, 3.0, momentum=2.0)
        assert free_state(params, grid_n=128).norm() == pytest.approx(1.0, abs=1e-6)

    def test_rejects_shape_mismatch(self):
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 64)
        with pytest.raises(ValueError, match="shape"):
            WaveGrid(np.zeros((64, 65), dtype=complex), grid)

    def test_rejects_non_finite(self):
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 64)
        amp = np.zeros((64, 64), dtype=complex)
        amp[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            WaveGrid(amp, grid)


class TestAutoGrid:
    def test_covers_both_states(self, reference_params):
        both = auto_grid(reference_params, t=0.0, include="both")
        free_only = auto_grid(reference_params, t=0.0, include="free")
        refl_only = auto_grid(reference_params, t=0.0, include="reflected")
        assert both.x1_min <= min(free_only.x1_min, refl_only.x1_min)
        assert both.x1_max >= max(free_only.x1_max, refl_only.x1_max)
        assert both.x2_min <= min(free_only.x2_min, refl_only.x2_min)
        assert both.x2_max >= max(free_only.x2_max, refl_only.x2_max)

    def test_rejects_unknown_selector(self, reference_params):
        with pytest.raises(ValueError, match="include"):
            auto_grid(reference_params, include="everything")

    def test_rejects_nonpositive_coverage(self, reference_params):
        with pytest.raises(ValueError, match="coverage"):
            auto_grid(reference_params, coverage=0.0)

    @pytest.mark.parametrize("coverage", [math.nan, math.inf])
    def test_rejects_non_finite_coverage(self, reference_params, coverage):
        with pytest.raises(ValueError, match="coverage must be positive and finite"):
            auto_grid(reference_params, coverage=coverage)
