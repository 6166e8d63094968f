import math
import traceback
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from hcscatter import gridsim
from hcscatter.covariance import MassFractions, d_minus_half, entropy_from_d_minus_half
from hcscatter.ellipse import scattered_ellipse
from hcscatter.gridsim import (
    _AMPLITUDE_FLOOR,
    CoverageError,
    GridSpec,
    WaveGrid,
    _image_envelope,
    auto_grid,
    collision_state,
    free_evolve_packet,
    free_state,
    reflected_state,
    schmidt_entropy,
    schmidt_spectrum,
    transient_curve,
)
from hcscatter.scattering import ScatterParams
from oracles import (
    dense_collision_amplitudes,
    dense_image_envelope,
    full_svd_entropy,
    image_plane_wave,
    marginal,
    masked_support,
    mixing_matrix,
    packet_amplitude,
    schmidt_weights,
    trapezoid,
)

REF_ENTROPY_BITS = 1.797380017291221  # mu1 = 1/4, width ratio 10


# The transient mode's default scenario, and mass fractions 0.1:0.9 at
# width ratio 10.
TRANSIENT_SCENARIOS = [
    ScatterParams(0.25, 0.75, 16.0, 1.0, momentum=4.0, core_radius=0.5),
    ScatterParams(0.1, 0.9, 100.0, 1.0, momentum=4.0, core_radius=0.5),
]


@pytest.fixture
def reference_params():
    return ScatterParams(0.25, 0.75, 100.0, 1.0, core_radius=0.5)


def packet_pair(params, t, y1, y2):
    """The scenario's two textbook packets at t, evaluated at (y1, y2)."""
    k = params.momentum
    return (packet_amplitude(params.q1, -k, params.sigma1_sq, y1, t, params.mass1)
            * packet_amplitude(-params.q2, k, params.sigma2_sq, y2, t, params.mass2))


def textbook_image(params, t, x1, x2):
    """The mirror image g_t on the grid x1[:, None], x2[None, :]: the two
    packets at the reflected arguments, plane wave included."""
    x1, x2 = x1[:, None], x2[None, :]
    a, mu = params.core_radius, params.fractions
    (l11, l12), (l21, l22) = mixing_matrix(mu)
    return packet_pair(params, t, l11 * x1 + l12 * x2 + 2.0 * a * mu.mu2,
                       l21 * x1 + l22 * x2 - 2.0 * a * mu.mu1)


class TestGridSpec:
    def test_axes_and_spacing(self):
        grid = GridSpec(-1.0, 1.0, 0.0, 4.0, 101)
        x1, x2 = grid.axes()
        assert x1[0] == -1.0 and x1[-1] == 1.0 and len(x1) == 101
        assert x2[0] == 0.0 and x2[-1] == 4.0 and len(x2) == 101
        assert grid.dx1 == pytest.approx(0.02, rel=1e-12)
        assert grid.dx2 == pytest.approx(0.04, rel=1e-12)

    def test_rejects_inverted_extent(self):
        with pytest.raises(ValueError, match=r"axis x1 in \[1, -1\] has spacing -0.0039"):
            GridSpec(1.0, -1.0, 0.0, 1.0)

    def test_rejects_points_closer_than_the_float_spacing(self):
        # 63 steps of 2**-53 fit between 0.5 and the next float above it.
        with pytest.raises(ValueError, match=r"axis x2 .* float spacing 1.11e-16 .*n=64"):
            GridSpec(0.0, 1.0, 0.5, 0.5 + 2.0**-52, 64)
        GridSpec(0.0, 1.0, 0.5, 0.5 + 2.0**-45, 64)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="at least 64 points per axis, got n=63"):
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
        # Contact core (a = 0) and equal masses: the sampled envelope times
        # the split-off plane wave is the original product with the
        # particle arguments exchanged.
        params = ScatterParams(1.0, 1.0, 4.0, 1.0, momentum=2.0, core_radius=0.0)
        wave = reflected_state(params, grid_n=128)
        x1, x2 = wave.grid.axes()
        swapped = np.outer(
            packet_amplitude(-params.q2, params.momentum, params.sigma2_sq, x1),
            packet_amplitude(params.q1, -params.momentum, params.sigma1_sq, x2),
        )
        image = wave.amplitudes * image_plane_wave(params, 0.0, x1, x2)
        assert np.max(np.abs(image - swapped)) <= 1e-12

    def test_phase_stripped_reduction(self):
        # With zero momentum, zero centers and a contact core the plane wave
        # is 1, and the sampled envelope reduces pointwise to the bare
        # quadratic form of the mixed arguments.
        mu = MassFractions(0.3)
        s1, s2 = 4.0, 1.0
        params = ScatterParams(mu.mu1, mu.mu2, s1, s2)
        e1 = free_evolve_packet(0.0, 0.0, s1, mu.mu1, 0.0)
        e2 = free_evolve_packet(0.0, 0.0, s2, mu.mu2, 0.0)
        x1 = np.linspace(-8.0, 8.0, 160)
        x2 = np.linspace(-6.0, 6.0, 150)
        sampled = _image_envelope(params, e1, e2, x1, x2)
        dm = mu.delta
        arg1 = dm * x1[:, None] + 2.0 * mu.mu2 * x2[None, :]
        arg2 = 2.0 * mu.mu1 * x1[:, None] - dm * x2[None, :]
        bare = (
            (math.pi * s1) ** -0.25
            * (math.pi * s2) ** -0.25
            * np.exp(-(arg1**2) / (2.0 * s1) - (arg2**2) / (2.0 * s2))
        )
        assert np.max(np.abs(sampled - bare)) <= 1e-12

    @pytest.mark.parametrize("state", [reflected_state, collision_state])
    @pytest.mark.parametrize("t_over_tc", [0.0, 1.0])
    def test_fused_sampler_matches_two_packet_factors(self, state, t_over_tc):
        # The image as one envelope exp times the split-off plane wave,
        # against the product of two separately evaluated textbook packets.
        params = TRANSIENT_SCENARIOS[0]
        t = t_over_tc * params.collision_time
        wave = state(params, t, grid_n=128)
        x1, x2 = wave.grid.axes()
        expected = textbook_image(params, t, x1, x2)
        sampled = wave.amplitudes
        if state is collision_state:
            x1, x2 = x1[:, None], x2[None, :]
            expected = (packet_pair(params, t, x1, x2) - expected) * (x1 - x2 > params.core_radius)
        else:
            sampled = sampled * image_plane_wave(params, t, x1, x2)
        assert np.abs(sampled - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_time_zero_envelope_is_real(self, reference_params):
        # Both evolved widths are real at t = 0, so oracle-check's matrix
        # and its SVD are real.
        assert reflected_state(reference_params, grid_n=128).amplitudes.dtype == np.float64
        assert reflected_state(reference_params, 1.0, grid_n=128).amplitudes.dtype == complex

    @pytest.mark.parametrize("params", [*TRANSIENT_SCENARIOS,
                                        ScatterParams(0.25, 0.75, 100.0, 1.0, core_radius=0.5)])
    def test_envelope_keeps_the_spectrum_of_the_complex_image(self, params):
        # The split-off plane wave is a local unitary: the real envelope has
        # the Schmidt spectrum of the complex textbook g_0 on the same grid.
        wave = reflected_state(params, grid_n=256)
        x1, x2 = wave.grid.axes()
        image = WaveGrid(textbook_image(params, 0.0, x1, x2), wave.grid)
        assert np.abs(schmidt_weights(wave.amplitudes) - schmidt_weights(image.amplitudes)).max() <= 1e-12
        assert abs(schmidt_entropy(wave) - full_svd_entropy(image)) <= 1e-13

    def test_large_widths_keep_the_asymptotic_entropy(self):
        # The grid sits near |x| = 1e16, where ulp(x) = 2: a phase K x
        # would keep no correct digit, the grid-relative envelope keeps all.
        params = ScatterParams(0.25, 0.75, 1e30, 1e29, core_radius=0.5)
        target = entropy_from_d_minus_half(d_minus_half(params.fractions, 1e30, 1e29))
        assert abs(schmidt_entropy(reflected_state(params)) - target) <= 1e-3

    def test_insufficient_grid_raises_coverage_error(self):
        # At width ratio 100 the reflected state is a ridge narrower than
        # the 128-point spacing, so the Riemann sum misses its norm.
        params = ScatterParams(0.25, 0.75, 1e4, 1.0, core_radius=0.5)
        with pytest.raises(CoverageError) as excinfo:
            reflected_state(params, grid_n=128)
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

    @pytest.mark.parametrize("params", [
        *TRANSIENT_SCENARIOS,
        # On the balance locus mu1 s1 = mu2 s2, tilt 0, and off it by 1/300,
        # tilt 1.2e-3 below pi.
        ScatterParams(0.25, 0.75, 3.0, 1.0, core_radius=0.5),
        ScatterParams(0.25, 0.75, 3.01, 1.0, core_radius=0.5),
    ])
    def test_second_moments_give_the_scattered_ellipse(self, params):
        # For psi ~ exp(-x^T M x / 2) the covariance of |psi|^2 is M^-1 / 2:
        # the contour x^T M x = 1 has semi-axes sqrt(2 lambda) over the
        # covariance's eigenvalues lambda, the long one along the larger's
        # eigenvector.  The 6-sigma box, not n, limits the agreement to ~5e-8.
        wave = reflected_state(params, grid_n=256)
        density = np.abs(wave.amplitudes) ** 2
        density /= density.sum()
        weights = density.sum(axis=1), density.sum(axis=0)
        offsets = [x - w @ x for x, w in zip(wave.grid.axes(), weights)]
        cross = offsets[0] @ density @ offsets[1]
        covariance = [[weights[0] @ offsets[0] ** 2, cross], [cross, weights[1] @ offsets[1] ** 2]]
        (minor, major), vectors = np.linalg.eigh(covariance)
        exact = scattered_ellipse(params.fractions, params.sigma1_sq, params.sigma2_sq)
        assert math.sqrt(2.0 * major) == pytest.approx(exact.semi_major, rel=1e-6)
        assert math.sqrt(2.0 * minor) == pytest.approx(exact.semi_minor, rel=1e-6)
        tilt = math.atan2(vectors[1, 1], vectors[0, 1]) - exact.angle_rad
        assert abs((tilt + 0.5 * math.pi) % math.pi - 0.5 * math.pi) <= 1e-7


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

    @pytest.mark.parametrize("params", TRANSIENT_SCENARIOS)
    def test_support_trim_drops_the_empty_rows(self, params):
        # Before contact the wall mask leaves most of the union box empty;
        # the reflected state's own box fits and is kept whole.
        rows, columns = schmidt_spectrum(collision_state(params, 0.0, grid_n=256)).kept_shape
        assert rows < 256 and columns < 256
        assert schmidt_spectrum(reflected_state(params, grid_n=256)).kept_shape == (256, 256)

    def test_free_evolution_leaves_entropy_alone(self):
        params = ScatterParams(1.0, 3.0, 16.0, 1.0, momentum=4.0, core_radius=0.5)
        entropies = [
            schmidt_entropy(reflected_state(params, t=t, grid_n=256))
            for t in (0.0, 1.0, 2.5, 5.0, 9.0)
        ]
        assert max(entropies) - min(entropies) <= 2e-3


def unit_wave(matrix):
    """``matrix`` scaled to unit grid norm on a grid of unit spacing."""
    n = matrix.shape[0]
    return WaveGrid(matrix / np.linalg.norm(matrix), GridSpec(0.0, n - 1.0, 0.0, n - 1.0, n))


def checked_spectrum(wave):
    """``schmidt_spectrum(wave)``, each of its weights checked against the
    full SVD's.  On the "projection" and "svd" routes they must lie within
    1e-16 (the projection's certified bound), plus 10 eps of the largest
    weight for the rounding of the two SVDs: the full SVD of the transposed
    matrix alone differs from the full SVD by up to 3 eps of it on these
    states.  On the "gram" route they lie within (rows + columns) eps of
    the unit total mass, rows and columns those of the kept matrix.  The
    weights the record leaves out must be those of the full SVD below the
    1e-14 floor."""
    spectrum = schmidt_spectrum(wave)
    full = schmidt_weights(wave.amplitudes)
    eps = np.finfo(float).eps
    if spectrum.route == "gram":
        tolerance = sum(spectrum.kept_shape) * eps
    else:
        tolerance = 1e-16 + 10.0 * eps * full[0]
    kept = len(spectrum.weights)
    assert np.abs(spectrum.weights - full[:kept]).max() <= tolerance
    assert full[kept:].max(initial=0.0) <= 1e-14 + tolerance
    return spectrum


def spectrum_matrix(weights, seed=0, shape=None, dtype=float):
    """A matrix of ``shape``, square by default, with random singular vectors
    of ``dtype`` and Schmidt weights proportional to ``weights``, one per
    row or column of its smaller side."""
    rng = np.random.default_rng(seed)

    def vectors(n):
        draw = rng.standard_normal((n, len(weights)))
        if dtype is complex:
            draw = draw + 1j * rng.standard_normal((n, len(weights)))
        return np.linalg.qr(draw)[0]

    rows, columns = shape or (len(weights), len(weights))
    return (vectors(rows) * np.sqrt(weights)) @ vectors(columns).conj().T


def linalg_calls(monkeypatch):
    """A list to which each later ``np.linalg.svd`` and ``np.linalg.eigvalsh``
    call appends its name and the shape of its matrix."""
    calls = []
    for name in ("svd", "eigvalsh"):
        def spy(matrix, *args, name=name, original=getattr(np.linalg, name), **kwargs):
            calls.append((name, matrix.shape))
            return original(matrix, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def matrix_outside_the_first_sample(n, fraction, seed=0):
    """An n x n matrix whose first 32-column sample spans its first 32
    rows, and whose other rows, zero in the sampled columns, hold
    ``fraction`` of the mass: the mass the first projection leaves out."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n, n))
    matrix[32:] *= np.sqrt(fraction / (1.0 - fraction) * np.sum(matrix[:32] ** 2)
                           / np.sum(matrix[32:] ** 2))
    matrix[32:, (2 * np.arange(32) + 1) * n // 64] = 0.0
    return matrix


class TestCertifiedSpectrum:
    """The Schmidt SVD of a low-rank state runs on Q^H A, certified to
    leave out at most 1e-16 of the mass; other states go whole to the SVD
    if real, and to the eigenvalues of their Gram matrix if complex."""

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("t_over_tc", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("params", TRANSIENT_SCENARIOS)
    def test_collision_spectrum_matches_the_full_svd(self, params, t_over_tc, n):
        wave = collision_state(params, t_over_tc * params.collision_time, grid_n=n)
        spectrum = checked_spectrum(wave)
        assert schmidt_entropy(wave) == spectrum.entropy
        assert abs(spectrum.entropy - full_svd_entropy(wave)) <= 1e-13

    @pytest.mark.parametrize("n", [256, 512])
    def test_reference_spectrum_matches_the_full_svd(self, reference_params, n):
        wave = reflected_state(reference_params, grid_n=n)
        spectrum = checked_spectrum(wave)
        assert len(spectrum.weights) < n // 4
        assert schmidt_entropy(wave) == spectrum.entropy
        assert abs(spectrum.entropy - full_svd_entropy(wave)) <= 1e-13

    def test_oracle_check_svd_gets_a_short_matrix(self, reference_params):
        # The oracle-check default state (its momentum only moves the
        # split-off plane wave).
        spectrum = schmidt_spectrum(reflected_state(reference_params, grid_n=512))
        assert spectrum.route == "projection" and spectrum.samples[-1] < 128

    def test_slow_decay_falls_back_to_the_full_svd(self, monkeypatch):
        # At xi = 0.97 the first 32 columns leave 59% of the mass out; the
        # weights of their projection B, eigenvalues of the 32 x 32 B B^T,
        # fit xi ~ 0.95 and ask for a restart of ~790 columns, past n/3, so A
        # itself, being real, goes to the SVD.
        wave = unit_wave(spectrum_matrix(0.97 ** np.arange(512)))
        spectrum = checked_spectrum(wave)
        assert (spectrum.samples, spectrum.route) == ((32,), "svd")
        calls = linalg_calls(monkeypatch)
        schmidt_spectrum(wave)
        assert calls == [("eigvalsh", (32, 32)), ("svd", (512, 512))]

    @pytest.mark.parametrize("shape", [(400, 300), (300, 400)])
    def test_complex_slow_decay_takes_the_gram_route(self, shape, monkeypatch):
        # The xi = 0.97 spectrum with complex singular vectors, alone in a
        # 512 x 512 grid: the trim keeps the non-square block, whose samples
        # fail as the real matrix's do, and its Gram matrix is formed on
        # the smaller side.
        matrix = np.zeros((512, 512), dtype=complex)
        matrix[:shape[0], :shape[1]] = spectrum_matrix(
            0.97 ** np.arange(min(shape)), shape=shape, dtype=complex)
        wave = unit_wave(matrix)
        spectrum = checked_spectrum(wave)
        assert (spectrum.kept_shape, spectrum.samples, spectrum.route) == (shape, (32,), "gram")
        calls = linalg_calls(monkeypatch)
        schmidt_spectrum(wave)
        assert calls == [("eigvalsh", (min(shape), min(shape)))]

    def test_failed_restart_falls_back_to_the_full_svd(self):
        # Weights that halve for 32 indices, then fall by only 0.8 per
        # index: the first sample sizes a restart of 64 columns (its weights
        # fit xi = 0.5 and ask for 76), which leaves ~1e-12 of the mass out.
        # A third sample is not tried.
        weights = np.concatenate([0.5 ** np.arange(32), 0.5**32 * 0.8 ** np.arange(480)])
        spectrum = checked_spectrum(unit_wave(spectrum_matrix(weights)))
        assert (spectrum.samples, spectrum.route) == ((32, 64), "svd")

    @pytest.mark.parametrize("mu1, sigma1_sq, n", [
        (0.6911708539815785, 132.0701346767239, 894),
        (0.6515711703498928, 795.5904201769049, 671),
    ])
    def test_real_state_restarts_from_its_first_weights(self, mu1, sigma1_sq, n):
        # oracle-check states whose first sample leaves 8.5e-3 (n = 894) and
        # 0.19 (n = 671) of the mass out: at that residual rate the restart
        # would need 248 and 718 columns, past a quarter of the side, but
        # the sample's weights decay as the spectrum does and size one that
        # passes; at n = 671 it takes 216 columns, more than a quarter of
        # the side and less than a third.
        mu = MassFractions(mu1)
        params = ScatterParams(mu.mu1, mu.mu2, sigma1_sq, 1.0, core_radius=0.5, fractions=mu)
        wave = reflected_state(params, grid_n=n)
        spectrum = checked_spectrum(wave)
        assert spectrum.route == "projection" and spectrum.samples[0] == 32
        assert len(spectrum.weights) < spectrum.samples[1] <= n // 3
        assert abs(spectrum.entropy - full_svd_entropy(wave)) <= 1e-13

    def test_high_rank_real_state_tries_no_restart(self, monkeypatch):
        # An oracle-check state with over 200 weights above 1e-16 of the mass
        # at n = 464: the first sample's weights ask for more than a third of
        # the side, so after their eigenvalues the kept matrix goes whole to
        # the SVD.
        mu = MassFractions(0.7133279983600679)
        params = ScatterParams(mu.mu1, mu.mu2, 692.2910443694004, 1.0, core_radius=0.5,
                               fractions=mu)
        wave = reflected_state(params, grid_n=464)
        spectrum = checked_spectrum(wave)
        assert (spectrum.kept_shape, spectrum.samples, spectrum.route) == ((464, 464), (32,), "svd")
        calls = linalg_calls(monkeypatch)
        schmidt_spectrum(wave)
        assert calls == [("eigvalsh", (32, 32)), ("svd", (464, 464))]

    def test_fast_decay_restarts_with_a_larger_sample(self):
        # At xi = 0.6, 32 columns leave ~1e-6 of the mass out; the decay
        # sizes one new sample, which passes.  Only a real matrix restarts:
        # the same spectrum with complex singular vectors goes from its first
        # sample to the Gram route.
        weights = 0.6 ** np.arange(512)
        spectrum = checked_spectrum(unit_wave(spectrum_matrix(weights)))
        assert spectrum.route == "projection" and len(spectrum.samples) == 2
        assert spectrum.samples[0] == 32 < spectrum.samples[1] <= 128
        spectrum = checked_spectrum(unit_wave(spectrum_matrix(weights, dtype=complex)))
        assert (spectrum.samples, spectrum.route) == ((32,), "gram")

    @pytest.mark.parametrize("fraction, accepted", [(0.5e-16, True), (2e-16, False)])
    def test_first_sample_is_accepted_only_below_the_floor(self, fraction, accepted):
        # The 32 sampled columns lie in the first 32 rows, so the projection
        # on them leaves out exactly the mass of the other rows.
        matrix = matrix_outside_the_first_sample(256, fraction)
        assert np.sum(matrix[32:] ** 2) / np.sum(matrix**2) == pytest.approx(fraction, rel=0.05)
        spectrum = checked_spectrum(unit_wave(matrix))
        assert spectrum.samples[0] == 32
        assert (spectrum.samples == (32,) and spectrum.route == "projection") == accepted

    def test_mid_bounce_state_gets_the_gram_eigenproblem(self, monkeypatch):
        # The default transient state at t_c: no sample can take it, and
        # being complex it never reaches the SVD.
        params = TRANSIENT_SCENARIOS[0]
        wave = collision_state(params, params.collision_time, grid_n=512)
        calls = linalg_calls(monkeypatch)
        spectrum = schmidt_spectrum(wave)
        assert spectrum.route == "gram"
        side = min(spectrum.kept_shape)
        assert calls == [("eigvalsh", (side, side))]


class TestSupportTrim:
    """The SVD gets a view of the span from the first to the last row, and
    column, above ``_SUPPORT_FLOOR``, which keeps all that the masked trim
    of ``oracles.masked_support`` keeps."""

    @pytest.mark.parametrize("params", TRANSIENT_SCENARIOS)
    def test_trimmed_state_is_a_view(self, params):
        amplitudes = collision_state(params, 0.0, grid_n=256).amplitudes
        kept, _ = gridsim._support(amplitudes)
        assert kept.shape[0] < 256 and kept.shape[1] < 256
        assert np.shares_memory(kept, amplitudes)

    def test_empty_row_inside_the_span_is_kept(self):
        # Row 0 and column 0 lie outside the span and go; the empty row 100
        # lies inside it and stays.
        matrix = spectrum_matrix(0.8 ** np.arange(256))
        matrix[[0, 100]] = 0.0
        matrix[:, 0] = 0.0
        assert checked_spectrum(unit_wave(matrix)).kept_shape == (255, 255)

    # t_over_tc None is the reflected state, which fills its own box.
    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("t_over_tc", [0.0, 1.0, 2.5, None])
    @pytest.mark.parametrize("params", TRANSIENT_SCENARIOS)
    def test_span_matches_the_masked_trim(self, params, t_over_tc, n):
        wave = (reflected_state(params, grid_n=n) if t_over_tc is None
                else collision_state(params, t_over_tc * params.collision_time, grid_n=n))
        kept, mass = gridsim._support(wave.amplitudes)
        reference, reference_mass = masked_support(wave.amplitudes)
        assert np.array_equal(kept, reference)
        assert mass == pytest.approx(reference_mass, rel=1e-13)
        singular, samples, route = gridsim._singular_values(kept, mass)
        expected, *record = gridsim._singular_values(reference, reference_mass)
        assert [samples, route] == record
        # The view and the copy differ in their row stride only.
        assert np.abs(singular - expected).max() <= 4.0 * np.finfo(float).eps * expected[0]

    def test_schmidt_spectrum_peak_memory(self, reference_params):
        # The oracle-check default state at n = 1024: the trim forms no
        # temporary of the grid's size and copies nothing.
        wave = reflected_state(reference_params, grid_n=1024)
        tracemalloc.start()
        try:
            schmidt_spectrum(wave)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * wave.amplitudes.nbytes


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


class TestBlockedSampler:
    """Every state is sampled in blocks of 64 rows; collision_state takes
    each only up to the last column one of its rows keeps.  The dense
    oracles evaluate all n^2 entries at once, and then mask them."""

    # n = 64 is one block, 100 and 200 end in a partial block, and 1024 is
    # the largest grid of the benchmark's oracle workload.
    @pytest.mark.parametrize("n", [64, 100, 200, 1024])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("params", [ScatterParams(0.25, 0.75, 100.0, 1.0, core_radius=0.5),
                                        TRANSIENT_SCENARIOS[1]])
    def test_reflected_state_matches_one_envelope(self, params, t, n):
        wave = reflected_state(params, t, grid_n=n)
        x1, x2 = wave.grid.axes()
        e1, e2 = gridsim._evolved_pair(params, t)
        whole = _image_envelope(params, e1, e2, x1, x2)
        dense = dense_image_envelope(params, t, x1, x2)
        assert wave.amplitudes.dtype == whole.dtype == dense.dtype == (
            float if t == 0.0 else complex)
        if t == 0.0:
            assert np.array_equal(wave.amplitudes, whole)
            # The dense oracle keeps the entries below the amplitude floor
            # that the sampler stores as 0.
            kept = np.abs(dense) >= _AMPLITUDE_FLOOR * abs(e1.prefactor * e2.prefactor)
            assert np.array_equal(wave.amplitudes[kept], dense[kept])
            assert not wave.amplitudes[~kept].any()
        else:
            for oracle in (whole, dense):
                assert np.abs(wave.amplitudes - oracle).max() <= 1e-15 * np.abs(oracle).max()

    # Width ratios sigma1/sigma2 from 1/30 to 30 at unequal masses give the
    # narrow, tilted ellipses whose 6-sigma box corners fall below the floor.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=-1.5, max_value=1.5),
        st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=3.0)),
        st.sampled_from([64, 100, 128]),
    )
    def test_no_amplitude_below_the_floor(self, mu1, log_ratio, t_over_tc, n):
        # The whole reflected state, real at t = 0 and complex otherwise, and
        # every image block collision_state samples: no nonzero entry below
        # the floor, so none of subnormal size.  (At t so small that t / m is
        # below ~1e-200, a kept complex entry's imaginary part can still be
        # subnormal.)  The free product f_t in collision_state is not
        # floored; the support trim drops its far tail.
        params = ScatterParams(mu1, 1.0 - mu1, 100.0**log_ratio, 1.0, momentum=4.0,
                               core_radius=0.5)
        t = t_over_tc * params.collision_time
        e1, e2 = gridsim._evolved_pair(params, t)
        floor = _AMPLITUDE_FLOOR * abs(e1.prefactor * e2.prefactor)
        blocks = []

        def envelope(*args):
            blocks.append(_image_envelope(*args))
            return blocks[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gridsim, "_image_envelope", envelope)
            try:
                wave = reflected_state(params, t, grid_n=n)
                collision_state(params, t, grid_n=n)
            except CoverageError:
                reject()
        assert wave.amplitudes.dtype == float or t != 0.0
        assert len(blocks) > math.ceil(n / 64)
        for amplitudes in (wave.amplitudes, *blocks):
            # Up to rounding at the floor: exp(ln 1e-100) is not 1e-100.
            kept = np.abs(amplitudes[amplitudes != 0])
            assert kept.min(initial=np.inf) >= floor * (1.0 - 1e-13) > np.finfo(float).tiny

    # Unfloored, the fall-through state of scripts/bench_stages.py holds
    # 222,970 nonzero entries below the floor, 8,126 of them subnormal.
    @pytest.mark.parametrize("mu1, sigma1_sq, n", [(0.6911708539815785, 132.0701346767239, 894),
                                                   (0.25, 100.0, 512)])
    def test_floor_leaves_the_spectrum_alone(self, mu1, sigma1_sq, n):
        params = ScatterParams(mu1, 1.0 - mu1, sigma1_sq, 1.0, core_radius=0.5)
        wave = reflected_state(params, grid_n=n)
        dense = dense_image_envelope(params, 0.0, *wave.grid.axes())
        assert np.count_nonzero(dense) > np.count_nonzero(wave.amplitudes)
        floored, unfloored = schmidt_spectrum(wave), schmidt_spectrum(WaveGrid(dense, wave.grid))
        assert (floored.samples, floored.route) == (unfloored.samples, unfloored.route)
        assert abs(floored.entropy - unfloored.entropy) <= 1e-14

    # At t = 1e-320, t / m underflows beside a large squared width but not
    # beside a small one.  With widths 1e6 and 1 the first exponent
    # coefficient is real and the second complex; with 100 and 100 both are
    # real and the prefactor is complex.
    @pytest.mark.parametrize("widths", [(1e6, 1.0), (100.0, 100.0)])
    @pytest.mark.parametrize("state", [reflected_state, collision_state])
    def test_real_and_complex_factors_mixed(self, state, widths, monkeypatch):
        params = ScatterParams(1.0, 1.0, *widths, momentum=1.0, core_radius=0.5)
        t = 1e-320
        e1, e2 = gridsim._evolved_pair(params, t)
        factors = (-0.5 / e1.width_sq, -0.5 / e2.width_sq, e1.prefactor * e2.prefactor)
        assert {type(gridsim._real_if_real(z)) for z in factors} == {float, complex}
        # No grid this small resolves the narrow packet of the first pair
        # (the golden case error_coverage_subnormal_time), so the norm gate
        # is lifted.
        monkeypatch.setattr(gridsim, "_check_norm", lambda wave, label: wave)
        wave = state(params, t, grid_n=100)
        x1, x2 = wave.grid.axes()
        oracle = dense_image_envelope if state is reflected_state else dense_collision_amplitudes
        expected = oracle(params, t, x1, x2)
        assert wave.amplitudes.dtype == expected.dtype == complex
        assert np.abs(expected).max() > 0.0
        assert np.abs(wave.amplitudes - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_reflected_state_peak_memory(self, reference_params):
        # The oracle-check default state at n = 1024: the temporaries are a
        # block's size, so the traced peak stays near the 8 MiB result.
        tracemalloc.start()
        try:
            wave = reflected_state(reference_params, grid_n=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * wave.amplitudes.nbytes

    # n = 64 is one block, 100 and 200 end in a partial block, and at 200
    # and 512 whole blocks lie behind the wall.
    @pytest.mark.parametrize("n", [64, 100, 200, 512])
    @pytest.mark.parametrize("t_over_tc", [-1.0, 0.0, 1.0, 2.5])
    @pytest.mark.parametrize("params", TRANSIENT_SCENARIOS)
    def test_matches_the_dense_formula(self, params, t_over_tc, n):
        t = t_over_tc * params.collision_time
        wave = collision_state(params, t, grid_n=n)
        x1, x2 = wave.grid.axes()
        dense = dense_collision_amplitudes(params, t, x1, x2)
        assert np.abs(wave.amplitudes - dense).max() <= 1e-15 * np.abs(dense).max()
        behind = (x1[:, None] - x2[None, :]) <= params.core_radius
        assert behind.any() and not wave.amplitudes[behind].any()
        spectrum = schmidt_spectrum(wave)
        reference = schmidt_spectrum(WaveGrid(dense, wave.grid))
        assert spectrum.kept_shape == reference.kept_shape
        assert (spectrum.samples, spectrum.route) == (reference.samples, reference.route)
        assert abs(spectrum.entropy - reference.entropy) <= 1e-13

    @pytest.mark.parametrize("n", [100, 512])
    @pytest.mark.parametrize("params", TRANSIENT_SCENARIOS)
    def test_samples_only_the_open_side(self, params, n, monkeypatch):
        # Each block's image window: its rows, and the columns up to the
        # last one any of its rows keeps.  A block wholly behind the wall
        # is not evaluated at all.
        windows = []

        def envelope(params, e1, e2, y1, y2):
            windows.append((len(y1), len(y2)))
            return _image_envelope(params, e1, e2, y1, y2)

        monkeypatch.setattr(gridsim, "_image_envelope", envelope)
        wave = collision_state(params, 0.0, grid_n=n)
        x1, x2 = wave.grid.axes()
        open_side = (x1[:, None] - x2[None, :]) > params.core_radius
        expected = []
        for start in range(0, n, 64):
            columns = np.flatnonzero(open_side[start:start + 64].any(axis=0))
            if columns.size:
                expected.append((min(64, n - start), columns[-1] + 1))
        assert windows == expected
        if n == 512:
            # The first two blocks lie wholly behind the wall.
            assert len(windows) <= 6

    def test_overflow_in_the_block_loop_is_the_sampling_error(self):
        # The inputs of the golden case error_sampling_overflow, `transient
        # --momentum 1e-160 --grid-n 64 --points 2`, at its second point.
        params = ScatterParams(0.25, 0.75, 16.0, 1.0, momentum=1e-160, core_radius=0.5)
        with pytest.raises(ValueError) as excinfo:
            collision_state(params, 2.5 * params.collision_time, grid_n=64)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == (
            "sampling the collision state at t=3.02344e+161 overflows on "
            "x1 in [-2.64e+162, 2.64e+162], x2 in [-1.71e+162, 1.71e+162], n=64")
        # The FloatingPointError behind it was raised inside the block loop,
        # where _sample's `start` is bound.
        overflow = excinfo.value.__context__
        assert isinstance(overflow, FloatingPointError)
        frames = {frame.f_code.co_name: frame
                  for frame, _ in traceback.walk_tb(overflow.__traceback__)}
        assert "start" in frames["_sample"].f_locals
        assert "_collision_amplitudes" in frames


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

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_norm_past_the_float_range_raises(self, dtype):
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 64)
        with pytest.raises(FloatingPointError, match="overflow"):
            WaveGrid(np.full((64, 64), 1e200, dtype=dtype), grid).norm()


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
