import math

import mpmath
import numpy as np
import pytest

from hcscatter.covariance import MassFractions
from hcscatter.ellipse import (
    EllipseShape,
    approx_final_ellipse,
    scattered_ellipse,
    scattered_form,
    stretch_polynomial,
)
from oracles import (
    boundary_points_numpy,
    form_matrix,
    mixing_matrix,
    scattered_form_from_factors,
)


def tilt_oracle(entries):
    """Long-axis angle in [0, pi) of x^T M x = 1 from a 50-digit
    eigendecomposition of the float entries of M."""
    with mpmath.workdps(50):
        values, vectors = mpmath.eigsy(mpmath.matrix(entries.tolist()))
        low = 0 if values[0] <= values[1] else 1
        angle = mpmath.atan2(vectors[1, low], vectors[0, low])
        return float(angle % mpmath.pi)


def ellipse_oracle(mu, s1, s2):
    """Semi-axes and tilt of x^T M x = 1, with M built exactly from the
    float inputs.  The small eigenvalue cancels by up to ~620 digits for
    widths within the normal floats, so it is computed at 700 digits,
    which leaves at least 50 correct."""
    with mpmath.workdps(700):
        mu1, mu2, s1, s2 = (mpmath.mpf(v) for v in (mu.mu1, mu.mu2, s1, s2))
        dm = mu1 - mu2
        a = dm**2 / s1 + 4 * mu1**2 / s2
        c = 4 * mu2**2 / s1 + dm**2 / s2
        b = 2 * dm * (mu2 / s1 - mu1 / s2)
        disc = mpmath.sqrt(((a - c) / 2) ** 2 + b**2)
        angle = (mpmath.atan2(-2 * b, c - a) / 2) % mpmath.pi
        return (float(1 / mpmath.sqrt((a + c) / 2 - disc)),
                float(1 / mpmath.sqrt((a + c) / 2 + disc)), float(angle))


def draw_parameters(rng):
    mu1 = rng.uniform(0.01, 0.99)
    s1, s2 = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=2))
    return MassFractions(mu1), float(s1), float(s2)


class TestScatteredForm:
    def test_equal_masses_swap_widths(self):
        s1, s2 = 9.0, 1.0
        form = form_matrix(scattered_form(MassFractions(0.5), s1, s2))
        assert np.allclose(form, np.diag([1.0 / s2, 1.0 / s1]), atol=1e-15)

    def test_width_mass_balance_keeps_widths(self):
        mu = MassFractions(0.25)
        s1, s2 = 3.0, 1.0  # mu1 s1 = mu2 s2
        form = form_matrix(scattered_form(mu, s1, s2))
        assert form[0, 0] == pytest.approx(1.0 / s1, rel=1e-14)
        assert form[1, 1] == pytest.approx(1.0 / s2, rel=1e-14)
        assert abs(form[0, 1]) <= 1e-14

    def test_factorization_locus_is_sharp(self):
        # Exactly on either locus the cross entry vanishes; a 1e-3 nudge
        # of the mass fraction revives it.
        equal = form_matrix(scattered_form(MassFractions(0.5), 5.0, 2.0))
        assert equal[0, 1] == 0.0
        mu = MassFractions(0.3)
        balanced = form_matrix(scattered_form(mu, 2.0, mu.mu1 * 2.0 / mu.mu2))
        assert abs(balanced[0, 1]) <= 1e-14
        nudged = form_matrix(scattered_form(MassFractions(0.301), 2.0, mu.mu1 * 2.0 / mu.mu2))
        assert abs(nudged[0, 1]) > 1e-5

    def test_matches_factor_product(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            mu, s1, s2 = draw_parameters(rng)
            direct = form_matrix(scattered_form(mu, s1, s2))
            product = scattered_form_from_factors(mu, s1, s2)
            assert np.allclose(direct, product, rtol=1e-12, atol=1e-14)

    def test_mixing_matrix_has_unit_area_distortion(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            mu1 = rng.uniform(0.01, 0.99)
            assert np.linalg.det(mixing_matrix(MassFractions(mu1))) == (
                pytest.approx(-1.0, abs=1e-14)
            )

    def test_area_preservation(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            mu, s1, s2 = draw_parameters(rng)
            det = np.linalg.det(form_matrix(scattered_form(mu, s1, s2)))
            assert det * s1 * s2 == pytest.approx(1.0, rel=1e-10)

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValueError, match="positive"):
            scattered_form(MassFractions(0.5), 0.0, 1.0)


class TestEllipseFromForm:
    """The ellipse of the outgoing form, as ``scattered_ellipse`` solves it.
    Equal masses swap the widths, which gives axis-aligned cases."""

    def test_axis_aligned_wide(self):
        shape = scattered_ellipse(MassFractions(0.5), 0.25, 4.0)
        assert shape.semi_major == 2.0
        assert shape.semi_minor == 0.5
        assert shape.angle_rad == 0.0

    def test_axis_aligned_tall(self):
        shape = scattered_ellipse(MassFractions(0.5), 4.0, 0.25)
        assert shape.semi_major == 2.0
        assert shape.semi_minor == 0.5
        assert shape.angle_rad == 0.5 * math.pi

    def test_circle_gets_angle_zero(self):
        shape = scattered_ellipse(MassFractions(0.5), 4.0, 4.0)
        assert shape.semi_major == shape.semi_minor == 2.0
        assert shape.angle_rad == 0.0

    def test_heavy_wide_packet_tilt(self):
        # Nearly all the mass on the wide packet: the long axis settles at
        # arctan 2 from the x1 axis.
        shape = scattered_ellipse(MassFractions(0.99), 1e4, 1.0)
        assert math.degrees(shape.angle_rad) == pytest.approx(
            math.degrees(math.atan(2.0)), abs=0.5
        )

    @pytest.mark.parametrize(
        "mu1, s1, s2",
        [
            (0.3, 7.0, 3.0000001),
            (0.01, 99.0 * (1.0 - 1e-9), 1.0),
            (0.01, 99.0 * (1.0 + 1e-9), 1.0),
            (0.25, 3.0 * (1.0 + 1e-12), 1.0),
        ],
    )
    def test_tilt_near_the_balance_locus(self, mu1, s1, s2):
        # Close to mu1 s1 = mu2 s2 the cross entry is tiny and the long axis
        # sits just above or just below the x1 axis (angle near 0 or pi).
        # The tilt must keep its relative accuracy there.
        want = tilt_oracle(form_matrix(scattered_form(MassFractions(mu1), s1, s2)))
        tilt = abs(math.remainder(want, math.pi))
        assert 0.0 < tilt < 1e-7
        got = scattered_ellipse(MassFractions(mu1), s1, s2).angle_rad
        assert abs(math.remainder(got - want, math.pi)) <= max(1e-12 * tilt, 2e-15)

    def test_boundary_points_lie_on_contour(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            mu, s1, s2 = draw_parameters(rng)
            form = form_matrix(scattered_form(mu, s1, s2))
            points = np.array(scattered_ellipse(mu, s1, s2).boundary_points())
            assert points.shape == (64, 2)
            values = np.einsum("ni,ij,nj->n", points, form, points)
            assert np.max(np.abs(values - 1.0)) <= 1e-10


class TestScatteredEllipse:
    @pytest.mark.parametrize(
        "mu1, s1, s2",
        [
            (0.8, 1e8, 1.0),  # width ratio 1e4
            (0.25, 1e18, 1.0),  # width ratio 1e9
            (0.8, 1e308, 1.0),  # width ratio 1e154
            (0.3, 1e-150, 1e150),
            (0.99, 2.5e-308, 2.5e-308),
            (0.7, 1.5e308, 1.5e308),
        ],
    )
    def test_matches_high_precision_reference(self, mu1, s1, s2):
        mu = MassFractions(mu1)
        shape = scattered_ellipse(mu, s1, s2)
        for got, want in zip((shape.semi_major, shape.semi_minor, shape.angle_rad),
                             ellipse_oracle(mu, s1, s2)):
            assert got == pytest.approx(want, rel=1e-15)
        assert shape.area == pytest.approx(math.pi * math.sqrt(s1) * math.sqrt(s2), rel=1e-15)

    def test_circle(self):
        # Equal eigenvalues: without the circle branch the two axes come
        # out an ulp apart in the wrong order.
        shape = scattered_ellipse(MassFractions(0.5), 3.0, 3.0)
        assert shape.semi_major == shape.semi_minor == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert shape.angle_rad == 0.0


class TestStretchPolynomial:
    def test_minimum(self):
        assert stretch_polynomial(0.25) == 0.5

    def test_endpoint(self):
        assert stretch_polynomial(1.0) == 5.0

    def test_origin(self):
        assert stretch_polynomial(0.0) == 1.0


class TestApproxFinalEllipse:
    def test_equal_masses_angle(self):
        shape = approx_final_ellipse(0.5, 10.0, 1.0)
        assert shape.angle_rad == 0.5 * math.pi

    def test_quarter_fraction_angle_exact(self):
        shape = approx_final_ellipse(0.25, 10.0, 1.0)
        assert shape.angle_rad == 0.75 * math.pi

    def test_light_particle_limit(self):
        shape = approx_final_ellipse(1e-6, 10.0, 1.0)
        assert shape.angle_rad == pytest.approx(math.pi, abs=1e-5)

    def test_tilt_reduced_modulo_pi(self):
        # atan2 rounds onto pi for a tiny mu1; an axis at pi is the axis at 0.
        assert approx_final_ellipse(1e-20, 10.0, 1.0).angle_rad == 0.0

    def test_tilt_against_mpmath(self):
        rng = np.random.default_rng(31)
        with mpmath.workdps(50):
            for mu1 in rng.uniform(0.0, 1.0, 500).tolist():
                got = approx_final_ellipse(mu1, 1e3, 1.0).angle_rad
                want = mpmath.atan2(2 * mpmath.mpf(mu1), 2 * mpmath.mpf(mu1) - 1)
                assert abs(got - want) <= 2.0**-52 * want

    def test_axes_from_stretch_polynomial(self):
        shape = approx_final_ellipse(0.8, 20.0, 1.0)
        scale = math.sqrt(stretch_polynomial(0.8))
        assert shape.semi_major == pytest.approx(20.0 * scale, rel=1e-15)
        assert shape.semi_minor == pytest.approx(1.0 / scale, rel=1e-15)

    def test_convergence_to_exact(self):
        # Fixed mu, growing width ratio: the approximation error in all
        # three shape parameters falls monotonically and ends below 1%.
        mu = MassFractions(0.8)
        previous = None
        for ratio in (10.0, 100.0, 1000.0):
            exact = scattered_ellipse(mu, ratio**2, 1.0)
            approx = approx_final_ellipse(mu.mu1, ratio, 1.0)
            errors = (
                abs(approx.semi_major - exact.semi_major) / exact.semi_major,
                abs(approx.semi_minor - exact.semi_minor) / exact.semi_minor,
                abs(approx.angle_rad - exact.angle_rad) / exact.angle_rad,
            )
            if previous is not None:
                assert all(e < p for e, p in zip(errors, previous))
            previous = errors
        assert max(previous) <= 0.01

    def test_axis_ratio_amplification(self):
        # At ratio 100 the collision multiplies the axis ratio by Q(mu).
        for mu1 in (0.25, 0.75, 0.95):
            exact = scattered_ellipse(MassFractions(mu1), 1e4, 1.0)
            amplification = (exact.semi_major / exact.semi_minor) / 100.0
            assert amplification == pytest.approx(stretch_polynomial(mu1), rel=0.05)

    def test_exact_angle_ranges(self):
        lower, upper = math.atan(2.0), 0.5 * math.pi
        for mu1 in (0.6, 0.8, 0.95):
            angle = scattered_ellipse(MassFractions(mu1), 1e4, 1.0).angle_rad
            assert lower < angle < upper
        for mu1 in (0.05, 0.2, 0.4):
            angle = scattered_ellipse(MassFractions(mu1), 1e4, 1.0).angle_rad
            assert 0.5 * math.pi < angle < math.pi

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="mu1"):
            approx_final_ellipse(0.0, 10.0, 1.0)

    @pytest.mark.parametrize("sigma1, sigma2", [(0.0, 1.0), (10.0, -1.0)])
    def test_rejects_nonpositive_widths(self, sigma1, sigma2):
        with pytest.raises(ValueError, match="positive"):
            approx_final_ellipse(0.25, sigma1, sigma2)

    @pytest.mark.parametrize("mu1", [0.2, 0.25, 0.3])
    def test_narrow_wide_packet_swaps_axes(self, mu1):
        # At ratio 1.5 the approximate axis along packet 1 comes out the
        # shorter one: the axes swap and the tilt turns by pi/2.
        shape = approx_final_ellipse(mu1, 1.5, 1.0)
        wide = approx_final_ellipse(mu1, 15.0, 1.0)
        scale = math.sqrt(stretch_polynomial(mu1))
        assert (shape.semi_major, shape.semi_minor) == (1.0 / scale, 1.5 * scale)
        assert shape.area == pytest.approx(math.pi * 1.5, rel=1e-15)
        turned = (shape.angle_rad - wide.angle_rad) % math.pi
        assert turned == pytest.approx(0.5 * math.pi, rel=1e-15)


class TestEllipseShape:
    def test_area(self):
        assert EllipseShape(2.0, 0.5, 0.0).area == pytest.approx(math.pi, rel=1e-15)

    def test_rejects_swapped_axes(self):
        with pytest.raises(ValueError, match="semi_major >= semi_minor"):
            EllipseShape(0.5, 2.0, 0.0)

    def test_rejects_angle_out_of_range(self):
        with pytest.raises(ValueError, match="angle"):
            EllipseShape(2.0, 1.0, math.pi)

    def test_from_axes_puts_the_longer_axis_first(self):
        assert EllipseShape.from_axes(2.0, 0.5, 0.3) == EllipseShape(2.0, 0.5, 0.3)
        assert EllipseShape.from_axes(3.0, 3.0, 0.0) == EllipseShape(3.0, 3.0, 0.0)
        assert EllipseShape.from_axes(0.5, 2.0, 0.0) == EllipseShape(2.0, 0.5, 0.5 * math.pi)
        turned = EllipseShape.from_axes(0.5, 2.0, 0.75 * math.pi)
        assert turned.angle_rad == pytest.approx(0.25 * math.pi, rel=1e-15)

    def test_from_axes_reports_a_tilt_rounding_onto_pi_as_zero(self):
        # -1e-17 mod pi rounds to pi itself, outside [0, pi).
        assert EllipseShape.from_axes(2.0, 1.0, -1e-17) == EllipseShape(2.0, 1.0, 0.0)
        # Just off the balance locus mu1 s1 = mu2 s2 the exact tilt is as small.
        assert scattered_ellipse(MassFractions(0.3), 7.0, 2.999999999999999).angle_rad == 0.0

    def test_boundary_points_match_the_numpy_route(self):
        # Plain float pairs, bit for bit the numpy evaluation the CLI's
        # pinned ellipse outputs were first written with.
        rng = np.random.default_rng(61)
        for _ in range(300):
            axes = sorted(10.0 ** rng.uniform(-3, 3, size=2), reverse=True)
            shape = EllipseShape(*map(float, axes), float(rng.uniform(0.0, math.pi)))
            count = int(rng.integers(1, 100))
            points = shape.boundary_points(count)
            assert all(type(x) is float and type(y) is float for x, y in points)
            want = boundary_points_numpy(shape, count)
            assert np.array_equal(np.array(points).view(np.int64), want.view(np.int64))

    def test_boundary_point_count(self):
        assert np.array(EllipseShape(2.0, 1.0, 0.3).boundary_points(17)).shape == (17, 2)
        with pytest.raises(ValueError):
            EllipseShape(2.0, 1.0, 0.3).boundary_points(0)
