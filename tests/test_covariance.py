import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcscatter.covariance import (
    GaussianPacket,
    MassFractions,
    closed_form_blocks,
    d_closed_form,
    entropy_from_d,
    purity_from_d,
)
from oracles import (
    assemble,
    com_relative_map,
    d_from_block,
    initial_covariance,
    packet_amplitude,
    reflection_map,
    scattered_covariance,
    scattering_map,
    symplectic_defect,
    uncertainty_floor,
)

# Reference scenario: mu1 = 1/4, width ratio sigma1/sigma2 = 10.
# d^2 = 4 (1/16)(9/16) + (1/4) [1/16 + 100/16 + 9/1600] evaluated by hand.
REF_D_SQUARED = 1.72015625
REF_D = math.sqrt(REF_D_SQUARED)


def draw_parameters(rng):
    mu1 = rng.uniform(0.01, 0.99)
    s1, s2 = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=2))
    return MassFractions(mu1), float(s1), float(s2)


def entropy_oracle(d, dps=60):
    """Arbitrary-precision evaluation of the one-mode entropy formula."""
    with mpmath.workdps(dps):
        d = mpmath.mpf(d)
        up, down = d + mpmath.mpf(1) / 2, d - mpmath.mpf(1) / 2
        value = up * mpmath.log(up, 2)
        if down > 0:
            value -= down * mpmath.log(down, 2)
        return float(value)


class TestMassFractions:
    def test_mu2_derived(self):
        mu = MassFractions(0.3)
        assert mu.mu2 == 0.7
        assert mu.delta == pytest.approx(-0.4, abs=1e-15)

    def test_from_masses_normalizes(self):
        mu = MassFractions.from_masses(2.0, 6.0)
        assert mu.mu1 == 0.25
        assert mu.mu2 == 0.75

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            MassFractions(bad)

    def test_rejects_inconsistent_pair(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MassFractions(0.3, 0.6)

    def test_rejects_bad_masses(self):
        with pytest.raises(ValueError, match="positive"):
            MassFractions.from_masses(-1.0, 2.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                MassFractions.from_masses(1.0, bad)


class TestGaussianPacket:
    def test_norm_prefactor(self):
        packet = GaussianPacket(0.0, 1.0, 4.0)
        # At x = 0 the reference amplitude is its prefactor
        # 1 / (sqrt(sigma) pi^(1/4)) with sigma = 2.
        assert packet_amplitude(packet, 0.0) == pytest.approx(
            1.0 / (math.sqrt(2.0) * math.pi**0.25), rel=1e-15
        )

    def test_amplitude_normalized(self):
        packet = GaussianPacket(1.5, 3.0, 2.0)
        x = np.linspace(-20, 20, 20001)
        norm = np.trapezoid(np.abs(packet_amplitude(packet, x)) ** 2, x)
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="width_sq must be positive"):
            GaussianPacket(0.0, 1.0, 0.0)


class TestInitialCovariance:
    def test_unit_widths(self):
        cov = initial_covariance(1.0, 1.0)
        assert np.array_equal(cov, np.diag([0.5, 0.5, 0.5, 0.5]))

    def test_mixed_widths(self):
        cov = initial_covariance(2.0, 0.5)
        assert np.array_equal(cov, np.diag([1.0, 0.25, 0.25, 1.0]))

    @pytest.mark.parametrize("widths", [(0.0, 1.0), (1.0, -2.0)])
    def test_rejects_nonpositive_width(self, widths):
        # The closed form is the library's route from the initial widths.
        with pytest.raises(ValueError, match="positive"):
            closed_form_blocks(MassFractions(0.3), *widths)

    def test_minimal_uncertainty_saturated(self):
        # Product of minimal-uncertainty packets: sigma + iJ/2 has a zero mode.
        rng = np.random.default_rng(7)
        for _ in range(10):
            s1, s2 = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=2))
            assert uncertainty_floor(initial_covariance(s1, s2)) == pytest.approx(0.0, abs=1e-12)


class TestComRelativeMap:
    def test_equal_mass_rows(self):
        linear = com_relative_map(MassFractions(0.5))
        expected = np.array(
            [
                [0.5, 0.0, 0.5, 0.0],
                [0.0, 1.0, 0.0, 1.0],
                [1.0, 0.0, -1.0, 0.0],
                [0.0, 0.5, 0.0, -0.5],
            ]
        )
        assert np.array_equal(linear, expected)

    def test_symplectic_at_reference_fraction(self):
        assert symplectic_defect(com_relative_map(MassFractions(0.3))) <= 1e-12

    def test_determinant_is_one(self):
        # Independent numeric check: symplectic 4x4 matrices have det 1.
        assert np.linalg.det(com_relative_map(MassFractions(0.7))) == (
            pytest.approx(1.0, abs=1e-12)
        )

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_symplectic_for_any_fraction(self, mu1):
        assert symplectic_defect(com_relative_map(MassFractions(mu1))) <= 1e-12


class TestReflectionMap:
    def test_zero_radius(self):
        linear, shift = reflection_map(0.0)
        assert np.array_equal(linear, np.diag([1.0, 1.0, -1.0, -1.0]))
        assert np.array_equal(shift, np.zeros(4))

    def test_unit_radius_displacement(self):
        assert np.array_equal(reflection_map(1.0)[1], np.array([0.0, 0.0, 2.0, 0.0]))

    def test_is_involution(self):
        linear, _ = reflection_map(3.0)
        assert np.array_equal(linear @ linear, np.eye(4))


class TestScatteringMap:
    def test_equal_masses_swap_modes(self):
        # Oracle: numerical inverse of the coordinate change.
        mu = MassFractions(0.5)
        forward = com_relative_map(mu)
        bounce, _ = reflection_map(0.0)
        oracle = np.linalg.inv(forward) @ bounce @ forward
        swap = np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
            ]
        )
        assert np.allclose(oracle, swap, atol=1e-14)
        assert np.allclose(scattering_map(mu)[0], swap, atol=1e-14)

    def test_matches_numerical_conjugation(self):
        # The closed-form inverse of the coordinate change against a
        # numerical one.
        mu = MassFractions(0.37)
        forward = com_relative_map(mu)
        bounce, shift = reflection_map(1.2)
        linear, displacement = scattering_map(mu, 1.2)
        assert np.allclose(linear, np.linalg.inv(forward) @ bounce @ forward, atol=1e-14)
        assert np.allclose(displacement, np.linalg.inv(forward) @ shift, atol=1e-14)

    def test_is_involution(self):
        linear, _ = scattering_map(MassFractions(0.3))
        assert np.allclose(linear @ linear, np.eye(4), atol=1e-15)

    def test_zero_radius_zero_displacement(self):
        assert np.array_equal(scattering_map(MassFractions(0.8))[1], np.zeros(4))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_symplectic_for_any_fraction(self, mu1):
        assert symplectic_defect(scattering_map(MassFractions(mu1), 0.7)[0]) <= 1e-12


class TestTransformCovariance:
    def test_identity_map_returns_input(self):
        # The collision map is an involution: two bounces return the input.
        cov = initial_covariance(3.0, 0.2)
        linear, _ = scattering_map(MassFractions(0.37), 0.9)
        twice = linear @ linear
        assert np.allclose(twice @ cov @ twice.T, cov, atol=1e-14)

    def test_equal_masses_interchange_widths(self):
        moved = scattered_covariance(MassFractions(0.5), 4.0, 1.0)
        assert np.allclose(moved, np.diag([0.5, 0.5, 2.0, 0.125]), atol=1e-15)

    def test_matches_closed_form_blocks(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            mu, s1, s2 = draw_parameters(rng)
            moved = scattered_covariance(mu, s1, s2, 0.9)
            assert np.max(np.abs(moved - assemble(closed_form_blocks(mu, s1, s2)))) <= 1e-10

    def test_displacement_never_enters(self):
        mu = MassFractions(0.42)
        contact = scattered_covariance(mu, 5.0, 0.7, 0.0)
        displaced = scattered_covariance(mu, 5.0, 0.7, 7.0)
        assert np.array_equal(contact, displaced)


class TestClosedFormBlocks:
    def test_equal_masses(self):
        s1, s2 = 6.0, 1.5
        block_a, block_b, block_c = closed_form_blocks(MassFractions(0.5), s1, s2)
        assert np.allclose(block_a, np.diag([s2 / 2.0, 1.0 / (2.0 * s2)]), atol=1e-15)
        assert np.allclose(block_b, np.diag([s1 / 2.0, 1.0 / (2.0 * s1)]), atol=1e-15)
        assert np.array_equal(block_c, np.zeros((2, 2)))

    def test_width_mass_balance_kills_position_correlation(self):
        # mu1 s1 = mu2 s2 with mu1 = 1/4, s1 = 3, s2 = 1.
        _, _, block_c = closed_form_blocks(MassFractions(0.25), 3.0, 1.0)
        assert block_c[0, 0] == 0.0

    def test_blocks_are_diagonal(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            mu, s1, s2 = draw_parameters(rng)
            for block in closed_form_blocks(mu, s1, s2):
                assert block.shape == (2, 2)
                assert not block.flags.writeable
                assert abs(block[0, 1]) <= 1e-12
                assert abs(block[1, 0]) <= 1e-12

    def test_assemble_reproduces_pipeline(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            mu, s1, s2 = draw_parameters(rng)
            assembled = assemble(closed_form_blocks(mu, s1, s2))
            pipeline = scattered_covariance(mu, s1, s2)
            assert np.max(np.abs(assembled - pipeline)) <= 1e-10


class TestDFromBlock:
    def test_vacuum_like_block(self):
        assert d_from_block(np.diag([0.5, 0.5])) == 0.5

    def test_stretched_block(self):
        assert d_from_block(np.diag([4.5, 0.5])) == 1.5

    def test_matches_closed_form(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            mu, s1, s2 = draw_parameters(rng)
            block_a, _, _ = closed_form_blocks(mu, s1, s2)
            assert d_from_block(block_a) == pytest.approx(
                d_closed_form(mu, s1, s2), abs=1e-10
            )

    def test_clamps_tiny_roundoff_deficit(self):
        # On the width/mass balance locus d^2 rounds to just below 1/4;
        # the closed form clamps it to the floor.
        mu = MassFractions(0.3)
        s2 = mu.mu1 * 2.0 / mu.mu2
        dsq = 4.0 * mu.mu1**2 * mu.mu2**2 + mu.delta**2 * (
            mu.delta**2 / 4.0 + mu.mu1**2 * 2.0 / s2 + mu.mu2**2 * s2 / 2.0
        )
        assert dsq < 0.25
        assert d_closed_form(mu, 2.0, s2) == 0.5


class TestDClosedForm:
    def test_reference_value(self):
        d = d_closed_form(MassFractions(0.25), 100.0, 1.0)
        assert d == pytest.approx(REF_D, abs=1e-15)
        assert d**2 == pytest.approx(REF_D_SQUARED, abs=1e-14)

    def test_equal_masses_any_widths(self):
        for s1, s2 in [(1.0, 1.0), (123.0, 0.04), (1e-2, 1e2)]:
            assert d_closed_form(MassFractions(0.5), s1, s2) == 0.5

    def test_width_mass_balance(self):
        mu = MassFractions(0.3)
        s1 = 2.0
        s2 = mu.mu1 * s1 / mu.mu2
        assert d_closed_form(mu, s1, s2) == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.02, max_value=0.98),
        st.floats(min_value=0.1, max_value=10.0),
        st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_depends_on_widths_only_through_ratio(self, mu1, s1, scale):
        mu = MassFractions(mu1)
        base = d_closed_form(mu, s1, 1.0)
        scaled = d_closed_form(mu, scale * s1, scale * 1.0)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_floor_over_random_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            mu, s1, s2 = draw_parameters(rng)
            assert d_closed_form(mu, s1, s2) >= 0.5


class TestEntropyAndPurity:
    def test_entropy_vanishes_at_floor(self):
        assert entropy_from_d(0.5) == 0.0

    def test_entropy_two_bits(self):
        # (3/2 + 1/2) log2 2 - (3/2 - 1/2) log2 1 = 2 exactly.
        assert entropy_from_d(1.5) == 2.0

    def test_entropy_reference_against_mpmath(self):
        assert entropy_from_d(REF_D) == pytest.approx(entropy_oracle(REF_D), abs=1e-12)

    def test_entropy_strictly_increasing(self):
        grid = np.linspace(0.5, 50.0, 1000)
        values = [entropy_from_d(d) for d in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_entropy_rejects_small_d(self):
        with pytest.raises(ValueError, match="at least 1/2"):
            entropy_from_d(0.499)

    def test_purity_endpoints(self):
        assert purity_from_d(0.5) == 1.0
        assert purity_from_d(1.0) == 0.5

    def test_purity_reference(self):
        with mpmath.workdps(50):
            expected = float(1 / (2 * mpmath.sqrt(mpmath.mpf("1.72015625"))))
        assert purity_from_d(REF_D) == pytest.approx(expected, abs=1e-15)

    def test_purity_rejects_small_d(self):
        with pytest.raises(ValueError):
            purity_from_d(0.2)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.5, max_value=1e6))
    def test_result_invariants(self, d):
        entropy, purity = entropy_from_d(d), purity_from_d(d)
        assert abs(purity * 2.0 * d - 1.0) <= 1e-12
        assert 0.0 < purity <= 1.0
        assert entropy >= 0.0
        # The entropy vanishes exactly at the floor and nowhere else.
        assert (entropy == 0.0) == (d == 0.5)


class TestStructuralInvariants:
    def test_block_equivalence_corpus(self):
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            mu, s1, s2 = draw_parameters(rng)
            pipeline = scattered_covariance(mu, s1, s2, 0.4)
            assert np.max(np.abs(pipeline - assemble(closed_form_blocks(mu, s1, s2)))) <= 1e-10
            det_a = np.linalg.det(pipeline[:2, :2])
            det_b = np.linalg.det(pipeline[2:, 2:])
            assert abs(det_a - det_b) <= 1e-10 * abs(det_a)

    def test_outputs_satisfy_uncertainty_relation(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            mu, s1, s2 = draw_parameters(rng)
            assert uncertainty_floor(scattered_covariance(mu, s1, s2)) >= -1e-10

    def test_covariance_validation_rejects_too_sharp(self):
        # The uncertainty check the oracle tests rely on must see a
        # violation.
        assert uncertainty_floor(np.diag([0.1, 0.1, 0.5, 0.5])) < -1e-10

    def test_symplectic_map_validation(self):
        assert symplectic_defect(np.diag([2.0, 1.0, 1.0, 1.0])) > 1e-12
