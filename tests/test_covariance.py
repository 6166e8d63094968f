import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hcscatter.covariance import (
    MassFractions,
    d_minus_half,
    entropy_from_d_minus_half,
    purity_from_d,
)
from oracles import (
    assemble,
    beam_splitter,
    beam_splitter_d_minus_half,
    closed_form_blocks,
    com_relative_map,
    d_from_block,
    initial_covariance,
    mass_scaling,
    packet_amplitude,
    reflection_map,
    scattered_covariance,
    scattering_map,
    squeezed_covariance,
    symplectic_defect,
    trapezoid,
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


def closed_form_oracle(mu, s1, s2):
    """(d - 1/2, entropy in bits) of the same float mu1, s1, s2 from the
    d^2 expansion of det A, good to 60 significant digits.

    The expansion needs mu1 + mu2 = 1 exactly, so mu2 is taken as 1 - mu1
    here, not as its rounded float.  The expansion and the entropy formula
    each cancel up to ~310 digits (d - 1/2 down to 1e-310, d up to
    1e154), so the working precision carries that many more.
    """
    with mpmath.workdps(400):
        mu1, s1, s2 = (mpmath.mpf(v) for v in (mu.mu1, s1, s2))
        mu2 = 1 - mu1
        dm = mu1 - mu2
        dsq = 4 * mu1**2 * mu2**2 + dm**2 * (dm**2 / 4 + mu1**2 * s1 / s2 + mu2**2 * s2 / s1)
        d = mpmath.sqrt(dsq)
        return float(d - mpmath.mpf(1) / 2), entropy_oracle(d, dps=400)


class TestMassFractions:
    def test_mu2_derived(self):
        mu = MassFractions(0.3)
        assert mu.mu2 == 0.7
        assert mu.delta == pytest.approx(-0.4, abs=1e-15)

    def test_from_masses_normalizes(self):
        mu = MassFractions.from_masses(2.0, 6.0)
        assert mu.mu1 == 0.25
        assert mu.mu2 == 0.75

    def test_masses_whose_sum_overflows(self):
        equal = MassFractions.from_masses(2.0**1023, 2.0**1023)
        assert (equal.mu1, equal.mu2) == (0.5, 0.5)
        big = MassFractions.from_masses(3.0 * 2.0**1022, 2.0**1023)
        small = MassFractions.from_masses(3.0, 2.0)
        assert (big.mu1, big.mu2) == (small.mu1, small.mu2)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            MassFractions(bad)

    def test_takes_only_mu1(self):
        with pytest.raises(TypeError):
            MassFractions(0.3, 0.7)

    def test_from_masses_keeps_delta_accurate(self):
        # m1/total - m2/total is 0.5 off here: it subtracts two rounded
        # fractions.  (m1 - m2)/total rounds only the quotient.
        mass2 = 3.0 + 2.0**-51
        mu = MassFractions.from_masses(3.0, mass2)
        with mpmath.workdps(50):
            want = (3 - mpmath.mpf(mass2)) / (3 + mpmath.mpf(mass2))
        assert abs(mu.delta - want) <= 2.0**-53 * abs(want)
        assert mu.mu2 == mass2 / (3.0 + mass2)

    def test_rejects_bad_masses(self):
        with pytest.raises(ValueError, match="positive"):
            MassFractions.from_masses(-1.0, 2.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                MassFractions.from_masses(1.0, bad)


class TestGaussianPacket:
    # The t = 0 packet amplitude of the oracle that the grid tests use.
    def test_norm_prefactor(self):
        # At x = 0 the reference amplitude is its prefactor
        # 1 / (sqrt(sigma) pi^(1/4)) with sigma = 2.
        assert packet_amplitude(0.0, 1.0, 4.0, 0.0) == pytest.approx(
            1.0 / (math.sqrt(2.0) * math.pi**0.25), rel=1e-15
        )

    def test_amplitude_normalized(self):
        x = np.linspace(-20, 20, 20001)
        norm = trapezoid(np.abs(packet_amplitude(1.5, 3.0, 2.0, x)) ** 2, x)
        assert norm == pytest.approx(1.0, abs=1e-9)


class TestInitialCovariance:
    def test_unit_widths(self):
        cov = initial_covariance(1.0, 1.0)
        assert np.array_equal(cov, np.diag([0.5, 0.5, 0.5, 0.5]))

    def test_mixed_widths(self):
        cov = initial_covariance(2.0, 0.5)
        assert np.array_equal(cov, np.diag([1.0, 0.25, 0.25, 1.0]))

    @pytest.mark.parametrize("widths", [(0.0, 1.0), (1.0, -2.0)])
    def test_rejects_nonpositive_width(self, widths):
        # d - 1/2 is the library's route from the initial widths.
        with pytest.raises(ValueError, match="positive"):
            d_minus_half(MassFractions(0.3), *widths)

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
                0.5 + d_minus_half(mu, s1, s2), abs=1e-10
            )


class TestDClosedForm:
    def test_reference_value(self):
        d = 0.5 + d_minus_half(MassFractions(0.25), 100.0, 1.0)
        assert d == pytest.approx(REF_D, abs=1e-15)
        assert d**2 == pytest.approx(REF_D_SQUARED, abs=1e-14)

    def test_equal_masses_any_widths(self):
        for s1, s2 in [(1.0, 1.0), (123.0, 0.04), (1e-2, 1e2)]:
            assert d_minus_half(MassFractions(0.5), s1, s2) == 0.0

    def test_width_mass_balance(self):
        # Squaring d first would round d^2 to just below 1/4 here.
        mu = MassFractions(0.3)
        s1 = 2.0
        s2 = mu.mu1 * s1 / mu.mu2
        assert d_minus_half(mu, s1, s2) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.02, max_value=0.98),
        st.floats(min_value=0.1, max_value=10.0),
        st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_depends_on_widths_only_through_ratio(self, mu1, s1, scale):
        mu = MassFractions(mu1)
        base = 0.5 + d_minus_half(mu, s1, 1.0)
        scaled = 0.5 + d_minus_half(mu, scale * s1, scale * 1.0)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_floor_over_random_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            mu, s1, s2 = draw_parameters(rng)
            assert d_minus_half(mu, s1, s2) >= 0.0


class TestEntropyAndPurity:
    def test_entropy_vanishes_at_floor(self):
        assert entropy_from_d_minus_half(0.0) == 0.0

    def test_entropy_two_bits(self):
        # (3/2 + 1/2) log2 2 - (3/2 - 1/2) log2 1 = 2 exactly.
        assert entropy_from_d_minus_half(1.0) == 2.0

    def test_entropy_reference_against_mpmath(self):
        assert entropy_from_d_minus_half(REF_D - 0.5) == pytest.approx(
            entropy_oracle(REF_D), abs=1e-12
        )

    def test_entropy_strictly_increasing(self):
        grid = np.linspace(0.0, 49.5, 1000)
        values = [entropy_from_d_minus_half(e) for e in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_entropy_rejects_small_d(self):
        for bad in (-0.001, math.nan):
            with pytest.raises(ValueError, match="non-negative"):
                entropy_from_d_minus_half(bad)

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
        entropy, purity = entropy_from_d_minus_half(d - 0.5), purity_from_d(d)
        assert abs(purity * 2.0 * d - 1.0) <= 1e-12
        assert 0.0 < purity <= 1.0
        assert entropy >= 0.0
        # The entropy vanishes exactly at the floor and nowhere else.
        assert (entropy == 0.0) == (d == 0.5)


def balance_distance(mu, s1, s2):
    """Relative distance of the widths from the locus mu1 s1 = mu2 s2."""
    lhs, rhs = mu.mu1 * s1, mu.mu2 * s2
    return abs(lhs - rhs) / max(lhs, rhs)


def assert_matches_oracle(mu, s1, s2, rel):
    # Relative errors only: pytest.approx would also accept anything
    # within 1e-12 absolute, which every entropy near a locus is.
    e = d_minus_half(mu, s1, s2)
    want_e, want_entropy = closed_form_oracle(mu, s1, s2)
    assert want_e > 0.0
    assert abs(e - want_e) <= rel * want_e
    assert abs(entropy_from_d_minus_half(e) - want_entropy) <= rel * want_entropy


class TestClosedFormAccuracy:
    """d - 1/2 and the entropy against the 60-digit oracle of the same
    float inputs, far from and close to both zero-entanglement loci."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
        st.floats(min_value=-154.0, max_value=154.0),
        st.floats(min_value=-154.0, max_value=154.0),
    )
    def test_away_from_the_loci(self, mu1, log_s1, log_s2):
        # Width ratios sigma1/sigma2 up to 1e154 either way.
        mu, s1, s2 = MassFractions(mu1), 10.0**log_s1, 10.0**log_s2
        assume(abs(mu.delta) >= 2e-3 and balance_distance(mu, s1, s2) >= 1e-3)
        assert_matches_oracle(mu, s1, s2, rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["balance", "equal-mass"]),
        st.floats(min_value=-9.0, max_value=-3.0),
        st.sampled_from([-1.0, 1.0]),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_close_to_a_locus(self, locus, log_gap, side, mu1, log_s1):
        gap, s1 = side * 10.0**log_gap, 10.0**log_s1
        if locus == "balance":
            mu = MassFractions(mu1)
            s2 = mu.mu1 * s1 * (1.0 + gap) / mu.mu2
            assume(abs(mu.delta) >= 2e-3)
        else:
            # mu1 - mu2 = gap; the drawn mu1 only sets the width ratio.
            mu = MassFractions(0.5 + gap / 2.0)
            s2 = s1 * mu1 / (1.0 - mu1)
            assume(balance_distance(mu, s1, s2) >= 1e-3)
        assert_matches_oracle(mu, s1, s2, rel=1e-12 if locus == "equal-mass" else 1e-6)

    def test_next_to_equal_mass(self):
        # 1 - mu1 rounds to 1/2 here; delta = 2 mu1 - 1 does not round.
        mu = MassFractions(0.5 - 2.0**-54)
        assert mu.delta == -(2.0**-53)
        assert_matches_oracle(mu, 3.0, 7.0, rel=1e-15)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=1023), st.integers(min_value=-60, max_value=60))
    def test_exactly_zero_on_the_loci(self, j, k):
        # Equal masses with any widths, and a dyadic mu1 with
        # s1 = mu2 2^k, s2 = mu1 2^k, where mu1 s1 = mu2 s2 holds exactly.
        mu = MassFractions(j / 1024.0)
        s1, s2 = mu.mu2 * 2.0**k, mu.mu1 * 2.0**k
        for fractions in (mu, MassFractions(0.5)):
            e = d_minus_half(fractions, s1, s2)
            assert e == 0.0
            assert entropy_from_d_minus_half(e) == 0.0

    def test_entropy_of_a_subnormal_distance(self):
        # Reachable from the CLI: mu1 = 1e-300 with sigma1_sq = 1e300 and
        # sigma2_sq = 1.00001 gives d - 1/2 of about 1e-310.
        mu = MassFractions.from_masses(1e-300, 1.0)
        assert 0.0 < d_minus_half(mu, 1e300, 1.00001) < 2.2e-308
        assert_matches_oracle(mu, 1e300, 1.00001, rel=1e-6)


class TestBeamSplitter:
    """The bounce in mass-scaled coordinates is a beam splitter acting on
    two squeezed vacua, a second route to d - 1/2 (``tests/oracles.py``)."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=-6.0, max_value=6.0),
    )
    def test_map_is_orthogonal_in_mass_scaled_coordinates(self, mu1, log_s1, log_s2):
        mu, s1, s2 = MassFractions(mu1), 10.0**log_s1, 10.0**log_s2
        splitter = beam_splitter(mu)
        assert np.abs(splitter.T @ splitter - np.eye(4)).max() <= 1e-14
        assert abs(splitter[0, 0] - mu.delta) <= 1e-15
        # The packets are the two squeezed vacua there, and the splitter
        # carries them to the outgoing covariance.
        scale = mass_scaling(mu)
        inputs = np.zeros((4, 4))
        inputs[:2, :2] = squeezed_covariance(mu.mu1 * s1 / 2.0)
        inputs[2:, 2:] = squeezed_covariance(mu.mu2 * s2 / 2.0)
        scaled = scale @ initial_covariance(s1, s2) @ scale
        assert np.all(np.abs(scaled - inputs) <= 1e-15 * np.abs(inputs))
        unscale = np.diag(1.0 / np.diag(scale))
        outgoing = unscale @ splitter @ inputs @ splitter.T @ unscale
        expected = scattered_covariance(mu, s1, s2)
        assert np.abs(outgoing - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_matches_d_minus_half(self):
        # Measured: at most 8.2e-14 relative, and 1.0e-14 where
        # |ln(mu1 s1 / (mu2 s2))| > 2e-2; both routes round mu1 s1 and
        # mu2 s2 before comparing them, so neither is exact next to that locus.
        rng = np.random.default_rng(20261020)
        mu1s = rng.uniform(1e-3, 1.0 - 1e-3, size=20_000)
        widths = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=(20_000, 2)))
        for mu1, (s1, s2) in zip(mu1s.tolist(), widths.tolist()):
            mu = MassFractions(mu1)
            want = d_minus_half(mu, s1, s2)
            assert abs(beam_splitter_d_minus_half(mu, s1, s2) - want) <= 1e-12 * want

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=1023), st.integers(min_value=-60, max_value=60))
    def test_both_loci_give_zero(self, j, k):
        # Equal masses: T = 0, a full swap.  mu1 s1 = mu2 s2: equally
        # squeezed inputs, which no beam splitter entangles.
        mu = MassFractions(j / 1024.0)
        s1, s2 = mu.mu2 * 2.0**k, mu.mu1 * 2.0**k
        assert beam_splitter_d_minus_half(mu, s1, s2) == 0.0
        assert beam_splitter_d_minus_half(MassFractions(0.5), s1, 3.0 * s2) == 0.0


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
