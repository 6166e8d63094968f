import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcscatter.covariance import (
    MassFractions,
    d_minus_half,
    entropy_from_d_minus_half,
    purity_from_d,
)
from hcscatter.scattering import (
    ScatterParams,
    d_asymptotic,
    is_zero_entanglement,
)

# Frozen from the arbitrary-precision oracle in test_covariance.
REF_D = math.sqrt(1.72015625)
REF_ENTROPY_BITS = 1.797380017291221


def asymptotic_entanglement(params):
    """(d, entropy in bits, purity) of the outgoing state of a scenario."""
    e = d_minus_half(params.fractions, params.sigma1_sq, params.sigma2_sq)
    d = 0.5 + e
    return d, entropy_from_d_minus_half(e), purity_from_d(d)


class TestScatterParams:
    def test_masses_normalized_immediately(self):
        params = ScatterParams(2.0, 6.0, 1.0, 1.0)
        assert params.mass1 == 0.25
        assert params.mass2 == 0.75
        assert params.fractions.mu1 == 0.25
        # The pair is the one MassFractions.from_masses builds, never
        # 1 - mu1: for masses 1 and 2.7 the two differ in the last bit.
        mu = ScatterParams(1.0, 2.7, 1.0, 1.0).fractions
        assert (mu.mu1, mu.mu2) == (1.0 / 3.7, 2.7 / 3.7)
        assert mu.mu2 != 1.0 - mu.mu1

    def test_given_fractions_are_kept(self):
        mu = MassFractions(0.49999999999999994)
        params = ScatterParams(mu.mu1, mu.mu2, 3.0, 7.0, fractions=mu)
        assert params.fractions is mu and params.fractions.delta == -(2.0**-53)
        assert ScatterParams(mu.mu1, mu.mu2, 3.0, 7.0).fractions.delta == -(2.0**-54)
        with pytest.raises(ValueError, match="not the given fractions"):
            ScatterParams(1.0, 3.0, 3.0, 7.0, fractions=MassFractions(0.25))

    def test_default_centers_clear_the_core(self):
        params = ScatterParams(1.0, 1.0, 9.0, 1.0, core_radius=0.5)
        assert params.q1 == pytest.approx(8.0 * 3.0 + 0.5)
        assert params.q2 == params.q1

    def test_default_centers_clear_the_core_at_tiny_widths(self):
        # 8 sigma + 0.5 rounds to 0.5 here; the centers take the next float.
        params = ScatterParams(1.0, 3.0, 1e-40, 1e-40, core_radius=0.5)
        assert params.q1 == params.q2 == math.nextafter(0.5, math.inf)

    def test_width_ratio(self):
        assert ScatterParams(1.0, 1.0, 100.0, 1.0).width_ratio == 10.0

    @settings(max_examples=300, deadline=None)
    @given(*2 * [st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max)])
    @example(1e300, 1e-300)
    @example(1e-300, 1e300)
    @example(2.0**-1022, sys.float_info.max)
    def test_width_ratio_of_any_two_normal_widths(self, s1, s2):
        ratio = ScatterParams(1.0, 2.0, s1, s2).width_ratio
        assert 0.0 < ratio < math.inf
        quotient = s1 / s2
        if sys.float_info.min <= quotient < math.inf:
            assert ratio == math.sqrt(quotient)
        elif ratio >= sys.float_info.min:
            # Two square roots and a division, each rounded once.
            assert abs(Fraction(ratio) ** 2 / (Fraction(s1) / Fraction(s2)) - 1) < 1e-15

    def test_collision_time(self):
        # Centers 32.5 + 32.5 apart, less the core radius 0.5, over the
        # relative velocity 4 / (0.3 * 0.7); 64.5 * 0.3 * 0.7 / 4 is one ulp less.
        params = ScatterParams(0.3, 0.7, 16.0, 1.0, momentum=4.0, core_radius=0.5)
        assert params.collision_time == 3.38625

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(momentum=0.0), "momentum must be positive"),
            (dict(momentum=-2.0), "momentum must be positive"),
            (dict(core_radius=-1.0), "non-negative"),
            (dict(q1=0.2, core_radius=0.5), "outside the core"),
            (dict(q2=0.5, core_radius=0.5), "outside the core"),
            (dict(momentum=math.nan), "momentum must be finite"),
            (dict(core_radius=math.nan), "core_radius must be finite"),
            (dict(q1=math.inf), "q1 must be finite"),
            (dict(momentum=1.1e154), "momentum must be at most 1e\\+154"),
        ],
    )
    def test_rejects_invalid(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ScatterParams(1.0, 1.0, 1.0, 1.0, **kwargs)

    @pytest.mark.parametrize(
        "widths",
        [(1e-320, 1.0), (1.0, 1e-310), (1e300, 1e-320), (1e-310, 1e300)],
    )
    def test_rejects_widths_that_are_not_normal_floats(self, widths):
        # A subnormal width, however wide its partner.
        with pytest.raises(ValueError, match="widths must be normal floats, got sigma1_sq="):
            ScatterParams(1.0, 2.0, *widths)

    def test_accepts_the_extreme_normal_widths(self):
        tiny, huge = 2.0**-1022, 2.0**1023
        assert ScatterParams(1.0, 2.0, tiny, 1.0).width_ratio == 2.0**-511
        assert ScatterParams(1.0, 2.0, huge, 1.0).sigma1_sq == huge
        assert ScatterParams(1.0, 2.0, 1.0, 1.0, momentum=1e154).momentum == 1e154

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValueError, match="widths must be positive"):
            ScatterParams(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="sigma1_sq must be finite"):
            ScatterParams(1.0, 1.0, math.inf, 1.0)

    def test_rejects_nonpositive_masses(self):
        with pytest.raises(ValueError, match="masses must be positive"):
            ScatterParams(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="masses must be finite"):
            ScatterParams(math.nan, 1.0, 1.0, 1.0)


class TestAsymptoticEntanglement:
    def test_equal_masses_generate_nothing(self):
        assert asymptotic_entanglement(ScatterParams(1.0, 1.0, 50.0, 0.5)) == (0.5, 0.0, 1.0)

    def test_reference_scenario(self):
        d, entropy, purity = asymptotic_entanglement(ScatterParams(0.25, 0.75, 100.0, 1.0))
        assert d == pytest.approx(REF_D, abs=1e-15)
        assert entropy == pytest.approx(REF_ENTROPY_BITS, abs=1e-12)
        assert purity == pytest.approx(1.0 / (2.0 * REF_D), abs=1e-15)

    def test_momentum_never_enters(self):
        results = [
            asymptotic_entanglement(ScatterParams(0.25, 0.75, 100.0, 1.0, momentum=k))
            for k in (1.0, 5.0, 50.0)
        ]
        assert all(r == results[0] for r in results)

    def test_geometry_never_enters(self):
        rng = np.random.default_rng(31)
        baseline = asymptotic_entanglement(ScatterParams(0.6, 0.4, 9.0, 1.0))
        for _ in range(10):
            params = ScatterParams(
                0.6,
                0.4,
                9.0,
                1.0,
                momentum=float(rng.uniform(0.1, 40.0)),
                core_radius=float(rng.uniform(0.0, 2.0)),
                q1=float(rng.uniform(5.0, 200.0)),
                q2=float(rng.uniform(5.0, 200.0)),
            )
            assert asymptotic_entanglement(params) == baseline


class TestZeroEntanglementClassification:
    def test_equal_masses(self):
        params = ScatterParams(3.0, 3.0, 7.0, 1.0)
        assert is_zero_entanglement(params) == "EqualMass"

    def test_width_mass_balance(self):
        params = ScatterParams(0.25, 0.75, 3.0, 1.0)
        assert is_zero_entanglement(params) == "WidthMassBalance"

    def test_generic_case(self):
        params = ScatterParams(0.7, 0.3, 1.0, 1.0)
        assert is_zero_entanglement(params) == "None"

    def test_equal_mass_takes_precedence(self):
        # Equal masses and equal widths satisfy both conditions at once.
        params = ScatterParams(1.0, 1.0, 1.0, 1.0)
        assert is_zero_entanglement(params) == "EqualMass"

    def test_tolerance_widens_the_balance_band(self):
        # The balance 0.25 s1 = 0.75 holds at s1 = 3 to a relative 1e-9.
        inside = ScatterParams(0.25, 0.75, 3.0 * (1.0 + 5e-10), 1.0)
        outside = ScatterParams(0.25, 0.75, 3.0 * (1.0 + 2e-9), 1.0)
        assert is_zero_entanglement(inside) == "WidthMassBalance"
        assert is_zero_entanglement(outside) == "None"

    def test_classified_scenarios_carry_no_entropy(self):
        equal = ScatterParams(2.0, 2.0, 5.0, 1.0)
        assert asymptotic_entanglement(equal)[1] <= 1e-9
        mu = MassFractions(0.3)
        balance = ScatterParams(0.3, 0.7, 2.0, mu.mu1 * 2.0 / mu.mu2)
        assert asymptotic_entanglement(balance)[1] <= 1e-9


class TestDAsymptotic:
    def test_local_maximum_value(self):
        # |2/4 - 1| * 1/4 * 10, evaluated by hand.
        assert d_asymptotic(0.25, 10.0) == pytest.approx(1.25, abs=1e-15)

    def test_global_maximum_at_unit_fraction(self):
        assert d_asymptotic(1.0, 10.0) == 10.0
        assert d_asymptotic(1.0, 10.0) / d_asymptotic(0.25, 10.0) == (
            pytest.approx(8.0, abs=1e-12)
        )

    def test_vanishes_at_equal_masses(self):
        assert d_asymptotic(0.5, 10.0) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="width ratio"):
            d_asymptotic(0.5, 0.0)
        with pytest.raises(ValueError, match="mu1"):
            d_asymptotic(0.0, 10.0)
        with pytest.raises(ValueError, match="mu1"):
            d_asymptotic(1.1, 10.0)

    def test_local_extremum_structure(self):
        # The quadratic mu (1 - 2 mu) on [0, 1/2] peaks at mu = 1/4; over the
        # whole of (0, 1] the expression peaks at mu = 1.
        left = np.linspace(1e-4, 0.5, 5001)
        idx = np.argmax(left * (1.0 - 2.0 * left))
        assert left[idx] == pytest.approx(0.25, abs=1e-4)
        full = np.linspace(1e-4, 1.0, 5001)
        values = [d_asymptotic(m, 10.0) for m in full]
        assert full[int(np.argmax(values))] == 1.0

    def test_agreement_with_exact_value(self):
        # At ratio 10 the leading term tracks the exact d within 15%
        # wherever |2 mu - 1| mu >= 0.1; it degrades only near its zeros.
        for mu1 in np.linspace(0.01, 0.99, 99):
            if abs(2.0 * mu1 - 1.0) * mu1 < 0.1:
                continue
            exact = 0.5 + d_minus_half(MassFractions(mu1), 100.0, 1.0)
            approx = d_asymptotic(mu1, 10.0)
            assert abs(approx - exact) / exact <= 0.15
