"""Acceptance suite.

Each test drives one acceptance criterion end to end at its stated
tolerance and runtime budget, and prints a single pass/fail line; run
with ``pytest tests/test_acceptance.py -s`` to see the report live.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hcscatter.cli import SweepConfig, run_sweep_mu
from hcscatter.covariance import (
    MassFractions,
    d_minus_half,
    entropy_from_d_minus_half,
    purity_from_d,
)
from hcscatter.ellipse import (
    approx_final_ellipse,
    scattered_ellipse,
    scattered_form,
    stretch_polynomial,
)
from hcscatter.gridsim import reflected_state, schmidt_spectrum, transient_curve
from hcscatter.scattering import ScatterParams
from oracles import (
    assemble,
    closed_form_blocks,
    com_relative_map,
    form_matrix,
    marginal,
    packet_amplitude,
    scattered_covariance,
    scattering_map,
    symplectic_defect,
    uncertainty_floor,
)

SEED = 20260810


@contextmanager
def criterion(number, label, budget_seconds):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its runtime budget: "
        f"{elapsed:.2f}s >= {budget_seconds}s"
    )
    print(f"criterion {number} ({label}): PASS  [{elapsed:.2f}s]")


def sweep_config(**overrides):
    base = dict(
        mode="sweep-mu",
        params=ScatterParams(0.25, 0.75, 100.0, 1.0, momentum=1.0, core_radius=0.5),
        grid_n=512,
        points=99,
        t_start=None,
        t_stop=None,
        out=None,
        fmt="csv",
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_criterion_1_zero_entanglement_conditions():
    with criterion(1, "zero-entanglement conditions", 1.0):
        # Exact equal masses, widths arbitrary.
        for s1, s2 in [(1.0, 1.0), (7.0, 3.0), (100.0, 1.0)]:
            e = d_minus_half(MassFractions(0.5), s1, s2)
            assert e == 0.0
            assert entropy_from_d_minus_half(e) == 0.0
        # Exact width/mass balance: sigma2^2 constructed as mu1 s1 / mu2.
        for mu1, s1 in [(0.3, 2.0), (0.25, 3.0), (0.8, 11.0)]:
            mu = MassFractions(mu1)
            e = d_minus_half(mu, s1, mu.mu1 * s1 / mu.mu2)
            assert e == 0.0
            assert entropy_from_d_minus_half(e) == 0.0


def test_criterion_2_mu_sweep_reproduction():
    with criterion(2, "d versus mu1 sweep at width ratio 10", 1.0):
        record = run_sweep_mu(sweep_config())
        rows = record["rows"]
        assert len(rows) == 99
        mu_grid = np.array([row["mu1"] for row in rows])
        d_exact = np.array([row["d_exact"] for row in rows])
        d_approx = np.array([row["d_asymptotic"] for row in rows])

        # (a) local maximum of the leading-order curve at mu1 = 0.25.
        peak = int(np.argmin(np.abs(mu_grid - 0.25)))
        assert abs(d_approx[peak] - 1.25) <= 1e-12
        assert d_approx[peak] > d_approx[peak - 1]
        assert d_approx[peak] > d_approx[peak + 1]

        # (b) closed-endpoint value 10, a factor 8 above the local maximum.
        endpoint = record["meta"]["d_asymptotic_at_mu1_1"]
        assert abs(endpoint - 10.0) <= 1e-12
        assert abs(endpoint / d_approx[peak] - 8.0) <= 1e-11

        # (c) the exact curve dominates at both zero-entanglement loci and
        # the leading term tracks it within 15% away from its zeros.
        assert np.all(d_exact >= 0.5 - 1e-15)
        for locus in (0.5, 1.0 / 101.0):
            at = int(np.argmin(np.abs(mu_grid - locus)))
            assert d_exact[at] >= d_approx[at]
        in_band = np.abs(2.0 * mu_grid - 1.0) * mu_grid >= 0.1
        assert in_band.any()
        gap = np.abs(d_exact - d_approx)[in_band]
        assert np.all(gap <= 0.15 * d_exact[in_band])


def test_criterion_3_oracle_equivalence():
    with criterion(3, "Schmidt oracle versus closed form", 60.0):
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            mu1 = float(rng.uniform(0.1, 0.9))
            ratio = float(rng.uniform(1.0, 20.0))
            params = ScatterParams(mu1, 1.0 - mu1, ratio**2, 1.0, core_radius=0.5)
            e = d_minus_half(params.fractions, ratio**2, 1.0)
            spectrum = schmidt_spectrum(reflected_state(params, grid_n=512))
            assert abs(spectrum.entropy - entropy_from_d_minus_half(e)) <= 1e-3

            # The whole spectrum the library certifies: a two-mode Gaussian
            # pure state has the geometric Schmidt weights (1 - xi) xi^k,
            # xi = e / (1 + e), and Schmidt number 1 / sum(lambda^2) =
            # 2 d = 1 + 2 e.  The weights below the 1e-14 floor count as 0.
            weights = np.zeros(512)
            weights[:spectrum.weights.size] = spectrum.weights
            xi = e / (1.0 + e)
            geometric = (1.0 - xi) * xi ** np.arange(weights.size)
            assert np.max(np.abs(weights - geometric)) <= 1e-8
            assert abs(1.0 / np.sum(weights**2) / (1.0 + 2.0 * e) - 1.0) <= 1e-7


def test_criterion_4_block_equivalence():
    with criterion(4, "matrix pipeline versus closed-form blocks", 1.0):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            mu = MassFractions(float(rng.uniform(0.01, 0.99)))
            s1, s2 = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=2))
            pipeline = scattered_covariance(mu, s1, s2, 0.7)
            assembled = assemble(closed_form_blocks(mu, s1, s2))
            assert np.max(np.abs(pipeline - assembled)) <= 1e-10
            det_a = np.linalg.det(pipeline[:2, :2])
            det_b = np.linalg.det(pipeline[2:, 2:])
            assert abs(det_a - det_b) <= 1e-10 * abs(det_a)


def test_criterion_5_ellipse_geometry():
    with criterion(5, "outgoing-ellipse geometry", 1.0):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            mu = MassFractions(float(rng.uniform(0.01, 0.99)))
            s1, s2 = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=2))
            det = np.linalg.det(form_matrix(scattered_form(mu, s1, s2)))
            assert det * s1 * s2 == pytest.approx(1.0, rel=1e-10)

        tilt = scattered_ellipse(MassFractions(0.99), 1000.0**2, 1.0).angle_rad
        assert abs(math.degrees(tilt) - math.degrees(math.atan(2.0))) <= 0.5

        assert approx_final_ellipse(0.25, 10.0, 1.0).angle_rad == 0.75 * math.pi
        assert stretch_polynomial(0.25) == 0.5
        assert stretch_polynomial(1.0) == 5.0


def test_criterion_6_equal_mass_exchange():
    with criterion(6, "equal masses exchange the packet shapes", 10.0):
        params = ScatterParams(1.0, 1.0, 4.0, 1.0, momentum=2.0, core_radius=0.0)
        wave = reflected_state(params, grid_n=512)
        x1, x2 = wave.grid.axes()
        # Particle 2 starts at -q2 moving at +K, particle 1 at +q1 moving at -K.
        k = params.momentum
        swapped_x1 = np.abs(packet_amplitude(-params.q2, k, params.sigma2_sq, x1)) ** 2
        swapped_x2 = np.abs(packet_amplitude(params.q1, -k, params.sigma1_sq, x2)) ** 2
        dist1 = math.sqrt(np.sum((marginal(wave, 0) - swapped_x1) ** 2) * wave.grid.dx1)
        dist2 = math.sqrt(np.sum((marginal(wave, 1) - swapped_x2) ** 2) * wave.grid.dx2)
        assert dist1 <= 1e-6
        assert dist2 <= 1e-6


def test_criterion_7_transient_entanglement():
    with criterion(7, "transient entanglement through the collision", 300.0):
        # Equal masses and widths: entanglement appears during the overlap
        # and dies off afterwards.
        symmetric = ScatterParams(1.0, 1.0, 1.0, 1.0, momentum=4.0, core_radius=0.5)
        entropies = np.array(transient_curve(symmetric, np.linspace(0.0, 5.0, 26), grid_n=512))
        assert entropies.max() > 0.05
        assert entropies[-1] <= 0.02

        # Asymmetric run: the late-time entropy settles on the closed form.
        skewed = ScatterParams(1.0, 3.0, 16.0, 1.0, momentum=4.0, core_radius=0.5)
        target = entropy_from_d_minus_half(d_minus_half(skewed.fractions, 16.0, 1.0))
        entropies = transient_curve(skewed, np.linspace(0.0, 9.0, 13), grid_n=512)
        assert abs(entropies[-1] - target) <= 2e-2


def test_criterion_8_structural_invariants():
    with criterion(8, "structural invariants over the seeded corpus", 5.0):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            mu = MassFractions(float(rng.uniform(0.01, 0.99)))
            s1, s2 = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=2))
            radius = float(rng.uniform(0.0, 3.0))

            for linear in (com_relative_map(mu), scattering_map(mu, radius)[0]):
                assert symplectic_defect(linear) <= 1e-12

            moved = scattered_covariance(mu, s1, s2, radius)
            assert uncertainty_floor(moved) >= -1e-10

            e = d_minus_half(mu, s1, s2)
            assert e >= 0.0
            d = 0.5 + e
            assert abs(purity_from_d(d) * 2.0 * d - 1.0) <= 1e-12

        grid = np.linspace(0.0, 49.5, 1000)
        values = [entropy_from_d_minus_half(e) for e in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
