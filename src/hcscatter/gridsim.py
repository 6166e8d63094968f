"""Grid-based cross-check of the collision entanglement.

The covariance route predicts the asymptotic entanglement in closed form.
This module rebuilds the same number from first principles: the exact
time-dependent two-body wave function, discretized on a rectangular grid,
with the entanglement entropy extracted from a singular-value (Schmidt)
decomposition of the sampled amplitude matrix.

The exact solution comes from the method of images.  Let f_t be the
freely evolving product of the two packets and g_t its reflection through
the wall x1 - x2 = a (the reflection acts on the relative coordinate and
commutes with the free evolution).  Then

    psi_t = (f_t - g_t) * step(x1 - x2 - a)

solves the hard-wall problem for all t: it vanishes on the wall, obeys
the free equation away from it, matches f_t long before the collision and
g_t long after.  Free evolution does not change entanglement, so the
Schmidt entropy of the reflected state at t = 0 already equals the
asymptotic value; evolving psi_t through the collision exposes the
transient entanglement on top of it.

Each sampler is pure per call; independent grids and time points may be
evaluated concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .covariance import MassFractions
from .scattering import ScatterParams

__all__ = [
    "CoverageError",
    "GridSpec",
    "WaveGrid",
    "EvolvedPacket",
    "free_evolve_packet",
    "auto_grid",
    "free_state",
    "reflected_state",
    "collision_state",
    "schmidt_entropy",
    "transient_curve",
]

# Fraction of probability mass the grid may lose before sampling is
# considered meaningless.
_NORM_BUDGET = 0.01
# Schmidt weights below this are numerical noise and are dropped before
# the entropy sum.
_WEIGHT_FLOOR = 1e-14

_MIN_POINTS = 64


class CoverageError(ValueError):
    """The grid does not capture enough of the state's probability mass."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid over the (x1, x2) plane.

    Both axes carry the same number n of points, at least 64; they are
    endpoint-inclusive with spacing (max - min) / (n - 1).
    """

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    n: int = 512

    def __post_init__(self) -> None:
        if not (self.x1_max > self.x1_min and self.x2_max > self.x2_min):
            raise ValueError("grid extents must satisfy max > min on both axes")
        if self.n < _MIN_POINTS:
            raise ValueError(f"need at least {_MIN_POINTS} points per axis")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.x1_min, self.x1_max, self.n),
            np.linspace(self.x2_min, self.x2_max, self.n),
        )

    @property
    def dx1(self) -> float:
        return (self.x1_max - self.x1_min) / (self.n - 1)

    @property
    def dx2(self) -> float:
        return (self.x2_max - self.x2_min) / (self.n - 1)


@dataclass(frozen=True)
class WaveGrid:
    """A two-particle amplitude sampled on a grid; amplitudes[i, j] is the
    value at (x1_i, x2_j)."""

    amplitudes: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"amplitudes shape {amp.shape} does not match grid n={self.grid.n}")
        if not np.isfinite(amp.view(float)).all():
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        """Riemann approximation of the squared L2 norm."""
        density = np.abs(self.amplitudes) ** 2
        return float(density.sum() * self.grid.dx1 * self.grid.dx2)


@dataclass(frozen=True)
class EvolvedPacket:
    """A Gaussian packet after free evolution; the squared width is complex.

    At t = 0 the packet of center Q, mean momentum K and squared width
    s^2 > 0 is ``(pi s^2)^(-1/4) exp(i K x) exp(-(x - Q)^2 / (2 s^2))``.
    Free evolution with mass m maps it to one with complex squared width
    s^2 + i t / m, center drifting at K / m, plus a global phase
    -K^2 t / (2 m).  The real part of the width stays s^2, which the
    amplitude's normalization keeps using.
    """

    center: float
    momentum: float
    width_sq: complex
    phase: float

    def __post_init__(self) -> None:
        if not self.width_sq.real > 0.0:
            raise ValueError(f"width_sq must have a positive real part, got {self.width_sq}")

    def amplitude(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        prefactor = (
            math.pi ** -0.25 * self.width_sq.real ** 0.25 / cmath.sqrt(self.width_sq)
        )
        return prefactor * np.exp(
            1j * (self.momentum * x + self.phase)
            - (x - self.center) ** 2 / (2.0 * self.width_sq)
        )

    @property
    def density_std(self) -> float:
        """Standard deviation of the position probability density."""
        return abs(self.width_sq) / math.sqrt(2.0 * self.width_sq.real)


def free_evolve_packet(
    center: float, momentum: float, width_sq: float, mass: float, t: float
) -> EvolvedPacket:
    """Evolve the t = 0 packet (center, momentum, width_sq) of the given
    mass under the free Schroedinger equation.

    Exact closed form (no time stepping): s^2 -> s^2 + i t / m and
    Q -> Q + K t / m.  At t = 0 the input is reproduced exactly.
    """
    if mass <= 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    return EvolvedPacket(
        center=center + momentum * t / mass,
        momentum=momentum,
        width_sq=complex(width_sq, t / mass),
        phase=-momentum**2 * t / (2.0 * mass),
    )


def _reflected_coordinates(mu: MassFractions, core_radius: float, x1, x2):
    """Map (x1, x2) to the point whose relative coordinate is mirrored at
    the wall x_r = a while the center of mass stays put."""
    dm = mu.delta
    r1 = dm * x1 + 2.0 * mu.mu2 * x2 + 2.0 * core_radius * mu.mu2
    r2 = 2.0 * mu.mu1 * x1 - dm * x2 - 2.0 * core_radius * mu.mu1
    return r1, r2


def _evolved_pair(params: ScatterParams, t: float) -> tuple[EvolvedPacket, EvolvedPacket]:
    """The scenario's two packets evolved to t: particle 1 starts at +q1
    moving at -K, particle 2 at -q2 moving at +K."""
    return (
        free_evolve_packet(params.q1, -params.momentum, params.sigma1_sq, params.mass1, t),
        free_evolve_packet(-params.q2, params.momentum, params.sigma2_sq, params.mass2, t),
    )


def _moments(params: ScatterParams, t: float):
    """Analytic centers and density widths of f_t and g_t on both axes."""
    e1, e2 = _evolved_pair(params, t)
    mu = params.fractions
    free_centers = (e1.center, e2.center)
    free_stds = (e1.density_std, e2.density_std)
    g1, g2 = _reflected_coordinates(
        mu, params.core_radius, free_centers[0], free_centers[1]
    )
    # The reflection is a linear involution; it maps the density covariance
    # diag(s1^2, s2^2) to T diag T^T with the same matrix T.
    dm = mu.delta
    refl_stds = (
        math.hypot(dm * free_stds[0], 2.0 * mu.mu2 * free_stds[1]),
        math.hypot(2.0 * mu.mu1 * free_stds[0], dm * free_stds[1]),
    )
    return free_centers, free_stds, (g1, g2), refl_stds


def auto_grid(
    params: ScatterParams,
    t: float = 0.0,
    include: str = "both",
    n: int = 512,
    coverage: float = 6.0,
) -> GridSpec:
    """Grid sized from the analytic packet moments at time t.

    Covers ``coverage`` density standard deviations around the centers of
    the freely evolving state, its reflected image, or the union of both.
    The default six standard deviations keep the truncated probability
    mass far below the 1% norm budget.
    """
    if not 0.0 < coverage < math.inf:
        raise ValueError(f"coverage must be positive and finite, got {coverage}")
    free_centers, free_stds, refl_centers, refl_stds = _moments(params, t)
    boxes = []
    if include in ("free", "both"):
        boxes.append((free_centers, free_stds))
    if include in ("reflected", "both"):
        boxes.append((refl_centers, refl_stds))
    if not boxes:
        raise ValueError(f"include must be 'free', 'reflected' or 'both', got {include!r}")
    lows = [min(c[i] - coverage * s[i] for c, s in boxes) for i in (0, 1)]
    highs = [max(c[i] + coverage * s[i] for c, s in boxes) for i in (0, 1)]
    return GridSpec(lows[0], highs[0], lows[1], highs[1], n)


def _check_norm(wave: WaveGrid, label: str) -> WaveGrid:
    norm = wave.norm()
    if abs(norm - 1.0) > _NORM_BUDGET:
        raise CoverageError(
            f"grid norm of {label} is {norm:.6g} (deficit {1.0 - norm:+.3e}); "
            f"the grid does not cover the state "
            f"(x1 in [{wave.grid.x1_min:.3g}, {wave.grid.x1_max:.3g}], "
            f"x2 in [{wave.grid.x2_min:.3g}, {wave.grid.x2_max:.3g}], "
            f"n1={wave.grid.n}, n2={wave.grid.n})"
        )
    return wave


def _free_amplitudes(e1: EvolvedPacket, e2: EvolvedPacket, x1, x2) -> np.ndarray:
    return np.outer(e1.amplitude(x1), e2.amplitude(x2))


def _reflected_amplitudes(
    e1: EvolvedPacket,
    e2: EvolvedPacket,
    mu: MassFractions,
    core_radius: float,
    x1,
    x2,
) -> np.ndarray:
    r1, r2 = _reflected_coordinates(mu, core_radius, x1[:, None], x2[None, :])
    return e1.amplitude(r1) * e2.amplitude(r2)


def _sample(
    params: ScatterParams,
    t: float,
    grid_n: int,
    coverage: float,
    include: str,
    label: str,
    amplitudes,
) -> WaveGrid:
    """Sample ``amplitudes(e1, e2, x1, x2)`` of the packets evolved to t on
    an auto grid covering ``include``, and check the norm."""
    grid = auto_grid(params, t, include, grid_n, coverage)
    x1, x2 = grid.axes()
    e1, e2 = _evolved_pair(params, t)
    return _check_norm(WaveGrid(amplitudes(e1, e2, x1, x2), grid), label)


def free_state(
    params: ScatterParams,
    t: float = 0.0,
    *,
    grid_n: int = 512,
    coverage: float = 6.0,
) -> WaveGrid:
    """Sample the freely evolving product state f_t."""
    return _sample(params, t, grid_n, coverage, "free", "the free product state",
                   _free_amplitudes)


def reflected_state(
    params: ScatterParams,
    t: float = 0.0,
    *,
    grid_n: int = 512,
    coverage: float = 6.0,
) -> WaveGrid:
    """Sample the reflected image g_t of the free product state.

    At t = 0 this is the full outgoing state up to free evolution, so its
    Schmidt entropy is the asymptotic entanglement; at equal masses the
    two packets simply trade places.
    """
    def amplitudes(e1, e2, x1, x2):
        return _reflected_amplitudes(e1, e2, params.fractions, params.core_radius, x1, x2)

    return _sample(params, t, grid_n, coverage, "reflected", "the reflected state",
                   amplitudes)


def collision_state(
    params: ScatterParams,
    t: float,
    *,
    grid_n: int = 512,
    coverage: float = 6.0,
) -> WaveGrid:
    """Sample the exact hard-wall solution psi_t = (f_t - g_t) step(x_r - a).

    The step factor is exact: every sampled point with x1 - x2 <= a is
    zero (the wall point itself included).  The auto grid covers the
    supports of both f_t and g_t.
    """
    def amplitudes(e1, e2, x1, x2):
        outside = (x1[:, None] - x2[None, :]) > params.core_radius
        return (
            _free_amplitudes(e1, e2, x1, x2)
            - _reflected_amplitudes(e1, e2, params.fractions, params.core_radius, x1, x2)
        ) * outside

    return _sample(params, t, grid_n, coverage, "both", "the collision state", amplitudes)


def schmidt_entropy(wave: WaveGrid) -> float:
    """Entanglement entropy in bits from the discretized Schmidt spectrum.

    The singular values of the amplitude matrix scaled by sqrt(dx1 dx2)
    square to the Schmidt weights; after renormalizing them to unit sum
    (and dropping weights below 1e-14, which are numerical noise) the
    entropy is -sum w log2 w.
    """
    _check_norm(wave, "the input state")
    singular = np.linalg.svd(wave.amplitudes, compute_uv=False)
    weights = singular**2 * (wave.grid.dx1 * wave.grid.dx2)
    weights = weights / weights.sum()
    weights = weights[weights > _WEIGHT_FLOOR]
    return max(0.0, float(-(weights * np.log2(weights)).sum()))


def transient_curve(
    params: ScatterParams,
    times,
    *,
    grid_n: int = 512,
    coverage: float = 6.0,
) -> tuple[float, ...]:
    """Entanglement entropy (bits) of the collision state at each of the
    strictly ascending ``times``.

    Each time point gets its own auto grid, so the moving and spreading
    packets stay covered throughout.  Time points are independent and the
    loop may be parallelized externally; here they run in order.
    """
    times = [float(t) for t in times]
    if not times:
        raise ValueError("need at least one time point")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly ascending")
    return tuple(
        schmidt_entropy(collision_state(params, t, grid_n=grid_n, coverage=coverage))
        for t in times
    )
