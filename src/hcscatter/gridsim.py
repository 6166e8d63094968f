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

The image is sampled as its Gaussian envelope with the plane wave split
off.  Write r(x) = T x + b for the reflection, c = r(Q) for the image of
the packet centers Q and w_i = s_i^2 + i t / m_i for the evolved widths.
Then, with v = T (x - c) = r(x) - Q,

    g_t(x) = P exp(i (phi1 + phi2)) exp(i K (x1 - x2 - 2a))
             * exp(-v1^2 / (2 w1) - v2^2 / (2 w2)),

P the product of the two packets' prefactors and phi_i their global
phases.  The plane wave is a function of x1 times a function of x2, a
local unitary that leaves the Schmidt spectrum alone, so
``reflected_state`` returns the envelope only; ``collision_state``
multiplies the plane wave back in and evaluates f_t - g_t only on the
wall's open side x1 - x2 > a.  The envelope is formed from grid-relative
offsets x - c, so no number of the size of |x| enters its exponent, and
at t = 0, where both w_i are real, it is a real float64 matrix and its
SVD runs real.

Every sampler fills its grid a block of rows at a time, so its temporaries
are the size of a block, not of the grid.  Each is pure per call;
independent grids and time points may be evaluated concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .covariance import MassFractions
from .scattering import ScatterParams

__all__ = [
    "COVERAGE",
    "CoverageError",
    "GridSpec",
    "WaveGrid",
    "EvolvedPacket",
    "free_evolve_packet",
    "auto_grid",
    "free_state",
    "reflected_state",
    "collision_state",
    "SchmidtSpectrum",
    "schmidt_spectrum",
    "schmidt_entropy",
    "transient_curve",
]

# Fraction of probability mass the grid may lose before sampling is
# considered meaningless.
_NORM_BUDGET = 0.01
# Grid half-width in density standard deviations.  Six of them cut off
# about 2e-9 of the mass per axis; a finer dx comes from more points,
# not a tighter box.
COVERAGE = 6.0
# Schmidt weights below this are numerical noise and are dropped before
# the entropy sum.
_WEIGHT_FLOOR = 1e-14
# Rows and columns outside the span of those carrying more than this
# fraction of the mass are left out of the SVD.  At most 2n of them go, a
# mass fraction delta <= 2n * 1e-32.  A submatrix's singular values never
# exceed the matrix's, and their squares lose exactly the dropped mass, so
# no weight moves by more than delta: far below the 1e-14 weight floor.
_SUPPORT_FLOOR = 1e-32
# The Schmidt SVD may get B = Q^H A, Q orthonormal, in place of A when the
# mass it leaves out, ||A - Q B||_F^2, is at most this fraction of the
# total.  Then sigma_i(B) <= sigma_i(A) and sum(sigma_i^2 - sigma~_i^2) is
# that mass, so no weight moves by more than 1e-16: far below the 1e-14
# weight floor.
_DISCARD_FLOOR = 1e-16
# Columns in the first range sample; rows per block of every state as it
# is sampled, and of the residual of every range sample.
_FIRST_SAMPLE = 32
_BLOCK_ROWS = 64
# Range samples tried before A itself is decomposed, the first on at most a quarter
# of the side.  Only a real A restarts: complex restarts mostly failed.  The restart
# reaches the floor at the first sample's residual rate or, if fewer, takes 16 plus
# 1.15 times the weights above it of a fit w_0 xi^i to w_0 and w_4 of eigvalsh(B B^T),
# on at most a third of the side, where its three n x k arrays match the SVD's n^2 copy.
_MAX_SAMPLES = 2
_FIT, _MARGIN, _PAD = 4, 1.15, 16

_MIN_POINTS = 64


class CoverageError(ValueError):
    """The sampled state's grid norm is off by more than the 1% budget."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid over the (x1, x2) plane.

    Both axes carry the same number n of points, at least 64; they are
    endpoint-inclusive with spacing (max - min) / (n - 1), which must
    exceed ``math.ulp`` of the axis's largest extent.
    """

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    n: int = 512

    def __post_init__(self) -> None:
        if self.n < _MIN_POINTS:
            raise ValueError(f"need at least {_MIN_POINTS} points per axis, got n={self.n}")
        for axis, low, high, dx in (("x1", self.x1_min, self.x1_max, self.dx1),
                                    ("x2", self.x2_min, self.x2_max, self.dx2)):
            resolution = math.ulp(max(abs(low), abs(high)))
            if not dx > resolution:
                raise ValueError(
                    f"grid axis {axis} in [{low:.17g}, {high:.17g}] has spacing {dx:.3g}, "
                    f"not above the float spacing {resolution:.3g} there (n={self.n})")

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
    value at (x1_i, x2_j).  Float64 amplitudes stay real; any other input
    is stored as complex128."""

    amplitudes: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes)
        if amp.dtype != np.float64:
            amp = amp.astype(complex, copy=False)
        if amp.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"amplitudes shape {amp.shape} does not match grid n={self.grid.n}")
        if not np.isfinite(amp.view(float)).all():
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        """Riemann approximation of the squared L2 norm.  A sum of squares
        past the float range raises FloatingPointError."""
        # One pass with no temporary.  Not np.vdot: OpenBLAS's threaded dot
        # stalls for ~8 ms on 50k-262k entries, where einsum takes 0.2 ms.
        # einsum raises no float error, so the overflow check is made here.
        parts = self.amplitudes.view(float)
        total = np.einsum("ij,ij->", parts, parts)
        if total == np.inf:
            raise FloatingPointError("overflow encountered in the grid norm")
        return float(total * self.grid.dx1 * self.grid.dx2)


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

    @property
    def prefactor(self) -> complex:
        """pi^(-1/4) (Re s^2)^(1/4) / sqrt(s^2), which is (pi s^2)^(-1/4) at t = 0."""
        return math.pi ** -0.25 * self.width_sq.real ** 0.25 / cmath.sqrt(self.width_sq)

    def amplitude(self, x) -> np.ndarray:
        """prefactor * exp(i (K x + phase) - (x - Q)^2 / (2 s^2))."""
        x = np.asarray(x, dtype=float)
        return self.prefactor * np.exp(1j * (self.momentum * x + self.phase)
                                       - (x - self.center) ** 2 / (2.0 * self.width_sq))

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


def auto_grid(
    params: ScatterParams,
    t: float = 0.0,
    include: str = "both",
    n: int = 512,
) -> GridSpec:
    """Grid sized from the analytic packet moments at time t.

    Covers ``COVERAGE`` density standard deviations around the centers of
    the freely evolving state, its reflected image, or the union of both.
    """
    e1, e2 = _evolved_pair(params, t)
    mu = params.fractions
    free_centers = (e1.center, e2.center)
    free_stds = (e1.density_std, e2.density_std)
    refl_centers = _reflected_coordinates(mu, params.core_radius, *free_centers)
    # The reflection is a linear involution; it maps the density covariance
    # diag(s1^2, s2^2) to T diag T^T with the same matrix T.
    dm = mu.delta
    refl_stds = (
        math.hypot(dm * free_stds[0], 2.0 * mu.mu2 * free_stds[1]),
        math.hypot(2.0 * mu.mu1 * free_stds[0], dm * free_stds[1]),
    )
    free, reflected = (free_centers, free_stds), (refl_centers, refl_stds)
    boxes = {"free": [free], "reflected": [reflected], "both": [free, reflected]}.get(include)
    if boxes is None:
        raise ValueError(f"include must be 'free', 'reflected' or 'both', got {include!r}")
    lows = [min(c[i] - COVERAGE * s[i] for c, s in boxes) for i in (0, 1)]
    highs = [max(c[i] + COVERAGE * s[i] for c, s in boxes) for i in (0, 1)]
    return GridSpec(lows[0], highs[0], lows[1], highs[1], n)


def _extents(grid: GridSpec) -> str:
    return (f"x1 in [{grid.x1_min:.3g}, {grid.x1_max:.3g}], "
            f"x2 in [{grid.x2_min:.3g}, {grid.x2_max:.3g}], n={grid.n}")


def _check_norm(wave: WaveGrid, label: str) -> WaveGrid:
    norm = wave.norm()
    if abs(norm - 1.0) > _NORM_BUDGET:
        raise CoverageError(
            f"grid norm of {label} is {norm:.6g} (deficit {1.0 - norm:+.3e}), "
            f"outside the {_NORM_BUDGET:.0%} budget ({_extents(wave.grid)})"
        )
    return wave


# The amplitude samplers: each maps the scenario, its two packets evolved
# to t, a block of x1 rows and the whole x2 axis to the block's amplitudes
# over (x1, x2), or to a prefix of its columns past which they are zero.
def _free_amplitudes(params, e1, e2, x1, x2) -> np.ndarray:
    return np.outer(e1.amplitude(x1), e2.amplitude(x2))


def _real_if_real(z: complex) -> complex | float:
    """A complex scalar with no imaginary part as a float, so that samples
    built from real widths stay float64."""
    return z.real if z.imag == 0.0 else z


def _image_envelope(params, e1, e2, x1, x2) -> np.ndarray:
    """g_t without its plane wave: P exp(-v1^2 / (2 w1) - v2^2 / (2 w2))
    with v = T (x - c), formed from the offsets u = x - c."""
    mu = params.fractions
    dm = mu.delta
    c1, c2 = _reflected_coordinates(mu, params.core_radius, e1.center, e2.center)
    u1, u2 = x1 - c1, x2 - c2
    v1 = (dm * u1)[:, None] + (2.0 * mu.mu2 * u2)[None, :]
    v2 = (2.0 * mu.mu1 * u1)[:, None] - (dm * u2)[None, :]
    v1 *= v1
    v2 *= v2
    a1, a2 = _real_if_real(-0.5 / e1.width_sq), _real_if_real(-0.5 / e2.width_sq)
    prefactor = _real_if_real(e1.prefactor * e2.prefactor)
    # Complex if any of the three is: t / m can underflow in some and not others.
    exponent = np.multiply(v1, a1, dtype=np.result_type(a1, a2, prefactor))
    exponent += a2 * v2
    np.exp(exponent, out=exponent)
    exponent *= prefactor
    return exponent


def _collision_amplitudes(params, e1, e2, x1, x2) -> np.ndarray:
    k, a = params.momentum, params.core_radius
    outside = (x1[:, None] - x2[None, :]) > a
    # Rows keep a prefix of the ascending x2, the last (largest x1) the longest.
    width = np.count_nonzero(outside[-1])
    if width == 0:
        return np.zeros((len(x1), 0), dtype=complex)
    y2, outside = x2[:width], outside[:, :width]
    # The plane wave of g_t, exp(i (phi1 + phi2)) exp(i K (x1 - x2 - 2a)),
    # split into a factor for each axis.
    image = _image_envelope(params, e1, e2, x1, y2) * np.outer(
        np.exp(1j * (k * (x1 - a) + e1.phase)), np.exp(1j * (e2.phase - k * (y2 + a))))
    return (_free_amplitudes(params, e1, e2, x1, y2) - image) * outside


def _sample(params: ScatterParams, t: float, grid_n: int, include: str, label: str,
            sampler) -> WaveGrid:
    """Sample the packets evolved to t on an auto grid covering ``include``,
    ``_BLOCK_ROWS`` rows at a time, and check the norm.  A float overflow
    on the way is a ValueError naming the state, t and the grid."""
    grid = auto_grid(params, t, include, grid_n)
    x1, x2 = grid.axes()
    e1, e2 = _evolved_pair(params, t)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for start in range(0, grid.n, _BLOCK_ROWS):
                block = sampler(params, e1, e2, x1[start:start + _BLOCK_ROWS], x2)
                if start == 0:
                    # Every block of one state has the dtype of the first.
                    amplitudes = np.zeros((grid.n, grid.n), dtype=block.dtype)
                amplitudes[start:start + _BLOCK_ROWS, :block.shape[1]] = block
            return _check_norm(WaveGrid(amplitudes, grid), label)
    except FloatingPointError:
        raise ValueError(f"sampling {label} at t={t:.6g} overflows on {_extents(grid)}") from None


def free_state(params: ScatterParams, t: float = 0.0, *, grid_n: int = 512) -> WaveGrid:
    """Sample the freely evolving product state f_t."""
    return _sample(params, t, grid_n, "free", "the free product state",
                   _free_amplitudes)


def reflected_state(params: ScatterParams, t: float = 0.0, *, grid_n: int = 512) -> WaveGrid:
    """Sample the reflected image g_t of the free product state, up to
    the separable plane wave (same |g_t|, same Schmidt spectrum).

    At t = 0 this is the full outgoing state up to free evolution and a
    local phase, so its Schmidt entropy is the asymptotic entanglement;
    the sampled envelope is then real.  At equal masses the two packets
    simply trade places.
    """
    return _sample(params, t, grid_n, "reflected", "the reflected state", _image_envelope)


def collision_state(params: ScatterParams, t: float, *, grid_n: int = 512) -> WaveGrid:
    """Sample the exact hard-wall solution psi_t = (f_t - g_t) step(x_r - a).

    The step factor is exact: every sampled point with x1 - x2 <= a is
    zero (the wall point itself included).  Each block of rows is evaluated
    only up to the last column one of its rows keeps, so the float overflow
    check (a ValueError) sees the open side and, behind the wall, only the
    blocks' strips along it.  The auto grid covers the supports of both
    f_t and g_t.
    """
    return _sample(params, t, grid_n, "both", "the collision state", _collision_amplitudes)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """The Schmidt weights of a sampled state, renormalized to unit sum, above
    ``_WEIGHT_FLOOR`` and largest first; the matrix shape left by the ``_SUPPORT_FLOOR``
    trim; the range samples' column counts, in order, more than one only for a real kept
    matrix; and the route: "projection" (the SVD of the last sample's projection), "svd"
    (a real kept matrix's) or "gram" (a complex one's Gram eigenvalues)."""

    weights: np.ndarray
    kept_shape: tuple[int, int]
    samples: tuple[int, ...]
    route: str

    @property
    def entropy(self) -> float:
        """-sum w log2 w over the weights, in bits."""
        return max(0.0, float(-(self.weights * np.log2(self.weights)).sum()))


def _support(amplitudes: np.ndarray) -> tuple[np.ndarray, float]:
    """A view of ``amplitudes`` from its first to its last row, and column,
    whose share of the mass exceeds ``_SUPPORT_FLOOR``, and the sum of
    |amplitudes|^2."""
    # A complex column is two float columns of the view.
    parts = amplitudes.view(float)
    rows = np.einsum("ij,ij->i", parts, parts)
    columns = np.einsum("ij,ij->j", parts, parts).reshape(amplitudes.shape[1], -1).sum(axis=1)
    mass = float(rows.sum())
    (r0, r1), (c0, c1) = (np.flatnonzero(sums > _SUPPORT_FLOOR * mass)[[0, -1]]
                          for sums in (rows, columns))
    return amplitudes[r0:r1 + 1, c0:c1 + 1], mass


def _singular_values(matrix: np.ndarray, mass: float) -> tuple[np.ndarray, tuple[int, ...], str]:
    """Singular values of A = ``matrix``, whose |entries|^2 sum to at most ``mass``, the
    range samples tried and the route (see ``SchmidtSpectrum``): "projection" once a
    sample leaves out little enough; else, after at most ``_MAX_SAMPLES`` samples, "svd"
    for a real A, and after its first sample "gram", eigvalsh of the smaller Gram matrix."""
    rows, columns = matrix.shape
    real = not np.iscomplexobj(matrix)
    samples, k, share, tries = [], _FIRST_SAMPLE, 4, _MAX_SAMPLES if real else 1
    while len(samples) < tries and share * k <= min(rows, columns):
        samples.append(k)
        # The middle column of each of k equal strips.
        sample = matrix[:, (2 * np.arange(k) + 1) * columns // (2 * k)]
        basis = np.linalg.qr(sample)[0]
        projection = basis.conj().T @ matrix
        # ||A - Q B||_F^2 by blocks of rows: no temporary of A's size.
        discarded = 0.0
        for start in range(0, rows, _BLOCK_ROWS):
            block = basis[start:start + _BLOCK_ROWS] @ projection
            block -= matrix[start:start + _BLOCK_ROWS]
            discarded += float(np.vdot(block, block).real)
        ratio = discarded / mass
        # Freed before the next sample or the SVD allocates: held across a
        # full SVD, they add ~5 MB to peak memory at n ~ 1000.
        del sample, basis, block
        if ratio <= _DISCARD_FLOOR:
            return np.linalg.svd(projection, compute_uv=False), tuple(samples), "projection"
        k = math.ceil(k * math.log(_DISCARD_FLOOR) / math.log(ratio)) if ratio < 1.0 else columns
        if len(samples) < tries:
            (wj, w0), share = np.linalg.eigvalsh(projection @ projection.T)[[-1 - _FIT, -1]], 3
            if 0.0 < wj < w0:
                above = math.log(max(w0 / (_DISCARD_FLOOR * mass), 1.0)) / math.log(w0 / wj)
                k = min(k, math.ceil(_MARGIN * _FIT * above) + _PAD)
        del projection
    if real:
        return np.linalg.svd(matrix, compute_uv=False), tuple(samples), "svd"
    # G's entries are inner products of length max(rows, columns), so
    # ||dG||_2 <= gamma ||A||_F^2 (Higham, Accuracy and Stability, 3.5), and
    # eigvalsh is backward stable: each weight is within (rows + columns) eps
    # of the total mass of the SVD's.  eigvalsh copies G while G is held, two
    # square arrays where the SVD copies A once, so a real A keeps the SVD.
    gram = matrix @ matrix.conj().T if rows <= columns else matrix.conj().T @ matrix
    return np.sqrt(np.linalg.eigvalsh(gram)[::-1].clip(min=0.0)), tuple(samples), "gram"


def schmidt_spectrum(wave: WaveGrid) -> SchmidtSpectrum:
    """The Schmidt spectrum of ``wave``, after its grid norm check.  The trim
    and the projection its SVD gets move each weight by no more than
    ``_SUPPORT_FLOOR`` and ``_DISCARD_FLOOR`` allow."""
    _check_norm(wave, "the input state")
    kept, mass = _support(wave.amplitudes)
    singular, samples, route = _singular_values(kept, mass)
    weights = singular**2 * (wave.grid.dx1 * wave.grid.dx2)
    weights = weights / weights.sum()
    return SchmidtSpectrum(weights[weights > _WEIGHT_FLOOR], kept.shape, samples, route)


def schmidt_entropy(wave: WaveGrid) -> float:
    """Entanglement entropy in bits: ``schmidt_spectrum(wave).entropy``."""
    return schmidt_spectrum(wave).entropy


def transient_curve(
    params: ScatterParams,
    times,
    *,
    grid_n: int = 512,
) -> tuple[float, ...]:
    """Entanglement entropy (bits) of the collision state at each of the
    strictly ascending ``times``, each on its own auto grid, so the moving
    and spreading packets stay covered throughout."""
    times = [float(t) for t in times]
    if not times:
        raise ValueError("need at least one time point")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly ascending")
    return tuple(
        schmidt_entropy(collision_state(params, t, grid_n=grid_n))
        for t in times
    )
