"""Second routes to library quantities, kept as test oracles.

The collision acts on the canonical operators (x1, p1, x2, p2) as an
affine symplectic map: change to center-of-mass/relative coordinates,
reflect the relative coordinate at the wall, change back.  Covariances
move with the linear part only.  Pushing the initial covariance through
it gives the outgoing blocks, which ``closed_form_blocks`` writes out;
the library's ``d_minus_half`` is derived from them.  Both stay here in
plain numpy so the library can be checked against them.  ``mu`` is
anything with ``mu1`` and ``mu2`` attributes, such as ``MassFractions``.

``form_matrix`` builds the 2x2 array of ``scattered_form``'s entries for
the tests to compute with; ``boundary_points_numpy`` is the numpy
evaluation of the ellipse boundary that ``EllipseShape.boundary_points``
matches bit for bit.

The grid oracle samples packets through ``EvolvedPacket``; the textbook
packet amplitude, the plane wave split off the mirror image, the image
envelope and the collision state evaluated on the whole grid at once,
Schmidt weights and entropy from one untrimmed SVD, the masked support
trim and the one-particle marginals below are what its tests compare
against.
"""

import math

import numpy as np

from hcscatter.gridsim import (
    _SUPPORT_FLOOR, _evolved_pair, _free_amplitudes, _real_if_real, _reflected_coordinates)

SYMPLECTIC_FORM = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])


def initial_covariance(s1, s2):
    """Two independent minimal-uncertainty packets of squared widths s1, s2."""
    return np.diag([s1 / 2.0, 1.0 / (2.0 * s1), s2 / 2.0, 1.0 / (2.0 * s2)])


def com_relative_map(mu):
    """Particle frame to (x_s, p_s, x_r, p_r)."""
    return np.array(
        [
            [mu.mu1, 0.0, mu.mu2, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, -1.0, 0.0],
            [0.0, mu.mu2, 0.0, -mu.mu1],
        ]
    )


def com_relative_inverse(mu):
    """x1 = xs + mu2 xr, x2 = xs - mu1 xr, p1 = mu1 ps + pr, p2 = mu2 ps - pr."""
    return np.array(
        [
            [1.0, 0.0, mu.mu2, 0.0],
            [0.0, mu.mu1, 0.0, 1.0],
            [1.0, 0.0, -mu.mu1, 0.0],
            [0.0, mu.mu2, 0.0, -1.0],
        ]
    )


def reflection_map(core_radius):
    """x_r -> 2a - x_r, p_r -> -p_r: (linear part, displacement)."""
    return np.diag([1.0, 1.0, -1.0, -1.0]), np.array([0.0, 0.0, 2.0 * core_radius, 0.0])


def scattering_map(mu, core_radius=0.0):
    """The collision in the particle frame: (linear part, displacement)."""
    forward, inverse = com_relative_map(mu), com_relative_inverse(mu)
    linear, shift = reflection_map(core_radius)
    return inverse @ linear @ forward, inverse @ shift


def scattered_covariance(mu, s1, s2, core_radius=0.0):
    linear, _ = scattering_map(mu, core_radius)
    return linear @ initial_covariance(s1, s2) @ linear.T


def closed_form_blocks(mu, s1, s2):
    """Outgoing covariance blocks (A, B, C), all diagonal, of the full
    matrix [[A, C], [C^T, B]].  With dm = mu1 - mu2:

    * A = diag(2 mu2^2 s2 + dm^2 s1 / 2,  2 mu1^2 / s2 + dm^2 / (2 s1))
    * B = diag(2 mu1^2 s1 + dm^2 s2 / 2,  2 mu2^2 / s1 + dm^2 / (2 s2))
    * C = diag(dm (mu1 s1 - mu2 s2),      dm (mu2 / s1 - mu1 / s2))
    """
    mu1, mu2 = mu.mu1, mu.mu2
    dm = mu1 - mu2
    block_a = np.diag(
        [2.0 * mu2**2 * s2 + dm**2 * s1 / 2.0, 2.0 * mu1**2 / s2 + dm**2 / (2.0 * s1)]
    )
    block_b = np.diag(
        [2.0 * mu1**2 * s1 + dm**2 * s2 / 2.0, 2.0 * mu2**2 / s1 + dm**2 / (2.0 * s2)]
    )
    block_c = np.diag([dm * (mu1 * s1 - mu2 * s2), dm * (mu2 / s1 - mu1 / s2)])
    return block_a, block_b, block_c


def assemble(blocks):
    """[[A, C], [C^T, B]] from the blocks (A, B, C)."""
    block_a, block_b, block_c = blocks
    return np.block([[block_a, block_c], [block_c.T, block_b]])


def symplectic_defect(linear):
    return np.max(np.abs(linear.T @ SYMPLECTIC_FORM @ linear - SYMPLECTIC_FORM))


def uncertainty_floor(sigma):
    """Smallest eigenvalue of sigma + iJ/2; negative values are unphysical."""
    return np.linalg.eigvalsh(sigma + 0.5j * SYMPLECTIC_FORM).min()


def d_from_block(block_a):
    """d = sqrt(det A) of a reduced one-mode block."""
    return math.sqrt(block_a[0, 0] * block_a[1, 1] - block_a[0, 1] * block_a[1, 0])


def mixing_matrix(mu):
    """The bounce evaluates the packet factors at L @ (x1, x2)."""
    dm = mu.mu1 - mu.mu2
    return np.array([[dm, 2.0 * mu.mu2], [2.0 * mu.mu1, -dm]])


def scattered_form_from_factors(mu, s1, s2):
    """L^T diag(1/s1, 1/s2) L, the quadratic form of the outgoing Gaussian."""
    mixing = mixing_matrix(mu)
    return mixing.T @ np.diag([1.0 / s1, 1.0 / s2]) @ mixing


def form_matrix(entries):
    """The symmetric 2x2 array of the entries (M11, M12, M22) that
    ``scattered_form`` returns."""
    m11, m12, m22 = entries
    return np.array([[m11, m12], [m12, m22]])


def boundary_points_numpy(shape, count):
    """``EllipseShape.boundary_points`` as numpy arrays, shape (count, 2):
    angles from ``np.linspace(0, 2 pi, count, endpoint=False)``."""
    t = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    ca, sa = math.cos(shape.angle_rad), math.sin(shape.angle_rad)
    return (shape.semi_major * np.cos(t)[:, None] * np.array([ca, sa])
            + shape.semi_minor * np.sin(t)[:, None] * np.array([-sa, ca]))


def packet_amplitude(center, momentum, width_sq, x, t=0.0, mass=1.0):
    """The packet (pi s^2)^(-1/4) exp(i K x - (x - Q)^2 / (2 s^2)) of center
    Q, momentum K and squared width s^2 at t = 0, spread freely to t with
    the given mass in the textbook form

        (s^2 / pi)^(1/4) / sqrt(w) exp(i K x - i K^2 t / (2 m) - (x - Q - K t / m)^2 / (2 w))

    with w = s^2 + i t / m."""
    x = np.asarray(x, dtype=float)
    spread = complex(width_sq, t / mass)
    drift = center + momentum * t / mass
    return (width_sq / math.pi) ** 0.25 / np.sqrt(spread) * np.exp(
        1j * (momentum * x - momentum**2 * t / (2.0 * mass))
        - (x - drift) ** 2 / (2.0 * spread)
    )


def image_plane_wave(params, t, x1, x2):
    """The plane wave the library splits off the mirror image g_t,
    exp(i K (x1 - x2 - 2a) - i K^2 t / (2 m1) - i K^2 t / (2 m2)), on the
    grid x1[:, None], x2[None, :]."""
    k, a = params.momentum, params.core_radius
    phase = -(k**2) * t / (2.0 * params.mass1) - k**2 * t / (2.0 * params.mass2)
    return np.exp(1j * (k * (x1[:, None] - x2[None, :] - 2.0 * a) + phase))


def dense_image_envelope(params, t, x1, x2):
    """The library's image envelope P exp(-v1^2 / (2 w1) - v2^2 / (2 w2)),
    v = T (x - c), on the grid x1[:, None], x2[None, :] as one expression
    over all n^2 entries: no row blocks and no step in place."""
    e1, e2 = _evolved_pair(params, t)
    mu = params.fractions
    c1, c2 = _reflected_coordinates(mu, params.core_radius, e1.center, e2.center)
    u1, u2 = x1 - c1, x2 - c2
    v1 = (mu.delta * u1)[:, None] + (2.0 * mu.mu2 * u2)[None, :]
    v2 = (2.0 * mu.mu1 * u1)[:, None] - (mu.delta * u2)[None, :]
    exponent = (_real_if_real(-0.5 / e1.width_sq) * (v1 * v1)
                + _real_if_real(-0.5 / e2.width_sq) * (v2 * v2))
    return _real_if_real(e1.prefactor * e2.prefactor) * np.exp(exponent)


def dense_collision_amplitudes(params, t, x1, x2):
    """psi_t = (f_t - g_t) step(x1 - x2 - a) on the grid x1[:, None],
    x2[None, :], from the library's own packet factors and
    ``dense_image_envelope``: all n^2 entries are evaluated, behind the
    wall too, and then masked."""
    e1, e2 = _evolved_pair(params, t)
    # The plane wave of g_t, exp(i (phi1 + phi2)) exp(i K (x1 - x2 - 2a)),
    # split into a factor for each axis.
    k, a = params.momentum, params.core_radius
    wave1 = np.exp(1j * (k * (x1 - a) + e1.phase))
    wave2 = np.exp(1j * (e2.phase - k * (x2 + a)))
    image = dense_image_envelope(params, t, x1, x2) * np.outer(wave1, wave2)
    outside = (x1[:, None] - x2[None, :]) > params.core_radius
    return (_free_amplitudes(params, e1, e2, x1, x2) - image) * outside


def schmidt_weights(amplitudes):
    """Schmidt weights of a sampled state from one SVD of the whole
    matrix, nothing trimmed, normalized to unit sum, largest first."""
    weights = np.linalg.svd(amplitudes, compute_uv=False) ** 2
    return weights / weights.sum()


def masked_support(amplitudes):
    """Every row and column of ``amplitudes`` whose share of |amplitudes|^2
    exceeds ``_SUPPORT_FLOOR``, contiguous or not, as a copy, and the sum
    of |amplitudes|^2."""
    density = np.abs(amplitudes)
    density *= density
    rows, columns = density.sum(axis=1), density.sum(axis=0)
    mass = float(rows.sum())
    floor = _SUPPORT_FLOOR * mass
    return amplitudes[np.ix_(rows > floor, columns > floor)], mass


def full_svd_entropy(wave):
    """Schmidt entropy in bits of a WaveGrid from one SVD of its whole
    amplitude matrix, nothing trimmed, with the library's 1e-14 floor."""
    weights = schmidt_weights(wave.amplitudes)
    weights = weights[weights > 1e-14]
    return max(0.0, float(-(weights * np.log2(weights)).sum()))


def trapezoid(y, x):
    """Trapezoidal rule (numpy calls it trapz before 2.0, trapezoid after)."""
    return float(np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0)


def marginal(wave, axis):
    """Position density of particle 1 (axis 0) or 2 (axis 1) of a WaveGrid."""
    density = np.abs(wave.amplitudes) ** 2
    step = wave.grid.dx2 if axis == 0 else wave.grid.dx1
    return density.sum(axis=1 - axis) * step
