"""Second routes to library quantities, kept as test oracles.

The collision acts on the canonical operators (x1, p1, x2, p2) as an
affine symplectic map: change to center-of-mass/relative coordinates,
reflect the relative coordinate at the wall, change back.  Covariances
move with the linear part only.  Pushing the initial covariance through
it derives ``closed_form_blocks``; here it stays in plain numpy so the
closed form can be checked against it.  ``mu`` is anything with ``mu1``
and ``mu2`` attributes, such as ``MassFractions``.

The grid oracle samples packets through ``EvolvedPacket.amplitude``; the
bare t = 0 amplitude and the one-particle marginals below are what its
tests compare against.
"""

import math

import numpy as np

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


def packet_amplitude(packet, x):
    """(pi s^2)^(-1/4) exp(i K x - (x - Q)^2 / (2 s^2)) of a GaussianPacket."""
    x = np.asarray(x, dtype=float)
    return (math.pi * packet.width_sq) ** -0.25 * np.exp(
        1j * packet.momentum * x - (x - packet.center) ** 2 / (2.0 * packet.width_sq)
    )


def marginal(wave, axis):
    """Position density of particle 1 (axis 0) or 2 (axis 1) of a WaveGrid."""
    density = np.abs(wave.amplitudes) ** 2
    step = wave.grid.dx2 if axis == 0 else wave.grid.dx1
    return density.sum(axis=1 - axis) * step
