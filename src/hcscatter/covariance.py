"""Two-mode Gaussian covariance algebra for a hard-core bounce in 1D.

Natural units (hbar = 1) and canonical ordering (x1, p1, x2, p2)
throughout.  A hard-core collision acts on the canonical operators as an
affine symplectic map (a reflection of the relative coordinate), so the
asymptotic two-particle state, and with it the generated entanglement, is
fixed by covariance-matrix algebra alone.  Pushing the initial covariance
through that map gives the closed-form blocks below; the matrix pipeline
itself is the derivation and is rebuilt in the test suite as an oracle.

The entanglement of the pure two-mode output is graded by the scalar
d = sqrt(det A), where A is the reduced 2x2 covariance block of one mode:
d = 1/2 marks a pure (unentangled) reduced state, larger d means more
entanglement.

All functions here are pure and hold no state; they are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MassFractions",
    "GaussianPacket",
    "closed_form_blocks",
    "d_closed_form",
    "entropy_from_d",
    "purity_from_d",
]

# Largest tolerated roundoff deficit of det(A) below the physical floor 1/4.
_DET_DEFICIT_TOL = 1e-9


@dataclass(frozen=True)
class MassFractions:
    """Normalized mass fractions mu1 = m1/(m1+m2) and mu2 = m2/(m1+m2).

    Only the fractions, never the raw masses, enter the asymptotic
    entanglement.  ``mu2`` may be omitted, in which case it is derived as
    ``1 - mu1``; when given explicitly the pair must sum to one within
    1e-15.
    """

    mu1: float
    mu2: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.mu1 < 1.0:
            raise ValueError(f"mu1 must lie strictly between 0 and 1, got {self.mu1}")
        if self.mu2 is None:
            object.__setattr__(self, "mu2", 1.0 - self.mu1)
        elif abs(self.mu1 + self.mu2 - 1.0) > 1e-15:
            raise ValueError(
                f"mass fractions must sum to 1, got {self.mu1} + {self.mu2}"
            )

    @classmethod
    def from_masses(cls, mass1: float, mass2: float) -> "MassFractions":
        """Build fractions from raw (positive, finite) masses."""
        if not (math.isfinite(mass1) and math.isfinite(mass2)):
            raise ValueError(f"masses must be finite, got {mass1}, {mass2}")
        if mass1 <= 0.0 or mass2 <= 0.0:
            raise ValueError(f"masses must be positive, got {mass1}, {mass2}")
        total = mass1 + mass2
        return cls(mass1 / total, mass2 / total)

    @property
    def delta(self) -> float:
        """The asymmetry mu1 - mu2 that drives entanglement generation."""
        return self.mu1 - self.mu2


@dataclass(frozen=True)
class GaussianPacket:
    """A single-particle Gaussian wave packet.

    The wave function is ``alpha * exp(i K x) * exp(-(x - Q)^2 / (2 s^2))``
    with center ``Q``, mean momentum ``K``, squared width ``s^2`` and
    ``alpha = (pi s^2)^(-1/4)``.  ``gridsim.free_evolve_packet`` evolves it
    and samples its amplitude.
    """

    center: float
    momentum: float
    width_sq: float

    def __post_init__(self) -> None:
        if not self.width_sq > 0.0:
            raise ValueError(f"width_sq must be positive, got {self.width_sq}")


def closed_form_blocks(
    mu: MassFractions, sigma1_sq: float, sigma2_sq: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Post-collision covariance blocks (A, B, C) written out in closed form.

    The full covariance matrix is [[A, C], [C^T, B]]; A and B are the
    reduced one-mode blocks.  All three come back as read-only 2x2 arrays
    and all three are diagonal.  With dm = mu1 - mu2:

    * A = diag(2 mu2^2 s2 + dm^2 s1 / 2,  2 mu1^2 / s2 + dm^2 / (2 s1))
    * B = diag(2 mu1^2 s1 + dm^2 s2 / 2,  2 mu2^2 / s1 + dm^2 / (2 s2))
    * C = diag(dm (mu1 s1 - mu2 s2),      dm (mu2 / s1 - mu1 / s2))

    The test suite checks them against the initial covariance
    diag(s1/2, 1/(2 s1), s2/2, 1/(2 s2)) pushed through the collision map.
    """
    if sigma1_sq <= 0.0 or sigma2_sq <= 0.0:
        raise ValueError("widths must be positive")
    mu1, mu2, dm = mu.mu1, mu.mu2, mu.delta
    s1, s2 = sigma1_sq, sigma2_sq
    block_a = np.diag(
        [2.0 * mu2**2 * s2 + dm**2 * s1 / 2.0, 2.0 * mu1**2 / s2 + dm**2 / (2.0 * s1)]
    )
    block_b = np.diag(
        [2.0 * mu1**2 * s1 + dm**2 * s2 / 2.0, 2.0 * mu2**2 / s1 + dm**2 / (2.0 * s2)]
    )
    block_c = np.diag(
        [dm * (mu1 * s1 - mu2 * s2), dm * (mu2 / s1 - mu1 / s2)]
    )
    for block in (block_a, block_b, block_c):
        block.setflags(write=False)
    return block_a, block_b, block_c


def d_closed_form(mu: MassFractions, sigma1_sq: float, sigma2_sq: float) -> float:
    """Asymptotic entanglement scalar d in closed form.

    d^2 = 4 mu1^2 mu2^2
          + dm^2 * (dm^2 / 4 + mu1^2 s1/s2 + mu2^2 s2/s1),   dm = mu1 - mu2.

    Depends on the widths only through their ratio; equals 1/2 exactly for
    equal masses and for mu1 s1 = mu2 s2.
    """
    if sigma1_sq <= 0.0 or sigma2_sq <= 0.0:
        raise ValueError("widths must be positive")
    mu1, mu2, dm = mu.mu1, mu.mu2, mu.delta
    ratio = sigma1_sq / sigma2_sq
    dsq = 4.0 * mu1**2 * mu2**2 + dm**2 * (
        dm**2 / 4.0 + mu1**2 * ratio + mu2**2 / ratio
    )
    # d = 1/2 is an exact physical floor reached at exact parameter
    # relations; tiny float deficits below d^2 = 1/4 are clamped, anything
    # beyond the tolerance is a genuinely unphysical state.
    deficit = 0.25 - dsq
    if deficit > _DET_DEFICIT_TOL:
        raise ValueError(
            f"block determinant {dsq} is below the physical floor 1/4; "
            "the state is not a valid reduced one-mode Gaussian"
        )
    if deficit > 0.0:
        return 0.5
    return math.sqrt(dsq)


def _xlog2x(x: float) -> float:
    # 0 log 0 = 0 by the usual limit convention.
    if x <= 0.0:
        return 0.0
    return x * math.log2(x)


def entropy_from_d(d: float) -> float:
    """Von Neumann entropy in bits of a one-mode Gaussian with scalar d.

    S = (d + 1/2) log2(d + 1/2) - (d - 1/2) log2(d - 1/2), with the
    0 log 0 convention so that S(1/2) = 0 exactly.  Strictly increasing
    in d.
    """
    if d < 0.5:
        raise ValueError(f"d must be at least 1/2, got {d}")
    return _xlog2x(d + 0.5) - _xlog2x(d - 0.5)


def purity_from_d(d: float) -> float:
    """Purity of a one-mode Gaussian state: 1 / (2 d), equal to 1 only for
    the pure reduced state at d = 1/2."""
    if d < 0.5:
        raise ValueError(f"d must be at least 1/2, got {d}")
    return 1.0 / (2.0 * d)
