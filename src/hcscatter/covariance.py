"""Two-mode Gaussian covariance algebra for a hard-core bounce in 1D.

Natural units (hbar = 1) and canonical ordering (x1, p1, x2, p2)
throughout.  A hard-core collision acts on the canonical operators as an
affine symplectic map (a reflection of the relative coordinate), so the
asymptotic two-particle state, and with it the generated entanglement, is
fixed by covariance-matrix algebra alone.  Pushing the initial covariance
through that map gives the outgoing blocks in closed form; that derivation
lives in the test suite as the oracle the functions below are checked against.

The entanglement of the pure two-mode output is graded by the scalar
d = sqrt(det A), where A is the reduced 2x2 covariance block of one mode:
d = 1/2 marks a pure (unentangled) reduced state, larger d means more
entanglement.  The library computes d - 1/2 itself (``d_minus_half``) and
grades the entropy by it, so both zero-entanglement loci give exactly 0;
``MassFractions.delta``, rounded once, keeps it accurate near equal masses.

All functions here are pure and hold no state; they are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "MassFractions",
    "d_minus_half",
    "entropy_from_d_minus_half",
    "purity_from_d",
]


@dataclass(frozen=True)
class MassFractions:
    """Normalized mass fractions mu1 = m1/(m1+m2), mu2 = m2/(m1+m2) and
    their asymmetry delta = mu1 - mu2.

    Only the fractions, never the raw masses, enter the asymptotic
    entanglement.  ``MassFractions(mu1)`` sets ``mu2 = 1 - mu1`` and
    ``delta = 2 mu1 - 1``; ``from_masses`` sets ``mu2 = m2/total`` and
    ``delta = (m1 - m2)/total``.  Each is rounded once, never formed from
    two rounded fractions, so ``delta`` stays accurate up to equal masses.
    """

    mu1: float
    mu2: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.mu1 < 1.0:
            raise ValueError(f"mu1 must lie strictly between 0 and 1, got {self.mu1}")
        object.__setattr__(self, "mu2", 1.0 - self.mu1)
        object.__setattr__(self, "delta", 2.0 * self.mu1 - 1.0)

    @classmethod
    def from_masses(cls, mass1: float, mass2: float) -> "MassFractions":
        """Build fractions from raw (positive, finite) masses."""
        if not (math.isfinite(mass1) and math.isfinite(mass2)):
            raise ValueError(f"masses must be finite, got {mass1}, {mass2}")
        if mass1 <= 0.0 or mass2 <= 0.0:
            raise ValueError(f"masses must be positive, got {mass1}, {mass2}")
        if math.isinf(mass1 + mass2):  # halving is exact and keeps the fractions
            mass1, mass2 = 0.5 * mass1, 0.5 * mass2
        total = mass1 + mass2
        mu = cls(mass1 / total)
        object.__setattr__(mu, "mu2", mass2 / total)
        object.__setattr__(mu, "delta", (mass1 - mass2) / total)
        return mu


def d_minus_half(mu: MassFractions, sigma1_sq: float, sigma2_sq: float) -> float:
    """Distance d - 1/2 of the entanglement scalar from its floor.

    With the coupling x = dm (mu1 s1 - mu2 s2) / sqrt(s1 s2), dm = mu1 - mu2,
    the blocks give d^2 - 1/4 = x^2, so d - 1/2 = x^2 / (d + 1/2) with no
    subtraction of nearby numbers.  Depends on the widths only through
    their ratio; exactly 0 for equal masses and for mu1 s1 = mu2 s2.
    """
    if sigma1_sq <= 0.0 or sigma2_sq <= 0.0:
        raise ValueError("widths must be positive")
    x = mu.delta * (mu.mu1 * sigma1_sq - mu.mu2 * sigma2_sq) / (
        math.sqrt(sigma1_sq) * math.sqrt(sigma2_sq)
    )
    # x * (x / ...) rather than x**2 / ..., which overflows for large x.
    return x * (x / (math.hypot(0.5, x) + 0.5))


def entropy_from_d_minus_half(e: float) -> float:
    """Von Neumann entropy in bits of a one-mode Gaussian with d = 1/2 + e.

    S = (d + 1/2) log2(d + 1/2) - (d - 1/2) log2(d - 1/2) is evaluated as
    (log(1 + e) + e log(1 + 1/e)) / ln 2, exactly 0 at e = 0 and strictly
    increasing in e.
    """
    if not e >= 0.0:
        raise ValueError(f"d - 1/2 must be non-negative, got {e}")
    if e == 0.0:
        return 0.0
    # Below e = 1, e log(1 + 1/e) is summed from two positive logs: 1/e
    # overflows when e is subnormal.
    tail = e * math.log1p(1.0 / e) if e >= 1.0 else e * (math.log1p(e) - math.log(e))
    return (math.log1p(e) + tail) / math.log(2.0)


def purity_from_d(d: float) -> float:
    """Purity of a one-mode Gaussian state: 1 / (2 d), equal to 1 only for
    the pure reduced state at d = 1/2."""
    if d < 0.5:
        raise ValueError(f"d must be at least 1/2, got {d}")
    return 1.0 / (2.0 * d)
