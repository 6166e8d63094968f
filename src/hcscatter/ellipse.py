"""Geometry of the post-collision wave function.

Dropping displacements and phases, the outgoing two-particle Gaussian is
``exp(-x^T M x / 2)`` for a positive-definite 2x2 form M, and its
constant-amplitude contour ``x^T M x = 1`` is an ellipse in the
(x1, x2) plane.  The incoming product state gives an axis-aligned ellipse
with semi-axes sigma1, sigma2; the collision maps it to a tilted one of
equal area, det M = 1 / (sigma1^2 sigma2^2).  The tilt angle and the
stretch of the axes encode how much entanglement was generated; in the
wide-packet limit sigma1 >> sigma2 both reduce to expressions in mu1,
which degrade below width ratio 10 (the CLI's ellipse mode warns there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import MassFractions

__all__ = [
    "EllipseShape",
    "scattered_form",
    "scattered_ellipse",
    "stretch_polynomial",
    "approx_final_ellipse",
]

_DEGENERATE_REL_TOL = 1e-12


@dataclass(frozen=True)
class EllipseShape:
    """Semi-axes and tilt of an origin-centered ellipse.

    ``angle_rad`` is the direction of the semi-major axis measured from
    the x1 axis, normalized to [0, pi): an axis is a line, not a ray.
    """

    semi_major: float
    semi_minor: float
    angle_rad: float

    def __post_init__(self) -> None:
        if not 0.0 < self.semi_minor <= self.semi_major:
            raise ValueError(
                f"semi-axes must satisfy semi_major >= semi_minor > 0, "
                f"got {self.semi_major}, {self.semi_minor}"
            )
        if not 0.0 <= self.angle_rad < math.pi:
            raise ValueError(f"angle must lie in [0, pi), got {self.angle_rad}")

    @property
    def area(self) -> float:
        return math.pi * self.semi_major * self.semi_minor

    def boundary_points(self, count: int = 64) -> np.ndarray:
        """Sample ``count`` points on the ellipse boundary, shape (count, 2)."""
        if count < 1:
            raise ValueError(f"need at least one boundary point, got {count}")
        t = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        ca, sa = math.cos(self.angle_rad), math.sin(self.angle_rad)
        major = np.array([ca, sa])
        minor = np.array([-sa, ca])
        return (
            self.semi_major * np.cos(t)[:, None] * major
            + self.semi_minor * np.sin(t)[:, None] * minor
        )


def scattered_form(mu: MassFractions, sigma1_sq: float, sigma2_sq: float) -> np.ndarray:
    """Quadratic form M of the outgoing Gaussian as a read-only 2x2 array.

    With dm = mu1 - mu2:

    * M11 = dm^2 / s1 + 4 mu1^2 / s2
    * M22 = 4 mu2^2 / s1 + dm^2 / s2
    * M12 = 2 dm (mu2 / s1 - mu1 / s2)

    This is L^T diag(1/s1, 1/s2) L for the position mixing
    L = [[dm, 2 mu2], [2 mu1, -dm]] (det L = -1, so areas are preserved)
    that the bounce applies to the arguments of the packet factors.  The
    off-diagonal entry vanishes exactly when mu1 = mu2 or when
    mu1 s1 = mu2 s2, the two cases in which the outgoing wave function
    factorizes and no entanglement is generated.
    """
    if sigma1_sq <= 0.0 or sigma2_sq <= 0.0:
        raise ValueError("widths must be positive")
    dm = mu.delta
    s1, s2 = sigma1_sq, sigma2_sq
    m11 = dm**2 / s1 + 4.0 * mu.mu1**2 / s2
    m22 = 4.0 * mu.mu2**2 / s1 + dm**2 / s2
    m12 = 2.0 * dm * (mu.mu2 / s1 - mu.mu1 / s2)
    form = np.array([[m11, m12], [m12, m22]])
    form.setflags(write=False)
    return form


def scattered_ellipse(mu: MassFractions, sigma1_sq: float, sigma2_sq: float) -> EllipseShape:
    """The outgoing ellipse x^T M x = 1 of ``scattered_form``.

    The short axis is 1 / sqrt(lam_high) for the large eigenvalue of
    M = [[a, b], [b, c]].  The small one cancels, so the long axis comes
    from det M = 1 / (s1 s2) as sqrt(s1) sqrt(s2) sqrt(lam_high).  A circle
    (eigenvalues equal within 1e-12 relative) gets angle 0.
    """
    # Widths scaled by an exact power of four keep every entry of M finite.
    k = (math.frexp(sigma1_sq)[1] + math.frexp(sigma2_sq)[1]) // 4
    s1, s2 = math.ldexp(sigma1_sq, -2 * k), math.ldexp(sigma2_sq, -2 * k)
    m = scattered_form(mu, s1, s2)
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    disc = math.hypot(0.5 * (a - c), b)
    lam_high = 0.5 * (a + c) + disc
    root_det = math.sqrt(s1) * math.sqrt(s2)
    if 2.0 * disc <= _DEGENERATE_REL_TOL * lam_high:
        radius = math.ldexp(math.sqrt(root_det), k)
        return EllipseShape(radius, radius, 0.0)
    # The long axis lies at half the angle of the vector (c - a, -2b).
    # Unlike an eigenvector built from the small eigenvalue, this keeps its
    # relative accuracy when b is tiny.  A tilt just below 0 can round onto
    # pi in the reduction; that is reported as 0.
    angle = 0.5 * math.atan2(-2.0 * b, c - a) % math.pi
    if angle == math.pi:
        angle = 0.0
    root_high = math.sqrt(lam_high)
    return EllipseShape(math.ldexp(root_det * root_high, k), math.ldexp(1.0 / root_high, k), angle)


def stretch_polynomial(x: float) -> float:
    """The axis-stretch factor Q(x) = 8 x^2 - 4 x + 1 of the wide-packet limit.

    On (0, 1) it ranges between 1/2 (at x = 1/4) and 5 (toward x = 1): the
    long axis of the outgoing ellipse is sigma1 sqrt(Q), so the collision
    can stretch it by up to sqrt(5) or shrink it by up to sqrt(2).
    """
    return 8.0 * x**2 - 4.0 * x + 1.0


def _approx_angle(mu1: float) -> float:
    if mu1 == 0.5:
        return 0.5 * math.pi
    raw = math.atan(2.0 * mu1 / (2.0 * mu1 - 1.0))
    # Below equal mass the raw arctangent is negative; shifting by pi puts
    # the axis direction in (pi/2, pi) where it belongs.
    return raw + math.pi if mu1 < 0.5 else raw


def approx_final_ellipse(mu1: float, sigma1: float, sigma2: float) -> EllipseShape:
    """Wide-packet approximation of the outgoing ellipse.

    Valid for sigma1 >> sigma2; it degrades below ratio 10 (unchecked here):
    the axis along the wide packet becomes sigma1 sqrt(Q(mu1)), the other
    shrinks by the same factor to preserve area, and the tilt of the first
    is arctan(2 mu1 / (2 mu1 - 1)) resolved so that mu1 > 1/2 lands in
    (arctan 2, pi/2), mu1 < 1/2 in (pi/2, pi) and mu1 = 1/2 at pi/2.
    Takes the bare fraction mu1 in (0, 1].  Far outside its range of
    validity the second axis can come out longer; the axes are then
    swapped and the angle turned by pi/2 so that the shape stays valid.
    """
    if sigma1 <= 0.0 or sigma2 <= 0.0:
        raise ValueError("widths must be positive")
    if not 0.0 < mu1 <= 1.0:
        raise ValueError(f"mu1 must lie in (0, 1], got {mu1}")
    stretch = math.sqrt(stretch_polynomial(mu1))
    wide, narrow, angle = stretch * sigma1, sigma2 / stretch, _approx_angle(mu1)
    if wide < narrow:
        return EllipseShape(narrow, wide, (angle + 0.5 * math.pi) % math.pi)
    return EllipseShape(wide, narrow, angle)
