"""Geometry of the post-collision wave function.

Dropping displacements and phases, the outgoing two-particle Gaussian is
``exp(-x^T M x / 2)`` for a positive-definite 2x2 form M, and its
constant-amplitude contour ``x^T M x = 1`` is an ellipse in the
(x1, x2) plane.  The incoming product state gives an axis-aligned ellipse
with semi-axes sigma1, sigma2; the collision maps it to a tilted one of
equal area.  The tilt angle and the stretch of the axes encode how much
entanglement was generated, and in the wide-packet limit
(sigma1 >> sigma2) both reduce to simple expressions in mu1 alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import MassFractions

__all__ = [
    "QuadraticForm2",
    "EllipseShape",
    "scattered_form",
    "ellipse_from_form",
    "stretch_polynomial",
    "approx_final_ellipse",
]

_SYMMETRY_TOL = 1e-12
_DEGENERATE_REL_TOL = 1e-12


@dataclass(frozen=True)
class QuadraticForm2:
    """A symmetric positive-definite 2x2 quadratic form."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        if entries.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {entries.shape}")
        if np.max(np.abs(entries - entries.T)) > _SYMMETRY_TOL:
            raise ValueError("quadratic form must be symmetric")
        if entries[0, 0] <= 0.0 or np.linalg.det(entries) <= 0.0:
            raise ValueError("quadratic form must be positive definite")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


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


def scattered_form(
    mu: MassFractions, sigma1_sq: float, sigma2_sq: float
) -> QuadraticForm2:
    """Quadratic form M of the outgoing Gaussian, entry by entry.

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
    return QuadraticForm2(np.array([[m11, m12], [m12, m22]]))


def ellipse_from_form(form: QuadraticForm2) -> EllipseShape:
    """Ellipse x^T M x = 1 of a positive-definite form.

    Semi-axes are the inverse square roots of the eigenvalues (the small
    eigenvalue carries the long axis); the tilt is the direction of the
    eigenvector of the smaller eigenvalue.  The symmetric 2x2 eigenproblem
    is solved in closed form via trace and determinant, so no iteration or
    convergence tuning is involved.  For a circle (equal eigenvalues
    within 1e-12 relative) any direction is valid and the angle is
    defined as 0.
    """
    m = form.entries
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    half_trace = 0.5 * (a + c)
    disc = math.hypot(0.5 * (a - c), b)
    lam_low = half_trace - disc
    lam_high = half_trace + disc
    if lam_low <= 0.0:
        raise ValueError("quadratic form must be positive definite")
    if lam_high - lam_low <= _DEGENERATE_REL_TOL * lam_high:
        radius = 1.0 / math.sqrt(half_trace)
        return EllipseShape(radius, radius, 0.0)
    # The long axis lies at half the angle of the vector (c - a, -2b).
    # Unlike an eigenvector built from lam_low - a, this keeps its relative
    # accuracy when b is tiny.  A tilt just below 0 can round onto pi in
    # the reduction; that is reported as 0.
    angle = 0.5 * math.atan2(-2.0 * b, c - a) % math.pi
    if angle == math.pi:
        angle = 0.0
    return EllipseShape(1.0 / math.sqrt(lam_low), 1.0 / math.sqrt(lam_high), angle)


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

    Valid for sigma1 >> sigma2 (a warning is emitted below ratio 10):
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
    if sigma1 / sigma2 < 10.0:
        warnings.warn(
            f"width ratio {sigma1 / sigma2:.3g} is below 10; the wide-packet "
            "approximation degrades",
            stacklevel=2,
        )
    stretch = math.sqrt(stretch_polynomial(mu1))
    wide, narrow, angle = stretch * sigma1, sigma2 / stretch, _approx_angle(mu1)
    if wide < narrow:
        return EllipseShape(narrow, wide, (angle + 0.5 * math.pi) % math.pi)
    return EllipseShape(wide, narrow, angle)
