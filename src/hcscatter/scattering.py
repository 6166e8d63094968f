"""Scenario-level interface: validated collision parameters and the
entanglement they generate.

Two Gaussian packets approach each other head-on, particle 1 from the
right (center q1 > 0, momentum -K) and particle 2 from the left (center
-q2 < 0, momentum +K), and bounce off hard-core repulsion of radius a.
The asymptotic entanglement depends only on the mass fractions and the
width ratio; positions, momentum and core radius drop out.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

from .covariance import MassFractions

__all__ = [
    "ScatterParams",
    "ZeroEntanglementClass",
    "is_zero_entanglement",
    "d_asymptotic",
]

# Half-width of each zero-entanglement locus in is_zero_entanglement.
_LOCUS_TOL = 1e-9

# momentum ** 2, the rate of the packets' free phase, overflows above ~1.34e154.
_MAX_MOMENTUM = 1e154


class ZeroEntanglementClass(enum.Enum):
    """Which exact condition, if any, forces vanishing entanglement."""

    EQUAL_MASS = "EqualMass"
    WIDTH_MASS_BALANCE = "WidthMassBalance"
    NONE = "None"


@dataclass(frozen=True)
class ScatterParams:
    """Full parameter set of one collision scenario.

    Masses are validated and normalized to unit total mass on
    construction by ``MassFractions.from_masses``; ``mass1``/``mass2``
    then hold the fractions, which are also kept as ``fractions`` (only
    the fractions matter for the entanglement).  Times fed to the grid
    simulator are therefore measured in the matching unit.  Every number
    must be finite, the widths and their ratio normal floats, and the
    momentum at most 1e154.

    ``q1``/``q2`` default to ``8 * max(sigma1, sigma2) + core_radius`` so
    that the initial packets overlap neither each other nor the core; when
    the widths are too small for that sum to exceed ``core_radius``, to
    the next float above it.
    """

    mass1: float
    mass2: float
    sigma1_sq: float
    sigma2_sq: float
    momentum: float = 1.0
    core_radius: float = 0.0
    q1: float | None = None
    q2: float | None = None
    fractions: MassFractions = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mu = MassFractions.from_masses(self.mass1, self.mass2)
        for name in ("sigma1_sq", "sigma2_sq", "momentum", "core_radius", "q1", "q2"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sigma1_sq <= 0.0 or self.sigma2_sq <= 0.0:
            raise ValueError(
                f"widths must be positive, got sigma1_sq={self.sigma1_sq}, "
                f"sigma2_sq={self.sigma2_sq}"
            )
        # Subnormal widths, or a ratio that under- or overflows, have lost
        # their digits before the closed form sees them.
        ratio = self.sigma1_sq / self.sigma2_sq
        if min(self.sigma1_sq, self.sigma2_sq, ratio) < sys.float_info.min or math.isinf(ratio):
            raise ValueError(
                f"width ratio out of range: sigma1_sq, sigma2_sq and their ratio must be "
                f"normal floats, got sigma1_sq={self.sigma1_sq}, sigma2_sq={self.sigma2_sq}"
            )
        if self.momentum <= 0.0:
            raise ValueError(
                f"momentum must be positive so the packets approach each other, "
                f"got {self.momentum}"
            )
        if self.momentum > _MAX_MOMENTUM:
            raise ValueError(f"momentum must be at most {_MAX_MOMENTUM:g}, got {self.momentum}")
        if self.core_radius < 0.0:
            raise ValueError(f"core radius must be non-negative, got {self.core_radius}")
        object.__setattr__(self, "fractions", mu)
        object.__setattr__(self, "mass1", mu.mu1)
        object.__setattr__(self, "mass2", mu.mu2)
        default_q = 8.0 * math.sqrt(max(self.sigma1_sq, self.sigma2_sq)) + self.core_radius
        default_q = max(default_q, math.nextafter(self.core_radius, math.inf))
        if self.q1 is None:
            object.__setattr__(self, "q1", default_q)
        if self.q2 is None:
            object.__setattr__(self, "q2", default_q)
        if self.q1 <= self.core_radius or self.q2 <= self.core_radius:
            raise ValueError(
                f"packets must start outside the core: need q1, q2 > "
                f"{self.core_radius}, got q1={self.q1}, q2={self.q2}"
            )

    @property
    def width_ratio(self) -> float:
        """sigma1 / sigma2 (widths, not squared widths)."""
        return math.sqrt(self.sigma1_sq / self.sigma2_sq)


def is_zero_entanglement(params: ScatterParams) -> ZeroEntanglementClass:
    """Classify whether the scenario sits on a zero-entanglement locus.

    Equal masses are detected with an absolute tolerance on |mu1 - mu2|
    (fractions are already normalized); the width/mass balance
    mu1 s1 = mu2 s2 with a relative one (scale-free in the widths).
    Equal masses take precedence when both conditions hold.
    """
    mu = params.fractions
    if abs(mu.delta) <= _LOCUS_TOL:
        return ZeroEntanglementClass.EQUAL_MASS
    lhs = mu.mu1 * params.sigma1_sq
    rhs = mu.mu2 * params.sigma2_sq
    if abs(lhs - rhs) <= _LOCUS_TOL * max(lhs, rhs):
        return ZeroEntanglementClass.WIDTH_MASS_BALANCE
    return ZeroEntanglementClass.NONE


def d_asymptotic(mu1: float, width_ratio: float) -> float:
    """Leading-order d for a large width ratio: |2 mu1 - 1| mu1 sigma1/sigma2.

    Takes the bare fraction mu1 in (0, 1] so that it also admits the
    closed-interval limit mu1 = 1, where the expression attains its global
    maximum (``MassFractions`` keeps mu1 strictly inside the open
    interval).
    """
    if width_ratio <= 0.0:
        raise ValueError(f"width ratio must be positive, got {width_ratio}")
    if not 0.0 < mu1 <= 1.0:
        raise ValueError(f"mu1 must lie in (0, 1], got {mu1}")
    return abs(2.0 * mu1 - 1.0) * mu1 * width_ratio
