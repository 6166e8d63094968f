"""Entanglement generated by 1D scattering of two Gaussian wave packets
off hard-core repulsion.

Closed-form covariance route, wave-function geometry, and an
independent grid/Schmidt-decomposition cross-check, plus a CLI for
reproducible parameter sweeps.  Import names from their modules, for
example ``from hcscatter.covariance import MassFractions``.
"""

from . import covariance, ellipse, gridsim, scattering

__version__ = "0.1.0"
