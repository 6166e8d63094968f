"""Entanglement generated by 1D scattering of two Gaussian wave packets
off hard-core repulsion.

Closed-form covariance route, wave-function geometry, and an
independent grid/Schmidt-decomposition cross-check, plus a CLI for
reproducible parameter sweeps.  The public names of each module are
re-exported here.
"""

from . import covariance, ellipse, gridsim, scattering
from .covariance import *  # noqa: F403
from .ellipse import *  # noqa: F403
from .gridsim import *  # noqa: F403
from .scattering import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *covariance.__all__,
    *ellipse.__all__,
    *gridsim.__all__,
    *scattering.__all__,
    "__version__",
]
