"""Entanglement generated by 1D scattering of two Gaussian wave packets
off hard-core repulsion: a closed-form covariance route, the wave-function
geometry, a grid/Schmidt cross-check (``gridsim``, the one module that
imports numpy) and a CLI.  Importing the package loads none of its modules;
import names from them, e.g. ``from hcscatter.covariance import MassFractions``.
"""

__version__ = "0.1.0"
