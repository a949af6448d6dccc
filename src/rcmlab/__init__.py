"""Numerical laboratory for random walks among random conductances.

Samples conductance environments on the discrete torus, computes the walk's
heat kernel to a certified tolerance by a Chebyshev series, fits and verifies
Gaussian envelopes, runs ball-chain lower bounds, estimates concentration
exponents of rectangle sums, and evaluates Green kernels in transient
dimensions.
"""

__version__ = "0.1.0"

from .environment import ConductanceField, EnvironmentSpec, sample_environment
from .kernel import heat_kernel, jump_kernel, spectral_oracle
from .lattice import HyperRectangle, TorusGeometry

__all__ = [
    "__version__",
    "ConductanceField",
    "EnvironmentSpec",
    "HyperRectangle",
    "TorusGeometry",
    "heat_kernel",
    "jump_kernel",
    "sample_environment",
    "spectral_oracle",
]
