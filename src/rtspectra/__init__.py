"""Linear stability analysis of stratified compressible MHD and
viscoelastic Rayleigh-Taylor configurations.

The pipeline: hydrostatic two-layer equilibria (equilibrium), per-mode
reduction of the 3D quadratic forms (modereduce), P1 finite-element
assembly (assembly), variational discriminants and growth rates
(spectral), closed-form criteria and witnesses (criteria), and direct
linearized evolution for cross-checks (evolution).
"""

from .equilibrium import (
    EquilibriumProfile,
    Geometry,
    PressureLaw,
    build_profile,
    infimum_p_prime_rho,
)
from .modereduce import FormCoefficients, FourierMode
from .params import MHD, VISCOELASTIC, PhysicalParams

__version__ = "0.1.0"

__all__ = [
    "EquilibriumProfile",
    "FormCoefficients",
    "FourierMode",
    "Geometry",
    "MHD",
    "PhysicalParams",
    "PressureLaw",
    "VISCOELASTIC",
    "build_profile",
    "infimum_p_prime_rho",
    "__version__",
]
