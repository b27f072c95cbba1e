"""Physical parameter bundle shared by the form and assembly layers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .errors import InputError

MHD = "mhd"
VISCOELASTIC = "viscoelastic"


@dataclass(frozen=True)
class PhysicalParams:
    """Viscosities, base magnetic field and elasticity coefficients.

    ``mu`` is the shear viscosity, ``bulk`` the bulk viscosity (the paper-
    style combination bulk - 2*mu/3 may be negative), ``lam`` the magnetic
    permeability factor, ``M`` the constant base field, ``kappa`` the
    elasticity coefficient per layer.
    """

    mu_plus: float = 1.0
    mu_minus: float = 1.0
    bulk_plus: float = 0.0
    bulk_minus: float = 0.0
    lam: float = 1.0
    M: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    kappa_plus: float = 0.0
    kappa_minus: float = 0.0
    medium: str = MHD

    def __post_init__(self):
        for name in ("mu_plus", "mu_minus", "lam"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise InputError(f"{name} must be positive and finite, got {value}")
        for name in ("bulk_plus", "bulk_minus", "kappa_plus", "kappa_minus"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise InputError(f"{name} must be nonnegative and finite, got {value}")
        if not all(math.isfinite(m) for m in self.M):
            raise InputError(f"base field M must be finite, got {self.M}")
        if not math.isfinite(self.lam_M2):
            raise InputError(f"lambda*|M|^2 must be finite, got lambda = {self.lam:.3e} and "
                             f"M = ({', '.join(f'{m:.3e}' for m in self.M)})")
        if self.medium not in (MHD, VISCOELASTIC):
            raise InputError(f"medium must be '{MHD}' or '{VISCOELASTIC}'")

    @property
    def lam_M2(self) -> float:
        """lambda*|M|^2, the scale of the magnetic form."""
        return self.lam * sum(m * m for m in self.M)
