"""Two-layer hydrostatic equilibrium profiles.

The density profile in each layer solves P'(rho) rho' = -rho * g with a
prescribed density anchor on the upper side of the interface; the lower
anchor is the unique root of the pressure-matching equation, so the
pressure-jump condition holds by construction.

Both supported laws are one power law P = K * rho**gamma, the linear law
being gamma = 1 with K = c2, and solve the layer equation in closed form.
With the scale height H = P'(anchor) / g,

    gamma = 1:   rho(y3) = anchor * exp(-y3 / H)
    gamma > 1:   rho(y3) = anchor * (1 - (gamma - 1) * y3 / H) ** (1 / (gamma - 1))

that is rho**(gamma-1) = anchor**(gamma-1) - (gamma-1)*g*y3/(K*gamma).
Density decreases strictly with height in each layer, so the non-vacuum
check at the layer's top end is exact.  :class:`PressureLaw` owns these
closed forms; a profile stores only the laws, anchors and g, and evaluates
any height on demand.  P'(rho)*rho rises with rho for both laws, so
the extrema read elsewhere (sup rho, inf and sup P'(rho)*rho) sit at layer
endpoints and are evaluated there; no sample table is kept.
The CSV export (:meth:`EquilibriumProfile.to_csv`) evaluates the closed
forms at the mesh nodes it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, open_artifact

#: non-vacuum floor, relative to the interface anchor of the layer
VACUUM_FLOOR = 1e-8


@dataclass(frozen=True)
class PressureLaw:
    """Barotropic power law P(tau) = K * tau**gamma, smooth and strictly
    increasing on (0, inf).

    The linear law is gamma = 1, whose K is the squared sound speed c2
    (P = c2 * tau); a polytropic law has gamma > 1.  Construction raises
    InputError for any other parameters, and :meth:`polytropic` also for
    gamma = 1.  The law also owns the closed-form hydrostatic layer of the
    module docstring (:meth:`density`).
    """

    K: float
    gamma: float = 1.0

    @staticmethod
    def linear(c2: float) -> "PressureLaw":
        return PressureLaw(float(c2))

    @staticmethod
    def polytropic(K: float, gamma: float) -> "PressureLaw":
        if gamma == 1.0:
            raise InputError("polytropic law needs gamma > 1; gamma = 1 is the linear law")
        return PressureLaw(float(K), float(gamma))

    def __post_init__(self):
        if self.gamma == 1.0:
            if not 0.0 < self.K < math.inf:
                raise InputError(f"linear law needs finite c2 > 0, got {self.K}")
        elif not (0.0 < self.K < math.inf and 1.0 < self.gamma < math.inf):
            raise InputError(f"polytropic law needs finite K > 0 and gamma > 1, "
                             f"got K={self.K}, gamma={self.gamma}")

    # pow(x, 1) = x and pow(x, 0) = 1 exactly, so the linear law keeps its bits
    def value(self, tau):
        return self.K * np.power(tau, self.gamma)

    def derivative(self, tau):
        return self.K * self.gamma * np.power(tau, self.gamma - 1.0)

    def inverse(self, p: float) -> float:
        """Unique positive root of P(tau) = p (strict monotonicity)."""
        if not 0.0 < p < math.inf:
            raise InputError(f"pressure matching target must be positive and finite, got {p}")
        return (p / self.K) ** (1.0 / self.gamma)

    def density(self, anchor: float, g: float, y3) -> np.ndarray:
        """Closed-form hydrostatic density at heights y3 of a layer whose
        interface density is ``anchor``."""
        y3 = np.atleast_1d(np.asarray(y3, dtype=float))
        scaled = y3 * (g / float(self.derivative(anchor)))     # y3 / H, +-0 at g = 0
        e = self.gamma - 1.0
        if e == 0.0:
            return anchor * np.exp(-scaled)
        # clipped at the vacuum height, where the base reaches 0
        return anchor * np.maximum(1.0 - e * scaled, 0.0) ** (1.0 / e)

    def floor_height(self, anchor: float, g: float, floor: float) -> float:
        """Height where the density falls from ``anchor`` to ``floor`` (< anchor, g > 0)."""
        H = float(self.derivative(anchor)) / g
        e = self.gamma - 1.0
        if e == 0.0:
            return H * math.log(anchor / floor)
        return H * (1.0 - (floor / anchor) ** e) / e

    def describe(self) -> str:
        if self.gamma == 1.0:
            return f"linear c2={self.K:g}"
        return f"polytropic K={self.K:g} gamma={self.gamma:g}"


@dataclass(frozen=True)
class Geometry:
    """Layer heights and horizontal periodicity lengths.

    The interface sits at y3 = 0, so h_minus < 0 < h_plus.  The horizontal
    cell is (2*pi*L1) x (2*pi*L2) periodic.
    """

    h_minus: float
    h_plus: float
    L1: float
    L2: float

    def __post_init__(self):
        if not -math.inf < self.h_minus < 0.0 < self.h_plus < math.inf:
            raise InputError(f"need finite h_minus < 0 < h_plus, got {self.h_minus}, {self.h_plus}")
        if not (0.0 < self.L1 < math.inf and 0.0 < self.L2 < math.inf):
            raise InputError(f"need finite positive periods, got L1={self.L1}, L2={self.L2}")

    @property
    def height(self) -> float:
        return self.h_plus - self.h_minus


@dataclass(frozen=True)
class EquilibriumProfile:
    """Immutable two-layer hydrostatic equilibrium.

    Construction goes through :func:`build_profile`; instances are safe to
    share across threads.
    """

    geometry: Geometry
    law_plus: PressureLaw
    law_minus: PressureLaw
    g: float
    rho_interface_plus: float
    rho_interface_minus: float

    def evaluate_layer(self, y3: np.ndarray, side: str):
        """(rho, rho', P'(rho)*rho) at heights y3, all attributed to layer
        ``side`` ('+' or '-').

        rho' is recovered from the hydrostatic identity rho' = -rho*g/P'(rho),
        never by numerical differentiation.
        """
        if side == "+":
            law, anchor = self.law_plus, self.rho_interface_plus
        else:
            law, anchor = self.law_minus, self.rho_interface_minus
        rho = law.density(anchor, self.g, y3)
        dP = law.derivative(rho)
        rho_prime = -rho * self.g / dP
        return rho, rho_prime, dP * rho

    @property
    def density_jump(self) -> float:
        """Interface jump [[rho]] = rho(0+) - rho(0-)."""
        return self.rho_interface_plus - self.rho_interface_minus

    def sup_density(self) -> float:
        """max rho: density falls with y3, so the upper anchor or rho(h_minus)."""
        rho_bottom = self.evaluate_layer(self.geometry.h_minus, "-")[0][0]
        return max(self.rho_interface_plus, float(rho_bottom))

    def to_csv(self, path, nodes: np.ndarray) -> None:
        """Export the profile at the ascending mesh ``nodes`` (one at 0):
        columns y3, rho, rho_prime, p_prime_rho, layer.  The interface node
        appears in both layers, with each layer's one-sided values."""
        lines = [
            "# upper: %s; lower: %s; g=%s; rho(0+)=%s; rho(0-)=%s"
            % (
                self.law_plus.describe(),
                self.law_minus.describe(),
                format(self.g, ".17g"),
                format(self.rho_interface_plus, ".17g"),
                format(self.rho_interface_minus, ".17g"),
            ),
            "y3,rho,rho_prime,p_prime_rho,layer",
        ]
        for side, name, y in (("-", "lower", nodes[nodes <= 0.0]),
                              ("+", "upper", nodes[nodes >= 0.0])):
            rho, rho_p, pp = self.evaluate_layer(y, side)
            for yv, r, rp, ppr in zip(y, rho, rho_p, pp):
                lines.append(
                    ",".join(format(v, ".17g") for v in (yv, r, rp, ppr)) + "," + name
                )
        with open_artifact(path) as fh:
            fh.write("\n".join(lines) + "\n")


def _check_layer(law: PressureLaw, anchor: float, h: float, g: float) -> None:
    """InputError unless the layer from the interface to y3 = h stays above the
    non-vacuum floor and below the float range."""
    floor = VACUUM_FLOOR * anchor
    # density is monotone in the layer, so its far end bounds every height
    with np.errstate(over="ignore"):
        rho_h = float(law.density(anchor, g, h)[0])
    if rho_h < floor:
        raise InputError(
            f"density reached the non-vacuum floor at y3={law.floor_height(anchor, g, floor):.6g} "
            f"before {h:.6g}"
        )
    if rho_h == math.inf:
        raise InputError(f"density overflows before the layer end y3={h:.6g}")


def build_profile(
    geometry: Geometry,
    law_plus: PressureLaw,
    law_minus: PressureLaw,
    g: float,
    rho_plus_at_interface: float,
) -> EquilibriumProfile:
    """Construct the equilibrium profile for the given anchors and laws.

    The lower-layer anchor solves P_minus(tau) = P_plus(rho_plus_at_interface),
    which exists and is unique by strict monotonicity.
    """
    if not 0.0 <= g < math.inf:
        raise InputError(f"g must be nonnegative and finite, got {g}")
    if not 0.0 < rho_plus_at_interface < math.inf:
        raise InputError(f"upper anchor must be positive and finite, got {rho_plus_at_interface}")

    p_match = float(law_plus.value(rho_plus_at_interface))
    rho_minus = law_minus.inverse(p_match)

    _check_layer(law_plus, rho_plus_at_interface, geometry.h_plus, g)
    _check_layer(law_minus, rho_minus, geometry.h_minus, g)

    return EquilibriumProfile(
        geometry=geometry,
        law_plus=law_plus,
        law_minus=law_minus,
        g=g,
        rho_interface_plus=float(rho_plus_at_interface),
        rho_interface_minus=float(rho_minus),
    )


def infimum_p_prime_rho(profile: EquilibriumProfile) -> float:
    """Infimum of P'(rho)*rho over both layers.

    P'(rho)*rho rises with rho and rho falls with y3, so the infimum is at
    the top of a layer: y3 = h_plus above the interface, 0 below it.
    """
    top_plus = profile.evaluate_layer(profile.geometry.h_plus, "+")[2][0]
    top_minus = profile.evaluate_layer(0.0, "-")[2][0]
    return float(min(top_plus, top_minus))


def supremum_p_prime_rho(profile: EquilibriumProfile) -> float:
    """Supremum of P'(rho)*rho over both layers, by the same argument at the
    bottom of a layer: y3 = 0 above the interface, h_minus below it."""
    return float(max(profile.evaluate_layer(0.0, "+")[2][0],
                     profile.evaluate_layer(profile.geometry.h_minus, "-")[2][0]))
