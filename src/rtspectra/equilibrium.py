"""Two-layer hydrostatic equilibrium profiles.

The density profile in each layer solves P'(rho) rho' = -rho * g with a
prescribed density anchor on the upper side of the interface; the lower
anchor is the unique root of the pressure-matching equation, so the
pressure-jump condition holds by construction.

Both supported laws solve the layer equation in closed form.  With the
scale height H = P'(anchor) / g,

    linear:      rho(y3) = anchor * exp(-y3 / H)
    polytropic:  rho(y3) = anchor * (1 - (gamma - 1) * y3 / H) ** (1 / (gamma - 1))

that is rho**(gamma-1) = anchor**(gamma-1) - (gamma-1)*g*y3/(K*gamma).
Density decreases strictly with height in each layer, so the non-vacuum
check at the layer's top end is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InputError

#: points per layer in the exported sample table
TABLE_POINTS = 1024
#: geometric clustering ratio of the sample table toward the interface
TABLE_RATIO = 1.05
#: non-vacuum floor, relative to the interface anchor of the layer
VACUUM_FLOOR = 1e-8


@dataclass(frozen=True)
class PressureLaw:
    """Barotropic pressure law, smooth and strictly increasing on (0, inf).

    Supported kinds: ``linear`` with P(tau) = c2 * tau, and ``polytropic``
    with P(tau) = K * tau**gamma (gamma > 1).
    """

    kind: str
    c2: float = 0.0
    K: float = 0.0
    gamma: float = 0.0

    @staticmethod
    def linear(c2: float) -> "PressureLaw":
        law = PressureLaw(kind="linear", c2=float(c2))
        law.validate()
        return law

    @staticmethod
    def polytropic(K: float, gamma: float) -> "PressureLaw":
        law = PressureLaw(kind="polytropic", K=float(K), gamma=float(gamma))
        law.validate()
        return law

    def validate(self) -> None:
        if self.kind == "linear":
            if not 0.0 < self.c2 < math.inf:
                raise InputError(f"linear law needs finite c2 > 0, got {self.c2}")
        elif self.kind == "polytropic":
            if not (0.0 < self.K < math.inf and 1.0 < self.gamma < math.inf):
                raise InputError(f"polytropic law needs finite K > 0 and gamma > 1, "
                                 f"got K={self.K}, gamma={self.gamma}")
        else:
            raise InputError(f"unknown pressure law kind {self.kind!r}")

    def value(self, tau):
        if self.kind == "linear":
            return self.c2 * tau
        return self.K * np.power(tau, self.gamma)

    def derivative(self, tau):
        if self.kind == "linear":
            return self.c2 * np.ones_like(np.asarray(tau, dtype=float))
        return self.K * self.gamma * np.power(tau, self.gamma - 1.0)

    def inverse(self, p: float) -> float:
        """Unique positive root of P(tau) = p (strict monotonicity)."""
        if not 0.0 < p < math.inf:
            raise InputError(f"pressure matching target must be positive and finite, got {p}")
        if self.kind == "linear":
            return p / self.c2
        return (p / self.K) ** (1.0 / self.gamma)

    def describe(self) -> str:
        if self.kind == "linear":
            return f"linear c2={self.c2:g}"
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


def _clustered_grid(h_from0: float, n: int = TABLE_POINTS, ratio: float = TABLE_RATIO) -> np.ndarray:
    """Grid on [0, |h|] with spacing growing geometrically away from 0.

    The literal ratio**k progression collapses below float spacing for large
    n, so growth stops once the first element would drop under 1e-9 * |h|;
    the remaining elements stay uniform at the floor.
    """
    H = abs(h_from0)
    floor = 1e-9
    # choose m = number of geometric steps so that h0 = H*(r-1)/(r^m-1) stays above floor*H
    m = n - 1
    if ratio > 1.0:
        m_max = int(math.floor(math.log1p((ratio - 1.0) / floor) / math.log(ratio)))
        m = min(n - 1, max(1, m_max))
    sizes = np.full(n - 1, 1.0)
    sizes[:m] = ratio ** np.arange(m)
    sizes[m:] = ratio ** (m - 1)
    sizes *= H / sizes.sum()
    grid = np.concatenate(([0.0], np.cumsum(sizes)))
    grid[-1] = H
    return grid * np.sign(h_from0)


@dataclass
class _Layer:
    """One hydrostatic layer: closed-form density plus the sample table."""

    law: PressureLaw
    anchor: float                  # density at the interface side
    g: float
    y: np.ndarray                  # sample grid from 0 to h (monotone in y3)
    rho: np.ndarray = field(init=False)    # densities at the samples

    def density(self, y3: np.ndarray) -> np.ndarray:
        y3 = np.atleast_1d(np.asarray(y3, dtype=float))
        if self.g == 0.0:
            return np.full_like(y3, self.anchor)
        scaled = y3 * (self.g / float(self.law.derivative(self.anchor)))     # y3 / H
        if self.law.kind == "linear":
            return self.anchor * np.exp(-scaled)
        e = self.law.gamma - 1.0
        # clipped at the vacuum height, where the base reaches 0
        return self.anchor * np.maximum(1.0 - e * scaled, 0.0) ** (1.0 / e)

    def floor_height(self, floor: float) -> float:
        """Height where the density falls to ``floor`` (< anchor, g > 0)."""
        H = float(self.law.derivative(self.anchor)) / self.g
        if self.law.kind == "linear":
            return H * math.log(self.anchor / floor)
        e = self.law.gamma - 1.0
        return H * (1.0 - (floor / self.anchor) ** e) / e


@dataclass
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
    layer_plus: _Layer = field(repr=False)
    layer_minus: _Layer = field(repr=False)

    def _layer(self, side: str) -> _Layer:
        return self.layer_plus if side == "+" else self.layer_minus

    def evaluate(self, y3: float, side: Optional[str] = None):
        """Return (rho, rho', P'(rho)*rho) at height y3.

        rho' is recovered from the hydrostatic identity rho' = -rho*g/P'(rho),
        never by numerical differentiation.  y3 = 0 requires side '+' or '-'.
        """
        if not self.geometry.h_minus <= y3 <= self.geometry.h_plus:
            raise InputError(f"y3={y3} outside [{self.geometry.h_minus}, {self.geometry.h_plus}]")
        if y3 == 0.0:
            if side not in ("+", "-"):
                raise InputError("y3=0 requires side '+' or '-'")
        else:
            side = "+" if y3 > 0.0 else "-"
        rho, rho_p, pp_rho = self.evaluate_layer(np.array([y3]), side)
        return float(rho[0]), float(rho_p[0]), float(pp_rho[0])

    def evaluate_layer(self, y3: np.ndarray, side: str):
        """Vectorized evaluation with all points attributed to one layer."""
        layer = self._layer(side)
        rho = layer.density(np.asarray(y3, dtype=float))
        dP = layer.law.derivative(rho)
        rho_prime = -rho * self.g / dP
        return rho, rho_prime, dP * rho

    @property
    def density_jump(self) -> float:
        """Interface jump [[rho]] = rho(0+) - rho(0-)."""
        return self.rho_interface_plus - self.rho_interface_minus

    def sup_density(self) -> float:
        return max(float(self.layer_plus.rho.max()), float(self.layer_minus.rho.max()))

    def to_csv(self, path) -> None:
        """Export both layer tables: columns y3, rho, rho_prime, p_prime_rho."""
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
        for side, name in (("-", "lower"), ("+", "upper")):
            layer = self._layer(side)
            order = np.argsort(layer.y)
            rho, rho_p, pp = self.evaluate_layer(layer.y[order], side)
            for yv, r, rp, ppr in zip(layer.y[order], rho, rho_p, pp):
                lines.append(
                    ",".join(format(v, ".17g") for v in (yv, r, rp, ppr)) + "," + name
                )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _hydrostatic_layer(law: PressureLaw, anchor: float, h: float, g: float) -> _Layer:
    """Closed-form layer from the interface to y3 = h, with its sample table."""
    layer = _Layer(law=law, anchor=anchor, g=g, y=_clustered_grid(h))
    floor = VACUUM_FLOOR * anchor
    # density is monotone in the layer, so its far end bounds every sample
    with np.errstate(over="ignore"):
        rho_h = float(layer.density(h)[0])
    if rho_h < floor:
        raise InputError(
            f"density reached the non-vacuum floor at y3={layer.floor_height(floor):.6g} "
            f"before {h:.6g}"
        )
    if rho_h == math.inf:
        raise InputError(f"density overflows before the layer end y3={h:.6g}")
    layer.rho = layer.density(layer.y)
    return layer


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
    law_plus.validate()
    law_minus.validate()
    if not 0.0 <= g < math.inf:
        raise InputError(f"g must be nonnegative and finite, got {g}")
    if not 0.0 < rho_plus_at_interface < math.inf:
        raise InputError(f"upper anchor must be positive and finite, got {rho_plus_at_interface}")

    p_match = float(law_plus.value(rho_plus_at_interface))
    rho_minus = law_minus.inverse(p_match)

    layer_plus = _hydrostatic_layer(law_plus, rho_plus_at_interface, geometry.h_plus, g)
    layer_minus = _hydrostatic_layer(law_minus, rho_minus, geometry.h_minus, g)

    return EquilibriumProfile(
        geometry=geometry,
        law_plus=law_plus,
        law_minus=law_minus,
        g=g,
        rho_interface_plus=float(rho_plus_at_interface),
        rho_interface_minus=float(rho_minus),
        layer_plus=layer_plus,
        layer_minus=layer_minus,
    )


def check_rt_condition(profile: EquilibriumProfile):
    """Return (jump > 0, jump) for the interface density jump."""
    jump = profile.density_jump
    return jump > 0.0, jump


def infimum_p_prime_rho(profile: EquilibriumProfile) -> float:
    """Infimum of P'(rho)*rho over both layers.

    P'(rho)*rho is monotone in rho per layer and rho is monotone in y3, so
    the infimum sits at a layer endpoint; the table minimum is exact there.
    """
    values = []
    for side in ("+", "-"):
        layer = profile._layer(side)
        _, _, pp = profile.evaluate_layer(layer.y, side)
        values.append(pp.min())
    return float(min(values))
