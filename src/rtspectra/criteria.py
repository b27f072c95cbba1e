"""Closed-form sufficient criteria and explicit instability witnesses.

These are solver-independent certificates: threshold inequalities evaluate
to plain arithmetic on equilibrium quantities, and witness fields carry
their own closed-form energy value so positivity can be checked against
the assembled solver on the same mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import EquilibriumProfile, Geometry, infimum_p_prime_rho
from .errors import InputError, SolverError
from .modereduce import (
    FormCoefficients,
    FourierMode,
    ModeField,
    _leggauss,
    compressibility_form,
    energy_form,
    gravity_form,
)
from .params import MHD, PhysicalParams

#: background resolution of witness sample grids (per layer)
WITNESS_POINTS = 65536
#: background resolution of the tent witness grid (per half-support)
TENT_POINTS = 256
#: dyadic refinement levels inserted around coefficient or field kinks
KINK_LEVELS = 48
#: tent widths eps, eps/2, ..., eps/2**19 tried in turn by the small-field witness
TENT_WIDTHS = 20


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of one closed-form sufficient condition."""

    kind: str                      # 'vertical_field' or 'viscoelastic'
    threshold_value: float
    actual_value: float
    sufficient_stability: bool
    inputs: dict


@dataclass
class WitnessField:
    """Explicit trial field certifying instability when its energy is positive."""

    mode: FourierMode
    grid: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    psi: np.ndarray
    energy_value: float
    closed_form_value: float
    diagnostics: dict = field(default_factory=dict)

    def to_mode_field(self) -> ModeField:
        """Complex ModeField with the real-ansatz phase convention."""
        values = np.zeros((self.grid.size, 3), dtype=complex)
        values[:, 0] = -1j * self.phi
        values[:, 1] = -1j * self.theta
        values[:, 2] = self.psi
        values[0] = values[-1] = 0.0
        return ModeField(self.grid, values)


def vertical_field_threshold(profile: EquilibriumProfile, lam: float,
                             M3: float = 0.0) -> ThresholdReport:
    """Sufficient vertical-field strength for stability.

    threshold = (2*(g*(h+ - h-)*||rho||_inf)^2 / (P_inf*pi^2) + P_inf) / lam;
    stability is guaranteed when M3^2 strictly exceeds it.  The condition is
    sufficient, not necessary.
    """
    if not lam > 0:
        raise InputError("lam must be positive")
    geo = profile.geometry
    p_inf = infimum_p_prime_rho(profile)
    rho_max = profile.sup_density()
    gh = profile.g * geo.height * rho_max
    threshold = (2.0 * gh * gh / (p_inf * math.pi ** 2) + p_inf) / lam
    return ThresholdReport(
        kind="vertical_field",
        threshold_value=threshold,
        actual_value=M3 * M3,
        sufficient_stability=M3 * M3 > threshold,
        inputs={
            "p_inf": p_inf, "rho_max": rho_max, "g": profile.g,
            "h_minus": geo.h_minus, "h_plus": geo.h_plus, "lam": lam,
            "rho_jump": profile.density_jump,
        },
    )


def viscoelastic_threshold(profile: EquilibriumProfile, kappa_plus: float,
                           kappa_minus: float) -> ThresholdReport:
    """Sufficient elasticity for stability: g*[[rho]]*h+*h-/(h- - h+) < min kappa."""
    geo = profile.geometry
    jump = profile.density_jump
    threshold = profile.g * jump * geo.h_plus * geo.h_minus / (geo.h_minus - geo.h_plus)
    actual = min(kappa_plus, kappa_minus)
    return ThresholdReport(
        kind="viscoelastic",
        threshold_value=threshold,
        actual_value=actual,
        sufficient_stability=actual > threshold,
        inputs={
            "g": profile.g, "rho_jump": jump,
            "h_minus": geo.h_minus, "h_plus": geo.h_plus,
            "kappa_plus": kappa_plus, "kappa_minus": kappa_minus,
        },
    )


def _refine_around(grid: np.ndarray, points, levels: int = KINK_LEVELS) -> np.ndarray:
    """Insert dyadically shrinking nodes on both sides of each kink point."""
    extra = []
    h0 = np.max(np.diff(grid))
    for p in points:
        offsets = h0 * 0.5 ** np.arange(1, levels + 1)
        extra.append(p + offsets)
        extra.append(p - offsets)
        extra.append(np.array([p]))
    out = np.unique(np.concatenate([grid] + extra))
    return out[(out >= grid[0]) & (out <= grid[-1])]


def witness_grid(lower: float, upper: float, kinks=(), n: int = WITNESS_POINTS) -> np.ndarray:
    """Grid on [lower, upper] (lower < 0 < upper): n uniform elements on each
    side of 0, with dyadic clusters at 0 and the kinks."""
    base = np.unique(np.concatenate([
        np.linspace(lower, 0.0, n + 1),
        np.linspace(0.0, upper, n + 1),
    ]))
    return _refine_around(base, [0.0, *kinks])


def _grid_diagnostics(grid: np.ndarray) -> dict:
    return {"grid_nodes": int(grid.size), "h_min": float(np.min(np.diff(grid)))}


def _bump(y: np.ndarray, geometry: Geometry):
    """Quartic bump psi0 = ((h+ - y)(y - h-)/(-h+h-))^2 and its slope at y.

    psi0 is 1 at the interface.  The squared form also has vanishing slope
    at the walls, so the derived horizontal witness components vanish there
    and the whole witness is admissible; a plain quadratic bump would leave
    them nonzero at the Dirichlet boundary.
    """
    hp, hm = geometry.h_plus, geometry.h_minus
    base = (hp - y) * (y - hm) / (-hp * hm)
    return base ** 2, 2.0 * base * (hp + hm - 2.0 * y) / (-hp * hm)


def horizontal_field_witness(profile: EquilibriumProfile, params: PhysicalParams,
                             mode: FourierMode) -> WitnessField:
    """Explicit trial field for an mhd base field M = (M1, 0, 0).

    The choices theta0 = -xi2*psi0'/|xi|^2 and
    phi0 = (g*rho*psi0/(P'(rho)*rho) - psi0' - xi2*theta0)/xi1 collapse the
    energy to the closed form
    g*[[rho]]*psi0(0)^2 - lam*xi1^2*M1^2 * int(psi0^2 + psi0'^2/|xi|^2),
    which is positive for large enough first period.  psi0 is the quartic
    bump of :func:`_bump`, sampled on a :func:`witness_grid` of both layers.
    """
    if mode.xi1 == 0.0:
        raise InputError("witness needs xi1 != 0")
    if params.medium != MHD or params.M[1] != 0.0 or params.M[2] != 0.0:
        raise InputError("witness needs an mhd base field along the first axis")
    geo = profile.geometry
    grid = witness_grid(geo.h_minus, geo.h_plus)

    xi1, xi2 = mode.xi1, mode.xi2
    xi2n = mode.norm2
    psi, dpsi = _bump(grid, geo)
    theta = -xi2 * dpsi / xi2n

    # phi carries the equilibrium coefficients; two-sided at the interface node
    phi = np.empty_like(psi)
    lower = grid <= 0.0
    upper = ~lower
    iface = int(np.nonzero(grid == 0.0)[0][0])
    for mask, side in ((lower, "-"), (upper, "+")):
        rho, _, pp_rho = profile.evaluate_layer(grid[mask], side)
        phi[mask] = (profile.g * rho * psi[mask] / pp_rho - dpsi[mask] - xi2 * theta[mask]) / xi1
    rho_p, _, pp_p = profile.evaluate_layer(np.array([0.0]), "+")
    phi[iface] = (profile.g * rho_p[0] * psi[iface] / pp_p[0] - dpsi[iface] - xi2 * theta[iface]) / xi1

    witness = WitnessField(
        mode=mode, grid=grid, phi=phi, theta=theta, psi=psi,
        energy_value=0.0, closed_form_value=0.0,
    )
    fld = witness.to_mode_field()
    coeffs = FormCoefficients(profile, params, grid)
    witness.energy_value = energy_form(fld, coeffs, mode)
    witness.closed_form_value = closed_form_horizontal(profile, params, mode)
    witness.diagnostics = {
        "agreement": abs(witness.energy_value - witness.closed_form_value),
        "positive": witness.closed_form_value > 0.0,
        **_grid_diagnostics(grid),
    }
    return witness


def closed_form_horizontal(profile: EquilibriumProfile, params: PhysicalParams,
                           mode: FourierMode) -> float:
    """g*[[rho]]*psi0(0)^2 - lam*xi1^2*M1^2 * int(psi0^2 + psi0'^2/|xi|^2).

    Integrates the analytic bump psi0 with one 64-point Gauss panel per
    layer; independent of the form/assembly machinery.
    """
    geo = profile.geometry
    x, w = _leggauss(64)
    total = 0.0
    for a, b in ((geo.h_minus, 0.0), (0.0, geo.h_plus)):
        y = 0.5 * (b - a) * x + 0.5 * (a + b)
        wy = 0.5 * (b - a) * w
        psi0, dpsi0 = _bump(y, geo)
        total += np.sum(wy * (psi0 ** 2 + dpsi0 ** 2 / mode.norm2))
    psi0_at_0 = float(_bump(np.array([0.0]), geo)[0][0])
    return (profile.g * profile.density_jump * psi0_at_0 ** 2
            - params.lam * mode.xi1 ** 2 * params.M[0] ** 2 * total)


def horizontal_period_threshold(profile: EquilibriumProfile, params: PhysicalParams,
                                k1: int = 1, k2: int = 1) -> float:
    """Bisect the closed-form witness value in L1 over [1e-3, 1e6] to a relative
    1e-10: positive for L1 above the root."""
    geo = profile.geometry

    def value(L1: float) -> float:
        mode = FourierMode(k1=k1, k2=k2, xi1=k1 / L1, xi2=k2 / geo.L2)
        return closed_form_horizontal(profile, params, mode)

    lo, hi = 1e-3, 1e6
    f_lo, f_hi = value(lo), value(hi)
    if f_lo > 0.0:
        return lo
    if f_hi <= 0.0:
        raise InputError("closed form never positive on the bracket")
    while hi - lo > 1e-10 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if value(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def small_field_witness(profile: EquilibriumProfile, params: PhysicalParams,
                        epsilon: float) -> WitnessField:
    """Interface-concentrated tent witness at the smallest lattice mode (1, 0).

    psi_eps(y) = max(0, 1 - |y|/eps) concentrates at the interface where the
    jump dominates the interior stratification:
    int(rho*psi*psi') = -([[rho]]*psi(0)^2 + int(rho'*psi^2))/2 < 0 exactly
    when the jump term wins.  The widths epsilon, epsilon/2, ... are tried
    in turn and the first with g*int(rho*psi*psi') < 0 is used.  The
    witness is divergence-free, so its energy reduces to the gravity
    numerator.

    The field vanishes outside [-eps, eps], so the grid covers that support
    only, and between its kinks it is exactly piecewise linear.

    ``diagnostics["full_energy"]`` (the energy with the medium's magnetic or
    elastic term) is not a certificate: phi = -psi'/xi1 jumps at 0 and
    +-eps, so the magnetic part of its P1 interpolant grows like 1/h of the
    smallest kink element.  For |M| = 0.080 (the growth_mixed benchmark
    field of seed 1) it is -3.4e17 on a whole-domain grid whose smallest
    element is 5.4e-20 and -5.9e15 on the support grid (3.5e-18).  Only its
    scaling in |M|^2 is grid-independent.
    """
    geo = profile.geometry
    if not 0.0 < epsilon < min(geo.h_plus, -geo.h_minus):
        raise InputError(f"epsilon={epsilon} outside (0, {min(geo.h_plus, -geo.h_minus)})")
    if profile.density_jump <= 0.0:
        raise SolverError("witness requires a positive density jump")

    for j in range(TENT_WIDTHS):
        eps_used = epsilon * 0.5 ** j
        lhs_used = _jump_integral(profile, eps_used)
        if profile.g * lhs_used < 0.0:
            break
    else:
        raise SolverError(
            "g*int(rho*psi*psi') stayed nonnegative for all sampled widths: "
            "the jump is too weak against the interior stratification"
        )

    mode = FourierMode(k1=1, k2=0, xi1=1.0 / geo.L1, xi2=0.0)
    grid = witness_grid(-eps_used, eps_used, kinks=(-eps_used, eps_used), n=TENT_POINTS)
    witness = _tent_witness(mode, grid, eps_used)
    fld = witness.to_mode_field()
    coeffs = FormCoefficients(profile, params, grid)
    witness.energy_value = gravity_form(fld, coeffs, mode) - compressibility_form(fld, coeffs, mode)
    witness.closed_form_value = -2.0 * profile.g * lhs_used
    witness.diagnostics = {
        "eps_used": eps_used,
        "jump_integral": lhs_used,
        "identity_rhs": -0.5 * (_stratification_integral(profile, eps_used)
                                + profile.density_jump),
        "agreement": abs(witness.energy_value - witness.closed_form_value),
        "full_energy": energy_form(fld, coeffs, mode),
        **_grid_diagnostics(grid),
    }
    return witness


def _tent_witness(mode: FourierMode, grid: np.ndarray, eps: float) -> WitnessField:
    """Tent psi = max(0, 1 - |y|/eps) with phi = -psi'/xi1 and theta = 0 on grid."""
    psi = np.maximum(0.0, 1.0 - np.abs(grid) / eps)
    dpsi = np.where(np.abs(grid) < eps, -np.sign(grid) / eps, 0.0)
    dpsi[grid == 0.0] = 0.0  # midpoint of the kink; phi value there is arbitrary
    phi = -dpsi / mode.xi1
    return WitnessField(mode=mode, grid=grid, phi=phi, theta=np.zeros_like(psi), psi=psi,
                        energy_value=0.0, closed_form_value=0.0)


def _tent_panels(profile: EquilibriumProfile, eps: float, quad_points: int = 32):
    """Gauss panels on [-eps, 0] and [0, eps] with the layer's evaluate_layer tuple."""
    x, w = _leggauss(quad_points)
    for a, b, side in ((-eps, 0.0, "-"), (0.0, eps, "+")):
        y = 0.5 * (b - a) * x + 0.5 * (a + b)
        wy = 0.5 * (b - a) * w
        yield y, wy, profile.evaluate_layer(y, side)


def _jump_integral(profile: EquilibriumProfile, eps: float) -> float:
    """int(rho * psi_eps * psi_eps') over both layers (analytic tent)."""
    total = 0.0
    for y, wy, (rho, _, _) in _tent_panels(profile, eps):
        psi = 1.0 - np.abs(y) / eps
        dpsi = -np.sign(y) / eps
        total += float(np.sum(wy * rho * psi * dpsi))
    return total


def _stratification_integral(profile: EquilibriumProfile, eps: float) -> float:
    """int(rho' * psi_eps^2) over both layers (analytic tent)."""
    total = 0.0
    for y, wy, (_, rho_p, _) in _tent_panels(profile, eps):
        psi = 1.0 - np.abs(y) / eps
        total += float(np.sum(wy * rho_p * psi * psi))
    return total
