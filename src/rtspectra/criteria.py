"""Closed-form sufficient criteria and explicit instability witnesses.

These are solver-independent certificates: threshold inequalities evaluate
to plain arithmetic on equilibrium quantities, and witness fields carry
their own closed-form energy value so positivity can be checked against
the assembled solver on the same mode.  A witness's energy is
:func:`modereduce.form_value` of its analytic field at the Gauss points of
one panel per layer, so it reads the same form table as the assembly.  The
closed forms it is checked against use no quadrature: the horizontal-field
bump's integrals are exact Beta integrals (:func:`_bump_integrals`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import EquilibriumProfile, Geometry, infimum_p_prime_rho
from .errors import InputError, SolverError
from .modereduce import (WITNESS_QUADRATURE_ORDER, FormCoefficients, FourierMode, form_table,
                         form_value)
from .params import MHD, PhysicalParams

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
    energy_value: float
    closed_form_value: float
    diagnostics: dict = field(default_factory=dict)


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


def _panels(profile: EquilibriumProfile, params: PhysicalParams,
            lower: float, upper: float) -> FormCoefficients:
    """Coefficients at the Gauss points of the panels [lower, 0] and [0, upper]."""
    return FormCoefficients(profile, params, np.array([lower, 0.0, upper]),
                            WITNESS_QUADRATURE_ORDER)


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
    bump of :func:`_bump`; the field is evaluated analytically at the Gauss
    points of one panel per layer.
    """
    if mode.xi1 == 0.0:
        raise InputError("witness needs xi1 != 0")
    if params.medium != MHD or params.M[1] != 0.0 or params.M[2] != 0.0:
        raise InputError("witness needs an mhd base field along the first axis")
    geo = profile.geometry
    coeffs = _panels(profile, params, geo.h_minus, geo.h_plus)
    xi1, xi2 = mode.xi1, mode.xi2
    energy = {"gravity": 1.0, "compress": -1.0, "magnetic": -1.0}
    table = form_table(coeffs, mode)
    # with M3 = 0 no energy matrix reads the horizontal slopes pt', tt' (f[3:5]),
    # so the slope of phi, which carries the equilibrium coefficients, is not needed
    for _, _, forms in table:
        for name in energy:
            if name in forms and (np.any(forms[name][3:5]) or np.any(forms[name][:, 3:5])):
                raise SolverError(f"the {name} form reads the horizontal slopes")

    psi, dpsi = _bump(coeffs.qp_y, geo)
    theta = -xi2 * dpsi / mode.norm2
    phi = (profile.g * coeffs.rho * psi / coeffs.p_prime_rho - dpsi - xi2 * theta) / xi1
    zero = np.zeros_like(psi)
    f = np.stack([phi, theta, psi, zero, zero, dpsi], axis=-1)
    energy_value = form_value(coeffs, table, energy, f)
    closed = closed_form_horizontal(profile, params, mode)
    return WitnessField(mode=mode, energy_value=energy_value, closed_form_value=closed,
                        diagnostics={"agreement": abs(energy_value - closed),
                                     "quadrature_points": int(coeffs.qp_y.size)})


def _bump_integrals(geometry: Geometry):
    """(int psi0^2, int psi0'^2) over [h_minus, h_plus], in closed form.

    With h = h+ - h-, u = (y - h-)/h and r = h^2/|h+*h-|, psi0 = (r*u*(1 - u))^2,
    so both integrals are Beta integrals: int psi0^2 = h*r^4*B(5, 5) =
    h*r^4/630 and int psi0'^2 = (4*r^4/h)*(B(3, 3) - 4*B(4, 4)) = 2*r^4/(105*h).
    """
    h = geometry.height
    r4 = (h * h / -(geometry.h_plus * geometry.h_minus)) ** 4
    return h * r4 / 630.0, 2.0 * r4 / (105.0 * h)


def closed_form_horizontal(profile: EquilibriumProfile, params: PhysicalParams,
                           mode: FourierMode) -> float:
    """g*[[rho]]*psi0(0)^2 - lam*xi1^2*M1^2 * int(psi0^2 + psi0'^2/|xi|^2).

    psi0(0) = 1 and the integrals are exact (:func:`_bump_integrals`);
    independent of the form/assembly machinery.
    """
    I0, I1 = _bump_integrals(profile.geometry)
    return (profile.g * profile.density_jump
            - params.lam * mode.xi1 ** 2 * params.M[0] ** 2 * (I0 + I1 / mode.norm2))


def horizontal_period_threshold(profile: EquilibriumProfile, params: PhysicalParams,
                                k1: int = 1, k2: int = 1) -> float:
    """The period L1 in [1e-3, 1e6] above which the closed-form witness value
    is positive: 1e-3 when it already is there, InputError when it is not
    at 1e6, or when k1 = 0 and L1 enters no closed form.

    With x = (k1/L1)^2, c = (k2/L2)^2, I0 = int(psi0^2), I1 = int(psi0'^2)
    and G = g*[[rho]]*psi0(0)^2 = g*[[rho]], the value times x + c is the
    quadratic q(x) = -a*x^2 + b*x + G*c with a = lam*M1^2*I0 and
    b = G - lam*M1^2*(I0*c + I1), so the value has the sign of q.  L1 =
    |k1|/sqrt(x) at its positive root, taken in the form that does not cancel.
    """
    if k1 == 0:
        raise InputError("k1 = 0: the period L1 enters no closed form of mode (0, k2)")
    geo = profile.geometry
    I0, I1 = _bump_integrals(geo)
    G = profile.g * profile.density_jump
    tension = params.lam * params.M[0] ** 2
    c = (k2 / geo.L2) ** 2
    a, b = tension * I0, G - tension * (I0 * c + I1)

    def q(L1: float) -> float:
        x = (k1 / L1) ** 2
        return (b - a * x) * x + G * c

    if q(1e-3) > 0.0:
        return 1e-3
    if q(1e6) <= 0.0:
        raise InputError("closed form never positive on the bracket")
    root = math.sqrt(b * b + 4.0 * a * G * c)
    x = (b + root) / (2.0 * a) if b > 0.0 else 2.0 * G * c / (root - b)
    return abs(k1) / math.sqrt(x)


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

    The field vanishes outside [-eps, eps] and is linear on [-eps, 0] and
    [0, eps], so everything is evaluated at the Gauss points of those two
    panels, built once per width tried (:func:`_tent`): the jump integral
    that picks the width, then the energy and the int(rho'*psi^2) of the
    ``identity_rhs`` diagnostic on the panels of the width used.  Its
    magnetic or elastic energy is not part of the certificate: phi =
    -psi'/xi1 jumps at 0 and +-eps, so the field is not in H^1.
    """
    geo = profile.geometry
    if not 0.0 < epsilon < min(geo.h_plus, -geo.h_minus):
        raise InputError(f"epsilon={epsilon} outside (0, {min(geo.h_plus, -geo.h_minus)})")
    if profile.density_jump <= 0.0:
        raise SolverError("witness requires a positive density jump")

    for j in range(TENT_WIDTHS):
        eps_used = epsilon * 0.5 ** j
        coeffs, psi, dpsi = _tent(profile, params, eps_used)
        lhs_used = float(np.sum(coeffs.qp_w * coeffs.rho * psi * dpsi))
        if profile.g * lhs_used < 0.0:
            break
    else:
        raise SolverError(
            "g*int(rho*psi*psi') stayed nonnegative for all sampled widths: "
            "the jump is too weak against the interior stratification"
        )

    mode = FourierMode(k1=1, k2=0, xi1=1.0 / geo.L1, xi2=0.0)
    zero = np.zeros_like(psi)
    f = np.stack([-dpsi / mode.xi1, zero, psi, zero, zero, dpsi], axis=-1)
    energy_value = form_value(coeffs, form_table(coeffs, mode),
                              {"gravity": 1.0, "compress": -1.0}, f)
    stratification = float(np.sum(coeffs.qp_w * coeffs.rho_prime * psi * psi))
    closed = -2.0 * profile.g * lhs_used
    return WitnessField(mode=mode, energy_value=energy_value, closed_form_value=closed,
                        diagnostics={
                            "eps_used": eps_used,
                            "jump_integral": lhs_used,
                            "identity_rhs": -0.5 * (stratification + profile.density_jump),
                            "agreement": abs(energy_value - closed),
                            "quadrature_points": int(coeffs.qp_y.size),
                        })


def _tent(profile: EquilibriumProfile, params: PhysicalParams, eps: float):
    """Panel coefficients on [-eps, 0] and [0, eps], with the tent
    psi = 1 - |y|/eps and its slope at their Gauss points."""
    coeffs = _panels(profile, params, -eps, eps)
    return coeffs, 1.0 - np.abs(coeffs.qp_y) / eps, -np.sign(coeffs.qp_y) / eps
