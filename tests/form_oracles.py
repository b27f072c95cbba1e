"""Alternative per-mode forms and the Poincare/trace inequality checks.

The forms re-derive quantities the library computes another way (the
gravity numerator after integration by parts, the elastic form as a sum of
squares, the full gradient and field-directional squares), so the tests can
compare the two.  The inequality checks verify the paper's Poincare and
trace constants on piecewise-linear profiles.  None of this has a caller in
the package itself.
"""

import math

import numpy as np

from rtspectra.equilibrium import Geometry
from rtspectra.errors import InputError
from rtspectra.modereduce import (
    FormCoefficients,
    FourierMode,
    ModeField,
    _at_quadrature,
    _check_grid,
    _integrate,
    _leggauss,
)


def theta_numerator_form(field: ModeField, coeffs: FormCoefficients, mode: FourierMode) -> float:
    """Integrated-by-parts gravity numerator 2*g*int(rho*Re(i*(xi.w_h)*conj(psi)))."""
    _check_grid(field, coeffs)
    vals, _ = _at_quadrature(field, coeffs)
    horiz = 1j * (mode.xi1 * vals[..., 0] + mode.xi2 * vals[..., 1])
    density = 2.0 * coeffs.g * coeffs.rho * np.real(horiz * np.conj(vals[..., 2]))
    return _integrate(coeffs, density)


def elastic_form_expanded(field: ModeField, coeffs: FormCoefficients, mode: FourierMode) -> float:
    """Elastic stabilizer via the sum-of-squares expansion.

    Independent of :func:`elastic_form`: integrates the four squares
    (curl-like, two shear, deviatoric-divergence) that the integration-by-
    parts rearrangement produces.
    """
    _check_grid(field, coeffs)
    vals, ders = _at_quadrature(field, coeffs)
    ix1, ix2 = 1j * mode.xi1, 1j * mode.xi2
    phi, theta, psi = vals[..., 0], vals[..., 1], vals[..., 2]
    dphi, dtheta, dpsi = ders[..., 0], ders[..., 1], ders[..., 2]
    density = (
        np.abs(ix1 * theta - ix2 * phi) ** 2
        + np.abs(ix1 * psi + dphi) ** 2
        + np.abs(ix2 * psi + dtheta) ** 2
        + np.abs(ix1 * phi + ix2 * theta - dpsi) ** 2
    )
    return _integrate(coeffs, coeffs.kappa * density)


def gradient_form(field: ModeField, coeffs: FormCoefficients, mode: FourierMode) -> float:
    """Full per-mode gradient square: integral of |xi|^2*|w|^2 + |w'|^2."""
    _check_grid(field, coeffs)
    vals, ders = _at_quadrature(field, coeffs)
    density = mode.norm2 * np.sum(np.abs(vals) ** 2, axis=2) + np.sum(np.abs(ders) ** 2, axis=2)
    return _integrate(coeffs, density)


def field_directional_form(field: ModeField, coeffs: FormCoefficients, mode: FourierMode) -> float:
    """Integral of |m_xi(w)|^2 (no lam factor)."""
    _check_grid(field, coeffs)
    vals, ders = _at_quadrature(field, coeffs)
    mdotxi = coeffs.M[0] * mode.xi1 + coeffs.M[1] * mode.xi2
    density = np.zeros(vals.shape[:2])
    for c in range(3):
        density += np.abs(1j * mdotxi * vals[..., c] + coeffs.M[2] * ders[..., c]) ** 2
    return _integrate(coeffs, density)


def poincare_check(values: np.ndarray, grid: np.ndarray, mode: FourierMode,
                   nu, geometry: Geometry):
    """Verify ||phi|| <= (h+ - h-)/pi * ||nu . grad phi|| on one scalar profile.

    nu must have third component 1; the per-mode directional derivative is
    i*(nu1*xi1 + nu2*xi2) + d/dy3.  Returns (lhs, rhs, holds).
    """
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (3,) or nu[2] != 1.0:
        raise InputError("direction must be (nu1, nu2, 1)")
    values = np.asarray(values, dtype=complex)
    if values[0] != 0 or values[-1] != 0:
        raise InputError("scalar profile must vanish at the end points")
    lhs2, dir2 = _scalar_direction_norms(values, grid, mode, nu)
    rhs = (geometry.height / math.pi) * math.sqrt(dir2)
    lhs = math.sqrt(lhs2)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-10)


def trace_check(fld: ModeField, mode: FourierMode, nu, geometry: Geometry):
    """Verify |psi(0)| <= sqrt(h-h+/(h- - h+)) * ||nu . grad w|| on a ModeField."""
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (3,) or nu[2] != 1.0:
        raise InputError("direction must be (nu1, nu2, 1)")
    dir2 = 0.0
    for c in range(3):
        _, d2 = _scalar_direction_norms(fld.values[:, c], fld.grid, mode, nu)
        dir2 += d2
    const = math.sqrt(geometry.h_minus * geometry.h_plus
                      / (geometry.h_minus - geometry.h_plus))
    lhs = abs(fld.interface_psi())
    rhs = const * math.sqrt(dir2)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-10)


def _scalar_direction_norms(values: np.ndarray, grid: np.ndarray, mode: FourierMode, nu):
    """(||f||^2, ||(i*(nu_h . xi) + d/dy)f||^2) for one piecewise-linear profile."""
    values = np.asarray(values, dtype=complex)
    h = np.diff(grid)
    v0, v1 = values[:-1], values[1:]
    x, w = _leggauss(4)
    t = (x + 1.0) / 2.0
    wt = w / 2.0
    vals = v0[:, None] * (1.0 - t)[None, :] + v1[:, None] * t[None, :]
    ders = ((v1 - v0) / h)[:, None] * np.ones_like(t)[None, :]
    factor = 1j * (nu[0] * mode.xi1 + nu[1] * mode.xi2)
    norm2 = float(np.sum((h[:, None] * wt[None, :]) * np.abs(vals) ** 2))
    dir2 = float(np.sum((h[:, None] * wt[None, :]) * np.abs(factor * vals + ders) ** 2))
    return norm2, dir2
