"""Hand-written per-mode forms, alternative forms and the inequality checks.

The seven forms from :func:`mass_form` to :func:`energy_form` write each
per-mode form pointwise on a nodal P1 :class:`ModeField`, independently of
the coefficient-matrix table of ``rtspectra.modereduce.form_table``, so the
tests can compare the assembled matrices and ``form_value`` against them.
The alternative forms re-derive quantities another way (the gravity
numerator after integration by parts, the elastic form as a sum of
squares, the full gradient and field-directional squares).  The inequality
checks verify the paper's Poincare and trace constants on piecewise-linear
profiles.  None of this has a caller in the package itself.
"""

import math

import numpy as np

from rtspectra import band
from rtspectra.equilibrium import Geometry
from rtspectra.errors import InputError
from rtspectra.modereduce import FormCoefficients, FourierMode, _leggauss
from rtspectra.params import MHD


class ModeField:
    """Complex vector profile (phi, theta, psi) on a 1D grid.

    The grid spans [h_minus, h_plus] with a node exactly at 0; values are
    complex triples per node, zero on the first and last node (Dirichlet),
    single-valued at the interface (continuity).
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: np.ndarray, values: np.ndarray):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=complex)
        if grid.ndim != 1 or grid.size < 3 or np.any(np.diff(grid) <= 0):
            raise InputError("grid must be strictly increasing with at least 3 nodes")
        if not np.any(grid == 0.0):
            raise InputError("grid must contain a node exactly at 0")
        if values.shape != (grid.size, 3):
            raise InputError(f"values must have shape ({grid.size}, 3)")
        if np.any(values[0] != 0) or np.any(values[-1] != 0):
            raise InputError("Dirichlet ends: values must vanish at the first and last node")
        self.grid = grid
        self.values = values

    @property
    def interface_index(self) -> int:
        return int(np.nonzero(self.grid == 0.0)[0][0])

    def interface_psi(self) -> complex:
        return complex(self.values[self.interface_index, 2])

    def scaled(self, c: complex) -> "ModeField":
        return ModeField(self.grid, c * self.values)


def _check_grid(field: ModeField, coeffs: FormCoefficients) -> None:
    if field.grid.shape != coeffs.grid.shape or not np.array_equal(field.grid, coeffs.grid):
        raise InputError("field and coefficients live on different grids")


def _at_quadrature(field: ModeField, coeffs: FormCoefficients):
    """Values and derivatives of (phi, theta, psi) at all quadrature points."""
    v = field.values
    v0, v1 = v[:-1], v[1:]                                 # (ne, 3)
    N = coeffs.shape                                       # (2, q)
    vals = v0[:, None, :] * N[0][None, :, None] + v1[:, None, :] * N[1][None, :, None]
    slopes = (v1 - v0) / coeffs.element_h[:, None]
    ders = np.broadcast_to(slopes[:, None, :], vals.shape)
    return vals, ders


def _integrate(coeffs: FormCoefficients, density: np.ndarray) -> float:
    return float(np.sum(coeffs.qp_w * density))


def mass_form(field: ModeField, coeffs: FormCoefficients) -> float:
    """Weighted L2 mass: integral of rho * |w|^2."""
    _check_grid(field, coeffs)
    vals, _ = _at_quadrature(field, coeffs)
    return _integrate(coeffs, coeffs.rho * np.sum(np.abs(vals) ** 2, axis=2))


def _d_xi(vals, ders, mode: FourierMode):
    return 1j * (mode.xi1 * vals[..., 0] + mode.xi2 * vals[..., 1]) + ders[..., 2]


def gravity_form(field: ModeField, coeffs: FormCoefficients, mode: FourierMode) -> float:
    """Interface jump term plus stratification and divergence coupling.

    g*[[rho]]*|psi(0)|^2 + int( g*rho'*|psi|^2 + 2*g*rho*Re(d_xi(w)*conj(psi)) ).
    """
    _check_grid(field, coeffs)
    vals, ders = _at_quadrature(field, coeffs)
    psi = vals[..., 2]
    d = _d_xi(vals, ders, mode)
    density = coeffs.profile.g * (
        coeffs.rho_prime * np.abs(psi) ** 2
        + 2.0 * coeffs.rho * np.real(d * np.conj(psi))
    )
    jump = coeffs.profile.g * coeffs.profile.density_jump * abs(field.interface_psi()) ** 2
    return jump + _integrate(coeffs, density)


def compressibility_form(field: ModeField, coeffs: FormCoefficients, mode: FourierMode) -> float:
    """Pressure stabilizer: integral of P'(rho)*rho*|d_xi(w)|^2."""
    _check_grid(field, coeffs)
    vals, ders = _at_quadrature(field, coeffs)
    d = _d_xi(vals, ders, mode)
    return _integrate(coeffs, coeffs.p_prime_rho * np.abs(d) ** 2)


def magnetic_form(field: ModeField, coeffs: FormCoefficients, mode: FourierMode) -> float:
    """Field-line tension: lam * integral of |d_xi(w)*M - m_xi(w)|^2."""
    _check_grid(field, coeffs)
    vals, ders = _at_quadrature(field, coeffs)
    d = _d_xi(vals, ders, mode)
    mdotxi = coeffs.params.M[0] * mode.xi1 + coeffs.params.M[1] * mode.xi2
    density = np.zeros(d.shape)
    for c in range(3):
        m_c = 1j * mdotxi * vals[..., c] + coeffs.params.M[2] * ders[..., c]
        density += np.abs(d * coeffs.params.M[c] - m_c) ** 2
    return coeffs.params.lam * _integrate(coeffs, density)


def _sym_gradient_frobenius2(vals, ders, mode: FourierMode):
    """|G + G^T|_F^2 with G the per-mode gradient (plain transpose)."""
    ix1, ix2 = 1j * mode.xi1, 1j * mode.xi2
    phi, theta, psi = vals[..., 0], vals[..., 1], vals[..., 2]
    dphi, dtheta, dpsi = ders[..., 0], ders[..., 1], ders[..., 2]
    out = 4.0 * (np.abs(ix1 * phi) ** 2 + np.abs(ix2 * theta) ** 2 + np.abs(dpsi) ** 2)
    out += 2.0 * np.abs(ix1 * theta + ix2 * phi) ** 2
    out += 2.0 * np.abs(ix1 * psi + dphi) ** 2
    out += 2.0 * np.abs(ix2 * psi + dtheta) ** 2
    return out


def elastic_form(field: ModeField, coeffs: FormCoefficients, mode: FourierMode) -> float:
    """Elastic stabilizer: integral of kappa*(|G+G^T|_F^2/2 - |d_xi(w)|^2)."""
    _check_grid(field, coeffs)
    vals, ders = _at_quadrature(field, coeffs)
    d = _d_xi(vals, ders, mode)
    density = coeffs.kappa * (
        0.5 * _sym_gradient_frobenius2(vals, ders, mode) - np.abs(d) ** 2
    )
    return _integrate(coeffs, density)


def dissipation_form(field: ModeField, coeffs: FormCoefficients, mode: FourierMode) -> float:
    """Viscous dissipation: (bulk - 2mu/3)*|d_xi|^2 + (mu/2)*|G+G^T|_F^2."""
    _check_grid(field, coeffs)
    vals, ders = _at_quadrature(field, coeffs)
    d = _d_xi(vals, ders, mode)
    density = (coeffs.bulk - 2.0 * coeffs.mu / 3.0) * np.abs(d) ** 2
    density += 0.5 * coeffs.mu * _sym_gradient_frobenius2(vals, ders, mode)
    return _integrate(coeffs, density)


def energy_form(field: ModeField, coeffs: FormCoefficients, mode: FourierMode) -> float:
    """Spectral energy: gravity minus the stabilizing forms of ``coeffs.params.medium``."""
    if coeffs.params.medium == MHD:
        stabilizer = compressibility_form(field, coeffs, mode) + magnetic_form(field, coeffs, mode)
    else:
        stabilizer = compressibility_form(field, coeffs, mode) + elastic_form(field, coeffs, mode)
    return gravity_form(field, coeffs, mode) - stabilizer


def theta_numerator_form(field: ModeField, coeffs: FormCoefficients, mode: FourierMode) -> float:
    """Integrated-by-parts gravity numerator 2*g*int(rho*Re(i*(xi.w_h)*conj(psi)))."""
    _check_grid(field, coeffs)
    vals, _ = _at_quadrature(field, coeffs)
    horiz = 1j * (mode.xi1 * vals[..., 0] + mode.xi2 * vals[..., 1])
    density = 2.0 * coeffs.profile.g * coeffs.rho * np.real(horiz * np.conj(vals[..., 2]))
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
    mdotxi = coeffs.params.M[0] * mode.xi1 + coeffs.params.M[1] * mode.xi2
    density = np.zeros(vals.shape[:2])
    for c in range(3):
        density += np.abs(1j * mdotxi * vals[..., c] + coeffs.params.M[2] * ders[..., c]) ** 2
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

def tilde_vector(values: np.ndarray) -> np.ndarray:
    """Interior nodal (phi, theta, psi) in the assembled basis z = (i*phi, i*theta, psi)."""
    z = np.array(values[1:-1], dtype=complex)
    z[:, 0] *= 1j
    z[:, 1] *= 1j
    return z.reshape(-1)


def quadratic(matrix: np.ndarray, field: ModeField) -> float:
    """v* X v for a band matrix X and the assembled-basis vector v of a ModeField."""
    z = tilde_vector(field.values)
    return float(np.real(np.vdot(z, band.matvec(matrix, z))))


def tilde_at_quadrature(field: ModeField, coeffs: FormCoefficients) -> np.ndarray:
    """f = (pt, tt, st, pt', tt', st') of a ModeField at the quadrature points, shape (ne, q, 6)."""
    vals, ders = _at_quadrature(field, coeffs)
    f = np.concatenate([vals, ders], axis=-1)
    f[..., [0, 1, 3, 4]] *= 1j
    return f
