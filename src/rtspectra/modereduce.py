"""Per-mode reduction of the 3D quadratic stability forms.

A 3D field w(y) = Re[ w_hat(y3) * exp(i xi . y_h) ] with horizontal wave
vector xi = (k1/L1, k2/L2) turns each quadratic form (mass, gravity,
compressibility, magnetic, elastic, dissipation) into a 1D sesquilinear
form over complex profiles w_hat = (phi, theta, psi) on [h_minus, h_plus].
Every per-mode value equals the 3D integral of the real-field ansatz
divided by the horizontal cell factor 2*pi^2*L1*L2, so per-mode numbers
compare directly with the 1D frequency functionals.

Per-mode operators:
    d_xi(w) = i*(xi1*phi + xi2*theta) + psi'        (divergence)
    m_xi(w) = i*(M . xi_h) * w + M3 * w'            (field-directional derivative)
    G(w)    = per-mode gradient, rows (i*xi1, i*xi2, d/dy3) applied to w.

Fields are piecewise linear between grid nodes; integrals use per-element
Gauss-Legendre quadrature that never straddles the interface node at 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
import numpy as np

from .equilibrium import EquilibriumProfile, Geometry
from .errors import InputError
from .params import MHD, PhysicalParams

DEFAULT_QUADRATURE_ORDER = 6


@dataclass(frozen=True)
class FourierMode:
    """Horizontal lattice mode k = (k1, k2) with xi = (k1/L1, k2/L2)."""

    k1: int
    k2: int
    xi1: float
    xi2: float

    @staticmethod
    def from_indices(k1: int, k2: int, geometry: Geometry) -> "FourierMode":
        return FourierMode(k1=int(k1), k2=int(k2), xi1=k1 / geometry.L1, xi2=k2 / geometry.L2)

    @property
    def norm2(self) -> float:
        return self.xi1 * self.xi1 + self.xi2 * self.xi2

    def is_zero(self) -> bool:
        return self.k1 == 0 and self.k2 == 0


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


# -- quadrature machinery ----------------------------------------------------

@functools.lru_cache(maxsize=None)
def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


class FormCoefficients:
    """Equilibrium and material coefficients bound to one grid.

    Holds per-element quadrature tables so that every form sees
    coefficients evaluated at Gauss points of the correct layer.
    """

    def __init__(self, profile: EquilibriumProfile, params: PhysicalParams,
                 grid: np.ndarray, quadrature_order: int = DEFAULT_QUADRATURE_ORDER):
        grid = np.asarray(grid, dtype=float)
        if not np.any(grid == 0.0):
            raise InputError("grid must contain the interface node 0")
        if not quadrature_order >= 1:
            raise InputError(f"quadrature order must be at least 1, got {quadrature_order}")
        self.profile = profile
        self.params = params
        self.grid = grid
        self.quadrature_order = int(quadrature_order)
        self.g = profile.g
        self.lam = params.lam
        self.M = np.asarray(params.M, dtype=float)
        self.rho_jump = profile.density_jump

        x, w = _leggauss(self.quadrature_order)
        t, w = (x + 1.0) / 2.0, w / 2.0                   # mapped to [0, 1]
        y0, y1 = grid[:-1], grid[1:]
        h = y1 - y0
        self.element_h = h
        self.qp_y = y0[:, None] + np.outer(h, t)          # (ne, q)
        self.qp_w = np.outer(h, w)                        # (ne, q) includes jacobian
        self.shape = np.stack([1.0 - t, t])               # (2, q)

        upper = y0 >= 0.0                                 # elements never straddle 0
        ne, q = self.qp_y.shape
        self.rho = np.empty((ne, q))
        self.rho_prime = np.empty((ne, q))
        self.p_prime_rho = np.empty((ne, q))
        for side, mask in (("+", upper), ("-", ~upper)):
            if not np.any(mask):
                continue
            ys = self.qp_y[mask].ravel()
            r, rp, pp = profile.evaluate_layer(ys, side)
            self.rho[mask] = r.reshape(-1, q)
            self.rho_prime[mask] = rp.reshape(-1, q)
            self.p_prime_rho[mask] = pp.reshape(-1, q)
        self.mu = np.where(upper, params.mu_plus, params.mu_minus)[:, None] * np.ones((1, q))
        self.bulk = np.where(upper, params.bulk_plus, params.bulk_minus)[:, None] * np.ones((1, q))
        self.kappa = np.where(upper, params.kappa_plus, params.kappa_minus)[:, None] * np.ones((1, q))


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
    density = coeffs.g * (
        coeffs.rho_prime * np.abs(psi) ** 2
        + 2.0 * coeffs.rho * np.real(d * np.conj(psi))
    )
    jump = coeffs.g * coeffs.rho_jump * abs(field.interface_psi()) ** 2
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
    mdotxi = coeffs.M[0] * mode.xi1 + coeffs.M[1] * mode.xi2
    density = np.zeros(d.shape)
    for c in range(3):
        m_c = 1j * mdotxi * vals[..., c] + coeffs.M[2] * ders[..., c]
        density += np.abs(d * coeffs.M[c] - m_c) ** 2
    return coeffs.lam * _integrate(coeffs, density)


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
