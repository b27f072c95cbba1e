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

:func:`form_polynomial` is the one definition of the forms: Hermitian 6x6
matrices over a field and its derivative, each times one scalar coefficient
per quadrature point of a :class:`FormCoefficients`.  Every matrix is a
quadratic polynomial in xi, held as its coefficients over the six
monomials 1, xi1, xi2, xi1^2, xi1*xi2 and xi2^2.  The P1 assembly contracts
the polynomial once per grid with shape-function moments.  A mode's table
(:func:`form_table`) contracts it with the mode's monomials instead, and
:func:`form_value` evaluates a table on a field given at the quadrature
points: the analytic witness fields of :mod:`~.criteria`.  Quadrature is
per-element Gauss-Legendre and never straddles the interface node at 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
import numpy as np

from .equilibrium import EquilibriumProfile, Geometry
from .errors import InputError
from .params import PhysicalParams

DEFAULT_QUADRATURE_ORDER = 6
#: Gauss points per layer panel of the witness energies, the largest order admitted
WITNESS_QUADRATURE_ORDER = 64


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
    coefficients evaluated at Gauss points of the correct layer.  The
    constants g, lam and M stay with their owners, ``profile`` and ``params``.
    """

    def __init__(self, profile: EquilibriumProfile, params: PhysicalParams,
                 grid: np.ndarray, quadrature_order: int = DEFAULT_QUADRATURE_ORDER):
        grid = np.asarray(grid, dtype=float)
        if not np.any(grid == 0.0):
            raise InputError("grid must contain the interface node 0")
        if not 1 <= quadrature_order <= WITNESS_QUADRATURE_ORDER:
            raise InputError(f"quadrature order must be between 1 and "
                             f"{WITNESS_QUADRATURE_ORDER}, got {quadrature_order}")
        self.profile = profile
        self.params = params
        self.grid = grid
        self.quadrature_order = int(quadrature_order)

        x, w = _leggauss(self.quadrature_order)
        t, w = (x + 1.0) / 2.0, w / 2.0                   # mapped to [0, 1]
        y0, y1 = grid[:-1], grid[1:]
        h = y1 - y0
        self.element_h = h
        self.qp_y = y0[:, None] + np.outer(h, t)          # (ne, q)
        self.qp_w = np.outer(h, w)                        # (ne, q) includes jacobian
        # the element tables (nodes, q), P1's one definition: shapes at t, slopes per unit h
        self.shape = np.stack([1.0 - t, t])
        self.slope = np.stack([-np.ones_like(t), np.ones_like(t)])

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


# A row of a form is affine in xi: r = r[0] + xi1*r[1] + xi2*r[2], an array (3, 6)
# over f.  conj(r)^T s is then quadratic in xi: the product of the parts a and b of
# r and s belongs to monomial _MONOMIAL_OF[3*a + b] of (1, xi1, xi2, xi1^2, xi1*xi2, xi2^2).
_MONOMIAL_OF = [0, 1, 2, 1, 3, 4, 2, 4, 5]


def xi_monomials(mode: FourierMode) -> np.ndarray:
    """(1, xi1, xi2, xi1^2, xi1*xi2, xi2^2) of ``mode``: the weights of a monomial stack."""
    xi1, xi2 = mode.xi1, mode.xi2
    return np.array([1.0, xi1, xi2, xi1 * xi1, xi1 * xi2, xi2 * xi2])


def _product(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Monomial stack (6, 6, 6) of the 6x6 matrix conj(r)^T s of two affine rows."""
    products = (np.conj(r)[:, None, :, None] * s[None, :, None, :]).reshape(9, 6, 6)
    out = np.zeros((6, 6, 6), dtype=products.dtype)
    np.add.at(out, _MONOMIAL_OF, products)
    return out


def _gram(*rows) -> np.ndarray:
    """Monomial stack of sum of conj(r) r^T: the Hermitian 6x6 matrix of
    sum |r . f|^2 over f = (w, w')."""
    return sum(_product(r, r) for r in rows)


def form_polynomial(coeffs: FormCoefficients):
    """The per-mode forms as (label, coefficient, {form name: stack}) triples,
    each form's 6x6 matrix C written as sum_m xi^m stack[m] over the monomials
    of :func:`xi_monomials`.

    Form ``name`` of a field is the sum, over the triples that hold it, of the
    integral of coefficient * conj(f)^T C f, where f = (pt, tt, st, pt', tt', st')
    is the field and its derivative in the tilde basis
    (phi, theta, psi) = (-i*pt, -i*tt, st), in which a real f is the real
    ansatz.  Every C is a Gram sum of rows affine in xi, so each stack comes
    from the rows' parts, exactly, and it is real unless the form has a
    skew part.  Gravity is the Theta numerator 2*g*int(rho*Re(conj(psi)*i*xi.w_h)),
    a volume integral with no interface term: with psi = 0 at the walls,
    integrating int(g*rho'*|psi|^2) by parts in each layer cancels the jump
    g*[[rho]]*|psi(0)|^2 of the paper's energy.  ``coefficient`` is one of
    the (ne, q) tables of ``coeffs`` or 1.0, and ``label`` names it.  The
    forms are those of :class:`~.assembly.ModeMatrices`.
    """
    one, xi1, xi2 = np.eye(3)[:, :, None]     # affine scalars: times a 6-vector, a row
    M1, M2, M3 = coeffs.params.M
    mdotxi = M1 * xi1 + M2 * xi2
    v, dv = np.eye(6)[:3], one * np.eye(6)[3:, None]   # values; constant derivative rows
    wh = xi1 * v[0] + xi2 * v[1]                    # xi . w_h (tilde)
    div = wh + dv[2]                                # per-mode divergence (tilde)
    C_div = _gram(div)
    # |G + G^T|_F^2 / 2, shared by dissipation and elasticity
    C_sym = 2.0 * _gram(xi1 * v[0], xi2 * v[1], dv[2]) + _gram(
        xi1 * v[1] + xi2 * v[0], xi1 * v[2] - dv[0], xi2 * v[2] - dv[1])
    # magnetic rows d*M - m and field-directional rows m = (M.xi) w - i M3 w' (tilde)
    C_mag = coeffs.params.lam * _gram(M1 * div - mdotxi * v[0] + 1j * M3 * dv[0],
                                      M2 * div - mdotxi * v[1] + 1j * M3 * dv[1],
                                      M3 * (div - dv[2]) - 1j * mdotxi * v[2])
    C_dir = _gram(mdotxi * v[0] - 1j * M3 * dv[0], mdotxi * v[1] - 1j * M3 * dv[1],
                  M3 * dv[2] + 1j * mdotxi * v[2])
    C_val = _gram(*(one * v[:, None]))
    psi = one * v[2]
    table = (
        ("density", coeffs.rho,
         {"mass": C_val,
          "gravity": coeffs.profile.g * (_product(wh, psi) + _product(psi, wh))}),
        ("P'(rho)*rho", coeffs.p_prime_rho, {"compress": C_div}),
        ("1", 1.0, {"magnetic": C_mag, "coercivity_metric": C_val + C_div + C_dir}),
        ("mu", coeffs.mu, {"dissipation": C_sym - (2.0 / 3.0) * C_div}),
        ("bulk", coeffs.bulk, {"dissipation": C_div}),
        ("kappa", coeffs.kappa, {"elastic": C_sym - C_div}),
    )
    return tuple((label, coefficient,
                  {name: C if np.any(np.imag(C)) else np.real(C) for name, C in forms.items()})
                 for label, coefficient, forms in table)


def form_table(coeffs: FormCoefficients, mode: FourierMode):
    """The forms of ``mode`` on ``coeffs`` as (label, coefficient, {form name: C})
    triples: each stack of :func:`form_polynomial` contracted with the mode's
    :func:`xi_monomials`."""
    w = xi_monomials(mode)
    return tuple((label, coefficient, {name: (w @ stack.reshape(6, 36)).reshape(6, 6)
                                       for name, stack in forms.items()})
                 for label, coefficient, forms in form_polynomial(coeffs))


def form_value(coeffs: FormCoefficients, table, weights: dict, f: np.ndarray) -> float:
    """The sum of weights[name] * form ``name`` of ``table``, for a field given
    at the quadrature points.

    ``table`` is :func:`form_table` of ``coeffs`` and the field's mode, built
    once by the caller for its mode.  ``f`` holds (pt, tt, st, pt', tt', st')
    at every quadrature point of ``coeffs``, shape (ne, q, 6).  For each
    coefficient that a requested form has, G = sum over points of weight *
    coefficient * conj(f) f^T, and the value is a sum of sum(C * G).
    """
    unknown = set(weights).difference(*(forms for _, _, forms in table))
    if unknown:
        raise InputError(f"unknown forms {sorted(unknown)}")
    f6 = f.reshape(-1, f.shape[-1])
    total = 0.0
    for _, coefficient, forms in table:
        names = [name for name in weights if name in forms]
        if names:
            G = np.conj(f6 * (coeffs.qp_w * coefficient).reshape(-1, 1)).T @ f6
            C = sum(weights[name] * forms[name] for name in names)
            total += np.real(np.sum(C * G))
    return float(total)
