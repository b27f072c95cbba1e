"""P1 finite-element assembly of the per-mode Hermitian forms.

The forms are defined once, as the coefficient-matrix table of
:func:`modereduce.form_table`; this module contracts that table with the
moments of the P1 shape functions and their slopes.

The complex per-mode problem is assembled in a real coordinate basis: with
the substitution (phi, theta, psi) = (-i*pt, -i*tt, st) every form becomes
a real quadratic form in (pt, tt, st), and a general complex field splits
into two independent real problems (real and imaginary parts in the tilde
variables).  The assembled matrices are therefore real symmetric; they are
Hermitian representations of the original sesquilinear forms under the
nodal map z = (i*phi, i*theta, psi).

Degrees of freedom are interior nodes only (Dirichlet ends removed),
ordered node-major: dof(node j, comp c) = 3*(j-1) + c.  Every element
couples two neighbouring nodes, so each form is banded with half-bandwidth
5 and is assembled straight into LAPACK upper band storage (see band.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import band
from .equilibrium import Geometry
from .errors import InputError, SolverError
from .modereduce import FormCoefficients, FourierMode, energy_signs, form_table
from .params import MHD

DEFAULT_N_PER_LAYER = 200
# Largest over smallest element of the default mesh family, the same at every n.
DEFAULT_SIZE_RATIO = 10.0
# Smallest admissible element, relative to the layer height.  Far below it
# (5.6e-19 at n=800, grading 1.05) the mass and dissipation matrices stop
# being numerically definite.
MIN_ELEMENT_FRACTION = 1e-9


@dataclass(frozen=True)
class Mesh1D:
    """Conforming mesh on [h_minus, h_plus] with a node exactly at 0."""

    nodes: np.ndarray
    n_per_layer: int


def _layer_nodes(height: float, n: int, grading: float) -> np.ndarray:
    """Node offsets 0..height with element sizes growing away from 0 by `grading`.

    Raises InputError when the element at 0 would be smaller than
    MIN_ELEMENT_FRACTION * height.
    """
    sizes = grading ** (np.arange(n) - (n - 1.0))   # largest is 1: no overflow
    sizes *= height / sizes.sum()
    if not sizes[0] >= MIN_ELEMENT_FRACTION * height:
        raise InputError(
            f"grading {grading} with {n} elements gives a smallest element of "
            f"{sizes[0]:.3e}, below {MIN_ELEMENT_FRACTION:.0e} * layer height {height}"
        )
    nodes = np.concatenate(([0.0], np.cumsum(sizes)))
    nodes[-1] = height
    return nodes


def build_mesh(geometry: Geometry, n_per_layer: int = DEFAULT_N_PER_LAYER,
               grading: Optional[float] = None) -> Mesh1D:
    """Mesh with n elements per layer, geometrically refined toward 0.

    With ``grading=None`` the mesh belongs to the default family: the
    per-element ratio is DEFAULT_SIZE_RATIO**(1/(n-1)), so the largest
    element is DEFAULT_SIZE_RATIO times the smallest at every n and both
    shrink like 1/n.  An explicit ``grading`` is the ratio between
    neighbouring elements; at large n it compounds, so meshes whose
    smallest element falls below MIN_ELEMENT_FRACTION of a layer height
    raise InputError.
    """
    if n_per_layer < 4:
        raise InputError(f"need at least 4 elements per layer, got {n_per_layer}")
    if grading is None:
        grading = DEFAULT_SIZE_RATIO ** (1.0 / (n_per_layer - 1))
    if not grading >= 1.0:
        raise InputError(f"grading must be >= 1, got {grading}")
    upper = _layer_nodes(geometry.h_plus, n_per_layer, grading)
    lower = -_layer_nodes(-geometry.h_minus, n_per_layer, grading)[::-1]
    nodes = np.concatenate([lower[:-1], upper])
    return Mesh1D(nodes=nodes, n_per_layer=int(n_per_layer))


def refine_mesh(mesh: Mesh1D) -> Mesh1D:
    """Halve every element: the nested refinement used for convergence studies.

    The refined mesh keeps the total size ratio of its parent and halves
    every element, so the steps between successive refinements show the
    discretization's order of convergence.  A default-family mesh rebuilt at the doubled n
    has the same total ratio but other nodes, so it is not nested.
    """
    mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    nodes = np.sort(np.concatenate([mesh.nodes, mids]))
    return Mesh1D(nodes=nodes, n_per_layer=2 * mesh.n_per_layer)


@dataclass
class ModeMatrices:
    """Discrete Hermitian forms of one Fourier mode, in upper band storage.

    mass/gravity/compress/magnetic/elastic/dissipation carry the per-mode
    quadratic forms; coercivity_metric carries |w|^2 + |M.grad w|^2 + |div w|^2
    for the stability-certificate pencil.  Each is an array of shape
    (6, n_dof) in the layout of band.py; band.to_csr gives the matrix.
    Matrices are real symmetric except when the base field mixes vertical
    and in-plane components, which adds an imaginary skew part.  The grid
    is ``coeffs.grid``.

    ``table`` is :func:`~.modereduce.form_table` of ``coeffs`` and ``mode``,
    built once by :func:`assemble` and read again by every
    :func:`~.modereduce.form_value` on this mode.

    The medium is read from ``coeffs.params.medium`` only; :attr:`operator`
    (through :func:`~.modereduce.energy_signs`) and :attr:`discriminant_pencil`
    are the one place that maps it to the stabilizing form (magnetic tension
    or elasticity).
    """

    mode: FourierMode
    coeffs: FormCoefficients
    table: tuple
    mass: np.ndarray
    gravity: np.ndarray
    compress: np.ndarray
    magnetic: np.ndarray
    elastic: np.ndarray
    dissipation: np.ndarray
    coercivity_metric: np.ndarray

    @property
    def n_dof(self) -> int:
        return self.mass.shape[1]

    @property
    def operator(self) -> np.ndarray:
        """Energy operator A (band): the signed forms of :func:`~.modereduce.energy_signs`."""
        return sum(sign * getattr(self, name)
                   for name, sign in energy_signs(self.coeffs.params).items())

    @property
    def discriminant_pencil(self):
        """(numerator, denominator) of the stability discriminant, in band storage.

        mhd: gravity over compressibility plus magnetic tension; viscoelastic:
        gravity minus compressibility over elasticity.
        """
        if self.coeffs.params.medium == MHD:
            return self.gravity, self.compress + self.magnetic
        return self.gravity - self.compress, self.elastic

    def at_quadrature(self, vec: np.ndarray) -> np.ndarray:
        """f = (pt, tt, st, pt', tt', st') of a dof vector's P1 field at the
        quadrature points of ``coeffs``, shape (ne, q, 6), the input of
        :func:`~.modereduce.form_value`."""
        nodal = np.zeros((self.coeffs.grid.size, 3), dtype=vec.dtype)
        nodal[1:-1] = vec.reshape(-1, 3)
        v0, v1 = nodal[:-1, None, :], nodal[1:, None, :]
        N = self.coeffs.shape[:, None, :, None]
        slopes = (v1 - v0) / self.coeffs.element_h[:, None, None]
        vals = v0 * N[0] + v1 * N[1]
        return np.concatenate([vals, np.broadcast_to(slopes, vals.shape)], axis=-1)


def _moments(coeffs: FormCoefficients, coefficient) -> np.ndarray:
    """Shape-function moments m[e, k, a, l, b] = sum_q w * coefficient * P[k, a] * P[l, b].

    P = [[N0, N1], [-1/h, 1/h]] maps an element's two nodal values of one
    component to its value (k = 0) and derivative (k = 1) at a quadrature point.
    """
    ne, q = coeffs.qp_w.shape
    P = np.empty((ne, q, 2, 2))
    P[:, :, 0] = coeffs.shape.T
    P[:, :, 1] = (np.array([-1.0, 1.0]) / coeffs.element_h[:, None])[:, None, :]
    P = P.reshape(ne, q, 4)
    weight = coefficient * coeffs.qp_w
    return (P.transpose(0, 2, 1) * weight[:, None, :] @ P).reshape(ne, 2, 2, 2, 2)


def _element_blocks(m: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Element blocks (ne, 6, 6) of sum_q coefficient * conj(f) C f from its moments.

    Local dof order [pt1, tt1, st1, pt2, tt2, st2]; C is taken real when its
    imaginary part vanishes, so forms without a skew part stay real.
    """
    if not np.any(np.imag(C)):
        C = np.real(C)
    blocks = np.tensordot(m, C.reshape(2, 3, 2, 3), axes=([1, 3], [0, 2]))
    return blocks.transpose(0, 1, 3, 2, 4).reshape(-1, 6, 6)


def assemble(coeffs: FormCoefficients, mode: FourierMode) -> ModeMatrices:
    """Assemble all per-mode matrices on the grid of ``coeffs``.

    Piecewise-linear conforming elements per component, with the
    Gauss-Legendre points of ``coeffs`` in every element.  Every form is the
    sum of its Hermitian 6x6 matrices C from :func:`~.modereduce.form_table`,
    each times one scalar coefficient per quadrature point, contracted with
    the P1 shape-function moments.
    """
    table = form_table(coeffs, mode)
    blocks = {}
    for _, coefficient, forms in table:
        m = _moments(coeffs, coefficient)
        for name, C in forms.items():
            blocks[name] = blocks.get(name, 0.0) + _element_blocks(m, C)

    # scatter the upper triangle of each element block into interior band storage
    out = {name: band.from_element_blocks(b, 3) for name, b in blocks.items()}
    for name, matrix in out.items():
        if not np.isfinite(band.frobenius(matrix)):
            largest, label = max((np.max(np.abs(coefficient)), label)
                                 for label, coefficient, forms in table if name in forms)
            raise InputError(f"the {name} matrix's Frobenius norm overflows: smallest element "
                             f"{coeffs.element_h.min():.3e}, largest coefficient "
                             f"{label} = {largest:.3e}")
    mm = ModeMatrices(mode=mode, coeffs=coeffs, table=table, **out)
    for name, matrix in (("mass", mm.mass), ("dissipation", mm.dissipation)):
        if band.cholesky(matrix) is None:
            raise SolverError(f"{name} matrix is not positive definite")
    return mm


def assemble_scalar_gravity_kernel(coeffs: FormCoefficients):
    """Scalar-psi forms restricted to divergence-free directions.

    Returns (Q, Mpsi) over the interior psi dofs of the coefficient table's
    grid, in upper band storage with half-bandwidth 1: Q carries
    -g*int(rho*(psi*psi' + psi'*psi)), which equals
    g*[[rho]]*psi(0)^2 + int(g*rho'*psi^2) for psi = 0 at the walls, and Mpsi
    the rho-weighted mass.  These are the numerator and normalization seen by
    fields whose per-mode divergence vanishes identically.
    """
    m = _moments(coeffs, coeffs.rho)
    Q = band.from_element_blocks(-coeffs.g * (m[:, 0, :, 1, :] + m[:, 1, :, 0, :]), 1)
    return Q, band.from_element_blocks(m[:, 0, :, 0, :], 1)
