"""P1 finite-element assembly of the per-mode Hermitian forms.

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
from .equilibrium import EquilibriumProfile, Geometry
from .errors import AssemblyError, DefinitenessError, InvalidGradingError
from .modereduce import (
    DEFAULT_QUADRATURE_ORDER,
    FormCoefficients,
    FourierMode,
    ModeField,
)
from .params import MHD, PhysicalParams

DEFAULT_N_PER_LAYER = 200
# Largest over smallest element of the default mesh family, the same at every n.
DEFAULT_SIZE_RATIO = 10.0
# Smallest admissible element, relative to the layer height: the floor of the
# equilibrium sample table.  Far below it (5.6e-19 at n=800, grading 1.05)
# the mass and dissipation matrices stop being numerically definite.
MIN_ELEMENT_FRACTION = 1e-9


@dataclass(frozen=True)
class Mesh1D:
    """Conforming mesh on [h_minus, h_plus] with a node exactly at 0.

    ``grading`` is the per-element size ratio the mesh was built with;
    :func:`refine_mesh` keeps it to name the family, not its own elements.
    """

    nodes: np.ndarray
    n_per_layer: int
    grading: float

    @property
    def n_interior(self) -> int:
        return self.nodes.size - 2

    @property
    def interface_index(self) -> int:
        return int(np.nonzero(self.nodes == 0.0)[0][0])


def _layer_nodes(height: float, n: int, grading: float) -> np.ndarray:
    """Node offsets 0..height with element sizes growing away from 0 by `grading`.

    Raises InvalidGradingError when the element at 0 would be smaller than
    MIN_ELEMENT_FRACTION * height.
    """
    sizes = grading ** (np.arange(n) - (n - 1.0))   # largest is 1: no overflow
    sizes *= height / sizes.sum()
    if not sizes[0] >= MIN_ELEMENT_FRACTION * height:
        raise InvalidGradingError(
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
    raise InvalidGradingError.
    """
    if n_per_layer < 4:
        raise ValueError(f"need at least 4 elements per layer, got {n_per_layer}")
    if grading is None:
        grading = DEFAULT_SIZE_RATIO ** (1.0 / (n_per_layer - 1))
    if not grading >= 1.0:
        raise InvalidGradingError(f"grading must be >= 1, got {grading}")
    upper = _layer_nodes(geometry.h_plus, n_per_layer, grading)
    lower = -_layer_nodes(-geometry.h_minus, n_per_layer, grading)[::-1]
    nodes = np.concatenate([lower[:-1], upper])
    return Mesh1D(nodes=nodes, n_per_layer=int(n_per_layer), grading=float(grading))


def refine_mesh(mesh: Mesh1D) -> Mesh1D:
    """Halve every element: the nested refinement used for convergence studies.

    The refined mesh keeps the total size ratio of its parent and halves
    every element, so the steps between successive refinements show the
    discretization's order of convergence.  A default-family mesh rebuilt at the doubled n
    has the same total ratio but other nodes, so it is not nested.
    """
    mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    nodes = np.sort(np.concatenate([mesh.nodes, mids]))
    return Mesh1D(nodes=nodes, n_per_layer=2 * mesh.n_per_layer, grading=mesh.grading)


@dataclass
class ModeMatrices:
    """Discrete Hermitian forms of one Fourier mode, in upper band storage.

    mass/gravity/compress/magnetic/elastic/dissipation carry the per-mode
    quadratic forms; coercivity_metric carries |w|^2 + |M.grad w|^2 + |div w|^2
    for the stability-certificate pencil.  Each is an array of shape
    (6, n_dof) in the layout of band.py; band.to_dense gives the matrix.
    Matrices are real symmetric except when the base field mixes vertical
    and in-plane components, which adds an imaginary skew part.  Treat
    instances as immutable: solvers evaluate Rayleigh quotients through the
    generating coefficients, so mutating a matrix in place desynchronizes
    them.

    The medium is read from ``coeffs.params.medium`` only; :attr:`operator`
    and :attr:`discriminant_pencil` are the one place that maps it to the
    stabilizing form (magnetic tension or elasticity).
    """

    mode: FourierMode
    mesh: Mesh1D
    coeffs: FormCoefficients
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
        """Energy operator A (band): gravity minus the medium's stabilizing forms."""
        if self.coeffs.params.medium == MHD:
            return self.gravity - self.compress - self.magnetic
        return self.gravity - self.compress - self.elastic

    @property
    def discriminant_pencil(self):
        """(numerator, denominator) of the stability discriminant, in band storage.

        mhd: gravity over compressibility plus magnetic tension; viscoelastic:
        gravity minus compressibility over elasticity.
        """
        if self.coeffs.params.medium == MHD:
            return self.gravity, self.compress + self.magnetic
        return self.gravity - self.compress, self.elastic

    def tilde_vector(self, field_values: np.ndarray) -> np.ndarray:
        """Map complex nodal (phi, theta, psi) values to the assembled basis."""
        z = np.array(field_values[1:-1], dtype=complex)
        z[:, 0] *= 1j
        z[:, 1] *= 1j
        return z.reshape(-1)

    def field_from_tilde(self, vec: np.ndarray) -> ModeField:
        """Inverse of :meth:`tilde_vector`, padded with Dirichlet zeros."""
        z = np.asarray(vec, dtype=complex).reshape(-1, 3).copy()
        z[:, 0] *= -1j
        z[:, 1] *= -1j
        values = np.zeros((self.mesh.nodes.size, 3), dtype=complex)
        values[1:-1] = z
        return ModeField(self.mesh.nodes, values)

    def quadratic(self, matrix: np.ndarray, field: ModeField) -> float:
        """Evaluate v* X v for a band matrix X and a ModeField through the basis map."""
        z = self.tilde_vector(field.values)
        return float(np.real(np.vdot(z, band.matvec(matrix, z))))


def _gram(*rows) -> np.ndarray:
    """sum of conj(r) r^T: the Hermitian 6x6 matrix of sum |r . f|^2 over f = (w, w')."""
    return sum(np.outer(np.conj(r), r) for r in rows)


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


def assemble(profile: EquilibriumProfile, params: PhysicalParams, mode: FourierMode,
             mesh: Mesh1D, quadrature_order: int = DEFAULT_QUADRATURE_ORDER,
             coeffs: Optional[FormCoefficients] = None) -> ModeMatrices:
    """Assemble all per-mode matrices on the given mesh.

    Piecewise-linear conforming elements per component, Gauss-Legendre
    quadrature of the given order per element; the interface jump enters
    the gravity matrix as a rank-one nodal term.  Every form is a sum of
    Hermitian 6x6 matrices C over f = (pt, tt, st, pt', tt', st'), each
    times one scalar coefficient per quadrature point.
    """
    if coeffs is None:
        coeffs = FormCoefficients(profile, params, mesh.nodes, quadrature_order)
    elif not np.array_equal(coeffs.grid, mesh.nodes):
        raise AssemblyError("coefficient table grid does not match the mesh")

    xi1, xi2 = mode.xi1, mode.xi2
    M1, M2, M3 = coeffs.M
    mdotxi = M1 * xi1 + M2 * xi2
    v, dv = np.eye(6)[:3], np.eye(6)[3:]            # value and derivative of each component
    div = xi1 * v[0] + xi2 * v[1] + dv[2]           # per-mode divergence (tilde)
    C_div = _gram(div)
    # |G + G^T|_F^2 / 2, shared by dissipation and elasticity
    C_sym = 2.0 * _gram(xi1 * v[0], xi2 * v[1], dv[2]) + _gram(
        xi1 * v[1] + xi2 * v[0], xi1 * v[2] - dv[0], xi2 * v[2] - dv[1])
    # magnetic rows d*M - m and field-directional rows m = (M.xi) w - i M3 w' (tilde)
    C_mag = coeffs.lam * _gram(M1 * div - mdotxi * v[0] + 1j * M3 * dv[0],
                               M2 * div - mdotxi * v[1] + 1j * M3 * dv[1],
                               M3 * (div - dv[2]) - 1j * mdotxi * v[2])
    C_dir = _gram(mdotxi * v[0] - 1j * M3 * dv[0], mdotxi * v[1] - 1j * M3 * dv[1],
                  M3 * dv[2] + 1j * mdotxi * v[2])
    C_val = _gram(*v)

    by_coefficient = (
        (coeffs.rho, {"mass": C_val,
                      "gravity": coeffs.g * (np.outer(div, v[2]) + np.outer(v[2], div))}),
        (coeffs.rho_prime, {"gravity": coeffs.g * np.outer(v[2], v[2])}),
        (coeffs.p_prime_rho, {"compress": C_div}),
        (1.0, {"magnetic": C_mag, "coercivity_metric": C_val + C_div + C_dir}),
        (coeffs.mu, {"dissipation": C_sym - (2.0 / 3.0) * C_div}),
        (coeffs.bulk, {"dissipation": C_div}),
        (coeffs.kappa, {"elastic": C_sym - C_div}),
    )
    blocks = {}
    for coefficient, forms in by_coefficient:
        m = _moments(coeffs, coefficient)
        for name, C in forms.items():
            blocks[name] = blocks.get(name, 0.0) + _element_blocks(m, C)

    # scatter the upper triangle of each element block into interior band storage
    out = {name: band.from_element_blocks(b, 3) for name, b in blocks.items()}

    # interface rank-one jump on psi's diagonal entry (dof 3*(i-1) + 2, last band row)
    out["gravity"][-1, 3 * mesh.interface_index - 1] += coeffs.g * coeffs.rho_jump

    mm = ModeMatrices(mode=mode, mesh=mesh, coeffs=coeffs, **out)
    for name, matrix in (("mass", mm.mass), ("dissipation", mm.dissipation)):
        if band.cholesky(matrix) is None:
            raise DefinitenessError(f"{name} matrix is not positive definite")
    return mm


def assemble_scalar_gravity_kernel(profile: EquilibriumProfile, mesh: Mesh1D,
                                   quadrature_order: int = DEFAULT_QUADRATURE_ORDER):
    """Scalar-psi forms restricted to divergence-free directions.

    Returns (Q, Mpsi) over interior psi dofs, in upper band storage with
    half-bandwidth 1: Q carries
    g*[[rho]]*psi(0)^2 + int(g*rho'*psi^2), Mpsi the rho-weighted mass.
    These are the numerator and normalization seen by fields whose per-mode
    divergence vanishes identically.
    """
    coeffs = FormCoefficients(profile, PhysicalParams(), mesh.nodes, quadrature_order)
    Q, Mp = (band.from_element_blocks(_moments(coeffs, coefficient)[:, 0, :, 0, :], 1)
             for coefficient in (coeffs.g * coeffs.rho_prime, coeffs.rho))
    Q[-1, mesh.interface_index - 1] += coeffs.g * coeffs.rho_jump
    return Q, Mp


def export_matrices(mm: ModeMatrices, path: str, fmt: str = "npz") -> None:
    """Write the six matrices for debugging.

    ``npz``: dense binary with keys mass/gravity/compress/magnetic/elastic/
    dissipation plus mode indices and mesh nodes.  ``txt``: one coordinate
    block per matrix ("name i j value", 0-based, upper triangle).
    """
    arrays = {name: band.to_dense(getattr(mm, name)) for name in
              ("mass", "gravity", "compress", "magnetic", "elastic", "dissipation")}
    if fmt == "npz":
        np.savez(path, k1=mm.mode.k1, k2=mm.mode.k2, nodes=mm.mesh.nodes, **arrays)
    elif fmt == "txt":
        with open(path, "w") as fh:
            fh.write("# per-mode matrices, coordinate format: name i j value\n")
            fh.write(f"# mode k=({mm.mode.k1},{mm.mode.k2}), n_dof={mm.n_dof}\n")
            for name, X in arrays.items():
                ii, jj = np.nonzero(np.triu(X))
                for i, j in zip(ii, jj):
                    fh.write(f"{name} {i} {j} {format(X[i, j], '.17g')}\n")
    else:
        raise ValueError(f"unknown export format {fmt!r}")
