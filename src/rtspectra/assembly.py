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


def _functional_rows(coeffs: FormCoefficients, mode: FourierMode):
    """Per-element row builders for value/derivative functionals.

    Returns (V, D) with V[c] of shape (ne, q, 6) selecting the value of
    component c at quadrature points, and D[c] the derivative.
    Local dof order: [pt1, tt1, st1, pt2, tt2, st2].
    """
    ne, q = coeffs.qp_y.shape
    N = coeffs.shape                      # (2, q)
    inv_h = 1.0 / coeffs.element_h        # (ne,)
    V = []
    D = []
    for c in range(3):
        v = np.zeros((ne, q, 6))
        v[:, :, c] = N[0][None, :]
        v[:, :, 3 + c] = N[1][None, :]
        V.append(v)
        d = np.zeros((ne, q, 6))
        d[:, :, c] = -inv_h[:, None]
        d[:, :, 3 + c] = inv_h[:, None]
        D.append(d)
    return V, D


def _accumulate(elem: np.ndarray, weight: np.ndarray, R: np.ndarray,
                S: Optional[np.ndarray] = None) -> None:
    """elem += sum_q weight * R^T S (symmetrized when S differs from R)."""
    if S is None:
        elem += np.einsum("eq,eqi,eqj->eij", weight, R, R, optimize=True)
    else:
        cross = np.einsum("eq,eqi,eqj->eij", weight, R, S, optimize=True)
        elem += cross + cross.transpose(0, 2, 1)


def _accumulate_complex(elem_real: np.ndarray, elem_skew: np.ndarray, weight: np.ndarray,
                        A: np.ndarray, B: np.ndarray) -> None:
    """Hermitian contribution of the functional A + i*B (A, B real rows).

    |(A + iB) z|^2 = z^H [ (A^T A + B^T B) + i (A^T B - B^T A) ] z; the skew
    part vanishes unless both A and B are nonzero.
    """
    if np.any(A):
        elem_real += np.einsum("eq,eqi,eqj->eij", weight, A, A, optimize=True)
    if np.any(B):
        elem_real += np.einsum("eq,eqi,eqj->eij", weight, B, B, optimize=True)
    if np.any(A) and np.any(B):
        cross = np.einsum("eq,eqi,eqj->eij", weight, A, B, optimize=True)
        elem_skew += cross - cross.transpose(0, 2, 1)


def assemble(profile: EquilibriumProfile, params: PhysicalParams, mode: FourierMode,
             mesh: Mesh1D, quadrature_order: int = DEFAULT_QUADRATURE_ORDER,
             coeffs: Optional[FormCoefficients] = None) -> ModeMatrices:
    """Assemble all per-mode matrices on the given mesh.

    Piecewise-linear conforming elements per component, Gauss-Legendre
    quadrature of the given order per element; the interface jump enters
    the gravity matrix as a rank-one nodal term.
    """
    if coeffs is None:
        coeffs = FormCoefficients(profile, params, mesh.nodes, quadrature_order)
    elif not np.array_equal(coeffs.grid, mesh.nodes):
        raise AssemblyError("coefficient table grid does not match the mesh")

    xi1, xi2 = mode.xi1, mode.xi2
    M1, M2, M3 = coeffs.M
    mdotxi = M1 * xi1 + M2 * xi2
    w = coeffs.qp_w
    ne = w.shape[0]

    V, D = _functional_rows(coeffs, mode)
    d_row = xi1 * V[0] + xi2 * V[1] + D[2]          # per-mode divergence (tilde)

    mats = {name: np.zeros((ne, 6, 6)) for name in
            ("mass", "gravity", "compress", "magnetic", "elastic", "dissipation", "metric")}
    skew = {name: np.zeros((ne, 6, 6)) for name in ("magnetic", "metric")}

    # mass and plain L2 part of the coercivity metric
    for c in range(3):
        _accumulate(mats["mass"], w * coeffs.rho, V[c])
        _accumulate(mats["metric"], w, V[c])

    # compressibility and the metric's divergence part
    _accumulate(mats["compress"], w * coeffs.p_prime_rho, d_row)
    _accumulate(mats["metric"], w, d_row)

    # gravity: stratification + divergence coupling (jump term added nodally)
    _accumulate(mats["gravity"], w * coeffs.g * coeffs.rho_prime, V[2])
    _accumulate(mats["gravity"], w * coeffs.g * coeffs.rho, d_row, V[2])

    # magnetic: lam * |d*M - m|^2, componentwise A + i*B with A, B real rows
    for A, B in (
        (M1 * d_row - mdotxi * V[0], M3 * D[0]),
        (M2 * d_row - mdotxi * V[1], M3 * D[1]),
        (M3 * (d_row - D[2]), -mdotxi * V[2]),
    ):
        _accumulate_complex(mats["magnetic"], skew["magnetic"], w * coeffs.lam, A, B)
    # metric's |M.grad w|^2 part: m_c = (M.xi) w_c - i M3 w_c' (horizontal comps)
    for A, B in (
        (mdotxi * V[0], -M3 * D[0]),
        (mdotxi * V[1], -M3 * D[1]),
        (M3 * D[2], mdotxi * V[2]),
    ):
        _accumulate_complex(mats["metric"], skew["metric"], w, A, B)

    # symmetric-gradient squares shared by dissipation and elasticity
    sym_rows = (
        (4.0, V[0] * xi1),
        (4.0, V[1] * xi2),
        (4.0, D[2]),
        (2.0, xi1 * V[1] + xi2 * V[0]),
        (2.0, xi1 * V[2] - D[0]),
        (2.0, xi2 * V[2] - D[1]),
    )
    for fac, row in sym_rows:
        if np.any(row):
            _accumulate(mats["dissipation"], w * (0.5 * coeffs.mu * fac), row)
            _accumulate(mats["elastic"], w * (0.5 * coeffs.kappa * fac), row)
    _accumulate(mats["dissipation"], w * (coeffs.bulk - 2.0 * coeffs.mu / 3.0), d_row)
    mats["elastic"] -= np.einsum("eq,eqi,eqj->eij", w * coeffs.kappa, d_row, d_row, optimize=True)

    # scatter the upper triangle of each element block into interior band storage
    out = {}
    for name, blocks in mats.items():
        if name in skew and np.any(skew[name]):
            blocks = blocks + 1j * skew[name]
        out[name] = band.from_element_blocks(blocks, 3)

    # interface rank-one jump contribution to gravity, on the diagonal (last band row)
    iface_dof = 3 * (mesh.interface_index - 1) + 2
    out["gravity"][-1, iface_dof] += coeffs.g * coeffs.rho_jump

    mm = ModeMatrices(
        mode=mode, mesh=mesh, coeffs=coeffs,
        mass=out["mass"], gravity=out["gravity"], compress=out["compress"],
        magnetic=out["magnetic"], elastic=out["elastic"],
        dissipation=out["dissipation"], coercivity_metric=out["metric"],
    )
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
    N = coeffs.shape
    w = coeffs.qp_w
    ne = w.shape[0]
    rowV = np.zeros((ne, N.shape[1], 2))
    rowV[:, :, 0] = N[0][None, :]
    rowV[:, :, 1] = N[1][None, :]
    blocks_q = np.einsum("eq,eqi,eqj->eij", w * coeffs.g * coeffs.rho_prime, rowV, rowV)
    blocks_m = np.einsum("eq,eqi,eqj->eij", w * coeffs.rho, rowV, rowV)
    Q, Mp = band.from_element_blocks(blocks_q, 1), band.from_element_blocks(blocks_m, 1)
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
