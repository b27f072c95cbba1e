"""P1 finite-element assembly of the per-mode Hermitian forms.

The forms are defined once, as the coefficient-matrix polynomial of
:func:`modereduce.form_polynomial`: every 6x6 matrix is sum_m xi^m C_m over
the six monomials 1, xi1, xi2, xi1^2, xi1*xi2, xi2^2 of the horizontal wave
vector.  The moments of the P1 shape functions and their slopes depend on
the grid only, so :class:`BandPolynomial` contracts them with every C_m
once per grid, and each band matrix is then sum_m xi^m B_m.  Each band of
a mode costs one weighted sum of its form's nonzero parts of the B_m; a
scan builds one BandPolynomial for all its modes.

The complex per-mode problem is assembled in a real coordinate basis: with
the substitution (phi, theta, psi) = (-i*pt, -i*tt, st) every form becomes
a real quadratic form in (pt, tt, st), and a general complex field splits
into two independent real problems (real and imaginary parts in the tilde
variables).  The assembled matrices are therefore real symmetric; they are
Hermitian representations of the original sesquilinear forms under the
nodal map z = (i*phi, i*theta, psi).

Degrees of freedom are interior nodes only (Dirichlet ends removed),
ordered node-major: dof(node j, comp c) = 3*(j-1) + c.  Every element couples
each pair of its n nodes (2 for P1, from FormCoefficients.shape), so each form
is banded with half-bandwidth 3n - 1, assembled straight into band storage (band.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import band
from .equilibrium import Geometry
from .errors import InputError, SolverError
from .modereduce import FormCoefficients, FourierMode, form_polynomial, xi_monomials
from .params import MHD

DEFAULT_N_PER_LAYER = 200
# Largest over smallest element of the default mesh family, the same at every n.
DEFAULT_SIZE_RATIO = 10.0
# Smallest admissible element, relative to the layer height.  A solver's value
# is a band product v* X v, which cancels to about eps*||X||, and ||X|| grows
# like 1/h_min.  Against the element-level quotients of their own eigenvectors,
# alpha and Lambda hold to 3.3e-10 of max(1, |value|) at h_min 1.6e-5 (n = 200,
# grading 1.04).  alpha(0) is off by 1.2e-9 at 2.9e-6 and by 1.5e-8 at 9.3e-8,
# where growth rates' fixed points start to fail.  The default family stays
# above the floor up to n of about 25,000.
MIN_ELEMENT_FRACTION = 1e-5


@dataclass(frozen=True)
class Mesh1D:
    """Conforming mesh on [h_minus, h_plus] with a node exactly at 0."""

    nodes: np.ndarray
    n_per_layer: int


def _layer_nodes(height: float, n: int, grading: float) -> np.ndarray:
    """Node offsets 0..height with element sizes growing away from 0 by `grading`.

    The element at 0 is (r - 1)/(r^n - 1) of the height for a ratio r > 1
    and 1/n of it at r = 1.  InputError, before any array is built, when it
    is below MIN_ELEMENT_FRACTION * height: every n above 1/MIN_ELEMENT_FRACTION
    is refused so.
    """
    # (r - 1)/(r^n - 1) = r^-(n-1) (1 - 1/r)/(1 - r^-n), whose powers of 1/r cannot overflow
    L = math.log(grading)
    smallest = height * (math.exp(-(n - 1) * L) * math.expm1(-L) / math.expm1(-n * L) if L > 0.0
                         else 1.0 / n)
    if not smallest >= MIN_ELEMENT_FRACTION * height:
        raise InputError(
            f"grading {grading} with {n} elements gives a smallest element of "
            f"{smallest:.3e}, below {MIN_ELEMENT_FRACTION:.0e} * layer height {height}"
        )
    sizes = grading ** (np.arange(n) - (n - 1.0))   # largest is 1: no overflow
    sizes *= height / sizes.sum()
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
    quadratic forms that the verdicts read.  Each is an array of shape
    (p + 1, n_dof) in the layout of band.py, with p = 3n - 1 for the n nodes
    per element of ``coeffs.shape`` (p = 5 for P1): entry (j - k, j) of the
    matrix sits at [p - k, j].  Matrices are real symmetric except when the
    base field mixes vertical and in-plane components, which adds an
    imaginary skew part.  The grid is ``coeffs.grid``.  :attr:`coercivity_metric`
    carries |w|^2 + |M.grad w|^2 + |div w|^2 for the stability-certificate
    pencil; only :func:`~.spectral.coercivity_constant` reads it, so it is
    contracted from ``coeffs`` on first read.

    ``mass`` does not depend on the mode: it is one read-only array, shared
    by every mode of a :class:`BandPolynomial`.  The bands are
    Fortran-ordered, the layout LAPACK and BLAS read, so no call has to
    transpose them first.

    The medium is read from ``coeffs.params.medium`` by :attr:`stabilizer`
    only, the one map from the medium to its stabilizing form (magnetic
    tension or elasticity); :attr:`operator` and :attr:`discriminant_pencil`
    are built from it.
    """

    mode: FourierMode
    coeffs: FormCoefficients
    mass: np.ndarray
    gravity: np.ndarray
    compress: np.ndarray
    magnetic: np.ndarray
    elastic: np.ndarray
    dissipation: np.ndarray

    @cached_property
    def coercivity_metric(self) -> np.ndarray:
        """Built on first read, by a :class:`BandPolynomial` of the metric alone."""
        name = "coercivity_metric"
        return BandPolynomial(self.coeffs, (name,)).band(name, self.mode)

    @property
    def n_dof(self) -> int:
        return self.mass.shape[1]

    @property
    def stabilizer(self) -> np.ndarray:
        """The stabilizing form of ``coeffs.params.medium``: magnetic tension
        for mhd, elasticity for a viscoelastic medium."""
        return self.magnetic if self.coeffs.params.medium == MHD else self.elastic

    @cached_property
    def operator(self) -> np.ndarray:
        """Energy operator A (band): gravity minus compressibility and the
        stabilizer, summed on first use into one read-only array."""
        A = (self.gravity - self.compress) - self.stabilizer
        A.setflags(write=False)
        return A

    @property
    def discriminant_pencil(self):
        """(numerator, denominator) of the stability discriminant, in band storage.

        mhd: gravity over compressibility plus magnetic tension; viscoelastic:
        gravity minus compressibility over elasticity.  Either way the
        numerator minus the denominator is :attr:`operator`.
        """
        if self.stabilizer is self.magnetic:
            return self.gravity, self.compress + self.stabilizer
        return self.gravity - self.compress, self.stabilizer


def _moments(coeffs: FormCoefficients, label: str, coefficient) -> np.ndarray:
    """Shape-function moments m[e, k, a, l, b] = sum_q w * coefficient * P[k, a] * P[l, b].

    P = [shape; slope / h] of the element tables maps an element's nodal values
    of one component to its value (k = 0) and derivative (k = 1) at a quadrature point.
    InputError naming ``label`` and the smallest element when a moment overflows.
    """
    (ne, q), n = coeffs.qp_w.shape, len(coeffs.shape)
    P = np.empty((ne, q, 2 * n))
    P[:, :, :n], P[:, :, n:] = coeffs.shape.T, coeffs.slope.T / coeffs.element_h[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        m = P.transpose(0, 2, 1) * (coefficient * coeffs.qp_w)[:, None, :] @ P
    if not np.all(np.isfinite(m)):
        raise InputError(f"the {label} coefficient's shape-function moments overflow: smallest "
                         f"element {coeffs.element_h.min():.3e}, largest coefficient {label} = "
                         f"{np.max(np.abs(coefficient)):.3e}")
    return m.reshape(ne, 2, n, 2, n)


# the forms that at() builds for every mode, in the order their overflow is reported
VERDICT_FORMS = ("gravity", "compress", "magnetic", "dissipation", "elastic")
FORMS = ("mass",) + VERDICT_FORMS + ("coercivity_metric",)
# A band matrix of half-bandwidth p in Fortran order holds, per interior node, p + 1 entries
# for each of its 3 components j: entry (row p - d, dof 3*node + j) couples dof 3*node + j
# with the dof d below it.  Lane (p + 1)*j + p - d is that entry along all nodes, so a node's
# 3*(p + 1) lanes are contiguous and the band is the (n_nodes, 3*(p + 1)) array of its lanes.


def _monomial_parts(polynomial, name):
    """The parts of form ``name`` as real matrices: its real part, then, for a
    form with a skew part (a complex matrix in :func:`~.modereduce.form_polynomial`),
    its imaginary part.

    Yields (monomial, T) per part: the monomials at which some coefficient's
    part is nonzero, and T[r, c] that part of coefficient c's matrix at
    monomial[r], with axes (k, i, l, j): k, l value or derivative, i, j the
    component.  A coefficient that is zero everywhere contributes nothing.
    """
    stacks = np.array([forms[name] if name in forms and np.any(coefficient)
                       else np.zeros((6, 6, 6)) for _, coefficient, forms in polynomial])
    for part in (stacks.real, stacks.imag) if np.iscomplexobj(stacks) else (stacks,):
        monomial = np.flatnonzero(np.any(part, axis=(0, 2, 3)))
        T = part[:, monomial].swapaxes(0, 1)
        yield monomial, T.reshape(len(T), len(polynomial), 2, 3, 2, 3)


class BandPolynomial:
    """The band matrices of the mass and of ``forms``, for every Fourier mode
    on the grid of ``coeffs``, as sum_m xi^m B_m over the monomials of
    :func:`~.modereduce.xi_monomials`.

    Built once per scan, of the verdict forms; a mode's coercivity metric
    builds one of its own.  The shape-function moments of every coefficient
    are contracted with the real monomial matrices of
    :func:`~.modereduce.form_polynomial`, one matrix product per pair of
    components and pair of element nodes, whose element blocks land straight
    in the band lanes they feed.  ``kept[name]`` holds one real lane group
    per part of the form (:func:`_monomial_parts`): the real part, then the
    imaginary part of a form with a skew part.  A group keeps only its
    nonzero lanes, grouped by lane and ordered by monomial in a lane, as
    (rows, monomial, starts, lanes): the rows from starts[g] up to the next
    start sum into lane lanes[g].  No array of the build is much larger than
    the lanes kept.  :meth:`band` gives one form of one mode.  The mass
    matrix does not depend on xi: it is built and Cholesky-factored here,
    once, and shared by every mode.  :meth:`at` then gives a mode's matrices,
    which do not keep this polynomial.
    """

    def __init__(self, coeffs: FormCoefficients, forms=VERDICT_FORMS):
        self.coeffs = coeffs
        self.polynomial = form_polynomial(coeffs)
        forms = ("mass",) + tuple(forms)
        names, monomials, Ts = zip(*((name, monomial, T) for name in forms
                                     for monomial, T in _monomial_parts(self.polynomial, name)))
        T = np.concatenate(Ts)
        sizes = [len(t) for t in Ts]
        ends = np.cumsum(sizes)
        n_pairs, n_c = T.shape[:2]
        ne, n = coeffs.element_h.size, len(coeffs.shape)  # elements, nodes per element
        p = 3 * n - 1                                     # half-bandwidth
        # mom[a, b][(c, k, l), e] for the node pairs (a, b) of element e
        mom = np.stack([_moments(coeffs, label, c).transpose(2, 4, 1, 3, 0)
                        for label, c, _ in self.polynomial], axis=2).reshape(n, n, -1, ne)

        # the nonzero lanes of every pair, lane by lane
        blocks, pairs, lane_of = [], [], []
        for i in range(3):
            for j in range(3):
                # component i of an element's node a with component j of its node b
                Tij = T[:, :, :, i, :, j].reshape(n_pairs, 4 * n_c)
                # s = b - a; the entry is on or above the diagonal, d >= 0, unless s = 0 < i - j
                for s in range(int(j < i), n):
                    d = 3 * s + j - i
                    # over every node, Dirichlet ends included: element e's node b is (n - 1)*e + b
                    values = np.zeros((n_pairs, (n - 1) * ne + 1))
                    for a in range(n - s):                # the pairs add in (a, b) order
                        values[:, a + s::n - 1][:, :ne] += Tij @ mom[a, a + s]
                    values[:, s] = 0.0                    # the entry whose row is node h_minus
                    values = values[:, 1:-1]
                    rows = np.flatnonzero(np.any(values, axis=1))
                    blocks.append(values[rows])
                    pairs.append(rows)
                    lane_of.append(np.full(rows.size, (p + 1) * j + p - d))
        values, pair, lane = (np.concatenate(x) for x in (blocks, pairs, lane_of))
        self.kept = {name: [] for name in forms}
        for name, monomial, first, end in zip(names, monomials, ends - sizes, ends):
            mine = (pair >= first) & (pair < end)
            group_lanes = lane[mine]
            starts = np.flatnonzero(np.diff(group_lanes, prepend=-1))
            self.kept[name].append((values[mine], monomial[pair[mine] - first], starts,
                                    group_lanes[starts]))

        self.mass = self.band("mass", FourierMode(0, 0, 0.0, 0.0))
        if band.cholesky(self.mass) is None:
            raise SolverError("mass matrix is not positive definite")
        self.mass.setflags(write=False)

    def band(self, name: str, mode: FourierMode) -> np.ndarray:
        """Form ``name`` of ``mode`` in band storage, Fortran-ordered: each
        lane group of the form weighted by the mode's monomials and summed
        lane by lane, into the band's real part and then its imaginary part.
        InputError naming the mode, its |xi|, the smallest element and the
        form's largest coefficient (lambda*|M|^2 for the magnetic form, whose
        coefficient is 1) when the band's Frobenius norm overflows.

        The band is complex exactly when the form's imaginary group sums to
        a nonzero entry at this mode.
        """
        w = xi_monomials(mode)
        parts = [(np.add.reduceat(rows * w[monomial][:, None], starts), lanes)
                 for rows, monomial, starts, lanes in self.kept[name]]
        if len(parts) > 1 and not np.any(parts[1][0]):
            parts.pop()                                   # the skew part cancels at this mode
        height = 3 * len(self.coeffs.shape)               # p + 1
        out = np.zeros((parts[0][0].shape[1], 3 * height), complex if len(parts) > 1 else float)
        for target, (summed, lanes) in zip((out.real, out.imag), parts):
            target[:, lanes] = summed.T
        ab = out.reshape(-1, height).T                    # (p + 1, n_dof), Fortran order
        if not math.isfinite(band.frobenius(ab)):
            largest, label = max((np.max(np.abs(coefficient)), label)
                                 for label, coefficient, forms in self.polynomial
                                 if name in forms)
            if name == "magnetic":                        # its coefficient is 1
                largest, label = self.coeffs.params.lam_M2, "lambda*|M|^2"
            raise InputError(f"the {name} matrix's Frobenius norm overflows at mode "
                             f"({mode.k1},{mode.k2}), |xi| = "
                             f"{math.hypot(mode.xi1, mode.xi2):.3e}: smallest element "
                             f"{self.coeffs.element_h.min():.3e}, largest coefficient "
                             f"{label} = {largest:.3e}")
        return ab

    def at(self, mode: FourierMode) -> ModeMatrices:
        """The matrices of ``mode``: the shared mass, the verdict forms from
        :meth:`band`, and the Cholesky check of the dissipation matrix."""
        mm = ModeMatrices(mode=mode, coeffs=self.coeffs, mass=self.mass,
                          **{name: self.band(name, mode) for name in VERDICT_FORMS})
        if band.cholesky(mm.dissipation) is None:
            raise SolverError("dissipation matrix is not positive definite")
        return mm


def assemble(coeffs, mode: FourierMode) -> ModeMatrices:
    """Assemble the per-mode matrices on the grid of ``coeffs``.

    Piecewise-linear conforming elements per component, with the
    Gauss-Legendre points of ``coeffs`` in every element.  Every form is the
    sum of its Hermitian 6x6 matrices C from :func:`~.modereduce.form_polynomial`,
    each times one scalar coefficient per quadrature point, contracted with
    the P1 shape-function moments.  ``coeffs`` is a :class:`FormCoefficients`,
    or the :class:`BandPolynomial` of one, which a scan builds once for all
    its modes; a :class:`FormCoefficients` gets its own.
    """
    forms = coeffs if isinstance(coeffs, BandPolynomial) else BandPolynomial(coeffs)
    return forms.at(mode)

