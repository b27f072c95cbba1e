"""Per-mode variational solvers and the global mode scan.

The stability discriminant per mode is the largest generalized eigenvalue
of (numerator, denominator); the growth rate comes from the fixed point
Lambda^2 = alpha(Lambda) with alpha(s) the largest eigenvalue of the
dissipation-penalized pencil (A - s*D, Mass).

Both are top eigenpairs of banded Hermitian pencils with a definite
right-hand side, computed by one banded shift-invert solver (_top_pair) on
the matrices as assembled, in upper band storage.
alpha is non-increasing and convex in s (a supremum of affine functions
of s), so f(s) = alpha(s) - s^2 is strictly decreasing and the fixed point
is the root of a bracketed Newton iteration.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigs, eigsh

from . import band
from .assembly import Mesh1D, ModeMatrices, assemble, assemble_scalar_gravity_kernel
from .equilibrium import EquilibriumProfile
from .errors import (BracketError, EigenSolverError, IndefiniteDenominatorError,
                     IndefinitePencilError, RTSpectraError)
from . import modereduce as mr
from .modereduce import FormCoefficients, FourierMode
from .params import MHD, VISCOELASTIC, PhysicalParams

EPS_NULL = 1e-10
EIGVEC_RESIDUAL_TOL = 1e-8
# alpha must factor as the top of its pencil at this relative margin above it
TOP_BRANCH_MARGIN = 1e-6
# shifts 1, 4, 16, ..., 4**40 (about 1e24) are tried above a spectrum
SHIFT_TRIES = 41
# seeds the Lanczos start vector and ARPACK's restart vectors
LANCZOS_SEED = 20240811
MAX_FIXED_POINT_STEPS = 100


@dataclass
class ModeVerdict:
    """Stability summary of one Fourier mode."""

    mode: FourierMode
    xi_value: float                       # may be math.inf
    alpha0: float
    lambda_value: Optional[float] = None
    residual: Optional[float] = None      # |Lambda^2 - alpha(Lambda)|
    eigvec: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)


@dataclass
class StabilityVerdict:
    """Scan aggregate: per-mode verdicts plus global suprema."""

    verdicts: List[ModeVerdict]
    global_xi: float
    global_lambda: Optional[float]
    truncation_converged: bool
    errors: Dict[Tuple[int, int], str] = field(default_factory=dict)


def _operator(matrices: ModeMatrices, medium: str):
    """Energy operator A and the Frobenius norms of A and the dissipation, cached."""
    key = ("operator", medium)
    if key not in matrices._cache:
        A = matrices.operator(medium)
        matrices._cache[key] = A, band.frobenius(A), band.frobenius(matrices.dissipation)
    return matrices._cache[key]


def _top_pair(hb: np.ndarray, mb: np.ndarray):
    """Largest eigenvalue of the Hermitian pencil (H, M), M positive definite,
    and its eigenvector normalized to v* M v = 1.  H and M come in upper
    band storage of one shape.

    sigma = 1, 4, 16, ... grows until sigma*M - H has a banded Cholesky
    factor, which certifies that sigma lies above the whole spectrum.
    Shift-invert Lanczos about sigma, with that factor as the inverse, then
    finds the eigenvalue nearest sigma.  The start vector and ARPACK's
    restart vectors come from a seeded generator, so a repeated call
    returns the same bits.
    """
    p, n = hb.shape[0] - 1, hb.shape[1]
    dtype = np.result_type(hb, mb)
    hb, mb = hb.astype(dtype, copy=False), mb.astype(dtype, copy=False)
    sigma = 1.0
    for _ in range(SHIFT_TRIES):
        factor = band.cholesky(sigma * mb - hb)
        if factor is not None:
            break
        sigma *= 4.0
    else:
        raise EigenSolverError(f"no shift up to {sigma / 4.0:.1e} lies above the pencil's spectrum")

    complex_pencil = np.iscomplexobj(mb)
    bandmv = sla.get_blas_funcs("hbmv" if complex_pencil else "sbmv", (mb,))
    H_op, M_op = (LinearOperator((n, n), matvec=lambda x, b=b: bandmv(p, 1.0, b, x), dtype=dtype)
                  for b in (hb, mb))
    OPinv = LinearOperator((n, n), dtype=dtype, matvec=lambda x: -sla.cho_solve_banded(
        (factor, False), x, check_finite=False))
    rng = np.random.default_rng(LANCZOS_SEED)
    v0 = rng.uniform(-1.0, 1.0, n).astype(dtype)
    # eigsh hands complex input to eigs without the generator, so call eigs directly
    solver = eigs if complex_pencil else eigsh
    try:
        w, V = solver(H_op, k=1, M=M_op, sigma=sigma, OPinv=OPinv, v0=v0, rng=rng)
    except (ArpackNoConvergence, ArpackError) as exc:
        raise EigenSolverError(f"shift-invert Lanczos failed: {exc}") from exc
    v = V[:, 0]
    return float(np.real(w[0])), v / math.sqrt(float(np.real(np.vdot(v, M_op.matvec(v)))))


def _form_rayleigh(matrices: ModeMatrices, medium: str, s: float, v: np.ndarray) -> float:
    """(E(v) - s*Psi(v)) / mass(v) evaluated through the per-element forms.

    Element-level quadrature sums the same quadratic forms without the
    catastrophic cancellation a dense matrix product suffers on strongly
    graded meshes, so Rayleigh quotients of smooth eigenvectors come out
    accurate to rounding rather than to eps * ||matrix||.
    """
    fld, co, mode = matrices.field_from_tilde(v), matrices.coeffs, matrices.mode
    e, p = mr.energy_form(fld, co, mode, medium), mr.dissipation_form(fld, co, mode)
    return (e - s * p) / mr.mass_form(fld, co)


def alpha(s: float, matrices: ModeMatrices, medium: str):
    """Largest eigenvalue of the pencil (A - s*D, Mass) and its eigenvector.

    The value is the element-wise Rayleigh quotient of the banded solver's
    eigenvector (v* Mass v = 1), which graded meshes do not spoil by
    cancellation.  EigenSolverError when the eigen-residual is too large,
    or when the pencil does not factor a relative TOP_BRANCH_MARGIN above
    the value (the vector is then not on the top branch).
    """
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    (A, norm_a, norm_d), M = _operator(matrices, medium), matrices.mass
    H = A - s * matrices.dissipation
    _, v = _top_pair(H, M)
    rho = _form_rayleigh(matrices, medium, s, v)
    res = np.linalg.norm(band.matvec(H, v) - rho * band.matvec(M, v))
    scale = (norm_a + abs(s) * norm_d) * np.linalg.norm(v)
    if res > EIGVEC_RESIDUAL_TOL * scale:
        raise EigenSolverError(
            f"eigenvector residual {res:.3e} exceeds {EIGVEC_RESIDUAL_TOL:.1e} * {scale:.3e}")
    if band.cholesky((rho + TOP_BRANCH_MARGIN * max(1.0, abs(rho))) * M - H) is None:
        raise EigenSolverError(f"alpha({s:.6g}) = {rho:.6g} is not the top of its pencil")
    return rho, v


def growth_rate(matrices: ModeMatrices, medium: str, tol: float = 1e-8):
    """Fixed point Lambda of Lambda^2 = alpha(Lambda), or None when stable."""
    return growth_rate_detailed(matrices, medium, tol)[0]


def growth_rate_detailed(matrices: ModeMatrices, medium: str, tol: float = 1e-8,
                         alpha0: Optional[Tuple[float, np.ndarray]] = None):
    """growth_rate plus the principal eigenvector and fixed-point residual.

    ``alpha0`` is the result of alpha(0.0, matrices, medium) when the caller
    has it already; it is solved here otherwise.

    Newton iteration on f(s) = alpha(s) - s^2 from s = 0, with the
    Hellmann-Feynman slope f'(s) = -v* D v - 2s of the mass-normalized top
    eigenvector v.  Each evaluation narrows a bracket [lo, hi] with
    f(lo) > 0 >= f(hi), starting from [0, sqrt(alpha(0)) + 1], and a step
    that leaves it is replaced by its midpoint.  Returns once
    |f| <= tol * max(1, s^2); BracketError if the bracket collapses first.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    a, vec = alpha0 if alpha0 is not None else alpha(0.0, matrices, medium)
    if a <= 0.0:
        return None, None, None
    lo, hi = 0.0, math.sqrt(a) + 1.0
    s, f = 0.0, a
    for _ in range(MAX_FIXED_POINT_STEPS):
        s -= f / (-float(np.real(np.vdot(vec, band.matvec(matrices.dissipation, vec)))) - 2.0 * s)
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
            if not lo < s < hi:
                break
        a, vec = alpha(s, matrices, medium)
        f = a - s * s
        if abs(f) <= tol * max(1.0, s * s):
            return s, vec, abs(f)
        lo, hi = (s, hi) if f > 0.0 else (lo, s)
    raise BracketError(f"no fixed point with |f| <= {tol:.1e} in [{lo:.17g}, {hi:.17g}] "
                       f"(last |f|={abs(f):.3e})")


def _xi_pencil(matrices: ModeMatrices, medium: str):
    if medium == MHD:
        return matrices.gravity, matrices.compress + matrices.magnetic
    if medium == VISCOELASTIC:
        return matrices.gravity - matrices.compress, matrices.elastic
    raise ValueError(f"unknown medium {medium!r}")


def _divfree_kernel_unbounded(matrices: ModeMatrices, medium: str):
    """Certificate field of an infinite discriminant, or None.

    For mhd with M3 = 0 and M . xi = 0 the magnetic form only sees the
    divergence, so the denominator vanishes on divergence-free fields; with
    xi != 0 the horizontal components absorb any psi', and that kernel
    carries the scalar numerator g*[[rho]]*psi(0)^2 + int(g*rho'*psi^2).
    A positive supremum of that form certifies an infinite discriminant.
    """
    mode, co, M = matrices.mode, matrices.coeffs, matrices.coeffs.M
    if (medium != MHD or mode.is_zero() or co.g == 0.0 or M[2] != 0.0
            or (M[0] * mode.xi1 + M[1] * mode.xi2) != 0.0):
        return None
    Q, Mpsi = assemble_scalar_gravity_kernel(co.profile, matrices.mesh, co.quadrature_order)
    lam_max, psi = _top_pair(Q, Mpsi)
    if lam_max <= 1e-10 * max(1.0, co.g):
        return None
    # embed the certificate as a near-divergence-free nodal field
    psi_full = np.concatenate(([0.0], psi, [0.0]))
    slope = np.gradient(psi_full, matrices.mesh.nodes)
    vec = np.zeros((matrices.mesh.nodes.size, 3))
    vec[:, 0] = -mode.xi1 / mode.norm2 * slope
    vec[:, 1] = -mode.xi2 / mode.norm2 * slope
    vec[:, 2] = psi_full
    v = vec[1:-1].reshape(-1)
    return v if float(np.real(np.vdot(v, band.matvec(matrices.gravity, v)))) > 0.0 else None


def _hermitize(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X + X.conj().T)


def _xi_deflated(Ns: np.ndarray, Bs: np.ndarray, eps_null: float):
    """Discriminant of a Jacobi-scaled pencil whose denominator is singular.

    A positive numerator direction on the denominator's near-null space
    certifies an infinite supremum, a nonpositive one is deflated away, and
    a sign-indefinite numerator there raises IndefiniteDenominatorError.
    Returns (value, eigvec) in the scaled coordinates.
    """
    def top(X):
        w, U = sla.eigh(X, subset_by_index=[len(X) - 1] * 2, check_finite=False)
        return float(w[0]), U[:, 0]

    try:
        w, V = sla.eigh(Bs, check_finite=False)
        tol_pos = eps_null * max(1.0, float(np.linalg.norm(Ns)))
        if w[-1] <= 0.0:
            # denominator vanishes identically: classify by the numerator alone
            nmax, nvec = top(Ns)
            return (math.inf if nmax > tol_pos else 0.0), nvec
        null_mask = w < eps_null * w[-1]
        if np.any(null_mask):
            V0 = V[:, null_mask]
            N0 = _hermitize(V0.conj().T @ Ns @ V0)
            n0 = sla.eigvalsh(N0, check_finite=False)
            if n0[-1] > tol_pos:
                if n0[0] < -tol_pos:
                    raise IndefiniteDenominatorError(
                        "numerator indefinite on the denominator's near-null space")
                return math.inf, V0 @ top(N0)[1]
        W = V[:, ~null_mask] / np.sqrt(w[~null_mask])
        val, u = top(_hermitize(W.conj().T @ Ns @ W))
        return val, W @ u
    except sla.LinAlgError as exc:
        raise EigenSolverError(f"dense Hermitian eigensolver failed: {exc}") from exc


def xi_per_mode(matrices: ModeMatrices, medium: str, eps_null: float = EPS_NULL):
    """Per-mode discriminant: sup of numerator/denominator Rayleigh quotients.

    Returns (value, eigvec) with value possibly math.inf.  The pencil is
    Jacobi-scaled by the mass diagonal so that graded meshes do not fake
    singularity.  When the scaled denominator has a banded Cholesky factor,
    the banded solver gives the top eigenpair; a denominator that does not
    factor, or an eigenvector that fails to realize its eigenvalue as a
    quotient, goes to the singular-denominator deflation (_xi_deflated).
    """
    Nmat, B = _xi_pencil(matrices, medium)
    v_inf = _divfree_kernel_unbounded(matrices, medium)
    if v_inf is not None:
        return math.inf, v_inf

    dinv = 1.0 / np.sqrt(matrices.mass[-1].real)     # the last band row is the diagonal
    Bs, Ns = band.jacobi_scaled(B, dinv), band.jacobi_scaled(Nmat, dinv)
    if band.cholesky(Bs) is not None:
        val, u = _top_pair(Ns, Bs)
        v = dinv * u
        qn = float(np.real(np.vdot(v, band.matvec(Nmat, v))))
        qb = float(np.real(np.vdot(v, band.matvec(B, v))))
        # a gross mismatch means a numerically singular denominator slipped through the
        # factorization (the tolerance covers stiff graded-mesh pencils)
        if qb > 0.0 and abs(qn / qb - val) <= 1e-6 * max(1.0, abs(val)):
            return val, v
    val, u = _xi_deflated(band.to_dense(Ns), band.to_dense(Bs), eps_null)
    return val, dinv * u


def coercivity_constant(matrices: ModeMatrices, medium: str = MHD) -> float:
    """Smallest eigenvalue of (-A, metric): positive certifies coercivity.

    A positive value realizes the stabilizing estimate
    ||(w, M.grad w, div w)||^2 <= (1/constant) * (-E(w)) at this mode.
    Metric and mass are both definite, so the top eigenvalue of (A, metric)
    has the sign of alpha(0); IndefinitePencilError when it is positive.
    """
    top, _ = _top_pair(_operator(matrices, medium)[0], matrices.coercivity_metric)
    if top > 0.0:
        raise IndefinitePencilError(
            f"-A is not positive semidefinite (top eigenvalue of (A, metric) = {top:.6g} > 0): "
            "mode not strictly stable")
    return -top


def mode_lattice(k_max: int):
    """Half lattice exploiting the xi -> -xi symmetry, including (0, 0)."""
    modes = [(0, k2) for k2 in range(0, k_max + 1)]
    modes += [(k1, k2) for k1 in range(1, k_max + 1) for k2 in range(-k_max, k_max + 1)]
    return sorted(modes)


def analyze_mode(matrices: ModeMatrices, medium: str, tol: float = 1e-8,
                 keep_eigvec: bool = False) -> ModeVerdict:
    """Full verdict for one assembled mode."""
    xi_val, xvec = xi_per_mode(matrices, medium)
    a0, v0 = alpha(0.0, matrices, medium)
    lam = res = vec = None
    if a0 > 0.0:
        lam, vec, res = growth_rate_detailed(matrices, medium, tol, alpha0=(a0, v0))
    return ModeVerdict(mode=matrices.mode, xi_value=xi_val, alpha0=a0, lambda_value=lam,
                       residual=res,
                       eigvec=(vec if vec is not None else xvec) if keep_eigvec else None)


def global_scan(profile: EquilibriumProfile, params: PhysicalParams, mesh: Mesh1D,
                k_max: int, medium: str, tol: float = 1e-8,
                quadrature_order: int = 6, threads: int = 1) -> StabilityVerdict:
    """Scan the half mode lattice |k1|,|k2| <= k_max and aggregate suprema.

    A mode whose solve raises RTSpectraError is reported in ``errors`` and
    the scan goes on; any other exception propagates.  The truncation flag
    drops to False when a boundary-shell mode is unstable (xi >= 1 or a
    positive growth rate) or unsolved: instability could extend past it.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    coeffs = FormCoefficients(profile, params, mesh.nodes, quadrature_order)
    modes = mode_lattice(k_max)

    def solve(km):
        mode = FourierMode.from_indices(km[0], km[1], profile.geometry)
        try:
            mm = assemble(profile, params, mode, mesh, quadrature_order, coeffs=coeffs)
            return analyze_mode(mm, medium, tol)
        except RTSpectraError as exc:
            return f"{type(exc).__name__}: {exc}"

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(solve, modes))
    else:
        outcomes = [solve(km) for km in modes]
    verdicts = [out for out in outcomes if isinstance(out, ModeVerdict)]
    errors = {km: out for km, out in zip(modes, outcomes) if isinstance(out, str)}

    xi_values = [v.xi_value for v in verdicts]
    lambdas = [v.lambda_value for v in verdicts if v.lambda_value is not None]
    # unstable or unsolved modes on the boundary shell void the truncation claim
    unsettled = [(v.mode.k1, v.mode.k2) for v in verdicts
                 if v.xi_value >= 1.0 or (v.lambda_value or 0.0) > 0.0] + list(errors)
    return StabilityVerdict(
        verdicts=verdicts, global_xi=max(xi_values) if xi_values else math.nan,
        global_lambda=max(lambdas) if lambdas else None, errors=errors,
        truncation_converged=all(max(abs(k1), abs(k2)) < k_max for k1, k2 in unsettled))
