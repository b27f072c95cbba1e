"""Per-mode variational solvers and the global mode scan.

The stability discriminant per mode is the largest generalized eigenvalue
of (numerator, denominator); the growth rate comes from the fixed point
Lambda^2 = alpha(Lambda) with alpha(s) the largest eigenvalue of the
dissipation-penalized pencil (A - s*D, Mass).

Both are top eigenpairs of banded Hermitian pencils with a definite
right-hand side, from one solver (_top_pair): inverse iteration in a bracket
of the top eigenvalue that banded Cholesky factorizations certify.  A cold
solve climbs the shifts 1, 4, 16, ... from a seeded vector (alpha(0), the
coercivity constant) or, for the discriminant, from the alpha(0)
eigenvector plus a share of the seeded one: the energy operator is the
discriminant's numerator minus its denominator, so that vector is a field of
large N/B.  Along the fixed-point iteration each alpha(s) starts warm from
the previous eigenpair.  The
discriminant's singular cases are settled before the solve (xi_per_mode), so
no dense matrix is built.
alpha is non-increasing and convex in s (a supremum of affine functions
of s), so f(s) = alpha(s) - s^2 is strictly decreasing and the fixed point
is the root of a bracketed Newton iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import band
from .assembly import BandPolynomial, ModeMatrices, assemble
from .errors import InputError, RTSpectraError, SolverError
from .modereduce import FormCoefficients, FourierMode, energy_signs, form_values
from .params import MHD, VISCOELASTIC

EIGVEC_RESIDUAL_TOL = 1e-8
# alpha must lie within this relative margin below the top of its pencil
TOP_BRANCH_MARGIN = 1e-6
# shifts 1, 4, 16, ..., 4**40 (about 1e24) are tried above a spectrum, or offsets
# delta, 4*delta, ... above a guess
SHIFT_TRIES = 41
# seeds the start vector of inverse iteration
START_SEED = 20240811
# a cold start from a given vector adds the seeded one at this share of its M-norm
SEEDED_SHARE = 0.1
# the bracket [lo, sigma] of a top eigenvalue closes at BRACKET_TOL * max(1, |lo|)
BRACKET_TOL = 1e-12
BRACKET_STEP = 0.1      # trial shifts lie at most this fraction of the way from lo to sigma
AIM_FACTOR = 8.0        # aimed trial shifts lie this many last quotient changes above lo
WARM_OFFSET = 1e-3      # a warm start's first shift lies this relative offset above its guess
INVERSE_STEPS = 200
MAX_FIXED_POINT_STEPS = 100


@dataclass
class ModeVerdict:
    """Stability summary of one Fourier mode."""

    mode: FourierMode
    xi_value: float                       # may be math.inf
    alpha0: float
    lambda_value: Optional[float] = None
    residual: Optional[float] = None      # |Lambda^2 - alpha(Lambda)|
    diagnostics: dict = field(default_factory=dict)


@dataclass
class StabilityVerdict:
    """Scan aggregate: per-mode verdicts plus global suprema."""

    verdicts: List[ModeVerdict]
    global_xi: float
    global_lambda: Optional[float]
    truncation_converged: bool
    errors: Dict[Tuple[int, int], str] = field(default_factory=dict)


def _m_unit(mb: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v scaled to v* M v = 1."""
    return v / math.sqrt(float(np.real(np.vdot(v, band.matvec(mb, v)))))


def _top_pair(hb: np.ndarray, mb: np.ndarray,
              guess: Optional[Tuple[float, np.ndarray]] = None):
    """Largest eigenvalue of the Hermitian pencil (H, M), M positive definite,
    and its eigenvector normalized to v* M v = 1; H and M in upper band
    storage of one shape.

    A shift sigma whose sigma*M - H has a banded Cholesky factor lies above
    the whole spectrum; one that does not factor lies below the top and
    raises lo.  Cold (no ``guess``), sigma = 1, 4, 16, ... and inverse
    iteration starts from a seeded vector, so a repeated call returns the
    same bits; ``guess = (None, vector)`` keeps those shifts and starts from
    ``vector`` plus the seeded vector at SEEDED_SHARE of its M-norm, so
    that a vector with no component along the top eigenvector (one in a
    block of the pencil that does not hold it) still has one.  With
    ``guess = (value, vector)``, the top and eigenvector of a nearby
    pencil, sigma = value + delta with delta = WARM_OFFSET * max(1,
    |value|), the offset grows 4x per shift that does not factor, and
    inverse iteration starts from the guessed vector.

    Inverse iteration then closes a bracket [lo, sigma] of the top.  Each
    Rayleigh quotient rho (never above the top, so above sigma only by
    rounding) raises lo up to sigma, and a trial shift lo + step becomes
    sigma if it factors, else lo.  The step is BRACKET_STEP*(sigma - lo),
    or, after a trial that factored, the smaller AIM_FACTOR*|rho - rho_prev|
    (at least half the closing tolerance): the quotient's last change
    bounds how far below the top it still is.  Once sigma - lo <=
    BRACKET_TOL*max(1, |lo|) it returns lo, inside the bracket, with the
    last iterate, which came from the shift nearest the top.  lo is that
    iterate's quotient, or the same within band-product rounding (about
    eps*||H||): an earlier quotient or a shift that did not factor.
    """
    base, v = (None, None) if guess is None else guess
    if base is None:
        base, offset = 0.0, 1.0
        seeded = np.random.default_rng(START_SEED).uniform(-1.0, 1.0, hb.shape[1])
        v = seeded if v is None else _m_unit(mb, v) + SEEDED_SHARE * _m_unit(mb, seeded)
    else:
        offset = WARM_OFFSET * max(1.0, abs(base))
    lo = -math.inf
    for _ in range(SHIFT_TRIES):
        sigma = base + offset
        factor = band.cholesky(sigma * mb - hb)
        if factor is not None:
            break
        lo, offset = sigma, 4.0 * offset
    else:
        raise SolverError(f"no shift up to {sigma:.1e} lies above the pencil's spectrum")

    mv, rho_prev = band.matvec(mb, v), None     # rho_prev: set after a trial that factored
    for _ in range(INVERSE_STEPS):
        v = band.solve(factor, mv)
        mv = band.matvec(mb, v)
        norm2 = float(np.real(np.vdot(v, mv)))
        rho = float(np.real(np.vdot(v, band.matvec(hb, v)))) / norm2
        if not (norm2 > 0.0 and math.isfinite(rho)):
            raise SolverError(f"inverse iteration at shift {sigma:.6g} gave the quotient {rho}")
        v, mv = v / math.sqrt(norm2), mv / math.sqrt(norm2)
        lo = max(lo, min(rho, sigma))
        tol = BRACKET_TOL * max(1.0, abs(lo))
        if sigma - lo <= tol:
            return lo, v
        step = BRACKET_STEP * (sigma - lo)
        if rho_prev is not None:
            step = min(step, max(0.5 * tol, AIM_FACTOR * abs(rho - rho_prev)))
        shift = lo + step
        trial = band.cholesky(shift * mb - hb)
        if trial is None:
            lo = shift
        else:
            sigma, factor = shift, trial
        rho_prev = None if trial is None else rho
    raise SolverError(f"top eigenvalue bracket [{lo:.17g}, {sigma:.17g}] still open "
                      f"after {INVERSE_STEPS} inverse-iteration steps")


def _element_quotient(matrices: ModeMatrices, s: float, v: np.ndarray) -> float:
    """(E(v) - s*Psi(v)) / mass(v) by form_values at the quadrature points,
    both from one pass over them.

    A band product v* X v cancels to eps * ||X|| ||v||^2, and the entries of X
    grow like 1/h: on the accepted mesh n = 200, grading 1.09 (smallest
    element 2.9e-9 of a layer) _top_pair's own quotient is off a dense
    reference by up to 1.6e-7, this one by 1e-13.
    """
    co = matrices.coeffs
    energy, mass = form_values(co, matrices.table, (
        {**energy_signs(co.params), "dissipation": -s}, {"mass": 1.0}), matrices.at_quadrature(v))
    return energy / mass


def alpha(s: float, matrices: ModeMatrices,
          guess: Optional[Tuple[float, np.ndarray]] = None):
    """Largest eigenvalue of the pencil (A - s*D, Mass) and its eigenvector.

    The value is the element-level Rayleigh quotient of the banded
    solver's eigenvector (v* Mass v = 1), which graded meshes do not spoil
    by cancellation.  ``guess``, the (value, eigenvector) of alpha at a
    nearby s, warm-starts the banded solver (_top_pair); without it the
    solve starts cold from a seeded vector.  SolverError when the
    eigen-residual is too large, or when the value lifted by a relative
    TOP_BRANCH_MARGIN stays below the closing shift bound of the solver's
    bracket, top + BRACKET_TOL*max(1, |top|) (the vector is then not on the
    top branch).  The bracket's closing shift, at most that bound, factored,
    and a larger shift adds a positive multiple of Mass, so the pencil
    factors at the lifted value as well.
    """
    if s < 0:
        raise InputError(f"s must be nonnegative, got {s}")
    A, D, M = matrices.operator, matrices.dissipation, matrices.mass
    H = A - s * D
    top, v = _top_pair(H, M, guess)
    rho = _element_quotient(matrices, s, v)
    res = np.linalg.norm(band.matvec(H, v) - rho * band.matvec(M, v))
    scale = (band.frobenius(A) + abs(s) * band.frobenius(D)) * np.linalg.norm(v)
    if res > EIGVEC_RESIDUAL_TOL * scale:
        raise SolverError(
            f"eigenvector residual {res:.3e} exceeds {EIGVEC_RESIDUAL_TOL:.1e} * {scale:.3e}")
    if rho + TOP_BRANCH_MARGIN * max(1.0, abs(rho)) < top + BRACKET_TOL * max(1.0, abs(top)):
        raise SolverError(f"alpha({s:.6g}) = {rho:.6g} is not the top of its pencil")
    return rho, v


def growth_rate_detailed(matrices: ModeMatrices, tol: float = 1e-8,
                         alpha0: Optional[Tuple[float, np.ndarray]] = None):
    """Fixed point Lambda of Lambda^2 = alpha(Lambda), with the principal
    eigenvector and the fixed-point residual; (None, None, None) when stable.

    ``alpha0`` is the result of alpha(0.0, matrices) when the caller
    has it already; it is solved here otherwise, cold.  Every later
    alpha(s) is warm-started from the previous (alpha, eigenvector), so a
    caller that passes a cold alpha(0.0) gets the bits of one that passes
    none.

    Newton iteration on f(s) = alpha(s) - s^2 from s = 0, with the
    Hellmann-Feynman slope f'(s) = -v* D v - 2s of the mass-normalized top
    eigenvector v.  Each evaluation narrows a bracket [lo, hi] with
    f(lo) > 0 >= f(hi), starting from [0, sqrt(alpha(0)) + 1], and a step
    that leaves it is replaced by its midpoint.  Returns once
    |f| <= tol * max(1, s^2); SolverError if the bracket collapses first.
    """
    if not tol > 0:
        raise InputError("tol must be positive")
    a, vec = alpha0 if alpha0 is not None else alpha(0.0, matrices)
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
        a, vec = alpha(s, matrices, guess=(a, vec))
        f = a - s * s
        if abs(f) <= tol * max(1.0, s * s):
            return s, vec, abs(f)
        lo, hi = (s, hi) if f > 0.0 else (lo, s)
    raise SolverError(f"no fixed point with |f| <= {tol:.1e} in [{lo:.17g}, {hi:.17g}] "
                       f"(last |f|={abs(f):.3e})")


def _transverse_kernel(matrices: ModeMatrices) -> bool:
    """mhd with M3 = 0 and M . xi = 0 (to rounding: 0.3*2 - 0.2*3 = -1.1e-16).

    The magnetic form then only sees the divergence, so the horizontal
    component transverse to xi is in the kernel of both forms.
    """
    mode, M = matrices.mode, matrices.coeffs.M
    return (matrices.coeffs.params.medium == MHD and M[2] == 0.0
            and abs(M[0] * mode.xi1 + M[1] * mode.xi2)
            <= 1e-12 * math.hypot(M[0], M[1]) * math.sqrt(mode.norm2))


def xi_per_mode(matrices: ModeMatrices,
                alpha0: Optional[Tuple[float, np.ndarray]] = None):
    """Per-mode discriminant: sup of numerator/denominator Rayleigh quotients.

    Returns (value, eigvec) with value possibly math.inf.  Explicit cases,
    settled from the model before any solve, with eigvec None:
    - xi = 0 or g = 0: the gravity form 2*g*int(rho*Re(conj(psi)*i*xi.w_h))
      and its matrix vanish identically: exactly 0.0;
    - a denominator that vanishes on every divergence-free field: a
      transverse kernel (_transverse_kernel, no field included), whose
      magnetic form is lam*|M_h|^2*|div w|^2, or viscoelastic with kappa = 0
      in both layers, whose denominator is identically 0.  With xi != 0 the
      horizontal components absorb any psi', and on those fields the
      numerator integrates by parts to g*[[rho]]*|psi(0)|^2 +
      int(g*rho'*|psi|^2).  rho' < 0 in each layer, so a psi concentrated at
      the interface (criteria.small_field_witness) makes it positive exactly
      when [[rho]] > 0: then inf;
    - viscoelastic, kappa = 0 in both layers and [[rho]] <= 0: 0.0.  With
      d = div w = i*xi.w_h + psi', the numerator gravity - compress is
      g*[[rho]]*|psi(0)|^2 + int(g*rho'*|psi|^2 + 2*g*rho*Re(conj(psi)*d)
      - P'(rho)*rho*|d|^2).  Its maximum over d, at d = g*psi/P'(rho),
      adds int(g^2*rho/P'(rho)*|psi|^2), which hydrostatic balance
      P'(rho)*rho' = -g*rho cancels against the stratification.  That
      leaves g*[[rho]]*|psi(0)|^2 <= 0: no direction has a positive
      numerator.
    A transverse kernel with [[rho]] <= 0 adds t t^T, t = (-xi2, xi1, 0)/|xi|,
    to each node's block of the denominator: both forms vanish on t and the
    supremum is >= 0 (psi = 0 gives 0).  The pencil, Jacobi-scaled by the
    mass diagonal (uniform within a node), then goes to the banded solver,
    whose shift bracket certifies the value.  SolverError when the scaled
    denominator does not factor.

    The solve climbs the cold shifts 1, 4, 16, ... but starts inverse
    iteration from the eigenvector of alpha(0), in the scaled coordinates:
    the energy operator is numerator minus denominator, so alpha(0) > 0
    exactly when xi > 1 and its top eigenvector is a field of large N/B,
    where a random start sits in the high-frequency fields of large B.
    When alpha(0) < 0 that eigenvector can lie in a block of the pencil
    that decouples from the top, such as the horizontal shear transverse to
    xi of a viscoelastic or horizontal-field mode, where N vanishes: the
    seeded share that _top_pair adds to the start reaches the top's block.
    ``alpha0`` is the result of alpha(0.0, matrices) when the caller has it
    already (analyze_mode); it is solved here otherwise, after the explicit
    cases and the denominator check, so either way gives the same bits.
    """
    mode, co = matrices.mode, matrices.coeffs
    if mode.is_zero() or co.g == 0.0:
        return 0.0, None
    Nmat, B = matrices.discriminant_pencil
    transverse = _transverse_kernel(matrices)
    if transverse or not np.any(B):
        if co.profile.density_jump > 0.0:
            return math.inf, None
        if not transverse:
            return 0.0, None

    dinv = 1.0 / np.sqrt(matrices.mass[-1].real)     # the last band row is the diagonal
    Bs, Ns = band.jacobi_scaled(B, dinv), band.jacobi_scaled(Nmat, dinv)
    if transverse:
        t1, t2 = -mode.xi2 / math.sqrt(mode.norm2), mode.xi1 / math.sqrt(mode.norm2)
        Bs[-1, 0::3] += t1 * t1
        Bs[-1, 1::3] += t2 * t2
        Bs[-2, 1::3] += t1 * t2
    if band.cholesky(Bs) is None:
        raise SolverError(f"singular denominator at mode ({mode.k1}, {mode.k2}): "
                               "no banded Cholesky factor")
    _, v0 = alpha0 if alpha0 is not None else alpha(0.0, matrices)
    val, u = _top_pair(Ns, Bs, (None, v0 / dinv))
    return val, dinv * u


def coercivity_constant(matrices: ModeMatrices) -> float:
    """Smallest eigenvalue of (-A, metric): positive certifies coercivity.

    A positive value realizes the stabilizing estimate
    ||(w, M.grad w, div w)||^2 <= (1/constant) * (-E(w)) at this mode.
    Metric and mass are both definite, so the top eigenvalue of (A, metric)
    has the sign of alpha(0); SolverError when it is positive.
    """
    top, _ = _top_pair(matrices.operator, matrices.coercivity_metric)
    if top > 0.0:
        raise SolverError(
            f"-A is not positive semidefinite (top eigenvalue of (A, metric) = {top:.6g} > 0): "
            "mode not strictly stable")
    return -top


def mode_lattice(k_max: int):
    """Half lattice exploiting the xi -> -xi symmetry, including (0, 0)."""
    modes = [(0, k2) for k2 in range(0, k_max + 1)]
    modes += [(k1, k2) for k1 in range(1, k_max + 1) for k2 in range(-k_max, k_max + 1)]
    return sorted(modes)


def analyze_mode(matrices: ModeMatrices, tol: float = 1e-8) -> ModeVerdict:
    """Full verdict for one assembled mode: alpha(0), solved once, starts
    both the discriminant's solve and the fixed point."""
    a0, v0 = alpha(0.0, matrices)
    xi_val, _ = xi_per_mode(matrices, alpha0=(a0, v0))
    lam = res = None
    if a0 > 0.0:
        lam, _, res = growth_rate_detailed(matrices, tol, alpha0=(a0, v0))
    return ModeVerdict(mode=matrices.mode, xi_value=xi_val, alpha0=a0, lambda_value=lam,
                       residual=res)


def global_scan(coeffs: FormCoefficients, k_max: int, tol: float = 1e-8) -> StabilityVerdict:
    """Scan the half mode lattice |k1|,|k2| <= k_max and aggregate suprema.

    Every mode is assembled on ``coeffs``, whose profile gives the geometry
    and whose params the medium, from one :class:`~.assembly.BandPolynomial`
    built before the first mode.
    With a viscoelastic ``params.medium``, or an mhd field with M1 = M2 = 0,
    every per-mode form is invariant under a rotation of the horizontal
    components, so modes of equal |xi|^2 have orthogonally equivalent
    pencils and equal verdicts.  The modes are then grouped by the exact
    float ``mode.norm2``: only the first mode of each class in lattice order
    is assembled and solved, and every member gets a copy of its verdict
    under its own mode.  Any other field solves every mode.

    A mode whose solve raises RTSpectraError is reported in ``errors`` (with
    every member of its class) and the scan goes on; any other exception
    propagates.  The truncation flag drops to False when a boundary-shell
    mode is unstable (xi >= 1 or a positive growth rate) or unsolved:
    instability could extend past it.
    """
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    params, geometry = coeffs.params, coeffs.profile.geometry
    isotropic = params.medium == VISCOELASTIC or params.M[0] == params.M[1] == 0.0
    verdicts, errors = [], {}
    solved = {}     # class key -> ModeVerdict or error message
    forms = None
    for k1, k2 in mode_lattice(k_max):
        mode = FourierMode.from_indices(k1, k2, geometry)
        key = mode.norm2 if isotropic else (k1, k2)
        if key not in solved:
            try:
                if forms is None:
                    forms = BandPolynomial(coeffs)
                solved[key] = analyze_mode(assemble(forms, mode), tol)
            except RTSpectraError as exc:
                solved[key] = f"{type(exc).__name__}: {exc}"
        result = solved[key]
        if isinstance(result, str):
            errors[(k1, k2)] = result
        else:
            verdicts.append(replace(result, mode=mode, diagnostics={}))
    xi_values = [v.xi_value for v in verdicts]
    lambdas = [v.lambda_value for v in verdicts if v.lambda_value is not None]
    # unstable or unsolved modes on the boundary shell void the truncation claim
    unsettled = [(v.mode.k1, v.mode.k2) for v in verdicts
                 if v.xi_value >= 1.0 or (v.lambda_value or 0.0) > 0.0] + list(errors)
    return StabilityVerdict(
        verdicts=verdicts, global_xi=max(xi_values) if xi_values else math.nan,
        global_lambda=max(lambdas) if lambdas else None, errors=errors,
        truncation_converged=all(max(abs(k1), abs(k2)) < k_max for k1, k2 in unsettled))
