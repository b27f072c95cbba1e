"""Per-mode variational solvers and the global mode scan.

The stability discriminant per mode is the largest generalized eigenvalue
of (numerator, denominator); alpha(s) is the largest eigenvalue of the
dissipation-penalized pencil (A - s*D, Mass); the growth rate Lambda, the
root of Lambda^2 = alpha(Lambda), is the largest real eigenvalue of the
quadratic pencil s^2*Mass + s*D - A.

All three come from one solver (_top_pair): inverse iteration in a bracket
of the top of a banded Hermitian pencil, linear or quadratic, that banded
Cholesky factorizations certify.  A start vector's value (Rayleigh
quotient, or functional for the quadratic pencil) is never above the top,
so it is the bracket's first lower end, and the shifts climb from four
times it: max(1, 4*value), then x4.  alpha(0) starts from a seeded vector,
with no lower end, at the shifts 1, 4, 16, ...  The discriminant starts
from the alpha(0) eigenvector plus a share of the seeded one: the energy
operator is the discriminant's numerator minus its denominator, so that
vector is a field of large N/B.  The growth rate's bracket starts from the
alpha(0) eigenvector: alpha is non-increasing and convex in s (a supremum
of affine functions of s), so f(s) = alpha(s) - s^2 is strictly decreasing
and the quadratic pencil factors exactly above Lambda.  One alpha(Lambda),
started from the bracket's last iterate, gives the eigenvector and the
fixed-point residual.  Every value is the lower end of its bracket,
which holds the top to BRACKET_TOL or to band-product rounding (about
eps*||H||), whichever is larger; the mesh floor
assembly.MIN_ELEMENT_FRACTION keeps that rounding small.  The
discriminant's singular cases are settled before the solve (xi_per_mode),
so no dense matrix is built.  The seeded vector is splitmix64 of a
counter, computed in uint64 arithmetic (_start_vector), so that no solve
loads numpy.random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import band
from .assembly import BandPolynomial, ModeMatrices, assemble
from .equilibrium import supremum_p_prime_rho
from .errors import InputError, SolverError
from .modereduce import FormCoefficients, FourierMode
from .params import MHD, VISCOELASTIC

EIGVEC_RESIDUAL_TOL = 1e-8
# shifts f, 4f, 16f, ..., 4**40*f (f >= 1; about 1e24*f) are tried above a spectrum
SHIFT_TRIES = 41
# seeds the start vector of inverse iteration (_start_vector)
START_SEED = 20240811
# xi_per_mode's start adds the seeded vector to alpha(0)'s at this share of its B-norm
SEEDED_SHARE = 0.1
# the bracket [lo, sigma] of a top eigenvalue closes at BRACKET_TOL * max(1, |lo|)
BRACKET_TOL = 1e-12
BRACKET_STEP = 0.1      # trial shifts lie at most this fraction of the way from lo to sigma
AIM_FACTOR = 8.0        # aimed trial shifts lie this many last value changes above lo
INVERSE_STEPS = 200
# the largest scanned k_max: its half lattice holds 2*k^2 + 2*k + 1 <= 100,000 modes
MAX_K_MAX = 223


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


def _splitmix64(n: int, state: int) -> np.ndarray:
    """splitmix64's output function (Steele, Lea & Flood 2014) at the states
    state + i*0x9E3779B97F4A7C15, i < n, its golden-ratio increment.

    A stateless counter-based sequence in uint64 arithmetic (wrapping, as
    in C): no generator object and no ``numpy.random``, whose import loads
    ``secrets``, ``hmac`` and libcrypto, and every call gives the same bits.
    """
    z = np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(state)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _start_vector(n: int, state: int = START_SEED) -> np.ndarray:
    """The draws _splitmix64(n, state) with their top 53 bits mapped to
    [-1, 1); at the default state, the seeded vector of a cold start."""
    return (_splitmix64(n, state) >> np.uint64(11)).astype(np.float64) * 2.0 ** -52 - 1.0


def _functional(a: float, d: float, m: float) -> float:
    """Positive root p of p^2*m + p*d - a = 0 (m > 0, d >= 0), without
    cancellation; 0.0 when a <= 0, which leaves no positive root."""
    if a <= 0.0:
        return 0.0
    return 2.0 * a / (d + math.sqrt(d * d + 4.0 * m * a))


def _shifted(hb: np.ndarray, mb: np.ndarray, db: Optional[np.ndarray], sigma: float):
    """The pencil at sigma: sigma*M - H, or sigma^2*M + sigma*D - H with ``db``."""
    return sigma * mb - hb if db is None else (sigma * sigma) * mb + sigma * db - hb


def _pencil_value(hb: np.ndarray, db: Optional[np.ndarray], v: np.ndarray,
                  norm2: float) -> float:
    """v's Rayleigh quotient v* H v / norm2 (``db`` None), or its Rayleigh
    functional _functional(v* H v, v* D v, norm2); norm2 = v* M v."""
    a = float(np.real(np.vdot(v, band.matvec(hb, v))))
    if db is None:
        return a / norm2
    return _functional(a, float(np.real(np.vdot(v, band.matvec(db, v)))), norm2)


def _top_pair(hb: np.ndarray, mb: np.ndarray, start: Optional[np.ndarray] = None,
              db: Optional[np.ndarray] = None):
    """Top of a Hermitian pencil and its eigenvector normalized to
    v* M v = 1; H, M and D in upper band storage of one shape, M positive
    definite.

    Two pencils share the solve.  Without ``db`` it is the linear pencil
    sigma*M - H, whose top is the largest eigenvalue of (H, M) and whose
    value of a vector is its Rayleigh quotient.  With ``db``, D positive
    semidefinite, it is the quadratic pencil Q(sigma) = sigma^2*M +
    sigma*D - H, whose top is its largest real eigenvalue Lambda (positive,
    for an H that is not negative semidefinite, the only case solved), and
    whose value of v is its Rayleigh functional p(v), the positive root of
    p^2*v*Mv + p*v*Dv - v*Hv = 0 (Voss & Werner 1982).  Either value is
    never above the top.  The linear pencil has a banded Cholesky factor at
    a shift sigma exactly when sigma lies above its top, and so has Q at a
    shift sigma >= 0, because sigma^2 - alpha(sigma), with alpha(sigma) the
    top of (H - sigma*D, M), is strictly increasing there.  A shift that
    factors is an upper bound, one that does not raises lo, the bracket's
    lower end.

    Inverse iteration starts from ``start`` as given, and lo from its value;
    without a start, from the seeded vector _start_vector(n), a stateless
    function of n, so a repeated call, in this process or another, returns
    the same bits, and from lo = -inf.  The shifts sigma = f, 4f, 16f, ...
    with f = max(1, 4*lo) are tried until one factors.

    Inverse iteration v <- P(sigma)^-1 M v, P the pencil at the closing
    shift, then closes the bracket [lo, sigma] of the top.  Each value rho
    of an iterate (never above the top, so above sigma only by rounding)
    raises lo up to sigma, and a trial shift lo + step becomes sigma if it
    factors, else lo.  The step is BRACKET_STEP*(sigma - lo), or, after a
    trial that factored, the smaller AIM_FACTOR*|rho - rho_prev| (at least
    half the closing tolerance): the value's last change bounds how far
    below the top it still is.  Once sigma - lo <= BRACKET_TOL*max(1, |lo|)
    it returns lo, inside the bracket, with the last iterate, which came
    from the shift nearest the top.  lo is that iterate's value, or the
    same within band-product rounding (about eps*||H||): an earlier value
    or a shift that did not factor.
    """
    v = _start_vector(hb.shape[1]) if start is None else start
    mv = band.matvec(mb, v)
    lo = -math.inf if start is None else _pencil_value(hb, db, v, float(np.real(np.vdot(v, mv))))
    sigma = max(1.0, 4.0 * lo)
    for _ in range(SHIFT_TRIES):
        factor = band.cholesky(_shifted(hb, mb, db, sigma))
        if factor is not None:
            break
        lo, sigma = sigma, 4.0 * sigma
    else:
        raise SolverError(f"no shift up to {lo:.1e} lies above the pencil's spectrum")

    rho_prev = None     # set after a trial that factored
    for _ in range(INVERSE_STEPS):
        v = band.solve(factor, mv)
        mv = band.matvec(mb, v)
        norm2 = float(np.real(np.vdot(v, mv)))
        rho = _pencil_value(hb, db, v, norm2)
        if not (norm2 > 0.0 and math.isfinite(rho)):
            raise SolverError(f"inverse iteration at shift {sigma:.6g} gave the value {rho}")
        v, mv = v / math.sqrt(norm2), mv / math.sqrt(norm2)
        lo = max(lo, min(rho, sigma))
        tol = BRACKET_TOL * max(1.0, abs(lo))
        if sigma - lo <= tol:
            return lo, v
        step = BRACKET_STEP * (sigma - lo)
        if rho_prev is not None:
            step = min(step, max(0.5 * tol, AIM_FACTOR * abs(rho - rho_prev)))
        shift = lo + step
        trial = band.cholesky(_shifted(hb, mb, db, shift))
        if trial is None:
            lo = shift
        else:
            sigma, factor = shift, trial
        rho_prev = None if trial is None else rho
    raise SolverError(f"top eigenvalue bracket [{lo:.17g}, {sigma:.17g}] still open "
                      f"after {INVERSE_STEPS} inverse-iteration steps")


def alpha(s: float, matrices: ModeMatrices, start: Optional[np.ndarray] = None):
    """Largest eigenvalue of the pencil (A - s*D, Mass) and its eigenvector.

    The value is the lower end lo of the bracket that the banded solver
    (_top_pair) closes, and the vector its last iterate (v* Mass v = 1).
    The bracket holds the top to max(BRACKET_TOL*max(1, |lo|), band-product
    rounding of about eps*||A - s*D||); its upper end is a shift at which
    the pencil factored, so no eigenvalue lies above it.  ``start``, such
    as the eigenvector of alpha at a nearby s, starts the solver's inverse
    iteration and bracket (_top_pair); without it the solve starts from a
    seeded vector.  SolverError when the eigen-residual
    ||(A - s*D) v - lo*Mass v|| exceeds EIGVEC_RESIDUAL_TOL times
    ||A - s*D||_F*||v||, which ties the vector to the value; the Frobenius
    norm is one pass over the band that the solve reads.
    """
    if s < 0:
        raise InputError(f"s must be nonnegative, got {s}")
    H = matrices.operator - s * matrices.dissipation
    M = matrices.mass
    rho, v = _top_pair(H, M, start)
    res = np.linalg.norm(band.matvec(H, v) - rho * band.matvec(M, v))
    scale = band.frobenius(H) * np.linalg.norm(v)
    if res > EIGVEC_RESIDUAL_TOL * scale:
        raise SolverError(
            f"eigenvector residual {res:.3e} exceeds {EIGVEC_RESIDUAL_TOL:.1e} * {scale:.3e}")
    return rho, v


def growth_rate_detailed(matrices: ModeMatrices, tol: float = 1e-8,
                         alpha0: Optional[Tuple[float, np.ndarray]] = None):
    """Growth rate Lambda, the root of Lambda^2 = alpha(Lambda), with the
    principal eigenvector and the fixed-point residual |Lambda^2 -
    alpha(Lambda)|; (None, None, None) when stable.

    ``alpha0`` is the result of alpha(0.0, matrices) when the caller
    has it already; it is solved here otherwise, cold, with the same bits.

    Lambda is the top of the quadratic pencil Q(s) = s^2*Mass + s*Diss - A
    (Tisseur & Meerbergen 2001), solved by one bracket of _top_pair: Q(s)
    factors exactly when f(s) = alpha(s) - s^2 < 0, that is when s lies
    above Lambda, as f is strictly decreasing.  The bracket starts from the
    alpha(0) eigenvector v0.  Lambda is the bracket's lower end, and one
    alpha(Lambda), started from the bracket's last iterate, gives the
    eigenvector and the residual.  SolverError when the residual exceeds
    tol * max(1, Lambda^2).  The bracket, like every _top_pair bracket,
    holds Lambda to max(BRACKET_TOL*max(1, Lambda), band-product rounding
    of about eps*||A||).
    """
    if not tol > 0:
        raise InputError("tol must be positive")
    a, v0 = alpha0 if alpha0 is not None else alpha(0.0, matrices)
    if a <= 0.0:
        return None, None, None
    lam, u = _top_pair(matrices.operator, matrices.mass, v0, matrices.dissipation)
    value, vec = alpha(lam, matrices, start=u)
    residual = abs(lam * lam - value)
    if residual > tol * max(1.0, lam * lam):
        raise SolverError(f"growth rate {lam:.17g} leaves |Lambda^2 - alpha(Lambda)| = "
                          f"{residual:.3e} > {tol:.1e} * max(1, Lambda^2)")
    return lam, vec, residual


def _transverse_kernel(matrices: ModeMatrices) -> bool:
    """mhd with M3 = 0 and M . xi = 0 (to rounding: 0.3*2 - 0.2*3 = -1.1e-16).

    The magnetic form then only sees the divergence, lam*|M_h|^2*|div w|^2,
    and the horizontal component transverse to xi is in both forms' kernels.
    """
    mode, M = matrices.mode, matrices.coeffs.params.M
    return (matrices.coeffs.params.medium == MHD and M[2] == 0.0
            and abs(M[0] * mode.xi1 + M[1] * mode.xi2)
            <= 1e-12 * math.hypot(M[0], M[1]) * math.sqrt(mode.norm2))


def xi_per_mode(matrices: ModeMatrices,
                alpha0: Optional[Tuple[float, np.ndarray]] = None):
    """Per-mode discriminant: sup of numerator/denominator Rayleigh quotients.

    Returns (value, eigvec) with value possibly math.inf.  Explicit cases,
    settled from the model before any solve or band, with eigvec None:
    - xi = 0 or g = 0: the gravity form 2*g*int(rho*Re(conj(psi)*i*xi.w_h))
      and its matrix vanish identically: exactly 0.0;
    - a transverse kernel (_transverse_kernel, no field included) or
      viscoelastic with kappa = 0 in both layers.  With d = div w =
      i*xi.w_h + psi', the horizontal components make d free of psi, and
      the numerator is g*[[rho]]*|psi(0)|^2 + int(g*rho'*|psi|^2 +
      2*g*rho*Re(conj(psi)*d)), minus int(c*|d|^2) with c = P'(rho)*rho
      for viscoelastic.  On d = 0 it is positive for a psi concentrated at
      the interface (criteria.small_field_witness) exactly when [[rho]] > 0:
      then inf.  Otherwise hydrostatic balance, g*rho' = -g^2*rho^2/c, leaves
      g*[[rho]]*|psi(0)|^2 + int(g^2*rho^2*|psi|^2*(1/(t*(c + m)) - 1/c))
      as the sup over d of the numerator minus t times the transverse
      denominator int((c + m)*|d|^2), m = lam*|M_h|^2, so xi = S/(S + m),
      S = sup c (equilibrium.supremum_p_prime_rho).  For viscoelastic, whose
      denominator is identically 0, it leaves g*[[rho]]*|psi(0)|^2 <= 0:
      exactly 0.0.
    Otherwise the pencil goes to the banded solver as assembled, in
    assembly's coordinates (a congruence such as a diagonal scaling would
    not change its eigenvalues), and the solver's shift bracket certifies
    the value.  SolverError when the denominator does not factor.

    Inverse iteration starts from the eigenvector v0 of alpha(0) plus the
    seeded vector at SEEDED_SHARE of its B-norm: the energy operator is
    numerator minus denominator, so alpha(0) > 0 exactly when xi > 1 and
    its top eigenvector is a field of large N/B, where a random start sits
    in the high-frequency fields of large B.  The seeded share reaches the
    top's block when v0 lies in a block of the pencil that decouples from
    it, such as the horizontal shear transverse to xi of a viscoelastic or
    horizontal-field mode, where N vanishes.  The start's quotient N/B
    starts the bracket and its shifts (_top_pair); on an unstable mode it
    is above 1 (2.3-2.9 against xi of 6-50 on the unstable growth_mixed
    modes of seeds 1-5).
    ``alpha0`` is the result of alpha(0.0, matrices) when the caller has it
    already (analyze_mode); it is solved here otherwise, after the explicit
    cases and the denominator check, so either way gives the same bits.
    """
    mode, co, params = matrices.mode, matrices.coeffs, matrices.coeffs.params
    if mode.is_zero() or co.profile.g == 0.0:
        return 0.0, None
    transverse = _transverse_kernel(matrices)
    if transverse or (params.medium == VISCOELASTIC
                      and params.kappa_plus == params.kappa_minus == 0.0):
        if co.profile.density_jump > 0.0:
            return math.inf, None
        if not transverse:
            return 0.0, None
        S = supremum_p_prime_rho(co.profile)
        return S / (S + params.lam * (params.M[0] ** 2 + params.M[1] ** 2)), None

    Nmat, B = matrices.discriminant_pencil
    if band.cholesky(B) is None:
        raise SolverError(f"singular denominator at mode ({mode.k1}, {mode.k2}): "
                               "no banded Cholesky factor")
    _, v0 = alpha0 if alpha0 is not None else alpha(0.0, matrices)
    start = _m_unit(B, v0) + SEEDED_SHARE * _m_unit(B, _start_vector(B.shape[1]))
    return _top_pair(Nmat, B, start)


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

    A mode whose solve raises SolverError is reported in ``errors`` (with
    every member of its class) and the scan goes on; any other exception,
    an InputError from the grid included, propagates.  The truncation flag
    drops to False when a boundary-shell mode is unstable (xi >= 1 or a
    positive growth rate) or unsolved: instability could extend past it.
    """
    if not 1 <= k_max <= MAX_K_MAX:
        raise InputError(f"k_max must be between 1 and {MAX_K_MAX}, a half lattice of at most "
                         f"100,000 modes, got {k_max}")
    params, geometry = coeffs.params, coeffs.profile.geometry
    isotropic = params.medium == VISCOELASTIC or params.M[0] == params.M[1] == 0.0
    verdicts, errors = [], {}
    solved = {}     # class key -> ModeVerdict or error message
    forms = BandPolynomial(coeffs)
    for k1, k2 in mode_lattice(k_max):
        mode = FourierMode.from_indices(k1, k2, geometry)
        key = mode.norm2 if isotropic else (k1, k2)
        if key not in solved:
            try:
                solved[key] = analyze_mode(assemble(forms, mode), tol)
            except SolverError as exc:
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
