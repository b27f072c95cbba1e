"""Independent oracles used by the unit and acceptance tests.

Everything here avoids the library's form/assembly machinery: piecewise
linear evaluation, per-element Gauss panels, and the 1D frequency
functional are re-coded directly from their definitions.  The hydrostatic
layers are integrated numerically (DOP853), independent of the closed
forms the library evaluates.  ``to_csr`` views a band matrix as a CSR
matrix through ``scipy.sparse.diags``, independent of the library's own
CSR build (``band.block_csr``), and ``dense`` as a dense array.
"""

import math

import numpy as np
import scipy.linalg as sla
from scipy.integrate import solve_ivp
from scipy.sparse import diags

from rtspectra import band
from rtspectra.equilibrium import VACUUM_FLOOR
from rtspectra.errors import InputError, SolverError
from rtspectra.evolution import NORM_OVERFLOW, EvolutionResult, fit_rate

GAUSS12 = np.polynomial.legendre.leggauss(12)


def oracle_integrate(grid, integrand):
    """Per-element Gauss-12 quadrature of integrand(y) over the grid span."""
    x, w = GAUSS12
    y0, y1 = grid[:-1], grid[1:]
    h = y1 - y0
    y = y0[:, None] + np.outer(h, (x + 1.0) / 2.0)
    return float(np.sum(np.outer(h, w / 2.0) * integrand(y)))


def to_csr(ab):
    """The Hermitian band matrix ab (LAPACK upper storage) as a CSR matrix
    without stored zeros."""
    p, n = ab.shape[0] - 1, ab.shape[1]
    upper = [ab[p - k, k:] for k in range(1, p + 1)]
    X = diags([u.conj() for u in upper[::-1]] + [ab[p].real.astype(ab.dtype)] + upper,
              range(-p, p + 1), shape=(n, n), format="csr", dtype=ab.dtype)
    X.eliminate_zeros()
    return X


def dense(ab):
    """The Hermitian band matrix ab (LAPACK upper storage) as a dense array."""
    return to_csr(ab).toarray()


def _outer_gram(*rows):
    return sum(np.outer(np.conj(r), r) for r in rows)


def per_mode_table(coeffs, mode):
    """The per-mode forms as (label, coefficient, {form name: C}) triples, each
    6x6 matrix C built from its rows at the mode's xi: the table as
    ``modereduce`` wrote it before its forms became polynomials in xi."""
    xi1, xi2 = mode.xi1, mode.xi2
    M1, M2, M3 = coeffs.params.M
    mdotxi = M1 * xi1 + M2 * xi2
    v, dv = np.eye(6)[:3], np.eye(6)[3:]
    wh = xi1 * v[0] + xi2 * v[1]
    div = wh + dv[2]
    C_div = _outer_gram(div)
    C_sym = 2.0 * _outer_gram(xi1 * v[0], xi2 * v[1], dv[2]) + _outer_gram(
        xi1 * v[1] + xi2 * v[0], xi1 * v[2] - dv[0], xi2 * v[2] - dv[1])
    C_mag = coeffs.params.lam * _outer_gram(M1 * div - mdotxi * v[0] + 1j * M3 * dv[0],
                                            M2 * div - mdotxi * v[1] + 1j * M3 * dv[1],
                                            M3 * (div - dv[2]) - 1j * mdotxi * v[2])
    C_dir = _outer_gram(mdotxi * v[0] - 1j * M3 * dv[0], mdotxi * v[1] - 1j * M3 * dv[1],
                        M3 * dv[2] + 1j * mdotxi * v[2])
    C_val = _outer_gram(*v)
    return (
        ("density", coeffs.rho,
         {"mass": C_val,
          "gravity": coeffs.profile.g * (np.outer(wh, v[2]) + np.outer(v[2], wh))}),
        ("P'(rho)*rho", coeffs.p_prime_rho, {"compress": C_div}),
        ("1", 1.0, {"magnetic": C_mag, "coercivity_metric": C_val + C_div + C_dir}),
        ("mu", coeffs.mu, {"dissipation": C_sym - (2.0 / 3.0) * C_div}),
        ("bulk", coeffs.bulk, {"dissipation": C_div}),
        ("kappa", coeffs.kappa, {"elastic": C_sym - C_div}),
    )


def per_mode_matrices(coeffs, mode):
    """Dense per-mode matrices by the per-mode contraction: every 6x6 matrix of
    :func:`per_mode_table` (taken real when its imaginary part vanishes)
    contracted, element by element, with the P1 shape-function moments of its
    coefficient, and the element blocks added into a dense matrix whose
    Dirichlet ends are then cut."""
    ne, q = coeffs.qp_w.shape
    P = np.empty((ne, q, 2, 2))
    P[:, :, 0] = coeffs.shape.T
    P[:, :, 1] = (np.array([-1.0, 1.0]) / coeffs.element_h[:, None])[:, None, :]
    P = P.reshape(ne, q, 4)
    blocks = {}
    for _, coefficient, forms in per_mode_table(coeffs, mode):
        weight = coefficient * coeffs.qp_w
        m = (P.transpose(0, 2, 1) * weight[:, None, :] @ P).reshape(ne, 2, 2, 2, 2)
        for name, C in forms.items():
            if not np.any(np.imag(C)):
                C = np.real(C)
            b = np.tensordot(m, C.reshape(2, 3, 2, 3), axes=([1, 3], [0, 2]))
            blocks[name] = blocks.get(name, 0.0) + b.transpose(0, 1, 3, 2, 4).reshape(-1, 6, 6)
    out = {}
    for name, b in blocks.items():
        X = np.zeros((3 * (ne + 1), 3 * (ne + 1)), dtype=b.dtype)
        for e in range(ne):
            X[3 * e:3 * e + 6, 3 * e:3 * e + 6] += b[e]
        out[name] = X[3:-3, 3:-3]
    return out


def p1_eval(grid, nodal, y):
    idx = np.clip(np.searchsorted(grid, y, side="right") - 1, 0, grid.size - 2)
    t = (y - grid[idx]) / (grid[idx + 1] - grid[idx])
    return nodal[idx] * (1 - t) + nodal[idx + 1] * t


def p1_slope(grid, nodal, y):
    idx = np.clip(np.searchsorted(grid, y, side="right") - 1, 0, grid.size - 2)
    return (nodal[idx + 1] - nodal[idx]) / (grid[idx + 1] - grid[idx])


def sample_coefficient(profile, y, which):
    out = np.empty_like(y, dtype=float)
    lower = y < 0
    for mask, side in ((lower, "-"), (~lower, "+")):
        if np.any(mask):
            rho, rho_p, pp = profile.evaluate_layer(y[mask], side)
            out[mask] = {"rho": rho, "rho_prime": rho_p, "pp_rho": pp}[which]
    return out


def etilde_value(profile, lam, M1, grid, pt, tt, st, mode):
    """The 1D frequency functional for a horizontal base field (M1, 0, 0).

    Evaluates the real-profile energy density

        g*rho'*psi^2 + 2g*rho*psi*(xi1*phi + xi2*theta + psi')
        - P'(rho)*rho*(xi1*phi + xi2*theta + psi')^2
        - lam*M1^2*(xi1^2*(theta^2 + psi^2) + (xi2*theta + psi')^2)

    plus the interface jump term, on the piecewise-linear profiles.
    """
    def integrand(y):
        rho = sample_coefficient(profile, y, "rho")
        rho_p = sample_coefficient(profile, y, "rho_prime")
        pp = sample_coefficient(profile, y, "pp_rho")
        p = p1_eval(grid, pt, y)
        t = p1_eval(grid, tt, y)
        s = p1_eval(grid, st, y)
        ds = p1_slope(grid, st, y)
        D = mode.xi1 * p + mode.xi2 * t + ds
        return (profile.g * rho_p * s ** 2 + 2.0 * profile.g * rho * s * D - pp * D ** 2
                - lam * M1 ** 2 * (mode.xi1 ** 2 * (t ** 2 + s ** 2)
                                   + (mode.xi2 * t + ds) ** 2))

    jump = profile.g * profile.density_jump * p1_eval(grid, st, np.array([0.0]))[0] ** 2
    return jump + oracle_integrate(grid, integrand)


def dop853_density(law, anchor, h, g):
    """Integrate rho' = -g*rho/P'(rho) from the interface to y3 = h.

    Returns the dense-output density on [0, h] (the constant anchor when
    g == 0); raises InputError when the density reaches the non-vacuum
    floor before h.
    """
    if g == 0.0:
        return lambda y: np.full_like(np.asarray(y, dtype=float), anchor)
    floor = VACUUM_FLOOR * anchor

    def rhs(_y, r):
        return -g * r / law.derivative(r)

    def hit_floor(_y, r):
        return r[0] - floor

    hit_floor.terminal = True
    hit_floor.direction = -1.0

    sol = solve_ivp(
        rhs,
        (0.0, h),
        [anchor],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14 * anchor,
        dense_output=True,
        events=hit_floor,
    )
    if not sol.success or sol.t[-1] != h:
        raise InputError(
            f"density reached the non-vacuum floor at y3={sol.t[-1]:.6g} before {h:.6g}"
        )
    return lambda y: sol.sol(np.asarray(y))[0]


def reference_integrate_linearized(matrices, eta0, u0, dt, T):
    """The implicit-midpoint loop of ``evolution.integrate_linearized`` as it was
    before the step became one block product: four CSR products and a fresh
    vector per operation.  Its results must agree with the library's bit for bit.
    """
    if not 0.0 < dt < math.inf:
        raise InputError(f"dt must be positive and finite, got {dt}")
    if not 10 * dt <= T < math.inf:
        raise InputError(f"T={T:.6g} must be finite and cover at least 10 steps of dt={dt:.6g}")
    A, M, D = matrices.operator, matrices.mass, matrices.dissipation
    n_steps = int(round(T / dt))

    factor = band.cholesky(M - (dt * dt / 4.0) * A + (dt / 2.0) * D)
    if factor is None:
        raise SolverError(
            f"implicit-midpoint matrix at dt={dt:.6g} is not positive definite: the mode grows "
            "at a rate Lambda with dt*Lambda >= 2, where the scheme flips its sign every step; "
            "take dt < 2/Lambda")
    solve = sla.get_lapack_funcs("pbtrs", (factor,))
    A_s, M_s, D_s = to_csr(A), to_csr(M), to_csr(D)

    eta = np.array(eta0, dtype=complex if np.iscomplexobj(A) else float)
    u = np.array(u0, dtype=eta.dtype)

    times = dt * np.arange(n_steps + 1)
    eta_norm = np.empty(n_steps + 1)
    u_norm = np.empty(n_steps + 1)
    energy = np.empty(n_steps + 1)
    drift = 0.0

    def quad(v, Xv):
        return np.vdot(v, Xv).real

    # M u and A eta of the current state serve its norms, its energy and the next step
    Mu, A_eta = M_s @ u, A_s @ eta
    uMu, etaMeta, etaAeta = quad(u, Mu), quad(eta, M_s @ eta), quad(eta, A_eta)
    eta_norm[0], u_norm[0] = math.sqrt(max(etaMeta, 0.0)), math.sqrt(max(uMu, 0.0))
    energy[0] = 0.5 * (uMu - etaAeta)
    for k in range(1, n_steps + 1):
        s, _ = solve(factor, 2.0 * Mu + dt * A_eta, overwrite_b=True)
        u_mid = 0.5 * s
        eta = eta + dt * u_mid
        u = s - u
        Mu, A_eta = M_s @ u, A_s @ eta
        uMu, etaMeta, etaAeta = quad(u, Mu), quad(eta, M_s @ eta), quad(eta, A_eta)
        eta_norm[k], u_norm[k] = math.sqrt(max(etaMeta, 0.0)), math.sqrt(max(uMu, 0.0))
        if u_norm[k] > NORM_OVERFLOW or eta_norm[k] > NORM_OVERFLOW:
            raise SolverError(f"norms exceeded {NORM_OVERFLOW:.1e} at t={k * dt:.6g}; shorten T")
        # a non-finite entry of the step reaches these quadratic forms
        if not math.isfinite(uMu + etaMeta + etaAeta):
            raise SolverError(f"implicit step produced non-finite values at t={k * dt:.6g}")
        energy[k] = 0.5 * (uMu - etaAeta)
        dissipated = dt * quad(u_mid, D_s @ u_mid)
        drift = max(drift, abs(energy[k] - energy[k - 1] + dissipated))

    scale = max(1.0, float(np.max(np.abs(energy))))
    rate = fit_rate(times, u_norm, (T / 2.0, T))
    return EvolutionResult(
        times=times,
        eta_norm=eta_norm,
        u_norm=u_norm,
        fitted_rate=rate,
        energy_balance_residual=drift / scale,
        diagnostics={"energy": energy},
    )


def splitmix64_draws(n, seed):
    """evolve's n uniform draws for ``seed`` in Python integers: draw i is
    splitmix64's output at the state splitmix64(seed) + i*0x9E3779B97F4A7C15
    (mod 2**64) with its top 53 bits mapped to [-1, 1)."""
    mask = 2 ** 64 - 1

    def mix(z):
        z &= mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    state = mix(seed)
    return [(mix(state + i * 0x9E3779B97F4A7C15) >> 11) * 2.0 ** -52 - 1.0 for i in range(n)]


def bisected_horizontal_period(profile, lam, M1, k1, k2):
    """The first period L1 at which the horizontal-field witness value
    g*[[rho]]*psi0(0)^2 - lam*xi1^2*M1^2 * int(psi0^2 + psi0'^2/|xi|^2),
    xi = (k1/L1, k2/L2), turns positive, bisected over [1e-3, 1e6] until
    the midpoint rounds to an end; 1e-3 when the value is positive there,
    None when it is not at 1e6.  psi0 = ((h+ - y)(y - h-)/(-h+ h-))^2
    is re-coded here and integrated by Gauss-12 on each layer, exact for
    its polynomial integrands."""
    geo = profile.geometry
    hp, hm = geo.h_plus, geo.h_minus
    x, w = GAUSS12
    I0 = I1 = 0.0
    for a, b in ((hm, 0.0), (0.0, hp)):
        y = 0.5 * (b - a) * x + 0.5 * (a + b)
        base = (hp - y) * (y - hm) / (-hp * hm)
        slope = 2.0 * base * (hp + hm - 2.0 * y) / (-hp * hm)
        I0 += float(np.sum(0.5 * (b - a) * w * base ** 4))
        I1 += float(np.sum(0.5 * (b - a) * w * slope ** 2))
    xi2 = k2 / geo.L2

    def value(L1):
        xi1 = k1 / L1
        return (profile.g * profile.density_jump
                - lam * xi1 ** 2 * M1 ** 2 * (I0 + I1 / (xi1 ** 2 + xi2 ** 2)))

    lo, hi = 1e-3, 1e6
    if value(lo) > 0.0:
        return lo
    if value(hi) <= 0.0:
        return None
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if value(mid) > 0.0 else (mid, hi)
    return hi
