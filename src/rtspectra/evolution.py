"""Direct time integration of the discretized linearized dynamics.

The per-mode linearized system is Mass * u' = A * eta - Diss * u with
eta' = u, where A is the energy operator of the run's medium.  Implicit
midpoint is A-stable and symmetric and satisfies the discrete energy
identity

    H(n+1) - H(n) = -dt * u_mid* Diss u_mid,
    H = (u* Mass u - eta* A eta) / 2,

exactly for this linear system, so the recorded energy-balance residual
isolates solver error rather than scheme error.  The fitted exponential
rate of the late-time envelope cross-checks the variational growth rate.

Each step solves K s = 2 Mass u + dt A eta with the Hermitian band matrix
K = Mass - (dt^2/4) A + (dt/2) Diss, factored once by banded Cholesky.
With sigma = 2/dt, K = (dt^2/4) (sigma^2 Mass - (A - sigma Diss)), so K is
positive definite exactly when alpha(sigma) < sigma^2.  As alpha(s) - s^2
is strictly decreasing, that holds for every dt on a stable mode and for
dt * Lambda < 2 on an unstable one; beyond that bound implicit midpoint
flips the sign of the unstable mode on every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import scipy.linalg as sla

from . import band
from .assembly import ModeMatrices
from .errors import BlowupError, DegenerateFitError, StepError

NORM_OVERFLOW = 1e150


@dataclass
class EvolutionResult:
    times: np.ndarray
    eta_norm: np.ndarray
    u_norm: np.ndarray
    fitted_rate: float
    fit_window: Tuple[float, float]
    energy_balance_residual: float
    diagnostics: dict = field(default_factory=dict)


def random_initial_data(matrices: ModeMatrices, seed: int = 0):
    """Random nodal (eta0, u0), each normalized to unit mass norm."""
    rng = np.random.default_rng(seed)
    n = matrices.n_dof
    out = []
    complex_state = np.iscomplexobj(matrices.operator)
    for _ in range(2):
        v = rng.standard_normal(n)
        if complex_state:
            v = v + 1j * rng.standard_normal(n)
        v = v / math.sqrt(float(np.real(np.vdot(v, band.matvec(matrices.mass, v)))))
        out.append(v)
    return out[0], out[1]


def integrate_linearized(matrices: ModeMatrices, eta0: np.ndarray, u0: np.ndarray,
                         dt: float, T: float) -> EvolutionResult:
    """Implicit-midpoint trajectory of (eta, u) with per-step mass norms.

    The exponential rate is fitted on log(u_norm) over the second half of
    [0, T].
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if T < 10 * dt:
        raise ValueError("T must cover at least 10 steps")
    A, M, D = matrices.operator, matrices.mass, matrices.dissipation
    n_steps = int(round(T / dt))

    factor = band.cholesky(M - (dt * dt / 4.0) * A + (dt / 2.0) * D)
    if factor is None:
        raise StepError(
            f"implicit-midpoint matrix at dt={dt:.6g} is not positive definite: the mode grows "
            "at a rate Lambda with dt*Lambda >= 2, where the scheme flips its sign every step; "
            "take dt < 2/Lambda")
    solve = sla.get_lapack_funcs("pbtrs", (factor,))
    A_s, M_s, D_s = band.to_csr(A), band.to_csr(M), band.to_csr(D)

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
            raise BlowupError(f"norms exceeded {NORM_OVERFLOW:.1e} at t={k * dt:.6g}; shorten T")
        # a non-finite entry of the step reaches these quadratic forms
        if not math.isfinite(uMu + etaMeta + etaAeta):
            raise StepError(f"implicit step produced non-finite values at t={k * dt:.6g}")
        energy[k] = 0.5 * (uMu - etaAeta)
        dissipated = dt * quad(u_mid, D_s @ u_mid)
        drift = max(drift, abs(energy[k] - energy[k - 1] + dissipated))

    scale = max(1.0, float(np.max(np.abs(energy))))
    window = (T / 2.0, T)
    rate = fit_rate(times, u_norm, window)
    return EvolutionResult(
        times=times,
        eta_norm=eta_norm,
        u_norm=u_norm,
        fitted_rate=rate,
        fit_window=window,
        energy_balance_residual=drift / scale,
        diagnostics={"energy": energy, "n_steps": n_steps},
    )


def fit_rate(times: np.ndarray, norms: np.ndarray, window: Optional[Tuple[float, float]] = None) -> float:
    """Least-squares slope of log(norm) against time over the window."""
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if window is not None:
        mask = (times >= window[0]) & (times <= window[1])
        times, norms = times[mask], norms[mask]
    if times.size < 10:
        raise DegenerateFitError(f"need at least 10 samples in the window, got {times.size}")
    if np.any(norms <= 0.0):
        raise DegenerateFitError("norms must be positive for a log-linear fit")
    slope, _ = np.polyfit(times, np.log(norms), 1)
    return float(slope)


def export_trajectory(result: EvolutionResult, path) -> None:
    """CSV trajectory: t, eta_norm, u_norm."""
    with open(path, "w") as fh:
        fh.write("t,eta_norm,u_norm\n")
        for t, en, un in zip(result.times, result.eta_norm, result.u_norm):
            fh.write(",".join(format(v, ".17g") for v in (t, en, un)) + "\n")
