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

The state lives in one buffer x = [u; eta; s], where s = 2 u_mid is the
last solve.  One CSR product with the block matrix

    B = [[2 Mass, 0, 0], [0, A, 0], [0, Mass, 0], [0, 0, Diss]]

gives 2 Mass u, A eta, Mass eta and Diss s: the new state's norms and
energy, the dissipation of the step that led to it, and the next
right-hand side.  A step is then that product, one pbtrs solve in place
and a few in-place vector operations.  B is built straight from the
bands (``band.block_csr``), and the product is scipy's compiled CSR
kernel writing into one buffer (``band.csr_product``): the bits of
``csr_matrix @ x``, with no ``scipy.sparse`` import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from . import band, spectral
from .assembly import ModeMatrices
from .errors import InputError, SolverError, open_artifact

NORM_OVERFLOW = 1e150
EXPORT_BLOCK_ROWS = 2048
#: the most steps a run may take: 320 MB of step records (times, norms and energies)
MAX_STEPS = 10_000_000


@dataclass
class EvolutionResult:
    times: np.ndarray
    eta_norm: np.ndarray
    u_norm: np.ndarray
    fitted_rate: float
    energy_balance_residual: float
    diagnostics: dict = field(default_factory=dict)


def check_seed(seed: int) -> None:
    """InputError unless seed lies in [0, 2**64), the uint64 states."""
    if not 0 <= seed < 2 ** 64:
        raise InputError(f"seed must be nonnegative and below 2**64, in [0, 2**64); got {seed}")


def random_initial_data(matrices: ModeMatrices, seed: int = 0):
    """Seeded nodal (eta0, u0), each normalized to unit mass norm.

    The data are uniform draws on [-1, 1) from the splitmix64 stream of
    ``spectral._start_vector`` at the start state splitmix64(seed): eta0
    takes draws [0, n), u0 draws [n, 2n) and, for a complex operator,
    their imaginary parts draws [2n, 3n) and [3n, 4n).  Integer arithmetic
    and one scale give the same bits on every build and numpy version,
    with no ``numpy.random`` import.
    """
    check_seed(seed)
    n = matrices.n_dof
    complex_state = np.iscomplexobj(matrices.operator)
    state = spectral._splitmix64(1, seed)[0]
    draws = spectral._start_vector((4 if complex_state else 2) * n, state).reshape(-1, n)
    if complex_state:
        draws = draws[:2] + 1j * draws[2:]
    return tuple(spectral._m_unit(matrices.mass, v) for v in draws)


def check_horizon(dt: float, T: float) -> None:
    """InputError unless dt is positive and finite, T is finite, the run takes
    at most MAX_STEPS steps, and :func:`fit_rate`'s window [T/2, T] holds at
    least 10 of its times dt*k, k <= round(T/dt).  Nothing is allocated."""
    if not 0.0 < dt < math.inf:
        raise InputError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(T):
        raise InputError(f"T must be finite, got {T}")
    if not T / dt < MAX_STEPS + 0.5:
        raise InputError(f"T={T:.6g} takes more than {MAX_STEPS:,} steps of dt={dt:.6g}")
    n_steps = round(T / dt)
    # the first and last k with T/2 <= dt*k <= T, as fit_rate's mask compares them
    first = max(0, math.ceil(0.5 * T / dt) - 1)
    while dt * first < 0.5 * T:
        first += 1
    last = min(n_steps, math.floor(T / dt) + 1)
    while dt * last > T:
        last -= 1
    if last - first + 1 < 10:
        raise InputError(f"T={T:.6g} must hold at least 10 samples of dt={dt:.6g} in the fit "
                         f"window [T/2, T], got {max(0, last - first + 1)}")


def integrate_linearized(matrices: ModeMatrices, eta0: np.ndarray, u0: np.ndarray,
                         dt: float, T: float) -> EvolutionResult:
    """Implicit-midpoint trajectory of (eta, u) with per-step mass norms.

    The exponential rate is fitted on log(u_norm) over the second half of
    [0, T].
    """
    check_horizon(dt, T)
    A, M, D = matrices.operator, matrices.mass, matrices.dissipation
    n, n_steps = matrices.n_dof, int(round(T / dt))

    factor = band.cholesky(M - (dt * dt / 4.0) * A + (dt / 2.0) * D)
    if factor is None:
        raise SolverError(
            f"implicit-midpoint matrix at dt={dt:.6g} is not positive definite: the mode grows "
            "at a rate Lambda with dt*Lambda >= 2, where the scheme flips its sign every step; "
            "take dt < 2/Lambda")
    solve = band.routine("pbtrs", factor.dtype)

    # B x = [2 M u; A eta; M eta; D s] for the state x = [u; eta; s]
    B = band.block_csr([(2.0, M, 0), (1.0, A, 1), (1.0, M, 1), (1.0, D, 2)], 3)
    product = band.csr_product(B)

    x = np.zeros(3 * n, dtype=B.data.dtype)
    u, eta, s = x[:n], x[n:2 * n], x[2 * n:]
    u[:], eta[:] = u0, eta0
    half_dt_s = np.empty_like(s)
    Bx = np.empty(4 * n, dtype=x.dtype)
    two_Mu, A_eta, M_eta, D_s = Bx.reshape(4, n)

    times = dt * np.arange(n_steps + 1)
    eta_norm = np.empty(n_steps + 1)
    u_norm = np.empty(n_steps + 1)
    energy = np.empty(n_steps + 1)
    drift = 0.0

    def quad(v, Xv):
        return np.vdot(v, Xv).real

    # Scaling by 2, 1/2 or 1/4 rounds nothing, so 0.5 * u*(2 M u), (dt/2) s and
    # s* D s / 4 equal u* M u, dt u_mid and u_mid* D u_mid to the bit.  Each
    # step's energy comes from the new state's own products, never from a recurrence.
    product(x, Bx)
    uMu, etaMeta, etaAeta = 0.5 * quad(u, two_Mu), quad(eta, M_eta), quad(eta, A_eta)
    eta_norm[0], u_norm[0] = math.sqrt(max(etaMeta, 0.0)), math.sqrt(max(uMu, 0.0))
    energy[0] = 0.5 * (uMu - etaAeta)
    for k in range(1, n_steps + 1):
        # K s = 2 M u + dt A eta, solved in place: s = 2 u_mid
        np.multiply(A_eta, dt, out=s)
        np.add(two_Mu, s, out=s)
        solve(factor, s, overwrite_b=True)
        np.multiply(s, 0.5 * dt, out=half_dt_s)
        np.add(eta, half_dt_s, out=eta)
        np.subtract(s, u, out=u)
        product(x, Bx)
        uMu, etaMeta, etaAeta = 0.5 * quad(u, two_Mu), quad(eta, M_eta), quad(eta, A_eta)
        eta_norm[k], u_norm[k] = math.sqrt(max(etaMeta, 0.0)), math.sqrt(max(uMu, 0.0))
        if u_norm[k] > NORM_OVERFLOW or eta_norm[k] > NORM_OVERFLOW:
            raise SolverError(f"norms exceeded {NORM_OVERFLOW:.1e} at t={k * dt:.6g}; shorten T")
        # a non-finite entry of the step reaches these quadratic forms
        if not math.isfinite(uMu + etaMeta + etaAeta):
            raise SolverError(f"implicit step produced non-finite values at t={k * dt:.6g}")
        energy[k] = 0.5 * (uMu - etaAeta)
        dissipated = dt * (0.25 * quad(s, D_s))      # dt * u_mid* D u_mid
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


def fit_rate(times: np.ndarray, norms: np.ndarray, window: Tuple[float, float]) -> float:
    """Least-squares slope of log(norm) against time over the window.

    The closed form sum(c * log(norm)) / sum(c^2), with c = t - mean(t),
    is the slope of the two-parameter line fit with the intercept
    eliminated; it needs no lstsq.
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if not np.all(np.isfinite(times)):
        raise SolverError("times must be finite for a log-linear fit")
    mask = (times >= window[0]) & (times <= window[1])
    times, norms = times[mask], norms[mask]
    if times.size < 10:
        raise SolverError(f"need at least 10 samples in the window, got {times.size}")
    if np.any(norms <= 0.0):
        raise SolverError("norms must be positive for a log-linear fit")
    if not np.all(np.isfinite(norms)):
        raise SolverError("norms must be finite for a log-linear fit")
    centered = times - times.mean()
    spread = float(np.dot(centered, centered))
    if not spread > 0.0:
        raise SolverError("the window's times must span an interval")
    return float(np.dot(centered, np.log(norms))) / spread


def export_trajectory(result: EvolutionResult, path) -> None:
    """CSV trajectory: t, eta_norm, u_norm.

    Rows are formatted and written EXPORT_BLOCK_ROWS at a time, so the
    memory the export takes does not grow with the step count.
    """
    columns = (result.times, result.eta_norm, result.u_norm)
    with open_artifact(path) as fh:
        fh.write("t,eta_norm,u_norm\n")
        for start in range(0, result.times.size, EXPORT_BLOCK_ROWS):
            block = np.column_stack([c[start:start + EXPORT_BLOCK_ROWS] for c in columns])
            fh.write("%.17g,%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist()))
