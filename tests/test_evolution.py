"""Linearized time integration: energy balance and rate recovery."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import make_mode
from rtspectra import assembly, band, evolution, spectral
from rtspectra.errors import BlowupError, DegenerateFitError, StepError
from rtspectra.params import VISCOELASTIC, PhysicalParams


@pytest.fixture(scope="module")
def mm_unstable(canonical_profile, baseline_params, mesh60, geometry):
    return assembly.assemble(canonical_profile, baseline_params,
                             make_mode(1, 0, geometry), mesh60)


@pytest.fixture(scope="module")
def mm_stable(canonical_profile, mesh60, geometry):
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            lam=1.0, M=(0.0, 0.0, 2.5))
    return assembly.assemble(canonical_profile, params, make_mode(1, 0, geometry), mesh60)


def test_fit_rate_exact_exponential():
    t = np.linspace(0.0, 3.0, 50)
    assert evolution.fit_rate(t, np.exp(2.0 * t)) == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_constant():
    t = np.linspace(0.0, 3.0, 50)
    assert evolution.fit_rate(t, np.ones(50)) == pytest.approx(0.0, abs=1e-14)


def test_fit_rate_oscillating_noise():
    lam = 0.8
    t = np.linspace(0.0, 12.0, 400)
    norms = np.exp(lam * t) * (1.0 + 0.01 * np.sin(t))
    got = evolution.fit_rate(t, norms, window=(0.0, 12.0))
    assert abs(got - lam) <= 0.005 * lam


def test_fit_rate_degenerate():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(DegenerateFitError):
        evolution.fit_rate(t, np.exp(t))
    t = np.linspace(0.0, 1.0, 20)
    with pytest.raises(DegenerateFitError):
        evolution.fit_rate(t, np.concatenate([np.ones(19), [0.0]]))


def test_rate_matches_growth_rate(mm_unstable):
    lam, vec, _ = spectral.growth_rate_detailed(mm_unstable, 1e-8)
    eta0, u0 = evolution.random_initial_data(mm_unstable, seed=3)
    dt, T = 1e-3 / lam, 10.0 / lam
    result = evolution.integrate_linearized(mm_unstable, eta0, u0, dt, T)
    assert abs(result.fitted_rate - lam) <= 0.02 * lam
    assert result.energy_balance_residual <= 1e-8


def test_eigvec_initialization_pure_exponential(mm_unstable):
    lam, vec, _ = spectral.growth_rate_detailed(mm_unstable, 1e-8)
    dt, T = 1e-3 / lam, 5.0 / lam
    result = evolution.integrate_linearized(mm_unstable, vec / lam, vec, dt, T)
    logs = np.log(result.u_norm[1:])
    slope, intercept = np.polyfit(result.times[1:], logs, 1)
    assert slope == pytest.approx(lam, rel=1e-4)
    assert np.max(np.abs(logs - (slope * result.times[1:] + intercept))) <= 1e-6


def test_stable_mode_decays(mm_stable):
    eta0, u0 = evolution.random_initial_data(mm_stable, seed=1)
    result = evolution.integrate_linearized(mm_stable, eta0, u0, 5e-3, 40.0)
    assert result.fitted_rate < 0
    # dissipative Lyapunov structure: late-time envelope shrinks
    assert result.u_norm[-1] < result.u_norm[result.u_norm.size // 2]


def test_energy_identity_dt_refinement(mm_stable):
    eta0, u0 = evolution.random_initial_data(mm_stable, seed=2)
    residuals = []
    for dt in (2e-2, 1e-2, 5e-3):
        r = evolution.integrate_linearized(mm_stable, eta0, u0, dt, 2.0)
        residuals.append(r.energy_balance_residual)
    # identity holds to solver precision at every step size
    assert max(residuals) <= 1e-9


def test_conservative_time_reversal(mm_stable):
    """With the dissipation removed, the quadratic energy is conserved."""
    frictionless = dataclasses.replace(mm_stable,
                                       dissipation=np.zeros_like(mm_stable.dissipation))
    eta0, u0 = evolution.random_initial_data(mm_stable, seed=4)
    result = evolution.integrate_linearized(frictionless, eta0, u0, 1e-2, 10.0)
    energy = result.diagnostics["energy"]
    drift = np.max(np.abs(energy - energy[0]))
    assert drift <= 1e-12 * max(1.0, abs(energy[0])) * 10.0


def test_blowup_guard(mm_unstable):
    lam, _, _ = spectral.growth_rate_detailed(mm_unstable, 1e-6)
    eta0, u0 = evolution.random_initial_data(mm_unstable, seed=5)
    with pytest.raises(BlowupError):
        evolution.integrate_linearized(mm_unstable, eta0, u0, 0.5, 400.0 / lam * 4.0)


def test_parameter_validation(mm_stable):
    eta0, u0 = evolution.random_initial_data(mm_stable, seed=6)
    with pytest.raises(ValueError):
        evolution.integrate_linearized(mm_stable, eta0, u0, -0.1, 1.0)
    with pytest.raises(ValueError):
        evolution.integrate_linearized(mm_stable, eta0, u0, 0.5, 1.0)


def test_initial_data_follows_the_operator(canonical_profile, mesh60, geometry):
    """A viscoelastic mode under a mixed field has a complex magnetic form but
    a real operator: its initial data is real and keeps unit mass."""
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            M=(0.3, -0.2, 0.7), kappa_plus=0.8, kappa_minus=0.8,
                            medium=VISCOELASTIC)
    mm = assembly.assemble(canonical_profile, params, make_mode(1, 1, geometry), mesh60)
    assert np.iscomplexobj(mm.magnetic) and not np.iscomplexobj(mm.operator)
    eta0, u0 = evolution.random_initial_data(mm, seed=0)
    assert not np.iscomplexobj(eta0) and not np.iscomplexobj(u0)
    result = evolution.integrate_linearized(mm, eta0, u0, 1e-2, 0.2)
    assert result.eta_norm[0] == pytest.approx(1.0, rel=1e-12)
    assert result.u_norm[0] == pytest.approx(1.0, rel=1e-12)


def test_trajectory_export(tmp_path, mm_stable):
    eta0, u0 = evolution.random_initial_data(mm_stable, seed=7)
    result = evolution.integrate_linearized(mm_stable, eta0, u0, 1e-2, 1.0)
    path = tmp_path / "traj.csv"
    evolution.export_trajectory(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,eta_norm,u_norm"
    assert len(lines) == result.times.size + 1


@pytest.mark.parametrize("fixture", ["mm_unstable", "mm_stable"])
def test_matches_dense_reference(request, fixture):
    """50 steps of the banded integrator against a dense implicit-midpoint loop."""
    mm = request.getfixturevalue(fixture)
    A, M, D = (band.to_dense(X) for X in (mm.operator, mm.mass, mm.dissipation))
    eta, u = evolution.random_initial_data(mm, seed=8)
    dt, n_steps = 1e-2, 50
    result = evolution.integrate_linearized(mm, eta, u, dt, n_steps * dt)
    K = M - (dt * dt / 4.0) * A + (dt / 2.0) * D
    for k in range(1, n_steps + 1):
        s = sla.solve(K, 2.0 * (M @ u) + dt * (A @ eta), assume_a="pos")
        eta, u = eta + 0.5 * dt * s, s - u
        assert result.u_norm[k] == pytest.approx(np.sqrt(u @ M @ u), rel=1e-12)
        assert result.eta_norm[k] == pytest.approx(np.sqrt(eta @ M @ eta), rel=1e-12)
        energy = 0.5 * (u @ M @ u - eta @ A @ eta)
        assert result.diagnostics["energy"][k] == pytest.approx(energy, rel=1e-12)


def test_step_beyond_stability_bound(mm_unstable):
    """dt * Lambda >= 2 leaves the implicit-midpoint matrix indefinite."""
    lam = spectral.growth_rate(mm_unstable)
    eta0, u0 = evolution.random_initial_data(mm_unstable, seed=9)
    dt = 2.5 / lam
    with pytest.raises(StepError, match="dt < 2/Lambda"):
        evolution.integrate_linearized(mm_unstable, eta0, u0, dt, 20 * dt)
    evolution.integrate_linearized(mm_unstable, eta0, u0, 1.9 / lam, 20 * 1.9 / lam)
