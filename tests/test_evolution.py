"""Linearized time integration: energy balance and rate recovery."""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import make_mode, run_python
from oracles import dense, reference_integrate_linearized, splitmix64_draws
from rtspectra import assembly, band, evolution, spectral
from rtspectra.errors import InputError, SolverError
from rtspectra.modereduce import FormCoefficients
from rtspectra.params import VISCOELASTIC, PhysicalParams


@pytest.fixture(scope="module")
def mm_unstable(canonical_profile, baseline_params, mesh60, geometry):
    return assembly.assemble(FormCoefficients(canonical_profile, baseline_params, mesh60.nodes),
                             make_mode(1, 0, geometry))


@pytest.fixture(scope="module")
def mm_stable(canonical_profile, mesh60, geometry):
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            lam=1.0, M=(0.0, 0.0, 2.5))
    return assembly.assemble(FormCoefficients(canonical_profile, params, mesh60.nodes),
                             make_mode(1, 0, geometry))


@pytest.fixture(scope="module")
def mm_mixed(canonical_profile, mesh60, geometry):
    """A mixed field: complex operator and complex state."""
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            lam=1.0, M=(0.3, -0.2, 0.7))
    return assembly.assemble(FormCoefficients(canonical_profile, params, mesh60.nodes),
                             make_mode(1, 1, geometry))


@pytest.fixture(scope="module")
def mm_viscoelastic(canonical_profile, mesh60, geometry):
    """A viscoelastic mode under a mixed field: a complex magnetic form but a real operator."""
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            M=(0.3, -0.2, 0.7), kappa_plus=0.8, kappa_minus=0.8,
                            medium=VISCOELASTIC)
    return assembly.assemble(FormCoefficients(canonical_profile, params, mesh60.nodes),
                             make_mode(1, 1, geometry))


def test_fit_rate_exact_exponential():
    t = np.linspace(0.0, 3.0, 50)
    assert evolution.fit_rate(t, np.exp(2.0 * t), (0.0, 3.0)) == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_constant():
    t = np.linspace(0.0, 3.0, 50)
    assert evolution.fit_rate(t, np.ones(50), (0.0, 3.0)) == pytest.approx(0.0, abs=1e-14)


def test_fit_rate_oscillating_noise():
    lam = 0.8
    t = np.linspace(0.0, 12.0, 400)
    norms = np.exp(lam * t) * (1.0 + 0.01 * np.sin(t))
    got = evolution.fit_rate(t, norms, window=(0.0, 12.0))
    assert abs(got - lam) <= 0.005 * lam


def test_fit_rate_degenerate():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(SolverError, match="at least 10 samples"):
        evolution.fit_rate(t, np.exp(t), (0.0, 1.0))
    t = np.linspace(0.0, 1.0, 20)
    with pytest.raises(SolverError, match="norms must be positive"):
        evolution.fit_rate(t, np.concatenate([np.ones(19), [0.0]]), (0.0, 1.0))


@pytest.mark.parametrize("window", [None, (1.0, 4.0)])
def test_fit_rate_matches_polyfit(window):
    """The closed-form slope is np.polyfit's degree-1 slope over the same
    window; None is the whole record."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        t = np.sort(rng.uniform(0.0, 5.0, 200))
        rate = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        norms = np.exp(rate * t + 0.3 * rng.standard_normal(t.size))
        span = window or (t[0], t[-1])
        mask = (t >= span[0]) & (t <= span[1])
        want = np.polyfit(t[mask], np.log(norms[mask]), 1)[0]
        assert evolution.fit_rate(t, norms, span) == pytest.approx(want, rel=1e-12)


def test_fit_rate_rejects_non_finite_and_flat_windows():
    t = np.linspace(0.0, 1.0, 20)
    for bad in (np.nan, np.inf):
        norms = np.exp(t)
        norms[7] = bad
        with pytest.raises(SolverError, match="norms must be finite"):
            evolution.fit_rate(t, norms, (0.0, 1.0))
    nan_time = t.copy()
    nan_time[3] = np.nan
    with pytest.raises(SolverError, match="times must be finite"):
        evolution.fit_rate(nan_time, np.exp(t), (0.0, 1.0))
    with pytest.raises(SolverError, match="span an interval"):
        evolution.fit_rate(np.full(20, 2.0), np.exp(t), (2.0, 2.0))


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
    with pytest.raises(SolverError, match="norms exceeded"):
        evolution.integrate_linearized(mm_unstable, eta0, u0, 0.5, 400.0 / lam * 4.0)


def test_parameter_validation(mm_stable):
    eta0, u0 = evolution.random_initial_data(mm_stable, seed=6)
    with pytest.raises(InputError, match="dt must be positive"):
        evolution.integrate_linearized(mm_stable, eta0, u0, -0.1, 1.0)
    with pytest.raises(InputError, match="at least 10 samples"):
        evolution.integrate_linearized(mm_stable, eta0, u0, 0.5, 1.0)
    with pytest.raises(InputError, match="seed must be nonnegative"):
        evolution.random_initial_data(mm_stable, seed=-1)


def test_initial_data_follows_the_operator(mm_viscoelastic):
    """A viscoelastic mode under a mixed field has a complex magnetic form but
    a real operator: its initial data is real and keeps unit mass."""
    mm = mm_viscoelastic
    assert np.iscomplexobj(mm.magnetic) and not np.iscomplexobj(mm.operator)
    eta0, u0 = evolution.random_initial_data(mm, seed=0)
    assert not np.iscomplexobj(eta0) and not np.iscomplexobj(u0)
    result = evolution.integrate_linearized(mm, eta0, u0, 1e-2, 0.2)
    assert result.eta_norm[0] == pytest.approx(1.0, rel=1e-12)
    assert result.u_norm[0] == pytest.approx(1.0, rel=1e-12)


def test_initial_data_stream(tmp_path, mm_stable, mm_mixed):
    """evolve's initial data for a seed are uniform splitmix64 draws
    (recomputed in Python integers, the first four pinned): eta0 takes
    draws [0, n) and u0 draws [n, 2n); a complex operator's imaginary parts
    take draws [2n, 3n) and [3n, 4n).  Each vector has unit mass norm, a
    fresh process gives the same bits, and seeds 0 and 1 differ."""
    n = mm_mixed.n_dof
    draws = np.array(splitmix64_draws(4 * n, 3)).reshape(4, n)
    assert [x.hex() for x in draws[0, :4]] == ["0x1.5fc0c3f0f9d2ep-1", "0x1.42ee19aab8ca0p-1",
                                               "-0x1.09dfcc785a7e0p-3", "-0x1.9644d8568e330p-3"]
    M = dense(mm_mixed.mass)
    complex_data = evolution.random_initial_data(mm_mixed, seed=3)
    for v, re, im in zip(complex_data, draws[:2], draws[2:]):
        assert np.array_equal(v, spectral._m_unit(mm_mixed.mass, re + 1j * im))
        assert np.vdot(v, M @ v).real == pytest.approx(1.0, rel=1e-12)
    assert not np.allclose(np.abs(complex_data[0].real), np.abs(complex_data[0].imag))
    assert mm_stable.n_dof == n
    for v, re in zip(evolution.random_initial_data(mm_stable, seed=3), draws[:2]):
        assert np.array_equal(v, spectral._m_unit(mm_stable.mass, re))
        assert np.vdot(v, dense(mm_stable.mass) @ v).real == pytest.approx(1.0, rel=1e-12)

    path = tmp_path / "mm_mixed.pickle"
    path.write_bytes(pickle.dumps(mm_mixed))
    fresh = run_python("import pickle; from rtspectra import evolution; "
                       f"mm = pickle.loads(open({str(path)!r}, 'rb').read()); "
                       "print(*(v.tobytes().hex() for v in evolution.random_initial_data(mm, 3)))")
    assert fresh.split() == [v.tobytes().hex() for v in complex_data]

    seed0, seed1 = (evolution.random_initial_data(mm_stable, seed) for seed in (0, 1))
    assert not np.allclose(seed0[0], seed1[0]) and not np.allclose(seed0[1], seed1[1])


def test_trajectory_export(tmp_path, mm_stable):
    eta0, u0 = evolution.random_initial_data(mm_stable, seed=7)
    result = evolution.integrate_linearized(mm_stable, eta0, u0, 1e-2, 1.0)
    path = tmp_path / "traj.csv"
    evolution.export_trajectory(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,eta_norm,u_norm"
    assert len(lines) == result.times.size + 1


def _export_per_value(result, path):
    """Reference writer: one format(v, ".17g") call per value."""
    with open(path, "w") as fh:
        fh.write("t,eta_norm,u_norm\n")
        for t, en, un in zip(result.times, result.eta_norm, result.u_norm):
            fh.write(",".join(format(v, ".17g") for v in (t, en, un)) + "\n")


def test_trajectory_export_bytes(tmp_path, mm_unstable):
    eta0, u0 = evolution.random_initial_data(mm_unstable, seed=7)
    result = evolution.integrate_linearized(mm_unstable, eta0, u0, 1e-2, 1.0)
    edge = np.array([0.0, -0.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0, 1e22, 1.7976931348623157e308,
                     np.inf, -np.inf, np.nan])
    special = dataclasses.replace(result, times=edge, eta_norm=edge[::-1].copy(),
                                  u_norm=np.roll(edge, 3))
    for case in (result, special):
        path, want = tmp_path / "traj.csv", tmp_path / "want.csv"
        evolution.export_trajectory(case, path)
        _export_per_value(case, want)
        assert path.read_bytes() == want.read_bytes()


def _synthetic_result(n_rows):
    """A result of n_rows rows whose values differ from row to row and span the float range."""
    rng = np.random.default_rng(n_rows)
    return evolution.EvolutionResult(
        times=1e-2 * np.arange(n_rows),
        eta_norm=np.exp(rng.uniform(-700.0, 700.0, n_rows)),
        u_norm=rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows),
        fitted_rate=0.0, energy_balance_residual=0.0)


BLOCK = evolution.EXPORT_BLOCK_ROWS


@pytest.mark.parametrize("n_rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_trajectory_export_block_boundaries(tmp_path, n_rows):
    """Row counts on either side of a block boundary: no row dropped or repeated."""
    result = _synthetic_result(n_rows)
    path, want = tmp_path / "traj.csv", tmp_path / "want.csv"
    evolution.export_trajectory(result, path)
    _export_per_value(result, want)
    assert path.read_bytes() == want.read_bytes()


def test_trajectory_export_memory_is_bounded(tmp_path):
    """Exporting 100,000 rows peaks at 0.43 MB of traced allocations, against
    25.6 MB when the whole file was built as one string before the write."""
    result = _synthetic_result(100_000)
    path = tmp_path / "traj.csv"
    tracemalloc.start()
    try:
        evolution.export_trajectory(result, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2e6
    assert path.read_bytes().count(b"\n") == 100_001


@pytest.mark.parametrize("fixture", ["mm_unstable", "mm_stable"])
def test_matches_dense_reference(request, fixture):
    """50 steps of the banded integrator against a dense implicit-midpoint loop."""
    mm = request.getfixturevalue(fixture)
    A, M, D = (dense(X) for X in (mm.operator, mm.mass, mm.dissipation))
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
    lam = spectral.growth_rate_detailed(mm_unstable)[0]
    eta0, u0 = evolution.random_initial_data(mm_unstable, seed=9)
    dt = 2.5 / lam
    with pytest.raises(SolverError, match="dt < 2/Lambda"):
        evolution.integrate_linearized(mm_unstable, eta0, u0, dt, 20 * dt)
    evolution.integrate_linearized(mm_unstable, eta0, u0, 1.9 / lam, 20 * 1.9 / lam)


@pytest.mark.parametrize("fixture", ["mm_unstable", "mm_stable", "mm_mixed", "mm_viscoelastic"])
def test_bit_identical_to_reference_loop(request, fixture):
    """The one-product step reproduces the four-product loop bit for bit."""
    mm = request.getfixturevalue(fixture)
    eta0, u0 = evolution.random_initial_data(mm, seed=10)
    assert np.iscomplexobj(eta0) == (fixture == "mm_mixed")
    got = evolution.integrate_linearized(mm, eta0, u0, 5e-3, 5.0)
    want = reference_integrate_linearized(mm, eta0, u0, 5e-3, 5.0)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.u_norm, want.u_norm)
    assert np.array_equal(got.eta_norm, want.eta_norm)
    assert np.array_equal(got.diagnostics["energy"], want.diagnostics["energy"])
    assert got.energy_balance_residual == want.energy_balance_residual
    assert got.fitted_rate == want.fitted_rate


def test_residual_sees_a_perturbed_solve(monkeypatch, mm_stable):
    """Scaling each solve's s by 1 + 1e-9 must show in the energy-balance residual,
    which therefore checks the computed state rather than holding by construction."""
    eta0, u0 = evolution.random_initial_data(mm_stable, seed=11)
    clean = evolution.integrate_linearized(mm_stable, eta0, u0, 1e-2, 2.0)
    routine = band.routine

    def perturbed_pbtrs(name, dtype):
        handle = routine(name, dtype)
        if name != "pbtrs":
            return handle

        def solve(factor, b, **options):
            x, info = handle(factor, b, **options)
            x *= 1.0 + 1e-9
            return x, info
        return solve

    monkeypatch.setattr(band, "routine", perturbed_pbtrs)
    perturbed = evolution.integrate_linearized(mm_stable, eta0, u0, 1e-2, 2.0)
    # measured: 1.0e-16 unperturbed, 8.2e-10 perturbed
    assert clean.energy_balance_residual <= 1e-14
    assert perturbed.energy_balance_residual >= 1e-10


def test_guards_fire_at_the_reference_step(mm_unstable):
    """The overflow and non-finite guards raise the reference loop's message at its step."""
    lam = spectral.growth_rate_detailed(mm_unstable, 1e-6)[0]
    eta0, u0 = evolution.random_initial_data(mm_unstable, seed=5)
    nan_eta0 = eta0.copy()
    nan_eta0[7] = np.nan
    for eta, dt, T in ((eta0, 0.5, 1600.0 / lam), (nan_eta0, 1e-2, 1.0)):
        messages = []
        for integrate in (evolution.integrate_linearized, reference_integrate_linearized):
            with pytest.raises(SolverError) as info:
                integrate(mm_unstable, eta, u0, dt, T)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert ("norms exceeded" if eta is eta0 else "non-finite values at t=0.01") in messages[0]
