"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  Criteria with stated runtime budgets assert them.
"""

import math
import time

import numpy as np
import pytest

from conftest import make_mode, random_field
from oracles import etilde_value
from rtspectra import assembly, band, criteria, evolution, modereduce as mr, spectral
from rtspectra.cli import run as cli_run
from rtspectra.equilibrium import Geometry, PressureLaw, build_profile
from rtspectra.params import VISCOELASTIC, PhysicalParams

VISC = dict(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1)


def report(criterion, description, elapsed=None, budget=None):
    timing = "" if elapsed is None else f" [{elapsed:.2f}s" + (
        f" < {budget:.0f}s]" if budget else "]")
    print(f"[PASS] criterion {criterion}: {description}{timing}")
    if budget is not None:
        assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def geo():
    return Geometry(h_minus=-1.0, h_plus=1.0, L1=1.0, L2=1.0)


@pytest.fixture(scope="module")
def profile(geo):
    return build_profile(geo, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 1.0, 2.0)


def test_criterion_01_equilibrium_exactness(geo):
    start = time.monotonic()
    prof = build_profile(geo, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 1.0, 2.0)
    for side, c2, anchor in (("+", 1.0, 2.0), ("-", 2.0, 1.0)):
        layer = prof._layer(side)
        exact = anchor * np.exp(-prof.g * layer.y / c2)
        assert np.max(np.abs(layer.rho - exact)) <= 1e-10 * anchor
        rho, rho_p, _ = prof.evaluate_layer(layer.y, side)
        residual = layer.law.derivative(rho) * rho_p + rho * prof.g
        assert np.max(np.abs(residual)) <= 1e-10 * np.max(rho * prof.g)
    p_plus = prof.law_plus.value(prof.rho_interface_plus)
    p_minus = prof.law_minus.value(prof.rho_interface_minus)
    assert abs(p_plus - p_minus) <= 1e-12 * p_plus
    elapsed = time.monotonic() - start
    report(1, "equilibrium matches the closed-form exponential to 1e-10", elapsed, 1.0)


def test_criterion_02_form_reduction_oracle(geo, profile):
    start = time.monotonic()
    rng = np.random.default_rng(2)
    grid = np.unique(np.concatenate([np.linspace(-1, 1, 121), [0.0]]))
    lam, M1 = 1.4, 0.9
    params = PhysicalParams(lam=lam, M=(M1, 0.0, 0.0))
    co = mr.FormCoefficients(profile, params, grid)
    checked = 0
    for (k1, k2) in ((1, 0), (1, 1), (2, -1), (3, 2), (1, -3)):
        mode = make_mode(k1, k2, geo)
        for _ in range(4):
            pt, tt, st = (rng.standard_normal(grid.size) for _ in range(3))
            for arr in (pt, tt, st):
                arr[0] = arr[-1] = 0.0
            values = np.stack([-1j * pt, -1j * tt, st + 0j], axis=1)
            fld = mr.ModeField(grid, values)
            got = mr.energy_form(fld, co, mode)
            want = etilde_value(profile, lam, M1, grid, pt, tt, st, mode)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
            checked += 1
    assert checked >= 20
    elapsed = time.monotonic() - start
    report(2, f"energy form matches the frequency functional on {checked} fields x 5 modes",
           elapsed, 10.0)


def test_criterion_03_integration_by_parts(geo, profile):
    rng = np.random.default_rng(3)
    grid = np.unique(np.concatenate([np.linspace(-1, 1, 161), [0.0]]))
    params = PhysicalParams(**VISC, lam=1.0, M=(0.2, 0.1, 0.4))
    co = mr.FormCoefficients(profile, params, grid, quadrature_order=6)
    mode = make_mode(2, -1, geo)
    for _ in range(100):
        f = random_field(grid, rng)
        g = mr.gravity_form(f, co, mode)
        t = mr.theta_numerator_form(f, co, mode)
        assert abs(g - t) <= 1e-8 * max(1.0, abs(t))
    report(3, "gravity form equals its integrated-by-parts numerator on 100 fields")


def test_criterion_04_matrix_invariants(geo, profile):
    mesh = assembly.build_mesh(geo, n_per_layer=60)
    configs = (
        PhysicalParams(**VISC, lam=1.0, M=(0.0, 0.0, 0.0)),
        PhysicalParams(**VISC, lam=1.3, M=(0.3, -0.2, 0.7)),
        PhysicalParams(**VISC, kappa_plus=0.7, kappa_minus=0.4, medium=VISCOELASTIC),
    )
    for params in configs:
        for km in ((1, 0), (2, 1)):
            mm = assembly.assemble(profile, params, make_mode(*km, geo), mesh)
            dense = {name: band.to_dense(getattr(mm, name)) for name in
                     ("mass", "gravity", "compress", "magnetic", "elastic", "dissipation")}
            for name, X in dense.items():
                assert np.linalg.norm(X - X.conj().T) <= 1e-12 * max(np.linalg.norm(X), 1e-300), name
            assert np.linalg.eigvalsh(dense["mass"]).min() > 0
            assert np.linalg.eigvalsh(dense["dissipation"]).min() > 0
            for name in ("compress", "magnetic"):
                X = dense[name]
                assert np.linalg.eigvalsh(X).min() >= -1e-12 * np.linalg.norm(X), name
    report(4, "assembled matrices Hermitian, mass/dissipation PD, stabilizers PSD")


def test_criterion_05_alpha_monotone_and_fixed_point(geo, profile):
    start = time.monotonic()
    mesh = assembly.build_mesh(geo, n_per_layer=120)
    configs = (
        PhysicalParams(**VISC, lam=1.0, M=(0.0, 0.0, 0.0)),
        PhysicalParams(**VISC, lam=1.0, M=(0.0, 0.0, 0.02)),
        PhysicalParams(**VISC, lam=1.0, M=(0.0, 0.0, 2.3811)),
        PhysicalParams(**VISC, kappa_plus=0.01, kappa_minus=0.01, medium=VISCOELASTIC),
        PhysicalParams(**VISC, kappa_plus=0.55, kappa_minus=0.55, medium=VISCOELASTIC),
    )
    mode = make_mode(1, 0, geo)
    returned = 0
    for params in configs:
        mm = assembly.assemble(profile, params, mode, mesh)
        svals = np.linspace(0.0, 2.0, 20)
        avals = [spectral.alpha(float(s), mm)[0] for s in svals]
        assert np.all(np.diff(avals) <= 1e-10), "alpha must be non-increasing"
        lam, _, res = spectral.growth_rate_detailed(mm, tol=1e-8)
        if lam is not None:
            assert res <= 1e-8 * max(1.0, lam * lam)
            returned += 1
    assert returned >= 3
    elapsed = time.monotonic() - start
    report(5, f"alpha non-increasing on 20-point grids (5 configs); {returned} fixed points "
              "within 1e-8", elapsed, 30.0)


def test_criterion_06_growth_rate_vs_evolution(geo, profile):
    start = time.monotonic()
    params = PhysicalParams(**VISC, lam=1.0, M=(0.0, 0.0, 0.0))
    mesh = assembly.build_mesh(geo, n_per_layer=200)
    mm = assembly.assemble(profile, params, make_mode(1, 0, geo), mesh)
    lam = spectral.growth_rate(mm, tol=1e-8)
    assert lam is not None and lam > 0
    eta0, u0 = evolution.random_initial_data(mm, seed=0)
    result = evolution.integrate_linearized(mm, eta0, u0, dt=1e-3 / lam, T=10.0 / lam)
    gap = abs(result.fitted_rate - lam) / lam
    assert gap <= 0.02
    elapsed = time.monotonic() - start
    report(6, f"fitted evolution rate within {100 * gap:.3f}% of the variational rate",
           elapsed, 60.0)


def test_criterion_07_vertical_field_sufficiency(geo, profile):
    start = time.monotonic()
    threshold = criteria.vertical_field_threshold(profile, lam=1.0)
    M3 = 1.05 * math.sqrt(threshold.threshold_value)
    assert math.sqrt(threshold.threshold_value) == pytest.approx(2.2677, rel=1e-4)
    params = PhysicalParams(**VISC, lam=1.0, M=(0.0, 0.0, M3))
    k_max = 8
    mesh = assembly.build_mesh(geo, n_per_layer=100)
    coeffs = mr.FormCoefficients(profile, params, mesh.nodes)
    worst_xi = -math.inf
    worst_coercivity = math.inf
    shell_unstable = False
    for (k1, k2) in spectral.mode_lattice(k_max):
        mm = assembly.assemble(profile, params, make_mode(k1, k2, geo), mesh, coeffs=coeffs)
        xi, _ = spectral.xi_per_mode(mm)
        c = spectral.coercivity_constant(mm)
        worst_xi = max(worst_xi, xi)
        worst_coercivity = min(worst_coercivity, c)
        if max(abs(k1), abs(k2)) == k_max and xi >= 1.0:
            shell_unstable = True
    assert worst_xi < 1.0
    assert worst_coercivity > 0.0
    assert not shell_unstable  # truncation converged
    elapsed = time.monotonic() - start
    report(7, f"M3 5% above threshold: global xi={worst_xi:.4f} < 1, "
              f"coercivity >= {worst_coercivity:.3e} on all modes of k_max=8",
           elapsed, 120.0)


def test_criterion_08_small_field_instability(geo, profile):
    params = PhysicalParams(**VISC, lam=1.0, M=(0.0, 0.0, 0.02))
    mesh = assembly.build_mesh(geo, n_per_layer=100)
    verdict = spectral.global_scan(profile, params, mesh, k_max=1)
    unstable = [v for v in verdict.verdicts
                if v.xi_value > 1.0 and (v.lambda_value or 0.0) > 0.0]
    assert unstable, "expected an unstable mode for a weak vertical field"
    witness = criteria.small_field_witness(profile, params, epsilon=0.1)
    assert witness.energy_value > 0.0
    report(8, f"M3=0.02: mode k=({unstable[0].mode.k1},{unstable[0].mode.k2}) has "
              f"xi={unstable[0].xi_value:.2f} > 1, growth {unstable[0].lambda_value:.4f}; "
              "witness certifies E1+E2 > 0")


def test_criterion_09_horizontal_field_large_period(profile):
    base_params = PhysicalParams(**VISC, lam=1.0, M=(1.0, 0.0, 0.0))
    L1_star = criteria.horizontal_period_threshold(profile, base_params, k1=1, k2=1)
    L1 = 2.0 * L1_star
    geo_wide = Geometry(h_minus=-1.0, h_plus=1.0, L1=L1, L2=1.0)
    prof_wide = build_profile(geo_wide, PressureLaw.linear(1.0), PressureLaw.linear(2.0),
                              1.0, 2.0)
    mode = make_mode(1, 1, geo_wide)
    witness = criteria.horizontal_field_witness(prof_wide, base_params, mode)
    assert witness.closed_form_value > 0.0
    assert abs(witness.energy_value - witness.closed_form_value) \
        <= 1e-8 * max(1.0, abs(witness.closed_form_value))
    # below the bisected period the closed form is negative
    geo_narrow = Geometry(h_minus=-1.0, h_plus=1.0, L1=0.9 * L1_star, L2=1.0)
    prof_narrow = build_profile(geo_narrow, PressureLaw.linear(1.0), PressureLaw.linear(2.0),
                                1.0, 2.0)
    narrow = criteria.horizontal_field_witness(prof_narrow, base_params,
                                               make_mode(1, 1, geo_narrow))
    assert narrow.closed_form_value < 0.0

    mesh = assembly.build_mesh(geo_wide, n_per_layer=100)
    verdict = spectral.global_scan(prof_wide, base_params, mesh, k_max=2)
    assert verdict.global_xi > 1.0
    at_witness = [v for v in verdict.verdicts if (v.mode.k1, v.mode.k2) == (1, 1)][0]
    assert at_witness.xi_value > 1.0  # solver agrees with the positive witness
    report(9, f"L1* = {L1_star:.4f}; at L1 = 2 L1* witness value "
              f"{witness.closed_form_value:.4f} > 0 and solver xi(1,1) = "
              f"{at_witness.xi_value:.3f} > 1")


def test_criterion_10_viscoelastic_identity_and_thresholds(geo, profile):
    rng = np.random.default_rng(10)
    grid = np.unique(np.concatenate([np.linspace(-1, 1, 141), [0.0]]))
    params = PhysicalParams(**VISC, kappa_plus=0.8, kappa_minus=0.5, medium=VISCOELASTIC)
    co = mr.FormCoefficients(profile, params, grid)
    mode = make_mode(2, -3, geo)
    for _ in range(100):
        f = random_field(grid, rng)
        a = mr.elastic_form(f, co, mode)
        b = mr.elastic_form_expanded(f, co, mode)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    threshold = criteria.viscoelastic_threshold(profile, 1.0, 1.0).threshold_value
    assert threshold == pytest.approx(0.5, rel=1e-12)
    mesh = assembly.build_mesh(geo, n_per_layer=100)

    stiff = PhysicalParams(**VISC, kappa_plus=1.1 * threshold, kappa_minus=1.1 * threshold,
                           medium=VISCOELASTIC)
    stable = spectral.global_scan(profile, stiff, mesh, k_max=4)
    assert stable.global_xi < 1.0

    soft = PhysicalParams(**VISC, kappa_plus=0.01, kappa_minus=0.01, medium=VISCOELASTIC)
    unstable = spectral.global_scan(profile, soft, mesh, k_max=1)
    assert unstable.global_xi > 1.0
    assert unstable.global_lambda > 0.0
    report(10, f"elastic identity to 1e-12 on 100 fields; kappa=0.55 stable "
               f"(xi_V={stable.global_xi:.3f}), kappa=0.01 unstable "
               f"(xi_V={unstable.global_xi:.2f}, growth {unstable.global_lambda:.4f})")


def test_criterion_11_inequality_suites(geo):
    rng = np.random.default_rng(11)
    grid = np.unique(np.concatenate([np.linspace(-1, 1, 101), [0.0]]))
    mode = make_mode(2, 1, geo)
    for _ in range(1000):
        phi = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        phi[0] = phi[-1] = 0
        nu = (rng.uniform(-2, 2), rng.uniform(-2, 2), 1.0)
        _, _, holds = criteria.poincare_check(phi, grid, mode, nu, geo)
        assert holds
    for _ in range(1000):
        f = random_field(grid, rng)
        nu = (rng.uniform(-2, 2), rng.uniform(-2, 2), 1.0)
        _, _, holds = criteria.trace_check(f, mode, nu, geo)
        assert holds
    sharp_mesh = assembly.build_mesh(geo, n_per_layer=400, grading=1.0)
    sharp_grid = sharp_mesh.nodes
    phi = np.sin(np.pi * (sharp_grid - sharp_grid[0]) / geo.height).astype(complex)
    phi[0] = phi[-1] = 0
    lhs, rhs, holds = criteria.poincare_check(phi, sharp_grid, make_mode(0, 0, geo),
                                              (0.0, 0.0, 1.0), geo)
    assert holds and lhs / rhs >= 0.999
    report(11, f"1000+1000 random fields satisfy both inequalities; "
               f"sharp-constant ratio {lhs / rhs:.6f}")


def test_criterion_12_mesh_convergence(geo, profile):
    """Three nested meshes (n = 100, 200, 400): a small last step and an observed order.

    The observed order p = log2(|q200 - q100| / |q400 - q200|) tells a
    converging mesh family from one that merely stops moving; the
    Richardson estimate q400 + (q400 - q200) / (2^p - 1) is reported with it.
    """
    mode = make_mode(1, 0, geo)
    stable_mhd = PhysicalParams(**VISC, lam=1.0, M=(0.0, 0.0, 2.3811))
    stiff_ve = PhysicalParams(**VISC, kappa_plus=0.55, kappa_minus=0.55,
                              medium=VISCOELASTIC)
    unstable_mhd = PhysicalParams(**VISC, lam=1.0, M=(0.0, 0.0, 0.0))
    soft_ve = PhysicalParams(**VISC, kappa_plus=0.01, kappa_minus=0.01,
                             medium=VISCOELASTIC)
    meshes = [assembly.build_mesh(geo, n_per_layer=100)]
    for _ in range(2):
        meshes.append(assembly.refine_mesh(meshes[-1]))
    assert [m.n_per_layer for m in meshes] == [100, 200, 400]
    lines = []
    for label, params, quantity in (
        ("xi_mhd", stable_mhd, "xi"),
        ("xi_ve", stiff_ve, "xi"),
        ("lambda_mhd", unstable_mhd, "lambda"),
        ("lambda_ve", soft_ve, "lambda"),
    ):
        values = []
        for mesh in meshes:
            mm = assembly.assemble(profile, params, mode, mesh)
            if quantity == "xi":
                values.append(spectral.xi_per_mode(mm)[0])
            else:
                values.append(spectral.growth_rate(mm, tol=1e-8))
        coarse, fine = abs(values[1] - values[0]), abs(values[2] - values[1])
        gap = fine / abs(values[2])
        assert gap <= 1e-3, (label, values)
        order = math.log2(coarse / fine)
        assert order >= 1.5, (label, values, order)
        richardson = values[2] + (values[2] - values[1]) / (2.0 ** order - 1.0)
        lines.append(f"{label}: step {gap:.2e}, order {order:.2f}, "
                     f"Richardson {richardson:.8g}")
    report(12, "nested meshes n=100->200->400 converge; " + "; ".join(lines))


def test_criterion_13_determinism(tmp_path):
    config = tmp_path / "run.ini"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    config.write_text("""
[geometry]
h_minus = -1.0
h_plus = 1.0
L1 = 1.0
L2 = 1.0
[equilibrium]
law_plus = linear
c2_plus = 1.0
law_minus = linear
c2_minus = 2.0
g = 1.0
rho_plus_interface = 2.0
[physics]
mu_plus = 0.1
mu_minus = 0.1
bulk_plus = 0.1
bulk_minus = 0.1
[mhd]
lambda = 1.0
m3 = 0.0
[numerics]
n_per_layer = 60
k_max = 1
[output]
path = unused
format = csv
""")
    assert cli_run(str(config), "scan", out=str(out1)) == 0
    assert cli_run(str(config), "scan", out=str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.csv.summary.json").read_bytes() \
        == (tmp_path / "b.csv.summary.json").read_bytes()
    report(13, "repeated scans produce byte-identical CSV and summary artifacts")
