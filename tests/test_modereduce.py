"""Per-mode forms against independent quadrature oracles and identities."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import make_mode, random_field
from form_oracles import (ModeField, _at_quadrature, _d_xi, compressibility_form,
                          dissipation_form, elastic_form, elastic_form_expanded, energy_form,
                          field_directional_form, gradient_form, gravity_form, magnetic_form,
                          mass_form, theta_numerator_form, tilde_at_quadrature)
from oracles import GAUSS12, oracle_integrate, p1_eval, p1_slope, sample_coefficient
from rtspectra import modereduce as mr
from rtspectra.equilibrium import Geometry, PressureLaw, build_profile
from rtspectra.errors import InputError
from rtspectra.params import MHD, VISCOELASTIC, PhysicalParams


# -- basic algebraic properties ------------------------------------------------


def test_zero_field_gives_zero(coeffs60, mesh60, geometry):
    grid = mesh60.nodes
    zero = ModeField(grid, np.zeros((grid.size, 3), dtype=complex))
    mode = make_mode(1, 1, geometry)
    assert mass_form(zero, coeffs60) == 0.0
    assert dissipation_form(zero, coeffs60, mode) == 0.0
    assert elastic_form(zero, coeffs60, mode) == 0.0


def test_forms_homogeneous_and_phase_invariant(coeffs60, mesh60, geometry, rng):
    mode = make_mode(2, -1, geometry)
    f = random_field(mesh60.nodes, rng)
    c = 1.7 - 0.6j
    alpha = 0.7
    forms = [
        lambda g: mass_form(g, coeffs60),
        lambda g: gravity_form(g, coeffs60, mode),
        lambda g: compressibility_form(g, coeffs60, mode),
        lambda g: magnetic_form(g, coeffs60, mode),
        lambda g: elastic_form(g, coeffs60, mode),
        lambda g: dissipation_form(g, coeffs60, mode),
    ]
    for form in forms:
        base = form(f)
        assert form(f.scaled(c)) == pytest.approx(abs(c) ** 2 * base, rel=1e-13, abs=1e-13)
        assert form(f.scaled(np.exp(1j * alpha))) == pytest.approx(base, rel=1e-13, abs=1e-13)


def test_positivity(coeffs60, mesh60, geometry, rng):
    mode = make_mode(1, 2, geometry)
    for _ in range(20):
        f = random_field(mesh60.nodes, rng)
        assert mass_form(f, coeffs60) > 0
        assert compressibility_form(f, coeffs60, mode) >= 0
        assert magnetic_form(f, coeffs60, mode) >= 0
        assert dissipation_form(f, coeffs60, mode) > 0


def test_grid_mismatch(coeffs60, geometry, rng):
    other = np.unique(np.concatenate([np.linspace(-1, 1, 31), [0.0]]))
    f = random_field(other, rng)
    with pytest.raises(InputError, match="different grids"):
        mass_form(f, coeffs60)


def test_dirichlet_enforced(mesh60):
    values = np.ones((mesh60.nodes.size, 3), dtype=complex)
    with pytest.raises(InputError, match="Dirichlet ends"):
        ModeField(mesh60.nodes, values)


# -- oracle comparisons --------------------------------------------------------


def test_mass_form_oracle(canonical_profile, mesh60):
    grid = mesh60.nodes
    psi = np.sin(np.pi * (grid - grid[0]) / 2.0)
    values = np.zeros((grid.size, 3), dtype=complex)
    values[:, 2] = psi
    values[0] = values[-1] = 0.0
    f = ModeField(grid, values)
    co = mr.FormCoefficients(canonical_profile, PhysicalParams(), grid)
    got = mass_form(f, co)

    def integrand(y):
        return sample_coefficient(canonical_profile, y, "rho") * p1_eval(grid, values[:, 2].real, y) ** 2

    want = oracle_integrate(grid, integrand)
    assert got == pytest.approx(want, rel=1e-10)
    # and the analytic integral at interpolation accuracy
    from scipy.integrate import quad
    exact = sum(
        quad(lambda y, s=s: canonical_profile.evaluate_layer(np.array([y]), s)[0][0]
             * math.sin(math.pi * (y + 1) / 2.0) ** 2, a, b, limit=200)[0]
        for (a, b, s) in ((-1.0, 0.0, "-"), (0.0, 1.0, "+"))
    )
    assert got == pytest.approx(exact, rel=5e-4)


def test_gravity_zero_when_g_zero(geometry, mesh60, rng):
    prof0 = build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 0.0, 2.0)
    co = mr.FormCoefficients(prof0, PhysicalParams(), mesh60.nodes)
    mode = make_mode(1, 1, geometry)
    for _ in range(5):
        f = random_field(mesh60.nodes, rng)
        assert gravity_form(f, co, mode) == pytest.approx(0.0, abs=1e-14)


def test_gravity_divergence_free_reduces_to_jump_terms(canonical_profile, coeffs60,
                                                       mesh60, geometry):
    # psi = 0 and xi1*phi + xi2*theta = 0 nodally: the coupling term vanishes
    mode = make_mode(2, 1, geometry)
    grid = mesh60.nodes
    values = np.zeros((grid.size, 3), dtype=complex)
    values[:, 0] = np.sin(np.pi * (grid + 1))
    values[:, 1] = -mode.xi1 / mode.xi2 * values[:, 0]
    values[0] = values[-1] = 0.0
    f = ModeField(grid, values)
    assert compressibility_form(f, coeffs60, mode) == pytest.approx(0.0, abs=1e-20)
    assert gravity_form(f, coeffs60, mode) == pytest.approx(0.0, abs=1e-14)


def test_gravity_equals_theta_numerator(coeffs60, mesh60, geometry, rng):
    mode = make_mode(1, -2, geometry)
    for _ in range(100):
        f = random_field(mesh60.nodes, rng)
        g = gravity_form(f, coeffs60, mode)
        t = theta_numerator_form(f, coeffs60, mode)
        assert abs(g - t) <= 1e-8 * max(1.0, abs(t))


def test_theta_numerator_zero_mode(coeffs60, mesh60, geometry, rng):
    mode = make_mode(0, 0, geometry)
    f = random_field(mesh60.nodes, rng)
    assert theta_numerator_form(f, coeffs60, mode) == 0.0


def test_theta_numerator_real_ansatz(canonical_profile, mesh60, geometry):
    # phase convention (-i phi, -i theta, psi) with real profiles
    grid = mesh60.nodes
    mode = make_mode(1, 1, geometry)
    phi = np.sin(np.pi * (grid + 1)) * 0.7
    theta = np.cos(np.pi * grid) - np.cos(np.pi * grid[0])
    theta -= theta[0]
    psi = np.sin(0.5 * np.pi * (grid + 1))
    values = np.stack([-1j * phi, -1j * theta, psi + 0j], axis=1)
    values[0] = values[-1] = 0
    f = ModeField(grid, values)
    co = mr.FormCoefficients(canonical_profile, PhysicalParams(), grid)
    got = theta_numerator_form(f, co, mode)

    phi_n = values[:, 0] * 1j
    theta_n = values[:, 1] * 1j

    def integrand(y):
        rho = sample_coefficient(canonical_profile, y, "rho")
        return 2.0 * rho * (mode.xi1 * p1_eval(grid, phi_n.real, y)
                            + mode.xi2 * p1_eval(grid, theta_n.real, y)) \
            * p1_eval(grid, psi, y)

    want = oracle_integrate(grid, integrand)
    assert got == pytest.approx(want, rel=1e-10)


def test_magnetic_vertical_field_reduces_to_derivative(canonical_profile, mesh60, geometry):
    # M = (0,0,M3), w = (phi,0,0), xi = 0: lam*M3^2 * int |phi'|^2
    grid = mesh60.nodes
    M3, lam = 0.8, 1.7
    params = PhysicalParams(lam=lam, M=(0.0, 0.0, M3))
    co = mr.FormCoefficients(canonical_profile, params, grid)
    mode = make_mode(0, 0, geometry)
    phi = np.sin(np.pi * (grid + 1)) + 0j
    values = np.zeros((grid.size, 3), dtype=complex)
    values[:, 0] = phi
    values[0] = values[-1] = 0
    f = ModeField(grid, values)
    got = magnetic_form(f, co, mode)
    slopes = np.diff(phi.real) / np.diff(grid)
    want = lam * M3 ** 2 * float(np.sum(slopes ** 2 * np.diff(grid)))
    assert got == pytest.approx(want, rel=1e-12)


def test_magnetic_zero_field(coeffs60, mesh60, geometry, canonical_profile, rng):
    params = PhysicalParams(M=(0.0, 0.0, 0.0))
    co = mr.FormCoefficients(canonical_profile, params, mesh60.nodes)
    f = random_field(mesh60.nodes, rng)
    assert magnetic_form(f, co, make_mode(1, 1, geometry)) == 0.0


def test_elastic_definition_vs_expansion(coeffs60, mesh60, geometry, rng):
    mode = make_mode(2, -3, geometry)
    for _ in range(100):
        f = random_field(mesh60.nodes, rng)
        a = elastic_form(f, coeffs60, mode)
        b = elastic_form_expanded(f, coeffs60, mode)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_elastic_dominates_gradient(coeffs60, mesh60, geometry, rng):
    mode = make_mode(1, 2, geometry)
    kmin = min(coeffs60.params.kappa_plus, coeffs60.params.kappa_minus)
    for _ in range(50):
        f = random_field(mesh60.nodes, rng)
        el = elastic_form(f, coeffs60, mode)
        grad = gradient_form(f, coeffs60, mode)
        assert el >= kmin * grad - 1e-12 * max(1.0, abs(el))


def test_elastic_zero_kappa(canonical_profile, mesh60, geometry, rng):
    co = mr.FormCoefficients(canonical_profile, PhysicalParams(), mesh60.nodes)
    f = random_field(mesh60.nodes, rng)
    assert elastic_form(f, co, make_mode(1, 1, geometry)) == 0.0


def test_dissipation_bulk_edge(canonical_profile, mesh60, geometry, rng):
    # mu = 3*bulk/2 makes the divergence coefficient vanish; form stays positive
    params = PhysicalParams(mu_plus=0.3, mu_minus=0.3, bulk_plus=0.2, bulk_minus=0.2)
    co = mr.FormCoefficients(canonical_profile, params, mesh60.nodes)
    assert np.allclose(co.bulk - 2 * co.mu / 3, 0.0)
    for _ in range(10):
        f = random_field(mesh60.nodes, rng)
        assert dissipation_form(f, co, make_mode(1, 0, geometry)) > 0


def test_dissipation_3d_quadrature_oracle(canonical_profile, rng):
    """Psi over one periodic cell / (2 pi^2 L1 L2) against the per-mode value."""
    geo = Geometry(h_minus=-1.0, h_plus=1.0, L1=1.3, L2=0.7)
    prof = build_profile(geo, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 1.0, 2.0)
    grid = np.unique(np.concatenate([np.linspace(-1, 1, 41), [0.0]]))
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.25, bulk_plus=0.3, bulk_minus=0.02)
    co = mr.FormCoefficients(prof, params, grid)
    mode = mr.FourierMode.from_indices(2, 1, geo)
    # real tilde profiles
    pt = rng.standard_normal(grid.size)
    tt = rng.standard_normal(grid.size)
    st = rng.standard_normal(grid.size)
    for arr in (pt, tt, st):
        arr[0] = arr[-1] = 0.0
    values = np.stack([-1j * pt, -1j * tt, st + 0j], axis=1)
    f = ModeField(grid, values)
    got = dissipation_form(f, co, mode)

    # 3D field: w = (pt*sin(xi.yh), tt*sin(xi.yh), st*cos(xi.yh))
    N1, N2 = 16, 16
    y1 = np.arange(N1) * (2 * np.pi * geo.L1 / N1)
    y2 = np.arange(N2) * (2 * np.pi * geo.L2 / N2)
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    phase = mode.xi1 * Y1 + mode.xi2 * Y2
    sin_p, cos_p = np.sin(phase), np.cos(phase)
    x, wq = GAUSS12
    total = 0.0
    for e in range(grid.size - 1):
        a, b = grid[e], grid[e + 1]
        h = b - a
        ys = a + (x + 1) / 2 * h
        wy = wq / 2 * h
        side = "+" if a >= 0 else "-"
        mu = params.mu_plus if side == "+" else params.mu_minus
        bulk = params.bulk_plus if side == "+" else params.bulk_minus
        for yk, wk in zip(ys, wy):
            vpt, vtt, vst = [p1_eval(grid, arr, np.array([yk]))[0] for arr in (pt, tt, st)]
            dpt, dtt, dst = [p1_slope(grid, arr, np.array([yk]))[0] for arr in (pt, tt, st)]
            # gradient of the real field at (y1, y2, yk)
            G = np.empty((N1, N2, 3, 3))
            G[..., 0, 0] = mode.xi1 * vpt * cos_p
            G[..., 0, 1] = mode.xi1 * vtt * cos_p
            G[..., 0, 2] = -mode.xi1 * vst * sin_p
            G[..., 1, 0] = mode.xi2 * vpt * cos_p
            G[..., 1, 1] = mode.xi2 * vtt * cos_p
            G[..., 1, 2] = -mode.xi2 * vst * sin_p
            G[..., 2, 0] = dpt * sin_p
            G[..., 2, 1] = dtt * sin_p
            G[..., 2, 2] = dst * cos_p
            div = G[..., 0, 0] + G[..., 1, 1] + G[..., 2, 2]
            sym = G + np.swapaxes(G, -1, -2)
            dens = (bulk - 2 * mu / 3) * div ** 2 + mu / 2 * np.sum(sym ** 2, axis=(-1, -2))
            cell = (2 * np.pi * geo.L1 / N1) * (2 * np.pi * geo.L2 / N2)
            total += wk * np.sum(dens) * cell
    want = total / (2 * np.pi ** 2 * geo.L1 * geo.L2)
    assert got == pytest.approx(want, rel=1e-10)


def test_energy_form_etilde_oracle(canonical_profile, rng):
    """E with horizontal field vs the 1D frequency functional, five modes."""
    geo = canonical_profile.geometry
    grid = np.unique(np.concatenate([np.linspace(-1, 1, 101), [0.0]]))
    params = PhysicalParams(lam=1.4, M=(0.9, 0.0, 0.0))
    co = mr.FormCoefficients(canonical_profile, params, grid)
    for (k1, k2) in ((1, 0), (1, 1), (2, -1), (3, 2), (1, -3)):
        mode = make_mode(k1, k2, geo)
        for _ in range(4):
            pt, tt, st = (rng.standard_normal(grid.size) for _ in range(3))
            for arr in (pt, tt, st):
                arr[0] = arr[-1] = 0.0
            values = np.stack([-1j * pt, -1j * tt, st + 0j], axis=1)
            f = ModeField(grid, values)
            got = energy_form(f, co, mode)

            def integrand(y):
                rho = sample_coefficient(canonical_profile, y, "rho")
                rho_p = sample_coefficient(canonical_profile, y, "rho_prime")
                pp = sample_coefficient(canonical_profile, y, "pp_rho")
                p = p1_eval(grid, pt, y)
                t = p1_eval(grid, tt, y)
                s = p1_eval(grid, st, y)
                ds = p1_slope(grid, st, y)
                D = mode.xi1 * p + mode.xi2 * t + ds
                return (rho_p * s ** 2 + 2 * rho * s * D - pp * D ** 2
                        - params.lam * params.M[0] ** 2
                        * (mode.xi1 ** 2 * (t ** 2 + s ** 2) + (mode.xi2 * t + ds) ** 2))

            jump = canonical_profile.g * canonical_profile.density_jump \
                * p1_eval(grid, st, np.array([0.0]))[0] ** 2
            want = jump + oracle_integrate(grid, integrand)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_energy_medium_dispatch(coeffs60, mesh60, geometry, rng):
    mode = make_mode(1, 1, geometry)
    f = random_field(mesh60.nodes, rng)
    """energy_form takes the stabilizer of coeffs.params.medium."""
    assert coeffs60.params.medium == MHD
    ve_params = dataclasses.replace(coeffs60.params, medium=VISCOELASTIC)
    coeffs_ve = mr.FormCoefficients(coeffs60.profile, ve_params, mesh60.nodes)
    e_mhd = energy_form(f, coeffs60, mode)
    e_ve = energy_form(f, coeffs_ve, mode)
    g = gravity_form(f, coeffs60, mode)
    c = compressibility_form(f, coeffs60, mode)
    assert e_mhd == pytest.approx(g - c - magnetic_form(f, coeffs60, mode), rel=1e-13)
    assert e_ve == pytest.approx(g - c - elastic_form(f, coeffs60, mode), rel=1e-13)
    with pytest.raises(InputError, match="medium must be"):
        dataclasses.replace(coeffs60.params, medium="plasma")


def test_energy_no_stabilizers_nonpositive(geometry, mesh60, rng):
    prof0 = build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 0.0, 2.0)
    co = mr.FormCoefficients(prof0, PhysicalParams(), mesh60.nodes)
    mode = make_mode(1, 1, geometry)
    for _ in range(10):
        f = random_field(mesh60.nodes, rng)
        e = energy_form(f, co, mode)
        assert e <= 1e-14
        assert e == pytest.approx(-compressibility_form(f, co, mode), rel=1e-12)


def test_stabilizing_split_inequality(canonical_profile, mesh60, geometry, rng):
    """compress + magnetic >= (P - lam|M|^2(eps-1))||d||^2 + ((eps-1)/eps) lam ||m||^2."""
    from rtspectra.equilibrium import infimum_p_prime_rho

    params = PhysicalParams(lam=0.8, M=(0.4, 0.3, 0.9))
    co = mr.FormCoefficients(canonical_profile, params, mesh60.nodes)
    mode = make_mode(1, -1, geometry)
    p_inf = infimum_p_prime_rho(canonical_profile)
    m2 = sum(v * v for v in params.M)
    eps = 1.0 + p_inf / (2.0 * params.lam * m2)
    coef_d = p_inf - params.lam * m2 * (eps - 1.0)
    assert coef_d > 0
    for _ in range(50):
        f = random_field(mesh60.nodes, rng)
        lhs = compressibility_form(f, co, mode) + magnetic_form(f, co, mode)
        vals, ders = _at_quadrature(f, co)
        d2 = float(np.sum(co.qp_w * np.abs(_d_xi(vals, ders, mode)) ** 2))
        m_dir = field_directional_form(f, co, mode)
        rhs = coef_d * d2 + (eps - 1.0) / eps * params.lam * m_dir
        assert lhs >= rhs - 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("medium", [MHD, VISCOELASTIC])
def test_form_value_matches_hand_written_forms(canonical_profile, mixed_params, mesh60,
                                               geometry, rng, medium):
    """form_value on random P1 fields (values and slopes at the quadrature points)
    equals each hand-written oracle form; the mixed field M = (0.3, -0.2, 0.7)
    gives the magnetic matrix its complex skew part."""
    params = dataclasses.replace(mixed_params, medium=medium)
    co = mr.FormCoefficients(canonical_profile, params, mesh60.nodes)
    mode = make_mode(2, -1, geometry)
    stabilizer = "magnetic" if medium == MHD else "elastic"
    table = mr.form_table(co, mode)
    assert any(np.any(np.imag(forms["magnetic"]))
               for _, _, forms in table if "magnetic" in forms)
    for _ in range(20):
        fld = random_field(mesh60.nodes, rng)
        f = tilde_at_quadrature(fld, co)

        def value(name):
            return mr.form_value(co, table, {name: 1.0}, f)

        for name, want in (("mass", mass_form(fld, co)),
                           ("gravity", gravity_form(fld, co, mode)),
                           ("compress", compressibility_form(fld, co, mode)),
                           ("magnetic", magnetic_form(fld, co, mode)),
                           ("elastic", elastic_form(fld, co, mode)),
                           ("dissipation", dissipation_form(fld, co, mode))):
            assert value(name) == pytest.approx(want, rel=1e-12), name
        energy = mr.form_value(co, table, {"gravity": 1.0, "compress": -1.0, stabilizer: -1.0}, f)
        assert energy == pytest.approx(energy_form(fld, co, mode), rel=1e-12)
    with pytest.raises(InputError, match="unknown forms"):
        mr.form_value(co, table, {"energy": 1.0}, f)

