"""Closed-form criteria, witnesses, and the building-block inequalities."""

import math

import numpy as np
import pytest

from conftest import make_mode, random_field
from form_oracles import (ModeField, compressibility_form, gravity_form, poincare_check,
                          trace_check)
from oracles import bisected_horizontal_period
from rtspectra import criteria, modereduce as mr
from rtspectra.equilibrium import Geometry, PressureLaw, build_profile
from rtspectra.errors import InputError, SolverError
from rtspectra.params import VISCOELASTIC, PhysicalParams


def test_vertical_threshold_canonical(canonical_profile):
    rep = criteria.vertical_field_threshold(canonical_profile, lam=1.0, M3=2.3)
    assert rep.threshold_value == pytest.approx(5.142471399669742, rel=1e-10)
    assert rep.actual_value == pytest.approx(2.3 ** 2)
    assert rep.sufficient_stability  # 5.29 > 5.14
    rep2 = criteria.vertical_field_threshold(canonical_profile, lam=1.0, M3=2.2)
    assert not rep2.sufficient_stability


def test_vertical_threshold_zero_gravity(geometry):
    prof0 = build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 0.0, 2.0)
    rep = criteria.vertical_field_threshold(prof0, lam=1.0)
    # gravity term vanishes: threshold reduces to P_inf / lam
    assert rep.threshold_value == pytest.approx(rep.inputs["p_inf"], rel=1e-12)


def test_vertical_threshold_lam_scaling(canonical_profile):
    r1 = criteria.vertical_field_threshold(canonical_profile, lam=1.0)
    r2 = criteria.vertical_field_threshold(canonical_profile, lam=2.0)
    assert r2.threshold_value == pytest.approx(r1.threshold_value / 2.0, rel=1e-12)


def test_viscoelastic_threshold_canonical(canonical_profile):
    rep = criteria.viscoelastic_threshold(canonical_profile, 0.6, 0.7)
    assert rep.threshold_value == pytest.approx(0.5, rel=1e-12)
    assert rep.actual_value == 0.6
    assert rep.sufficient_stability


def test_viscoelastic_threshold_tall_layers():
    geo = Geometry(h_minus=-2.0, h_plus=2.0, L1=1.0, L2=1.0)
    prof = build_profile(geo, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 1.0, 2.0)
    rep = criteria.viscoelastic_threshold(prof, 1.0, 1.0)
    # g*[[rho]]*(2)(-2)/(-4) = g*[[rho]]
    assert rep.threshold_value == pytest.approx(prof.g * prof.density_jump, rel=1e-12)


def test_viscoelastic_threshold_negative_jump(geometry):
    prof = build_profile(geometry, PressureLaw.linear(2.0), PressureLaw.linear(1.0), 1.0, 1.0)
    rep = criteria.viscoelastic_threshold(prof, 0.0, 0.0)
    assert rep.threshold_value <= 0.0
    assert rep.sufficient_stability  # any kappa >= 0 clears a nonpositive threshold
    assert not criteria.viscoelastic_threshold(prof, -0.0, 0.0).threshold_value > 0


def test_horizontal_witness_agreement(canonical_profile):
    geo = canonical_profile.geometry
    params = PhysicalParams(lam=1.0, M=(1.0, 0.0, 0.0))
    mode = make_mode(1, 1, geo)
    w = criteria.horizontal_field_witness(canonical_profile, params, mode)
    assert abs(w.energy_value - w.closed_form_value) \
        <= 1e-8 * max(1.0, abs(w.closed_form_value))


@pytest.mark.parametrize("M1, k", [(1.0, (1, 1)), (0.3, (1, 0)), (1.0, (2, -1)), (0.0, (1, 1))])
def test_horizontal_witness_matches_closed_form_to_rounding(canonical_profile, M1, k):
    """The analytic field on Gauss panels leaves only rounding between the energy
    and the closed form (a P1 interpolant on 65,536 points per layer left 8.8e-10)."""
    params = PhysicalParams(lam=1.0, M=(M1, 0.0, 0.0))
    w = criteria.horizontal_field_witness(canonical_profile, params,
                                          make_mode(*k, canonical_profile.geometry))
    assert w.diagnostics["agreement"] == abs(w.energy_value - w.closed_form_value)
    assert w.diagnostics["agreement"] <= 1e-12 * max(1.0, abs(w.closed_form_value))


def test_horizontal_witness_zero_field_positive(canonical_profile):
    params = PhysicalParams(lam=1.0, M=(0.0, 0.0, 0.0))
    mode = make_mode(1, 1, canonical_profile.geometry)
    w = criteria.horizontal_field_witness(canonical_profile, params, mode)
    jump_term = canonical_profile.g * canonical_profile.density_jump
    assert w.closed_form_value == pytest.approx(jump_term, rel=1e-12)
    assert w.closed_form_value > 0


def test_horizontal_witness_errors(canonical_profile):
    geo = canonical_profile.geometry
    with pytest.raises(InputError, match="xi1 != 0"):
        criteria.horizontal_field_witness(canonical_profile,
                                          PhysicalParams(M=(1.0, 0.0, 0.0)),
                                          make_mode(0, 1, geo))
    with pytest.raises(InputError, match="along the first axis"):
        criteria.horizontal_field_witness(canonical_profile,
                                          PhysicalParams(M=(1.0, 0.0, 0.5)),
                                          make_mode(1, 0, geo))
    with pytest.raises(InputError, match="along the first axis"):
        criteria.horizontal_field_witness(canonical_profile,
                                          PhysicalParams(M=(1.0, 0.0, 0.0), kappa_plus=1.0,
                                                         kappa_minus=1.0, medium=VISCOELASTIC),
                                          make_mode(1, 0, geo))


@pytest.mark.parametrize("h_plus, h_minus", [(1.0, -1.0), (0.5, -2.0), (2.0, -0.5),
                                             (1e-3, -7.0)])
def test_bump_integrals_match_gauss_legendre(h_plus, h_minus):
    """The Beta-integral closed forms against a 64-point Gauss-Legendre sum
    per layer, exact for the degree-8 integrands; psi0(0) is exactly 1."""
    geo = Geometry(h_minus=h_minus, h_plus=h_plus, L1=1.0, L2=1.0)
    x, w = np.polynomial.legendre.leggauss(64)
    I0 = I1 = 0.0
    for a, b in ((h_minus, 0.0), (0.0, h_plus)):
        psi0, dpsi0 = criteria._bump(0.5 * (b - a) * x + 0.5 * (a + b), geo)
        I0 += float(np.sum(0.5 * (b - a) * w * psi0 ** 2))
        I1 += float(np.sum(0.5 * (b - a) * w * dpsi0 ** 2))
    got = criteria._bump_integrals(geo)
    assert got == pytest.approx((I0, I1), rel=2e-15, abs=0.0)
    assert criteria._bump(np.array([0.0]), geo)[0][0] == 1.0


def test_horizontal_period_bisection(canonical_profile):
    params = PhysicalParams(lam=1.0, M=(1.0, 0.0, 0.0))
    L1_star = criteria.horizontal_period_threshold(canonical_profile, params, 1, 1)
    geo = canonical_profile.geometry

    def value(L1):
        mode = mr.FourierMode(k1=1, k2=1, xi1=1.0 / L1, xi2=1.0 / geo.L2)
        return criteria.closed_form_horizontal(canonical_profile, params, mode)

    assert value(1.02 * L1_star) > 0
    assert value(0.98 * L1_star) < 0


@pytest.mark.parametrize("M1", [0.0, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("k2", [0, 1])
def test_horizontal_period_root(canonical_profile, M1, k2):
    """The closed-form root agrees with a bisection of an independently coded
    witness value within 1e-10 relative; with no field the value is positive
    at L1 = 1e-3, which is returned, and with k2 = 0 and M1 >= 1 it is not
    positive by L1 = 1e6, which raises."""
    params = PhysicalParams(lam=1.0, M=(M1, 0.0, 0.0))
    expected = bisected_horizontal_period(canonical_profile, 1.0, M1, 1, k2)
    assert (expected is None) == (k2 == 0 and M1 >= 1.0)
    if expected is None:
        with pytest.raises(InputError, match="never positive"):
            criteria.horizontal_period_threshold(canonical_profile, params, 1, k2)
        return
    L1_star = criteria.horizontal_period_threshold(canonical_profile, params, 1, k2)
    assert L1_star == pytest.approx(expected, rel=1e-10)
    assert (L1_star == 1e-3) == (M1 == 0.0)


def test_horizontal_period_sign_of_k1(canonical_profile):
    """L1 enters only through (k1/L1)^2: k1 = -1 gives the period of k1 = 1,
    and a mode with k1 = 0 has no period threshold."""
    params = PhysicalParams(lam=1.0, M=(1.0, 0.0, 0.0))
    assert criteria.horizontal_period_threshold(canonical_profile, params, -1, 1) \
        == criteria.horizontal_period_threshold(canonical_profile, params, 1, 1)
    for k2 in (1, 0):
        with pytest.raises(InputError, match="L1 enters no closed form"):
            criteria.horizontal_period_threshold(canonical_profile, params, 0, k2)


def test_small_field_witness_canonical(canonical_profile):
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.0, 0.0, 0.02))
    w = criteria.small_field_witness(canonical_profile, params, 0.1)
    assert w.energy_value > 0
    assert abs(w.energy_value - w.closed_form_value) <= 1e-10 * max(1.0, abs(w.closed_form_value))
    # the integration-by-parts identity behind the construction
    assert w.diagnostics["jump_integral"] == pytest.approx(w.diagnostics["identity_rhs"],
                                                           rel=1e-10)
    assert canonical_profile.g * w.diagnostics["jump_integral"] < 0


@pytest.mark.parametrize("eps", [0.1, 0.25])
def test_tent_support_grid_matches_full_domain(canonical_profile, eps):
    """Outside [-eps, eps] the tent field is 0, so the two panels lose nothing.

    The oracle is the hand-written P1 energy on a whole-domain grid with
    nodes at the kinks 0 and +-eps and dyadic node clusters around them, so
    that only elements of size 2**-48 / 256 see the jumps of phi = -psi'/xi1.
    The canonical profile is also the growth_mixed benchmark profile, whose
    witness uses eps = 0.25.
    """
    geo = canonical_profile.geometry
    w = criteria.small_field_witness(canonical_profile, PhysicalParams(), eps)
    assert w.diagnostics["eps_used"] == eps
    n = 256
    kinks = np.array([-eps, 0.0, eps])
    offsets = np.outer([-1.0, 1.0], 0.5 ** np.arange(1, 49) / n).ravel()
    grid = np.unique(np.concatenate([np.linspace(geo.h_minus, 0.0, n + 1),
                                     np.linspace(0.0, geo.h_plus, n + 1),
                                     kinks, (kinks[:, None] + offsets).ravel()]))
    psi = np.maximum(0.0, 1.0 - np.abs(grid) / eps)
    dpsi = np.where((np.abs(grid) < eps) & (grid != 0.0), -np.sign(grid) / eps, 0.0)
    values = np.stack([1j * dpsi / w.mode.xi1, np.zeros_like(psi), psi], axis=1)
    values[0] = values[-1] = 0.0
    fld = ModeField(grid, values)
    coeffs = mr.FormCoefficients(canonical_profile, PhysicalParams(), grid)
    oracle = gravity_form(fld, coeffs, w.mode) - compressibility_form(fld, coeffs, w.mode)
    assert w.energy_value == pytest.approx(oracle, rel=1e-13)


def test_small_field_witness_grid(canonical_profile):
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.0, 0.0, 0.02))
    w = criteria.small_field_witness(canonical_profile, params, 0.1)
    assert w.diagnostics["agreement"] == abs(w.energy_value - w.closed_form_value)


def test_small_field_witness_no_jump(geometry):
    prof = build_profile(geometry, PressureLaw.linear(1.5), PressureLaw.linear(1.5), 1.0, 2.0)
    with pytest.raises(SolverError, match="positive density jump"):
        criteria.small_field_witness(prof, PhysicalParams(), 0.1)


def test_small_field_identity_sign_analysis(geometry):
    """With zero jump and rho' < 0 the integral is positive for every width."""
    prof = build_profile(geometry, PressureLaw.linear(1.5), PressureLaw.linear(1.5), 1.0, 2.0)
    for eps in (0.4, 0.2, 0.1, 0.05):
        coeffs, psi, dpsi = criteria._tent(prof, PhysicalParams(), eps)
        assert np.sum(coeffs.qp_w * coeffs.rho * psi * dpsi) > 0


def test_poincare_sharp_constant(geometry):
    grid = np.unique(np.concatenate([np.linspace(-1, 1, 801), [0.0]]))
    phi = np.sin(np.pi * (grid - grid[0]) / geometry.height).astype(complex)
    phi[0] = phi[-1] = 0
    mode = make_mode(0, 0, geometry)
    lhs, rhs, holds = poincare_check(phi, grid, mode, (0.0, 0.0, 1.0), geometry)
    assert holds
    assert lhs / rhs >= 0.999


def test_poincare_random_fields(geometry, rng):
    grid = np.unique(np.concatenate([np.linspace(-1, 1, 201), [0.0]]))
    mode = make_mode(2, 1, geometry)
    for _ in range(200):
        phi = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        phi[0] = phi[-1] = 0
        nu = (rng.uniform(-2, 2), rng.uniform(-2, 2), 1.0)
        lhs, rhs, holds = poincare_check(phi, grid, mode, nu, geometry)
        assert holds
    lhs, rhs, holds = poincare_check(np.zeros(grid.size), grid, mode,
                                     (0.0, 0.0, 1.0), geometry)
    assert holds and lhs == 0.0


def test_trace_constant_and_random_fields(geometry, rng):
    grid = np.unique(np.concatenate([np.linspace(-1, 1, 201), [0.0]]))
    mode = make_mode(1, 2, geometry)
    const = math.sqrt(geometry.h_minus * geometry.h_plus
                      / (geometry.h_minus - geometry.h_plus))
    assert const == pytest.approx(math.sqrt(0.5), rel=1e-14)
    for _ in range(200):
        f = random_field(grid, rng)
        nu = (rng.uniform(-2, 2), rng.uniform(-2, 2), 1.0)
        lhs, rhs, holds = trace_check(f, mode, nu, geometry)
        assert holds
    zero = ModeField(grid, np.zeros((grid.size, 3), dtype=complex))
    lhs, rhs, holds = trace_check(zero, mode, (0.0, 0.0, 1.0), geometry)
    assert holds and lhs == 0.0


def test_bad_direction(geometry, rng):
    grid = np.unique(np.concatenate([np.linspace(-1, 1, 51), [0.0]]))
    phi = np.zeros(grid.size)
    with pytest.raises(InputError, match="direction must be"):
        poincare_check(phi, grid, make_mode(1, 0, geometry), (0.0, 0.0, 2.0), geometry)
    with pytest.raises(InputError, match="direction must be"):
        trace_check(random_field(grid, rng), make_mode(1, 0, geometry),
                    (0.0, 1.0, 0.5), geometry)
