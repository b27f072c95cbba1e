"""Equilibrium construction against closed forms and jump arithmetic."""

import math

import numpy as np
import pytest

from oracles import dop853_density
from rtspectra.assembly import build_mesh
from rtspectra.cli import EQUILIBRIUM_TABLE_ELEMENTS
from rtspectra.equilibrium import (Geometry, PressureLaw, build_profile, infimum_p_prime_rho,
                                   supremum_p_prime_rho)
from rtspectra.errors import InputError


def _table_nodes(geo):
    """The heights of the exported CSV table: the default-family mesh nodes."""
    return build_mesh(geo, EQUILIBRIUM_TABLE_ELEMENTS).nodes


def _layer_grid(prof, side):
    """The heights of the exported CSV table of one layer, the interface included."""
    y = _table_nodes(prof.geometry)
    return y[y >= 0.0] if side == "+" else y[y <= 0.0]


def test_linear_laws_match_exponential(canonical_profile):
    prof = canonical_profile
    for side, c2, anchor in (("+", 1.0, 2.0), ("-", 2.0, 1.0)):
        y = _layer_grid(prof, side)
        rho, _, _ = prof.evaluate_layer(y, side)
        exact = anchor * np.exp(-prof.g * y / c2)
        assert np.max(np.abs(rho - exact)) <= 1e-10 * anchor


def test_lower_anchor_from_pressure_matching(canonical_profile):
    prof = canonical_profile
    assert prof.rho_interface_minus == pytest.approx(1.0, rel=1e-14)
    p_plus = prof.law_plus.value(prof.rho_interface_plus)
    p_minus = prof.law_minus.value(prof.rho_interface_minus)
    assert abs(p_plus - p_minus) <= 1e-12 * p_plus


def test_ode_residual_identity(canonical_profile):
    prof = canonical_profile
    for side, law in (("+", prof.law_plus), ("-", prof.law_minus)):
        rho, rho_p, _ = prof.evaluate_layer(_layer_grid(prof, side), side)
        residual = law.derivative(rho) * rho_p + rho * prof.g
        assert np.max(np.abs(residual)) <= 1e-10 * np.max(rho * prof.g)


def test_density_strictly_decreasing(canonical_profile):
    for side in ("+", "-"):
        y = np.sort(_layer_grid(canonical_profile, side))
        rho, _, _ = canonical_profile.evaluate_layer(y, side)
        assert np.all(np.diff(rho) < 0.0)


def test_rt_condition_canonical(canonical_profile):
    jump = canonical_profile.density_jump
    assert jump > 0.0 and jump == pytest.approx(1.0, rel=1e-12)


def test_rt_condition_symmetric_layers(geometry):
    prof = build_profile(geometry, PressureLaw.linear(1.5), PressureLaw.linear(1.5), 1.0, 2.0)
    jump = prof.density_jump
    assert not jump > 0.0 and jump == pytest.approx(0.0, abs=1e-14)


def test_rt_condition_swapped_sound_speeds(geometry):
    prof = build_profile(geometry, PressureLaw.linear(2.0), PressureLaw.linear(1.0), 1.0, 1.0)
    jump = prof.density_jump
    assert not jump > 0.0 and jump == pytest.approx(-1.0, rel=1e-12)


def test_evaluate_interface_sides(canonical_profile):
    rho, rho_p, pp = canonical_profile.evaluate_layer(np.array([0.0]), "+")
    assert (rho[0], rho_p[0], pp[0]) == pytest.approx((2.0, -2.0, 2.0), rel=1e-12)
    rho, rho_p, pp = canonical_profile.evaluate_layer(np.array([0.0]), "-")
    assert (rho[0], rho_p[0], pp[0]) == pytest.approx((1.0, -0.5, 2.0), rel=1e-12)


def test_zero_gravity_constant_layers(geometry):
    prof = build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 0.0, 2.0)
    for y in (-0.7, 0.3, 0.9):
        (rho,), (rho_p,), _ = prof.evaluate_layer(np.array([y]), "+" if y > 0 else "-")
        assert rho == pytest.approx(2.0 if y > 0 else 1.0, rel=1e-14)
        assert rho_p == 0.0
    assert infimum_p_prime_rho(prof) == pytest.approx(min(1.0 * 2.0, 2.0 * 1.0), rel=1e-14)


def test_polytropic_linear_profile(geometry):
    # K=1, gamma=2: 2*K*rho*rho' = -rho*g  =>  rho' = -1/2
    prof = build_profile(geometry, PressureLaw.polytropic(1.0, 2.0),
                         PressureLaw.polytropic(1.0, 2.0), 1.0, 2.0)
    y = _layer_grid(prof, "+")
    rho, _, _ = prof.evaluate_layer(y, "+")
    exact = 2.0 - y / 2.0
    assert np.max(np.abs(rho - exact)) <= 1e-10
    # infimum of P'(rho)*rho = 2*K*rho^2 at the smallest-density endpoint,
    # supremum at the largest, rho(-1) = 2.5 in the lower layer
    assert infimum_p_prime_rho(prof) == pytest.approx(2.0 * 1.5 ** 2, rel=1e-10)
    assert supremum_p_prime_rho(prof) == pytest.approx(2.0 * 2.5 ** 2, rel=1e-10)


def test_infimum_canonical(canonical_profile):
    assert infimum_p_prime_rho(canonical_profile) == pytest.approx(2.0 / math.e, rel=1e-10)


def test_supremum_p_prime_rho(canonical_profile, geometry):
    """At the bottom of the lower layer on both the canonical profile and its
    swap (heavy fluid below), and P'(rho)*rho = 2 in both layers without gravity."""
    assert supremum_p_prime_rho(canonical_profile) == pytest.approx(2.0 * math.sqrt(math.e),
                                                                    rel=1e-14)
    swapped = build_profile(geometry, PressureLaw.linear(2.0), PressureLaw.linear(1.0), 1.0, 1.0)
    assert supremum_p_prime_rho(swapped) == pytest.approx(2.0 * math.e, rel=1e-14)
    flat = build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 0.0, 2.0)
    assert supremum_p_prime_rho(flat) == pytest.approx(2.0, rel=1e-14)


def test_sup_density(canonical_profile):
    assert canonical_profile.sup_density() == pytest.approx(2.0, rel=1e-12)


LAWS = [PressureLaw.linear(c2) for c2 in (0.3, 1.0, 2.0)] + [
    PressureLaw.polytropic(K, gamma) for K, gamma in ((1.0, 1.4), (2.0, 2.0), (0.7, 3.0))
]


@pytest.mark.parametrize("g", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("index", range(len(LAWS)), ids=[law.describe() for law in LAWS])
def test_closed_forms_match_dop853(geometry, index, g):
    # each law once above the interface and once below it
    law_plus, law_minus = LAWS[index], LAWS[(index + 1) % len(LAWS)]
    prof = build_profile(geometry, law_plus, law_minus, g, 2.0)
    for side, h, law, anchor in (("+", geometry.h_plus, prof.law_plus, prof.rho_interface_plus),
                                 ("-", geometry.h_minus, prof.law_minus, prof.rho_interface_minus)):
        y = np.linspace(0.0, h, 1000)
        want = dop853_density(law, anchor, h, g)(y)
        got, _, _ = prof.evaluate_layer(y, side)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-9


@pytest.mark.parametrize("g", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("index", range(len(LAWS)), ids=[law.describe() for law in LAWS])
def test_extrema_at_layer_endpoints(geometry, index, g):
    """sup rho and inf P'(rho)*rho are the closed forms at the layer endpoints,
    and no height of the exported CSV table goes past them."""
    prof = build_profile(geometry, LAWS[index], LAWS[(index + 1) % len(LAWS)], g, 2.0)
    rho_bottom = prof.evaluate_layer(geometry.h_minus, "-")[0][0]
    pp_top_plus = prof.evaluate_layer(geometry.h_plus, "+")[2][0]
    pp_top_minus = prof.evaluate_layer(0.0, "-")[2][0]
    assert prof.sup_density() == max(prof.evaluate_layer(0.0, "+")[0][0], rho_bottom)
    assert infimum_p_prime_rho(prof) == min(pp_top_plus, pp_top_minus)
    tables = [prof.evaluate_layer(_layer_grid(prof, side), side) for side in ("+", "-")]
    assert prof.sup_density() == max(rho.max() for rho, _, _ in tables)
    assert infimum_p_prime_rho(prof) == min(pp.min() for _, _, pp in tables)


def _floor_height(exc_info):
    return float(str(exc_info.value).split("y3=")[1].split()[0])


def test_vacuum_guard():
    geo = Geometry(h_minus=-1.0, h_plus=40.0, L1=1.0, L2=1.0)
    with pytest.raises(InputError, match="non-vacuum floor") as closed:
        build_profile(geo, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 1.0, 2.0)
    with pytest.raises(InputError, match="non-vacuum floor") as integrated:
        dop853_density(PressureLaw.linear(1.0), 2.0, 40.0, 1.0)
    # rho = 2*exp(-y3) falls to 1e-8 of its anchor at y3 = ln(1e8)
    for exc_info in (closed, integrated):
        assert _floor_height(exc_info) == pytest.approx(math.log(1e8), rel=1e-5)


def test_vacuum_guard_polytropic():
    # K=1, gamma=2, anchor 2, g=1: rho = 2 - y3/2 reaches vacuum at y3 = 4
    geo = Geometry(h_minus=-1.0, h_plus=5.0, L1=1.0, L2=1.0)
    law = PressureLaw.polytropic(1.0, 2.0)
    with pytest.raises(InputError, match="non-vacuum floor") as closed:
        build_profile(geo, law, law, 1.0, 2.0)
    with pytest.raises(InputError, match="non-vacuum floor") as integrated:
        dop853_density(law, 2.0, 5.0, 1.0)
    for exc_info in (closed, integrated):
        assert _floor_height(exc_info) == pytest.approx(4.0, rel=1e-5)


def test_deep_layer_overflow():
    # lower rho = exp(-y3/2) exceeds the float range well above y3 = -2000
    geo = Geometry(h_minus=-2000.0, h_plus=1.0, L1=1.0, L2=1.0)
    with pytest.raises(InputError, match="density overflows"):
        build_profile(geo, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 1.0, 2.0)


@pytest.mark.parametrize("c2", [0.05, 0.3, 1.0, 2.0, 7.5e3])
def test_linear_law_is_the_power_law_at_gamma_one(c2):
    """The linear law is the power law's gamma = 1 case and keeps the bits of
    its own closed forms: c2*tau, c2, p/c2, anchor*exp(-y*(g/c2)) and
    (c2/g)*log(anchor/floor); at g = 0 the density is the anchor."""
    law = PressureLaw.linear(c2)
    assert (law.K, law.gamma, law.describe()) == (c2, 1.0, f"linear c2={c2:g}")
    tau = np.array([1e-300, 1e-8, 0.3, 1.0, 2.0, 7.0, 1e12])
    assert np.array_equal(law.value(tau), c2 * tau) and law.value(2.0) == c2 * 2.0
    assert np.array_equal(law.derivative(tau), np.full_like(tau, c2))
    assert law.derivative(2.0) == c2
    assert all(law.inverse(float(p)) == float(p) / c2 for p in tau)
    y = np.linspace(-3.0, 3.0, 61)
    for anchor in (1e-3, 1.0, 2.0):
        assert np.array_equal(law.density(anchor, 0.0, y), np.full_like(y, anchor))
        for g in (0.25, 1.0, 3.0):
            assert np.array_equal(law.density(anchor, g, y), anchor * np.exp(-(y * (g / c2))))
        for g, floor in ((0.25, 1e-8 * anchor), (1.0, 0.5 * anchor), (3.0, 1e-3 * anchor)):
            assert law.floor_height(anchor, g, floor) == (c2 / g) * math.log(anchor / floor)


def test_invalid_inputs(geometry):
    with pytest.raises(InputError, match="polytropic law"):
        PressureLaw.polytropic(1.0, 1.0)
    with pytest.raises(InputError, match="linear law"):
        PressureLaw.linear(-1.0)
    with pytest.raises(InputError, match="linear law"):
        PressureLaw(kind="linear", K=-1.0)
    with pytest.raises(InputError, match="linear law is the power law at gamma = 1"):
        PressureLaw(kind="linear", K=1.0, gamma=2.0)
    with pytest.raises(InputError, match="unknown pressure law kind 'isothermal'"):
        PressureLaw(kind="isothermal")
    with pytest.raises(InputError, match="upper anchor"):
        build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 1.0, -2.0)
    with pytest.raises(InputError, match="h_minus < 0 < h_plus"):
        Geometry(h_minus=0.5, h_plus=1.0, L1=1.0, L2=1.0)


def test_csv_export(tmp_path, canonical_profile):
    path = tmp_path / "profile.csv"
    nodes = _table_nodes(canonical_profile.geometry)
    canonical_profile.to_csv(path, nodes)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "y3,rho,rho_prime,p_prime_rho,layer"
    fields = lines[2].split(",")
    assert len(fields) == 5 and fields[4] in ("lower", "upper")
    # two layers, 1,024 rows each
    assert len(lines) == 2 + 2 * 1024
    # the heights are exactly the nodes, the interface 0 in both layers
    rows = [line.split(",") for line in lines[2:]]
    for name, want in (("lower", nodes[nodes <= 0.0]), ("upper", nodes[nodes >= 0.0])):
        heights = [float(row[0]) for row in rows if row[4] == name]
        assert heights == want.tolist()
    assert [row[4] for row in rows if row[0] == "0"] == ["lower", "upper"]
