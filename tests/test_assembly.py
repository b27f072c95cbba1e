"""Mesh construction and discrete-form consistency with the quadrature layer."""

import dataclasses

import numpy as np
import pytest

from conftest import make_mode, random_field
from oracles import oracle_integrate, p1_eval, p1_slope
from rtspectra import assembly, band, modereduce as mr
from rtspectra.errors import InvalidGradingError
from rtspectra.params import VISCOELASTIC, PhysicalParams


def test_uniform_mesh_nodes(geometry):
    mesh = assembly.build_mesh(geometry, n_per_layer=4, grading=1.0)
    assert np.allclose(mesh.nodes, np.linspace(-1.0, 1.0, 9))
    assert mesh.nodes[0] == geometry.h_minus and mesh.nodes[-1] == geometry.h_plus
    assert 0.0 in mesh.nodes


def test_graded_mesh_ratio(geometry):
    mesh = assembly.build_mesh(geometry, n_per_layer=8, grading=2.0)
    sizes = np.diff(mesh.nodes)
    i0 = mesh.interface_index
    # element nearest the interface is half its outward neighbor, both layers
    assert sizes[i0] / sizes[i0 + 1] == pytest.approx(0.5, rel=1e-12)
    assert sizes[i0 - 1] / sizes[i0 - 2] == pytest.approx(0.5, rel=1e-12)
    assert not np.any((mesh.nodes[:-1] < 0) & (mesh.nodes[1:] > 0))


def test_interior_unknown_count(geometry, canonical_profile, baseline_params):
    n = 12
    mesh = assembly.build_mesh(geometry, n_per_layer=n)
    mm = assembly.assemble(canonical_profile, baseline_params, make_mode(1, 0, geometry), mesh)
    assert mm.n_dof == 3 * (2 * n - 1)


def test_invalid_grading(geometry):
    with pytest.raises(InvalidGradingError):
        assembly.build_mesh(geometry, n_per_layer=8, grading=0.8)
    with pytest.raises(ValueError):
        assembly.build_mesh(geometry, n_per_layer=3)


def test_default_mesh_family(geometry):
    """The default mesh refines everywhere as n grows: h_max ~ 1/n at a fixed h_max/h_min."""
    h_max = []
    for n in (100, 200, 400):
        sizes = np.diff(assembly.build_mesh(geometry, n_per_layer=n).nodes)
        assert sizes.max() / sizes.min() == pytest.approx(assembly.DEFAULT_SIZE_RATIO, rel=1e-9)
        h_max.append(sizes.max())
    assert h_max[1] / h_max[0] == pytest.approx(0.5, rel=0.02)
    assert h_max[2] / h_max[1] == pytest.approx(0.5, rel=0.02)


def test_degenerate_mesh_rejected(geometry):
    """A compounding explicit grading is refused once h_min drops below 1e-9 * height."""
    assembly.build_mesh(geometry, n_per_layer=200, grading=1.05)   # h_min 2.9e-6
    with pytest.raises(InvalidGradingError):
        assembly.build_mesh(geometry, n_per_layer=400, grading=1.05)   # h_min 1.7e-10
    with pytest.raises(InvalidGradingError):
        assembly.build_mesh(geometry, n_per_layer=8, grading=1e300)


@pytest.fixture(scope="module")
def assembled(canonical_profile, mixed_params, mesh60, geometry):
    mode = make_mode(2, -1, geometry)
    return assembly.assemble(canonical_profile, mixed_params, mode, mesh60)


def all_matrices(mm):
    """Dense views of the seven band matrices."""
    return {
        name: band.to_dense(getattr(mm, attr)) for name, attr in (
            ("mass", "mass"), ("gravity", "gravity"), ("compress", "compress"),
            ("magnetic", "magnetic"), ("elastic", "elastic"),
            ("dissipation", "dissipation"), ("metric", "coercivity_metric"))
    }


def test_hermitian(assembled):
    for name, X in all_matrices(assembled).items():
        defect = np.linalg.norm(X - X.conj().T) / max(np.linalg.norm(X), 1e-300)
        assert defect <= 1e-12, name


def test_definiteness(assembled):
    dense = all_matrices(assembled)
    evs = np.linalg.eigvalsh(dense["mass"])
    assert evs.min() > 0
    evs = np.linalg.eigvalsh(dense["dissipation"])
    assert evs.min() > 0
    for name in ("compress", "magnetic"):
        X = dense[name]
        evs = np.linalg.eigvalsh(X)
        assert evs.min() >= -1e-12 * np.linalg.norm(X), name


def test_elastic_dominates_discrete_gradient(assembled, mixed_params, mesh60, geometry, rng):
    kmin = mixed_params.kappa_min
    co = assembled.coeffs
    mode = assembled.mode
    for _ in range(30):
        f = random_field(mesh60.nodes, rng)
        el = assembled.quadratic(assembled.elastic, f)
        grad = mr.gradient_form(f, co, mode)
        assert el >= kmin * grad - 1e-12 * max(1.0, el)


def _metric_oracle(f, co, mode):
    """int |w|^2 + int |d_xi(w)|^2 on the P1 field, plus int |m_xi(w)|^2."""
    grid, values = f.grid, f.values

    def density(y):
        w = [p1_eval(grid, values[:, c], y) for c in range(3)]
        d = 1j * (mode.xi1 * w[0] + mode.xi2 * w[1]) + p1_slope(grid, values[:, 2], y)
        return sum(np.abs(wc) ** 2 for wc in w) + np.abs(d) ** 2

    return oracle_integrate(grid, density) + mr.field_directional_form(f, co, mode)


@pytest.mark.parametrize("field, k", [
    ({}, (2, -1)),
    ({"M": (0.0, 0.0, 1.5)}, (1, 1)),
    ({"M": (1.0, 0.0, 0.0)}, (0, 1)),        # M.xi = 0
    ({"M": (1.0, 0.0, 1.0)}, (0, 1)),        # M.xi = 0, skew part nonzero
    ({"medium": VISCOELASTIC}, (2, -1)),
], ids=["mixed", "vertical", "horizontal_perp", "skew_perp", "viscoelastic"])
def test_galerkin_consistency(field, k, canonical_profile, mixed_params, mesh60, geometry, rng):
    params = dataclasses.replace(mixed_params, **field)
    mm = assembly.assemble(canonical_profile, params, make_mode(*k, geometry), mesh60)
    co, mode = mm.coeffs, mm.mode
    for _ in range(100):
        f = random_field(mesh60.nodes, rng)
        pairs = (
            (mm.mass, mr.mass_form(f, co)),
            (mm.gravity, mr.gravity_form(f, co, mode)),
            (mm.compress, mr.compressibility_form(f, co, mode)),
            (mm.magnetic, mr.magnetic_form(f, co, mode)),
            (mm.elastic, mr.elastic_form(f, co, mode)),
            (mm.dissipation, mr.dissipation_form(f, co, mode)),
            (mm.coercivity_metric, _metric_oracle(f, co, mode)),
        )
        for X, form_value in pairs:
            assert mm.quadratic(X, f) == pytest.approx(form_value, rel=1e-10, abs=1e-12)


def test_scalar_gravity_kernel(canonical_profile, mesh60, rng):
    """Q = g[[rho]]|psi(0)|^2 + int g rho' |psi|^2 and Mpsi = int rho |psi|^2 on P1 psi."""
    Q, Mpsi = assembly.assemble_scalar_gravity_kernel(canonical_profile, mesh60)
    co = mr.FormCoefficients(canonical_profile, PhysicalParams(), mesh60.nodes)
    for _ in range(20):
        psi = rng.standard_normal(mesh60.nodes.size) + 1j * rng.standard_normal(mesh60.nodes.size)
        psi[0] = psi[-1] = 0.0
        at_q = np.abs(psi[:-1, None] * co.shape[0] + psi[1:, None] * co.shape[1]) ** 2
        jump = co.g * co.rho_jump * abs(psi[mesh60.interface_index]) ** 2
        z = psi[1:-1]
        for X, value in ((Q, jump + np.sum(co.qp_w * co.g * co.rho_prime * at_q)),
                         (Mpsi, np.sum(co.qp_w * co.rho * at_q))):
            got = np.real(np.vdot(z, band.matvec(X, z)))
            assert got == pytest.approx(value, rel=1e-10, abs=1e-12)


def test_magnetic_zero_matrix_without_field(canonical_profile, baseline_params, mesh60, geometry):
    mm = assembly.assemble(canonical_profile, baseline_params, make_mode(1, 1, geometry), mesh60)
    assert np.all(mm.magnetic == 0.0)


def test_mixed_field_matrices_complex(assembled):
    # M3 != 0 with in-plane projection nonzero: skew part present
    assert np.iscomplexobj(assembled.magnetic)
    assert np.linalg.norm(assembled.magnetic.imag) > 0


def test_vertical_field_matrices_real(canonical_profile, mesh60, geometry):
    params = PhysicalParams(M=(0.0, 0.0, 1.5))
    mm = assembly.assemble(canonical_profile, params, make_mode(1, 1, geometry), mesh60)
    assert not np.iscomplexobj(mm.magnetic)


def test_field_roundtrip(assembled, mesh60, rng):
    f = random_field(mesh60.nodes, rng)
    vec = assembled.tilde_vector(f.values)
    back = assembled.field_from_tilde(vec)
    assert np.allclose(back.values, f.values)


def test_export(tmp_path, assembled):
    npz = tmp_path / "mode.npz"
    assembly.export_matrices(assembled, str(npz), fmt="npz")
    data = np.load(npz)
    assert data["k1"] == assembled.mode.k1
    assert data["mass"].shape == (assembled.n_dof, assembled.n_dof)
    txt = tmp_path / "mode.txt"
    assembly.export_matrices(assembled, str(txt), fmt="txt")
    head = txt.read_text().splitlines()[:2]
    assert head[0].startswith("#") and "mode" in head[1]


def test_mesh_convergence_trend(canonical_profile, baseline_params, geometry):
    """Generalized top eigenvalue settles at second order under refinement."""
    import scipy.linalg as sla

    mode = make_mode(1, 0, geometry)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.0, 0.0, 2.5))
    values = []
    for n in (20, 40, 80):
        mesh = assembly.build_mesh(geometry, n_per_layer=n)
        mm = assembly.assemble(canonical_profile, params, mode, mesh)
        B = band.to_dense(mm.compress + mm.magnetic)
        L = np.linalg.cholesky(B)
        Y = sla.solve_triangular(L, band.to_dense(mm.gravity), lower=True)
        At = sla.solve_triangular(L, Y.conj().T, lower=True)
        values.append(sla.eigh(0.5 * (At + At.conj().T), eigvals_only=True,
                               subset_by_index=[B.shape[0] - 1] * 2)[0])
    e1 = abs(values[1] - values[0])
    e2 = abs(values[2] - values[1])
    assert e2 < 0.5 * e1  # at least first-order decay of increments
