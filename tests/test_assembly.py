"""Mesh construction and discrete-form consistency with the quadrature layer."""

import dataclasses
import weakref

import numpy as np
import pytest

from conftest import make_mode, random_field
from form_oracles import (compressibility_form, dissipation_form, elastic_form,
                          field_directional_form, gradient_form, gravity_form, magnetic_form,
                          mass_form, quadratic)
from oracles import dense, oracle_integrate, p1_eval, p1_slope, per_mode_matrices
from rtspectra import assembly, band, cli, modereduce as mr, spectral
from rtspectra.equilibrium import PressureLaw, build_profile
from rtspectra.errors import InputError
from rtspectra.params import MHD, VISCOELASTIC, PhysicalParams
from test_spectral import SCAN_FIELDS


def test_uniform_mesh_nodes(geometry):
    mesh = assembly.build_mesh(geometry, n_per_layer=4, grading=1.0)
    assert np.allclose(mesh.nodes, np.linspace(-1.0, 1.0, 9))
    assert mesh.nodes[0] == geometry.h_minus and mesh.nodes[-1] == geometry.h_plus
    assert 0.0 in mesh.nodes


def test_graded_mesh_ratio(geometry):
    mesh = assembly.build_mesh(geometry, n_per_layer=8, grading=2.0)
    sizes = np.diff(mesh.nodes)
    i0 = int(np.flatnonzero(mesh.nodes == 0.0)[0])
    # element nearest the interface is half its outward neighbor, both layers
    assert sizes[i0] / sizes[i0 + 1] == pytest.approx(0.5, rel=1e-12)
    assert sizes[i0 - 1] / sizes[i0 - 2] == pytest.approx(0.5, rel=1e-12)
    assert not np.any((mesh.nodes[:-1] < 0) & (mesh.nodes[1:] > 0))


def test_interior_unknown_count(geometry, canonical_profile, baseline_params):
    n = 12
    mesh = assembly.build_mesh(geometry, n_per_layer=n)
    mm = assembly.assemble(mr.FormCoefficients(canonical_profile, baseline_params, mesh.nodes),
                           make_mode(1, 0, geometry))
    assert mm.n_dof == 3 * (2 * n - 1)


def test_invalid_grading(geometry):
    with pytest.raises(InputError, match="grading must be >= 1"):
        assembly.build_mesh(geometry, n_per_layer=8, grading=0.8)
    with pytest.raises(InputError, match="at least 4 elements"):
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
    """A compounding explicit grading is refused once h_min drops below 1e-5 * height."""
    assembly.build_mesh(geometry, n_per_layer=200, grading=1.04)   # h_min 1.6e-5
    with pytest.raises(InputError, match="smallest element"):
        assembly.build_mesh(geometry, n_per_layer=200, grading=1.05)   # h_min 2.9e-6
    with pytest.raises(InputError, match="smallest element"):
        assembly.build_mesh(geometry, n_per_layer=400, grading=1.05)   # h_min 1.7e-10
    with pytest.raises(InputError, match="smallest element"):
        assembly.build_mesh(geometry, n_per_layer=8, grading=1e300)


@pytest.fixture(scope="module")
def assembled(canonical_profile, mixed_params, mesh60, geometry):
    mode = make_mode(2, -1, geometry)
    return assembly.assemble(mr.FormCoefficients(canonical_profile, mixed_params, mesh60.nodes),
                             mode)


def all_matrices(mm):
    """Dense views of the seven band matrices."""
    return {
        name: dense(getattr(mm, attr)) for name, attr in (
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
    kmin = min(mixed_params.kappa_plus, mixed_params.kappa_minus)
    co = assembled.coeffs
    mode = assembled.mode
    for _ in range(30):
        f = random_field(mesh60.nodes, rng)
        el = quadratic(assembled.elastic, f)
        grad = gradient_form(f, co, mode)
        assert el >= kmin * grad - 1e-12 * max(1.0, el)


def _metric_oracle(f, co, mode):
    """int |w|^2 + int |d_xi(w)|^2 on the P1 field, plus int |m_xi(w)|^2."""
    grid, values = f.grid, f.values

    def density(y):
        w = [p1_eval(grid, values[:, c], y) for c in range(3)]
        d = 1j * (mode.xi1 * w[0] + mode.xi2 * w[1]) + p1_slope(grid, values[:, 2], y)
        return sum(np.abs(wc) ** 2 for wc in w) + np.abs(d) ** 2

    return oracle_integrate(grid, density) + field_directional_form(f, co, mode)


@pytest.mark.parametrize("field, k", [
    ({}, (2, -1)),
    ({"M": (0.0, 0.0, 1.5)}, (1, 1)),
    ({"M": (1.0, 0.0, 0.0)}, (0, 1)),        # M.xi = 0
    ({"M": (1.0, 0.0, 1.0)}, (0, 1)),        # M.xi = 0, skew part nonzero
    ({"medium": VISCOELASTIC}, (2, -1)),
], ids=["mixed", "vertical", "horizontal_perp", "skew_perp", "viscoelastic"])
def test_galerkin_consistency(field, k, canonical_profile, mixed_params, mesh60, geometry, rng):
    params = dataclasses.replace(mixed_params, **field)
    mm = assembly.assemble(mr.FormCoefficients(canonical_profile, params, mesh60.nodes),
                           make_mode(*k, geometry))
    co, mode = mm.coeffs, mm.mode
    for _ in range(100):
        f = random_field(mesh60.nodes, rng)
        pairs = (
            (mm.mass, mass_form(f, co)),
            (mm.gravity, gravity_form(f, co, mode)),
            (mm.compress, compressibility_form(f, co, mode)),
            (mm.magnetic, magnetic_form(f, co, mode)),
            (mm.elastic, elastic_form(f, co, mode)),
            (mm.dissipation, dissipation_form(f, co, mode)),
            (mm.coercivity_metric, _metric_oracle(f, co, mode)),
        )
        for X, form_value in pairs:
            assert quadratic(X, f) == pytest.approx(form_value, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("g, k", [(1.0, (0, 0)), (0.0, (2, -1))], ids=["xi0", "g0"])
def test_gravity_matrix_zero_without_drive(g, k, geometry, mixed_params, mesh60):
    """At xi = 0 or g = 0 the gravity form vanishes identically, and so does every entry."""
    profile = build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0), g, 2.0)
    mm = assembly.assemble(mr.FormCoefficients(profile, mixed_params, mesh60.nodes),
                           make_mode(*k, geometry))
    assert not np.any(mm.gravity)


def test_magnetic_zero_matrix_without_field(canonical_profile, baseline_params, mesh60, geometry):
    mm = assembly.assemble(mr.FormCoefficients(canonical_profile, baseline_params, mesh60.nodes),
                           make_mode(1, 1, geometry))
    assert np.all(mm.magnetic == 0.0)


def test_mixed_field_matrices_complex(assembled):
    # M3 != 0 with in-plane projection nonzero: skew part present
    assert np.iscomplexobj(assembled.magnetic)
    assert np.linalg.norm(assembled.magnetic.imag) > 0


def test_operator_summed_once_read_only(assembled, canonical_profile, mesh60, geometry):
    """The energy operator is summed once per mode and shared read-only, as
    the mass is: every alpha(s) of a mode reads the same array.  It is
    gravity - compress - stabilizer bit for bit, and the stabilizer of the
    other medium enters neither it nor the discriminant pencil, not even a
    viscoelastic mode's magnetic form under a field (ve_soft_field)."""
    A = assembled.operator
    assert assembled.operator is A and not A.flags.writeable
    ve = [assembly.assemble(mr.FormCoefficients(canonical_profile, PhysicalParams(**fields),
                                                mesh60.nodes), make_mode(2, -1, geometry))
          for fields in (SCAN_FIELDS["ve_stiff"], SCAN_FIELDS["ve_soft_field"])]
    assert np.any(assembled.elastic) and np.any(ve[1].magnetic)   # the other form is there
    for mm in [assembled] + ve:
        mhd = mm.coeffs.params.medium == MHD
        other = "elastic" if mhd else "magnetic"
        blind = dataclasses.replace(mm, **{other: np.full_like(getattr(mm, other), np.nan)})
        for m in (mm, blind):
            stabilizer = m.magnetic if mhd else m.elastic
            assert m.operator.tobytes() == (m.gravity - m.compress - stabilizer).tobytes()
            numerator, denominator = m.discriminant_pencil
            if mhd:
                assert numerator is m.gravity
                assert denominator.tobytes() == (m.compress + stabilizer).tobytes()
            else:
                assert numerator.tobytes() == (m.gravity - m.compress).tobytes()
                assert denominator is m.elastic


def test_vertical_field_matrices_real(canonical_profile, mesh60, geometry):
    params = PhysicalParams(M=(0.0, 0.0, 1.5))
    mm = assembly.assemble(mr.FormCoefficients(canonical_profile, params, mesh60.nodes),
                           make_mode(1, 1, geometry))
    assert not np.iscomplexobj(mm.magnetic)


def test_mesh_convergence_trend(canonical_profile, baseline_params, geometry):
    """Generalized top eigenvalue settles at second order under refinement."""
    import scipy.linalg as sla

    mode = make_mode(1, 0, geometry)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.0, 0.0, 2.5))
    values = []
    for n in (20, 40, 80):
        mesh = assembly.build_mesh(geometry, n_per_layer=n)
        mm = assembly.assemble(mr.FormCoefficients(canonical_profile, params, mesh.nodes), mode)
        B = dense(mm.compress + mm.magnetic)
        L = np.linalg.cholesky(B)
        Y = sla.solve_triangular(L, dense(mm.gravity), lower=True)
        At = sla.solve_triangular(L, Y.conj().T, lower=True)
        values.append(sla.eigh(0.5 * (At + At.conj().T), eigvals_only=True,
                               subset_by_index=[B.shape[0] - 1] * 2)[0])
    e1 = abs(values[1] - values[0])
    e2 = abs(values[2] - values[1])
    assert e2 < 0.5 * e1  # at least first-order decay of increments


# M.xi = 0 exactly on mode (1, -2) of the unit period: the metric's skew part
# cancels there, while the magnetic form's does not
PERPENDICULAR = {"M": (0.5, 0.25, 0.7)}


@pytest.mark.parametrize("k", [(0, 0), (1, 0), (2, -1), (4, 4), (1, -2)])
@pytest.mark.parametrize("field", [{"M": (0.0, 0.0, 1.5)}, {}, {"medium": VISCOELASTIC},
                                   PERPENDICULAR],
                         ids=["vertical", "mixed", "viscoelastic", "perpendicular"])
def test_polynomial_assembly_matches_per_mode_contraction(field, k, canonical_profile,
                                                          mixed_params, mesh60, geometry):
    """Every band of the xi-polynomial assembly equals the per-mode contraction
    of the mode's own table within 1e-14 of its largest entry, with its dtype:
    complex exactly where that mode's table has an imaginary part.  Band
    entries that point above the matrix stay zero.  With M.xi = 0 the
    metric's imaginary lanes sum to exact zeros, so its band is real while
    the magnetic band stays complex."""
    params = dataclasses.replace(mixed_params, **field)
    co = mr.FormCoefficients(canonical_profile, params, mesh60.nodes)
    mode = make_mode(*k, geometry)
    mm = assembly.assemble(co, mode)
    for name, want in per_mode_matrices(co, mode).items():
        got = getattr(mm, name)
        assert got.dtype == want.dtype, name
        assert np.max(np.abs(dense(got) - want)) <= 1e-14 * np.max(np.abs(want)), name
        assert not any(np.any(got[5 - k, :k]) for k in range(1, 6)), name
    if field == {}:
        assert np.iscomplexobj(mm.magnetic)
    if field == PERPENDICULAR and k == (1, -2):
        assert np.iscomplexobj(mm.magnetic) and not np.iscomplexobj(mm.coercivity_metric)


def test_kept_lanes_real_and_nonzero(coeffs60):
    """A mixed field's kept lanes are real rows, none all zero: a form with a
    skew part keeps its imaginary part as a second lane group, after the
    real part's, and every other form keeps one group."""
    forms = assembly.BandPolynomial(coeffs60,
                                    assembly.VERDICT_FORMS + ("coercivity_metric",))
    assert set(forms.kept) == set(assembly.FORMS)
    for name, groups in forms.kept.items():
        for rows, *_ in groups:
            assert rows.dtype == np.float64, name
            assert np.all(np.any(rows, axis=1)), name
        skew = name in ("magnetic", "coercivity_metric")
        assert len(groups) == (2 if skew else 1), name


@pytest.mark.parametrize("order", [1, 3, 6])
def test_element_tables_set_the_band_height(order, canonical_profile, mixed_params, mesh60,
                                            geometry):
    """The element tables are a partition of unity with slopes summing to
    exactly 0, and every band of a mode, the coercivity metric's own build
    included, has 3 rows per element node."""
    coeffs = mr.FormCoefficients(canonical_profile, mixed_params, mesh60.nodes,
                                 quadrature_order=order)
    nodes = len(coeffs.shape)
    assert coeffs.shape.shape == coeffs.slope.shape == (nodes, order)
    assert np.max(np.abs(coeffs.shape.sum(axis=0) - 1.0)) <= 2 * np.finfo(float).eps
    assert np.all(coeffs.slope.sum(axis=0) == 0.0)
    mm = assembly.assemble(coeffs, make_mode(1, -2, geometry))
    for name in assembly.FORMS:
        assert getattr(mm, name).shape[0] == 3 * nodes, name


MIXED_SCAN_INI = """
[geometry]
h_minus = -1.0
h_plus = 1.0

[equilibrium]
c2_plus = 1.0
c2_minus = 2.0
g = 1.0
rho_plus_interface = 2.0

[mhd]
m1 = 0.3
m2 = -0.2
m3 = 0.7

[numerics]
n_per_layer = 30
k_max = 1
"""


def test_metric_built_only_when_read(canonical_profile, mixed_params, geometry, tmp_path,
                                     monkeypatch):
    """The coercivity metric, which only coercivity_constant reads, is built
    on first read: global scans of a mixed and of a vertical field and a CLI
    scan contract none of its lanes, and two coercivity constants of one mode
    contract them once, in a polynomial of the mass and the metric alone."""
    asked, real = [], assembly._monomial_parts

    def recording(polynomial, name):
        asked.append(name)
        return real(polynomial, name)

    monkeypatch.setattr(assembly, "_monomial_parts", recording)
    mesh = assembly.build_mesh(geometry, n_per_layer=30)
    # M3 above the canonical profile's vertical threshold 2.27: every mode is stable
    vertical = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.0, 0.0, 2.4))
    for params in (mixed_params, vertical):
        spectral.global_scan(mr.FormCoefficients(canonical_profile, params, mesh.nodes), k_max=1)
    config = tmp_path / "mixed.ini"
    config.write_text(MIXED_SCAN_INI)
    assert cli.run(str(config), "scan", out=str(tmp_path / "scan.csv")) == 0
    assert "magnetic" in asked and "coercivity_metric" not in asked

    mm = assembly.assemble(mr.FormCoefficients(canonical_profile, vertical, mesh.nodes),
                           make_mode(1, 0, geometry))
    asked.clear()
    assert spectral.coercivity_constant(mm) == spectral.coercivity_constant(mm) > 0.0
    assert asked == ["mass", "coercivity_metric"]
    assert mm.coercivity_metric is mm.coercivity_metric


def test_mode_matrices_release_their_polynomial(coeffs60, geometry, monkeypatch):
    """assemble's BandPolynomial, with every verdict form's kept lanes, dies
    once its mode is assembled, while the mode lives; so does the polynomial
    that the mode's coercivity metric is built from on first read.  That
    metric has the bits of a polynomial that contracts every form at once."""
    built, real_band = [], assembly.BandPolynomial.band

    def recording(self, name, mode):
        built.append((name, weakref.ref(self)))
        return real_band(self, name, mode)

    monkeypatch.setattr(assembly.BandPolynomial, "band", recording)
    mode = make_mode(1, -2, geometry)
    mm = assembly.assemble(coeffs60, mode)
    assert [name for name, _ in built] == ["mass", *assembly.VERDICT_FORMS]
    assert mm.coeffs is coeffs60 and built[0][1]() is None
    metric = mm.coercivity_metric
    assert [name for name, _ in built[6:]] == ["mass", "coercivity_metric"]
    assert built[-1][1]() is None
    full = assembly.BandPolynomial(coeffs60, assembly.VERDICT_FORMS + ("coercivity_metric",)
                                   ).band("coercivity_metric", mode)
    assert metric.dtype == full.dtype
    assert metric.tobytes(order="A") == full.tobytes(order="A")


def test_metric_overflow_names_its_matrix_entry(canonical_profile, geometry, recwarn):
    """lambda = 1e-160 and M3 = 1e154 leave lambda*|M|^2 = 1e148, but the
    coercivity metric's field-directional matrix carries |M|^2 = 1e308
    under the coefficient 1, and its contraction overflows.  Reading the
    metric raises one InputError that names that entry, with no numpy
    warning before it."""
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1e-160, M=(0.0, 0.0, 1e154))
    mesh = assembly.build_mesh(geometry, n_per_layer=30)
    mm = assembly.assemble(mr.FormCoefficients(canonical_profile, params, mesh.nodes),
                           make_mode(1, 0, geometry))
    with pytest.raises(InputError, match=r"the coercivity_metric matrix's Frobenius norm "
                       r"overflows .* largest \|coefficient x matrix entry\| 1\.000e\+308 "
                       r"\(coefficient 1\)$"):
        spectral.coercivity_constant(mm)
    assert len(recwarn) == 0, [str(w.message) for w in recwarn]


def test_scan_builds_its_polynomial_once(canonical_profile, mixed_params, geometry, monkeypatch):
    """A k_max=2 scan of a mixed field (13 modes, no isotropy classes) builds the
    xi-independent part once, and Cholesky-checks the one mass matrix all its
    modes share once."""
    builds, factored, masses = [], [], []
    real_polynomial, real_cholesky, real_assemble = (assembly.form_polynomial, band.cholesky,
                                                     assembly.assemble)

    def polynomial(coeffs):
        builds.append(coeffs)
        return real_polynomial(coeffs)

    def cholesky(ab):
        factored.append(ab)
        return real_cholesky(ab)

    def assemble(forms, mode):
        mm = real_assemble(forms, mode)
        masses.append(mm.mass)
        return mm

    monkeypatch.setattr(assembly, "form_polynomial", polynomial)
    monkeypatch.setattr(band, "cholesky", cholesky)
    monkeypatch.setattr(spectral, "assemble", assemble)
    mesh = assembly.build_mesh(geometry, n_per_layer=30)
    verdict = spectral.global_scan(mr.FormCoefficients(canonical_profile, mixed_params,
                                                       mesh.nodes), k_max=2)
    assert len(verdict.verdicts) == 13 and not verdict.errors
    assert len(builds) == 1 and len(masses) == 13
    assert all(mass is masses[0] for mass in masses)
    assert sum(ab is masses[0] for ab in factored) == 1
