"""Variational solvers: discriminants, alpha, fixed points, scans."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import make_mode
from rtspectra import assembly, band, evolution, modereduce, spectral
from rtspectra.equilibrium import Geometry, PressureLaw, build_profile
from rtspectra.errors import EigenSolverError, IndefinitePencilError
from rtspectra.modereduce import FormCoefficients
from rtspectra.params import VISCOELASTIC, PhysicalParams

M3_STABLE = 1.05 * 2.2677017880818765   # 1.05x the canonical vertical threshold


@pytest.fixture(scope="module")
def mm_nofield(canonical_profile, baseline_params, mesh60, geometry):
    return assembly.assemble(canonical_profile, baseline_params,
                             make_mode(1, 0, geometry), mesh60)


@pytest.fixture(scope="module")
def mm_vertical(canonical_profile, mesh60, geometry):
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            lam=1.0, M=(0.0, 0.0, M3_STABLE))
    return assembly.assemble(canonical_profile, params, make_mode(1, 0, geometry), mesh60)


@pytest.fixture(scope="module")
def mm_viscoelastic_soft(canonical_profile, mesh60, geometry):
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, kappa_plus=0.01, kappa_minus=0.01,
                            medium=VISCOELASTIC)
    return assembly.assemble(canonical_profile, params, make_mode(1, 0, geometry), mesh60)


@pytest.fixture(scope="module")
def stable_profile(geometry):
    """The canonical laws swapped: a negative density jump, RT-stable."""
    return build_profile(geometry, PressureLaw.linear(2.0), PressureLaw.linear(1.0), 1.0, 1.0)


def _assert_dichotomy(verdict):
    """The paper's dichotomy per mode: alpha(0) > 0 exactly when xi > 1, for
    every solved nonzero mode whose xi is not within 1e-6 of 1."""
    for v in verdict.verdicts:
        if not v.mode.is_zero() and abs(v.xi_value - 1.0) > 1e-6:
            assert (v.alpha0 > 0.0) == (v.xi_value > 1.0), (v.mode, v.xi_value, v.alpha0)


@pytest.mark.parametrize("M", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)], ids=["vertical", "horizontal"])
def test_xi_zero_gravity(geometry, mesh60, M):
    prof0 = build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 0.0, 2.0)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=M)
    mm = assembly.assemble(prof0, params, make_mode(1, 1, geometry), mesh60)
    value, _ = spectral.xi_per_mode(mm)
    assert value == 0.0


def test_xi_infinite_without_field(mm_nofield):
    value, vec = spectral.xi_per_mode(mm_nofield)
    assert math.isinf(value)
    # the certificate direction really has positive numerator
    num = float(np.real(np.vdot(vec, band.to_dense(mm_nofield.gravity) @ vec)))
    assert num > 0


def test_xi_zero_mode_vanishes(canonical_profile, baseline_params, mesh60, geometry):
    mm = assembly.assemble(canonical_profile, baseline_params, make_mode(0, 0, geometry), mesh60)
    value, _ = spectral.xi_per_mode(mm)
    assert value == 0.0


def test_xi_stable_vertical_field(mm_vertical):
    value, _ = spectral.xi_per_mode(mm_vertical)
    assert 0.0 < value < 1.0


def test_xi_scale_invariance(mm_vertical):
    value, vec = spectral.xi_per_mode(mm_vertical)
    scaled = dataclasses.replace(
        mm_vertical,
        mass=3.0 * mm_vertical.mass, gravity=3.0 * mm_vertical.gravity,
        compress=3.0 * mm_vertical.compress, magnetic=3.0 * mm_vertical.magnetic,
        elastic=3.0 * mm_vertical.elastic, dissipation=3.0 * mm_vertical.dissipation,
        coercivity_metric=3.0 * mm_vertical.coercivity_metric,
    )
    value2, vec2 = spectral.xi_per_mode(scaled)
    assert value2 == pytest.approx(value, rel=1e-12)
    cosangle = abs(np.vdot(vec, vec2)) / (np.linalg.norm(vec) * np.linalg.norm(vec2))
    assert cosangle == pytest.approx(1.0, abs=1e-9)


def _random_band(rng, n, p, complex_valued):
    """Upper band storage of a random Hermitian matrix of half-bandwidth p."""
    ab = rng.standard_normal((p + 1, n))
    if complex_valued:
        ab = ab + 1j * rng.standard_normal((p + 1, n))
        ab[p] = ab[p].real
    for k in range(1, p + 1):
        ab[p - k, :k] = 0.0
    return ab


def test_top_pair_banded_pencils(rng):
    """The banded solver matches dense eigh on random banded Hermitian pencils."""
    n = 120
    for p in (1, 5):
        for complex_valued in (False, True):
            hb = _random_band(rng, n, p, complex_valued)
            mb = _random_band(rng, n, p, complex_valued)
            mb[p] += 8.0 * (2 * p + 1)      # diagonally dominant: definite
            H, M = band.to_dense(hb), band.to_dense(mb)
            w = sla.eigh(H, M, eigvals_only=True)
            top, v = spectral._top_pair(hb, mb)
            assert top == pytest.approx(w[-1], rel=1e-10)
            assert np.real(np.vdot(v, M @ v)) == pytest.approx(1.0, rel=1e-12)
            residual = np.linalg.norm(H @ v - top * (M @ v))
            assert residual <= 1e-10 * np.linalg.norm(H) * np.linalg.norm(v)
            top2, v2 = spectral._top_pair(hb, mb)
            assert top2 == top and np.array_equal(v2, v)


def _restricted_dense_xi(mm):
    """Top of (P^T N P, P^T B P), P the per-node (longitudinal, psi) basis:
    the mhd discriminant with the transverse horizontal component removed."""
    xi1, xi2 = mm.mode.xi1, mm.mode.xi2
    nodes = mm.n_dof // 3
    local = np.array([[xi1, 0.0], [xi2, 0.0], [0.0, 1.0]]) / [[math.hypot(xi1, xi2), 1.0]]
    P = np.kron(np.eye(nodes), local)
    N, B = (band.to_dense(X) for X in (mm.gravity, mm.compress + mm.magnetic))
    return sla.eigh(P.T @ N @ P, P.T @ B @ P, eigvals_only=True)[-1]


def test_xi_restricted_dense_reference(stable_profile, mesh60, geometry):
    """A horizontal field orthogonal to the mode on the stable profile: the
    transverse component is in the kernel of both forms and no div-free
    certificate exists.  The banded value is the restricted dense one."""
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(1.0, 0.0, 0.0))
    mode = make_mode(0, 1, geometry)
    value, _ = spectral.xi_per_mode(assembly.assemble(stable_profile, params, mode, mesh60))
    assert abs(value - 0.7380293829795882) <= 1e-9
    for n in (100, 200):
        mm = assembly.assemble(stable_profile, params, mode, assembly.build_mesh(geometry, n))
        value, _ = spectral.xi_per_mode(mm)
        assert value == pytest.approx(_restricted_dense_xi(mm), rel=1e-9)


def test_xi_rounded_orthogonal_field(canonical_profile, stable_profile, geometry):
    """M . xi = 0.3*2 - 0.2*3 rounds to -1.1e-16 and still counts as zero."""
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.3, -0.2, 0.0))
    mode = make_mode(2, 3, geometry)
    assert params.M[0] * mode.xi1 + params.M[1] * mode.xi2 != 0.0
    for n in (30, 60):
        mm = assembly.assemble(canonical_profile, params, mode, assembly.build_mesh(geometry, n))
        assert math.isinf(spectral.xi_per_mode(mm)[0])
    mm = assembly.assemble(stable_profile, params, mode, assembly.build_mesh(geometry, 100))
    value, _ = spectral.xi_per_mode(mm)
    assert value == pytest.approx(_restricted_dense_xi(mm), rel=1e-9)
    assert value == pytest.approx(0.95300952456, abs=1e-10)


def test_xi_viscoelastic_zero_kappa(canonical_profile, geometry):
    """kappa = 0 in one layer leaves a singular denominator: a typed error.
    kappa = 0 in both makes it vanish: inf where gravity drives, 0 at xi = 0."""
    mesh = assembly.build_mesh(geometry, 30)

    def xi(kappa, k):
        params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, kappa_plus=kappa[0],
                                kappa_minus=kappa[1], medium=VISCOELASTIC)
        mm = assembly.assemble(canonical_profile, params, make_mode(*k, geometry), mesh)
        return spectral.xi_per_mode(mm)[0]

    with pytest.raises(EigenSolverError, match="singular denominator"):
        xi((0.0, 0.3), (1, 0))
    assert math.isinf(xi((0.0, 0.0), (1, 0)))
    assert xi((0.0, 0.0), (0, 0)) == 0.0


def test_xi_mode_symmetry(canonical_profile, mesh60, geometry):
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.0, 0.0, 2.5))
    vals = []
    for (k1, k2) in ((2, 1), (-2, -1)):
        mm = assembly.assemble(canonical_profile, params, make_mode(k1, k2, geometry), mesh60)
        vals.append(spectral.xi_per_mode(mm)[0])
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)


def test_alpha_monotone_nonincreasing(mm_nofield, mm_vertical, mm_viscoelastic_soft):
    for mm in (mm_nofield, mm_vertical, mm_viscoelastic_soft):
        svals = np.linspace(0.0, 2.0, 10)
        avals = [spectral.alpha(float(s), mm)[0] for s in svals]
        assert np.all(np.diff(avals) <= 1e-10)


def test_alpha_negative_semidefinite_case(geometry, mesh60):
    # g = 0, M = 0, kappa = 0: A = -compress is negative semidefinite
    prof0 = build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 0.0, 2.0)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.0, 0.0, 0.0))
    mm = assembly.assemble(prof0, params, make_mode(1, 0, geometry), mesh60)
    a0, _ = spectral.alpha(0.0, mm)
    assert a0 <= 1e-12


def test_alpha_large_s_negative(mm_nofield):
    a0, _ = spectral.alpha(0.0, mm_nofield)
    assert a0 > 0
    dmin = sla.eigh(band.to_dense(mm_nofield.dissipation), band.to_dense(mm_nofield.mass),
                    eigvals_only=True)[0]
    s_big = 10.0 * a0 / dmin
    a_big, _ = spectral.alpha(s_big, mm_nofield)
    assert a_big < 0


def test_alpha_eigvec_residual(mm_nofield):
    for s in (0.0, 0.3, 1.1):
        val, v = spectral.alpha(s, mm_nofield)
        A = band.to_dense(mm_nofield.operator)
        D, M = band.to_dense(mm_nofield.dissipation), band.to_dense(mm_nofield.mass)
        res = np.linalg.norm((A - s * D) @ v - val * (M @ v))
        scale = (np.linalg.norm(A) + s * np.linalg.norm(D)) * np.linalg.norm(v)
        assert res <= 1e-8 * scale
        # normalized to the mass form
        assert np.real(np.vdot(v, M @ v)) == pytest.approx(1.0, rel=1e-10)


def test_growth_rate_stable_none(mm_vertical):
    assert spectral.growth_rate(mm_vertical) is None


def test_growth_rate_fixed_point(mm_nofield):
    lam, vec, res = spectral.growth_rate_detailed(mm_nofield, tol=1e-8)
    assert lam is not None and lam > 0
    assert res <= 1e-8 * max(1.0, lam * lam)
    a, _ = spectral.alpha(lam, mm_nofield)
    assert abs(a - lam * lam) <= 1e-8 * max(1.0, lam * lam)


def test_growth_rate_decreases_with_dissipation(canonical_profile, mesh60, geometry,
                                                mm_nofield):
    lam1 = spectral.growth_rate(mm_nofield)
    doubled = PhysicalParams(mu_plus=0.2, mu_minus=0.2, bulk_plus=0.2, bulk_minus=0.2,
                             lam=1.0, M=(0.0, 0.0, 0.0))
    mm2 = assembly.assemble(canonical_profile, doubled, make_mode(1, 0, geometry), mesh60)
    lam2 = spectral.growth_rate(mm2)
    assert lam2 < lam1


def test_growth_rate_viscoelastic(mm_viscoelastic_soft):
    xi, _ = spectral.xi_per_mode(mm_viscoelastic_soft)
    assert xi > 1.0
    lam = spectral.growth_rate(mm_viscoelastic_soft)
    assert lam is not None and lam > 0


def test_coercivity_positive_when_stable(mm_vertical):
    c = spectral.coercivity_constant(mm_vertical)
    assert c > 0


def test_coercivity_indefinite_when_unstable(mm_nofield):
    with pytest.raises(IndefinitePencilError):
        spectral.coercivity_constant(mm_nofield)


def test_stiff_viscoelastic_mode_reads_its_medium(canonical_profile, mesh60, geometry):
    """kappa = 0.55 above the elastic threshold 0.5: mode (1,0) is stable, and
    the solvers see elasticity from the params alone.  Solved as an unfielded
    mhd mode it would be unstable (coercivity fails, the trajectory grows)."""
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            kappa_plus=0.55, kappa_minus=0.55, medium=VISCOELASTIC)
    mm = assembly.assemble(canonical_profile, params, make_mode(1, 0, geometry), mesh60)
    eta0, u0 = evolution.random_initial_data(mm, seed=1)
    result = evolution.integrate_linearized(mm, eta0, u0, 1e-2, 20.0)
    assert result.fitted_rate < 0.0
    assert result.energy_balance_residual <= 1e-12
    assert spectral.coercivity_constant(mm) > 0.0
    assert spectral.xi_per_mode(mm)[0] < 1.0


def test_no_solver_takes_a_medium():
    """The medium comes from PhysicalParams.medium only: no public function or
    method of the solver layers has a ``medium`` parameter."""
    checked = []
    for mod in (spectral, evolution, assembly, modereduce):
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                checked.append(obj)
            elif inspect.isclass(obj):
                checked += [fn for attr, fn in vars(obj).items() if inspect.isfunction(fn)
                            and (attr == "__init__" or not attr.startswith("_"))]
    assert spectral.alpha in checked and assembly.ModeMatrices.tilde_vector in checked
    for fn in checked:
        assert "medium" not in inspect.signature(fn).parameters, fn.__qualname__


def test_mode_lattice_shape():
    modes = spectral.mode_lattice(2)
    assert (0, 0) in modes and (0, 2) in modes and (2, -2) in modes
    assert (-1, 0) not in modes
    assert len(modes) == 3 + 2 * 5


def test_global_scan_stable(canonical_profile, geometry):
    mesh = assembly.build_mesh(geometry, n_per_layer=40)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            lam=1.0, M=(0.0, 0.0, M3_STABLE))
    verdict = spectral.global_scan(canonical_profile, params, mesh, k_max=2)
    assert not verdict.errors
    assert verdict.global_xi < 1.0
    assert verdict.global_lambda is None
    assert verdict.truncation_converged
    zero = [v for v in verdict.verdicts if v.mode.is_zero()][0]
    assert abs(zero.xi_value) <= 1e-9
    _assert_dichotomy(verdict)


def test_global_scan_unstable_flags(canonical_profile, baseline_params, geometry):
    mesh = assembly.build_mesh(geometry, n_per_layer=40)
    verdict = spectral.global_scan(canonical_profile, baseline_params, mesh,
                                   k_max=1)
    assert math.isinf(verdict.global_xi)
    assert verdict.global_lambda > 0
    assert not verdict.truncation_converged
    for v in verdict.verdicts:
        assert (v.lambda_value is not None) == (v.alpha0 > 0)
    _assert_dichotomy(verdict)


def test_global_scan_threads_match(canonical_profile, geometry):
    """A weak mixed field: four of the five modes of k_max=1 are unstable."""
    mesh = assembly.build_mesh(geometry, n_per_layer=30)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.05, -0.03, 0.1))
    verdict = spectral.global_scan(canonical_profile, params, mesh, 1)
    assert len(verdict.verdicts) == 5 and not verdict.errors
    assert sum(v.lambda_value is not None for v in verdict.verdicts) == 4
    _assert_dichotomy(verdict)


@pytest.mark.parametrize("k_max", [1, 2])
def test_global_scan_propagates_programming_errors(canonical_profile, baseline_params,
                                                   geometry, monkeypatch, k_max):
    real = spectral.analyze_mode

    def broken(matrices, *args, **kwargs):
        if matrices.mode.norm2 == 1.0:
            raise TypeError("broken mode solver")
        return real(matrices, *args, **kwargs)

    monkeypatch.setattr(spectral, "analyze_mode", broken)
    mesh = assembly.build_mesh(geometry, n_per_layer=20)
    # the class {(0,1), (1,0)} is solved second; at k_max = 2 four classes follow it
    with pytest.raises(TypeError, match="broken mode solver"):
        spectral.global_scan(canonical_profile, baseline_params, mesh, k_max)


# (base field, failing modes, expected errors, verdicts): a mixed field solves
# (1,1) alone; a vertical field solves the class {(1,-1), (1,1)} once, at (1,-1)
FAILING_SCANS = {
    "mixed": ((0.05, -0.03, 0.1), lambda mode: (mode.k1, mode.k2) == (1, 1), [(1, 1)], 4),
    "isotropic": ((0.0, 0.0, M3_STABLE), lambda mode: mode.norm2 == 2.0, [(1, -1), (1, 1)], 3),
}


@pytest.mark.parametrize("field", sorted(FAILING_SCANS))
def test_global_scan_collects_solver_errors(canonical_profile, geometry, monkeypatch, field):
    M, fails, failed, n_verdicts = FAILING_SCANS[field]
    real = spectral.analyze_mode

    def failing(matrices, *args, **kwargs):
        if fails(matrices.mode):
            raise EigenSolverError("no convergence")
        return real(matrices, *args, **kwargs)

    monkeypatch.setattr(spectral, "analyze_mode", failing)
    mesh = assembly.build_mesh(geometry, n_per_layer=20)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=M)
    verdict = spectral.global_scan(canonical_profile, params, mesh, 1)
    assert verdict.errors == {k: "EigenSolverError: no convergence" for k in failed}
    assert len(verdict.verdicts) == n_verdicts
    assert not verdict.truncation_converged


VISCOUS = dict(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1)
SCAN_FIELDS = {
    "no_field": dict(VISCOUS, lam=1.0),
    "weak_vertical": dict(VISCOUS, lam=1.0, M=(0.0, 0.0, 0.02)),
    "stable_vertical": dict(VISCOUS, lam=1.0, M=(0.0, 0.0, M3_STABLE)),
    "ve_soft": dict(VISCOUS, kappa_plus=0.01, kappa_minus=0.01, medium=VISCOELASTIC),
    "ve_soft_field": dict(VISCOUS, kappa_plus=0.01, kappa_minus=0.01, M=(0.5, 0.3, 0.2),
                          medium=VISCOELASTIC),
    "ve_stiff": dict(VISCOUS, kappa_plus=0.55, kappa_minus=0.55, medium=VISCOELASTIC),
    "mixed": dict(VISCOUS, lam=1.0, M=(0.05, -0.03, 0.1)),
}


def _agrees(value, reference, rel):
    if value is None or reference is None or math.isinf(reference):
        return value == reference
    return abs(value - reference) <= rel * max(1.0, abs(reference))


@pytest.mark.parametrize("L2", [1.0, 1.7])
@pytest.mark.parametrize("field", list(SCAN_FIELDS))
def test_global_scan_isotropic_classes(monkeypatch, field, L2):
    """A rotation-invariant field solves one mode per |xi|^2 class of k_max = 2
    (6 of 13 at L2 = 1, 9 at L2 = 1.7), and every member agrees with
    analyze_mode on its own matrices; a mixed field solves all 13 modes and
    agrees bit for bit."""
    geometry = Geometry(h_minus=-1.0, h_plus=1.0, L1=1.0, L2=L2)
    profile = build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0),
                            g=1.0, rho_plus_at_interface=2.0)
    mesh = assembly.build_mesh(geometry, n_per_layer=60)
    params = PhysicalParams(**SCAN_FIELDS[field])
    real, solved = spectral.analyze_mode, []

    def counting(matrices, *args, **kwargs):
        solved.append(matrices.mode)
        return real(matrices, *args, **kwargs)

    monkeypatch.setattr(spectral, "analyze_mode", counting)
    verdict = spectral.global_scan(profile, params, mesh, k_max=2)
    assert len(verdict.verdicts) == 13 and not verdict.errors
    isotropic = field != "mixed"
    assert len(solved) == ({1.0: 6, 1.7: 9}[L2] if isotropic else 13)
    _assert_dichotomy(verdict)

    xi_rel, rel = (1e-8, 1e-12) if isotropic else (0.0, 0.0)
    coeffs = FormCoefficients(profile, params, mesh.nodes)
    for v in verdict.verdicts:
        mm = assembly.assemble(profile, params, v.mode, mesh, coeffs=coeffs)
        ref = real(mm)
        assert _agrees(v.xi_value, ref.xi_value, xi_rel), (v.mode, v.xi_value, ref.xi_value)
        for name in ("alpha0", "lambda_value", "residual"):
            assert _agrees(getattr(v, name), getattr(ref, name), rel), (v.mode, name)


@pytest.mark.parametrize("field", list(SCAN_FIELDS))
def test_xi_inertia_certificate(canonical_profile, geometry, field):
    """Sylvester's law of inertia, independent of the eigensolver: for a
    positive definite denominator B, B - N is positive definite exactly when
    xi < 1.  Checked on every k_max = 2 mode with a finite xi not within 1e-6
    of 1; without a field B vanishes on divergence-free fields and never
    factors."""
    mesh = assembly.build_mesh(geometry, n_per_layer=60)
    params = PhysicalParams(**SCAN_FIELDS[field])
    coeffs = FormCoefficients(canonical_profile, params, mesh.nodes)
    checked = 0
    for k in spectral.mode_lattice(2):
        mm = assembly.assemble(canonical_profile, params, make_mode(*k, geometry), mesh,
                               coeffs=coeffs)
        N, B = mm.discriminant_pencil
        if band.cholesky(B) is None:
            continue
        xi, _ = spectral.xi_per_mode(mm)
        if math.isfinite(xi) and abs(xi - 1.0) > 1e-6:
            checked += 1
            assert (band.cholesky(B - N) is not None) == (xi < 1.0), (k, xi)
    assert checked == (0 if field == "no_field" else 13)


def test_alpha_on_graded_mesh_near_floor(canonical_profile, baseline_params, geometry):
    """Smallest element 2.9e-9 of a layer: alpha matches values recorded with
    a dense Cholesky-reduction solver and element-wise polished quotients."""
    mesh = assembly.build_mesh(geometry, 200, grading=1.09)
    assert np.min(np.diff(mesh.nodes)) == pytest.approx(2.944e-9, rel=1e-3)
    mm = assembly.assemble(canonical_profile, baseline_params, make_mode(1, 0, geometry), mesh)
    for s, recorded in ((0.0, 0.23525264299814733), (0.4, -0.06240307581947192)):
        value, _ = spectral.alpha(s, mm)
        assert abs(value - recorded) <= 1e-12 * max(1.0, abs(recorded))


def test_bracket_error_message(mm_vertical):
    with pytest.raises(ValueError):
        spectral.growth_rate(mm_vertical, tol=-1.0)


def test_alpha_zero_solved_once(mm_nofield, monkeypatch):
    """analyze_mode hands its alpha(0) to the fixed point instead of solving it twice."""
    real, calls = spectral.alpha, []

    def counting(s, *args, **kwargs):
        calls.append(s)
        return real(s, *args, **kwargs)

    monkeypatch.setattr(spectral, "alpha", counting)
    verdict = spectral.analyze_mode(mm_nofield)
    assert verdict.lambda_value is not None and verdict.lambda_value > 0
    assert calls.count(0.0) == 1


@pytest.mark.parametrize("m3", [M3_STABLE, 0.0])
def test_analyze_mode_fine_mesh(canonical_profile, geometry, m3):
    """At n_per_layer=2000 (11,997 unknowns) the band matrices take 4 MB; dense
    storage of the seven forms would take about 8 GB."""
    mesh = assembly.build_mesh(geometry, n_per_layer=2000)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            lam=1.0, M=(0.0, 0.0, m3))
    mm = assembly.assemble(canonical_profile, params, make_mode(1, 0, geometry), mesh)
    assert mm.n_dof == 11997
    names = ("mass", "gravity", "compress", "magnetic", "elastic", "dissipation",
             "coercivity_metric")
    assert sum(getattr(mm, name).nbytes for name in names) < 10 * 2 ** 20
    verdict = spectral.analyze_mode(mm)
    if m3 > 0.0:
        assert 0.0 < verdict.xi_value < 1.0 and verdict.lambda_value is None
    else:
        assert math.isinf(verdict.xi_value) and verdict.lambda_value > 0.0
        assert verdict.residual <= 1e-8 * max(1.0, verdict.lambda_value ** 2)


def test_scan_builds_no_dense_matrix(canonical_profile, stable_profile, geometry, monkeypatch):
    """Every scan path stays in band storage: dense conversion and dense
    eigensolves raise, and four fields with singular and definite
    denominators still scan without a failed mode."""
    def dense(*args, **kwargs):
        raise AssertionError("dense matrix built on the main path")

    monkeypatch.setattr(band, "to_dense", dense)
    monkeypatch.setattr(spectral.sla, "eigh", dense)
    mesh = assembly.build_mesh(geometry, n_per_layer=30)
    visc = dict(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1)
    for profile, params in (
        (canonical_profile, PhysicalParams(**visc, lam=1.0, M=(0.0, 0.0, M3_STABLE))),
        (stable_profile, PhysicalParams(**visc, lam=1.0, M=(1.0, 0.0, 0.0))),
        (canonical_profile, PhysicalParams(**visc, lam=1.0, M=(0.0, 0.0, 0.0))),
        (canonical_profile, PhysicalParams(**visc, kappa_plus=0.01, kappa_minus=0.01,
                                           medium=VISCOELASTIC)),
    ):
        verdict = spectral.global_scan(profile, params, mesh, k_max=2)
        assert len(verdict.verdicts) == 13 and not verdict.errors
        _assert_dichotomy(verdict)
