"""Variational solvers: discriminants, alpha, fixed points, scans."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import make_mode
from rtspectra import assembly, band, spectral
from rtspectra.equilibrium import Geometry, PressureLaw, build_profile
from rtspectra.errors import BracketError, EigenSolverError, IndefinitePencilError
from rtspectra.params import MHD, VISCOELASTIC, PhysicalParams

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


def test_xi_zero_gravity(geometry, mesh60):
    prof0 = build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 0.0, 2.0)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.0, 0.0, 1.0))
    mm = assembly.assemble(prof0, params, make_mode(1, 1, geometry), mesh60)
    value, _ = spectral.xi_per_mode(mm, MHD)
    assert abs(value) <= 1e-10


def test_xi_infinite_without_field(mm_nofield):
    value, vec = spectral.xi_per_mode(mm_nofield, MHD)
    assert math.isinf(value)
    # the certificate direction really has positive numerator
    num = float(np.real(np.vdot(vec, band.to_dense(mm_nofield.gravity) @ vec)))
    assert num > 0


def test_xi_zero_mode_vanishes(canonical_profile, baseline_params, mesh60, geometry):
    mm = assembly.assemble(canonical_profile, baseline_params, make_mode(0, 0, geometry), mesh60)
    value, _ = spectral.xi_per_mode(mm, MHD)
    assert abs(value) <= 1e-9


def test_xi_stable_vertical_field(mm_vertical):
    value, _ = spectral.xi_per_mode(mm_vertical, MHD)
    assert 0.0 < value < 1.0


def test_xi_scale_invariance(mm_vertical):
    value, vec = spectral.xi_per_mode(mm_vertical, MHD)
    scaled = dataclasses.replace(
        mm_vertical,
        mass=3.0 * mm_vertical.mass, gravity=3.0 * mm_vertical.gravity,
        compress=3.0 * mm_vertical.compress, magnetic=3.0 * mm_vertical.magnetic,
        elastic=3.0 * mm_vertical.elastic, dissipation=3.0 * mm_vertical.dissipation,
        coercivity_metric=3.0 * mm_vertical.coercivity_metric,
        _cache={},
    )
    value2, vec2 = spectral.xi_per_mode(scaled, MHD)
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


def test_xi_deflation_consistency(canonical_profile, mesh60, geometry):
    # horizontal field, mode with xi1 = 0 and no jump certificate: finite after deflation
    geo_swap = geometry
    prof_stable = build_profile(geo_swap, PressureLaw.linear(2.0), PressureLaw.linear(1.0),
                                1.0, 1.0)  # negative jump: kernel numerator nonpositive
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(1.0, 0.0, 0.0))
    mm = assembly.assemble(prof_stable, params, make_mode(0, 1, geo_swap), mesh60)
    v1, _ = spectral.xi_per_mode(mm, MHD, eps_null=1e-10)
    v2, _ = spectral.xi_per_mode(mm, MHD, eps_null=5e-11)
    assert math.isfinite(v1)
    assert v2 == pytest.approx(v1, rel=1e-9, abs=1e-12)


def test_xi_mode_symmetry(canonical_profile, mesh60, geometry):
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.0, 0.0, 2.5))
    vals = []
    for (k1, k2) in ((2, 1), (-2, -1)):
        mm = assembly.assemble(canonical_profile, params, make_mode(k1, k2, geometry), mesh60)
        vals.append(spectral.xi_per_mode(mm, MHD)[0])
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)


def test_alpha_monotone_nonincreasing(mm_nofield, mm_vertical, mm_viscoelastic_soft):
    grids = {
        MHD: (mm_nofield, mm_vertical),
        VISCOELASTIC: (mm_viscoelastic_soft,),
    }
    for medium, mats in grids.items():
        for mm in mats:
            svals = np.linspace(0.0, 2.0, 10)
            avals = [spectral.alpha(float(s), mm, medium)[0] for s in svals]
            assert np.all(np.diff(avals) <= 1e-10)


def test_alpha_negative_semidefinite_case(geometry, mesh60):
    # g = 0, M = 0, kappa = 0: A = -compress is negative semidefinite
    prof0 = build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 0.0, 2.0)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.0, 0.0, 0.0))
    mm = assembly.assemble(prof0, params, make_mode(1, 0, geometry), mesh60)
    a0, _ = spectral.alpha(0.0, mm, MHD)
    assert a0 <= 1e-12


def test_alpha_large_s_negative(mm_nofield):
    a0, _ = spectral.alpha(0.0, mm_nofield, MHD)
    assert a0 > 0
    dmin = sla.eigh(band.to_dense(mm_nofield.dissipation), band.to_dense(mm_nofield.mass),
                    eigvals_only=True)[0]
    s_big = 10.0 * a0 / dmin
    a_big, _ = spectral.alpha(s_big, mm_nofield, MHD)
    assert a_big < 0


def test_alpha_eigvec_residual(mm_nofield):
    for s in (0.0, 0.3, 1.1):
        val, v = spectral.alpha(s, mm_nofield, MHD)
        A = band.to_dense(mm_nofield.operator(MHD))
        D, M = band.to_dense(mm_nofield.dissipation), band.to_dense(mm_nofield.mass)
        res = np.linalg.norm((A - s * D) @ v - val * (M @ v))
        scale = (np.linalg.norm(A) + s * np.linalg.norm(D)) * np.linalg.norm(v)
        assert res <= 1e-8 * scale
        # normalized to the mass form
        assert np.real(np.vdot(v, M @ v)) == pytest.approx(1.0, rel=1e-10)


def test_growth_rate_stable_none(mm_vertical):
    assert spectral.growth_rate(mm_vertical, MHD) is None


def test_growth_rate_fixed_point(mm_nofield):
    lam, vec, res = spectral.growth_rate_detailed(mm_nofield, MHD, tol=1e-8)
    assert lam is not None and lam > 0
    assert res <= 1e-8 * max(1.0, lam * lam)
    a, _ = spectral.alpha(lam, mm_nofield, MHD)
    assert abs(a - lam * lam) <= 1e-8 * max(1.0, lam * lam)


def test_growth_rate_decreases_with_dissipation(canonical_profile, mesh60, geometry,
                                                mm_nofield):
    lam1 = spectral.growth_rate(mm_nofield, MHD)
    doubled = PhysicalParams(mu_plus=0.2, mu_minus=0.2, bulk_plus=0.2, bulk_minus=0.2,
                             lam=1.0, M=(0.0, 0.0, 0.0))
    mm2 = assembly.assemble(canonical_profile, doubled, make_mode(1, 0, geometry), mesh60)
    lam2 = spectral.growth_rate(mm2, MHD)
    assert lam2 < lam1


def test_growth_rate_viscoelastic(mm_viscoelastic_soft):
    xi, _ = spectral.xi_per_mode(mm_viscoelastic_soft, VISCOELASTIC)
    assert xi > 1.0
    lam = spectral.growth_rate(mm_viscoelastic_soft, VISCOELASTIC)
    assert lam is not None and lam > 0


def test_coercivity_positive_when_stable(mm_vertical):
    c = spectral.coercivity_constant(mm_vertical)
    assert c > 0


def test_coercivity_indefinite_when_unstable(mm_nofield):
    with pytest.raises(IndefinitePencilError):
        spectral.coercivity_constant(mm_nofield)


def test_mode_lattice_shape():
    modes = spectral.mode_lattice(2)
    assert (0, 0) in modes and (0, 2) in modes and (2, -2) in modes
    assert (-1, 0) not in modes
    assert len(modes) == 3 + 2 * 5


def test_global_scan_stable(canonical_profile, geometry):
    mesh = assembly.build_mesh(geometry, n_per_layer=40)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            lam=1.0, M=(0.0, 0.0, M3_STABLE))
    verdict = spectral.global_scan(canonical_profile, params, mesh, k_max=2, medium=MHD)
    assert not verdict.errors
    assert verdict.global_xi < 1.0
    assert verdict.global_lambda is None
    assert verdict.truncation_converged
    zero = [v for v in verdict.verdicts if v.mode.is_zero()][0]
    assert abs(zero.xi_value) <= 1e-9


def test_global_scan_unstable_flags(canonical_profile, baseline_params, geometry):
    mesh = assembly.build_mesh(geometry, n_per_layer=40)
    verdict = spectral.global_scan(canonical_profile, baseline_params, mesh,
                                   k_max=1, medium=MHD)
    assert math.isinf(verdict.global_xi)
    assert verdict.global_lambda > 0
    assert not verdict.truncation_converged
    for v in verdict.verdicts:
        assert (v.lambda_value is not None) == (v.alpha0 > 0)


def test_global_scan_threads_match(canonical_profile, geometry):
    mesh = assembly.build_mesh(geometry, n_per_layer=30)
    # a stable vertical field, and a weak mixed field with unstable modes
    for M, unstable in (((0.0, 0.0, 2.5), 0), ((0.05, -0.03, 0.1), 4)):
        params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=M)
        v1 = spectral.global_scan(canonical_profile, params, mesh, 1, MHD)
        v2 = spectral.global_scan(canonical_profile, params, mesh, 1, MHD, threads=3)
        rows1 = [(v.xi_value, v.alpha0, v.lambda_value) for v in v1.verdicts]
        rows2 = [(v.xi_value, v.alpha0, v.lambda_value) for v in v2.verdicts]
        assert len(rows1) == 5 and rows1 == rows2
        assert sum(lam is not None for _, _, lam in rows1) == unstable


@pytest.mark.parametrize("threads", [1, 2])
def test_global_scan_propagates_programming_errors(canonical_profile, baseline_params,
                                                   geometry, monkeypatch, threads):
    real = spectral.analyze_mode

    def broken(matrices, *args, **kwargs):
        if (matrices.mode.k1, matrices.mode.k2) == (1, 0):
            raise TypeError("broken mode solver")
        return real(matrices, *args, **kwargs)

    monkeypatch.setattr(spectral, "analyze_mode", broken)
    mesh = assembly.build_mesh(geometry, n_per_layer=20)
    with pytest.raises(TypeError, match="broken mode solver"):
        spectral.global_scan(canonical_profile, baseline_params, mesh, 1, MHD, threads=threads)


def test_global_scan_collects_solver_errors(canonical_profile, geometry, monkeypatch):
    real = spectral.analyze_mode

    def failing(matrices, *args, **kwargs):
        if (matrices.mode.k1, matrices.mode.k2) == (1, 1):
            raise EigenSolverError("no convergence")
        return real(matrices, *args, **kwargs)

    monkeypatch.setattr(spectral, "analyze_mode", failing)
    mesh = assembly.build_mesh(geometry, n_per_layer=20)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.0, 0.0, M3_STABLE))
    verdict = spectral.global_scan(canonical_profile, params, mesh, 1, MHD)
    assert verdict.errors == {(1, 1): "EigenSolverError: no convergence"}
    assert len(verdict.verdicts) == 4
    assert not verdict.truncation_converged


def test_alpha_on_graded_mesh_near_floor(canonical_profile, baseline_params, geometry):
    """Smallest element 2.9e-9 of a layer: alpha matches values recorded with
    a dense Cholesky-reduction solver and element-wise polished quotients."""
    mesh = assembly.build_mesh(geometry, 200, grading=1.09)
    assert np.min(np.diff(mesh.nodes)) == pytest.approx(2.944e-9, rel=1e-3)
    mm = assembly.assemble(canonical_profile, baseline_params, make_mode(1, 0, geometry), mesh)
    for s, recorded in ((0.0, 0.23525264299814733), (0.4, -0.06240307581947192)):
        value, _ = spectral.alpha(s, mm, MHD)
        assert abs(value - recorded) <= 1e-12 * max(1.0, abs(recorded))


def test_bracket_error_message(mm_vertical):
    with pytest.raises(ValueError):
        spectral.growth_rate(mm_vertical, MHD, tol=-1.0)


def test_alpha_zero_solved_once(mm_nofield, monkeypatch):
    """analyze_mode hands its alpha(0) to the fixed point instead of solving it twice."""
    real, calls = spectral.alpha, []

    def counting(s, *args, **kwargs):
        calls.append(s)
        return real(s, *args, **kwargs)

    monkeypatch.setattr(spectral, "alpha", counting)
    verdict = spectral.analyze_mode(mm_nofield, MHD)
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
    verdict = spectral.analyze_mode(mm, MHD)
    if m3 > 0.0:
        assert 0.0 < verdict.xi_value < 1.0 and verdict.lambda_value is None
    else:
        assert math.isinf(verdict.xi_value) and verdict.lambda_value > 0.0
        assert verdict.residual <= 1e-8 * max(1.0, verdict.lambda_value ** 2)
