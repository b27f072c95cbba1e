"""Variational solvers: discriminants, alpha, fixed points, scans."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import make_mode, run_python
from oracles import dense, p1_eval, p1_slope
from rtspectra import assembly, band, criteria, evolution, modereduce, spectral
from rtspectra.equilibrium import Geometry, PressureLaw, build_profile
from rtspectra.errors import InputError, SolverError
from rtspectra.modereduce import FormCoefficients
from rtspectra.params import VISCOELASTIC, PhysicalParams

M3_STABLE = 1.05 * 2.2677017880818765   # 1.05x the canonical vertical threshold


@pytest.fixture(scope="module")
def mm_nofield(canonical_profile, baseline_params, mesh60, geometry):
    return assembly.assemble(FormCoefficients(canonical_profile, baseline_params, mesh60.nodes),
                             make_mode(1, 0, geometry))


@pytest.fixture(scope="module")
def mm_vertical(canonical_profile, mesh60, geometry):
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            lam=1.0, M=(0.0, 0.0, M3_STABLE))
    return assembly.assemble(FormCoefficients(canonical_profile, params, mesh60.nodes),
                             make_mode(1, 0, geometry))


@pytest.fixture(scope="module")
def mm_viscoelastic_soft(canonical_profile, mesh60, geometry):
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, kappa_plus=0.01, kappa_minus=0.01,
                            medium=VISCOELASTIC)
    return assembly.assemble(FormCoefficients(canonical_profile, params, mesh60.nodes),
                             make_mode(1, 0, geometry))


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
    mm = assembly.assemble(FormCoefficients(prof0, params, mesh60.nodes),
                           make_mode(1, 1, geometry))
    value, _ = spectral.xi_per_mode(mm)
    assert value == 0.0


def test_xi_infinite_without_field(mm_nofield):
    """No field and [[rho]] > 0: inf from the model, with no vector.  The
    divergence-free certificate it rests on is the small-field witness,
    whose energy is its gravity numerator."""
    value, vec = spectral.xi_per_mode(mm_nofield)
    assert math.isinf(value) and vec is None
    co = mm_nofield.coeffs
    assert criteria.small_field_witness(co.profile, co.params, 0.1).energy_value > 0.0


@pytest.mark.parametrize("M, transverse", [((0.0, 0.0, 0.0), 4), ((1.0, 0.0, 0.0), 1)],
                         ids=["no_field", "horizontal"])
def test_xi_infinite_on_asymmetric_layers(M, transverse):
    """Layers of heights 0.5 and 2, periods 1.7 and 0.6, [[rho]] = 0.25 on the
    default mesh, whose two elements at 0 differ 4x in size: every nonzero
    mode of a k_max = 1 scan with M . xi = 0 has xi = inf and grows."""
    geometry = Geometry(h_minus=-0.5, h_plus=2.0, L1=1.7, L2=0.6)
    profile = build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0), 0.5, 0.5)
    assert profile.density_jump == pytest.approx(0.25, rel=1e-12)
    coeffs = FormCoefficients(profile, PhysicalParams(lam=1.0, M=M),
                              assembly.build_mesh(geometry).nodes)
    verdict = spectral.global_scan(coeffs, k_max=1)
    assert not verdict.errors
    driven = [v for v in verdict.verdicts if not v.mode.is_zero() and M[0] * v.mode.xi1 == 0.0]
    assert len(driven) == transverse
    for v in driven:
        assert math.isinf(v.xi_value) and v.lambda_value > 0.0, (v.mode, v.xi_value)


def test_xi_zero_mode_vanishes(canonical_profile, baseline_params, mesh60, geometry):
    mm = assembly.assemble(FormCoefficients(canonical_profile, baseline_params, mesh60.nodes),
                           make_mode(0, 0, geometry))
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
    """The banded solver matches dense eigh on random banded Hermitian pencils,
    also with the spectrum shifted far below the first shift (top near -1e6)
    or far above it (top near 1e12, twenty x4 steps), and with a doubly
    degenerate top (two uncoupled copies of one pencil).  A band with a NaN
    entry raises SolverError."""
    n = 120
    for p in (1, 5):
        for complex_valued in (False, True):
            hb = _random_band(rng, n, p, complex_valued)
            mb = _random_band(rng, n, p, complex_valued)
            mb[p] += 8.0 * (2 * p + 1)      # diagonally dominant: definite
            pencils = {"random": (hb, mb), "below": (hb - 1e6 * mb, mb),
                       "above": (hb + 1e12 * mb, mb),
                       "degenerate": (np.concatenate([hb, hb], axis=1),
                                      np.concatenate([mb, mb], axis=1))}
            for name, (hb_case, mb_case) in pencils.items():
                H, M = dense(hb_case), dense(mb_case)
                w = sla.eigh(H, M, eigvals_only=True)
                if name == "degenerate":
                    assert w[-1] - w[-2] <= 1e-12 * abs(w[-1])
                top, v = spectral._top_pair(hb_case, mb_case)
                assert top == pytest.approx(w[-1], rel=1e-10), name
                assert np.real(np.vdot(v, M @ v)) == pytest.approx(1.0, rel=1e-12)
                residual = np.linalg.norm(H @ v - top * (M @ v))
                assert residual <= 1e-10 * np.linalg.norm(H) * np.linalg.norm(v), name
                top2, v2 = spectral._top_pair(hb_case, mb_case)
                assert top2 == top and np.array_equal(v2, v)
            # a NaN entry in H or M: SolverError at once (warnings are errors here)
            for k in range(2):
                nan_pencil = [hb.copy(), mb.copy()]
                nan_pencil[k][p - 1, n // 2] = math.nan
                with pytest.raises(SolverError):
                    spectral._top_pair(*nan_pencil)


def test_top_pair_warm_start(rng):
    """A warm start (value, vector) reaches the dense top in three cases: the
    guessed value above the top, below it (the shift climbs from the guess),
    and a start vector M-orthogonal to the top eigenvector, as when the top
    branch changes between the guess's pencil and this one.  A repeated warm
    call returns the same bits."""
    n = 120
    for p in (1, 5):
        for complex_valued in (False, True):
            hb = _random_band(rng, n, p, complex_valued)
            mb = _random_band(rng, n, p, complex_valued)
            mb[p] += 8.0 * (2 * p + 1)
            H, M = dense(hb), dense(mb)
            w, V = sla.eigh(H, M)
            spread = w[-1] - w[0]
            guesses = {"above": (w[-1] + 0.05 * spread, V[:, -1] + 0.01 * V[:, -2]),
                       "below": (w[-1] - 0.3 * spread, V[:, -1] + 0.01 * V[:, 0]),
                       "orthogonal": (w[-2], V[:, -2])}
            assert abs(np.vdot(V[:, -1], M @ V[:, -2])) <= 1e-14
            for name, guess in guesses.items():
                top, v = spectral._top_pair(hb, mb, guess)
                assert top == pytest.approx(w[-1], rel=1e-10), name
                assert np.real(np.vdot(v, M @ v)) == pytest.approx(1.0, rel=1e-12)
                residual = np.linalg.norm(H @ v - top * (M @ v))
                assert residual <= 1e-10 * np.linalg.norm(H) * np.linalg.norm(v), name
                top2, v2 = spectral._top_pair(hb, mb, guess)
                assert top2 == top and np.array_equal(v2, v)


def test_top_pair_start_outside_the_top_block(rng):
    """A cold start from a vector confined to a block of a block-diagonal
    pencil that does not hold the top: the seeded share of the start reaches
    the other block, so the eigenvector is the top one too, not only the
    value (which the shift bracket certifies either way)."""
    n, p = 40, 5

    def block_band():
        ab = _random_band(rng, n, p, False)
        for k in range(1, p + 1):
            ab[p - k, 20:20 + k] = 0.0        # no entry couples dof < 20 with dof >= 20
        return ab

    hb, mb = block_band(), 0.1 * block_band()
    hb[p, 20:] += 3.0                         # the top lies in the second block
    mb[p] = 2.0
    H, M = dense(hb), dense(mb)
    first = sla.eigh(H[:20, :20], M[:20, :20])[1][:, -1]
    top, v = spectral._top_pair(hb, mb, (None, np.concatenate([first, np.zeros(20)])))
    assert top == pytest.approx(sla.eigh(H, M, eigvals_only=True)[-1], rel=1e-12)
    assert np.linalg.norm(H @ v - top * (M @ v)) <= 1e-10 * np.linalg.norm(H)


def _splitmix64(state):
    """splitmix64's output at ``state``, in Python integers reduced mod 2**64."""
    mask = 2 ** 64 - 1
    z = state & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_start_vector():
    """The cold start vector: its first entries have pinned bits, each entry
    is splitmix64 at the state START_SEED + i*gamma with its top 53 bits
    mapped to [-1, 1) (recomputed in Python integers), its mean is near 0,
    a shorter vector is a prefix of a longer one, and a second call and a
    call in a fresh process give identical bits."""
    n = 4096
    v = spectral._start_vector(n)
    assert v.dtype == np.float64 and v.shape == (n,)
    assert [x.hex() for x in v[:4]] == ["-0x1.0e175d3212d84p-1", "0x1.f108f6302ec60p-3",
                                        "0x1.4ddd22ea671d8p-1", "-0x1.9b81ce622ef82p-1"]
    reference = [(_splitmix64(spectral.START_SEED + i * 0x9E3779B97F4A7C15) >> 11) * 2.0 ** -52
                 - 1.0 for i in range(256)]
    assert v[:256].tolist() == reference
    assert v.min() >= -1.0 and v.max() < 1.0
    # a uniform entry on [-1, 1) has standard deviation 1/sqrt(3): four standard errors
    assert abs(v.mean()) <= 4.0 / math.sqrt(3.0 * n)
    assert np.array_equal(spectral._start_vector(100), v[:100])
    assert spectral._start_vector(n).tobytes() == v.tobytes()
    fresh = run_python("from rtspectra import spectral; "
                       f"print(spectral._start_vector({n}).tobytes().hex())")
    assert fresh == v.tobytes().hex()


def test_top_pair_value_in_its_bracket(canonical_profile, baseline_params, geometry, monkeypatch):
    """Every top value of a growth scan (complex pencils, linear and
    quadratic) lies in its closed bracket [lo, sigma]: not below any value
    (Rayleigh quotient or functional) of the iterates of its own solve or
    shift that did not factor, not above the lowest shift that did, and
    within BRACKET_TOL of it.  Shifts are read back from the factorized
    bands, iterates recorded from band.solve."""
    params = dataclasses.replace(baseline_params, M=(0.03, -0.05, -0.02))
    mesh = assembly.build_mesh(geometry, n_per_layer=100)
    real_top, real_cholesky, real_solve = spectral._top_pair, band.cholesky, band.solve
    events, checked, iterates = [], [], []

    def cholesky(ab):
        factor = real_cholesky(ab)
        events.append(("shift", ab, factor is not None))
        return factor

    def solve(factor, b):
        x = real_solve(factor, b)
        events.append(("iterate", x, None))
        iterates.append(x)
        return x

    def recording(hb, mb, guess=None, db=None, lo=-math.inf):
        events.clear()
        top, v = real_top(hb, mb, guess, db, lo)
        d = np.zeros(mb.shape[1]) if db is None else db[-1].real
        scale = mb[-1].real * (1.0 if db is None else 2.0 * abs(top)) + d
        j = int(np.argmin(np.abs(hb[-1]) / scale))      # least cancellation in the read-back

        def shift(x):       # sigma from the diagonal entry c = sigma*M (+ sigma^2*M + sigma*D) - H
            c = float(x[-1, j].real + hb[-1, j].real)
            if db is None:
                return c / mb[-1, j].real
            return 2.0 * c / (d[j] + math.sqrt(d[j] ** 2 + 4.0 * mb[-1, j].real * c))

        quotient = failed = -math.inf
        sigma = math.inf
        for kind, x, factored in events:
            if kind == "iterate":
                m = float(np.real(np.vdot(x, band.matvec(mb, x))))
                a = float(np.real(np.vdot(x, band.matvec(hb, x))))
                if db is None:
                    value = a / m
                else:
                    dx = float(np.real(np.vdot(x, band.matvec(db, x))))
                    value = 2.0 * a / (dx + math.sqrt(dx * dx + 4.0 * m * a))
                quotient = max(quotient, value)
            elif factored:
                sigma = min(sigma, shift(x))
            else:
                failed = max(failed, shift(x))
        slack = 4e-16 * (abs(top) + abs(hb[-1, j]) / scale[j])     # read-back rounding
        # a value above a shift that factored is rounding, and raises lo only to sigma
        lo_read = max(failed, lo, min(quotient, sigma))
        assert lo_read - slack <= top <= sigma + slack, (lo_read, top, sigma)
        assert sigma - top <= spectral.BRACKET_TOL * max(1.0, abs(top)) + slack
        checked.append(db is not None)
        return top, v

    monkeypatch.setattr(band, "cholesky", cholesky)
    monkeypatch.setattr(band, "solve", solve)
    monkeypatch.setattr(spectral, "_top_pair", recording)
    verdict = spectral.global_scan(FormCoefficients(canonical_profile, params, mesh.nodes),
                                   k_max=2)
    assert not verdict.errors and verdict.global_lambda > 0
    assert len(checked) >= 20 and len(iterates) >= 100
    assert checked.count(True) == sum(v.lambda_value is not None for v in verdict.verdicts
                                      if v.mode.norm2 > 0)


def _restricted_dense_xi(mm):
    """Top of (P^T N P, P^T B P), P the per-node (longitudinal, psi) basis:
    the mhd discriminant with the transverse horizontal component removed."""
    xi1, xi2 = mm.mode.xi1, mm.mode.xi2
    nodes = mm.n_dof // 3
    local = np.array([[xi1, 0.0], [xi2, 0.0], [0.0, 1.0]]) / [[math.hypot(xi1, xi2), 1.0]]
    P = np.kron(np.eye(nodes), local)
    N, B = (dense(X) for X in (mm.gravity, mm.compress + mm.magnetic))
    return sla.eigh(P.T @ N @ P, P.T @ B @ P, eigvals_only=True)[-1]


def test_xi_restricted_dense_reference(stable_profile, mesh60, geometry):
    """A horizontal field orthogonal to the mode on the stable profile: the
    transverse component is in the kernel of both forms and no div-free
    certificate exists.  xi is 2e/(2e + 1) on every mesh, with no vector;
    the restricted dense Galerkin value, independent of it, lies below."""
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(1.0, 0.0, 0.0))
    mode = make_mode(0, 1, geometry)
    exact = 2.0 * math.e / (2.0 * math.e + 1.0)
    for nodes in (mesh60.nodes, assembly.build_mesh(geometry, 100).nodes):
        mm = assembly.assemble(FormCoefficients(stable_profile, params, nodes), mode)
        assert spectral.xi_per_mode(mm) == (exact, None)
        assert 0.7 < _restricted_dense_xi(mm) < exact


def test_xi_rounded_orthogonal_field(canonical_profile, stable_profile, geometry):
    """M . xi = 0.3*2 - 0.2*3 rounds to -1.1e-16 and still counts as zero."""
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.3, -0.2, 0.0))
    mode = make_mode(2, 3, geometry)
    assert params.M[0] * mode.xi1 + params.M[1] * mode.xi2 != 0.0
    for n in (30, 60):
        mm = assembly.assemble(FormCoefficients(canonical_profile, params,
                                                assembly.build_mesh(geometry, n).nodes),
                               mode)
        assert math.isinf(spectral.xi_per_mode(mm)[0])
    mm = assembly.assemble(FormCoefficients(stable_profile, params,
                                            assembly.build_mesh(geometry, 100).nodes),
                           mode)
    S = 2.0 * math.e        # sup P'(rho)*rho, at the bottom of the lower layer
    exact = S / (S + params.lam * (0.3 ** 2 + 0.2 ** 2))
    assert spectral.xi_per_mode(mm) == (exact, None)
    assert 0.95 < _restricted_dense_xi(mm) < exact


@pytest.mark.parametrize("M, k", [((0.0, 0.0, 0.0), (1, 0)), ((1.0, 0.0, 0.0), (0, 1)),
                                  ((0.3, -0.2, 0.0), (2, 3))],
                         ids=["no_field", "horizontal", "skew"])
def test_xi_transverse_kernel_below_its_supremum(stable_profile, geometry, M, k):
    """M3 = 0, M . xi = 0, g > 0 and [[rho]] <= 0: with d = div w and
    c = P'(rho)*rho + lam*|M_h|^2, Cauchy-Schwarz in d, then the sup over psi
    and hydrostatic balance (-g*rho' = g^2*rho/P'(rho)) give the per-mode
    supremum S/(S + lam*|M_h|^2), with S = sup P'(rho)*rho, here 2e at the
    bottom of the lower layer.  xi_per_mode returns it on every mesh.  The
    restricted dense Galerkin value lies below it and rises with n; with no
    field its gap shrinks at least 3x per doubling."""
    params = PhysicalParams(lam=1.0, M=M)
    S = 2.0 * math.e
    bound = S / (S + params.lam * (M[0] ** 2 + M[1] ** 2))
    values = []
    for n in (25, 50, 100):
        mm = assembly.assemble(FormCoefficients(stable_profile, params,
                                                assembly.build_mesh(geometry, n).nodes),
                               make_mode(*k, geometry))
        assert spectral.xi_per_mode(mm) == (bound, None)
        values.append(_restricted_dense_xi(mm))
    assert values[0] < values[1] < values[2] < bound
    if M == (0.0, 0.0, 0.0):
        gaps = [bound - v for v in values]
        assert gaps[1] <= gaps[0] / 3.0 and gaps[2] <= gaps[1] / 3.0


@pytest.mark.parametrize("medium", ["transverse", "viscoelastic_kappa0"])
def test_xi_explicit_cases_build_no_pencil(canonical_profile, stable_profile, geometry,
                                           monkeypatch, medium):
    """A transverse-kernel mode and a kappa = 0 viscoelastic mode are settled
    from the model: xi_per_mode reads no discriminant pencil and factors no
    band, whichever sign [[rho]] has."""
    if medium == "transverse":
        params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(1.0, 0.0, 0.0))
    else:
        params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, medium=VISCOELASTIC)
    nodes = assembly.build_mesh(geometry, 30).nodes
    matrices = [assembly.assemble(FormCoefficients(profile, params, nodes),
                                  make_mode(0, 1, geometry))
                for profile in (canonical_profile, stable_profile)]
    reads, factors = [], []
    pencil = assembly.ModeMatrices.discriminant_pencil
    cholesky = band.cholesky
    monkeypatch.setattr(assembly.ModeMatrices, "discriminant_pencil",
                        property(lambda mm: reads.append(1) or pencil.fget(mm)))
    monkeypatch.setattr(band, "cholesky", lambda ab: factors.append(1) or cholesky(ab))
    values = [spectral.xi_per_mode(mm)[0] for mm in matrices]
    assert math.isinf(values[0]) and 0.0 <= values[1] < 1.0
    assert reads == [] and factors == []


def test_xi_viscoelastic_zero_kappa(canonical_profile, stable_profile, geometry):
    """kappa = 0 in one layer leaves a singular denominator: a typed error.
    kappa = 0 in both makes it vanish: inf where gravity drives, also on the
    near-floor mesh (smallest element 1.6e-5), where the mode grows; 0 at
    xi = 0; and exactly 0, with no vector, on the stable profile."""
    mesh = assembly.build_mesh(geometry, 30)

    def matrices(kappa, k, profile=canonical_profile, nodes=mesh.nodes):
        params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, kappa_plus=kappa[0],
                                kappa_minus=kappa[1], medium=VISCOELASTIC)
        return assembly.assemble(FormCoefficients(profile, params, nodes), make_mode(*k, geometry))

    with pytest.raises(SolverError, match="singular denominator"):
        spectral.xi_per_mode(matrices((0.0, 0.3), (1, 0)))
    assert math.isinf(spectral.xi_per_mode(matrices((0.0, 0.0), (1, 0)))[0])
    assert spectral.xi_per_mode(matrices((0.0, 0.0), (0, 0)))[0] == 0.0
    # [[rho]] < 0: the numerator's sup over the divergence is g[[rho]]|psi(0)|^2 <= 0
    value, vec = spectral.xi_per_mode(matrices((0.0, 0.0), (1, 0), stable_profile))
    assert value == 0.0 and vec is None
    floor = matrices((0.0, 0.0), (1, 0),
                     nodes=assembly.build_mesh(geometry, 200, grading=1.04).nodes)
    assert math.isinf(spectral.xi_per_mode(floor)[0])
    assert spectral.growth_rate_detailed(floor)[0] > 0.0


def test_xi_nearly_singular_viscoelastic_denominator(stable_profile, geometry):
    """kappa = (1e-9, 0.3) on the stable profile: the denominator factors but
    is nearly singular, and shift-invert ARPACK failed to converge on it.
    The top is 0 to rounding (transverse fields give a zero numerator)."""
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            kappa_plus=1e-9, kappa_minus=0.3, medium=VISCOELASTIC)
    mm = assembly.assemble(FormCoefficients(stable_profile, params,
                                            assembly.build_mesh(geometry, 30).nodes),
                           make_mode(1, 1, geometry))
    value, _ = spectral.xi_per_mode(mm)
    assert math.isfinite(value) and value < 1e-6


def test_xi_mode_symmetry(canonical_profile, mesh60, geometry):
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.0, 0.0, 2.5))
    vals = []
    for (k1, k2) in ((2, 1), (-2, -1)):
        mm = assembly.assemble(FormCoefficients(canonical_profile, params, mesh60.nodes),
                               make_mode(k1, k2, geometry))
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
    mm = assembly.assemble(FormCoefficients(prof0, params, mesh60.nodes),
                           make_mode(1, 0, geometry))
    a0, _ = spectral.alpha(0.0, mm)
    assert a0 <= 1e-12


def test_alpha_large_s_negative(mm_nofield):
    a0, _ = spectral.alpha(0.0, mm_nofield)
    assert a0 > 0
    dmin = sla.eigh(dense(mm_nofield.dissipation), dense(mm_nofield.mass),
                    eigvals_only=True)[0]
    s_big = 10.0 * a0 / dmin
    a_big, _ = spectral.alpha(s_big, mm_nofield)
    assert a_big < 0


def test_alpha_eigvec_residual(mm_nofield):
    for s in (0.0, 0.3, 1.1):
        val, v = spectral.alpha(s, mm_nofield)
        A = dense(mm_nofield.operator)
        D, M = dense(mm_nofield.dissipation), dense(mm_nofield.mass)
        res = np.linalg.norm((A - s * D) @ v - val * (M @ v))
        scale = (np.linalg.norm(A) + s * np.linalg.norm(D)) * np.linalg.norm(v)
        assert res <= 1e-8 * scale
        # normalized to the mass form
        assert np.real(np.vdot(v, M @ v)) == pytest.approx(1.0, rel=1e-10)


def test_growth_rate_stable_none(mm_vertical):
    assert spectral.growth_rate_detailed(mm_vertical)[0] is None


def test_growth_rate_fixed_point(mm_nofield):
    lam, vec, res = spectral.growth_rate_detailed(mm_nofield, tol=1e-8)
    assert lam is not None and lam > 0
    assert res <= 1e-8 * max(1.0, lam * lam)
    a, _ = spectral.alpha(lam, mm_nofield)
    assert abs(a - lam * lam) <= 1e-8 * max(1.0, lam * lam)


def test_growth_rate_residual_refused(mm_nofield, monkeypatch):
    """A fixed-point residual |Lambda^2 - alpha(Lambda)| above
    tol*max(1, Lambda^2) raises SolverError: alpha(s) is lifted by 1e-6
    for s > 0."""
    real = spectral.alpha

    def lifted(s, *args, **kwargs):
        value, v = real(s, *args, **kwargs)
        return (value + 1e-6 if s > 0.0 else value), v

    monkeypatch.setattr(spectral, "alpha", lifted)
    with pytest.raises(SolverError, match=r"\|Lambda\^2 - alpha\(Lambda\)\|"):
        spectral.growth_rate_detailed(mm_nofield, tol=1e-8)
    assert spectral.growth_rate_detailed(mm_nofield, tol=1e-5)[0] > 0.0


def _companion_top(mm):
    """Largest real eigenvalue of lambda^2 M + lambda D - A, from dense eig of
    its companion linearization [[0, I], [A, -D]] z = lambda [[I, 0], [0, M]] z."""
    A, D, M = (dense(X) for X in (mm.operator, mm.dissipation, mm.mass))
    n = A.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    w = sla.eig(np.block([[zero, eye], [A, -D]]), np.block([[eye, zero], [zero, M]]),
                right=False)
    w = w[np.isfinite(w)]
    return float(np.max(w[np.abs(w.imag) <= 1e-9 * np.abs(w)].real))


@pytest.mark.parametrize("case", ["no_field", "mixed", "inviscid"])
def test_growth_rate_matches_companion_eigenvalue(canonical_profile, geometry, case,
                                                  monkeypatch):
    """On a small mesh (n_per_layer = 30, 177 unknowns) the growth rate is the
    largest real eigenvalue of the quadratic pencil to 1e-10 relative: a real
    no-field mode, a complex mixed-field one, and the first with a zero
    dissipation band, whose rate is sqrt(alpha(0)).  The
    quadratic bracket certifies its value to its closing tolerance: Q
    factors one BRACKET_TOL above it and not one below (on the no-field
    mode Q factors at the value itself, a band-level Rayleigh functional
    1e-13 relative above the shift where Q starts to factor: band-product
    rounding).  The residual is within tol*max(1, Lambda^2)."""
    mesh = assembly.build_mesh(geometry, n_per_layer=30)
    params = PhysicalParams(**SCAN_FIELDS["mixed" if case == "mixed" else "no_field"])
    k = (1, 1) if case == "mixed" else (1, 0)
    mm = assembly.assemble(FormCoefficients(canonical_profile, params, mesh.nodes),
                           make_mode(*k, geometry))
    assert np.iscomplexobj(mm.operator) == (case == "mixed")
    if case == "inviscid":
        mm = dataclasses.replace(mm, dissipation=np.zeros_like(mm.dissipation))
    real, brackets = spectral._top_pair, []

    def recording(hb, mb, guess=None, db=None, lo=-math.inf):
        top, v = real(hb, mb, guess, db, lo)
        if db is not None:
            brackets.append(top)
        return top, v

    monkeypatch.setattr(spectral, "_top_pair", recording)
    tol = 1e-8
    lam, vec, res = spectral.growth_rate_detailed(mm, tol)
    reference = _companion_top(mm)
    assert reference > 0.0 and len(brackets) == 1
    assert abs(lam - reference) <= 1e-10 * reference, (lam, reference)
    assert res <= tol * max(1.0, lam * lam)
    if case == "inviscid":
        assert lam == pytest.approx(math.sqrt(spectral.alpha(0.0, mm)[0]), rel=1e-12)
    top = brackets[0]
    lo, hi = (top + sign * spectral.BRACKET_TOL * max(1.0, top) for sign in (-1.0, 1.0))
    A, D, M = mm.operator, mm.dissipation, mm.mass
    assert band.cholesky((hi * hi) * M + hi * D - A) is not None
    assert band.cholesky((lo * lo) * M + lo * D - A) is None
    assert abs(top - reference) <= 1e-10 * reference


def test_growth_rate_decreases_with_dissipation(canonical_profile, mesh60, geometry,
                                                mm_nofield):
    lam1 = spectral.growth_rate_detailed(mm_nofield)[0]
    doubled = PhysicalParams(mu_plus=0.2, mu_minus=0.2, bulk_plus=0.2, bulk_minus=0.2,
                             lam=1.0, M=(0.0, 0.0, 0.0))
    mm2 = assembly.assemble(FormCoefficients(canonical_profile, doubled, mesh60.nodes),
                            make_mode(1, 0, geometry))
    lam2 = spectral.growth_rate_detailed(mm2)[0]
    assert lam2 < lam1


def test_growth_rate_viscoelastic(mm_viscoelastic_soft):
    xi, _ = spectral.xi_per_mode(mm_viscoelastic_soft)
    assert xi > 1.0
    lam = spectral.growth_rate_detailed(mm_viscoelastic_soft)[0]
    assert lam is not None and lam > 0


def test_coercivity_positive_when_stable(mm_vertical):
    c = spectral.coercivity_constant(mm_vertical)
    assert c > 0


def test_coercivity_indefinite_when_unstable(mm_nofield):
    with pytest.raises(SolverError, match="not strictly stable"):
        spectral.coercivity_constant(mm_nofield)


def test_stiff_viscoelastic_mode_reads_its_medium(canonical_profile, mesh60, geometry):
    """kappa = 0.55 above the elastic threshold 0.5: mode (1,0) is stable, and
    the solvers see elasticity from the params alone.  Solved as an unfielded
    mhd mode it would be unstable (coercivity fails, the trajectory grows)."""
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            kappa_plus=0.55, kappa_minus=0.55, medium=VISCOELASTIC)
    mm = assembly.assemble(FormCoefficients(canonical_profile, params, mesh60.nodes),
                           make_mode(1, 0, geometry))
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
    assert spectral.alpha in checked and modereduce.FormCoefficients.__init__ in checked
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
    verdict = spectral.global_scan(FormCoefficients(canonical_profile, params, mesh.nodes),
                                   k_max=2)
    assert not verdict.errors
    assert verdict.global_xi < 1.0
    assert verdict.global_lambda is None
    assert verdict.truncation_converged
    zero = [v for v in verdict.verdicts if v.mode.is_zero()][0]
    assert abs(zero.xi_value) <= 1e-9
    _assert_dichotomy(verdict)


def test_global_scan_unstable_flags(canonical_profile, baseline_params, geometry):
    mesh = assembly.build_mesh(geometry, n_per_layer=40)
    verdict = spectral.global_scan(FormCoefficients(canonical_profile, baseline_params,
                                                    mesh.nodes), k_max=1)
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
    verdict = spectral.global_scan(FormCoefficients(canonical_profile, params, mesh.nodes), 1)
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
        spectral.global_scan(FormCoefficients(canonical_profile, baseline_params, mesh.nodes),
                             k_max)


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
            raise SolverError("no convergence")
        return real(matrices, *args, **kwargs)

    monkeypatch.setattr(spectral, "analyze_mode", failing)
    mesh = assembly.build_mesh(geometry, n_per_layer=20)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=M)
    verdict = spectral.global_scan(FormCoefficients(canonical_profile, params, mesh.nodes), 1)
    assert verdict.errors == {k: "SolverError: no convergence" for k in failed}
    assert len(verdict.verdicts) == n_verdicts
    assert not verdict.truncation_converged


def test_global_scan_builds_its_grid_once(canonical_profile, geometry, monkeypatch):
    """The scan's BandPolynomial is built once, before the first mode, and an
    error there ends the scan instead of failing each isotropy class."""
    built = []

    def failing(coeffs):
        built.append(coeffs)
        raise SolverError("no polynomial")

    monkeypatch.setattr(spectral, "BandPolynomial", failing)
    mesh = assembly.build_mesh(geometry, n_per_layer=20)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, lam=1.0, M=(0.0, 0.0, M3_STABLE))
    coeffs = FormCoefficients(canonical_profile, params, mesh.nodes)
    with pytest.raises(SolverError, match="no polynomial"):
        spectral.global_scan(coeffs, k_max=2)
    assert len(built) == 1 and built[0] is coeffs


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
    verdict = spectral.global_scan(FormCoefficients(profile, params, mesh.nodes), k_max=2)
    assert len(verdict.verdicts) == 13 and not verdict.errors
    isotropic = field != "mixed"
    assert len(solved) == ({1.0: 6, 1.7: 9}[L2] if isotropic else 13)
    _assert_dichotomy(verdict)

    xi_rel, rel = (1e-8, 1e-12) if isotropic else (0.0, 0.0)
    coeffs = FormCoefficients(profile, params, mesh.nodes)
    for v in verdict.verdicts:
        mm = assembly.assemble(coeffs, v.mode)
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
        mm = assembly.assemble(coeffs, make_mode(*k, geometry))
        N, B = mm.discriminant_pencil
        if band.cholesky(B) is None:
            continue
        xi, _ = spectral.xi_per_mode(mm)
        if math.isfinite(xi) and abs(xi - 1.0) > 1e-6:
            checked += 1
            assert (band.cholesky(B - N) is not None) == (xi < 1.0), (k, xi)
    assert checked == (0 if field == "no_field" else 13)


def _element_quotient(coeffs, mode, v):
    """(E, Psi, mass) of the P1 field of dof vector v: the mhd energy,
    dissipation and mass integrated from its values and slopes at the
    quadrature points, where no band product cancels."""
    nodal = np.zeros((coeffs.grid.size, 3), dtype=v.dtype)
    nodal[1:-1] = v.reshape(-1, 3)
    f = np.stack([p1_eval(coeffs.grid, nodal[:, c], coeffs.qp_y) for c in range(3)]
                 + [p1_slope(coeffs.grid, nodal[:, c], coeffs.qp_y) for c in range(3)], axis=-1)
    table = modereduce.form_table(coeffs, mode)
    return tuple(modereduce.form_value(coeffs, table, weights, f) for weights in
                 ({"gravity": 1.0, "compress": -1.0, "magnetic": -1.0}, {"dissipation": 1.0},
                  {"mass": 1.0}))


def test_alpha_on_graded_mesh_near_floor(canonical_profile, baseline_params, geometry):
    """Smallest element 1.6e-5 of a layer, just above the mesh floor, and the
    default family at n = 1600: alpha(0), alpha(0.4) and the growth rate, each
    a bracket's lower end from band products, lie within 1e-9 of max(1, |q|)
    of the element-level quotient q of their own eigenvector (measured: at
    most 5.3e-11).  A dense eigh of the pencil is no reference here: scaled
    by the inverse square root of the mass diagonal, it is 5.0e-6 (alpha(0))
    and 3.7e-5 (alpha(0.4)) off both values on the graded mesh."""
    mode = make_mode(1, 0, geometry)
    for n, grading, h_min in ((200, 1.04, 1.569e-5), (1600, None, 1.599e-4)):
        mesh = assembly.build_mesh(geometry, n, grading=grading)
        assert np.min(np.diff(mesh.nodes)) == pytest.approx(h_min, rel=1e-3)
        coeffs = FormCoefficients(canonical_profile, baseline_params, mesh.nodes)
        mm = assembly.assemble(coeffs, mode)
        for s in (0.0, 0.4):
            value, v = spectral.alpha(s, mm)
            energy, psi, mass = _element_quotient(coeffs, mode, v)
            q = (energy - s * psi) / mass
            assert abs(value - q) <= 1e-9 * max(1.0, abs(q)), (n, s, value, q)
        lam, vec, _ = spectral.growth_rate_detailed(mm)
        q = spectral._functional(*_element_quotient(coeffs, mode, vec))
        assert abs(lam - q) <= 1e-9 * max(1.0, q), (n, lam, q)


def test_xi_on_graded_mesh_near_floor(canonical_profile, geometry):
    """Smallest element 1.6e-5 of a layer, just above the mesh floor, on the
    lattice_vertical benchmark config of seed 1: xi, solved in assembly's
    coordinates, matches a dense eigh of the pencil within 1e-7 (measured:
    0.7-2.0e-11).

    The dense pencil is scaled by the inverse square root of the mass
    diagonal on both sides, a congruence, so it has the same eigenvalues.
    Below the floor, at grading 1.09 (smallest element 2.9e-9), dense eigh's
    Cholesky reduction of the unscaled denominator was itself 0.6-1.3e-7 off
    both the banded value and the scaled reference; here it is 2-4e-11 off."""
    params = PhysicalParams(mu_plus=0.1771150605405849, mu_minus=0.16456619284649213,
                            bulk_plus=0.08826035386091327, bulk_minus=0.12431526306379116,
                            lam=1.0, M=(0.0, 0.0, 2.3119500516736675))
    mesh = assembly.build_mesh(geometry, 200, grading=1.04)
    assert np.min(np.diff(mesh.nodes)) == pytest.approx(1.569e-5, rel=1e-3)
    coeffs = FormCoefficients(canonical_profile, params, mesh.nodes)
    for k in ((1, 0), (2, -1), (4, 4)):
        mm = assembly.assemble(coeffs, make_mode(*k, geometry))
        value, _ = spectral.xi_per_mode(mm)
        d = 1.0 / np.sqrt(np.diag(dense(mm.mass)))
        N, B = (d[:, None] * dense(x) * d for x in mm.discriminant_pencil)
        n = N.shape[0]
        reference = sla.eigh(N, B, eigvals_only=True, subset_by_index=(n - 1, n - 1))[0]
        assert abs(value - reference) <= 1e-7 * abs(reference), (k, value, reference)


def test_alpha_scales_its_check_by_the_band_it_solves(mm_nofield, monkeypatch):
    """Each alpha(s) takes one Frobenius pass, over the band A - s*D that it
    solves, at s = 0 as at s > 0: the mode caches no norm."""
    real, seen = band.frobenius, []

    def recording(ab):
        seen.append(ab.copy())
        return real(ab)

    monkeypatch.setattr(band, "frobenius", recording)
    for s in (0.0, 0.4):
        seen.clear()
        spectral.alpha(s, mm_nofield)
        assert len(seen) == 1, s
        assert np.array_equal(seen[0], mm_nofield.operator - s * mm_nofield.dissipation), s


def test_bracket_error_message(mm_vertical):
    with pytest.raises(InputError, match="tol must be positive"):
        spectral.growth_rate_detailed(mm_vertical, tol=-1.0)[0]


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


def test_banded_factorizations_per_solve(mm_nofield, mm_vertical, monkeypatch):
    """The growth rate as one bracket of the quadratic pencil plus one warm
    alpha, aimed trial shifts and the discriminant started from the
    alpha(0) eigenvector: one growth rate (alpha(0) included), one stable
    verdict and that verdict's discriminant, alpha(0) handed over, stay
    under a ceiling of banded Cholesky factorizations (measured 24, 14 and
    7, its denominator check included; 39 for the growth rate as a Newton
    iteration of warm alpha solves; 20 and 13 with the discriminant started
    from the seeded vector, whose first quotient is about 1e-7 against a
    top of 0.13; 114 and 33 with cold starts and fixed 10 % steps as well),
    and the count repeats exactly."""
    alpha0 = spectral.alpha(0.0, mm_vertical)
    real, calls, counts = band.cholesky, [], []

    def counting(ab):
        calls.append(ab.shape)
        return real(ab)

    monkeypatch.setattr(band, "cholesky", counting)
    for _ in range(2):
        start = len(calls)
        lam, _, _ = spectral.growth_rate_detailed(mm_nofield)
        assert lam is not None and lam > 0
        middle = len(calls)
        assert spectral.analyze_mode(mm_vertical).lambda_value is None
        verdict = len(calls)
        assert 0.0 < spectral.xi_per_mode(mm_vertical, alpha0=alpha0)[0] < 1.0
        counts.append((middle - start, verdict - middle, len(calls) - verdict))
    assert counts[0] == counts[1]
    assert counts[0][0] <= 24 and counts[0][1] <= 14 and counts[0][2] <= 7, counts


@pytest.mark.parametrize("case", ["stable_vertical", "unstable_mixed"])
def test_xi_alpha0_handed_over_or_solved(mm_vertical, canonical_profile, mesh60, geometry,
                                         case):
    """xi_per_mode solves alpha(0) itself when it is not handed one, and gives
    the bits it gives with alpha(0.0, mm) handed over: on a stable real
    mode and on an unstable complex one."""
    mm = mm_vertical
    if case == "unstable_mixed":
        params = PhysicalParams(**SCAN_FIELDS["mixed"])
        mm = assembly.assemble(FormCoefficients(canonical_profile, params, mesh60.nodes),
                               make_mode(1, 1, geometry))
        assert np.iscomplexobj(mm.operator)
    value, vec = spectral.xi_per_mode(mm)
    handed, handed_vec = spectral.xi_per_mode(mm, alpha0=spectral.alpha(0.0, mm))
    assert (value > 1.0) == (case == "unstable_mixed") and math.isfinite(value)
    assert handed == value and np.array_equal(handed_vec, vec)


def test_form_table_built_once_per_mode(mm_nofield, canonical_profile, geometry, monkeypatch):
    """A verdict reads only what assemble built: analyze_mode contracts no
    band and builds no table.  The horizontal witness builds one table for
    its slope guard and its energy."""
    calls = []

    def counting(real, name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(assembly.BandPolynomial, "band",
                        counting(assembly.BandPolynomial.band, "band"))
    table = counting(modereduce.form_table, "form_table")
    for module in (modereduce, criteria):      # every module that holds the name
        monkeypatch.setattr(module, "form_table", table)
    verdict = spectral.analyze_mode(mm_nofield)
    assert verdict.lambda_value is not None and verdict.lambda_value > 0
    assert calls == []
    criteria.horizontal_field_witness(canonical_profile, PhysicalParams(M=(1.0, 0.0, 0.0)),
                                      make_mode(1, 1, geometry))
    assert calls == ["form_table"]


@pytest.mark.parametrize("m3", [M3_STABLE, 0.0])
def test_analyze_mode_fine_mesh(canonical_profile, geometry, m3):
    """At n_per_layer=2000 (11,997 unknowns) the band matrices take 4 MB; dense
    storage of the seven forms would take about 8 GB."""
    mesh = assembly.build_mesh(geometry, n_per_layer=2000)
    params = PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                            lam=1.0, M=(0.0, 0.0, m3))
    mm = assembly.assemble(FormCoefficients(canonical_profile, params, mesh.nodes),
                           make_mode(1, 0, geometry))
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
    """Every scan path stays in band storage: dense eigensolves raise, and
    four fields with singular and definite denominators still scan without
    a failed mode."""
    def dense(*args, **kwargs):
        raise AssertionError("dense matrix built on the main path")

    monkeypatch.setattr(sla, "eigh", dense)
    mesh = assembly.build_mesh(geometry, n_per_layer=30)
    visc = dict(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1)
    for profile, params in (
        (canonical_profile, PhysicalParams(**visc, lam=1.0, M=(0.0, 0.0, M3_STABLE))),
        (stable_profile, PhysicalParams(**visc, lam=1.0, M=(1.0, 0.0, 0.0))),
        (canonical_profile, PhysicalParams(**visc, lam=1.0, M=(0.0, 0.0, 0.0))),
        (canonical_profile, PhysicalParams(**visc, kappa_plus=0.01, kappa_minus=0.01,
                                           medium=VISCOELASTIC)),
    ):
        verdict = spectral.global_scan(FormCoefficients(profile, params, mesh.nodes), k_max=2)
        assert len(verdict.verdicts) == 13 and not verdict.errors
        _assert_dichotomy(verdict)
