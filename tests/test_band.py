"""The direct LAPACK/BLAS calls of band.py against scipy.linalg's banded routines."""

import numpy as np
import pytest
import scipy.linalg as sla

from rtspectra import band


def _definite_band(rng, n, p, complex_valued):
    ab = rng.standard_normal((p + 1, n))
    if complex_valued:
        ab = ab + 1j * rng.standard_normal((p + 1, n))
        ab[p] = ab[p].real
    ab[p] += 4.0 * (p + 1)           # diagonally dominant
    for k in range(1, p + 1):
        ab[p - k, :k] = 0.0
    return ab


@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "hermitian"])
def test_band_calls_match_scipy(complex_valued, rng):
    """cholesky and solve return the bits of cholesky_banded and cho_solve_banded,
    for C- and Fortran-ordered bands and real or complex right-hand sides."""
    ab = _definite_band(rng, 40, 5, complex_valued)
    want = sla.cholesky_banded(ab)
    for layout in (ab, np.asfortranarray(ab)):
        factor = band.cholesky(layout)
        assert factor.dtype == want.dtype and np.array_equal(factor, want)
        for b in (rng.standard_normal(40), rng.standard_normal(40) + 1j * rng.standard_normal(40)):
            x = band.solve(factor, b)
            expected = sla.cho_solve_banded((want, False), b)
            assert x.dtype == expected.dtype and np.array_equal(x, expected)


@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "hermitian"])
def test_cholesky_refuses_an_indefinite_band(complex_valued, rng):
    ab = _definite_band(rng, 40, 5, complex_valued)
    ab[5, 17] = -1.0
    assert band.cholesky(ab) is None
    with pytest.raises(sla.LinAlgError):
        sla.cholesky_banded(ab)
