"""The direct LAPACK/BLAS calls of band.py against scipy.linalg's banded
routines, and its CSR block build and product against scipy.sparse."""

import importlib.machinery
import os
import re
import sys

import numpy as np
import pytest
import scipy
import scipy.linalg as sla
from scipy.sparse import bmat

from conftest import run_python
from oracles import dense, to_csr
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


@pytest.mark.parametrize("p", [1, 5])
@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "hermitian"])
def test_frobenius_matches_the_dense_norm(complex_valued, p, rng):
    ab = _definite_band(rng, 40, p, complex_valued)
    want = np.linalg.norm(dense(ab))
    for layout in (ab, np.asfortranarray(ab)):
        assert band.frobenius(layout) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("row", [0, 5], ids=["off_diagonal", "diagonal"])
@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "hermitian"])
def test_frobenius_overflows_to_inf_without_warning(complex_valued, row, rng, recwarn):
    ab = np.asfortranarray(_definite_band(rng, 40, 5, complex_valued))
    ab[row, 17] = 1e200
    assert band.frobenius(ab) == np.inf
    assert not recwarn.list


@pytest.mark.parametrize("complex_band", [False, True], ids=["real", "hermitian"])
@pytest.mark.parametrize("complex_vector", [False, True], ids=["real_x", "complex_x"])
def test_matvec_matches_the_dense_product(complex_band, complex_vector, rng):
    ab = np.asfortranarray(_definite_band(rng, 40, 5, complex_band))
    x = rng.standard_normal(40)
    if complex_vector:
        x = x + 1j * rng.standard_normal(40)
    y = band.matvec(ab, x)
    assert y.dtype == np.result_type(ab, x)
    np.testing.assert_allclose(y, dense(ab) @ x, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
def test_routines_are_scipys_handles(dtype):
    """Each routine is the very object get_lapack_funcs or get_blas_funcs returns."""
    dtype = np.dtype(dtype)
    for name in ("pbtrf", "pbtrs"):
        assert band.routine(name, dtype) is sla.get_lapack_funcs(name, dtype=dtype)
    name = "hbmv" if dtype.kind == "c" else "sbmv"
    assert band.routine(name, dtype) is sla.get_blas_funcs(name, dtype=dtype)


@pytest.mark.parametrize("first", ["rtspectra.band", "scipy.linalg"])
def test_either_import_order_shares_the_compiled_modules(first):
    """Whichever of band and scipy.linalg is imported first, both use one
    _flapack and one _fblas module object, and scipy.linalg's banded routines
    work.  With band first, scipy.linalg reads the modules from sys.modules
    (its package attributes _flapack and _fblas stay unset)."""
    second = "scipy.linalg" if first == "rtspectra.band" else "rtspectra.band"
    code = f"""
import sys
import numpy as np
import {first}, {second}
import scipy.linalg as sla
from rtspectra import band
flapack, fblas = sys.modules["scipy.linalg._flapack"], sys.modules["scipy.linalg._fblas"]
assert sla.lapack._flapack is flapack and band._FLAPACK is flapack
assert sla.blas._fblas is fblas and band._FBLAS is fblas
ab = np.zeros((2, 5))
ab[1], ab[0, 1:] = 4.0, 1.0
assert np.array_equal(sla.cholesky_banded(ab), band.cholesky(ab))
print("shared")
"""
    assert run_python(code) == "shared"


def test_scipy_sparse_shares_the_product_kernel_module():
    """A product built before scipy.sparse is imported leaves it a working
    package that uses the same _sparsetools module object."""
    code = """
import sys
import numpy as np
from rtspectra import band
ab = np.zeros((2, 5))
ab[1], ab[0, 1:] = 4.0, 1.0
B = band.block_csr([(1.0, ab, 0)], 1)
y = band.csr_product(B)(np.arange(5.0), np.empty(5))
assert "scipy.sparse" not in sys.modules
import scipy.sparse
assert scipy.sparse._compressed._sparsetools is sys.modules["scipy.sparse._sparsetools"]
X = scipy.sparse.csr_matrix((B.data, B.indices, B.indptr), shape=B.shape)
assert np.array_equal(X @ np.arange(5.0), y)
print("shared")
"""
    assert run_python(code) == "shared"


@pytest.mark.parametrize("package, name", [("linalg", "_flapack"), ("linalg", "_fblas"),
                                           ("sparse", "_sparsetools")])
def test_a_missing_module_file_names_its_path(package, name, monkeypatch):
    monkeypatch.delitem(sys.modules, f"scipy.{package}.{name}", raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    path = os.path.join(os.path.dirname(scipy.__file__), package, name)
    with pytest.raises(ImportError, match=re.escape(path) + r"\{\.missing\.so\}"):
        band._compiled(package, name)


def _band_with_a_zero_lane(rng, n, p, complex_valued):
    """A random Hermitian band whose second superdiagonal is all zero and
    which has a few more zero entries, so that zero elimination shows."""
    ab = _definite_band(rng, n, p, complex_valued)
    ab[p - 2] = 0.0
    ab[p - 1, 7] = ab[0, 11] = 0.0
    if complex_valued:
        ab[p - 3, 9] = 0.0
        ab[p - 4, 13] = 1j            # purely imaginary: kept
    return ab


@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "hermitian"])
def test_block_csr_is_scipys_bmat(complex_valued, rng):
    """block_csr gives the arrays of bmat(..., format="csr") over the oracle's
    CSR view, bit for bit, and the product gives the bits of csr_matrix @ x,
    whatever its output buffer held before."""
    n, p = 40, 5
    M = _band_with_a_zero_lane(rng, n, p, False)
    A = _band_with_a_zero_lane(rng, n, p, complex_valued)
    no_dissipation = np.zeros((p + 1, n), dtype=A.dtype)      # a block with no entries
    for D in (no_dissipation, _band_with_a_zero_lane(rng, n, p, complex_valued)):
        B = band.block_csr([(2.0, M, 0), (1.0, A, 1), (1.0, M, 1), (1.0, D, 2)], 3)
        M_s = to_csr(M)
        want = bmat([[2.0 * M_s, None, None], [None, to_csr(A), None], [None, M_s, None],
                     [None, None, to_csr(D)]], format="csr")
        assert B.shape == want.shape
        for got, expected in zip(B[1:], (want.indptr, want.indices, want.data)):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        product = band.csr_product(B)
        y = np.full(4 * n, np.nan, dtype=B.data.dtype)
        for _ in range(3):
            x = rng.standard_normal(3 * n).astype(B.data.dtype)
            if complex_valued:
                x += 1j * rng.standard_normal(3 * n)
            assert product(x, y) is y
            expected = want @ x
            assert y.dtype == expected.dtype and np.array_equal(y, expected)
        with pytest.raises(ValueError, match="needs x of shape"):
            product(x[1:], y)
        with pytest.raises(ValueError, match="needs x of shape"):
            product(x, y[1:])
