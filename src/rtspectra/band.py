"""Hermitian matrices in LAPACK upper band storage.

A Hermitian matrix X of half-bandwidth p and order n is held as an array
ab of shape (p + 1, n) with ab[p - k, j] = X[j - k, j] for 0 <= k <= p,
the layout of ``scipy.linalg.cholesky_banded``.  Entries ab[p - k, j] with
j < k point above the matrix and are kept zero.  The per-mode forms have
p = 3n - 1 for the n nodes per element of the element tables (5 for P1).

Factorizations, solves and products call LAPACK ``pbtrf``/``pbtrs`` and
BLAS ``sbmv``/``hbmv`` directly: the calls of ``scipy.linalg.cholesky_banded``
and ``cho_solve_banded`` with ``check_finite=False``, and the same bits,
without their per-call validation.  The handles are the f2py routines of
scipy's compiled modules ``scipy/linalg/_flapack`` and ``_fblas``, loaded
by file, so that ``scipy/linalg/__init__.py`` never runs: it would load
scipy's array-API layer, ``numpy.f2py``, ``numpy.testing`` and the rest of
``scipy.linalg``, about 16 MB and 0.2 s per process.  They are the objects
``scipy.linalg.get_lapack_funcs`` and ``get_blas_funcs`` return.  scipy's
directory comes from ``importlib.util.find_spec("scipy")``, so that
``scipy/__init__.py`` does not run either: it loads ``scipy._lib``'s test
utilities, ``subprocess`` and ``_pep440``, about 0.6 MB and 15 ms.

``block_csr`` stacks bands into one matrix in CSR arrays, the arrays
``scipy.sparse.bmat(..., format="csr")`` gives, and ``csr_product``
multiplies by it through ``csr_matvec`` of scipy's compiled module
``scipy/sparse/_sparsetools``, the kernel behind ``csr_matrix @ x``.  That
module too is loaded by file, on the first product, so that no process
runs ``scipy/sparse/__init__.py``: it would load the same array-API layer
and test modules, about 18 MB.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np


def _compiled(package: str, name: str):
    """scipy's compiled module ``scipy.<package>.<name>``, loaded from its file.

    It is registered under its dotted name, and an entry already there is
    reused, so a later ``import scipy.<package>`` shares the module object.
    """
    dotted = f"scipy.{package}.{name}"
    if dotted in sys.modules:
        return sys.modules[dotted]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    directory = os.path.join(scipy.submodule_search_locations[0], package)
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    for path in (os.path.join(directory, name + suffix) for suffix in suffixes):
        if os.path.isfile(path):
            break
    else:
        raise ImportError(
            f"no file {os.path.join(directory, name)}{{{','.join(suffixes)}}}: rtspectra.band "
            "loads scipy's compiled modules scipy/linalg/_flapack, scipy/linalg/_fblas and "
            "scipy/sparse/_sparsetools by file")
    spec = importlib.util.spec_from_file_location(dotted, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[dotted] = module
    return module


_FLAPACK, _FBLAS = _compiled("linalg", "_flapack"), _compiled("linalg", "_fblas")


def routine(name: str, dtype: np.dtype):
    """The LAPACK or BLAS routine ``name`` (pbtrf, pbtrs, sbmv, hbmv): the
    z-prefixed one for a complex ``dtype``, else the d-prefixed one."""
    module = _FBLAS if name in ("sbmv", "hbmv") else _FLAPACK
    return getattr(module, ("z" if dtype.kind == "c" else "d") + name)


def cholesky(ab: np.ndarray) -> Optional[np.ndarray]:
    """Banded Cholesky factor (pbtrf), or None when the matrix is not positive definite."""
    factor, info = routine("pbtrf", ab.dtype)(ab)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of pbtrf")
    return factor if info == 0 else None


def solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X^-1 b (pbtrs) from the banded Cholesky factor of X."""
    x, info = routine("pbtrs", np.result_type(factor, b))(factor, b)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of pbtrs")
    return x


def matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """X @ x through BLAS sbmv (real) or hbmv (complex); a band and a vector
    of one dtype go straight to it, others are first cast to their common type."""
    if ab.dtype != x.dtype:
        dtype = np.result_type(ab, x)
        ab, x = ab.astype(dtype, copy=False), x.astype(dtype, copy=False)
    return routine("hbmv" if x.dtype.kind == "c" else "sbmv", x.dtype)(ab.shape[0] - 1, 1.0, ab, x)


def frobenius(ab: np.ndarray) -> float:
    """Frobenius norm of X: every off-diagonal entry counted twice; inf, with
    no warning, when its square overflows.

    Two dot products: sum |ab|^2 over the whole band, read as one flat real
    array, and sum |diagonal|^2, the norm being sqrt(2*all - diagonal).
    """
    p = ab.shape[0] - 1
    flat = ab.ravel(order="K")
    diagonal = ab[p]
    if ab.dtype.kind == "c":
        flat = flat.view(flat.real.dtype)
        parts = (diagonal.real, diagonal.imag)
    else:
        parts = (diagonal,)
    with np.errstate(over="ignore"):
        total = float(np.dot(flat, flat))
        diagonal2 = sum(float(np.dot(d, d)) for d in parts)
    if total == math.inf:       # 2*inf - inf would be nan
        return math.inf
    return math.sqrt(2.0 * total - diagonal2)


class CSR(NamedTuple):
    """A matrix of ``shape`` in compressed sparse row arrays: row i holds the
    entries data[indptr[i]:indptr[i + 1]] in the columns
    indices[indptr[i]:indptr[i + 1]], ascending, none of them zero."""
    shape: Tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _csr_rows(ab: np.ndarray):
    """X row by row: the columns and values of its nonzero entries, in
    row-major order, and the count of each row."""
    p, n = ab.shape[0] - 1, ab.shape[1]
    table = np.zeros((n, 2 * p + 1), dtype=ab.dtype)     # table[i, p + k] = X[i, i + k]
    table[:, p] = ab[p].real
    for k in range(1, p + 1):
        table[:n - k, p + k] = ab[p - k, k:]
        table[k:, p - k] = ab[p - k, k:].conj()
    keep = table != 0
    columns = np.arange(n)[:, None] + np.arange(-p, p + 1)
    return columns[keep], table[keep], keep.sum(axis=1)


def block_csr(blocks: Sequence[Tuple[float, np.ndarray, int]], n_block_columns: int) -> CSR:
    """The matrix whose i-th block row holds scale * X in block column ``column``
    and zeros elsewhere, for the i-th (scale, ab, column) of ``blocks``; all
    bands are of one order n.

    The arrays are those of ``scipy.sparse.bmat(..., format="csr")`` over
    ``scale * X`` in CSR form without stored zeros: a scale other than 1
    multiplies in the band's own dtype, before the cast to the common one,
    and the indices are int32, as scipy picks them below 2**31 rows and
    entries: the mesh floor caps n at 599,997, so evolve's four block rows
    hold at most 2.4e6 rows and 2.7e7 entries.
    """
    n = blocks[0][1].shape[1]
    columns, values, counts = [], [], []
    for scale, ab, column in blocks:
        c, v, k = _csr_rows(ab)
        columns.append(c + column * n)
        values.append(v if scale == 1.0 else v * scale)
        counts.append(k)
    data = np.concatenate(values)
    shape = (len(blocks) * n, n_block_columns * n)
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return CSR(shape, indptr, np.concatenate(columns).astype(np.int32), data)


def csr_product(B: CSR):
    """The product y = B @ x, written into y, of scipy's compiled kernel
    ``csr_matvec``: the kernel and summation order of ``csr_matrix @ x``, so
    the same bits.  x and y are arrays of B's dtype.

    The kernel adds into y, so the product zeroes y first.  It indexes x and
    y without bounds checks, so their lengths are checked here.  It is
    loaded by file from ``scipy/sparse/_sparsetools`` on the first call of
    this function, so that only a process that builds a product loads it.
    """
    kernel = _compiled("sparse", "_sparsetools").csr_matvec
    (n_row, n_col), indptr, indices, data = B

    def product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if x.shape != (n_col,) or y.shape != (n_row,):
            raise ValueError(f"a {n_row}x{n_col} product needs x of shape ({n_col},) and "
                             f"y of shape ({n_row},), got {x.shape} and {y.shape}")
        y.fill(0)
        kernel(n_row, n_col, indptr, indices, data, x, y)
        return y

    return product
