"""Hermitian matrices in LAPACK upper band storage.

A Hermitian matrix X of half-bandwidth p and order n is held as an array
ab of shape (p + 1, n) with ab[p - k, j] = X[j - k, j] for 0 <= k <= p,
the layout of ``scipy.linalg.cholesky_banded``.  Entries ab[p - k, j] with
j < k point above the matrix and are kept zero.  The per-mode forms have
p = 5 (two nodes of three components each).

Factorizations, solves and products call LAPACK ``pbtrf``/``pbtrs`` and
BLAS ``sbmv``/``hbmv`` directly: the calls of ``scipy.linalg.cholesky_banded``
and ``cho_solve_banded`` with ``check_finite=False``, and the same bits,
without their per-call validation.  The handles are the f2py routines of
scipy's compiled modules ``scipy/linalg/_flapack`` and ``_fblas``, loaded
by file, so that ``scipy/linalg/__init__.py`` never runs: it would load
scipy's array-API layer, ``numpy.f2py``, ``numpy.testing`` and the rest of
``scipy.linalg``, about 16 MB and 0.2 s per process.  They are the objects
``scipy.linalg.get_lapack_funcs`` and ``get_blas_funcs`` return.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import Optional

import numpy as np
import scipy


def _compiled(name: str):
    """scipy's compiled module ``scipy.linalg.<name>``, loaded from its file.

    It is registered under its dotted name, and an entry already there is
    reused, so a later ``import scipy.linalg`` shares the module object.
    """
    dotted = f"scipy.linalg.{name}"
    if dotted in sys.modules:
        return sys.modules[dotted]
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    for path in (os.path.join(directory, name + suffix) for suffix in suffixes):
        if os.path.isfile(path):
            break
    else:
        raise ImportError(
            f"no file {os.path.join(directory, name)}{{{','.join(suffixes)}}}: rtspectra.band "
            "loads scipy's compiled LAPACK and BLAS wrappers scipy/linalg/_flapack and _fblas "
            "by file")
    spec = importlib.util.spec_from_file_location(dotted, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[dotted] = module
    return module


_FLAPACK, _FBLAS = _compiled("_flapack"), _compiled("_fblas")


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


def jacobi_scaled(ab: np.ndarray, d: np.ndarray) -> np.ndarray:
    """diag(d) X diag(d): entry (j-k, j) scaled by d[j-k] * d[j]."""
    p, n = ab.shape[0] - 1, ab.shape[1]
    out = np.zeros_like(ab)
    for k in range(p + 1):
        out[p - k, k:] = ab[p - k, k:] * (d[:n - k] * d[k:])
    return out


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


def to_csr(ab: np.ndarray):
    """X as a CSR matrix without stored zeros."""
    # only evolve builds CSR matrices; importing scipy.sparse here keeps it
    # out of every other command's process
    from scipy.sparse import diags
    p, n = ab.shape[0] - 1, ab.shape[1]
    upper = [ab[p - k, k:] for k in range(1, p + 1)]
    X = diags([u.conj() for u in upper[::-1]] + [ab[p].real.astype(ab.dtype)] + upper,
              range(-p, p + 1), shape=(n, n), format="csr", dtype=ab.dtype)
    X.eliminate_zeros()
    return X
