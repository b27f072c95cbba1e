"""Hermitian matrices in LAPACK upper band storage.

A Hermitian matrix X of half-bandwidth p and order n is held as an array
ab of shape (p + 1, n) with ab[p - k, j] = X[j - k, j] for 0 <= k <= p,
the layout of ``scipy.linalg.cholesky_banded``.  Entries ab[p - k, j] with
j < k point above the matrix and are kept zero.  The per-mode forms have
p = 5 (two nodes of three components each), the scalar gravity kernel
p = 1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy.sparse import csr_matrix, diags


def from_element_blocks(blocks: np.ndarray, stride: int) -> np.ndarray:
    """Interior band matrix from element blocks of shape (ne, 2*stride, 2*stride).

    Element e's block sits at dof offset stride*e, so its (a, b) entry lands
    in column stride*e + b.  Only the upper triangle (a <= b) is stored, and
    for one (a, b) no two elements share a column.  The Dirichlet ends (the
    first and last `stride` dofs) are then cut.
    """
    ne, m = blocks.shape[:2]
    p = m - 1
    ab = np.zeros((m, stride * (ne + 1)), dtype=blocks.dtype)
    for a in range(m):
        for b in range(a, m):
            ab[p - (b - a), b:b + stride * ne:stride] += blocks[:, a, b]
    ab = ab[:, stride:-stride].copy()
    for k in range(1, m):
        ab[p - k, :k] = 0.0     # entries of the removed rows
    return ab


def cholesky(ab: np.ndarray) -> Optional[np.ndarray]:
    """Banded Cholesky factor, or None when the matrix is not positive definite."""
    try:
        return sla.cholesky_banded(ab, check_finite=False)
    except sla.LinAlgError:
        return None


def matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """X @ x through BLAS sbmv (real) or hbmv (complex)."""
    dtype = np.result_type(ab, x)
    fn = sla.get_blas_funcs("hbmv" if dtype.kind == "c" else "sbmv", dtype=dtype)
    return fn(ab.shape[0] - 1, 1.0, ab.astype(dtype, copy=False), x.astype(dtype, copy=False))


def jacobi_scaled(ab: np.ndarray, d: np.ndarray) -> np.ndarray:
    """diag(d) X diag(d): entry (j-k, j) scaled by d[j-k] * d[j]."""
    p, n = ab.shape[0] - 1, ab.shape[1]
    out = np.zeros_like(ab)
    for k in range(p + 1):
        out[p - k, k:] = ab[p - k, k:] * (d[:n - k] * d[k:])
    return out


def frobenius(ab: np.ndarray) -> float:
    """Frobenius norm of X: every off-diagonal entry counted twice."""
    p = ab.shape[0] - 1
    return float(np.sqrt(np.sum(np.abs(ab[p]) ** 2) + 2.0 * np.sum(np.abs(ab[:p]) ** 2)))


def _diagonals(ab: np.ndarray):
    """Offsets and diagonals of X, from -p to p."""
    p = ab.shape[0] - 1
    upper = [ab[p - k, k:] for k in range(1, p + 1)]
    return (list(range(-p, p + 1)),
            [u.conj() for u in upper[::-1]] + [ab[p].real.astype(ab.dtype)] + upper)


def to_csr(ab: np.ndarray) -> csr_matrix:
    """X as a CSR matrix without stored zeros."""
    n = ab.shape[1]
    offsets, data = _diagonals(ab)
    X = diags(data, offsets, shape=(n, n), format="csr", dtype=ab.dtype)
    X.eliminate_zeros()
    return X


def to_dense(ab: np.ndarray) -> np.ndarray:
    """X as a dense n x n array (for deflation, export and tests only)."""
    n = ab.shape[1]
    X = np.zeros((n, n), dtype=ab.dtype)
    for k, diag in zip(*_diagonals(ab)):
        i = np.arange(n - abs(k))
        X[i + max(-k, 0), i + max(k, 0)] = diag
    return X
