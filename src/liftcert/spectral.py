"""Singular-value queries, leave-one-out distances, and the Khatri-Rao Jacobian.

Everything here is an exact dense decomposition (LAPACK via numpy); there is
no sketching or iteration.  Every rank decision and every count of singular
values is ``_rank_of_values``: a numerical-zero cut of 1e-10 times the largest
singular value, or the caller's (jacobian_probe's ``tau_factor * rho``, never
below that default cut).
"""

from __future__ import annotations

import numpy as np

from .tensor_lift import _check_entries

DEFAULT_RTOL = 1e-10


class NonFiniteMatrixError(ArithmeticError, ValueError):
    """An inf or nan at a decomposition: inputs are checked finite, so an overflow."""


def sign_normalize_rows(M: np.ndarray) -> np.ndarray:
    """Copy of M with signs flipped so each row's first entry above 1e-12 in
    magnitude is positive.  Pass ``M.T`` to normalize columns instead."""
    M = np.asarray(M, dtype=float)
    big = np.abs(M) > 1e-12
    lead = np.take_along_axis(M, big.argmax(axis=1)[:, None], axis=1)[:, 0]
    return np.where((big.any(axis=1) & (lead < 0))[:, None], -M, M)


# Fewer columns than this, and QR first measured no faster on random dense
# matrices (one BLAS thread); at 256 columns it was up to 18% slower.
_QR_FIRST_MIN_COLS = 384


def stacked_singular_values(A: np.ndarray) -> np.ndarray:
    """All singular values of each matrix of a (..., rows, cols) stack, each
    in non-increasing order.

    LAPACK runs on each matrix on its own, so every slice is bit for bit the
    singular values of that matrix alone.  A mid-tall shape, with its larger
    dimension from 1.5 to 11/6 times its smaller one and at least
    ``_QR_FIRST_MIN_COLS`` in the smaller, goes through the SVD of its
    triangular QR factor R, as in Chan, "An improved algorithm for computing
    the singular value decomposition", ACM TOMS 8(1), 1982.  LAPACK's
    ``gesdd`` takes that QR itself only from 11/6 rows per column (its
    MNTHR); below that it bidiagonalizes all of A.  Every other shape is one
    direct ``np.linalg.svd``.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise NonFiniteMatrixError("matrix has non-finite entries")
    shape = A.shape[-2:]
    if min(shape) == 0:
        return np.zeros((*A.shape[:-2], 0))
    rows, cols = max(shape), min(shape)
    if cols >= _QR_FIRST_MIN_COLS and 1.5 * cols <= rows < 11 * cols / 6:
        R = np.linalg.qr(A if shape[0] == rows else A.swapaxes(-1, -2), mode="r")
        return np.linalg.svd(R, compute_uv=False)
    return np.linalg.svd(A, compute_uv=False)


def singular_values(A: np.ndarray) -> np.ndarray:
    """All singular values of the matrix A in non-increasing order: the
    stack of :func:`stacked_singular_values` with no leading axes."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {A.shape}")
    return stacked_singular_values(A)


def check_orthonormal(basis: np.ndarray) -> None:
    """Refuse a basis whose Gram residual ||B^T B - I||_F exceeds 1e-8 or is nan."""
    gram_resid = np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1]))
    if not gram_resid <= 1e-8:
        raise ValueError(f"basis is not orthonormal (Gram residual {gram_resid:.3e})")


def _rank_of_values(s: np.ndarray, tolerance: float | None = None) -> int:
    """Number of non-increasing singular values s at or above the tolerance
    (default DEFAULT_RTOL times the largest); 0 when the largest is zero."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = DEFAULT_RTOL * s[0] if tolerance is None else tolerance
    return int(np.count_nonzero(s >= tol))


def _inverse_r(U: np.ndarray) -> np.ndarray | None:
    """Inverse of the triangular factor R of U = QR, or None when the columns
    of U are dependent: more columns than rows, or a zero pivot of R.

    An inverse with an entry beyond the float range also gives None: that
    entry's row, and so its leave-one-out distance, is then below 1e-308.
    """
    if not np.isfinite(U).all():
        raise NonFiniteMatrixError("matrix has non-finite entries")
    rows, cols = U.shape
    if cols > rows:
        return None
    R = np.linalg.qr(U, mode="r")
    if not np.diagonal(R).all():
        return None
    Ri = np.linalg.inv(R)
    return Ri if np.isfinite(Ri).all() else None


def leave_one_out(U: np.ndarray) -> float:
    """Minimum distance of any column of U to the span of the other columns.

    Sandwiches the least singular value: leave_one_out(U) / sqrt(m) <=
    sigma_min(U) <= leave_one_out(U) for an m-column U.  With U = QR the
    distance of column i is 1 / ||row i of R^-1|| (row i of the
    pseudoinverse R^-1 Q^T has the same norm), so one QR factorisation gives
    every distance.  The value is exactly 0.0 when U has more columns than
    rows, R has a zero pivot or R^-1 overflows; other dependent columns give
    a value at rounding level.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] < 1:
        raise ValueError("U must be a matrix with at least one column")
    Ri = _inverse_r(U)
    if Ri is None:
        return 0.0
    return float(1.0 / np.linalg.norm(Ri, axis=1).max())


def jacobian_khatri_rao(alpha: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Jacobian of sum_i alpha_i u_i tensor v_i with respect to all entries.

    Output is n^2 x 2nm: first the u-blocks (for each column i, the n partial
    derivatives place alpha_i * v_i in consecutive row blocks), then the
    v-blocks.
    """
    alpha = np.asarray(alpha, dtype=float)
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != V.shape or alpha.shape != (U.shape[1],):
        raise ValueError("alpha, U, V shapes are inconsistent")
    n, m = U.shape
    _check_entries((n * n, 2 * n * m), "the Khatri-Rao Jacobian")
    eye = np.eye(n)
    # Entry ((j, k), (i, l)) of the u-block is [j = l] alpha_i V[k, i]; of
    # the v-block, [k = l] alpha_i U[j, i].
    du = eye[:, None, None, :] * (alpha * V)[None, :, :, None]
    dv = (alpha * U)[:, None, :, None] * eye[None, :, None, :]
    return np.hstack([du.reshape(n * n, n * m), dv.reshape(n * n, n * m)])
