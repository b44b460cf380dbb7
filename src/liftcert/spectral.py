"""Singular-value queries, leave-one-out distances, and column selection.

Everything here is an exact dense decomposition (LAPACK via numpy); there is
no sketching or iteration.  Rank decisions use a numerical-zero threshold of
1e-10 times the largest singular value unless the caller overrides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_RTOL = 1e-10


class RankError(ValueError):
    """The input does not have the rank the operation requires."""


class NonFiniteMatrixError(ArithmeticError, ValueError):
    """An inf or nan at a decomposition: inputs are checked finite, so an overflow."""


def sign_normalize_rows(M: np.ndarray) -> np.ndarray:
    """Copy of M with signs flipped so each row's first entry above 1e-12 in
    magnitude is positive.  Pass ``M.T`` to normalize columns instead."""
    M = np.asarray(M, dtype=float)
    big = np.abs(M) > 1e-12
    lead = np.take_along_axis(M, big.argmax(axis=1)[:, None], axis=1)[:, 0]
    return np.where((big.any(axis=1) & (lead < 0))[:, None], -M, M)


def singular_values(A: np.ndarray) -> np.ndarray:
    """All singular values of A in non-increasing order."""
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise NonFiniteMatrixError("matrix has non-finite entries")
    if min(A.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(A, compute_uv=False)


def check_orthonormal(basis: np.ndarray) -> None:
    """Refuse a basis whose Gram residual ||B^T B - I||_F exceeds 1e-8."""
    gram_resid = np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1]))
    if gram_resid > 1e-8:
        raise ValueError(f"basis is not orthonormal (Gram residual {gram_resid:.3e})")


def count_large_singulars(A: np.ndarray, tau: float) -> int:
    """Number of singular values of A that are >= tau."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    return int(np.count_nonzero(singular_values(A) >= tau))


def _rank_of_values(s: np.ndarray, tolerance: float | None = None) -> int:
    """Number of non-increasing singular values s at or above the tolerance
    (default DEFAULT_RTOL times the largest); 0 when the largest is zero."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = DEFAULT_RTOL * s[0] if tolerance is None else tolerance
    return int(np.count_nonzero(s >= tol))


def numerical_rank(A: np.ndarray, tolerance: float | None = None) -> int:
    return _rank_of_values(singular_values(A), tolerance)


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


@dataclass(frozen=True)
class BlockFamily:
    """A list of equal-row-count matrices with identifying labels."""

    blocks: list[np.ndarray]
    labels: list = field(default_factory=list)

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("block family must be nonempty")
        rows = self.blocks[0].shape[0]
        if any(B.shape[0] != rows for B in self.blocks):
            raise ValueError("all blocks must share a row count")
        if not self.labels:
            object.__setattr__(self, "labels", list(range(len(self.blocks))))
        elif len(self.labels) != len(self.blocks):
            raise ValueError("labels must match blocks")

    @property
    def rows(self) -> int:
        return self.blocks[0].shape[0]

    def concat(self) -> np.ndarray:
        return np.hstack(self.blocks)


def block_leave_one_out(family: BlockFamily) -> float:
    """Blockwise leave-one-out distance: min over j of sigma_min of block j
    after projecting out the span of all other blocks.

    For t blocks, the value sandwiches sigma_min of the concatenation within a
    sqrt(t) factor.  With the concatenation factored as QR, the Schur
    complement identity gives block j's value as 1 / sigma_max(R^-1[J_j, :])
    for its column range J_j.  The value is exactly 0.0 when a block has no
    columns, when the concatenation has more columns than rows, or when R
    has a zero pivot or R^-1 overflows.
    """
    widths = [B.shape[1] for B in family.blocks]
    if min(widths) == 0:
        return 0.0
    Ri = _inverse_r(np.asarray(family.concat(), dtype=float))
    if Ri is None:
        return 0.0
    rows_of_blocks = np.split(Ri, np.cumsum(widths)[:-1])
    return float(1.0 / max(np.linalg.norm(part, 2) for part in rows_of_blocks))


def orth_complement_projector(columns: np.ndarray, tolerance: float | None = None) -> np.ndarray:
    """Projector onto the orthogonal complement of the column span."""
    columns = np.asarray(columns, dtype=float)
    if columns.size == 0:
        return np.eye(columns.shape[0])
    U, s, _ = np.linalg.svd(columns, full_matrices=False)
    Q = U[:, :_rank_of_values(s, tolerance)]
    return np.eye(columns.shape[0]) - Q @ Q.T


def _spanner_indices(B: np.ndarray, swap_ratio: float, start: list[int] | None = None) -> list[int]:
    """Indices of a volume-maximal k-subset of the columns of the k x n matrix B.

    Local search: replace a selected column whenever the swap multiplies the
    absolute determinant by more than ``swap_ratio``.  At termination every
    column of B is a combination of the selected ones with coefficients
    bounded by ``swap_ratio``.
    """
    k, n = B.shape
    if start is None:
        # Greedy volume build-up: pick the column with the largest residual.
        S: list[int] = []
        R = B.copy()
        for _ in range(k):
            j = int(np.argmax(np.linalg.norm(R, axis=0)))
            S.append(j)
            col = B[:, S].copy()
            Q, _ = np.linalg.qr(col)
            R = B - Q @ (Q.T @ B)
    else:
        S = list(start)
    while True:
        BS = B[:, S]
        try:
            coeff = np.linalg.solve(BS, B)
        except np.linalg.LinAlgError:
            coeff, *_ = np.linalg.lstsq(BS, B, rcond=None)
        coeff = np.abs(coeff)
        coeff[:, S] = 0.0
        pos, j = np.unravel_index(int(np.argmax(coeff)), coeff.shape)
        if coeff[pos, j] <= swap_ratio:
            return S
        S[pos] = int(j)


def wellcond_column_subset(A: np.ndarray, k: int, tolerance: float | None = None) -> list[int]:
    """A k-subset S of column indices with sigma_k(A[:, S]) >= sigma_k(A) / (2 sqrt(nk)).

    n is the number of columns of A.  Uses a greedy 2-approximate volume
    spanner on the columns projected to the top-k singular space; the factor 2
    in the guarantee is the price of that approximation.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    if not 1 <= k <= min(A.shape):
        raise ValueError(f"k = {k} out of range for shape {A.shape}")
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    tol = DEFAULT_RTOL * (s[0] if s.size else 0.0) if tolerance is None else tolerance
    if s[k - 1] <= tol:
        raise RankError(f"sigma_{k}(A) = {s[k-1]:.3e} is below the tolerance {tol:.3e}")
    B = U[:, :k].T @ A
    return sorted(_spanner_indices(B, swap_ratio=2.0))


def spread_vector(basis: np.ndarray) -> np.ndarray:
    """A unit vector in the span of an orthonormal n x k basis with at least
    k coordinates of magnitude >= 1/(k sqrt(n)).

    Found through a volume-maximal subset of the rows: local search runs to a
    true local optimum (swap ratio 1), where the k selected rows express every
    other row with coefficients at most 1.
    """
    basis = np.asarray(basis, dtype=float)
    check_orthonormal(basis)
    k = basis.shape[1]
    rows = _spanner_indices(basis.T, swap_ratio=2.0)
    rows = _spanner_indices(basis.T, swap_ratio=1.0, start=rows)
    alpha = np.linalg.solve(basis[rows, :], np.full(k, 1.0 / math.sqrt(k)))
    return basis @ (alpha / np.linalg.norm(alpha))


@dataclass(frozen=True)
class GoodBlocksResult:
    """Surviving blocks of the random-restriction selection with their
    relative singular values (block spectrum after projecting out the other
    survivors)."""

    selected: list
    relative_sigmas: dict
    params: dict
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "selected": list(self.selected),
            "relative_sigmas": {str(k): float(v) for k, v in self.relative_sigmas.items()},
            "params": self.params,
            "seed": self.seed,
        }


def good_blocks(family: BlockFamily, delta: float, rng: np.random.Generator,
                c1: float = 1.0 / 6.0, c2: float = 1.0 / 6.0,
                survival_fraction: float = 1.0 / 6.0,
                component_threshold: float | None = None,
                seed: int | None = None) -> GoodBlocksResult:
    """Randomly select blocks that keep large rank relative to each other.

    Three steps: (1) pick a well-conditioned subset M of ceil(delta * n1 * n2)
    columns of the concatenation, (2) include block j with probability
    c1 * |M in block j| / n2, (3) discard included blocks with fewer than
    survival_fraction * delta * n2 columns of M retaining a component of at
    least ``component_threshold`` orthogonal to the span of the other included
    blocks.  An empty survivor set is a reported outcome, not an error: the
    guarantee behind the procedure is probabilistic.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    n1 = len(family.blocks)
    n2 = family.blocks[0].shape[1]
    if any(B.shape[1] != n2 for B in family.blocks):
        raise ValueError("good_blocks expects equal-width blocks")
    R = family.rows
    k = math.ceil(delta * n1 * n2)
    concat = family.concat()
    chosen = wellcond_column_subset(concat, k)
    in_block: dict[int, list[int]] = {j: [] for j in range(n1)}
    for idx in chosen:
        in_block[idx // n2].append(idx % n2)
    alphas = {j: len(in_block[j]) / n2 for j in range(n1)}

    draws = rng.random(n1)
    T = [j for j in range(n1) if draws[j] < c1 * alphas[j]]

    if component_threshold is None:
        component_threshold = 1.0 / (R * n1 * n2 * math.sqrt(delta))
    need = delta * n2 * survival_fraction
    survivors = []
    for j in T:
        others = [family.blocks[r] for r in T if r != j]
        P = orth_complement_projector(np.hstack(others)) if others else np.eye(R)
        cols = family.blocks[j][:, in_block[j]]
        if cols.shape[1] == 0:
            continue
        comp = np.linalg.norm(P @ cols, axis=0)
        if np.count_nonzero(comp >= component_threshold) >= need:
            survivors.append(j)

    sigma_index = max(1, math.ceil(c2 * delta * n2))
    rel = {}
    for j in survivors:
        others = [family.blocks[r] for r in survivors if r != j]
        P = orth_complement_projector(np.hstack(others)) if others else np.eye(R)
        s = singular_values(P @ family.blocks[j])
        rel[family.labels[j]] = float(s[sigma_index - 1]) if sigma_index <= s.size else 0.0

    return GoodBlocksResult(
        selected=[family.labels[j] for j in survivors],
        relative_sigmas=rel,
        params={"delta": delta, "c1": c1, "c2": c2,
                "survival_fraction": survival_fraction,
                "component_threshold": component_threshold},
        seed=seed,
    )


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
    eye = np.eye(n)
    # Entry ((j, k), (i, l)) of the u-block is [j = l] alpha_i V[k, i]; of
    # the v-block, [k = l] alpha_i U[j, i].
    du = eye[:, None, None, :] * (alpha * V)[None, :, :, None]
    dv = (alpha * U)[:, None, :, None] * eye[None, :, None, :]
    return np.hstack([du.reshape(n * n, n * m), dv.reshape(n * n, n * m)])
