"""Multi-index combinatorics and tensor-product constructions.

The central objects are dense matrices whose columns are indexed by
non-decreasing index tuples: the symmetrized Kronecker lift of a matrix, the
permutation-averaging selector that converts a full Kronecker power into that
lift, and sparse merge operators that multiply monomial coefficient vectors.

Symmetric tensors are multiset index rows in lexicographic order plus their
orbit sizes (a plan per (n, d)), and for full n**d coordinates the orbit of
every flat position; every builder below is array arithmetic on these.  A
symmetric lift keeps one row per orbit and reads its isometric or full
coordinates off that.

All tensor reshaping is row-major with mode 1 slowest, so ``np.kron`` of
column vectors and ``ndarray.reshape`` agree with the flattening used here.
Every function is pure; returned arrays are owned by the caller.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

# Hard cap on the entries of any array built here; lifts are desk-scale.
MAX_DENSE_ENTRIES = 2**27
# Index structures up to this size stay in 32-slot LRU caches (36 MiB at
# most); larger ones are rebuilt on each call rather than kept.
_CACHED_ENTRIES = 2**15


class LiftSizeError(ValueError):
    """Requested index set or lift is too large to materialize."""


def _check_entries(shape: tuple[int, ...], what: str) -> None:
    """Refuse to build an array of this shape above MAX_DENSE_ENTRIES."""
    entries = math.prod(shape)
    if entries > MAX_DENSE_ENTRIES:
        raise LiftSizeError(
            f"{what} would have shape {shape}, {entries} entries, "
            f"above the materialization cap {MAX_DENSE_ENTRIES}")


class _IndexPlan(NamedTuple):
    rows: np.ndarray   # C(n+d-1, d) x d, 0-based non-decreasing, lexicographic
    orbit: np.ndarray  # distinct orderings of each row


def _build_plan(n: int, d: int) -> _IndexPlan:
    count = math.comb(n + d - 1, d)
    rows = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations_with_replacement(range(n), d)),
        dtype=np.int64, count=count * d).reshape(count, d)
    # The orbit of a prefix of length j+1 is the orbit of the length-j prefix
    # times (j+1) / (length of the run of equal entries ending at j).
    orbit = np.ones(count, dtype=np.int64)
    run = np.ones(count, dtype=np.int64)
    for j in range(1, d):
        run = np.where(rows[:, j] == rows[:, j - 1], run + 1, 1)
        orbit = orbit * (j + 1) // run
    rows.flags.writeable = False
    orbit.flags.writeable = False
    return _IndexPlan(rows, orbit)


_cached_plan = functools.lru_cache(maxsize=32)(_build_plan)


def _plan(n: int, d: int) -> _IndexPlan:
    """Multiset index rows over 0..n-1 and their orbit sizes (read-only)."""
    shape = (math.comb(n + d - 1, d), d)
    _check_entries(shape, f"the multiset index rows for n = {n}, d = {d}")
    return (_cached_plan if math.prod(shape) <= _CACHED_ENTRIES else _build_plan)(n, d)


def _flat(rows: np.ndarray, n: int) -> np.ndarray:
    """Row-major positions of 0-based index rows (last axis) in the n**d space."""
    d = rows.shape[-1]
    if n**d > np.iinfo(np.int64).max:
        raise LiftSizeError(f"positions in the {n}**{d} coordinate space overflow int64")
    return rows @ (n ** np.arange(d - 1, -1, -1, dtype=np.int64))


def _rank(sorted_rows: np.ndarray, n: int) -> np.ndarray:
    """Plan position of each non-decreasing 0-based index row (last axis)."""
    plan = _plan(n, sorted_rows.shape[-1])
    return np.searchsorted(_flat(plan.rows, n), _flat(sorted_rows, n))


class _Orbits(NamedTuple):
    ids: np.ndarray      # plan row of every flat position of the n**d space
    mean: sp.csr_matrix  # C(n+d-1, d) x n**d, averages the positions of each orbit


def _build_orbits(n: int, d: int) -> _Orbits:
    digits = np.indices((n,) * d).reshape(d, -1).T
    ids = _rank(np.sort(digits, axis=1), n)
    orbit = _plan(n, d).orbit
    mean = sp.csr_matrix((1.0 / orbit[ids], (ids, np.arange(ids.size))),
                         shape=(orbit.size, ids.size))
    for arr in (ids, mean.data, mean.indices, mean.indptr):
        arr.flags.writeable = False
    return _Orbits(ids, mean)


_cached_orbits = functools.lru_cache(maxsize=32)(_build_orbits)


def _orbits(n: int, d: int) -> _Orbits:
    """Orbit ids of the n**d space and the averaging map (shared, read-only).

    ``mean`` is sel_avg(n, d).T; ``(mean @ X)[ids]`` symmetrizes the rows of X.
    """
    _check_entries((n**d,), f"the orbit ids of the {n}**{d} coordinate space")
    return (_cached_orbits if n**d <= _CACHED_ENTRIES else _build_orbits)(n, d)


def enumerate_multi_indices(n: int, d: int) -> np.ndarray:
    """All non-decreasing d-tuples over 1..n in lexicographic order, one
    read-only row each (the plan rows, 1-based)."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    rows = _plan(n, d).rows + 1
    rows.flags.writeable = False
    return rows


def sym_coords(X: np.ndarray, n: int, d: int) -> np.ndarray:
    """Isometric multiset coordinates of flattened symmetric d-tensors (last
    axis): the entry at each multiset row times sqrt(its orbit size)."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != n**d:
        raise ValueError(f"expected {n}**{d} = {n**d} full coordinates, got {X.shape[-1]}")
    rows, orbit = _plan(n, d)
    return X[..., _flat(rows, n)] * np.sqrt(orbit)


def from_sym_coords(Y: np.ndarray, n: int, d: int) -> np.ndarray:
    """Flattened symmetric d-tensors with the given isometric coordinates
    (last axis); the inverse of :func:`sym_coords` on symmetric tensors."""
    Y = np.asarray(Y, dtype=float)
    orbit = _plan(n, d).orbit
    if Y.shape[-1] != orbit.size:
        raise ValueError(f"expected {orbit.size} symmetric coordinates, got {Y.shape[-1]}")
    return (Y * (1.0 / np.sqrt(orbit)))[..., _orbits(n, d).ids]


@dataclass(frozen=True)
class LiftMatrix:
    """The symmetric lift of an n x m matrix, stored once per orbit.

    ``means`` is C(n+d-1, d) x C(m+d-1, d): row I holds the lift's entries at
    every ordering of the multiset row I of the (n, d) plan, and column c is
    labelled by ``column_order[c]``, a non-decreasing 1-based m-tuple.
    ``coords`` (isometric coordinates, as ``sym_coords``) and ``data`` (full
    n**d rows) are built on each access.
    """

    means: np.ndarray
    n: int
    m: int
    d: int
    column_order: np.ndarray

    @property
    def coords(self) -> np.ndarray:
        return self.means * np.sqrt(_plan(self.n, self.d).orbit)[:, None]

    @property
    def data(self) -> np.ndarray:
        return self.means[_orbits(self.n, self.d).ids]

    def descriptor(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "d": self.d,
            "kind": "symmetrized",
            "column_order": self.column_order.tolist(),
        }


def kron_power(U: np.ndarray, d: int) -> np.ndarray:
    """d-fold Kronecker power of U."""
    U = np.asarray(U, dtype=float)
    if d < 1:
        raise ValueError("d must be at least 1")
    dims = ", ".join(f"{name} = {k}" for name, k in zip("nm", U.shape))
    _check_entries(tuple(k**d for k in U.shape), f"the Kronecker power with {dims}, d = {d}")
    return reduce(np.kron, [U] * d)


def khatri_rao(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product; column i is a_i tensor b_i."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"column counts differ: {A.shape[1]} vs {B.shape[1]}")
    na, nb, m = A.shape[0], B.shape[0], A.shape[1]
    return (A[:, None, :] * B[None, :, :]).reshape(na * nb, m)


def sym_kron(factors: list[np.ndarray]) -> np.ndarray:
    """Symmetrized Kronecker product of d equal-shape n x m factors.

    The column for a non-decreasing tuple (i_1, ..., i_d), in the order of
    ``enumerate_multi_indices(m, d)``, is the average over all permutations
    pi of factor_1[:, i_pi(1)] tensor ... tensor factor_d[:, i_pi(d)]: the
    Kronecker product times ``sel_avg(m, d)``, formed C(m+d-1, d) Kronecker
    columns at a time so no temporary outgrows the result.  With distinct
    factors the columns are not symmetric tensors, so the result is a plain
    n**d x C(m+d-1, d) array rather than a :class:`LiftMatrix`.
    """
    mats = [np.asarray(F, dtype=float) for F in factors]
    d = len(mats)
    if d < 1:
        raise ValueError("need at least one factor")
    shape = mats[0].shape
    if any(M.shape != shape for M in mats):
        raise ValueError("all factors must share the same shape")
    n, m = shape
    width = math.comb(m + d - 1, d)
    _check_entries((n**d, width), f"the symmetrized lift with n = {n}, m = {m}, d = {d}")
    select = _orbits(m, d).mean.T.tocsr()
    digits = np.indices((m,) * d).reshape(d, -1)
    data = np.zeros((n**d, width))
    for start in range(0, m**d, width):
        block = slice(start, start + width)
        data += reduce(khatri_rao, [M[:, cols] for M, cols in zip(mats, digits[:, block])]) \
            @ select[block]
    return data


def sym_lift(U: np.ndarray, d: int) -> LiftMatrix:
    """Symmetric d-th order lift of U (the d-fold symmetrized Kronecker power).

    With equal factors, permuting the column indices of a Kronecker column
    permutes its tensor modes, so the column for a multiset row is the
    mode-permutation average of its single Kronecker column; only the orbit
    means of those averages are kept.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    U = np.asarray(U, dtype=float)
    n, m = U.shape
    column_order = enumerate_multi_indices(m, d)
    _check_entries((n**d, len(column_order)),
                   f"the symmetrized lift with n = {n}, m = {m}, d = {d}")
    # np.take keeps the n**d-row Kronecker columns C-contiguous, so the sparse
    # product reads them in place.
    means = _orbits(n, d).mean @ reduce(
        khatri_rao, [np.take(U, col, axis=1) for col in _plan(m, d).rows.T])
    return LiftMatrix(means, n=n, m=m, d=d, column_order=column_order)


def sym_project(v: np.ndarray, n: int, d: int) -> np.ndarray:
    """Average a flattened d-tensor, or each column of a matrix of them, over
    all d! mode permutations."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != n**d:
        raise ValueError(f"expected {n}**{d} = {n**d} rows, got shape {v.shape}")
    ids, mean = _orbits(n, d)
    return (mean @ v)[ids]


def sym_projector_matrix(n: int, d: int) -> np.ndarray:
    """Dense n**d x n**d matrix of the mode-permutation averaging projector."""
    _check_entries((n**d, n**d), f"the projector with n = {n}, d = {d}")
    ids = _orbits(n, d).ids
    return np.where(ids[:, None] == ids, 1.0 / _plan(n, d).orbit[ids], 0.0)


def sel_avg(m: int, d: int) -> np.ndarray:
    """Selector converting a full Kronecker power into the symmetrized lift.

    The unique m**d x C(m+d-1, d) matrix with (V1 tensor ... tensor Vd) @
    sel_avg(m, d) equal to the permutation-averaged columns for any factors.
    Columns have disjoint supports, so its singular values are the column
    norms; they all lie in [1/sqrt(d!), 1].
    """
    if m < 1 or d < 1:
        raise ValueError("m and d must be at least 1")
    _check_entries((m**d, math.comb(m + d - 1, d)), f"the selector with m = {m}, d = {d}")
    return _orbits(m, d).mean.T.toarray()


@dataclass(frozen=True)
class SymMergeOperator:
    """Sparse map merging two symmetric coordinate spaces into a higher one.

    Maps the basis pair (I, J) of degree-k1 and degree-k2 multisets to the
    basis vector of the multiset union I + J in degree k1+k2.  The
    ``unit_merge`` variant has a single entry 1 per column (polynomial
    multiplication of monomial coefficient vectors); ``weighted_merge``
    rescales rows and columns so the operator agrees with the orthogonal
    symmetrization expressed in isometric coordinates.  Both variants share
    the sparsity pattern and hence the rank.
    """

    n: int
    k1: int
    k2: int
    variant: str
    data: sp.csr_matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def sym_merge(n: int, k1: int, k2: int, variant: str = "unit_merge") -> SymMergeOperator:
    """Build the degree-(k1+k2) merge operator over n variables."""
    if variant not in ("unit_merge", "weighted_merge"):
        raise ValueError(f"unknown variant {variant!r}")
    if n < 1 or k1 < 1 or k2 < 1:
        raise ValueError("n, k1, k2 must be at least 1")
    left, right, out = _plan(n, k1), _plan(n, k2), _plan(n, k1 + k2)
    # Column (I, J), I slow, is the multiset union of left row I and right row J.
    pairs = np.hstack([np.repeat(left.rows, len(right.rows), axis=0),
                       np.tile(right.rows, (len(left.rows), 1))])
    rows = _rank(np.sort(pairs, axis=1), n)
    # prod(multiplicity!) of the union K is (k1+k2)! / orbit(K).
    d_tot = math.factorial(k1 + k2)
    vals = np.ones(rows.size) if variant == "unit_merge" else np.sqrt(
        np.outer(left.orbit, right.orbit).ravel() * (d_tot // out.orbit[rows]) / d_tot)
    data = sp.csr_matrix((vals, (rows, np.arange(rows.size))), shape=(out.orbit.size, rows.size))
    return SymMergeOperator(n=n, k1=k1, k2=k2, variant=variant, data=data)
