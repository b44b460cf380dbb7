"""Multi-index combinatorics and tensor-product constructions.

The central objects are dense matrices whose columns are indexed by
non-decreasing index tuples: the symmetrized Kronecker lift of a matrix, the
permutation-averaging selector that converts a full Kronecker power into that
lift, and sparse merge operators that multiply monomial coefficient vectors.

Symmetric tensors are multiset index rows in lexicographic order plus their
orbit sizes (a plan per (n, d)), and for full n**d coordinates the orbit of
every flat position plus the positions of each orbit; every builder below is
numpy array arithmetic on these.  A symmetric lift keeps one row per orbit
and reads its isometric or full coordinates off that.  Lifts and
symmetrized Kronecker products are means over the orderings of each column
multiset, formed by one kernel; since the lift of U.T is the transpose of
the lift of U, a lift averages over the orderings of its smaller side.

All tensor reshaping is row-major with mode 1 slowest, so ``np.kron`` of
column vectors and ``ndarray.reshape`` agree with the flattening used here.
Every function is pure; returned arrays are owned by the caller unless
they are read-only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

# Hard cap on the entries of any array built here; lifts are desk-scale.
MAX_DENSE_ENTRIES = 2**27
# Index structures up to this size stay in 32-slot LRU caches; larger ones
# are rebuilt on each call rather than kept.
_CACHED_ENTRIES = 2**15
# Grouped sums gather at most this many entries at a time, so their
# temporaries stay within a core's cache.
_TERM_ENTRIES = 2**16
# Means over column orderings use one dense sel_avg(m, d) product while it
# has at most this many entries (and the orderings fit the lift), orbit sums
# otherwise.  In a sweep over d = 2..4 on a 2-vCPU VM with OpenBLAS the
# dense product won up to about 2k to 9k entries, depending on d.
_COLUMN_SELECT_ENTRIES = 2**12


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


def _index_rows(n: int, d: int) -> np.ndarray:
    """Every 0-based index row of the n**d space, in row-major position order."""
    _check_entries((n**d, d), f"the index rows of the {n}**{d} coordinate space")
    rows = np.arange(n**d)[:, None] // n ** np.arange(d - 1, -1, -1)
    rows %= n
    return rows


def _rank(sorted_rows: np.ndarray, n: int) -> np.ndarray:
    """Plan position of each non-decreasing 0-based index row (last axis)."""
    plan = _plan(n, sorted_rows.shape[-1])
    return np.searchsorted(_flat(plan.rows, n), _flat(sorted_rows, n))


def _members_by_count(labels: np.ndarray, count: np.ndarray) -> tuple:
    """For each member count c: (the labels with c members, a c x labels
    array holding each label's member positions in increasing order).
    ``count`` is the member count of every label; the arrays are read-only."""
    order = np.argsort(labels, kind="stable")
    start = np.cumsum(count) - count
    groups = tuple((rows, order[start[rows] + np.arange(c)[:, None]])
                   for c in np.unique(count[count > 0])
                   for rows in [np.flatnonzero(count == c)])
    for arr in itertools.chain.from_iterable(groups):
        arr.flags.writeable = False
    return groups


class _Orbits(NamedTuple):
    ids: np.ndarray     # plan row of every flat position of the n**d space
    weight: np.ndarray  # 1 / the orbit size of every flat position
    groups: tuple       # _members_by_count(ids, orbit): the positions of each orbit


def _build_orbits(n: int, d: int) -> _Orbits:
    # Capped at n**d x d entries (2**24 positions would need over 500 MB).
    # Position a * n**(k-1) + q holds {a} plus the multiset at q of the
    # n**(k-1) space, so the ids grow one digit at a time.
    _check_entries((n**d, d), f"the index rows of the {n}**{d} coordinate space")
    plan, ids = _build_plan(n, 0), np.zeros(1, dtype=np.int64)
    for k in range(1, d + 1):
        prev, plan = plan, _build_plan(n, k)
        rows = np.column_stack([np.repeat(np.arange(n), len(prev.rows)), np.tile(prev.rows, (n, 1))])
        table = np.searchsorted(_flat(plan.rows, n), _flat(np.sort(rows, axis=1), n))
        ids = table.reshape(n, -1)[:, ids].ravel()
    weight = 1.0 / plan.orbit[ids]
    ids.flags.writeable = False
    weight.flags.writeable = False
    return _Orbits(ids, weight, _members_by_count(ids, plan.orbit))


_cached_orbits = functools.lru_cache(maxsize=32)(_build_orbits)


def _orbits(n: int, d: int) -> _Orbits:
    """Orbit ids and weights of the n**d space and the positions of each
    orbit (shared, read-only)."""
    _check_entries((n**d,), f"the orbit ids of the {n}**{d} coordinate space")
    return (_cached_orbits if n**d <= _CACHED_ENTRIES else _build_orbits)(n, d)


def _grouped_sum(groups: tuple, count: int, A: np.ndarray, B: np.ndarray | None = None,
                 weight: np.ndarray | None = None) -> np.ndarray:
    """The ``count`` rows whose members ``groups`` lists (``_members_by_count``):
    row r is the sum, over its members p, of weight[p] * A[p // len(B)] *
    B[p % len(B)], or of weight[p] * A[p] without B (no weight: 1).

    Only the terms of one chunk of rows exist at a time.  A row adds its
    terms one at a time in increasing member order, so every sum rounds as
    in a sparse product.  Numpy sums arrays along the first axis in that
    order, but a run of single numbers pairwise, so a chunk of one entry is
    added in Python.
    """
    width = A.shape[1]
    out = np.empty((count, width))
    for rows, members in groups:
        step = max(1, _TERM_ENTRIES // (len(members) * width))
        for start in range(0, len(rows), step):
            part = members[:, start:start + step]
            if B is None:
                terms = np.take(A, part, axis=0)
            else:
                high, low = np.divmod(part, len(B))
                terms = np.take(A, high, axis=0)
                terms *= np.take(B, low, axis=0)
            if weight is not None:
                terms *= np.take(weight, part)[..., None]
            out[rows[start:start + step]] = (
                terms.sum(axis=0) if terms[0].size > 1 else sum(terms[1:], terms[0]))
    return out


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

    ``means`` is C(n+d-1, d) x C(m+d-1, d), after any leading stack axes:
    row I holds the lift's entries at every ordering of the multiset row I
    of the (n, d) plan, and column c is labelled by ``column_order[c]``, a
    non-decreasing 1-based m-tuple.
    ``coords`` (isometric coordinates, as ``sym_coords``) and ``data`` (full
    n**d rows, checked against the cap first) are built on each access.
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
        _check_entries((*self.means.shape[:-2], self.n**self.d, self.means.shape[-1]),
                       f"the full lift with n = {self.n}, m = {self.m}, d = {self.d}")
        return self.means[..., _orbits(self.n, self.d).ids, :]

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


def _dense_select(n: int, m: int, d: int, count: int) -> bool:
    """Whether ``_sym_columns`` averages ``count`` rows of n x m matrices by
    one dense ``sel_avg(m, d)`` product: while the selector is small and the
    m**d orderings fit the n**d x C(m+d-1, d) lift."""
    width = math.comb(m + d - 1, d)
    return m**d * width <= _COLUMN_SELECT_ENTRIES and m**d * count <= n**d * width


def _lift_entries(n: int, m: int, d: int) -> int:
    """The most entries of any array ``sym_lift`` builds for one n x m
    matrix; a stack of k matrices builds k times as many."""
    small, large = sorted((n, m))
    count = math.comb(large + d - 1, d)
    orderings = small ** (d if _dense_select(large, small, d, count) else d - 1)
    return count * max(math.comb(small + d - 1, d), d * small, orderings)


def _sym_columns(mats: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Row i, column c: the mean of prod_k mats[k][rows[i, k], a_k] over the
    orderings a of the multiset row c of the (m, d) plan, for d ``mats`` of
    shape (..., n, m) with the same leading axes (one result per matrix).

    Small selectors whose m**d orderings fit the n**d x C(m+d-1, d) lift
    take one dense ``sel_avg(m, d)`` product; other shapes take orbit sums
    in position order, the arithmetic of a sparse averaging product.  A
    stack rides along the columns of every gathered array, so each entry
    takes the same operations as for one matrix, and the dense product is
    one matmul per matrix.
    """
    d, (n, m), lead = len(mats), mats[0].shape[-2:], mats[0].shape[:-2]
    width, count = math.comb(m + d - 1, d), len(rows)
    dense = _dense_select(n, m, d, count)
    what = f"for n = {n}, m = {m}, d = {d}"
    _check_entries((*lead, d * m, count), f"the factor rows gathered {what}")
    _check_entries((*lead, m ** (d if dense else d - 1), count), f"the column orderings {what}")
    # Factor k, row a, column (matrix, i): mats[k][matrix, rows[i, k], a].
    # Axes move by transpose: np.moveaxis took a tenth of a small lift.
    to_front, to_back = (-1, *range(len(lead)), -2), (*range(1, len(lead) + 2), 0)
    factors = [np.take(M.transpose(to_front), row, axis=-1).reshape(m, -1)
               for M, row in zip(mats, rows.T)]
    if dense:
        orderings = reduce(khatri_rao, factors)
        # Held through the product, the factors raised the peak heap enough
        # that glibc trimmed and regrew it on every call (2-3x slower).
        del factors
        return orderings.reshape(-1, *lead, count).transpose(to_back) @ sel_avg(m, d)
    head = reduce(khatri_rao, factors[:-1], np.ones((1, factors[-1].shape[1])))
    orbits = _orbits(m, d)
    sums = _grouped_sum(orbits.groups, width, head, factors[-1], orbits.weight)
    return sums.reshape(width, *lead, count).transpose(to_back)


def sym_kron(factors: list[np.ndarray]) -> np.ndarray:
    """Symmetrized Kronecker product of d equal-shape n x m factors.

    The column for a non-decreasing tuple (i_1, ..., i_d), in the order of
    ``enumerate_multi_indices(m, d)``, is the average over all permutations
    pi of factor_1[:, i_pi(1)] tensor ... tensor factor_d[:, i_pi(d)]: the
    Kronecker product times ``sel_avg(m, d)``.  With distinct factors the
    columns are not symmetric tensors, so the result is a plain
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
    _check_entries((n**d, math.comb(m + d - 1, d)),
                   f"the symmetrized lift with n = {n}, m = {m}, d = {d}")
    return _sym_columns(mats, _index_rows(n, d))


def sym_lift(U: np.ndarray, d: int) -> LiftMatrix:
    """Symmetric d-th order lift of U (the d-fold symmetrized Kronecker power).

    Entry (r, c) is the mean of prod_k U[r_k, a_k] over the orderings a of
    the column multiset c, and of prod_k U[p_k, c_k] over the orderings p of
    the row multiset r, so the lift of U.T is the transpose.  The smaller
    side is averaged: the columns of U for m <= n, those of U.T otherwise.
    A stack U of shape (..., n, m) gives means of shape (..., C(n+d-1, d),
    C(m+d-1, d)), each bit for bit the lift of its matrix alone.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    U = np.asarray(U, dtype=float)
    *lead, n, m = U.shape
    column_order = enumerate_multi_indices(m, d)
    _check_entries((*lead, math.comb(n + d - 1, d), len(column_order)),
                   f"the symmetrized lift with n = {n}, m = {m}, d = {d}")
    if m <= n:
        means = _sym_columns([U] * d, _plan(n, d).rows)
    else:
        means = _sym_columns([U.swapaxes(-1, -2)] * d, _plan(m, d).rows).swapaxes(-1, -2)
    return LiftMatrix(means, n=n, m=m, d=d, column_order=column_order)


def sym_project(v: np.ndarray, n: int, d: int) -> np.ndarray:
    """Average a flattened d-tensor, or each column of a matrix of them, over
    all d! mode permutations."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != n**d:
        raise ValueError(f"expected {n}**{d} = {n**d} rows, got shape {v.shape}")
    orbits = _orbits(n, d)
    means = _grouped_sum(orbits.groups, math.comb(n + d - 1, d), v.reshape(n**d, -1),
                         weight=orbits.weight)
    return means[orbits.ids].reshape(v.shape)


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
    ids, weight = _orbits(m, d)[:2]
    select = np.zeros((ids.size, math.comb(m + d - 1, d)))
    select[np.arange(ids.size), ids] = weight
    return select


@dataclass(frozen=True)
class SymMergeOperator:
    """Sparse map merging two symmetric coordinate spaces into a higher one.

    Maps the basis pair (I, J) of degree-k1 and degree-k2 multisets to the
    basis vector of the multiset union I + J in degree k1+k2: column (I, J),
    I slow, has its single entry 1 in row ``target``, the plan row of I + J.
    This is polynomial multiplication of monomial coefficient vectors.
    ``target`` is read-only.
    """

    n: int
    k1: int
    k2: int
    target: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return math.comb(self.n + self.k1 + self.k2 - 1, self.k1 + self.k2), self.target.size

    @functools.cached_property
    def row_groups(self) -> tuple:
        """The columns of each row: ``_members_by_count`` of ``target``."""
        return _members_by_count(self.target, np.bincount(self.target, minlength=self.shape[0]))

    def identity_kron(self, U: np.ndarray) -> np.ndarray:
        """The operator times kron(I, U): slice i (the columns pairing left
        monomial i with every right monomial) times U, slices side by side.
        Monomial i times distinct monomials gives distinct monomials, so each
        entry is a single product, placed by one scatter."""
        left = math.comb(self.n + self.k1 - 1, self.k1)
        out = np.zeros((self.shape[0], left, U.shape[1]))
        out[self.target.reshape(left, -1), np.arange(left)[:, None]] = U
        return out.reshape(self.shape[0], -1)

    def pair_sum(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The operator times khatri_rao(X, Y) + khatri_rao(Y, X), for k1 = k2,
        without forming either product.  Each of the two products is a
        grouped sum, and the two are added last, so the result is
        bit-identical to two sparse products and their sum."""
        if self.k1 != self.k2:
            raise ValueError(f"a pair sum needs k1 = k2, got {self.k1} and {self.k2}")
        both = _grouped_sum(self.row_groups, self.shape[0], np.hstack([X, Y]), np.hstack([Y, X]))
        return both[:, :X.shape[1]] + both[:, X.shape[1]:]


def _build_merge(n: int, k1: int, k2: int) -> SymMergeOperator:
    left, right = _plan(n, k1), _plan(n, k2)
    # Column (I, J), I slow, is the multiset union of left row I and right row J.
    pairs = np.hstack([np.repeat(left.rows, len(right.rows), axis=0),
                       np.tile(right.rows, (len(left.rows), 1))])
    target = _rank(np.sort(pairs, axis=1), n)
    target.flags.writeable = False
    return SymMergeOperator(n=n, k1=k1, k2=k2, target=target)


_cached_merge = functools.lru_cache(maxsize=32)(_build_merge)


def sym_merge(n: int, k1: int, k2: int) -> SymMergeOperator:
    """The degree-(k1+k2) merge operator over n variables (shared, read-only)."""
    if n < 1 or k1 < 1 or k2 < 1:
        raise ValueError("n, k1, k2 must be at least 1")
    columns = math.comb(n + k1 - 1, k1) * math.comb(n + k2 - 1, k2)
    _check_entries((columns, k1 + k2), f"the merge pairs for n = {n}, k1 = {k1}, k2 = {k2}")
    return (_cached_merge if columns <= _CACHED_ENTRIES else _build_merge)(n, k1, k2)
