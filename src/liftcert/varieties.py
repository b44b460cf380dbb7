"""Cutting polynomials for matrix varieties and the distance certificate.

A conic variety is handed around as an orthonormalized family of dual
tensors: degree-d symmetric forms that vanish on the variety, each stored
as its terms (a plan position of the lift's multisets and a weight).  The
induced operator maps a symmetric d-tensor to the vector of form
evaluations; applying it to the symmetric lift of an orthonormal subspace
basis and reading off the least singular value yields a scale-free
certificate that every unit vector of the variety is far from the subspace.

Supported constructions: the determinantal variety of n1 x n2 matrices of
rank at most r (all (r+1)-minors, expanded into dual tensors), and the
separable variety of product tensors (the quadratic forms vanishing on every
Kronecker product of unit factors).  Custom generator lists are accepted
wherever an operator is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from . import rng as _rng
from .matrixio import matrix_sha256
from .spectral import (NonFiniteMatrixError, _rank_of_values, check_orthonormal,
                       sign_normalize_rows, singular_values)
from .tensor_lift import (_TERM_ENTRIES, _check_entries, _plan, _rank, from_sym_coords,
                          sym_coords, sym_lift)

ORTHO_DROP_RTOL = 1e-8


def determinantal_generators(n1: int, n2: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Terms (``VarietyOperator.rows``, ``weights``) of all (r+1)-minors of an
    n1 x n2 matrix of variables, one row per (row-set, column-set) pair.  Row
    set I and permutation pi of the column set J give the monomial prod_t
    x[I_t, J_pi(t)] in distinct, increasing variables, with coefficient
    sign(pi) / sqrt(d!), d = r + 1, and weight sign(pi).  Every row vanishes
    on matrices of rank at most r."""
    if not 1 <= r < min(n1, n2):
        raise ValueError(f"r = {r} must satisfy 1 <= r < min({n1}, {n2})")
    N, d = n1 * n2, r + 1
    p = math.comb(n1, d) * math.comb(n2, d)
    _check_entries((p, math.factorial(d), d),
                   f"the terms of the determinantal generators with n1 = {n1}, n2 = {n2}, r = {r}")
    rows = np.array(list(itertools.combinations(range(n1), d)))
    cols = np.array(list(itertools.combinations(range(n2), d)))
    perms = np.array(list(itertools.permutations(range(d))))
    sign = np.linalg.det(np.eye(d)[perms])  # of each permutation matrix: +-1
    # variables[I, J, pi, t] = I_t * n2 + J_pi(t), increasing in t.
    variables = rows[:, None, None, :] * n2 + cols[:, perms][None]
    return _rank(variables, N).reshape(p, -1), np.broadcast_to(sign, (p, len(perms)))


def separable_generators(dims: tuple[int, ...]) -> np.ndarray:
    """Orthonormal quadratic dual tensors vanishing on all product tensors.

    The squares of separable vectors span (after rearrangement) the tensor
    product of the per-axis symmetric-matrix spaces; the generators are an
    orthonormal basis of its orthogonal complement inside the symmetric
    matrices on the product space, returned as rows in isometric symmetric
    coordinates over prod(dims) variables.
    """
    dims = tuple(int(x) for x in dims)
    if len(dims) < 2 or any(x < 2 for x in dims):
        raise ValueError("need at least two axes, each of dimension >= 2")
    N = math.prod(dims)
    sym, what = math.comb(N + 1, 2), f"separable generators for dims {dims}"
    _check_entries((sym, math.prod(math.comb(x + 1, 2) for x in dims)),
                   f"the squares of the {what}")
    _check_entries((sym, sym), f"the full SVD basis of the {what}")

    # Orthonormal bases of the symmetric nd x nd matrices, in multiset order.
    factor_bases = [from_sym_coords(np.eye(math.comb(nd + 1, 2)), nd, 2).reshape(-1, nd, nd)
                    for nd in dims]
    B = np.column_stack([sym_coords(reduce(np.kron, combo).reshape(N * N), N, 2)
                         for combo in itertools.product(*factor_bases)])

    _, s, Vt = np.linalg.svd(B.T, full_matrices=True)
    return sign_normalize_rows(Vt[_rank_of_values(s, ORTHO_DROP_RTOL * s[0]):])


@dataclass(frozen=True)
class VarietyOperator:
    """Orthonormal dual generators as terms: on a lift's ``means``, form f is
    sum_t weights[f, t] * means[rows[f, t]], with ``rows`` distinct (n, d)
    plan positions and ``weights`` isometric coefficients times sqrt(orbit).
    ``generators`` (p x C(n+d-1, d), so generators @ sym_coords(v) evaluates
    the forms at a symmetric v) and ``phi`` (p x n**d) are built on access."""

    n: int
    d: int
    rows: np.ndarray
    weights: np.ndarray

    @property
    def generators(self) -> np.ndarray:
        width = math.comb(self.n + self.d - 1, self.d)
        _check_entries((self.p, width), f"the dense generators with n = {self.n}, d = {self.d}")
        G, orbit = np.zeros((self.p, width)), _plan(self.n, self.d).orbit
        np.put_along_axis(G, self.rows, self.weights / np.sqrt(orbit[self.rows]), axis=1)
        return G

    @property
    def phi(self) -> np.ndarray:
        return from_sym_coords(self.generators, self.n, self.d)

    @property
    def p(self) -> int:
        return self.rows.shape[0]


def build_phi(generators: np.ndarray, n: int, d: int) -> VarietyOperator:
    """Orthonormalize dual generators given as rows in isometric symmetric
    coordinates (``tensor_lift.sym_coords``) over R^n, degree d.

    Numerically dependent generators are dropped at a relative tolerance of
    1e-8; the surviving count p is recorded in the operator.
    """
    G = np.asarray(generators, dtype=float)
    if G.size == 0:
        raise ValueError("no generators given")
    width = math.comb(n + d - 1, d)
    if G.ndim != 2 or G.shape[1] != width:
        raise ValueError(f"generators must be rows of C({n}+{d}-1, {d}) = {width} "
                         f"symmetric coordinates; got shape {G.shape}")
    _, s, Vt = np.linalg.svd(G, full_matrices=False)
    rank = _rank_of_values(s, ORTHO_DROP_RTOL * s[0])
    if rank == 0:
        raise ValueError("no generators survive orthonormalization")
    return VarietyOperator(n, d, np.broadcast_to(np.arange(width), (rank, width)),
                           sign_normalize_rows(Vt[:rank]) * np.sqrt(_plan(n, d).orbit))


def determinantal_operator(n1: int, n2: int, r: int) -> VarietyOperator:
    """The minors' terms as they are: disjoint supports make the rows orthonormal."""
    return VarietyOperator(n1 * n2, r + 1, *determinantal_generators(n1, n2, r))


def separable_operator(dims: tuple[int, ...]) -> VarietyOperator:
    return build_phi(separable_generators(dims), n=math.prod(dims), d=2)


def variety_from_spec(spec: str) -> VarietyOperator:
    """Parse ``determinantal:n1,n2,r`` or ``separable:n1,n2[,...]``."""
    kind, _, args = spec.partition(":")
    try:
        nums = [int(tok) for tok in args.split(",") if tok]
    except ValueError as exc:
        raise ValueError(f"bad variety spec {spec!r}: {exc}") from exc
    if kind == "determinantal":
        if len(nums) != 3:
            raise ValueError("determinantal variety needs n1,n2,r")
        return determinantal_operator(*nums)
    if kind == "separable":
        if len(nums) < 2:
            raise ValueError("separable variety needs at least two dimensions")
        return separable_operator(tuple(nums))
    raise ValueError(f"unknown variety kind {kind!r}")


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate run."""

    eta: float
    m: int
    n: int
    d: int
    verdict: str
    basis_sha256: str
    tolerance: float

    def to_json(self) -> dict:
        return asdict(self)


def orthonormalize_basis(B: np.ndarray, keep_first: bool = False) -> np.ndarray:
    """Householder-QR-orthonormalize columns (deterministic signs).

    Dependent columns are refused: more columns than rows, or a QR pivot
    |R_jj| <= 1e-10 ||B_j||.  ``keep_first`` sets the first column to exactly
    B_0 / ||B_0||, so planted test fixtures keep their exact point.
    """
    B = np.asarray(B, dtype=float)
    if not np.isfinite(B).all():
        raise NonFiniteMatrixError("basis has non-finite entries")
    if B.shape[1] > B.shape[0]:
        raise ValueError(f"basis has {B.shape[1]} columns in R^{B.shape[0]}, so they are dependent")
    Q, R = np.linalg.qr(B)
    pivots = np.diag(R)
    # Columns scaled by powers of two to entries below 1: exact, and their norms cannot overflow.
    exp = np.frexp(np.abs(B).max(axis=0))[1]
    scaled = np.ldexp(B, -exp)
    weak = np.flatnonzero(np.abs(np.ldexp(pivots, -exp)) <= 1e-10 * np.linalg.norm(scaled, axis=0))
    if weak.size:
        raise ValueError(f"basis column {weak[0]} is zero or nearly in the span of earlier columns")
    Q = Q * np.sign(pivots)
    if keep_first:
        Q[:, 0] = scaled[:, 0] / np.linalg.norm(scaled[:, 0])
    return Q


def apply_to_lift(op: VarietyOperator, basis: np.ndarray) -> np.ndarray:
    """The operator's forms on the lift of an n x m basis: p x C(m+d-1, d)."""
    means = sym_lift(basis, op.d).means
    step = max(1, _TERM_ENTRIES // (op.rows.shape[1] * means.shape[1]))  # forms per gather
    return np.vstack([np.einsum("ft,ftc->fc", op.weights[f:f + step], means[op.rows[f:f + step]])
                      for f in range(0, op.p, step)])


def certify(op: VarietyOperator, basis: np.ndarray, tolerance: float = 1e-9) -> CertificateReport:
    """Least singular value of the operator applied to the basis lift.

    A positive value eta certifies that every unit vector of the variety is
    at distance at least eta / d (up to the lift's conditioning) from the
    subspace; the report carries the raw eta and the threshold verdict.  The
    verdict is ``certified_far`` only when eta exceeds both the tolerance and
    the rounding floor max(shape) * eps * sigma_max of the decomposed matrix.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[1] < 1:
        raise ValueError(f"basis must be an n x m matrix with m >= 1, got shape {basis.shape}")
    n, m = basis.shape
    if n != op.n:
        raise ValueError(f"basis lives in R^{n}, operator expects R^{op.n}")
    check_orthonormal(basis)
    lifted_cols = math.comb(m + op.d - 1, op.d)
    if lifted_cols > op.p:
        raise ValueError(f"lift has {lifted_cols} columns but the operator rank budget is {op.p}")
    lifted = apply_to_lift(op, basis)
    s = singular_values(lifted)
    eta = float(s[-1])
    floor = max(lifted.shape) * np.finfo(float).eps * s[0]
    verdict = "certified_far" if eta > max(tolerance, floor) else "dont_know"
    return CertificateReport(eta=eta, m=m, n=n, d=op.d, verdict=verdict,
                             basis_sha256=matrix_sha256(basis), tolerance=tolerance)


def random_rank_le_point(n1: int, n2: int, r: int, seed: int, tag=0) -> np.ndarray:
    """A random unit-norm matrix of rank at most r, flattened row-major."""
    A = _rng.gaussians((n1, r), seed, "rank_point", tag, "left")
    B = _rng.gaussians((r, n2), seed, "rank_point", tag, "right")
    X = A @ B
    return (X / np.linalg.norm(X)).reshape(n1 * n2)


def random_separable_point(dims: tuple[int, ...], seed: int, tag=0) -> np.ndarray:
    """A random unit-norm product tensor, flattened row-major."""
    factors = [_rng.gaussians((nd,), seed, "sep_point", tag, axis)
               for axis, nd in enumerate(dims)]
    v = reduce(np.kron, factors)
    return v / np.linalg.norm(v)
