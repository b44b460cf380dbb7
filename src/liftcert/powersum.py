"""Builders for the structured matrices behind power-sum and clustering checks.

Quadratic polynomials are carried as coefficient vectors over the multiset
(monomial) basis of the degree-2 space, of dimension N2 = C(n+1, 2).  The
merge operators from :mod:`liftcert.tensor_lift` then implement polynomial
multiplication, and the builders below assemble the block matrices whose
least singular values the experiment harness measures: the merged identity
Kronecker block, its explicit solution-space basis, layered-noise variants,
the concatenated lifts of a stack of subspace bases, and the
power-coefficient matrix of inner-power polynomials.  Each builder takes the
arrays and scalars it reads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .spectral import NonFiniteMatrixError, check_orthonormal, sign_normalize_rows
from .tensor_lift import _check_entries, _plan, sym_lift, sym_merge, sym_project


@dataclass(frozen=True)
class PowerSumInstance:
    """m smoothed quadratic forms over n variables plus a basis completion.

    A has shape N2 x m (columns are perturbed coefficient vectors); F is an
    orthonormal basis of the orthogonal complement of the column span, so
    [A, F] spans the whole degree-2 coordinate space.
    """

    n: int
    m: int
    A: np.ndarray
    base: np.ndarray
    F: np.ndarray
    rho: float
    seed: int

    @property
    def n2(self) -> int:
        return math.comb(self.n + 1, 2)

    def __post_init__(self):
        n2 = self.n2
        if self.A.shape != (n2, self.m) or self.F.shape != (n2, n2 - self.m):
            raise ValueError("instance arrays have inconsistent shapes")
        if not self.A.any():
            raise ValueError("forms A are all zero")
        gram = self.F.T @ self.F
        gram[np.diag_indices_from(gram)] -= 1.0
        if not np.linalg.norm(gram) <= 1e-10:
            raise ValueError("completion F is not orthonormal")
        # Scaled to entries of at most 1: norms of A itself overflow past about 1e154.
        A = self.A / np.abs(self.A).max()
        if not np.linalg.norm(self.F.T @ A) <= 1e-8 * np.linalg.norm(A):
            raise ValueError("completion F is not orthogonal to A")


def make_power_sum_instance(n: int, m: int, rho: float, seed: int) -> PowerSumInstance:
    """Random unit-column base forms, perturbed at scale rho, with completion."""
    n2 = math.comb(n + 1, 2)
    if not 1 <= m < n2:
        raise ValueError(f"need 1 <= m < N2 = {n2}")
    _check_entries((n2, n2), "the N2 x N2 completion")
    base = _rng.unit_columns((n2, m), seed, "powersum", "base")
    A = base + rho * _rng.gaussians((n2, m), seed, "powersum", "noise")
    if not np.isfinite(A).all():  # LAPACK's SVD with U can loop forever on inf
        raise NonFiniteMatrixError(f"power-sum forms overflow at rho = {rho!r}")
    U, _, _ = np.linalg.svd(A, full_matrices=True)
    F = sign_normalize_rows(U[:, m:].T).T
    del U
    return PowerSumInstance(n=n, m=m, A=A, base=base, F=F, rho=rho, seed=seed)


def build_sym4_IkronA(instance: PowerSumInstance) -> np.ndarray:
    """The degree-4 merge operator applied to I tensor A.

    Columns are indexed by (monomial i, form t) with i slow; column (i, t)
    is the coefficient vector of monomial_i(x) * a_t(x).  The nullspace is
    spanned by the antisymmetric pair witnesses, so the numerical rank of the
    result is m*N2 - C(m, 2) for perturbed instances.
    """
    return sym_merge(instance.n, 2, 2).identity_kron(instance.A)


def antisym_witnesses(instance: PowerSumInstance) -> np.ndarray:
    """Exact nullspace witnesses of the merged identity-Kronecker block.

    For each pair s < t the witness encodes q_s = a_t, q_t = -a_s (all other
    q zero): the combination sum_u a_u q_u collapses to a_s a_t - a_t a_s.
    Returns one unit column per pair, C(m, 2) in total.
    """
    n2, m = instance.n2, instance.m
    s, t = np.triu_indices(m, k=1)
    W = np.zeros((n2, m, s.size))
    W[:, s, np.arange(s.size)] = instance.A[:, t]
    W[:, t, np.arange(s.size)] = -instance.A[:, s]
    W = W.reshape(n2 * m, s.size)
    return W / np.linalg.norm(W, axis=0)


def build_solution_space_M(instance: PowerSumInstance) -> np.ndarray:
    """Explicit basis matrix of the merged pair space.

    Columns: merged (a_i a_j + a_j a_i) over pairs i <= j in lexicographic
    order, then merged (a_i f_j + f_j a_i) over cross pairs (i, j).  The
    column count is C(m+1, 2) + m (N2 - m) = m N2 - C(m, 2).
    """
    A, F = instance.A, instance.F
    ii, jj = np.triu_indices(instance.m)
    X = np.hstack([A[:, ii]] + [np.broadcast_to(A[:, [t]], F.shape) for t in range(instance.m)])
    Y = np.hstack([A[:, jj]] + [F] * instance.m)
    return sym_merge(instance.n, 2, 2).pair_sum(X, Y)


def noise_layers(Z: np.ndarray, rho: float, rhos, seed: int, *path) -> list[np.ndarray]:
    """Layers of scales rhos that sum to Z, the realized noise of scale rho.

    Sampled conditionally on Z: layer j draws from the stream (seed, *path, j)
    and gives up (rhos[j] / rho)**2 of the excess.  Scales enter only as ratios
    to rho, so tiny rho cannot underflow; rho = 0 gives zero layers.
    """
    rhos = np.asarray(rhos, dtype=float)
    if rho == 0 and not rhos.any():
        return [np.zeros_like(Z) for _ in rhos]
    if rho == 0 or abs(float(np.sum((rhos / rho) ** 2)) - 1.0) > 1e-12:
        raise ValueError("split variances must sum to rho^2")
    layers = _rng.gaussians(Z.shape, seed, *path, stack=len(rhos))
    layers *= rhos.reshape(-1, *[1] * Z.ndim)
    excess = layers.sum(axis=0)
    excess -= Z
    for layer, r in zip(layers, rhos):
        layer -= (r / rho) ** 2 * excess
    return list(layers)


def build_claim_Q(instance: PowerSumInstance, rho1: float, rho2: float) -> np.ndarray:
    """The square matrix [base + Z1 + 2 Z2, F] under a two-layer noise split."""
    Z1, Z2 = noise_layers(instance.A - instance.base, instance.rho, (rho1, rho2),
                          instance.seed, "powersum", "layer")
    return np.hstack([instance.base + Z1 + 2.0 * Z2, instance.F])


def build_claim_W(instance: PowerSumInstance, rho1: float, rho2: float) -> np.ndarray:
    """Modal contraction of the degree-4 merge operator by [base + Z1, Z2].

    Slice i of the merge operator (the columns pairing monomial i with every
    monomial) is contracted by the N2 x 2m random matrix; the slices are
    concatenated into an R x (2 m N2) block matrix.
    """
    Z1, Z2 = noise_layers(instance.A - instance.base, instance.rho, (rho1, rho2),
                          instance.seed, "powersum", "layer")
    U = np.hstack([instance.base + Z1, Z2])
    return sym_merge(instance.n, 2, 2).identity_kron(U)


def build_projected_V(matrices: np.ndarray | list[np.ndarray], ell: int) -> np.ndarray:
    """Block matrix of lifted column selections next to the full matrices.

    For each of the m input n x n matrices, take its first ell columns S_t and
    emit the symmetric lift S_t (*) S_t, then append the vectorized full
    matrices; the result has m C(ell+1, 2) + m columns in R^(n^2), in
    ``np.hstack``'s order.  A stack of shape (..., m, n, n) gives one block
    matrix per leading index, each equal to that of its m matrices alone.
    """
    try:
        mats = np.asarray(matrices, dtype=float)
    except ValueError as exc:  # a ragged list
        raise ValueError("all matrices must be square of the same size") from exc
    if not mats.size:
        raise ValueError("need at least one matrix")
    if mats.ndim < 3 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError("all matrices must be square of the same size")
    *lead, m, n, _ = mats.shape
    if not 1 <= ell <= n:
        raise ValueError(f"ell = {ell} out of range 1..{n}")
    r = n**2 - n * ell - m * math.comb(ell + 1, 2) - m + 1
    if r <= 0:
        raise ValueError(f"dimension budget violated: r = {r} <= 0")
    if r < 0.1 * n**2:
        warnings.warn(f"slack dimension r = {r} below 0.1 * n^2",
                      RuntimeWarning, stacklevel=2)
    c = math.comb(ell + 1, 2)
    _check_entries((*lead, n * n, m * c + m),
                   f"the projected V with n = {n}, m = {m}, ell = {ell}")
    lifts = sym_lift(mats[..., :ell], 2).data.swapaxes(-3, -2).reshape(*lead, n * n, m * c)
    return np.concatenate([lifts, mats.reshape(*lead, m, n * n).swapaxes(-1, -2)], axis=-1)


def make_clustering_bases(n: int, m: int, s: int, seed: int,
                          shared_base: bool = True) -> np.ndarray:
    """The (s, n, m) stack of orthonormal bases; by default all equal to one
    seeded random base, the hardest layout that the perturbation must still
    separate."""
    Q, _ = np.linalg.qr(_rng.gaussians((n, m), seed, "cluster", "base",
                                       stack=1 if shared_base else s))
    return np.repeat(Q, s, axis=0) if shared_base else Q


def build_block_lift(bases: np.ndarray, d: int) -> np.ndarray:
    """Concatenated order-d symmetric lifts of s orthonormal n x m bases.

    The rows are the C(n+d-1, d) isometric coordinates of the lift
    (``LiftMatrix.coords``), so the singular values are those of the full
    n**d-row lifts side by side.  A stack of shape (..., s, n, m) gives one
    block matrix per leading index, each equal to that of its s bases alone.
    """
    try:
        bases = np.asarray(bases, dtype=float)
    except ValueError as exc:  # a ragged list
        raise ValueError("all bases must share a shape") from exc
    if bases.ndim < 3 or not bases.size:
        raise ValueError("need at least one basis, in a (..., s, n, m) stack")
    *lead, s, n, m = bases.shape
    for P in bases.reshape(-1, n, m):
        check_orthonormal(P)
    if s * math.comb(m + d - 1, d) > math.comb(n + d - 1, d):
        raise ValueError("dimension budget violated: too many blocks for the lift space")
    coords = sym_lift(bases, d).coords
    return coords.swapaxes(-3, -2).reshape(*lead, coords.shape[-2], -1)


def build_power_matrix(points: np.ndarray, r: int) -> np.ndarray:
    """N x C(dim+r-1, r) matrix whose i-th row is the coefficient vector of
    <u_i, x>^r over the degree-r monomials, in multiset order.

    The coefficient of a monomial is its multinomial coefficient, the orbit
    size of its multiset, times its value at u_i.  The gather holds r
    factors of each monomial, so its shape is checked against the cap
    before the plan or the gather is built.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    U = np.atleast_2d(np.asarray(points, dtype=float))
    dim = U.shape[-1]
    _check_entries(U.shape[:-1] + (math.comb(dim + r - 1, r), r),
                   f"the degree-{r} monomial factors in dimension {dim}")
    plan = _plan(dim, r)
    return plan.orbit * U[..., plan.rows].prod(axis=-1)


def symmetric_cube_lift(C: np.ndarray, n: int) -> np.ndarray:
    """Order-6 symmetrization of the cube lift of symmetric-matrix columns.

    C has n^2 rows (vectorized symmetric matrices); the third symmetric
    Kronecker power is computed over the n^2-dimensional coordinates and each
    column is then averaged over all 6! mode permutations of (R^n)^(x6).
    """
    C = np.asarray(C, dtype=float)
    if C.shape[0] != n * n:
        raise ValueError(f"columns must be vectorized {n} x {n} matrices")
    return sym_project(sym_lift(C, 3).data, n, 6)


def make_symmetric_columns(n: int, m: int, rho: float, seed: int) -> np.ndarray:
    """m vectorized symmetric n x n matrices, upper triangle perturbed i.i.d."""
    _check_entries((n * n, m), "the symmetric columns")
    iu = np.triu_indices(n)
    cols = np.empty((n * n, m))
    base = _rng.gaussians((len(iu[0]),), seed, "symcols", "base", stack=m)
    noise = _rng.gaussians((len(iu[0]),), seed, "symcols", "noise", stack=m)
    for t in range(m):
        vals = base[t] / np.linalg.norm(base[t]) + rho * noise[t]
        X = np.zeros((n, n))
        X[iu] = vals
        X = X + X.T - np.diag(np.diag(X))
        cols[:, t] = X.reshape(n * n)
    return cols
