"""Builders for the structured matrices behind power-sum and clustering checks.

Quadratic polynomials are carried as coefficient vectors over the multiset
(monomial) basis of the degree-2 space, of dimension N2 = C(n+1, 2).  The
merge operators from :mod:`liftcert.tensor_lift` then implement polynomial
multiplication, and the builders below assemble the block matrices whose
least singular values the experiment harness measures: the merged identity
Kronecker block, its explicit solution-space basis, layered-noise variants,
concatenated subspace lifts, and the power-coefficient matrix of inner-power
polynomials.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .smoothing import noise_layers
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
        if not np.linalg.norm(self.F.T @ self.F - np.eye(n2 - self.m)) <= 1e-10:
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
    base = _rng.unit_columns((n2, m), seed, "powersum", "base")
    A = base + rho * _rng.gaussians((n2, m), seed, "powersum", "noise")
    if not np.isfinite(A).all():  # LAPACK's SVD with U can loop forever on inf
        raise NonFiniteMatrixError(f"power-sum forms overflow at rho = {rho!r}")
    U, _, _ = np.linalg.svd(A, full_matrices=True)
    F = sign_normalize_rows(U[:, m:].T).T
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


def build_projected_V(matrices: list[np.ndarray], ell: int) -> np.ndarray:
    """Block matrix of lifted column selections next to the full matrices.

    For each of the m input n x n matrices, take its first ell columns S_t and
    emit the symmetric lift S_t (*) S_t, then append the vectorized full
    matrices; the result has m C(ell+1, 2) + m columns in R^(n^2).
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    mats = [np.asarray(M, dtype=float) for M in matrices]
    n = mats[0].shape[0]
    if any(M.shape != (n, n) for M in mats):
        raise ValueError("all matrices must be square of the same size")
    if not 1 <= ell <= n:
        raise ValueError(f"ell = {ell} out of range 1..{n}")
    m = len(mats)
    r = n**2 - n * ell - m * math.comb(ell + 1, 2) - m + 1
    if r <= 0:
        raise ValueError(f"dimension budget violated: r = {r} <= 0")
    if r < 0.1 * n**2:
        warnings.warn(f"slack dimension r = {r} below 0.1 * n^2",
                      RuntimeWarning, stacklevel=2)
    cols = [sym_lift(M[:, :ell], 2).data for M in mats]
    cols += [M.reshape(n * n, 1) for M in mats]
    return np.hstack(cols)


@dataclass(frozen=True)
class ClusteringInstance:
    """Orthonormal subspace bases to perturb, lift, and concatenate."""

    bases: list[np.ndarray]
    d: int
    rho: float
    seed: int

    def __post_init__(self):
        if not self.bases:
            raise ValueError("need at least one basis")
        n, m = self.bases[0].shape
        for P in self.bases:
            if P.shape != (n, m):
                raise ValueError("all bases must share a shape")
            check_orthonormal(P)

    @property
    def shape(self) -> tuple[int, int]:
        return self.bases[0].shape


def make_clustering_instance(n: int, m: int, s: int, d: int, rho: float,
                             seed: int, shared_base: bool = True) -> ClusteringInstance:
    """s orthonormal bases; by default all equal to one seeded random base,
    the hardest layout that the perturbation must still separate."""
    drawn = 1 if shared_base else s
    Q, _ = np.linalg.qr(_rng.gaussians((n, m), seed, "cluster", "base", stack=drawn))
    bases = [Q[0]] * s if shared_base else list(Q)
    return ClusteringInstance(bases=bases, d=d, rho=rho, seed=seed)


def build_block_lift(instance: ClusteringInstance) -> np.ndarray:
    """Concatenated symmetric lifts of independently perturbed bases.

    Each base P_i receives i.i.d. noise of entrywise variance rho^2 / n, is
    re-orthonormalized, and lifted to order d.  rho = 0 skips the
    perturbation (degenerate control).  The rows are the C(n+d-1, d)
    isometric coordinates of the lift (``LiftMatrix.coords``), so the
    singular values are those of the full n**d-row lifts.
    """
    n, m = instance.shape
    d, s = instance.d, len(instance.bases)
    if s * math.comb(m + d - 1, d) > math.comb(n + d - 1, d):
        raise ValueError("dimension budget violated: too many blocks for the lift space")
    bases = instance.bases
    if instance.rho > 0:
        noise = (instance.rho / math.sqrt(n)) * _rng.gaussians(
            (n, m), instance.seed, "cluster", "noise", stack=s)
        bases, _ = np.linalg.qr(np.asarray(bases) + noise)
    coords = sym_lift(np.asarray(bases), d).coords
    return coords.transpose(1, 0, 2).reshape(coords.shape[1], -1)


def _monomials(X: np.ndarray, r: int) -> np.ndarray:
    """Degree-r monomials of the last axis of X, in multiset order.

    The gather holds r factors of each monomial, so its shape is checked
    against the cap before the plan or the gather is built."""
    if r < 1:
        raise ValueError("r must be at least 1")
    dim = X.shape[-1]
    _check_entries(X.shape[:-1] + (math.comb(dim + r - 1, r), r),
                   f"the degree-{r} monomial factors in dimension {dim}")
    return X[..., _plan(dim, r).rows].prod(axis=-1)


def power_row(u: np.ndarray, r: int) -> np.ndarray:
    """Coefficient vector of the polynomial <u, x>^r over the monomial basis.

    The coefficient of a monomial is its multinomial coefficient, which is
    the orbit size of its multiset.
    """
    u = np.asarray(u, dtype=float)
    monomials = _monomials(u, r)  # checks the size before the plan is built
    return _plan(u.shape[-1], r).orbit * monomials


def build_power_matrix(points: np.ndarray, r: int) -> np.ndarray:
    """N x C(dim+r-1, r) matrix whose i-th row represents <u_i, x>^r."""
    return power_row(np.atleast_2d(np.asarray(points, dtype=float)), r)


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
