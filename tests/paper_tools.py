"""The paper's proof devices, checked empirically by the tests.

No command, target or benchmark op reaches these: the well-conditioned
column subset and the blockwise leave-one-out distance, the good-blocks
random restriction, spread vectors, the power-row and Gaussian small-ball
bounds, the tail check of the sigma_basic target, and the noise-decoupling
split with its remainder envelope.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from liftcert import rng as _rng
from liftcert.harness import ExperimentConfig, run_experiment
from liftcert.powersum import build_power_matrix, noise_layers
from liftcert.spectral import (DEFAULT_RTOL, _inverse_r, _rank_of_values, check_orthonormal,
                               singular_values)
from liftcert.stats import wilson_interval
from liftcert.tensor_lift import sym_kron, sym_lift


class RankError(ValueError):
    """The input does not have the rank the operation requires."""


@dataclass(frozen=True)
class BlockFamily:
    """A list of equal-row-count matrices, each named by its position."""

    blocks: list[np.ndarray]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("block family must be nonempty")
        rows = self.blocks[0].shape[0]
        if any(B.shape[0] != rows for B in self.blocks):
            raise ValueError("all blocks must share a row count")

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


def _spanner_indices(B: np.ndarray, swap_ratio: float) -> list[int]:
    """Indices of a volume-maximal k-subset of the columns of the k x n matrix B.

    A greedy start, then local search: replace a selected column whenever the
    swap multiplies the absolute determinant by more than ``swap_ratio``.  At
    termination every column of B is a combination of the selected ones with
    coefficients bounded by ``swap_ratio``.
    """
    # Greedy volume build-up: pick the column with the largest residual.
    S: list[int] = []
    R = B.copy()
    for _ in range(B.shape[0]):
        j = int(np.argmax(np.linalg.norm(R, axis=0)))
        S.append(j)
        Q, _ = np.linalg.qr(B[:, S])
        R = B - Q @ (Q.T @ B)
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


def wellcond_column_subset(A: np.ndarray, k: int) -> list[int]:
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
    if _rank_of_values(s) < k:
        raise RankError(f"sigma_{k}(A) = {s[k-1]:.3e} is below {DEFAULT_RTOL:g} times sigma_1(A)")
    B = U[:, :k].T @ A
    return sorted(_spanner_indices(B, swap_ratio=2.0))


def orth_complement_projector(columns: np.ndarray) -> np.ndarray:
    """Projector onto the orthogonal complement of the column span."""
    columns = np.asarray(columns, dtype=float)
    U, s, _ = np.linalg.svd(columns, full_matrices=False)
    Q = U[:, :_rank_of_values(s)]
    return np.eye(columns.shape[0]) - Q @ Q.T


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
    rows = _spanner_indices(basis.T, swap_ratio=1.0)
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

    def to_json(self) -> dict:
        return {
            "selected": list(self.selected),
            "relative_sigmas": {str(k): float(v) for k, v in self.relative_sigmas.items()},
            "params": self.params,
        }


def _off_other_blocks(family: BlockFamily, keep: list[int], j: int,
                      cols: np.ndarray) -> np.ndarray:
    """cols with the span of the blocks in keep, other than block j, projected out."""
    others = [family.blocks[r] for r in keep if r != j]
    return orth_complement_projector(np.hstack(others)) @ cols if others else cols


def good_blocks(family: BlockFamily, delta: float, rng: np.random.Generator,
                c1: float = 1.0 / 6.0) -> GoodBlocksResult:
    """Randomly select blocks that keep large rank relative to each other.

    Three steps: (1) pick a well-conditioned subset M of ceil(delta * n1 * n2)
    columns of the concatenation, (2) include block j with probability
    c1 * |M in block j| / n2, (3) discard included blocks with fewer than
    delta * n2 / 6 columns of M retaining a component of at least
    1 / (R n1 n2 sqrt(delta)) orthogonal to the span of the other included
    blocks.  An empty survivor set is a reported outcome, not an error: the
    guarantee behind the procedure is probabilistic.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    n1 = len(family.blocks)
    n2 = family.blocks[0].shape[1]
    if any(B.shape[1] != n2 for B in family.blocks):
        raise ValueError("good_blocks expects equal-width blocks")
    R = family.blocks[0].shape[0]
    k = math.ceil(delta * n1 * n2)
    chosen = wellcond_column_subset(family.concat(), k)
    in_block: dict[int, list[int]] = {j: [] for j in range(n1)}
    for idx in chosen:
        in_block[idx // n2].append(idx % n2)
    alphas = {j: len(in_block[j]) / n2 for j in range(n1)}

    draws = rng.random(n1)
    T = [j for j in range(n1) if draws[j] < c1 * alphas[j]]

    c2 = survival_fraction = 1.0 / 6.0
    component_threshold = 1.0 / (R * n1 * n2 * math.sqrt(delta))
    need = delta * n2 * survival_fraction
    survivors = []
    for j in T:
        cols = family.blocks[j][:, in_block[j]]
        if cols.shape[1] == 0:
            continue
        comp = np.linalg.norm(_off_other_blocks(family, T, j, cols), axis=0)
        if np.count_nonzero(comp >= component_threshold) >= need:
            survivors.append(j)

    sigma_index = max(1, math.ceil(c2 * delta * n2))
    rel = {}
    for j in survivors:
        s = singular_values(_off_other_blocks(family, survivors, j, family.blocks[j]))
        rel[j] = float(s[sigma_index - 1]) if sigma_index <= s.size else 0.0

    return GoodBlocksResult(
        selected=survivors,
        relative_sigmas=rel,
        params={"delta": delta, "c1": c1, "c2": c2,
                "survival_fraction": survival_fraction,
                "component_threshold": component_threshold},
    )


def small_ball_estimate(base_point: np.ndarray, r: int, sigma: float,
                        a: np.ndarray, eps: float, trials: int, seed: int) -> dict:
    """Monte Carlo frequency of |<row(u + noise), a>| < eps.

    Fresh sigma-perturbations of the base point per trial; the result carries
    the count, frequency, and a Wilson 95% interval.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    a = np.asarray(a, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-8:
        raise ValueError("test vector a must be a unit vector")
    base_point = np.asarray(base_point, dtype=float)
    dim = math.comb(base_point.shape[0] + r - 1, r)
    if a.shape != (dim,):
        raise ValueError(f"a must have length {dim}")
    hits = 0
    for t in range(trials):
        u = base_point + sigma * _rng.gaussians(base_point.shape, seed, "smallball", t)
        if abs(float(build_power_matrix(u, r)[0] @ a)) < eps:
            hits += 1
    low, high = wilson_interval(hits, trials)
    return {"hits": hits, "frequency": hits / trials, "wilson_low": low, "wilson_high": high}


def gaussian_ball_log_prob_bound(n: int, delta: float, rho: float) -> float:
    """Log of the small-ball bound Pr[||u + noise|| < delta] <= (delta / (rho sqrt(2)))^n / Gamma(n/2 + 1).

    This is the exact pre-Stirling form; it decreases without bound as delta
    shrinks and is a valid upper bound for every center u.
    """
    if delta <= 0 or rho <= 0:
        raise ValueError("delta and rho must be positive")
    return n * math.log(delta / (rho * math.sqrt(2.0))) - math.lgamma(n / 2.0 + 1.0)


def sigma_basic_check(n: int, k: int, delta: float, h: float, rho: float,
                      trials: int, master_seed: int, base: str = "zero") -> dict:
    """How many trials of the sigma_basic target see the k/2-th singular value
    of a perturbed scaled matrix fall below h * rho * delta, and whether that
    frequency is within a 10x desk-scale margin of the analytic tail bound
    exp(-(1/8) k n log(1/h))."""
    if h >= 1.0:
        return {"applicable": False, "reason": "h >= 1 degenerates the bound"}
    config = ExperimentConfig(
        target="sigma_basic", params={"n": n, "k": k, "delta": delta, "h": h, "base": base},
        rho_grid=[rho], trials=trials, master_seed=master_seed, threshold=0.0)
    bad = trials - run_experiment(config).per_rho[0]["pass_count"]
    bound = math.exp(-(1.0 / 8.0) * k * n * math.log(1.0 / h))
    return {"applicable": True, "bad_count": bad, "within_margin": bad / trials <= 10.0 * bound}


# The noise-decoupling split.  A smoothed matrix is (base, rho, seed): the
# realized sample is regenerated from those three fields.  The split rewrites
# the lift of one rho-perturbation as a product of d factor matrices carrying
# independent noise layers plus an explicit remainder, an identity that holds
# against any operator whose rows are symmetric tensors.

# Frozen empirical constants for the remainder-norm envelope
#   ||E||_F <= ERROR_NORM_CONST[d] * (1 + ||U||^(d-2)) * rho^2 * (n m)^(d/2).
# Calibrated once over the desk-scale grid (n <= 4, m <= 2, rho <= 0.5,
# observed maxima 1.27 and 2.36) and asserted with a 2x margin; see tests.
ERROR_NORM_CONST = {2: 2.0, 3: 4.0}


@dataclass(frozen=True)
class SmoothedMatrix:
    """Base matrix plus Gaussian noise of scale rho, regenerable from the seed."""

    base: np.ndarray
    rho: float
    seed: int
    realized: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        base = np.asarray(self.base, dtype=float)
        object.__setattr__(self, "base", base)
        noise = self.rho * _rng.gaussians(base.shape, self.seed, "perturb")
        object.__setattr__(self, "realized", base + noise)

    @property
    def noise(self) -> np.ndarray:
        return self.realized - self.base


def perturb(base: np.ndarray, rho: float, seed: int) -> SmoothedMatrix:
    """rho-smoothing of base: i.i.d. mean-zero Gaussian noise, std dev rho."""
    return SmoothedMatrix(base=np.asarray(base, dtype=float), rho=rho, seed=seed)


def _split_rhos(rho: float, d: int, split, n: int, m: int) -> np.ndarray:
    if isinstance(split, str):
        if split == "equal":
            rhos = np.full(d, rho / math.sqrt(d))
        elif split == "geometric":
            # First layer much smaller than the rest: ratio (n+m)^3 per level.
            ratio = float(n + m) ** 3
            weights = np.array([ratio ** (2 * j) for j in range(d)], dtype=float)
            rhos = rho * np.sqrt(weights / weights.sum())
        else:
            raise ValueError(f"unknown split {split!r}")
    else:
        rhos = np.asarray(split, dtype=float)
        if rhos.shape != (d,):
            raise ValueError(f"split must have {d} entries")
    return rhos


@dataclass(frozen=True)
class DecoupledFactors:
    """The d noise layers, running partials, factor matrices, and remainder.

    partials[0] is the realized matrix and partials[d] recovers the base;
    factor j is partials[j] + (d - j + 1) * layer_j.  error is n**d x
    C(m+d-1, d), like the lifts, and for any Psi with symmetric-tensor rows,

        Psi @ sym_lift(realized, d).data ==
        Psi @ sym_kron(factors) + Psi @ error.
    """

    rhos: np.ndarray
    layers: list[np.ndarray]
    partials: list[np.ndarray]
    factors: list[np.ndarray]
    error: np.ndarray

    @property
    def d(self) -> int:
        return len(self.factors)


def decouple(smoothed: SmoothedMatrix, d: int, split="equal") -> DecoupledFactors:
    """Split one rho-perturbation into d layered factors plus a remainder.

    The layers are sampled conditionally on the already-realized noise, so the
    identity is exact for this sample: layer sums reproduce the realized
    noise, and the remainder collects the binomial terms with two or more
    copies of a layer,

        E = sum_l sum_{j=2}^{d-l} C(d-l, j)
            sym_kron(F_1, ..., F_l, Z_{l+1} x j, V_{l+1} x (d-l-j)),

    where F are the factor matrices, Z the layers and V the partials.
    """
    if d < 2:
        raise ValueError("decoupling needs d >= 2")
    rhos = _split_rhos(smoothed.rho, d, split, *smoothed.base.shape)
    layers = noise_layers(smoothed.noise, smoothed.rho, rhos, smoothed.seed, "decouple")

    partials = [smoothed.realized]
    for j in range(d):
        partials.append(partials[-1] - layers[j])
    # 1-based: factor_j = V^(j) + (d - j + 1) Z_j with V^(j) = partials[j].
    factors = [partials[j + 1] + (d - j) * layers[j] for j in range(d)]

    error = sum(math.comb(d - level, j)
                * sym_kron(factors[:level] + [layers[level]] * j
                           + [partials[level + 1]] * (d - level - j))
                for level in range(d - 1) for j in range(2, d - level + 1))
    return DecoupledFactors(rhos=rhos, layers=layers, partials=partials,
                            factors=factors, error=error)


def decoupling_residual(smoothed: SmoothedMatrix, dec: DecoupledFactors,
                        psi: np.ndarray) -> float:
    """Frobenius residual of the decoupling identity against one operator psi."""
    lhs = psi @ sym_lift(smoothed.realized, dec.d).data
    rhs = psi @ sym_kron(dec.factors) + psi @ dec.error
    return float(np.linalg.norm(lhs - rhs))


def error_norm_bound(dec: DecoupledFactors, base: np.ndarray, rho: float) -> float:
    """Frozen-constant envelope for the remainder norm (with its 2x safety margin)."""
    d = dec.d
    if d not in ERROR_NORM_CONST:
        raise ValueError(f"no frozen constant for d = {d}")
    n, m = base.shape
    opnorm = float(np.linalg.norm(base, 2))
    return 2.0 * ERROR_NORM_CONST[d] * (1 + opnorm ** (d - 2)) * rho**2 * (n * m) ** (d / 2)
