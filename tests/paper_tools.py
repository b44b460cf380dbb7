"""The paper's proof devices, checked empirically by the tests.

No command, target or benchmark op reaches these: the good-blocks random
restriction, spread vectors, the power-row and Gaussian small-ball bounds,
and the tail check of the sigma_basic target.
"""

import math
from dataclasses import dataclass

import numpy as np

from liftcert import rng as _rng
from liftcert.harness import ExperimentConfig, run_experiment
from liftcert.powersum import power_row
from liftcert.spectral import (BlockFamily, _rank_of_values, _spanner_indices, check_orthonormal,
                               singular_values, wellcond_column_subset)
from liftcert.stats import wilson_interval


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
        if abs(float(power_row(u, r) @ a)) < eps:
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
