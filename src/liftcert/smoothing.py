"""Gaussian perturbation model and the noise-decoupling split.

A smoothed matrix is (base, rho, seed): the realized sample is regenerated
from those three fields and is never stored on disk.  The decoupling split
rewrites the lift of one rho-perturbation as a product of d factor matrices
carrying independent noise layers plus an explicit remainder, an identity that
holds against any operator whose rows are symmetric tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .tensor_lift import sym_kron, sym_lift

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
    raw = [r * g for r, g in zip(rhos, _rng.gaussians(Z.shape, seed, *path, stack=len(rhos)))]
    excess = sum(raw) - Z
    return [layer - (r / rho) ** 2 * excess for layer, r in zip(raw, rhos)]


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
