"""Small statistical helpers shared by the builders and the harness."""

from __future__ import annotations

import math

import numpy as np

Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + Z95**2 / trials
    center = (p + Z95**2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(p * (1 - p) / trials + Z95**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def quantile_summary(values) -> dict:
    v = np.asarray(values, dtype=float)
    return {
        "min": float(np.min(v)),
        "q25": float(np.quantile(v, 0.25)),
        "median": float(np.median(v)),
        "q75": float(np.quantile(v, 0.75)),
        "max": float(np.max(v)),
    }
