"""Small statistical helpers shared by the builders and the harness."""

from __future__ import annotations

import math

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


def _quantile(v: list, q: float) -> float:
    """np.quantile(v, q) of a sorted list by numpy's default (linear) method,
    bit for bit: the values either side of position (n-1) q (from the last
    index on, the last value twice with weight position + 1, as numpy takes
    them), mixed by numpy's lerp, which rounds from the nearer end."""
    pos = (len(v) - 1) * q
    lo = math.floor(pos)
    if lo < len(v) - 1:
        a, b, g = v[lo], v[lo + 1], pos - lo
    else:
        a, b, g = v[-1], v[-1], pos + 1
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def quantile_summary(values) -> dict:
    """min, quartiles, median and max of the values, bit for bit as numpy's
    np.min, np.quantile, np.median and np.max give them (nan if any is)."""
    v = sorted(map(float, values))
    if any(map(math.isnan, v)):
        v = [math.nan]
    n = len(v)
    median = v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2
    return {"min": v[0], "q25": _quantile(v, 0.25), "median": median,
            "q75": _quantile(v, 0.75), "max": v[-1]}
