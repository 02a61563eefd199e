"""Confidence intervals and goodness-of-fit helpers shared by the games."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "Z95",
    "wilson_interval",
    "wilson_halfwidth",
    "chi_square_statistic",
    "chi_square_critical",
]

Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return center - half, center + half


def wilson_halfwidth(successes: int, trials: int, z: float = Z95) -> float:
    lo, hi = wilson_interval(successes, trials, z)
    return (hi - lo) / 2.0


def chi_square_statistic(counts: Sequence[int]) -> float:
    """Goodness-of-fit statistic against the uniform distribution."""
    total = sum(counts)
    if total < 1:
        raise ValueError("need at least one observation")
    expected = total / len(counts)
    return sum((c - expected) ** 2 for c in counts) / expected


def chi_square_critical(dof: int, significance: float) -> float:
    """Upper critical value: reject uniformity when the statistic exceeds it."""
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
    from scipy.special import chdtri

    return float(chdtri(dof, significance))
