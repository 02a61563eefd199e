"""Confidence intervals and goodness-of-fit helpers shared by the games."""

from __future__ import annotations

import functools
import itertools
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

_EPS = 2.0 ** -52
_NEWTON_STEPS = 16  # cap; the tests' grid needs at most 7


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at 95 % confidence for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return center - half, center + half


def wilson_halfwidth(successes: int, trials: int) -> float:
    lo, hi = wilson_interval(successes, trials)
    return (hi - lo) / 2.0


def chi_square_statistic(counts: Sequence[int]) -> float:
    """Goodness-of-fit statistic against the uniform distribution."""
    total = sum(counts)
    if total < 1:
        raise ValueError("need at least one observation")
    expected = total / len(counts)
    return sum((c - expected) ** 2 for c in counts) / expected


def _log_gamma_tails(a: float, y: float) -> tuple[float, float, float]:
    """log(y^a e^-y / Gamma(a)), log P(a, y) and log Q(a, y): by the series below
    y = a + 1, by the Lentz fraction above (Numerical Recipes, 3rd ed., 6.2)."""
    log_front = a * math.log(y) - y - math.lgamma(a)
    if y < a + 1.0:
        n, term, total = 0, 1.0 / a, 1.0 / a
        while term > total * _EPS:
            n += 1
            term *= y / (a + n)
            total += term
        return log_front, log_front + math.log(total), math.log1p(-total * math.exp(log_front))
    # From y >= a + 1 every denominator of the fraction exceeds 1: no Lentz guards.
    b = y + 1.0 - a
    c, d, h = math.inf, 1.0 / b, 1.0 / b
    for i in itertools.count(1):
        an, b = -i * (i - a), b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            break
    return log_front, math.log1p(-h * math.exp(log_front)), log_front + math.log(h)


@functools.lru_cache(maxsize=256)
def chi_square_critical(dof: int, significance: float) -> float:
    """Upper critical value: reject uniformity when the statistic exceeds it.

    Newton steps in log x on log Q(dof/2, x/2) = log significance, or from 0.5 up on
    log P = log(1 - significance) (exact), start from the Wilson-Hilferty cube (normal
    quantile: Abramowitz-Stegun 26.2.23), or from the small-x P where it is not positive.
    """
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
    upper = significance < 0.5
    target = math.log(significance if upper else 1.0 - significance)
    t = math.sqrt(-2.0 * target)
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    a, h, prev = dof / 2.0, 2.0 / (9.0 * dof), math.inf
    cube = 1.0 - h + (z if upper else -z) * math.sqrt(h)
    u = math.log(a) + 3.0 * math.log(cube) if cube > 0 else (target + math.lgamma(a + 1)) / a
    for _ in range(_NEWTON_STEPS):
        log_front, log_p, log_q = _log_gamma_tails(a, math.exp(u))
        log_tail = log_q if upper else log_p
        step = (log_tail - target) * math.exp(log_tail - log_front)
        if not abs(step) < prev:
            break
        u += step if upper else -step
        prev = abs(step)
        if prev < 1e-13:
            break
    return 2.0 * math.exp(u)
