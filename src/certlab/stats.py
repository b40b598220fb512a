"""Small statistics helpers shared by the experiment drivers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Two-sided 99% normal quantile, Phi^{-1}(0.995).
Z99 = 2.5758293035489004


@dataclass(frozen=True)
class MeanCI:
    """Sample mean with a symmetric 99% confidence half-width."""

    mean: float
    ci99: float
    n: int


def mean_ci99(samples: np.ndarray) -> MeanCI:
    """Mean and normal-approximation 99% CI half-width of a sample array."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    m = float(x.mean())
    if n == 1:
        return MeanCI(m, math.inf, 1)
    sd = float(x.std(ddof=1))
    return MeanCI(m, Z99 * sd / math.sqrt(n), n)


def wilson_halfwidth(k: int, n: int, z: float = Z99) -> float:
    """Half-width of the Wilson score interval for k successes in n trials."""
    if n <= 0:
        raise ValueError("need at least one trial")
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return half

