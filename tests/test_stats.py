"""Confidence-interval helpers."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from certlab.stats import Z99, MeanCI, mean_ci99, wilson_halfwidth


def wilson_center(k: int, n: int, z: float = Z99) -> float:
    """Center of the Wilson score interval (shrinks p toward 1/2)."""
    z2 = z * z
    return (k / n + z2 / (2.0 * n)) / (1.0 + z2 / n)


def test_z99_is_the_two_sided_99_percent_quantile():
    assert Z99 == pytest.approx(sps.norm.ppf(0.995), abs=1e-12)


def test_mean_ci99_matches_normal_formula():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    est = mean_ci99(x)
    assert est.mean == pytest.approx(3.0)
    sem = np.std(x, ddof=1) / math.sqrt(5)
    assert est.ci99 == pytest.approx(Z99 * sem)
    assert est.n == 5


def test_mean_ci99_single_sample_is_unbounded():
    est = mean_ci99(np.array([1.5]))
    assert est.mean == 1.5
    assert est.ci99 == math.inf


def test_mean_ci99_covers_true_mean_usually():
    # 200 repetitions at 99%: expect ~2 misses, allow up to 10
    rng = np.random.default_rng(123)
    misses = 0
    for _ in range(200):
        x = rng.normal(0.7, 1.3, size=400)
        est = mean_ci99(x)
        if abs(est.mean - 0.7) > est.ci99:
            misses += 1
    assert misses <= 10


def test_wilson_halfwidth_known_value():
    # k=50, n=100: Wilson interval at z=2.5758 is 0.5 +- 0.1247
    hw = wilson_halfwidth(50, 100)
    assert hw == pytest.approx(0.12475, abs=5e-4)
    assert wilson_center(50, 100) == pytest.approx(0.5)


def test_wilson_extremes_stay_in_unit_interval():
    # the k=0 / k=n edges are exactly 0 / 1; allow rounding at that scale
    for k, n in [(0, 50), (50, 50), (1, 10**6)]:
        c = wilson_center(k, n)
        hw = wilson_halfwidth(k, n)
        assert -1e-15 <= c - hw <= c + hw <= 1.0 + 1e-15


def test_meanci_is_plain_data():
    est = MeanCI(0.5, 0.1, 42)
    assert (est.mean, est.ci99, est.n) == (0.5, 0.1, 42)
