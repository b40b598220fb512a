"""Exact finite-N laws for the rates the acceptance gate samples, and the
other closed forms the tests hold the package to.

These are test oracles: closed forms, in integer arithmetic (`math.comb`,
`fractions.Fraction`) where the law is a count, that import nothing from
certlab, so they share no code with the implementation they check.

* `band_rates(n)`: the honest sampler's (p_B, p_light4, p_G) on a uniform
  random function at N = 2^n.  `gaussian_reference()` is only their
  large-n limit.  `uniform_band_rates(n)`: the same for a uniform index.
* `gaussian_limits()`: that limit in closed form, in floats from `math`.
* `balance_tail(n)`: the probability that a Binomial(N, 1/2) ones count
  leaves the (1 +- N^(-1/3)) N/2 band.  The 5/N^2 allowance holds for it
  only from n = 16 on.
* `classify_scaled(w, N)`: the heaviness class of W = N fhat, judged on
  integers, boundaries inclusive.
* `min_entropy`, `statistical_distance`, `coupling_rate_disjoint` and
  `exact_coupling_rate`: the entropy and shared-stream coupling laws of
  probability vectors (plain float arrays).
* `degree_ratio(N)`: the binomial ratio whose limit is e^{1/2}.
"""

import enum
import math
from fractions import Fraction

import numpy as np


def _band_mass(n: int, a: int) -> Fraction:
    """P(N fhat(z)^2 <= a) for z drawn with probability fhat(z)^2.

    Every fhat(z) of a uniform f has the law of fhat(0) = W/N, where
    W = N - 2K and K ~ Binomial(N, 1/2).  Summing over z therefore gives
    N E[(W/N)^2 1[W^2 <= aN]] = sum_{w^2 <= aN} (w^2/N) C(N, (N+w)/2) / 2^N.
    """
    size = 1 << n
    total = sum((size - 2 * k) ** 2 * c
                for k, c in _central_binomials(size, math.isqrt(a * size)))
    return Fraction(total, size << size)


def band_rates(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (p_B, p_light4, p_G) of the honest sampler at N = 2^n."""
    p_b = _band_mass(n, 1)
    p_light4 = _band_mass(n, 4)
    return p_b, p_light4, p_light4 - p_b


def uniform_band_rates(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (p_B, p_light4, p_G) of an index drawn uniformly, ignoring f.

    fhat(z) at a fixed z has the law of W/N, so each band mass is a plain
    binomial sum: P(W^2 <= aN) = sum_{w^2 <= aN} C(N, (N+w)/2) / 2^N.
    """
    size = 1 << n

    def mass(a):
        inside = sum(c for _, c in _central_binomials(size, math.isqrt(a * size)))
        return Fraction(inside, 1 << size)

    p_b, p_light4 = mass(1), mass(4)
    return p_b, p_light4, p_light4 - p_b


def gaussian_limits() -> tuple[float, float, float]:
    """Large-n (p_B, p_light4, p_G): the chi-square(3) masses below 1 and 4.

    sqrt(N) fhat at an honest sample tends to u with density
    u^2 exp(-u^2/2)/sqrt(2 pi), and integrating by parts gives
    int_{-a}^{a} = erf(a/sqrt(2)) - a sqrt(2/pi) exp(-a^2/2).
    """
    def mass(a):
        return (math.erf(a / math.sqrt(2))
                - a * math.sqrt(2 / math.pi) * math.exp(-a * a / 2))

    p_b, p_light4 = mass(1), mass(2)
    return p_b, p_light4, p_light4 - p_b


def balance_tail(n: int) -> Fraction:
    """P(K outside [(1 - d) N/2, (1 + d) N/2]), K ~ Binomial(N, 1/2), d = N^(-1/3).

    K is inside exactly when |2K - N|^3 <= N^2.  The inside mass spans
    only ~N^(2/3) terms, so the tail is taken as its complement.
    """
    size = 1 << n
    r = round(size ** (2.0 / 3.0))  # integer cube root of N^2, fixed below
    while r ** 3 > size * size:
        r -= 1
    while (r + 1) ** 3 <= size * size:
        r += 1
    inside = sum(c for _, c in _central_binomials(size, r))
    return Fraction((1 << size) - inside, 1 << size)


def _central_binomials(size: int, r: int):
    """(k, C(size, k)) for every k with |2k - size| <= r, in increasing k.

    One math.comb, then the exact integer step C(N, k+1) = C(N, k) (N - k)/(k + 1).
    """
    lo = (size - r + 1) // 2
    c = math.comb(size, lo)
    for k in range(lo, (size + r) // 2 + 1):
        yield k, c
        c = c * (size - k) // (k + 1)


class HeavinessClass(enum.Enum):
    LIGHT = "Light"
    SLIGHTLY_HEAVY = "SlightlyHeavy"
    VERY_HEAVY = "VeryHeavy"


def classify_scaled(w: int, N: int) -> HeavinessClass:
    """Exact integer heaviness of a scaled coefficient W = N*fhat: Light up
    to |fhat| = 1/sqrt(N), SlightlyHeavy up to 2/sqrt(N), both inclusive."""
    w2 = int(w) * int(w)
    if w2 <= N:
        return HeavinessClass.LIGHT
    if w2 <= 4 * N:
        return HeavinessClass.SLIGHTLY_HEAVY
    return HeavinessClass.VERY_HEAVY


def min_entropy(d: np.ndarray) -> float:
    """-log2 of the largest outcome probability."""
    return -math.log2(float(np.max(d)))


def statistical_distance(d: np.ndarray, d2: np.ndarray) -> float:
    """Half the L1 distance between two distributions on the same domain."""
    if d.size != d2.size:
        raise ValueError("distributions live on different domains")
    return 0.5 * float(np.abs(d - d2).sum())


def coupling_rate_disjoint(delta: float) -> float:
    """Disagreement rate 2 delta/(1+delta) for disjoint-difference pairs."""
    return 2.0 * delta / (1.0 + delta)


def exact_coupling_rate(d: np.ndarray, d2: np.ndarray) -> float:
    """Exact Pr over shared streams r that d and d2 replay to different points.

    Conditioning on the first attempt accepted by either run: both accept
    together with the overlap mass, one run pulls ahead with mass
    |d - d2|, and a run that fell behind still finishes on the same point
    x with probability min(d, d2)(x).  Collecting terms:

        (2 delta - sum_x |d(x)-d2(x)| min(d(x), d2(x))) / (1 + delta).

    This equals 2 delta/(1+delta) exactly when the two laws differ only on
    points where one of them is zero.
    """
    delta = statistical_distance(d, d2)
    if delta == 0.0:
        return 0.0
    cross = float(np.sum(np.abs(d - d2) * np.minimum(d, d2)))
    return (2.0 * delta - cross) / (1.0 + delta)


def degree_ratio(N: int) -> float:
    """binom(N/2 + sqrt(N)/2, sqrt(N)/2) / binom(N/2, sqrt(N)/2), log-space.

    Monotone in N, at least (1 + 1/sqrt(N))^{sqrt(N)/2}, and increases
    toward e^{1/2} = 1.6487... from below.
    """
    if N < 4:
        raise ValueError("N must be at least 4")
    root = math.isqrt(N)
    if root * root != N or root % 2 != 0:
        raise ValueError(f"sqrt(N)/2 is not an integer for N = {N}")
    r = root // 2
    half = N // 2

    def log_binom(a: int, b: int) -> float:
        return (
            math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
        )

    return math.exp(log_binom(half + r, r) - log_binom(half, r))
