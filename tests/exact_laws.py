"""Exact finite-N laws for the rates the acceptance gate samples.

These are test oracles: closed forms in integer arithmetic (`math.comb`,
`fractions.Fraction`) that import nothing from certlab, so they share no
code with the implementation they check.

* `band_rates(n)`: the honest sampler's (p_B, p_light4, p_G) on a uniform
  random function at N = 2^n.  `gaussian_reference()` is only their
  large-n limit.  `uniform_band_rates(n)`: the same for a uniform index.
* `gaussian_limits()`: that limit in closed form, in floats from `math`.
* `balance_tail(n)`: the probability that a Binomial(N, 1/2) ones count
  leaves the (1 +- N^(-1/3)) N/2 band.  The 5/N^2 allowance holds for it
  only from n = 16 on.
"""

import math
from fractions import Fraction


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
