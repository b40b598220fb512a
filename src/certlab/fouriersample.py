"""Classical simulation of Fourier sampling and the statistics scored on it.

Fourier sampling draws an index z with probability fhat(z)^2.  We score a
sampler three ways:

* heaviness statistics p_B (sampled coefficient Light), p_light4 (Light or
  SlightlyHeavy) and p_G = p_light4 - p_B, estimated over fresh random
  functions with one draw each;
* the heavy-output score (mean fhat(s)^2 over returned samples), whose
  honest expectation is the spectrum's fourth moment;
* total-variation distance between the output distributions of two
  spectra, computed exactly from the scaled integer coefficients.

The Gaussian reference triple is what the three statistics converge to as
n grows, obtained by quadrature of the half-integer chi-square density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolfn import FourierSpectrum, random_functions_batch, wht_rows
from .stats import wilson_halfwidth

_BATCH = 512  # functions generated and transformed per vectorized block
_SCAN_BLOCK = 64  # row entries summed per block in fourier_rows' search


class EmptySamples(ValueError):
    """Raised when a score is requested over zero samples."""


class DimensionMismatch(ValueError):
    """Raised when two spectra with different n are combined."""


@dataclass(frozen=True)
class PgPbEstimate:
    """Monte-Carlo estimate of the heaviness statistics of a sampler.

    `ci99` maps each of "p_b", "p_light4", "p_g" to its Wilson-interval
    99% half-width.  p_g is exactly p_light4 - p_b by construction.
    """

    p_b: float
    p_light4: float
    p_g: float
    trials: int
    ci99: dict

    def __post_init__(self):
        if not 0.0 <= self.p_b <= self.p_light4 <= 1.0:
            raise ValueError("need 0 <= p_b <= p_light4 <= 1")
        if abs(self.p_g - (self.p_light4 - self.p_b)) > 1e-12:
            raise ValueError("p_g must equal p_light4 - p_b")


def fourier_sample_many(
    spec: FourierSpectrum, count: int, rng: np.random.Generator
) -> np.ndarray:
    """`count` independent Fourier samples from one spectrum.

    Inverse CDF over the cumulative squared spectrum, using the scaled
    integers so the CDF grid is exact (total mass N^2).
    """
    w = spec.scaled.astype(np.int64)
    cs = np.cumsum(w * w)
    total = int(cs[-1])
    u = rng.random(count)
    return np.searchsorted(cs, u * total, side="right").astype(np.int64)


def fourier_rows(scaled_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One Fourier sample per row of scaled spectra, given one uniform per row.

    Inverse CDF on the exact integer grid: row i returns how many of its
    cumulative masses cs[i, j] = sum_{k <= j} W[i, k]^2 lie strictly below
    u[i] * cs[i, -1], for integer rows with |W| <= N (scaled spectra of +-1
    tables).  Rows of at most one block (N <= 64) are scanned whole.  Longer
    rows are searched without building cs: an integer cs lies below the
    float64 product x = u * total exactly when it lies below t = ceil(x);
    W^2 goes into int32 when N <= 2^15 (W^2 <= 2^30) and int64 above; the
    blocks of 64 whose cumulative mass (summed in int64) lies below t are
    the blocks wholly before the sample; and the cumulative sum is taken
    inside the next block only.  The index equals the whole-row scan's on
    every row, u = 0.0 included.
    """
    rows, size = scaled_rows.shape
    if size <= _SCAN_BLOCK:
        w = scaled_rows.astype(np.int64)
        cs = np.cumsum(w * w, axis=1)
        return (cs < (u * cs[:, -1])[:, None]).sum(axis=1).astype(np.int64)
    sq = np.square(scaled_rows, dtype=np.int32 if size <= 1 << 15 else np.int64)
    blocks = sq.reshape(rows, size // _SCAN_BLOCK, _SCAN_BLOCK)
    mass = blocks.sum(axis=2, dtype=np.int64)
    cb = np.cumsum(mass, axis=1)
    t = np.ceil(u * cb[:, -1]).astype(np.int64)
    k = (cb < t[:, None]).sum(axis=1)
    r = np.arange(rows)
    rest = t - (cb[r, k] - mass[r, k])
    inside = np.cumsum(blocks[r, k], axis=1, dtype=np.int64)
    return k * _SCAN_BLOCK + (inside < rest[:, None]).sum(axis=1)


def hog_score(spec: FourierSpectrum, samples) -> float:
    """Mean of fhat(s)^2 over the given samples (the heavy-output score)."""
    s = np.asarray(samples, dtype=np.int64)
    if s.size == 0:
        raise EmptySamples("hog_score needs at least one sample")
    c = spec.coeffs[s]
    return float(np.mean(c * c))


class HonestSampler:
    """Draws z ~ fhat(z)^2 — the distribution the quantum algorithm outputs."""

    name = "honest"

    def sample_batch(self, scaled_rows: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        return fourier_rows(scaled_rows, rng.random(scaled_rows.shape[0]))


class UniformSampler:
    """Ignores the function and returns a uniform index (a blind cheat)."""

    name = "uniform"

    def sample_batch(self, scaled_rows: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        rows, size = scaled_rows.shape
        return rng.integers(0, size, size=rows, dtype=np.int64)


honest_sampler = HonestSampler()
uniform_sampler = UniformSampler()


def pgpb_counts(n: int, algorithm, functions: int,
                rng: np.random.Generator) -> tuple[int, int]:
    """(Light count, Light-or-SlightlyHeavy count) over fresh functions.

    Each trial draws a new uniform function, lets the algorithm return one
    index, and classifies the coefficient at that index by exact integer
    comparison on the scaled spectrum.  `algorithm` returns one index per
    row through `sample_batch(scaled_rows, rng)`, as `honest_sampler` and
    `uniform_sampler` do.
    """
    if functions < 0:
        raise ValueError("functions must be nonnegative")
    size = 1 << n
    n_light = 0
    n_light4 = 0
    done = 0
    while done < functions:
        b = min(_BATCH, functions - done)
        scaled = wht_rows(random_functions_batch(n, b, rng))
        idx = algorithm.sample_batch(scaled, rng)
        w = scaled[np.arange(b), idx].astype(np.int64)
        w2 = w * w
        n_light += int(np.count_nonzero(w2 <= size))
        n_light4 += int(np.count_nonzero(w2 <= 4 * size))
        done += b
    return n_light, n_light4


def pgpb_from_counts(n_light: int, n_light4: int, functions: int) -> PgPbEstimate:
    """Assemble the estimate (with Wilson CIs) from raw class counts."""
    if functions < 1:
        raise ValueError("need at least one trial")
    p_b = n_light / functions
    p_light4 = n_light4 / functions
    ci = {
        "p_b": wilson_halfwidth(n_light, functions),
        "p_light4": wilson_halfwidth(n_light4, functions),
        "p_g": wilson_halfwidth(n_light4 - n_light, functions),
    }
    return PgPbEstimate(p_b, p_light4, p_light4 - p_b, functions, ci)


def estimate_pg_pb(n: int, algorithm, functions: int,
                   rng: np.random.Generator) -> PgPbEstimate:
    """Heaviness statistics of `algorithm` over fresh random functions."""
    n_light, n_light4 = pgpb_counts(n, algorithm, functions, rng)
    return pgpb_from_counts(n_light, n_light4, functions)


def gaussian_reference() -> tuple[float, float, float]:
    """Large-n limits of (p_B, p_light4, p_G) for the honest sampler.

    In the limit a sampled coefficient behaves like sqrt(N)*fhat -> u with
    density u^2 exp(-u^2/2)/sqrt(2*pi) (a size-biased standard normal), so
    p_B is that density integrated over [-1, 1] and p_light4 over [-2, 2].
    Quadrature is accurate to well below 1e-10, comfortably past the six
    digits promised.
    """

    # imported here, not at the top: scipy.integrate adds ~0.6 s to every start
    from scipy import integrate

    def density(u):
        return u * u * np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)

    p_b, _ = integrate.quad(density, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    p_light4, _ = integrate.quad(density, -2.0, 2.0, epsabs=1e-12, epsrel=1e-12)
    return p_b, p_light4, p_light4 - p_b


def exact_band_rates(n: int, sampler: str = "honest") -> tuple[float, float, float]:
    """Exact (p_B, p_light4, p_G) at N = 2^n for the "honest" or "uniform" sampler.

    Every fhat(z) of a uniform random function has the law of W/N, where
    W = N - 2K and K ~ Binomial(N, 1/2).  A uniform index sees that law
    as is, so p_B = P(W^2 <= N).  The honest sampler picks z with weight
    fhat(z)^2, and summing over z gives
    p_B = sum_{w^2 <= N} (w^2/N) C(N, (N+w)/2) / 2^N.  p_light4 is the
    same sum over w^2 <= 4N.  The binomial masses are floats
    (scipy.stats.binom), so this is fast up to MAX_N.  The honest triple
    tends to gaussian_reference() as n grows.
    """
    if sampler not in ("honest", "uniform"):
        raise ValueError(f"unknown sampler {sampler!r}")
    # imported here, not at the top: scipy.stats adds ~0.3 s to every start
    from scipy.stats import binom

    size = 1 << n
    r = math.isqrt(4 * size)  # |w| <= r exactly when w^2 <= 4N
    k = np.arange((size - r + 1) // 2, (size + r) // 2 + 1)
    w2 = (size - 2 * k) ** 2
    mass = binom.pmf(k, size, 0.5)
    if sampler == "honest":
        mass = mass * w2 / size
    p_b = float(mass[w2 <= size].sum())
    p_light4 = float(mass.sum())
    return p_b, p_light4, p_light4 - p_b


def tv_distance(spec1: FourierSpectrum, spec2: FourierSpectrum) -> float:
    """Total-variation distance between the two Fourier-sampling outputs.

    (1/2) sum_z |fhat1(z)^2 - fhat2(z)^2|, computed on the scaled integers
    (exact; the sum is bounded by 2 N^2, far inside int64).
    """
    if spec1.n != spec2.n:
        raise DimensionMismatch(
            f"spectra have different n: {spec1.n} vs {spec2.n}"
        )
    w1 = spec1.scaled.astype(np.int64)
    w2 = spec2.scaled.astype(np.int64)
    num = int(np.sum(np.abs(w1 * w1 - w2 * w2)))
    size = 1 << spec1.n
    return num / (2.0 * size * size)
