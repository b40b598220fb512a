"""Classical simulation of Fourier sampling and the statistics scored on it.

Fourier sampling draws an index z with probability fhat(z)^2.  We score a
sampler three ways:

* heaviness statistics p_B (sampled coefficient Light), p_light4 (Light or
  SlightlyHeavy) and p_G = p_light4 - p_B, estimated over fresh random
  functions with one draw each.  A coefficient is Light up to
  |fhat| = 1/sqrt(N) and SlightlyHeavy up to 2/sqrt(N), both boundaries
  inclusive, judged exactly on the scaled integers as W^2 <= N, 4N;
* the heavy-output score (mean fhat(s)^2 over returned samples), whose
  honest expectation is the spectrum's fourth moment;
* total-variation distance between the output distributions of two
  spectra, computed exactly from the scaled integer coefficients.

The Gaussian reference triple is what the three statistics converge to as
n grows: the chi-square (three degrees of freedom) masses below 1 and 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolfn import (_BLOCK, FourierSpectrum, _exact_work, _factor_bits,
                     _kron_blocks, random_functions_batch, wht_rows)
from .rng import blocks
from .stats import wilson_halfwidth

_BATCH = 512  # functions generated and transformed per vectorized block
_SCAN_BLOCK = 64  # row entries summed per block in fourier_rows' search
_NARROW = 128  # longest row fourier_rows scans whole, in int32 (N^3 <= 2^21)


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


def _threshold(u: np.ndarray, total) -> np.ndarray:
    """t = floor(u * total) + 1 in the dtype of the integer `total`: the tie
    rule.  Index i owns u * total in [cs[i-1], cs[i]), so the sample is the
    count of integer cs < t, never an index with zero mass.  u >= 0, so the
    cast is the floor; u < 1 keeps t <= total."""
    return (u * total).astype(total.dtype) + 1


def fourier_sample_many(spec: FourierSpectrum, u: np.ndarray) -> np.ndarray:
    """One Fourier sample from one spectrum per given uniform.

    Inverse CDF over the cumulative squared spectrum, using the scaled
    integers so the CDF grid is exact (total mass N^2), by binary search
    for the threshold of `_threshold`.
    """
    w = spec.scaled.astype(np.int64)
    cs = np.cumsum(w * w)
    t = _threshold(u, cs[-1])
    return np.searchsorted(cs, t, side="left").astype(np.int64, copy=False)


def _column_scan(sq: np.ndarray) -> np.ndarray:
    """Cumulative sums down axis 0 of a C-ordered (N, B) array, in place:
    N - 1 adds of whole rows, which beat np.cumsum down axis 0."""
    for j in range(1, sq.shape[0]):
        np.add(sq[j - 1], sq[j], out=sq[j])
    return sq


def fourier_rows(scaled_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One Fourier sample per row of scaled spectra, given one uniform per row.

    Inverse CDF on the exact integer grid: row i returns how many of its
    cumulative masses cs[i, j] = sum_{k <= j} W[i, k]^2 lie below the
    threshold t = floor(u[i] * cs[i, -1]) + 1 of `_threshold`, for integer
    rows with |W| <= N (scaled spectra of +-1 tables) and u in [0, 1): the
    same index as `fourier_sample_many`'s binary search on every such u.

    Rows with N <= _NARROW (128) are scanned whole in int32, since |W| <= N
    bounds every cs by N^3 <= 2^21.  The squares are laid out transposed,
    so the cumulative sum is N - 1 adds of whole rows down axis 0.  Longer
    rows go to `_search_blocks`, their 64-entry blocks squared one chunk of
    _BLOCK elements at a time and summed by a product with a ones vector,
    in the exact type of 64 m^2 (m = max |W| over the chunk, read while it
    is in cache; float32 for random +-1 spectra at n <= 12), which bounds
    every partial sum.
    """
    rows, size = scaled_rows.shape
    if size <= _NARROW:
        cs = _column_scan(np.square(scaled_rows.T, dtype=np.int32, order="C"))
        t = _threshold(u, cs[-1])
        # a count is at most N <= 128, so it is summed in uint8
        return (cs < t).sum(axis=0, dtype=np.uint8).astype(np.int64)
    cells = scaled_rows.reshape(rows, size // _SCAN_BLOCK, _SCAN_BLOCK)
    flat = cells.reshape(-1, _SCAN_BLOCK)
    cb = np.empty(flat.shape[0], dtype=np.int64)
    for i, c in blocks(flat.shape[0], _BLOCK // _SCAN_BLOCK):
        x = flat[i:i + c]
        work = _exact_work(_SCAN_BLOCK * max(int(x.max()), -int(x.min())) ** 2)
        cb[i:i + c] = np.square(x, dtype=work) @ np.ones(_SCAN_BLOCK, dtype=work)
    return _search_blocks(cb.reshape(cells.shape[:2]), u,
                          lambda k: cells[np.arange(rows), k])[0]


def _search_blocks(cb: np.ndarray, u: np.ndarray, block):
    """(index, entry) per row by `_threshold`'s search over equal blocks:
    `cb` (clobbered) holds the exact int64 (B, K) block masses, block(k)
    the (B, L) entries of block k[i] of row i.  Blocks of cumulative mass
    below t lie before the sample; inside the next, cumulative squares meet
    t less the mass before it, in the exact type of the largest total."""
    np.cumsum(cb, axis=1, out=cb)
    t = _threshold(u, cb[:, -1])
    k = (cb < t[:, None]).sum(axis=1)
    r = np.arange(cb.shape[0])
    work = _exact_work(int(cb[:, -1].max(initial=0)))
    rest = (t - np.where(k > 0, cb[r, k - 1], 0)).astype(work)
    cells = block(k)
    inside = _column_scan(np.square(cells.T, dtype=work, order="C"))
    j = (inside < rest).sum(axis=0, dtype=np.uint8)
    return k * cells.shape[1] + j, cells[r, j]


def fourier_tables(tables: np.ndarray, u: np.ndarray):
    """(z, W(z)) per row of integer tables with N >= 64, given one uniform
    per row: `fourier_rows(wht_rows(tables), u)` and the coefficient there.

    With G the transform over every Kronecker factor but the last, H_d,
    W(z_hi, .) = G(z_hi, .) H_d, so by Parseval a 64-entry block of W has
    mass d sum G^2 over the same entries of G.  Each block of rows (about
    _BLOCK elements) gets every planned stage but the last (`_kron_blocks`),
    and G and its block masses are stored while in cache, through buffers
    allocated once per call; only each row's chosen block goes through H_d.
    |G| <= m N/d (m = max |x|) sets the stages' exact float type, G's
    narrowest integer type (int16 at n = 12) and, as 64 (m N/d)^2, the
    masses' type.
    """
    rows, size = tables.shape
    d = 1 << _factor_bits(size.bit_length() - 1)[-1]
    reach = size // d * max(1, int(tables.max(initial=0)), -int(tables.min(initial=0)))
    # the smallest signed type whose range holds -reach - 1 also holds reach
    g = np.empty((rows, size // _SCAN_BLOCK, _SCAN_BLOCK),
                 dtype=np.min_scalar_type(-reach - 1))
    sq = np.empty((max(1, min(rows, _BLOCK // size)) * size // _SCAN_BLOCK,
                   _SCAN_BLOCK), dtype=_exact_work(_SCAN_BLOCK * reach * reach))
    mass = np.empty(g.shape[:2], dtype=sq.dtype)
    dsum = np.full(_SCAN_BLOCK, d, dtype=sq.dtype)  # exact: d is a power of 2
    for i, m, part in _kron_blocks(tables, _exact_work(reach), last=False):
        g[i:i + m] = part.reshape(m, -1, _SCAN_BLOCK)
        c = m * size // _SCAN_BLOCK
        np.square(part.reshape(c, -1), out=sq[:c])
        chunk = min(c, _BLOCK // _SCAN_BLOCK)
        np.matmul(sq[:c].reshape(-1, chunk, _SCAN_BLOCK), dsum,
                  out=mass[i:i + m].reshape(-1, chunk))
    z, w = _search_blocks(mass.astype(np.int64), u, lambda k: wht_rows(
        g[np.arange(rows), k].reshape(-1, d)).reshape(rows, _SCAN_BLOCK))
    return z, w.astype(np.int64)


def hog_score(spec: FourierSpectrum, samples) -> float:
    """Mean of fhat(s)^2 over the given samples (the heavy-output score)."""
    s = np.asarray(samples, dtype=np.int64)
    if s.size == 0:
        raise EmptySamples("hog_score needs at least one sample")
    c = spec.coeffs[s]
    return float(np.mean(c * c))


class HonestSampler:
    """Draws z ~ fhat(z)^2 — the distribution the quantum algorithm outputs."""

    def sample_batch(self, scaled_rows: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        return fourier_rows(scaled_rows, rng.random(scaled_rows.shape[0]))


honest_sampler = HonestSampler()


def pgpb_counts(n: int, device, functions: int,
                rng: np.random.Generator) -> tuple[int, int]:
    """(Light count, Light-or-SlightlyHeavy count) over fresh functions.

    Each trial draws a new uniform function, lets the device answer it with
    one index and the scaled coefficient there
    (`device.answer_tables(tables, rng)`, a `DeviceModel`), and classifies
    that coefficient by exact integer comparison.
    """
    if functions < 0:
        raise ValueError("functions must be nonnegative")
    size = 1 << n
    n_light = 0
    n_light4 = 0
    for _, b in blocks(functions, _BATCH):
        _, w = device.answer_tables(random_functions_batch(n, b, rng), rng)
        w2 = w * w
        n_light += int(np.count_nonzero(w2 <= size))
        n_light4 += int(np.count_nonzero(w2 <= 4 * size))
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


_GAUSSIAN_REFERENCE = (0.1987480430987992, 0.7385358700508894,
                       0.7385358700508894 - 0.1987480430987992)


def gaussian_reference() -> tuple[float, float, float]:
    """Large-n limits of (p_B, p_light4, p_G) for the honest sampler.

    In the limit a sampled coefficient behaves like sqrt(N)*fhat -> u with
    density u^2 exp(-u^2/2)/sqrt(2*pi) (a size-biased standard normal), so
    p_B is that density integrated over [-1, 1] and p_light4 over [-2, 2].
    The values are pinned to the bits a quadrature gave; the closed form
    erf(a/sqrt(2)) - a sqrt(2/pi) exp(-a^2/2) differs in the last digit,
    which would move every pgpb payload.  The tests hold them to both.
    """
    return _GAUSSIAN_REFERENCE


def exact_band_rates(n: int, sampler: str = "honest") -> tuple[float, float, float]:
    """Exact (p_B, p_light4, p_G) at N = 2^n for the "honest" or "uniform" sampler.

    Every fhat(z) of a uniform random function has the law of W/N, where
    W = N - 2K and K ~ Binomial(N, 1/2).  A uniform index sees that law
    as is, so p_B = P(W^2 <= N).  The honest sampler picks z with weight
    fhat(z)^2, and summing over z gives
    p_B = sum_{w^2 <= N} (w^2/N) C(N, (N+w)/2) / 2^N.  p_light4 is the
    same sum over w^2 <= 4N.  The binomial masses are floats
    (scipy.stats.binom), so this is fast up to MAX_N.  The honest triple
    tends to gaussian_reference() as n grows, a pinned constant that the
    tests check against the closed form and a quadrature.
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
