"""Deterministic random-number plumbing.

Everything downstream draws its randomness through this module so that a
single 64-bit seed pins every experiment byte-for-byte.  Two layers:

* ``splitmix64`` -- a tiny counter-based mixer: word j of the stream of
  seed s is mix64(s + (j+1) GOLDEN) mod 2^64 (``mix64`` scalar,
  ``mix64_array`` vectorized).  Used for key derivation and for raw
  reproducible 64-bit words (the protocol's challenge tables).
  Reference output for seed 0:
  0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.
* ``make_rng`` -- a numpy ``Generator`` backed by the counter-based Philox
  bit generator, keyed off a derived splitmix64 word.  Used for bulk
  sampling.  Because the key derivation is pure arithmetic on (seed,
  stream-id), independent streams can be handed to worker threads and the
  union of their outputs does not depend on the thread count.

Random sign tables (``boolfn.random_functions_batch``) take sign x from
bit 7 of the next byte of the raw Philox words, in stream order, with a
pending uint32 half used first; an oracle test pins this layout against
the installed numpy.

Gaussian variates are produced by an explicit Box-Muller transform on
uniform words rather than the Generator's own normal() so that the exact
bit stream is pinned by this file alone.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Uniform pairs per block of `gaussians`: its two work buffers stay in cache.
_GAUSS_BLOCK = 1 << 14


def mix64(z: int) -> int:
    """Finalizer of splitmix64: one well-mixed 64-bit word from one word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized mix64 over a uint64 array (wraps mod 2^64)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def derive64(seed: int, *tags: int) -> int:
    """Derive a sub-key from a master seed and a tuple of integer tags.

    Chained splitmix64 steps: each tag advances the state by GOLDEN plus
    the tag and re-mixes, so (seed, tags) -> key is collision-resistant
    enough for stream separation and is pure integer arithmetic.
    """
    k = seed & MASK64
    for t in tags:
        k = mix64((k + GOLDEN + (t & MASK64)) & MASK64)
    return k


class _PhiloxKey(ISeedSequence):
    """Philox key words [k, 0]; Philox(key=k) also draws OS entropy it drops."""
    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array([self.key, 0], dtype=np.uint64)


def make_rng(seed: int, *tags: int) -> np.random.Generator:
    """Counter-based numpy Generator for the given (seed, stream tags)."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(derive64(seed, *tags))))


def blocks(total: int, size: int):
    """Yield (start, count) for consecutive blocks of at most `size` that
    cover range(total) in order.  Every block but the last holds `size`;
    where a batched draw cuts its blocks is part of its pinned bytes."""
    for start in range(0, total, size):
        yield start, min(size, total - start)


def gaussians(rng: np.random.Generator, count: int, sigma: float = 1.0) -> np.ndarray:
    """`count` N(0, sigma^2) draws via Box-Muller on uniform pairs.

    Uses log1p(-u) so u = 0 is safe and the argument of the log is never
    exactly zero.  Pairs are interleaved (cos, sin) to keep the stream
    layout obvious: the first (count + 1) // 2 uniforms give the radii and
    the next as many the angles.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    pairs = (count + 1) // 2
    out = np.empty(2 * pairs)
    # The radius uniforms wait in the upper half of `out`; block i's pairs
    # are written below every radius not yet read, so no array but `out` is
    # batch-sized.  Each block runs, on contiguous buffers, the IEEE
    # operations of r = sqrt(-2 log1p(-u1)), theta = 2 pi u2,
    # out = (r cos, r sin) * sigma in the same order; doubles drawn in
    # consecutive blocks are the stream one whole draw gives.
    radii = rng.random(out=out[pairs:])
    even, odd = out[0::2], out[1::2]
    step = max(1, min(pairs, _GAUSS_BLOCK))
    r, theta = np.empty(step), np.empty(step)
    for i, m in blocks(pairs, step):
        ri, ti = r[:m], theta[:m]
        ri[...] = radii[i:i + m]
        np.negative(ri, out=ri)
        np.log1p(ri, out=ri)
        ri *= -2.0
        np.sqrt(ri, out=ri)
        rng.random(out=ti)
        ti *= 2.0 * math.pi
        for half, trig in ((even[i:i + m], np.cos), (odd[i:i + m], np.sin)):
            trig(ti, out=half)
            half *= ri
            if sigma != 1.0:
                half *= sigma
    return out[:count]
