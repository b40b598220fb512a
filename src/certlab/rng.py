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

Gaussian variates are produced by an explicit Box-Muller transform on
uniform words rather than the Generator's own normal() so that the exact
bit stream is pinned by this file alone.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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


def make_rng(seed: int, *tags: int) -> np.random.Generator:
    """Counter-based numpy Generator for the given (seed, stream tags)."""
    return np.random.Generator(np.random.Philox(key=derive64(seed, *tags)))


def gaussians(rng: np.random.Generator, count: int, sigma: float = 1.0) -> np.ndarray:
    """`count` N(0, sigma^2) draws via Box-Muller on uniform pairs.

    Uses log1p(-u) so u = 0 is safe and the argument of the log is never
    exactly zero.  Pairs are interleaved (cos, sin) to keep the stream
    layout obvious.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * math.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    if sigma != 1.0:
        out *= sigma
    return out[:count]
