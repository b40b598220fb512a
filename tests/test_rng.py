"""Generator determinism and stream derivation.

The scalar generator is splitmix64.  `splitmix64_words` below is a
pure-Python integer version written from the published algorithm and
sharing no code with certlab; it must reproduce the widely published
reference outputs (first three words for seeds 0 and 1234567), and the
vectorized mixer is held to it word for word.
"""

import numpy as np
import pytest

from certlab.rng import (
    GOLDEN,
    MASK64,
    derive64,
    gaussians,
    make_rng,
    mix64,
    mix64_array,
)

# reference stream values for splitmix64
SEED0_WORDS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
SEED1234567_WORDS = (0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77)


def splitmix64_words(seed: int, count: int) -> list:
    """First `count` outputs of splitmix64 seeded with `seed`, as ints."""
    out = []
    state = seed % 2**64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_reference_vectors():
    assert tuple(splitmix64_words(0, 3)) == SEED0_WORDS
    assert tuple(splitmix64_words(1234567, 3)) == SEED1234567_WORDS


def test_splitmix64_is_mix_of_weyl_sequence():
    # word j of the stream is mix64(seed + (j+1) * GOLDEN) mod 2^64, the
    # form the protocol's challenge tables evaluate with mix64_array
    seed = 987654321
    words = splitmix64_words(seed, 5)
    weyl = np.array([(seed + (j + 1) * GOLDEN) & MASK64 for j in range(5)],
                    dtype=np.uint64)
    assert [int(w) for w in mix64_array(weyl)] == words
    for j, w in enumerate(words):
        assert w == mix64(int(weyl[j]))


def test_mix64_array_matches_scalar():
    vals = np.array([0, 1, GOLDEN, MASK64, 0xDEADBEEF], dtype=np.uint64)
    out = mix64_array(vals)
    for v, o in zip(vals, out):
        assert int(o) == mix64(int(v))


def test_derive64_is_deterministic_and_tag_sensitive():
    a = derive64(42, 1, 2, 3)
    assert a == derive64(42, 1, 2, 3)
    assert a != derive64(42, 1, 2, 4)
    assert a != derive64(42, 1, 3, 2)  # order matters
    assert a != derive64(43, 1, 2, 3)
    assert 0 <= a <= MASK64


def test_make_rng_streams_are_independent_and_reproducible():
    r1 = make_rng(7, 0)
    r2 = make_rng(7, 0)
    r3 = make_rng(7, 1)
    x1 = r1.integers(0, 1 << 30, size=16)
    assert np.array_equal(x1, r2.integers(0, 1 << 30, size=16))
    assert not np.array_equal(x1, r3.integers(0, 1 << 30, size=16))


def test_gaussians_match_requested_moments():
    # 2 * 10^5 draws: mean within 5 sigma/sqrt(n), variance within 5%
    sigma = 0.25
    x = gaussians(make_rng(5, 0), 200000, sigma)
    assert x.shape == (200000,)
    assert abs(float(x.mean())) < 5 * sigma / np.sqrt(x.size)
    assert abs(float(x.var()) - sigma * sigma) < 0.05 * sigma * sigma


def test_gaussians_odd_count():
    x = gaussians(make_rng(5, 1), 7, 1.0)
    assert x.shape == (7,)


@pytest.mark.parametrize("seed", [0, 1, 2**63, MASK64])
def test_derive64_stays_in_range(seed):
    assert 0 <= derive64(seed, 99) <= MASK64
