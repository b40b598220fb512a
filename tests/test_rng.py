"""Generator determinism and stream derivation.

The scalar generator is splitmix64.  `splitmix64_words` below is a
pure-Python integer version written from the published algorithm and
sharing no code with certlab; it must reproduce the widely published
reference outputs (first three words for seeds 0 and 1234567), and the
vectorized mixer is held to it word for word.
"""

import math
import tracemalloc

import numpy as np
import pytest

from certlab.rng import (
    GOLDEN,
    MASK64,
    blocks,
    derive64,
    gaussians,
    make_rng,
    mix64,
    mix64_array,
    skip_raw,
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


def gaussians_reference(rng, count, sigma):
    """Box-Muller written out of place, one temporary per operation."""
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


# 32768 and 32769 end on and just past a block of 16384 pairs
@pytest.mark.parametrize("count", [0, 1, 7, 32768, 32769, 2**20 + 1])
@pytest.mark.parametrize("sigma", [1.0, 0.3])
def test_gaussians_match_out_of_place_box_muller(count, sigma):
    rng = make_rng(5, 2)
    got = gaussians(rng, count, sigma)
    ref_rng = make_rng(5, 2)
    want = gaussians_reference(ref_rng, count, sigma)
    assert got.dtype == want.dtype == np.float64 and got.shape == (count,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rng.random() == ref_rng.random()  # both consumed the same words


@pytest.mark.parametrize("total, size, counts", [
    (0, 4, []),               # nothing to cover
    (12, 4, [4, 4, 4]),       # an exact multiple
    (10, 4, [4, 4, 2]),       # a ragged tail
    (3, 8, [3]),              # one block shorter than size
])
def test_blocks_cover_the_range_in_order(total, size, counts):
    got = list(blocks(total, size))
    assert [c for _, c in got] == counts
    covered = [i for start, count in got for i in range(start, start + count)]
    assert covered == list(range(total))


@pytest.mark.parametrize("seed", [0, 1, 2**63, MASK64])
def test_derive64_stays_in_range(seed):
    assert 0 <= derive64(seed, 99) <= MASK64


def test_make_rng_equals_philox_keyed_by_derive64():
    # make_rng hands Philox its key words directly; the generator it builds
    # must be the one Philox(key=derive64(...)) gives: the same state and
    # the same next 1 000 doubles.  Half the derived keys have the top bit
    # set; the forced seeds cover 0, 2^63 and 2^64 - 1.
    seeds = [0, 1, 2**63, MASK64] + [derive64(77, i) for i in range(124)]
    cases = [(s, *tags) for s in seeds for tags in ((), (0,), (3, 1), (MASK64, 2, 9))]
    assert len(cases) >= 500
    top = sum(derive64(*case) >> 63 for case in cases)
    assert 100 < top < len(cases) - 100
    for case in cases:
        got = make_rng(*case)
        want = np.random.Generator(np.random.Philox(key=derive64(*case)))
        a, b = got.bit_generator.state, want.bit_generator.state
        assert a.keys() == b.keys() and a["bit_generator"] == b["bit_generator"]
        for name in ("counter", "key"):
            np.testing.assert_array_equal(a["state"][name], b["state"][name])
        np.testing.assert_array_equal(a["buffer"], b["buffer"])
        assert (a["buffer_pos"], a["has_uint32"], a["uinteger"]) == (
            b["buffer_pos"], b["has_uint32"], b["uinteger"])
        x, y = got.random(1000), want.random(1000)
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("offset", range(4))
@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 10001])
def test_skip_raw_equals_drawing_the_words(n, offset, pending):
    # moving Philox past n raw words leaves the state drawing them leaves,
    # from each buffer offset and with or without a pending uint32 half
    # (advance empties both); pinned against the installed numpy
    want, got = make_rng(79, n, offset), make_rng(79, n, offset)
    for g in (want, got):
        if pending:
            g.integers(0, 2**32, dtype=np.uint32)  # one word, half kept
        g.bit_generator.random_raw((offset - pending) % 4)
        state = g.bit_generator.state
        assert state["buffer_pos"] % 4 == offset and state["has_uint32"] == pending
    want.bit_generator.random_raw(n)
    skip_raw(got.bit_generator, n)
    assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
    for draw in (lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
                 lambda g: g.bit_generator.random_raw(9)):
        assert np.array_equal(draw(got), draw(want))


def test_skip_raw_draws_the_words_of_other_bit_generators():
    want, got = np.random.PCG64(5), np.random.PCG64(5)
    want.random_raw(7)
    skip_raw(got, 7)
    assert repr(got.state) == repr(want.state)


def test_gaussians_hold_one_output_sized_array():
    # the radius uniforms wait in the output's cos slots and every other
    # buffer is one block: the peak is the output plus a few blocks
    # (three output-sized arrays out of place)
    count = 2**20
    tracemalloc.start()
    try:
        gaussians(make_rng(5, 3), count, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * count * 8
