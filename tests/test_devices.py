"""Device models: exact output laws and per-challenge entropy."""

import math
import tracemalloc

import numpy as np
import pytest

from certlab.boolfn import random_function, random_functions_batch, wht, wht_rows
from certlab.devices import (
    KINDS,
    DeviceModel,
    argmax_index,
    argmax_rows,
    parse_device,
)
from certlab.fouriersample import fourier_rows, fourier_sample_many
from certlab.rng import make_rng
from exact_laws import min_entropy


def exact_law(dev, spec):
    """The device's exact output law, built from the integer spectrum alone:
    W^2/N^2 for honest, flat for uniform, a point mass at the first
    np.argmax(W*W) for argmax, and the p-mixture of the two for biased."""
    size = spec.size
    if dev.kind == "uniform":
        return np.full(size, 1.0 / size)
    w = spec.scaled.astype(np.int64)
    top = np.zeros(size)
    top[np.argmax(w * w)] = 1.0
    if dev.kind == "argmax":
        return top
    p = dev.p if dev.kind == "biased" else 0.0
    return (1.0 - p) * ((w * w) / float(size * size)) + p * top


@pytest.fixture
def spec4():
    return wht(random_function(4, make_rng(70, 0)))


def test_kind_list_is_fixed():
    assert KINDS == ("honest", "uniform", "argmax", "biased")


def test_honest_distribution_is_squared_spectrum(spec4):
    d = exact_law(DeviceModel("honest"), spec4)
    assert np.allclose(d, spec4.coeffs ** 2)


def test_uniform_distribution_is_flat(spec4):
    d = exact_law(DeviceModel("uniform"), spec4)
    assert np.allclose(d, 1 / 16)


def test_argmax_distribution_is_point_mass(spec4):
    d = exact_law(DeviceModel("argmax"), spec4)
    z = argmax_index(spec4)
    assert d[z] == 1.0
    assert float(d.sum()) == 1.0
    assert min_entropy(d) == 0.0


def test_biased_distribution_is_the_stated_mixture(spec4):
    p = 0.7
    d = exact_law(DeviceModel("biased", p), spec4)
    z = argmax_index(spec4)
    expected = (1 - p) * spec4.coeffs ** 2
    expected[z] += p
    assert np.allclose(d, expected)


def test_biased_probability_validated():
    with pytest.raises(ValueError):
        DeviceModel("biased", 1.5)
    with pytest.raises(ValueError):
        DeviceModel("biased", -0.1)


def test_argmax_index_takes_first_of_ties():
    # constant function: all mass at 0... use a two-coefficient tie instead
    rows = np.array([[4, -4, 0, 0], [0, 4, -4, 0]], dtype=np.int64)
    assert argmax_rows(rows).tolist() == [0, 1]


def tied_rows(n, dtype, rng):
    """Spectra of random functions, plus rows whose largest |W| is held by
    +w and -w, in both orders, at random places."""
    size = 1 << n
    rows = wht_rows(random_functions_batch(n, 64, rng)).astype(np.int64)
    tied = rng.integers(-size // 2, size // 2 + 1, size=(64, size))
    for row in tied:
        i, j = rng.choice(size, size=2, replace=False)
        row[i], row[j] = size, -size
    return np.concatenate([rows, tied]).astype(dtype)


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
@pytest.mark.parametrize("n", [1, 2, 6, 7, 8, 10])
def test_argmax_and_row_max_match_squared_oracle(n, dtype):
    # the packed-key argmax (an int16 key up to n = 7, int32 from n = 8) of
    # row-major and column-major rows against the first argmax of W^2 in
    # int64; min_entropy_rows against the row max of W^2, read at the
    # shared peak
    rows = tied_rows(n, dtype, make_rng(72, n))
    w2 = rows.astype(np.int64) ** 2
    peak = np.argmax(w2, axis=1)
    size = rows.shape[1]
    pmax = w2.max(axis=1) / float(size * size)
    for r in (rows, np.asfortranarray(rows)):
        got = argmax_rows(r)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, peak)
        for dev, law in ((DeviceModel("honest"), pmax),
                         (DeviceModel("biased", 0.3), 0.3 + (1.0 - 0.3) * pmax)):
            want = -np.log2(law)
            np.testing.assert_array_equal(dev.min_entropy_rows(r, got), want)


def test_sampling_follows_distribution(spec4):
    dev = DeviceModel("biased", 0.5)
    d = exact_law(dev, spec4)
    rng = make_rng(70, 1)
    draws = dev.sample_many(spec4, 20000, rng)
    counts = np.bincount(draws, minlength=16)
    from scipy.stats import chisquare

    support = d > 0
    assert counts[~support].sum() == 0
    _, pvalue = chisquare(counts[support], 20000 * d[support])
    assert pvalue > 1e-3


def test_sample_determinism(spec4):
    dev = DeviceModel("honest")
    a = dev.sample_many(spec4, 50, make_rng(70, 2))
    b = dev.sample_many(spec4, 50, make_rng(70, 2))
    assert np.array_equal(a, b)


def test_sample_rows_answers_each_challenge():
    rows = random_functions_batch(5, 64, make_rng(71, 0))
    scaled = wht_rows(rows.astype(np.int64))
    for dev in (DeviceModel("honest"), DeviceModel("uniform"), DeviceModel("argmax"),
                DeviceModel("biased", 0.9)):
        ans = dev.sample_rows(scaled, make_rng(71, 1))
        assert ans.shape == (64,)
        assert np.all((0 <= ans) & (ans < 32))
    fixed = DeviceModel("argmax").sample_rows(scaled, make_rng(71, 2))
    assert np.array_equal(fixed, argmax_rows(scaled))


# the honest and uniform draws as the sampler objects and `hog` made them
# before the devices took them over: the same values, the same stream use
def honest_rows_reference(scaled_rows, rng):
    return fourier_rows(scaled_rows, rng.random(scaled_rows.shape[0]))


def uniform_rows_reference(scaled_rows, rng):
    rows, size = scaled_rows.shape
    return rng.integers(0, size, size=rows, dtype=np.int64)


def honest_many_reference(spec, count, rng):
    return fourier_sample_many(spec, rng.random(count))


def uniform_many_reference(spec, count, rng):
    return rng.integers(0, spec.size, size=count)


REFERENCES = {"honest": (honest_rows_reference, honest_many_reference),
              "uniform": (uniform_rows_reference, uniform_many_reference)}


@pytest.mark.parametrize("n", [1, 6, 7, 12])
@pytest.mark.parametrize("kind", ["honest", "uniform"])
def test_honest_and_uniform_devices_match_sampler_expressions(kind, n):
    # n = 7 and 12 rows are longer than one scan block (blocked search)
    rows_ref, many_ref = REFERENCES[kind]
    dev = DeviceModel(kind)
    spec = wht(random_function(n, make_rng(74, n)))
    for b in (1, 512, 513):
        scaled = wht_rows(random_functions_batch(n, b, make_rng(74, n, b)))
        got_rng, ref_rng = make_rng(74, n, b, 1), make_rng(74, n, b, 1)
        got = dev.sample_rows(scaled, got_rng)
        ref = rows_ref(scaled, ref_rng)
        assert got.dtype == ref.dtype == np.int64
        assert np.array_equal(got, ref)
        assert got_rng.random() == ref_rng.random()
        got_rng, ref_rng = make_rng(74, n, b, 2), make_rng(74, n, b, 2)
        got = dev.sample_many(spec, b, got_rng)
        ref = many_ref(spec, b, ref_rng)
        assert got.dtype == ref.dtype == np.int64
        assert np.array_equal(got, ref)
        assert got_rng.random() == ref_rng.random()


def answer_tables_reference(dev, tables, rng):
    """The route every driver took before answer_tables: the full
    transform, the device's answer to it, and the coefficient there."""
    scaled = wht_rows(tables)
    z = dev.sample_rows(scaled, rng)
    return z, scaled[np.arange(len(z)), z]


@pytest.mark.parametrize("dev", [DeviceModel("honest"), DeviceModel("uniform"),
                                 DeviceModel("argmax"), DeviceModel("biased", 0.5),
                                 DeviceModel("biased", 0.98)],
                         ids=lambda dev: dev.label)
@pytest.mark.parametrize("n", range(1, 13))
def test_answer_tables_matches_transform_then_sample(dev, n):
    # the honest kind at n > 7 answers from the partial transform; at
    # n <= 7 (the narrow scan) and for every other kind it takes the
    # reference route itself.  Same answers, same coefficients, same stream
    for b in (0, 1, 300):
        tables = random_functions_batch(n, b, make_rng(76, n, b))
        got_rng, ref_rng = make_rng(76, n, b, 1), make_rng(76, n, b, 1)
        z, w = dev.answer_tables(tables, got_rng)
        ref_z, ref_w = answer_tables_reference(dev, tables, ref_rng)
        assert z.dtype == w.dtype == np.int64
        assert np.array_equal(z, ref_z) and np.array_equal(w, ref_w)
        assert got_rng.random() == ref_rng.random()


@pytest.mark.parametrize("n, count, ratio", [(12, 512, 3.5), (8, 4096, 6.0)])
def test_answer_tables_peak_is_a_few_inputs(n, count, ratio):
    # the honest answer keeps G (int16 at n = 12, int8 at n = 8) and the
    # block masses, not a full spectrum beside its search buffers
    tables = random_functions_batch(n, count, make_rng(77, n))
    rng = make_rng(77, n, 1)
    tracemalloc.start()
    try:
        DeviceModel("honest").answer_tables(tables, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ratio * tables.nbytes


def draw_all_then_overwrite_many(p, spec, count, rng):
    """The biased device as first written: search every answer, then
    overwrite the ones whose coin fell under p with the argmax."""
    picks = rng.random(count) < p
    out = fourier_sample_many(spec, rng.random(count))
    out[picks] = argmax_index(spec)
    return out


def draw_all_then_overwrite_rows(p, scaled_rows, rng):
    rows = scaled_rows.shape[0]
    picks = rng.random(rows) < p
    out = fourier_rows(scaled_rows, rng.random(rows))
    out[picks] = argmax_rows(scaled_rows)[picks]
    return out


BIASED_P = (0.0, 0.5, 0.98, 1.0)
COUNTS = (0, 1, 7, 10000)


@pytest.mark.parametrize("n", [1, 4, 8])
@pytest.mark.parametrize("p", BIASED_P)
def test_biased_sample_many_matches_draw_all_reference(p, n):
    spec = wht(random_function(n, make_rng(72, n)))
    for count in COUNTS:
        got_rng, ref_rng = make_rng(72, n, count), make_rng(72, n, count)
        got = DeviceModel("biased", p).sample_many(spec, count, got_rng)
        ref = draw_all_then_overwrite_many(p, spec, count, ref_rng)
        assert got.dtype == ref.dtype == np.int64
        assert np.array_equal(got, ref)
        assert got_rng.random() == ref_rng.random()


@pytest.mark.parametrize("n", [1, 4, 8])
@pytest.mark.parametrize("p", BIASED_P)
def test_biased_sample_rows_matches_draw_all_reference(p, n):
    # n = 8 rows are longer than one scan block, so fourier_rows takes its
    # blocked search there
    for rows in COUNTS:
        signs = random_functions_batch(n, rows, make_rng(73, n, rows))
        scaled = wht_rows(signs.astype(np.int64))
        got_rng, ref_rng = make_rng(73, n, rows, 1), make_rng(73, n, rows, 1)
        got = DeviceModel("biased", p).sample_rows(scaled, got_rng)
        ref = draw_all_then_overwrite_rows(p, scaled, ref_rng)
        assert got.dtype == ref.dtype == np.int64
        assert np.array_equal(got, ref)
        assert got_rng.random() == ref_rng.random()


def assert_counts_match(dev, spec, count, reference, seed):
    # count_bounds against np.bincount of the reference answers, drawn in
    # list order from the same generator states, for three distinct
    # generators and for one generator listed three times; every generator's
    # next draw must match too.  The draw is eager, lo = hi = the tallies,
    # for every kind but a biased device with distinct generators, whose
    # bounds must hold and whose answer must give the tallies
    for shared in (False, True):
        if shared:
            got, ref = [make_rng(*seed)] * 3, [make_rng(*seed)] * 3
        else:
            got = [make_rng(*seed, j) for j in range(3)]
            ref = [make_rng(*seed, j) for j in range(3)]
        lo, hi, answer = dev.count_bounds(spec, count, got)
        want = np.array([np.bincount(reference(spec, count, g), minlength=spec.size)
                         for g in ref])
        assert lo.dtype == hi.dtype == want.dtype == np.int64
        assert lo.shape == hi.shape == (3, spec.size)
        assert np.all(want.sum(axis=1) == count)
        if shared or dev.kind != "biased":
            np.testing.assert_array_equal(lo, want)
            np.testing.assert_array_equal(hi, want)
        assert np.all(lo <= want) and np.all(want <= hi)
        np.testing.assert_array_equal(answer(np.ones(3, dtype=bool)), want)
        for g, h in zip(got, ref):
            assert g.random() == h.random()


@pytest.mark.parametrize("n", [1, 4, 8])
@pytest.mark.parametrize("p", BIASED_P)
def test_biased_sample_counts_match_draw_all_reference(p, n):
    spec = wht(random_function(n, make_rng(75, n)))
    for count in COUNTS:
        assert_counts_match(
            DeviceModel("biased", p), spec, count,
            lambda s, c, g: draw_all_then_overwrite_many(p, s, c, g),
            (75, n, count))


@pytest.mark.parametrize("n", [1, 4, 8])
@pytest.mark.parametrize("p", BIASED_P)
def test_coin_bounds_hold_and_answer_finishes_the_eager_draw(p, n):
    # count_bounds brackets each run's eager tally (count 1 puts the one kept
    # answer off the argmax, where the bound kept is met); answer() gives
    # the exact rows of the runs it reads and leaves each of them in the
    # state the eager draw leaves, and a run it does not read has given its
    # `count` coin words and not one of its answer words
    spec = wht(random_function(n, make_rng(77, n)))
    for count in COUNTS:
        tags = [(77, n, count, j) for j in range(6)]
        got, ref = [make_rng(*t) for t in tags], [make_rng(*t) for t in tags]
        lo, hi, answer = DeviceModel("biased", p).count_bounds(spec, count, got)
        want = np.array([np.bincount(
            DeviceModel("biased", p).sample_many(spec, count, g),
            minlength=spec.size) for g in ref])
        assert lo.shape == hi.shape == want.shape == (6, spec.size)
        assert np.all(lo <= want) and np.all(want <= hi)
        need = np.arange(6) % 2 == 0
        np.testing.assert_array_equal(answer(need), want[need])
        for t, g, h, read in zip(tags, got, ref, need):
            if not read:
                h = make_rng(*t)
                h.bit_generator.random_raw(count)
            assert repr(g.bit_generator.state) == repr(h.bit_generator.state)


class WordStream:
    """A stand-in generator over given 64-bit words: `random` reads them as
    numpy's Generator does, (w >> 11) * 2^-53, and `bit_generator.random_raw`
    hands them out raw, both from one position."""

    def __init__(self, words):
        self.words, self.pos, self.bit_generator = words, 0, self

    def random_raw(self, size):
        self.pos += size
        return self.words[self.pos - size:self.pos]

    def random(self, size):
        return (self.random_raw(size) >> np.uint64(11)) * 2.0**-53


@pytest.mark.parametrize("p", BIASED_P + (1 / 3, 0.1, 1.0 - 2.0**-53, 2.0**-60))
def test_biased_coin_test_on_raw_words_holds_at_ties(p):
    # coins that equal p exactly, and the words on each side of it, are
    # judged as the float test on rng.random's doubles judges them
    edge = min(math.ceil(p * 2**53), 2**53 - 1) << 11
    coins = [edge - 1, edge, edge + 2047, edge + 2048, 0, 2**64 - 1]
    coins = np.array([min(max(c, 0), 2**64 - 1) for c in coins], dtype=np.uint64)
    words = np.concatenate([coins, make_rng(78, 0).bit_generator.random_raw(6)])
    spec = wht(random_function(4, make_rng(78, 1)))
    got = DeviceModel("biased", p).sample_many(spec, 6, WordStream(words))
    want = draw_all_then_overwrite_many(p, spec, 6, WordStream(words))
    np.testing.assert_array_equal(got, want)
    lo, hi, answer = DeviceModel("biased", p).count_bounds(
        spec, 6, [WordStream(words)])
    counts = np.bincount(want, minlength=16)
    assert np.all(lo[0] <= counts) and np.all(counts <= hi[0])
    np.testing.assert_array_equal(answer(np.array([True]))[0], counts)


def argmax_many_reference(spec, count, rng):
    return np.full(count, argmax_index(spec), dtype=np.int64)


@pytest.mark.parametrize("n", [1, 4, 8])
@pytest.mark.parametrize("kind", ["honest", "uniform", "argmax"])
def test_sample_counts_match_many_references(kind, n):
    reference = (argmax_many_reference if kind == "argmax"
                 else REFERENCES[kind][1])
    spec = wht(random_function(n, make_rng(76, n)))
    for count in COUNTS:
        assert_counts_match(DeviceModel(kind), spec, count, reference,
                            (76, n, count))


def test_min_entropy_rows_matches_distribution(spec4):
    rows = spec4.scaled[None, :].astype(np.int64)
    for dev in (DeviceModel("honest"), DeviceModel("uniform"), DeviceModel("argmax"),
                DeviceModel("biased", 0.3)):
        h_row = float(dev.min_entropy_rows(rows, np.argmax(rows * rows, axis=1))[0])
        h_ref = min_entropy(exact_law(dev, spec4))
        assert h_row == pytest.approx(h_ref, abs=1e-12)


def test_labels_and_parsing():
    assert DeviceModel("honest").label == "honest"
    assert DeviceModel("biased", 0.25).label == "biased:0.25"
    assert parse_device("uniform").kind == "uniform"
    assert parse_device("argmax").kind == "argmax"
    dev = parse_device("biased:0.75")
    assert dev.kind == "biased" and dev.p == 0.75
    with pytest.raises(ValueError):
        parse_device("teleport")
    for text in ("biased:nope", "biased:"):
        with pytest.raises(ValueError, match="unknown device spec"):
            parse_device(text)
    with pytest.raises(ValueError, match=r"p in \[0, 1\]"):
        parse_device("biased:1.5")


def test_device_model_is_frozen():
    dev = DeviceModel("honest")
    with pytest.raises(AttributeError):
        dev.kind = "uniform"
