"""Spectrum sampling and the heaviness-band statistics.

Oracles: the Gaussian band masses are chi-square CDF identities
(integral of u^2 exp(-u^2/2)/sqrt(2pi) over [-a, a] equals
chi2.cdf(a^2, df=3)); the pinned `gaussian_reference()` bits are held to
the closed form (`exact_laws.gaussian_limits`) and to a quadrature; the
exact finite-N band law (`exact_laws.py`) is
checked against enumeration of every function at n=1..3 (and
certlab's float form `exact_band_rates` against it), and the
sampler itself is checked by a goodness-of-fit test against the exact
squared-coefficient law.  The blocked search in `fourier_rows` is held
index for index to the whole-row int64 scan (`scan_reference`), and its
whole-row int32 path (N <= 128) to a binary search per row
(`searchsorted_reference`); the blocked search is held to both at each
bound of its exact work type and across chunk edges.  The tie rule (index
i owns u * total in [cs[i-1], cs[i])) is held to an exact-rational oracle
(`fraction_oracle`), and both searches are held to each other on every
exact tie.
"""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from certlab.boolfn import (
    BooleanFunction,
    FourierSpectrum,
    character_values,
    fourth_moment,
    random_function,
    random_functions_batch,
    wht,
    wht_rows,
)
from certlab.fouriersample import (
    DimensionMismatch,
    EmptySamples,
    PgPbEstimate,
    exact_band_rates,
    fourier_rows,
    fourier_sample_many,
    fourier_tables,
    gaussian_reference,
    hog_score,
    pgpb_counts,
    pgpb_from_counts,
    tv_distance,
)
from certlab import cli, fouriersample
from certlab.devices import DeviceModel
from certlab.rng import blocks, make_rng
from exact_laws import band_rates, gaussian_limits, uniform_band_rates

# chi-square identities for the band masses of a standard normal weighted
# by u^2 (frozen; recomputed in test_gaussian_reference_identities)
P_B_REF = 0.19874804309879915       # chi2.cdf(1, df=3)
P_LIGHT4_REF = 0.7385358700508894   # chi2.cdf(4, df=3)
P_G_REF = P_LIGHT4_REF - P_B_REF    # 0.5397878269520902


def test_gaussian_reference_identities():
    p_b, p_light4, p_g = gaussian_reference()
    assert p_b == pytest.approx(sps.chi2.cdf(1.0, df=3), abs=1e-10)
    assert p_light4 == pytest.approx(sps.chi2.cdf(4.0, df=3), abs=1e-10)
    assert p_g == pytest.approx(p_light4 - p_b, abs=1e-12)
    assert p_b == pytest.approx(P_B_REF, abs=1e-10)
    assert p_light4 == pytest.approx(P_LIGHT4_REF, abs=1e-10)
    assert p_g == pytest.approx(P_G_REF, abs=1e-10)


def test_gaussian_reference_matches_closed_form_and_quadrature():
    # the library returns pinned bits; the closed form (math only) and a
    # quadrature of the size-biased normal density both recompute them
    def density(u):
        return u * u * np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)

    p_b, _ = integrate.quad(density, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    p_light4, _ = integrate.quad(density, -2.0, 2.0, epsabs=1e-12, epsrel=1e-12)
    ref = gaussian_reference()
    assert ref == pytest.approx(gaussian_limits(), rel=0, abs=1e-15)
    assert ref == pytest.approx((p_b, p_light4, p_light4 - p_b), rel=0, abs=1e-15)


def test_band_law_matches_enumeration():
    # every sign table at n=1..3, spectrum by the O(N^2) definition, and the
    # squared-coefficient mass on each band summed exactly
    # (the uniform sampler weights every index by 1/N instead)
    for n in (1, 2, 3):
        size = 1 << n
        light = light4 = u_light = u_light4 = Fraction(0)
        for signs in itertools.product([1, -1], repeat=size):
            for z in range(size):
                w = sum(s * (-1) ** bin(x & z).count("1")
                        for x, s in enumerate(signs))
                mass = Fraction(w * w, size * size)
                light += mass if w * w <= size else 0
                light4 += mass if w * w <= 4 * size else 0
                u_light += Fraction(1, size) if w * w <= size else 0
                u_light4 += Fraction(1, size) if w * w <= 4 * size else 0
        tables = 2 ** size
        assert band_rates(n) == (light / tables, light4 / tables,
                                 (light4 - light) / tables)
        assert uniform_band_rates(n) == (u_light / tables, u_light4 / tables,
                                         (u_light4 - u_light) / tables)
    assert band_rates(3)[:2] == (Fraction(7, 32), Fraction(21, 32))


def test_band_law_converges_to_gaussian_reference():
    # the Gaussian triple is the large-n limit of the exact law: the gap
    # shrinks strictly and about halves with every +2 in n
    ref_b, ref_l4, _ = gaussian_reference()
    sizes = (8, 10, 12, 14)
    gaps_b = [float(band_rates(n)[0]) - ref_b for n in sizes]
    gaps_l4 = [float(band_rates(n)[1]) - ref_l4 for n in sizes]
    assert gaps_b == pytest.approx([0.0309, 0.0153, 0.0076, 0.0038], abs=1e-4)
    for gaps in (gaps_b, gaps_l4):
        assert all(0 < b < a for a, b in zip(gaps, gaps[1:]))
        assert all(0.45 <= b / a <= 0.55 for a, b in zip(gaps, gaps[1:]))


def test_exact_band_rates_match_oracle():
    # the float binomial form in certlab against the integer sums
    for n in range(1, 15):
        for sampler, oracle in (("honest", band_rates),
                                ("uniform", uniform_band_rates)):
            got = exact_band_rates(n, sampler)
            assert got == pytest.approx([float(x) for x in oracle(n)],
                                        rel=0, abs=1e-12)
    # fast at MAX_N, and already close to the Gaussian limit there
    assert exact_band_rates(24) == pytest.approx(gaussian_reference(), abs=1e-3)
    with pytest.raises(ValueError):
        exact_band_rates(8, "argmax")


def test_fourier_sample_goodness_of_fit():
    # fixed f, 20000 draws, chi-square against the exact squared spectrum
    f = random_function(5, make_rng(21, 0))
    spec = wht(f)
    draws = fourier_sample_many(spec, make_rng(21, 1).random(20000))
    probs = spec.coeffs ** 2
    support = probs > 0
    counts = np.bincount(draws, minlength=f.size)
    assert counts[~support].sum() == 0  # never lands on a zero coefficient
    _, pvalue = sps.chisquare(counts[support], 20000 * probs[support])
    assert pvalue > 1e-3


def test_fourier_sample_single_matches_stream():
    f = random_function(4, make_rng(22, 0))
    spec = wht(f)
    one = int(fourier_rows(spec.scaled[None, :], make_rng(22, 1).random(1))[0])
    assert 0 <= one < f.size
    assert spec.coeffs[one] != 0.0


def test_fourier_sample_point_mass():
    # f = chi_3 concentrates all mass on z = 3
    from certlab.boolfn import character_values

    f = BooleanFunction(4, character_values(4, 3))
    spec = wht(f)
    draws = fourier_sample_many(spec, make_rng(23, 0).random(100))
    assert np.all(draws == 3)


# ------------------------------------------------------ the batched kernel

def scan_reference(scaled_rows, u):
    """The whole-row scan: how many cs[i, j] lie at or below u[i] * cs[i, -1]."""
    w = scaled_rows.astype(np.int64)
    cs = np.cumsum(w * w, axis=1)
    return (cs <= (u * cs[:, -1])[:, None]).sum(axis=1)


def assert_matches_scan(rows, u):
    got = fourier_rows(rows, u)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, scan_reference(rows, u))
    return got


@pytest.mark.parametrize("n", range(1, 17))
def test_fourier_rows_matches_whole_row_scan(n):
    # random rows on both sides of the one-block path (N <= 64), and at
    # n = 15 / 16 on both sides of the int32 square; u forced to 0.0 and to
    # the largest float below 1 as well as drawn.  Rows with N <= 128 are
    # also given column-major, as run_protocol_arms holds them
    rng = make_rng(32, n)
    count = max(8, min(512, (1 << 18) >> n))
    rows = wht_rows(random_functions_batch(n, count, rng))
    layouts = [rows, np.asfortranarray(rows)] if n <= 7 else [rows]
    for u in (rng.random(count), np.zeros(count),
              np.full(count, np.nextafter(1.0, 0.0))):
        for r in layouts:
            got = assert_matches_scan(r, u)
            assert np.all((0 <= got) & (got < 1 << n))


@pytest.mark.parametrize("n", [7, 10, 12])
def test_fourier_rows_on_block_boundaries(n):
    # u = cb / N^2 puts u * total exactly on a block's cumulative mass cb
    # (total = N^2 and cb < 2^53, so the product is exact); the floats just
    # beside it and the integers cb - 1, cb + 1 over N^2 straddle it.  The
    # last block's cb is N^2, which only u = 1.0 reaches, and every u the
    # package draws is below 1, so the pick is one of the blocks before it
    size = 1 << n
    rng = make_rng(33, n)
    rows = wht_rows(random_functions_batch(n, 64, rng))
    blocks = np.cumsum(np.square(rows.astype(np.int64)), axis=1)[:, 63::64]
    pick = blocks[np.arange(64), rng.integers(0, size // 64 - 1, size=64)]
    total = size * size
    u = pick / total
    assert np.all(u * total == pick) and np.all(u < 1)
    for v in (u, np.nextafter(u, 0.0), np.nextafter(u, 1.0),
              (pick - 1) / total, np.minimum(pick + 1, total - 1) / total):
        assert_matches_scan(rows, v)


@pytest.mark.parametrize("n", [6, 7, 12, 16])
def test_fourier_rows_single_mass_rows(n):
    # chi_z puts all its mass N^2 on z: every u returns z, u = 0.0 too (the
    # first index with mass, like the scan); z in the first and the last
    # block, at n = 16 with W^2 = 2^32
    size = 1 << n
    zs = [0, 1, 63, size - 64, size - 2, size - 1]
    rows = wht_rows(np.stack([character_values(n, z) for z in zs]))
    u = np.full(len(zs), 0.3)
    assert list(assert_matches_scan(rows, u)) == zs
    assert list(assert_matches_scan(rows, np.zeros(len(zs)))) == zs
    assert list(assert_matches_scan(rows, np.full(len(zs), 2.0 ** -60))) == zs


@pytest.mark.parametrize("n", [15, 16])
def test_fourier_rows_constant_rows_need_wide_squares(n):
    # |W| = N everywhere: at n = 15 a block of 64 squares (2^36) overflows
    # int32, and at n = 16 a single square (2^32) does.  cs_j = (j + 1) N^2,
    # so u returns floor(u N)
    size = 1 << n
    signs = np.array([1, -1, 1, -1])[:, None]
    rows = np.broadcast_to(signs * size, (4, size)).astype(np.int64)
    u = np.array([0.0, 0.3, 0.75, np.nextafter(1.0, 0.0)])
    got = assert_matches_scan(rows, u)
    assert list(got) == [math.floor(x * size) for x in u]


def searchsorted_reference(scaled_rows, u):
    """Row by row, the number of cs <= u * total, by binary search in int64."""
    out = []
    for w, x in zip(scaled_rows.astype(np.int64), u):
        cs = np.cumsum(w * w)
        out.append(np.searchsorted(cs, x * cs[-1], side="right"))
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
@pytest.mark.parametrize("n", range(1, 8))
def test_narrow_scan_matches_binary_search(n, dtype):
    # the whole-row int32 path (N <= 128): random spectra, u drawn and
    # forced to 0.0 and the largest float below 1, and constant rows
    # |W| = N, whose cs reaches its bound N^3
    size = 1 << n
    rng = make_rng(35, n)
    rows = wht_rows(random_functions_batch(n, 256, rng)).astype(dtype)
    signs = np.array([1, -1, 1, -1])[:, None]
    constant = (signs * np.full(size, size)).astype(dtype)
    for block in (rows, constant):
        count = block.shape[0]
        for u in (rng.random(count), np.zeros(count),
                  np.full(count, np.nextafter(1.0, 0.0))):
            got = fourier_rows(block, u)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, searchsorted_reference(block, u))


# --------------------------------------- the wide search's exact work type

def block_ties(rows, j, width=64):
    """u = cb / total on the boundary after block j[i] (of `width` entries)
    of each row i (cb its cumulative block mass; u = 0.0 where cb is the
    total), and the floats beside it."""
    cb = np.cumsum(np.square(rows.astype(np.int64)), axis=1)[:, width - 1::width]
    pick = cb[np.arange(rows.shape[0]), j]
    tie = np.where(pick < cb[:, -1], pick / cb[:, -1], 0.0)
    return [tie, np.nextafter(tie, 0.0), np.nextafter(tie, 1.0)]


def u_cases(rows, rng):
    """Drawn u, u = 0.0, the largest float below 1, and the ties after a
    random block of each row."""
    count, size = rows.shape
    return [rng.random(count), np.zeros(count),
            np.full(count, np.nextafter(1.0, 0.0)),
            *block_ties(rows, rng.integers(0, size // 64, size=count))]


def assert_matches_oracles(rows, us):
    for u in us:
        got = assert_matches_scan(rows, u)
        np.testing.assert_array_equal(got, searchsorted_reference(rows, u))


# one 64-block of each row: 64 entries |W| = 512, mass exactly 2^24, the
# largest the float32 work holds; |W| = 514 (float64 work); 63 entries 512
# and one 513, mass 2^24 + 1025, odd, so no float32 holds it (float64); and
# one entry 2^24 (64 m^2 = 2^54, int64 work; every cs stays below 2^53, so
# the oracles' float comparison stays exact)
PEAK_BLOCKS = {
    "2^24": np.full(64, 512),
    "514": np.full(64, 514),
    "odd": np.r_[np.full(63, 512), 513],
    "2^48": np.r_[1 << 24, np.zeros(63, dtype=np.int64)],
}


@pytest.mark.parametrize("name", PEAK_BLOCKS)
def test_wide_search_exact_at_each_work_type_bound(name):
    # n = 12 spectra with one block replaced, fed as int64 and (where they
    # fit) int16 rows; u also on the boundaries just before and after the
    # replaced block
    rng = make_rng(38, len(name))
    rows = wht_rows(random_functions_batch(12, 16, rng)).astype(np.int64)
    j = rng.integers(1, 63, size=16)
    for i in range(16):
        signs = rng.choice([-1, 1], size=64)
        rows[i, 64 * j[i]:64 * j[i] + 64] = signs * rng.permutation(PEAK_BLOCKS[name])
    us = u_cases(rows, rng) + block_ties(rows, j - 1) + block_ties(rows, j)
    assert_matches_oracles(rows, us)
    if name != "2^48":
        assert_matches_oracles(rows.astype(np.int16), us)


@pytest.mark.parametrize("n", [9, 12, 13])
def test_wide_search_with_a_character_row(n):
    # one chi_z row (|W| = N) among random spectra: at n = 9 its 64 N^2 is
    # exactly 2^24 and the call stays in float32; at n = 12 and 13 it moves
    # the whole call to float64.  The random rows get the indices they get
    # without it
    size = 1 << n
    rng = make_rng(39, n)
    tables = random_functions_batch(n, 32, rng)
    tables[17] = character_values(n, int(rng.integers(size)))
    rows = wht_rows(tables)
    assert_matches_oracles(rows, u_cases(rows, rng))
    u = rng.random(32)
    keep = np.arange(32) != 17
    np.testing.assert_array_equal(fourier_rows(rows, u)[keep],
                                  fourier_rows(rows[keep], u[keep]))


@pytest.mark.parametrize("n, count", [(9, 1), (9, 15), (9, 17), (9, 4097),
                                      (12, 0), (12, 1), (12, 15), (12, 17)])
def test_wide_search_on_partial_chunks(n, count):
    # a chunk is 1024 blocks of 64: 128 rows at n = 9 and 16 at n = 12, so
    # no batch here is a whole number of chunks (an empty one, which the
    # biased device passes when it keeps no row, has none)
    rng = make_rng(40, n, count)
    rows = wht_rows(random_functions_batch(n, count, rng))
    assert_matches_oracles(rows, u_cases(rows, rng))


@pytest.mark.parametrize("n", [17, 18])
def test_wide_search_rows_spanning_several_chunks(n):
    # a row holds 2^(n-6) blocks, 2 or 4 chunks: random spectra (float64
    # work at this n), the same with a character row, and small integer
    # rows |W| <= 300 that take float32
    size = 1 << n
    rng = make_rng(41, n)
    tables = random_functions_batch(n, 4, rng)
    spectra = wht_rows(tables)
    tables[2] = character_values(n, size - 65)
    small = rng.integers(-300, 301, size=(4, size)).astype(np.int16)
    for rows in (spectra, wht_rows(tables), small):
        assert_matches_oracles(rows, u_cases(rows, rng))


# ------------------------------------------- the partial-transform sampler

def last_factor(n):
    """d of the transform's last Kronecker factor H_d: n split into the
    fewest parts of at most 5 bits, sizes within one, the last the
    smallest."""
    return 1 << (n // -(-n // 5))


def assert_tables_match_oracles(tables, us):
    """fourier_tables' (z, W(z)) against both searches on the full
    transform and the full transform's entry at z."""
    W = wht_rows(tables)
    r = np.arange(tables.shape[0])
    for u in us:
        z, w = fourier_tables(tables, u)
        assert z.dtype == w.dtype == np.int64
        want = scan_reference(W, u)
        np.testing.assert_array_equal(z, want)
        np.testing.assert_array_equal(z, searchsorted_reference(W, u))
        np.testing.assert_array_equal(w, W[r, want])


def table_u_cases(tables, rng):
    """u_cases on the spectra, plus the ties after a random d-block (d the
    last factor) of each row and the floats beside them."""
    count, size = tables.shape
    d = last_factor(size.bit_length() - 1)
    W = wht_rows(tables)
    return (u_cases(W, rng)
            + block_ties(W, rng.integers(0, size // d, size=count), d))


@pytest.mark.parametrize("n", range(6, 19))
def test_fourier_tables_matches_full_transform(n):
    # random tables, characters with z in the first and the last d-block
    # and the first and last entry, and the constant tables; n = 6..18
    # covers every last-factor size d = 8, 16, 32, and n = 6 a row that is
    # a single 64-entry block
    size = 1 << n
    d = last_factor(n)
    rng = make_rng(42, n)
    count = max(12, min(256, (1 << 17) >> n))
    tables = random_functions_batch(n, count, rng)
    for i, z in enumerate(sorted({0, 1, d - 1, size - d, size - 1})):
        tables[i] = character_values(n, z)
    tables[-2:] = [[1], [-1]]
    assert_tables_match_oracles(tables, table_u_cases(tables, rng))


@pytest.mark.parametrize("n", [8, 12])
def test_fourier_tables_row_counts(n):
    # no row, one row, and one below, at and above a row block of the
    # transform (2^16 elements), and several blocks with a partial one
    size = 1 << n
    step = (1 << 16) // size
    rng = make_rng(43, n)
    for count in (0, 1, step - 1, step, step + 1, 3 * step + 5):
        tables = random_functions_batch(n, count, rng)
        assert_tables_match_oracles(tables, table_u_cases(tables, rng))
        z, w = fourier_tables(tables, rng.random(count))
        assert z.shape == w.shape == (count,)


def near_character(z_hi):
    """A +-1 table at n = 16 whose G (the transform over the first three
    factors of 4 bits, on x = 16 x_hi + x_lo) is 4096 at (z_hi, 0) and 4094
    at (z_hi, x_lo) for x_lo = 1..15: each slice x_lo is chi_{z_hi} on
    x_hi, flipped at x_hi = 0 for x_lo > 0.  z_hi's 64-entry block of
    squares sums to 268 189 936; summed in index order in float32, its
    partial sums past 2^26 are 4 mod 8 and round (it ends 48 to 224 low)."""
    table = np.repeat(character_values(12, z_hi), 16)
    table[1:16] *= -1
    return table


@pytest.mark.parametrize("n", [14, 15, 16])
def test_fourier_tables_masses_past_float32(n):
    # a character row's |G| = N/d puts the bound 64 (N/d)^2 on a block's
    # squares past 2^24 (2^26, 2^26 and 2^30), so the masses are summed in
    # float64.  No +-1 table needs it at n = 14 or 15: within a slice x_lo
    # every G / 2 has one parity, so a block sums to a multiple of 16 of at
    # most 2^24 (n = 14) or 2^25 (n = 15), and each partial sum is a
    # multiple of 4 no larger.  At n = 16 near-character rows make an
    # index-order float32 sum round; with u on the ties of their blocks
    # such a sum moves the sample
    size = 1 << n
    d = last_factor(n)
    rng = make_rng(44, n)
    tables = random_functions_batch(n, 12, rng)
    heavy = [0, 5, size // d - 1]
    for i, z_hi in enumerate(heavy):
        tables[i] = character_values(n, z_hi * d + int(rng.integers(d)))
    us = table_u_cases(tables, rng)
    if n == 16:
        for i, z_hi in enumerate(heavy):
            tables[3 + i] = near_character(z_hi)
        W = wht_rows(tables)
        span = np.array([h * d // 64 for h in heavy] * 2 + [0] * 6)
        us = table_u_cases(tables, rng) + block_ties(W, np.maximum(span - 1, 0)) \
            + block_ties(W, span)
    assert_tables_match_oracles(tables, us)


def test_fourier_tables_transforms_no_whole_row(monkeypatch):
    # the only full-length work is the stages before H_d: wht_rows, which
    # runs every stage, sees only (B * 64 / d, d) rows of chosen blocks
    seen = []
    real = fouriersample.wht_rows

    def spy(rows, *args, **kwargs):
        seen.append(np.shape(rows))
        return real(rows, *args, **kwargs)

    monkeypatch.setattr(fouriersample, "wht_rows", spy)
    tables = random_functions_batch(12, 40, make_rng(45, 0))
    fourier_tables(tables, make_rng(45, 1).random(40))
    assert seen == [(40 * 64 // 16, 16)]


# ------------------------------------------------------------ the tie rule

def fraction_oracle(w, u):
    """The index i whose interval [cs[i-1], cs[i]) holds u * total, in exact
    rationals; u = 1.0 lies in none."""
    x = Fraction(u) * sum(int(v) ** 2 for v in w)
    acc = 0
    for i, v in enumerate(w):
        acc += int(v) ** 2
        if x < acc:
            return i
    raise AssertionError("u * total lies past the last interval")


def spectrum(w):
    size = len(w)
    return FourierSpectrum(size.bit_length() - 1, np.asarray(w) / size, w)


@pytest.mark.parametrize("n", range(1, 13))
def test_searches_agree_on_every_tie(n):
    # u = 0.0, every tie u = cs_j / N^2 below 1 (u * N^2 = cs_j exactly) and
    # the floats beside each: fourier_rows (the int32 scan for n <= 7, the
    # blocked search above) and fourier_sample_many's binary search return
    # the same index, never one with zero mass
    size = 1 << n
    tables = np.concatenate([random_functions_batch(n, 4, make_rng(36, n)),
                             character_values(n, size - 1)[None, :]])
    for w in wht_rows(tables):
        ties = np.cumsum(w.astype(np.int64) ** 2) / float(size * size)
        u = np.concatenate([[0.0], ties, np.nextafter(ties, 0.0),
                            np.nextafter(ties, 1.0)])
        u = u[u < 1.0]  # the last tie is 1.0, which no draw reaches
        want = fourier_sample_many(spectrum(w), u)
        for lo in range(0, u.size, 1024):
            part = u[lo:lo + 1024]
            got = fourier_rows(np.broadcast_to(w, (part.size, size)), part)
            np.testing.assert_array_equal(got, want[lo:lo + 1024])
        assert np.all(w[want] != 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_left_end_of_each_interval_returns_its_index(n):
    # u * total = cs[i-1] exactly, for every index i with mass, and drawn u
    # against the rational oracle; W = (0, 0, 4, 0) at u = 0.0 returns 2
    size = 1 << n
    rows = wht_rows(random_functions_batch(n, 8, make_rng(37, n)))
    drawn = make_rng(37, n, 1).random(64)
    for w in rows:
        mass = [int(v) ** 2 for v in w]
        total = sum(mass)
        heavy = [i for i in range(size) if mass[i]]
        left = np.array([float(Fraction(sum(mass[:i]), total)) for i in heavy])
        for u, want in ((left, heavy),
                        (drawn, [fraction_oracle(w, x) for x in drawn])):
            assert all(fraction_oracle(w, x) == i for x, i in zip(u, want))
            rows_got = fourier_rows(np.broadcast_to(w, (u.size, size)), u)
            assert list(rows_got) == list(want)
            assert list(fourier_sample_many(spectrum(w), u)) == list(want)
            assert all(mass[i] for i in rows_got)
    point = np.array([0, 0, 4, 0])
    assert fourier_rows(point[None, :], np.zeros(1))[0] == 2
    assert fourier_sample_many(spectrum(point), np.zeros(1))[0] == 2


def test_fourier_rows_memory_stays_under_one_int64_copy():
    # the whole-row scan holds three (B, N) int64 arrays (48 MB here); the
    # blocked search needs one int32 square
    rng = make_rng(34, 0)
    rows = wht_rows(random_functions_batch(12, 512, rng))
    u = rng.random(512)
    tracemalloc.start()
    try:
        fourier_rows(rows, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 4096 * 8


@pytest.mark.parametrize("n, count, ratio", [(12, 512, 0.5), (8, 4096, 1.25)])
def test_fourier_rows_peak_is_a_fraction_of_its_input(n, count, ratio):
    # the wide search squares one chunk of 2^16 elements at a time, so its
    # peak is the block masses and one (B, 64) tail block, not a (B, N)
    # square: at n = 12 a quarter of the int16 input, at n = 8 about one
    rng = make_rng(34, n)
    rows = wht_rows(random_functions_batch(n, count, rng))
    assert rows.dtype == np.int16
    u = rng.random(count)
    tracemalloc.start()
    try:
        fourier_rows(rows, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ratio * rows.nbytes


def test_hog_score_is_mean_squared_coefficient():
    f = random_function(6, make_rng(24, 0))
    spec = wht(f)
    samples = np.array([0, 0, 5, 9])
    expected = float(np.mean(spec.coeffs[samples] ** 2))
    assert hog_score(spec, samples) == pytest.approx(expected)
    with pytest.raises(EmptySamples):
        hog_score(spec, np.array([], dtype=np.int64))


def test_honest_hog_approaches_fourth_moment():
    f = random_function(8, make_rng(25, 0))
    spec = wht(f)
    draws = fourier_sample_many(spec, make_rng(25, 1).random(50000))
    assert hog_score(spec, draws) == pytest.approx(
        fourth_moment(spec), abs=5e-4
    )


def test_uniform_hog_approaches_one_over_n():
    f = random_function(8, make_rng(26, 0))
    spec = wht(f)
    rng = make_rng(26, 1)
    draws = rng.integers(0, f.size, size=50000)
    assert hog_score(spec, draws) == pytest.approx(1.0 / f.size, abs=5e-4)


# ---------------------------------------------------------------- band rates

def test_estimate_matches_chunked_counts(tmp_path):
    # the pgpb command's estimate is pgpb_from_counts of the summed counts
    # of its chunks, chunk i drawing from make_rng(seed, _TAG_PGPB, i)
    trials = cli._CHUNK + 500
    out = tmp_path / "pgpb.json"
    assert cli.main(["pgpb", "--n", "8", "--trials", str(trials), "--seed", "27",
                     "--out", str(out)]) == 0
    got = json.loads(out.read_text())["results"]
    counts = [pgpb_counts(8, DeviceModel("honest"), count,
                          make_rng(27, cli._TAG_PGPB, i))
              for i, (_, count) in enumerate(blocks(trials, cli._CHUNK))]
    est = pgpb_from_counts(sum(c[0] for c in counts),
                           sum(c[1] for c in counts), trials)
    assert len(counts) == 2
    assert (got["p_b"], got["p_light4"], got["p_g"]) == (est.p_b, est.p_light4,
                                                         est.p_g)


def test_estimate_invariants():
    est = pgpb_from_counts(*pgpb_counts(8, DeviceModel("honest"), 2000,
                                        make_rng(27, 1)), 2000)
    assert 0.0 <= est.p_b <= est.p_light4 <= 1.0
    assert est.p_g == pytest.approx(est.p_light4 - est.p_b)
    assert est.trials == 2000
    assert set(est.ci99) == {"p_b", "p_light4", "p_g"}


def test_bad_estimate_rejected():
    with pytest.raises(ValueError):
        PgPbEstimate(0.5, 0.4, -0.1, 10, {"p_b": 0, "p_light4": 0, "p_g": 0})


def test_honest_rates_near_gaussian_reference():
    # n=10, 20000 trials: the exact n=10 law sits 0.015 (p_b) and 0.014
    # (p_light4) above the Gaussian limit and the ci99 is ~0.008, so 0.03
    # covers both; gate 1 holds the n=12 rates to the exact law itself
    est = pgpb_from_counts(*pgpb_counts(10, DeviceModel("honest"), 20000,
                                        make_rng(28, 0)), 20000)
    assert est.p_b == pytest.approx(P_B_REF, abs=0.03)
    assert est.p_light4 == pytest.approx(P_LIGHT4_REF, abs=0.03)
    assert est.p_g == pytest.approx(P_G_REF, abs=0.03)


def test_uniform_sampler_rates_follow_plain_normal_band():
    # a uniform z makes N * fhat(z)^2 approximately chi-square(1), so the
    # light band carries erf(1/sqrt(2)) of the mass
    est = pgpb_from_counts(*pgpb_counts(10, DeviceModel("uniform"), 10000,
                                        make_rng(28, 1)), 10000)
    assert est.p_b == pytest.approx(math.erf(1 / math.sqrt(2)), abs=0.03)


def test_sampler_objects_sample_in_range():
    f = random_function(5, make_rng(29, 0))
    rows = wht(f).scaled[None, :]
    z_h = DeviceModel("honest").sample_rows(rows, make_rng(29, 1))
    z_u = DeviceModel("uniform").sample_rows(rows, make_rng(29, 2))
    assert z_h.shape == z_u.shape == (1,)
    assert 0 <= z_h[0] < f.size and 0 <= z_u[0] < f.size


# ---------------------------------------------------------------- tv distance

def test_tv_distance_axioms():
    f = random_function(5, make_rng(30, 0))
    g = random_function(5, make_rng(30, 1))
    sf, sg = wht(f), wht(g)
    assert tv_distance(sf, sf) == 0.0
    assert tv_distance(sf, sg) == tv_distance(sg, sf)
    assert 0.0 <= tv_distance(sf, sg) <= 1.0


def test_tv_distance_disjoint_spectra():
    from certlab.boolfn import character_values

    f = BooleanFunction(3, character_values(3, 1))
    g = BooleanFunction(3, character_values(3, 6))
    assert tv_distance(wht(f), wht(g)) == 1.0


def test_tv_distance_dimension_mismatch():
    f = random_function(3, make_rng(31, 0))
    g = random_function(4, make_rng(31, 1))
    with pytest.raises(DimensionMismatch):
        tv_distance(wht(f), wht(g))
