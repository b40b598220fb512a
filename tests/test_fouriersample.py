"""Spectrum sampling and the heaviness-band statistics.

Oracles: the Gaussian band masses are chi-square CDF identities
(integral of u^2 exp(-u^2/2)/sqrt(2pi) over [-a, a] equals
chi2.cdf(a^2, df=3)), the exact finite-N band law (`exact_laws.py`) is
checked against enumeration of every function at n=1..3 (and
certlab's float form `exact_band_rates` against it), and the
sampler itself is checked by a goodness-of-fit test against the exact
squared-coefficient law.  The blocked search in `fourier_rows` is held
index for index to the whole-row int64 scan (`scan_reference`).
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from certlab.boolfn import (
    BooleanFunction,
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
    estimate_pg_pb,
    exact_band_rates,
    fourier_rows,
    fourier_sample_many,
    gaussian_reference,
    hog_score,
    honest_sampler,
    pgpb_counts,
    pgpb_from_counts,
    tv_distance,
    uniform_sampler,
)
from certlab.rng import make_rng
from exact_laws import band_rates, uniform_band_rates

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
    draws = fourier_sample_many(spec, 20000, make_rng(21, 1))
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
    draws = fourier_sample_many(spec, 100, make_rng(23, 0))
    assert np.all(draws == 3)


# ------------------------------------------------------ the batched kernel

def scan_reference(scaled_rows, u):
    """The whole-row scan: how many cs[i, j] lie strictly below u[i] * cs[i, -1]."""
    w = scaled_rows.astype(np.int64)
    cs = np.cumsum(w * w, axis=1)
    return (cs < (u * cs[:, -1])[:, None]).sum(axis=1)


def assert_matches_scan(rows, u):
    got = fourier_rows(rows, u)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, scan_reference(rows, u))
    return got


@pytest.mark.parametrize("n", range(1, 17))
def test_fourier_rows_matches_whole_row_scan(n):
    # random rows on both sides of the one-block path (N <= 64), and at
    # n = 15 / 16 on both sides of the int32 square; u forced to 0.0 and to
    # the largest float below 1 as well as drawn
    rng = make_rng(32, n)
    count = max(8, min(512, (1 << 18) >> n))
    rows = wht_rows(random_functions_batch(n, count, rng))
    for u in (rng.random(count), np.zeros(count),
              np.full(count, np.nextafter(1.0, 0.0))):
        got = assert_matches_scan(rows, u)
        assert np.all((0 <= got) & (got < 1 << n))


@pytest.mark.parametrize("n", [7, 10, 12])
def test_fourier_rows_on_block_boundaries(n):
    # u = cb / N^2 puts u * total exactly on a block's cumulative mass cb
    # (total = N^2 and cb < 2^53, so the product is exact); the floats just
    # beside it and the integers cb - 1, cb + 1 over N^2 straddle it
    size = 1 << n
    rng = make_rng(33, n)
    rows = wht_rows(random_functions_batch(n, 64, rng))
    blocks = np.cumsum(np.square(rows.astype(np.int64)), axis=1)[:, 63::64]
    pick = blocks[np.arange(64), rng.integers(0, size // 64, size=64)]
    total = size * size
    u = pick / total
    assert np.all(u * total == pick)
    for v in (u, np.nextafter(u, 0.0), np.nextafter(u, 1.0),
              (pick - 1) / total, np.minimum(pick + 1, total - 1) / total):
        assert_matches_scan(rows, v)


@pytest.mark.parametrize("n", [6, 7, 12, 16])
def test_fourier_rows_single_mass_rows(n):
    # chi_z puts all its mass N^2 on z: every u > 0 returns z, and u = 0.0
    # returns 0 like the scan (cs < 0 never holds); z in the first and the
    # last block, at n = 16 with W^2 = 2^32
    size = 1 << n
    zs = [0, 1, 63, size - 64, size - 2, size - 1]
    rows = wht_rows(np.stack([character_values(n, z) for z in zs]))
    u = np.full(len(zs), 0.3)
    assert list(assert_matches_scan(rows, u)) == zs
    assert list(assert_matches_scan(rows, np.zeros(len(zs)))) == [0] * len(zs)
    assert list(assert_matches_scan(rows, np.full(len(zs), 2.0 ** -60))) == zs


@pytest.mark.parametrize("n", [15, 16])
def test_fourier_rows_constant_rows_need_wide_squares(n):
    # |W| = N everywhere: at n = 15 a block of 64 squares (2^36) overflows
    # int32, and at n = 16 a single square (2^32) does.  cs_j = (j + 1) N^2,
    # so u > 0 returns ceil(u N) - 1
    size = 1 << n
    signs = np.array([1, -1, 1, -1])[:, None]
    rows = np.broadcast_to(signs * size, (4, size)).astype(np.int64)
    u = np.array([0.0, 0.3, 0.75, np.nextafter(1.0, 0.0)])
    got = assert_matches_scan(rows, u)
    assert list(got) == [0] + [math.ceil(x * size) - 1 for x in u[1:]]


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
    draws = fourier_sample_many(spec, 50000, make_rng(25, 1))
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

def test_estimate_matches_chunked_counts():
    n_light, n_light4 = pgpb_counts(8, honest_sampler, 500, make_rng(27, 0))
    est = pgpb_from_counts(n_light, n_light4, 500)
    whole = estimate_pg_pb(8, honest_sampler, 500, make_rng(27, 0))
    assert est.p_b == whole.p_b
    assert est.p_light4 == whole.p_light4
    assert est.p_g == whole.p_g


def test_estimate_invariants():
    est = estimate_pg_pb(8, honest_sampler, 2000, make_rng(27, 1))
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
    est = estimate_pg_pb(10, honest_sampler, 20000, make_rng(28, 0))
    assert est.p_b == pytest.approx(P_B_REF, abs=0.03)
    assert est.p_light4 == pytest.approx(P_LIGHT4_REF, abs=0.03)
    assert est.p_g == pytest.approx(P_G_REF, abs=0.03)


def test_uniform_sampler_rates_follow_plain_normal_band():
    # a uniform z makes N * fhat(z)^2 approximately chi-square(1), so the
    # light band carries erf(1/sqrt(2)) of the mass
    est = estimate_pg_pb(10, uniform_sampler, 10000, make_rng(28, 1))
    assert est.p_b == pytest.approx(math.erf(1 / math.sqrt(2)), abs=0.03)


def test_sampler_objects_sample_in_range():
    f = random_function(5, make_rng(29, 0))
    rows = wht(f).scaled[None, :]
    z_h = honest_sampler.sample_batch(rows, make_rng(29, 1))
    z_u = uniform_sampler.sample_batch(rows, make_rng(29, 2))
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
