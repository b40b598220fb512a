"""Transform correctness and integer identities.

The oracle is the direct O(N^2) definition of the coefficients:
fhat(z) = mean over x of f(x) * (-1)^(popcount(x & z)).  Everything else
(fast transform, classification, agreement sets, serialization) is tested
against that and against exact integer identities.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certlab.boolfn import (
    MAX_N,
    BFN1_MAGIC,
    BooleanFunction,
    FourierSpectrum,
    SizeLimit,
    ZeroCoefficient,
    character_values,
    coefficient_at,
    fourth_moment,
    from_bfn1,
    p_set,
    random_function,
    random_functions_batch,
    spectrum_to_function,
    to_bfn1,
    wht,
    wht_rows,
)
from certlab.fouriersample import fourier_tables
from certlab.rng import make_rng
from exact_laws import HeavinessClass, classify_scaled


# ---------------------------------------------------------------- oracle

def naive_coefficients(values: np.ndarray) -> np.ndarray:
    """O(N^2) transform straight from the definition."""
    size = len(values)
    out = np.empty(size, dtype=np.float64)
    for z in range(size):
        acc = 0
        for x in range(size):
            sign = -1 if bin(x & z).count("1") % 2 else 1
            acc += int(values[x]) * sign
        out[z] = acc / size
    return out


def hadamard_oracle(n: int) -> np.ndarray:
    """Dense (N, N) int64 matrix (-1)^{popcount(z & x)}, parity by XOR folding."""
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    p = idx[:, None] & idx[None, :]
    for shift in (16, 8, 4, 2, 1):
        p ^= p >> shift
    return 1 - 2 * (p & 1)


def sign_table(n: int, bits: int) -> np.ndarray:
    """Sign table from the low 2^n bits of an integer (bit=1 -> -1)."""
    size = 1 << n
    return np.array(
        [-1 if (bits >> x) & 1 else 1 for x in range(size)], dtype=np.int8
    )


# ---------------------------------------------------------------- fast transform

@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=60, deadline=None)
def test_wht_matches_naive_definition(n, bits):
    f = BooleanFunction(n, sign_table(n, bits))
    spec = wht(f)
    assert np.allclose(spec.coeffs, naive_coefficients(f.values))
    assert np.array_equal(spec.scaled, np.round(spec.coeffs * f.size))


def test_wht_small_known_spectrum():
    # f = (+,+,+,-) on two bits: AND-like table, all coefficients +-1/2
    f = BooleanFunction(2, np.array([1, 1, 1, -1], dtype=np.int8))
    spec = wht(f)
    assert spec.coeffs.tolist() == [0.5, 0.5, 0.5, -0.5]
    assert spec.scaled.tolist() == [2, 2, 2, -2]
    assert fourth_moment(spec) == pytest.approx(0.25)


def test_wht_of_character_is_point_mass():
    n = 5
    for z in (0, 3, 31):
        f = BooleanFunction(n, character_values(n, z))
        spec = wht(f)
        expected = np.zeros(1 << n)
        expected[z] = 1.0
        assert np.array_equal(spec.coeffs, expected)


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=60, deadline=None)
def test_double_transform_recovers_function(n, bits):
    f = BooleanFunction(n, sign_table(n, bits))
    assert spectrum_to_function(wht(f)) == f


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=60, deadline=None)
def test_integer_parseval(n, bits):
    # sum of squared scaled coefficients is exactly N^2 for sign tables
    f = BooleanFunction(n, sign_table(n, bits))
    w = wht(f).scaled.astype(np.int64)
    assert int(np.dot(w, w)) == f.size * f.size


def test_wht_rows_agrees_with_per_row_transform():
    rng = make_rng(3, 0)
    rows = random_functions_batch(5, 40, rng)
    batch = wht_rows(rows.astype(np.int64))
    for i in range(40):
        f = BooleanFunction(5, rows[i])
        assert np.array_equal(batch[i], wht(f).scaled)


def test_wht_rows_is_unnormalized():
    assert wht_rows(np.array([1, 1, 1, -1], dtype=np.int64)).tolist() == [[2, 2, 2, -2]]
    # N = 1 is one 1 x 1 factor: the identity, in both dtypes
    assert wht_rows(np.array([[3], [-2]], dtype=np.int8)).tolist() == [[3], [-2]]
    assert wht_rows(np.array([2.5])).tolist() == [[2.5]]


@pytest.mark.parametrize("n", range(1, 13))
def test_wht_rows_matches_dense_oracle(n):
    # int8 and int64 +-1 rows; 5 rows, so the row blocks of the last factor
    # leave a remainder at every n
    rows = random_functions_batch(n, 5, make_rng(20, n))
    expected = rows.astype(np.int64) @ hadamard_oracle(n)
    for dtype in (np.int8, np.int64):
        out = wht_rows(rows.astype(dtype))
        assert out.dtype == np.int16
        assert np.array_equal(out, expected)


@pytest.mark.parametrize("n", range(15, MAX_N + 1))
def test_wht_rows_large_n_identities(n):
    size = 1 << n
    rng = make_rng(21, n)
    z = int(rng.integers(0, size))
    point = wht_rows(character_values(n, z))[0]
    assert point.dtype == np.int64
    assert point[z] == size and np.count_nonzero(point) == 1
    f = random_function(n, rng)
    w = wht_rows(f.values)[0]
    assert int(np.dot(w, w)) == size * size
    for z in rng.integers(0, size, size=8):
        assert int(w[z]) == coefficient_at(f, int(z)) * size


@pytest.mark.parametrize("n", [16, 20])
def test_double_transform_at_large_n(n):
    f = random_function(n, make_rng(22, n))
    assert spectrum_to_function(wht(f)) == f


@pytest.mark.parametrize("n", range(1, 11))
def test_wht_rows_exact_past_float32_range(n):
    # max |x| * N just above 2^24: output 0 is 2^24 + 1, which float32 rounds
    edge = np.full((1, 1 << n), 1 << (24 - n), dtype=np.int64)
    edge[0, 0] += 1
    # and far above it, up to the 2^53 limit of float64
    wide = make_rng(25, n).integers(-(1 << 42), 1 << 42, size=(3, 1 << n))
    for rows in (edge, wide):
        out = wht_rows(rows)
        assert out.dtype == np.int64
        assert np.array_equal(out, rows @ hadamard_oracle(n))


def test_wht_rows_refuses_rows_past_exact_range():
    edge = np.array([[1 << 52, 1]], dtype=np.int64)  # max |x| * N = 2^53
    assert wht_rows(edge).tolist() == [[(1 << 52) + 1, (1 << 52) - 1]]
    with pytest.raises(ValueError):
        wht_rows(np.array([[1 << 53, 0]], dtype=np.int64))


def test_transform_gemms_stay_under_blas_thread_threshold(monkeypatch):
    # OpenBLAS runs a GEMM with M*N*K <= 2^18 on the calling thread and
    # wakes its worker threads above that; no product may pass it, for
    # integer rows and for float rows alike, nor the partial transform's
    # stages, block-mass sums (a vector b has N = 1) and chosen-block
    # tails at the shapes rhog (n = 8, B = 4096), llqsv (n = 8, B = 2048)
    # and pgpb (n = 12, B = 512) answer, and on a row longer than a block
    sizes = []
    real = np.matmul

    def spy(a, b, **kwargs):
        sizes.append(a.shape[-2] * a.shape[-1] * (b.shape[-1] if b.ndim > 1 else 1))
        return real(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    for n in range(1, 21):
        count = 777 if n <= 12 else 1
        wht_rows(random_functions_batch(n, count, make_rng(23, n)))
        wht_rows(make_rng(24, n).standard_normal((count, 1 << n)))
    f = random_function(16, make_rng(23, 0))
    assert spectrum_to_function(wht(f)) == f  # the float64 product
    for n, count in ((8, 4096), (8, 2048), (12, 512), (20, 1)):
        before = len(sizes)
        fourier_tables(random_functions_batch(n, count, make_rng(23, n)),
                       make_rng(24, n).random(count))
        assert len(sizes) > before
    assert sizes and max(sizes) <= 1 << 18


@pytest.mark.parametrize("n", range(1, 17))
def test_float_rows_match_dense_oracle(n):
    # Gaussian rows against x @ H_N (n <= 10), integer-valued float rows
    # against the exact integer path, and the transform's own identities
    size = 1 << n
    step = max(1, (1 << 16) // size)  # rows per transform block
    tol = 1e-12 * math.sqrt(size)
    rng = make_rng(25, n)
    oracle = hadamard_oracle(n).astype(np.float64) if n <= 10 else None

    def check(x):
        got = wht_rows(x)
        want = np.atleast_2d(x).astype(np.float64)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.flags.c_contiguous and not np.shares_memory(got, x)
        if oracle is not None:
            np.testing.assert_allclose(got, want @ oracle, rtol=0, atol=tol)
        np.testing.assert_allclose(wht_rows(got) / size, want, rtol=0, atol=tol)
        return got

    for count in sorted({1, step - 1, step, step + 1, 3 * step + 5}):
        check(rng.standard_normal((count, size)))
        k = rng.integers(-8, 9, size=(count, size))
        assert np.array_equal(wht_rows(k.astype(np.float64)), wht_rows(k))
    # a 1-d row, a column slice, and float32 / bool rows cast as astype casts
    wide = rng.standard_normal((5, 2 * size))
    for x in (wide[0, :size], wide[:, size:], wide[:, ::2],
              wide[:, :size].astype(np.float32)):
        check(x)
    signs = wide[:, :size] > 0
    assert np.array_equal(check(signs), wht_rows(signs.astype(np.int8)))
    # the orthonormal transform that sample_gprime_rows applies
    def orthonormal(v):
        return wht_rows(v)[0] / math.sqrt(size)

    x = make_rng(24, n).standard_normal((2, size))
    assert np.allclose(orthonormal(orthonormal(x[0])), x[0], rtol=0, atol=1e-12)
    if n % 2 == 0:  # sqrt(N) is a power of two: integer input comes back exactly
        k = np.round(x[1] * 8)
        assert np.array_equal(orthonormal(orthonormal(k)), k)


def test_scaled_coefficients_share_parity_of_size():
    f = random_function(6, make_rng(4, 0))
    w = wht(f).scaled
    # every W is congruent to N mod 2 (here even)
    assert np.all(w % 2 == 0)


# ---------------------------------------------------------------- classification

def test_classify_scaled_boundaries_are_inclusive():
    N = 16
    assert classify_scaled(4, N) is HeavinessClass.LIGHT      # w^2 = N
    assert classify_scaled(-4, N) is HeavinessClass.LIGHT
    assert classify_scaled(5, N) is HeavinessClass.SLIGHTLY_HEAVY
    assert classify_scaled(8, N) is HeavinessClass.SLIGHTLY_HEAVY  # w^2 = 4N
    assert classify_scaled(9, N) is HeavinessClass.VERY_HEAVY
    assert classify_scaled(0, N) is HeavinessClass.LIGHT


def test_classify_enum_labels():
    assert HeavinessClass.LIGHT.value == "Light"
    assert HeavinessClass.SLIGHTLY_HEAVY.value == "SlightlyHeavy"
    assert HeavinessClass.VERY_HEAVY.value == "VeryHeavy"


# ---------------------------------------------------------------- agreement sets

@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=0, max_value=63))
@settings(max_examples=60, deadline=None)
def test_p_set_size_identity(n, bits, z_raw):
    f = BooleanFunction(n, sign_table(n, bits))
    z = z_raw % f.size
    spec = wht(f)
    if spec.scaled[z] == 0:
        with pytest.raises(ZeroCoefficient):
            p_set(f, z)
    else:
        members = p_set(f, z)
        # |P_f| = N (1 + |fhat|) / 2 exactly
        assert 2 * members.size == f.size + abs(int(spec.scaled[z]))


def test_p_set_members_agree_with_signed_character():
    f = random_function(5, make_rng(6, 0))
    spec = wht(f)
    z = int(np.argmax(np.abs(spec.scaled)))
    sgn = 1 if spec.scaled[z] > 0 else -1
    chi = character_values(5, z)
    members = p_set(f, z)
    mask = np.zeros(f.size, dtype=bool)
    mask[members] = True
    assert np.array_equal(mask, f.values == sgn * chi)


def test_p_set_zero_coefficient_raises():
    f = BooleanFunction(1, np.array([1, 1], dtype=np.int8))  # fhat = (1, 0)
    with pytest.raises(ZeroCoefficient, match="no sign"):
        p_set(f, 1)


def test_coefficient_at_matches_spectrum():
    f = random_function(6, make_rng(7, 0))
    spec = wht(f)
    for z in (0, 1, 17, 63):
        assert coefficient_at(f, z) == pytest.approx(float(spec.coeffs[z]))


def test_multiply_by_character_shifts_spectrum():
    n = 4
    f = random_function(n, make_rng(8, 0))
    g = BooleanFunction(n, f.values * character_values(n, 5))
    sf, sg = wht(f), wht(g)
    # multiplying by chi_5 permutes coefficients by XOR with 5
    for z in range(f.size):
        assert sg.coeffs[z] == pytest.approx(float(sf.coeffs[z ^ 5]))


# ---------------------------------------------------------------- construction

def test_size_limit_enforced():
    with pytest.raises(SizeLimit):
        BooleanFunction(MAX_N + 1, np.ones(2, dtype=np.int8))
    with pytest.raises(SizeLimit):
        BooleanFunction(0, np.ones(1, dtype=np.int8))


def test_bad_values_rejected():
    with pytest.raises(ValueError):
        BooleanFunction(2, np.array([1, 1, 1], dtype=np.int8))
    with pytest.raises(ValueError):
        BooleanFunction(1, np.array([1, 2], dtype=np.int8))


def test_equality_and_hash():
    a = BooleanFunction(2, np.array([1, -1, 1, -1], dtype=np.int8))
    b = BooleanFunction(2, np.array([1, -1, 1, -1], dtype=np.int8))
    c = BooleanFunction(2, np.array([1, -1, 1, 1], dtype=np.int8))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_random_function_is_seeded():
    f1 = random_function(8, make_rng(9, 0))
    f2 = random_function(8, make_rng(9, 0))
    f3 = random_function(8, make_rng(9, 1))
    assert f1 == f2
    assert f1 != f3  # 2^-256 false-failure probability


def test_random_functions_batch_matches_single_draws():
    rows = random_functions_batch(4, 10, make_rng(10, 0))
    assert rows.shape == (10, 16)
    assert rows.dtype == np.int8
    assert np.all(np.abs(rows) == 1)


def signs_oracle(rng, shape):
    """The plain numpy sign draw the raw-word reader must reproduce."""
    return 1 - 2 * rng.integers(0, 2, size=shape, dtype=np.int8)


# Draws before the sign table: 0-3 uint32 draws (1 and 3 leave half a word
# pending), and an odd-length bounded int64 draw as llqsv makes (numpy takes
# values below 2^32 from 32-bit halves, so it leaves one pending too).
PRE_DRAWS = [(f"uint32x{j}", j % 2,
              lambda g, j=j: g.integers(0, 2**32, size=j, dtype=np.uint32))
             for j in range(4)]
PRE_DRAWS.append(("int64x7", 1, lambda g: g.integers(0, 256, size=7, dtype=np.int64)))


def assert_same_stream(got_rng, want_rng):
    assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)
    for draw in (lambda g: g.random(3),
                 lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
                 lambda g: g.integers(0, 256, size=3, dtype=np.int64)):
        a, b = draw(got_rng), draw(want_rng)
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("n,count", [(n, c) for n in range(1, 15)
                                     for c in (1, 3, 40, 512)] + [(16, 40)])
def test_sign_tables_match_integers_oracle(n, count):
    draws = [lambda g: random_functions_batch(n, count, g)]
    if count == 1:
        draws.append(lambda g: random_function(n, g).values[None])
    for i, (name, pending, pre) in enumerate(PRE_DRAWS):
        for draw in draws:
            want_rng, got_rng = make_rng(11, n, count, i), make_rng(11, n, count, i)
            for g in (want_rng, got_rng):
                pre(g)
                assert g.bit_generator.state["has_uint32"] == pending, name
            want = signs_oracle(want_rng, (count, 1 << n))
            got = draw(got_rng)
            assert got.dtype == np.int8 and np.array_equal(got, want), name
            assert_same_stream(got_rng, want_rng)


# ---------------------------------------------------------------- serialization

@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=(1 << 256) - 1))
@settings(max_examples=60, deadline=None)
def test_bfn1_roundtrip(n, bits):
    size = 1 << n
    values = np.array(
        [-1 if (bits >> x) & 1 else 1 for x in range(size)], dtype=np.int8
    )
    f = BooleanFunction(n, values)
    assert from_bfn1(to_bfn1(f)) == f


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=300, deadline=None)
def test_bfn1_accepts_only_canonical_bytes(n, data):
    # a parse either fails with ValueError or re-encodes to the same bytes
    bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    values = np.array([-1 if (bits >> x) & 1 else 1 for x in range(1 << n)],
                      dtype=np.int8)
    blob = to_bfn1(BooleanFunction(n, values))
    assert to_bfn1(from_bfn1(blob)) == blob
    pos = data.draw(st.integers(0, len(blob) - 1))
    kind = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    if kind == "delete":
        bad = blob[:pos] + blob[pos + 1:]
    else:
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]))
        bad = blob[:pos] + bytes([byte]) + blob[pos + (kind == "replace"):]
    try:
        g = from_bfn1(bad)
    except ValueError:
        return
    assert to_bfn1(g) == bad


def test_bfn1_rejects_padding_and_trailing_bytes():
    blob = to_bfn1(BooleanFunction(2, np.array([1, -1, 1, 1], dtype=np.int8)))
    assert blob[8] == 0b0010
    with pytest.raises(ValueError, match="padding"):
        from_bfn1(blob[:8] + bytes([blob[8] | 0x80]))
    with pytest.raises(ValueError, match="trailing"):
        from_bfn1(blob + b"\x00")


def test_bfn1_layout():
    f = BooleanFunction(3, np.array([1, -1, 1, 1, -1, 1, 1, 1], dtype=np.int8))
    blob = to_bfn1(f)
    assert blob[:4] == BFN1_MAGIC
    assert struct.unpack("<I", blob[4:8])[0] == 3
    assert len(blob) == 4 + 4 + 1  # header + one packed byte for 8 signs


def test_bfn1_rejects_garbage():
    with pytest.raises(ValueError):
        from_bfn1(b"NOPE" + b"\x00" * 8)
    f = BooleanFunction(3, np.ones(8, dtype=np.int8))
    with pytest.raises(ValueError):
        from_bfn1(to_bfn1(f)[:-1])


# ---------------------------------------------------------------- spectra

def test_spectrum_validation():
    with pytest.raises(ValueError):
        FourierSpectrum(2, np.zeros(3), np.zeros(3, dtype=np.int64))


def test_spectrum_to_function_rejects_non_sign_tables():
    bad = FourierSpectrum(
        1, np.array([0.25, 0.25]), np.array([1, 1], dtype=np.int64)
    )
    with pytest.raises(ValueError):
        spectrum_to_function(bad)


def test_fourth_moment_of_character_is_one():
    f = BooleanFunction(4, character_values(4, 7))
    assert fourth_moment(wht(f)) == pytest.approx(1.0)
