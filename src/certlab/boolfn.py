"""Boolean functions on {0,1}^n and their Walsh-Hadamard spectra.

A function is a table of N = 2^n signs, indexed by the integer encoding of
the input string.  The spectrum is kept in two forms: float coefficients
fhat(z) = (1/N) sum_x f(x) (-1)^{z.x}, and the scaled integers
W(z) = N*fhat(z), which are exact (W always has the parity of N).  The
inner product z.x is the parity of the bitwise AND of the two indices.

Heaviness of a coefficient is judged against 1/sqrt(N) and 2/sqrt(N) with
inclusive upper boundaries: |fhat| = 1/sqrt(N) is still Light and
|fhat| = 2/sqrt(N) is still SlightlyHeavy.
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass

import numpy as np

MAX_N = 24  # N = 16M signs; keeps every dense array desk-sized


class SizeLimit(ValueError):
    """Raised when n is outside the supported range 1..MAX_N."""


class ZeroCoefficient(ValueError):
    """Raised when an operation needs sgn(fhat(z)) but fhat(z) = 0."""


class HeavinessClass(enum.Enum):
    LIGHT = "Light"
    SLIGHTLY_HEAVY = "SlightlyHeavy"
    VERY_HEAVY = "VeryHeavy"


def _check_n(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError("n must be an integer")
    if n < 1 or n > MAX_N:
        raise SizeLimit(f"n must be in 1..{MAX_N}, got {n}")
    return int(n)


@dataclass(frozen=True)
class BooleanFunction:
    """Sign table f : {0,1}^n -> {+1,-1}, immutable after construction."""

    n: int
    values: np.ndarray  # int8, length 2^n, entries +-1

    def __post_init__(self):
        n = _check_n(self.n)
        v = np.asarray(self.values, dtype=np.int8)
        if v.shape != (1 << n,):
            raise ValueError(f"values must have length 2^{n} = {1 << n}")
        if not np.all(np.abs(v) == 1):
            raise ValueError("values must all be +1 or -1")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return 1 << self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.n, self.values.tobytes()))


@dataclass(frozen=True)
class FourierSpectrum:
    """Spectrum of a BooleanFunction.

    `coeffs` holds fhat(z) as float64; `scaled` holds the exact integers
    N*fhat(z).  Both are immutable.  Sum of scaled**2 equals N**2 exactly
    (the integer form of Parseval), so coeffs satisfies Parseval to
    roundoff.
    """

    n: int
    coeffs: np.ndarray  # float64, length N
    scaled: np.ndarray  # int64,   length N; scaled = N * coeffs exactly

    def __post_init__(self):
        n = _check_n(self.n)
        c = np.asarray(self.coeffs, dtype=np.float64).copy()
        w = np.asarray(self.scaled, dtype=np.int64).copy()
        if c.shape != (1 << n,) or w.shape != (1 << n,):
            raise ValueError(f"coeffs and scaled must have length 2^{n}")
        c.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "scaled", w)

    @property
    def size(self) -> int:
        return 1 << self.n


# OpenBLAS, numpy's BLAS, runs a GEMM whose M*N*K is at most 65536 * 4 on
# the calling thread and hands larger ones to its worker threads.  The
# integer kernel below keeps every GEMM it issues at or under this size, so a
# transform never wakes those threads (they would spin beside the --threads
# workers and slow them).
_GEMM_MAX = 1 << 18
_FACTOR_BITS = 5  # Hadamard factors are at most 2^5 x 2^5
# Rows are transformed in blocks of about this many elements, through two
# work buffers allocated once per call: the blocks stay in cache, and large
# calls do not fault in fresh pages for every intermediate.
_BLOCK = 1 << 16


@functools.cache
def _hadamard(bits: int, dtype) -> np.ndarray:
    """Read-only Sylvester matrix H_{2^bits}: entry (i, j) is (-1)^{i.j}.

    Cached per (bits, dtype); the cache is safe to share between threads
    (a race at worst builds the same matrix twice).
    """
    i = np.arange(1 << bits)
    parity = (np.bitwise_count(i[:, None] & i[None, :]) & 1).astype(np.int8)
    h = (1 - 2 * parity).astype(dtype)
    h.setflags(write=False)
    return h


def _factor_bits(n: int) -> list[int]:
    """Split n into the fewest parts of at most _FACTOR_BITS, sizes within one."""
    k = -(-n // _FACTOR_BITS)
    return [n // k + (i < n % k) for i in range(k)]


def _kron_transform(a: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Unnormalized transform of the rows of a float (B, N) array by GEMM.

    H_N = H_{d_1} (x) ... (x) H_{d_k} (Sylvester), so with the row viewed as
    a (d_1, ..., d_k) tensor the transform applies H_{d_j} along axis j.
    Every axis but the last is mixed by a stacked left multiply H_d @ x on
    (d, c) column blocks; the last, contiguous axis by x @ H_d on blocks of
    c rows.  c is chosen so that each GEMM has M*N*K <= _GEMM_MAX.  The
    factors ping-pong between `a` and `spare` (same shape, both clobbered);
    the one returned holds the result.
    """
    bits = _factor_bits(a.shape[1].bit_length() - 1)
    inner = a.shape[1]
    for b in bits[:-1]:
        d = 1 << b
        inner >>= b
        c = min(inner, _GEMM_MAX >> (2 * b))
        src = a.reshape(-1, d, inner // c, c).transpose(0, 2, 1, 3)
        dst = spare.reshape(-1, d, inner // c, c).transpose(0, 2, 1, 3)
        np.matmul(_hadamard(b, a.dtype), src, out=dst)
        a, spare = spare, a
    b = bits[-1]
    h = _hadamard(b, a.dtype)
    src = a.reshape(-1, 1 << b)
    dst = spare.reshape(-1, 1 << b)
    c = _GEMM_MAX >> (2 * b)
    full = src.shape[0] - src.shape[0] % c
    if full:
        np.matmul(src[:full].reshape(-1, c, 1 << b), h,
                  out=dst[:full].reshape(-1, c, 1 << b))
    if full < src.shape[0]:
        np.matmul(src[full:], h, out=dst[full:])
    return spare


def wht_rows(rows: np.ndarray) -> np.ndarray:
    """Unnormalized transform of each row of a (B, N) array.

    Row z of the result is sum_x rows[x] (-1)^{z.x}; applying it twice
    multiplies a row by N.  A 1-d input is one row.

    Integer rows go through a Kronecker-factored BLAS product
    (`_kron_transform`) and come back as exact integers.  With m = max |x|,
    every partial sum of that product, in any summation order, is an
    integer of magnitude at most m*N.  So the product runs in float32 when
    m*N <= 2^24 (every +-1 row, as N <= 2^24) and in float64 when
    m*N <= 2^53 (a scaled spectrum fed back, where partial sums reach about
    N^1.5); larger rows are refused.  The result is int16 when m*N < 2^15
    (+-1 rows up to n = 14) and int64 otherwise.

    Float rows go through a reshape butterfly in float64, whose fixed
    summation order the float-input callers' output bytes depend on.
    """
    rows = np.atleast_2d(rows)
    nrows, size = rows.shape
    if size & (size - 1) or size == 0:
        raise ValueError("row length must be a power of two")
    if np.issubdtype(rows.dtype, np.integer):
        bound = size * max(1, int(rows.max(initial=0)), -int(rows.min(initial=0)))
        if bound > 1 << 53:
            raise ValueError("integer rows too large for an exact transform "
                             "(max |x| * N > 2^53)")
        out = np.empty((nrows, size),
                       dtype=np.int16 if bound < 1 << 15 else np.int64)
        step = max(1, _BLOCK // size)
        a = np.empty((min(step, nrows), size),
                     dtype=np.float32 if bound <= 1 << 24 else np.float64)
        spare = np.empty_like(a)
        for i in range(0, nrows, step):
            m = min(step, nrows - i)
            a[:m] = rows[i:i + m]
            out[i:i + m] = _kron_transform(a[:m], spare[:m])
        return out
    a = rows.astype(np.float64)
    h = 1
    while h < size:
        a = a.reshape(nrows, -1, 2, h)
        top = a[:, :, 0, :] + a[:, :, 1, :]
        bot = a[:, :, 0, :] - a[:, :, 1, :]
        a = np.stack([top, bot], axis=2).reshape(nrows, size)
        h *= 2
    return a


def wht(f: BooleanFunction) -> FourierSpectrum:
    """Fourier spectrum of f: coeffs[z] = (1/N) sum_x f(x) (-1)^{z.x}."""
    w = wht_rows(f.values)[0]
    return FourierSpectrum(f.n, w / f.size, w)


def spectrum_to_function(spec: FourierSpectrum) -> BooleanFunction:
    """Invert a spectrum back to its sign table via the integer transform."""
    buf = wht_rows(spec.scaled)[0].astype(np.int64)
    vals = buf // spec.size
    if not np.all(np.abs(vals) == 1) or not np.all(buf == vals * spec.size):
        raise ValueError("spectrum is not the transform of a sign table")
    return BooleanFunction(spec.n, vals.astype(np.int8))


def classify(coeff: float, N: int) -> HeavinessClass:
    """Heaviness of a single coefficient against the 1/sqrt(N), 2/sqrt(N) bars.

    The comparison is done on N*coeff^2 vs 1 and 4, which is exact for
    genuine spectra (coeff = W/N dyadic, W^2 < 2^53), so boundary cases
    land on the inclusive side by arithmetic rather than luck.
    """
    if N < 1:
        raise ValueError("N must be positive")
    t = coeff * coeff * N
    if t <= 1.0:
        return HeavinessClass.LIGHT
    if t <= 4.0:
        return HeavinessClass.SLIGHTLY_HEAVY
    return HeavinessClass.VERY_HEAVY


def classify_scaled(w: int, N: int) -> HeavinessClass:
    """Exact integer heaviness of a scaled coefficient W = N*fhat."""
    w2 = int(w) * int(w)
    if w2 <= N:
        return HeavinessClass.LIGHT
    if w2 <= 4 * N:
        return HeavinessClass.SLIGHTLY_HEAVY
    return HeavinessClass.VERY_HEAVY


def character_values(n: int, z: int) -> np.ndarray:
    """chi_z as a sign table: entry x is (-1)^{z.x}, int8."""
    n = _check_n(n)
    size = 1 << n
    if not 0 <= z < size:
        raise ValueError(f"z must be in 0..{size - 1}")
    x = np.arange(size, dtype=np.uint32)
    parity = np.bitwise_count(x & np.uint32(z)).astype(np.int8) & 1
    return (1 - 2 * parity).astype(np.int8)


def p_set(
    f: BooleanFunction,
    z: int,
    spec: FourierSpectrum | None = None,
    sign: int | None = None,
) -> np.ndarray:
    """Indices x where f agrees with sgn(fhat(z)) * chi_z, sorted ascending.

    The result always has exactly N*(1 + |fhat(z)|)/2 elements.  If
    fhat(z) = 0 the majority sign is undefined and the caller must pass
    sign=+1 or sign=-1 explicitly.
    """
    chi = character_values(f.n, z)
    if spec is None:
        w = int(np.dot(f.values.astype(np.int64), chi))
    else:
        w = int(spec.scaled[z])
    if w > 0:
        s = 1
    elif w < 0:
        s = -1
    else:
        if sign not in (1, -1):
            raise ZeroCoefficient(
                f"fhat({z}) = 0; pass sign=+1 or sign=-1 to break the tie"
            )
        s = sign
    return np.nonzero(f.values == s * chi)[0]


def coefficient_at(f: BooleanFunction, z: int) -> float:
    """Single coefficient fhat(z) by direct O(N) summation (exact)."""
    total = int(np.dot(f.values.astype(np.int64), character_values(f.n, z)))
    return total / f.size


def scaled_at(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Scaled coefficients W_i(z_i) = N * fhat_i(z_i), one per row, as int64.

    Direct O(N) summation per row, like coefficient_at, in blocks of about
    _BLOCK elements.  f(x) chi_z(x) is +1 exactly where "f(x) = -1" and
    "z.x is odd" are both true or both false, so W = 2 * #those x - N.
    """
    rows = np.atleast_2d(rows)
    z = np.asarray(z, dtype=np.int64)
    size = rows.shape[1]
    x = np.arange(size, dtype=np.int64)
    out = np.empty(len(z), dtype=np.int64)
    step = max(1, _BLOCK // size)
    for i in range(0, len(z), step):
        odd = np.bitwise_count(z[i:i + step, None] & x) & 1
        agree = np.count_nonzero(odd == (rows[i:i + step] < 0), axis=1)
        out[i:i + step] = 2 * agree - size
    return out


def fourth_moment(spec: FourierSpectrum) -> float:
    """Collision probability sum_z fhat(z)^4 of the squared spectrum.

    Always in [1/N, 1]: 1/N when the spectrum is flat, 1 for a character.
    """
    c2 = spec.coeffs * spec.coeffs
    return float(np.dot(c2, c2))


def random_function(n: int, rng: np.random.Generator) -> BooleanFunction:
    """Uniformly random sign table; same generator state, same table."""
    n = _check_n(n)
    bits = rng.integers(0, 2, size=1 << n, dtype=np.int8)
    return BooleanFunction(n, 1 - 2 * bits)


def random_functions_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, N) int8 array of independent random sign tables."""
    n = _check_n(n)
    bits = rng.integers(0, 2, size=(count, 1 << n), dtype=np.int8)
    return 1 - 2 * bits


BFN1_MAGIC = b"BFN1"


def to_bfn1(f: BooleanFunction) -> bytes:
    """Serialize: magic 'BFN1', n as u32 LE, then N bits packed LSB-first.

    Bit b at position x encodes f(x) = (-1)^b, i.e. 0 means +1.
    """
    bits = ((1 - f.values) // 2).astype(np.uint8)
    packed = np.packbits(bits, bitorder="little")
    return BFN1_MAGIC + struct.pack("<I", f.n) + packed.tobytes()


def from_bfn1(data: bytes) -> BooleanFunction:
    """Parse the BFN1 wire format back into a BooleanFunction.

    Only the canonical encoding is accepted: no bytes after the last
    packed byte, and zero padding bits when N < 8.
    """
    if len(data) < 8 or data[:4] != BFN1_MAGIC:
        raise ValueError("bad magic: not a BFN1 payload")
    (n,) = struct.unpack("<I", data[4:8])
    n = _check_n(n)
    size = 1 << n
    nbytes = (size + 7) // 8
    if len(data) < 8 + nbytes:
        raise ValueError("truncated BFN1 payload")
    if len(data) > 8 + nbytes:
        raise ValueError("trailing bytes after BFN1 payload")
    if size < 8 and data[8] >> size:
        raise ValueError("non-zero padding bits in BFN1 payload")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=8),
                         bitorder="little")
    return BooleanFunction(n, (1 - 2 * bits[:size]).astype(np.int8))
