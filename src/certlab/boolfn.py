"""Boolean functions on {0,1}^n and their Walsh-Hadamard spectra.

A function is a table of N = 2^n signs, indexed by the integer encoding of
the input string.  The spectrum is kept in two forms: float coefficients
fhat(z) = (1/N) sum_x f(x) (-1)^{z.x}, and the scaled integers
W(z) = N*fhat(z), which are exact (W always has the parity of N).  The
inner product z.x is the parity of the bitwise AND of the two indices.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .rng import blocks

MAX_N = 24  # N = 16M signs; keeps every dense array desk-sized


class SizeLimit(ValueError):
    """Raised when n is outside the supported range 1..MAX_N."""


class ZeroCoefficient(ValueError):
    """Raised when an operation needs sgn(fhat(z)) but fhat(z) = 0."""


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
# transform kernel below keeps every GEMM it issues at or under this size, so
# a transform never wakes those threads (they would spin beside the --threads
# workers and slow them).
_GEMM_MAX = 1 << 18
_FACTOR_BITS = 5  # Hadamard factors are at most 2^5 x 2^5
# Elements per block of the compute loops here, in `sqforrelation` and in
# `fouriersample`'s block search, whose block size moves no byte.  A block's
# work buffers, allocated once per call, stay in cache, so large calls do
# not fault in fresh pages for every intermediate; a block is large enough
# that the numpy calls per batch, each a GIL hand-off between --threads
# workers, stay few; and the search's chunk of _BLOCK / 64 blocks keeps its
# (1024, 64) @ ones(64) product on OpenBLAS's calling thread (2^19 elements
# woke its worker threads, when measured).
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
    k = max(1, -(-n // _FACTOR_BITS))  # n = 0 is one 1 x 1 factor
    return [n // k + (i < n % k) for i in range(k)]


def _exact_work(bound: int):
    """The first of float32, float64, int64 where integers |x| <= bound add exactly."""
    return np.float32 if bound <= 2**24 else np.float64 if bound <= 2**53 else np.int64


def _kron_plan(a: np.ndarray, spare: np.ndarray, last=True):
    """The GEMMs that transform the rows of a float (B, N) array `a`.

    H_N = H_{d_1} (x) ... (x) H_{d_k} (Sylvester), so with the row viewed as
    a (d_1, ..., d_k) tensor the transform applies H_{d_j} along axis j.
    Every axis but the last is mixed by a stacked left multiply H_d @ x on
    (d, c) column blocks; the last, contiguous axis by x @ H_d on blocks of
    c rows (left out when `last` is false).  c is chosen so that each GEMM
    has M*N*K <= _GEMM_MAX.  The factors ping-pong between `a` and `spare`
    (same shape, both clobbered).  Returns the operands (x, y, out) of each
    np.matmul(x, y, out=out), in order, and the view that then holds the
    result.
    """
    bits = _factor_bits(a.shape[1].bit_length() - 1)
    inner = a.shape[1]
    products = []
    for b in bits[:-1]:
        d = 1 << b
        inner >>= b
        c = min(inner, _GEMM_MAX >> (2 * b))
        src, dst = (x.reshape(-1, d, inner // c, c).transpose(0, 2, 1, 3)
                    for x in (a, spare))
        products.append((_hadamard(b, a.dtype), src, dst))
        a, spare = spare, a
    if not last:
        return products, a
    b = bits[-1]
    h = _hadamard(b, a.dtype)
    src, dst = a.reshape(-1, 1 << b), spare.reshape(-1, 1 << b)
    c = _GEMM_MAX >> (2 * b)
    full = src.shape[0] - src.shape[0] % c
    if full:
        products.append((src[:full].reshape(-1, c, 1 << b), h,
                         dst[:full].reshape(-1, c, 1 << b)))
    if full < src.shape[0]:
        products.append((src[full:], h, dst[full:]))
    return products, spare


def _kron_blocks(rows: np.ndarray, work, last=True):
    """Yield (start, count, result) for each block of about _BLOCK elements
    of the (B, N) `rows`, cast to the float type `work` and transformed by
    the GEMMs of `_kron_plan` in two work buffers allocated once per call;
    `result` is overwritten by the next block.  Each block height (the full
    block and the remainder) is planned once per call, so a block costs its
    copy in and its GEMMs, which run without the GIL; building views holds
    the GIL, and per block --threads workers would queue on it.  Plans and
    buffers are local to the call: threads share none of them.
    """
    nrows, size = rows.shape
    a, spare = np.empty((2, max(1, min(nrows, _BLOCK // size)), size), dtype=work)
    plans = {}
    for i, m in blocks(nrows, a.shape[0]):
        if m not in plans:
            plans[m] = (a[:m], *_kron_plan(a[:m], spare[:m], last))
        head, products, result = plans[m]
        head[...] = rows[i:i + m]
        for x, y, out in products:
            np.matmul(x, y, out=out)
        yield i, m, result


def wht_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized transform of each row of a (B, N) array.

    Row z of the result is sum_x rows[x] (-1)^{z.x}; applying it twice
    multiplies a row by N.  A 1-d input is one row.  `out`, when given, is
    a (B, N) array of the result dtype that receives the result; it may be
    `rows` itself, since each block is copied out before it is written.

    Rows of both dtypes go through one Kronecker-factored BLAS product in
    blocks of about _BLOCK elements (`_kron_blocks`), its GEMMs planned once
    per call and block height.  Integer rows come back as exact integers.
    With m = max |x|, every partial sum of that product, in any summation
    order, is an integer of magnitude at most m*N.  So the product runs in
    float32 when m*N <= 2^24 (every +-1 row, as N <= 2^24) and in float64
    when m*N <= 2^53 (a scaled spectrum fed back, where partial sums reach
    about N^1.5); larger rows are refused.  The result is int16 when
    m*N < 2^15 (+-1 rows up to n = 14) and int64 otherwise.

    Other rows are cast as astype(np.float64) casts them and come back as
    float64: the exact transform up to rounding, and the same bits for a
    given numpy/BLAS build, CPU kernel and numpy SIMD dispatch (the last
    bits may differ under another BLAS kernel, whose summation order
    differs, or under another SIMD target of numpy's own float loops).
    """
    rows = np.atleast_2d(rows)
    nrows, size = rows.shape
    if size & (size - 1) or size == 0:
        raise ValueError("row length must be a power of two")
    dtype = work = np.float64
    if np.issubdtype(rows.dtype, np.integer):
        bound = size * max(1, int(rows.max(initial=0)), -int(rows.min(initial=0)))
        if bound > 1 << 53:
            raise ValueError("integer rows too large for an exact transform "
                             "(max |x| * N > 2^53)")
        dtype = np.int16 if bound < 1 << 15 else np.int64
        work = _exact_work(bound)
    if out is None:
        out = np.empty((nrows, size), dtype=dtype)
    for i, m, result in _kron_blocks(rows, work):
        out[i:i + m] = result
    return out


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


def character_values(n: int, z: int) -> np.ndarray:
    """chi_z as a sign table: entry x is (-1)^{z.x}, int8."""
    n = _check_n(n)
    size = 1 << n
    if not 0 <= z < size:
        raise ValueError(f"z must be in 0..{size - 1}")
    x = np.arange(size, dtype=np.uint32)
    parity = np.bitwise_count(x & np.uint32(z)).astype(np.int8) & 1
    return (1 - 2 * parity).astype(np.int8)


def p_set(f: BooleanFunction, z: int) -> np.ndarray:
    """Indices x where f agrees with sgn(fhat(z)) * chi_z, sorted ascending.

    The result always has exactly N*(1 + |fhat(z)|)/2 elements.  If
    fhat(z) = 0 there is no sign to move toward zero: ZeroCoefficient.
    """
    chi = character_values(f.n, z)
    w = int(np.dot(f.values.astype(np.int64), chi))
    if w == 0:
        raise ZeroCoefficient(f"fhat({z}) = 0 has no sign to move toward zero")
    return np.nonzero(f.values == (1 if w > 0 else -1) * chi)[0]


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
    for i, m in blocks(len(z), step):
        odd = np.bitwise_count(z[i:i + m, None] & x) & 1
        agree = np.count_nonzero(odd == (rows[i:i + m] < 0), axis=1)
        out[i:i + m] = 2 * agree - size
    return out


def fourth_moment(spec: FourierSpectrum) -> float:
    """Collision probability sum_z fhat(z)^4 of the squared spectrum.

    Always in [1/N, 1]: 1/N when the spectrum is flat, 1 for a character.
    """
    c2 = spec.coeffs * spec.coeffs
    return float(np.dot(c2, c2))


def random_function(n: int, rng: np.random.Generator) -> BooleanFunction:
    """Uniformly random sign table; same generator state, same table."""
    return BooleanFunction(n, random_functions_batch(n, 1, rng)[0])


def random_functions_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, N) int8 array of independent random sign tables.

    Bit for bit 1 - 2 * rng.integers(0, 2, (count, N), int8), and the same
    generator state after: numpy draws each of those bits as bit 7 of the
    next byte of the raw Philox words, in stream order (each word's bytes
    low first), after the 4 bytes of a uint32 half that an earlier draw
    left pending.  So the pending half (at most 4 values) and the last
    1..8 values go through rng.integers, which also leaves the stale half
    the plain draw would; the rest is read from random_raw, where an
    arithmetic >> 7 of each byte gives 0 or -1 and | 1 makes that +1 or
    -1.  The oracle test in tests/test_boolfn.py pins this layout against
    the installed numpy.
    """
    n = _check_n(n)
    total = count << n
    out = np.empty(total, dtype=np.int8)
    head = min(total, 4) if rng.bit_generator.state["has_uint32"] else 0
    mid = head + 8 * max(0, (total - head - 1) // 8)
    np.negative(rng.integers(0, 2, size=head, dtype=np.int8), out=out[:head])
    raw = rng.bit_generator.random_raw((mid - head) // 8)
    np.right_shift(raw.astype("<u8", copy=False).view(np.int8), 7, out=out[head:mid])
    np.negative(rng.integers(0, 2, size=total - mid, dtype=np.int8), out=out[mid:])
    out |= 1
    return out.reshape(count, 1 << n)


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
