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


def wht_inplace(buf: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterfly, in place on a length-2^k buffer.

    After one pass buf[z] = sum_x buf_in[x] (-1)^{z.x}; applying the pass
    twice multiplies the original buffer by its length.  Works for integer
    or float buffers; the caller owns the scratch space.
    """
    size = buf.shape[-1]
    if size & (size - 1) or size == 0:
        raise ValueError("buffer length must be a power of two")
    h = 1
    while h < size:
        for start in range(0, size, 2 * h):
            a = buf[..., start:start + h].copy()
            b = buf[..., start + h:start + 2 * h]
            buf[..., start:start + h] = a + b
            buf[..., start + h:start + 2 * h] = a - b
        h *= 2
    return buf


def wht_rows(rows: np.ndarray) -> np.ndarray:
    """Unnormalized transform of each row of a (B, N) array, vectorized.

    Reshape-based butterfly: no Python loop over rows, O(N log N) work per
    row.  Returns a new array with the rows' dtype widened enough to hold
    the +-N range (int16 is sufficient up to n = 14, else int64/float64).
    """
    rows = np.atleast_2d(rows)
    nrows, size = rows.shape
    if size & (size - 1) or size == 0:
        raise ValueError("row length must be a power of two")
    if np.issubdtype(rows.dtype, np.integer):
        dtype = np.int16 if size <= (1 << 14) else np.int64
    else:
        dtype = np.float64
    a = rows.astype(dtype)
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
    size = f.size
    buf = f.values.astype(np.int64)
    wht_inplace(buf)
    return FourierSpectrum(f.n, buf / size, buf)


def spectrum_to_function(spec: FourierSpectrum) -> BooleanFunction:
    """Invert a spectrum back to its sign table via the integer transform."""
    buf = spec.scaled.astype(np.int64).copy()
    wht_inplace(buf)
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


def multiply_by_character(f: BooleanFunction, s: int) -> BooleanFunction:
    """Pointwise product f * chi_s (shifts the spectrum by XOR with s)."""
    return BooleanFunction(f.n, f.values * character_values(f.n, s))


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
    if spec is None:
        spec = wht(f)
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
    chi = character_values(f.n, z)
    return np.nonzero(f.values == s * chi)[0]


def coefficient_at(f: BooleanFunction, z: int) -> float:
    """Single coefficient fhat(z) by direct O(N) summation (exact)."""
    total = int(np.dot(f.values.astype(np.int64), character_values(f.n, z)))
    return total / f.size


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
